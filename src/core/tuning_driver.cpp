#include "core/tuning_driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/instrumentation.hpp"
#include "core/journal.hpp"
#include "core/jsonl.hpp"
#include "core/rating_cache.hpp"
#include "core/remote_eval.hpp"
#include "dist/coordinator.hpp"
#include "obs/attribution.hpp"
#include "obs/event_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rating/baselines.hpp"
#include "rating/cbr.hpp"
#include "rating/mbr.hpp"
#include "rating/rbr.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace peak::core {

namespace {

/// Cached references into the global metrics registry; resolving by name
/// once keeps the per-rating updates down to relaxed atomic ops.
struct DriverMetrics {
  obs::Counter& configs_evaluated =
      obs::counter("search.configs_evaluated");
  obs::Counter& ratings_started = obs::counter("rating.started");
  obs::Counter& ratings_converged = obs::counter("rating.converged");
  obs::Counter& ratings_exhausted = obs::counter("rating.exhausted");
  obs::Counter& invocations = obs::counter("rating.invocations");
  obs::Histogram& window_occupancy = obs::histogram(
      "rating.window_samples", {10, 20, 40, 80, 160, 320, 640});
  obs::Gauge& mbr_residual = obs::gauge("rating.mbr_residual");

  /// One finished rating: convergence tally plus window occupancy.
  void observe(const JournalEval::RatingObs& o) {
    (o.converged ? ratings_converged : ratings_exhausted).inc();
    window_occupancy.observe(static_cast<double>(o.samples));
  }

  static DriverMetrics& get() {
    static DriverMetrics metrics;
    return metrics;
  }
};

/// Raised when a rating method cannot produce any estimate within its
/// sample budget; tune_auto() responds by switching down the method chain
/// (paper Section 3).
struct RatingNotConverging : std::runtime_error {
  explicit RatingNotConverging(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace

/// Rates configurations with one method. Every rating is a batch member:
/// its measurement stream is reseeded from the (seed, base, candidate)
/// content and runs on a backend clone, and its state deltas merge in
/// canonical candidate order — whether the batch runs inline, on a pool,
/// in forked workers, or on a remote fleet.
class TuningDriver::Evaluator final : public search::ConfigEvaluator {
public:
  Evaluator(const TuningDriver& driver, rating::Method method,
            const ir::Function& fn, fault::Quarantine& quarantine,
            TuningJournal* journal, const JournalSegment* replay)
      : driver_(driver),
        method_(method),
        fn_(fn),
        backend_seed_(support::hash_combine(
            driver.options_.seed, support::stable_hash(fn.name()))),
        backend_(fn, [&] {
          sim::TsTraits t = driver.workload_.traits();
          t.workload_scale = driver.trace_.workload_scale;
          return t;
        }(), driver.machine_, driver.effects_, backend_seed_),
        quarantine_(quarantine),
        journal_(journal),
        replay_(replay) {
    // Distributed rating is a transport for the batch contract, not the
    // fault layer: injector verdicts depend on coordinator-side retry and
    // quarantine state a remote rating cannot reproduce, and process
    // isolation already has its own fan-out. Refuse the combinations
    // instead of silently measuring something else.
    PEAK_CHECK(driver.options_.coordinator == nullptr ||
                   driver.options_.fault.injector == nullptr,
               "distributed tuning cannot run with a fault injector");
    PEAK_CHECK(driver.options_.coordinator == nullptr ||
                   driver.options_.isolate_workers == 0,
               "distributed tuning excludes isolate_workers");
    // The persistent rating cache is sound only without a fault injector
    // (injector verdicts depend on attempt/quarantine state that is not
    // part of the key).
    if (driver.options_.rating_cache != nullptr &&
        driver.options_.fault.injector == nullptr) {
      cache_ = driver.options_.rating_cache;
      init_cache_fingerprint();
    }
  }

  /// A one-at-a-time rating is a singleton batch, so stream seeding,
  /// caching, and journaling are the same for every search.
  double relative_improvement(const search::FlagConfig& base,
                              const search::FlagConfig& cfg) override {
    return rate_batch(base, std::vector<search::FlagConfig>{cfg}).front();
  }

  /// Quarantined configurations are hard-excluded: the search emits a
  /// kQuarantined event and skips the candidate instead of probing it.
  [[nodiscard]] bool excluded(const search::FlagConfig& cfg) const override {
    return quarantine_.contains(cfg.key());
  }

  /// Evaluation of one probe round. Every candidate is a pure function of
  /// (seed, base, candidate): its measurement stream is reseeded from that
  /// content and it runs on a per-slot backend clone, so results do not
  /// depend on thread count, scheduling, or position in the batch. Members are merged on the calling thread in canonical
  /// candidate order, which makes the TuningOutcome, event stream, and
  /// journal bit-identical for every thread, worker, and fleet count.
  std::vector<double> rate_batch(
      const search::FlagConfig& base,
      const std::vector<search::FlagConfig>& candidates) override {
    // A pending SIGINT/SIGTERM surfaces here, between rounds — the last
    // journaled evaluation is complete, so a later --resume run replays
    // up to exactly this point.
    support::check_shutdown();
    std::vector<double> out;
    out.reserve(candidates.size());
    // Replay prefix: recorded evaluations replay one by one, in the same
    // canonical order they were journaled in (which is independent of the
    // thread count that produced them).
    std::size_t start = 0;
    while (start < candidates.size() && replay_ != nullptr &&
           replay_pos_ < replay_->evals.size()) {
      out.push_back(replay_eval(base, candidates[start]));
      ++start;
    }
    if (start == candidates.size()) return out;

    obs::ScopedSpan span("rate_batch", "rating");
    if (span.active()) {
      span.add(obs::attr("method", rating::to_string(method_)));
      span.add(obs::attr("candidates", candidates.size() - start));
    }

    std::vector<MemberState> members;
    members.reserve(candidates.size() - start);
    for (std::size_t i = start; i < candidates.size(); ++i) {
      MemberState m;
      m.base = &base;
      m.cfg = &candidates[i];
      m.seed = member_seed(base, candidates[i], /*prologue=*/false);
      members.push_back(std::move(m));
    }

    // Time-based methods rate the base by memoized EVAL; when the memo
    // does not hold it yet, a prologue member computes it *before* the
    // fan-out so every member sees the frozen memo entry (instead of all
    // of them redundantly re-measuring the base).
    std::optional<MemberState> prologue;
    if (method_ != rating::Method::kRBR &&
        memo_.find(base.key()) == memo_.end()) {
      prologue.emplace();
      prologue->base = &base;
      prologue->cfg = &base;
      prologue->prologue = true;
      prologue->seed = member_seed(base, base, /*prologue=*/true);
    }

    // Cache lookups happen up front on the calling thread; hits are
    // normalized into regular member outputs so the merge loop below does
    // not care where a result came from.
    if (cache_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      if (prologue) {
        prologue->cache_key = make_cache_key(base, base, /*prologue=*/true);
        load_cached(*prologue);
      }
      for (MemberState& m : members) {
        m.cache_key = make_cache_key(base, *m.cfg, /*prologue=*/false);
        load_cached(m);
      }
      cache_wall_us_ += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }

    ensure_slots(1);
    if (prologue && !prologue->from_cache) {
      if (on_fleet()) {
        // The base rating goes to the workers too, before the candidate
        // round, so every member still sees the frozen memo entry (and a
        // base that takes its process down kills only a worker).
        run_members_on_fleet({&*prologue});
      } else {
        prologue->backend = slots_[0].get();
        run_member(*prologue);
      }
    }
    if (prologue) {
      merge_member(*prologue);
      maybe_store(*prologue);
      if (prologue->error) {
        // The base itself cannot be rated: account the first candidate's
        // evaluation and let tune() abandon the method.
        ++evaluations_;
        DriverMetrics::get().configs_evaluated.inc();
        std::rethrow_exception(prologue->error);
      }
    }

    // Fan the non-cached members out over the pool, slot-scheduled so the
    // item → backend-clone mapping is a pure function of the batch shape.
    std::vector<std::size_t> to_run;
    for (std::size_t i = 0; i < members.size(); ++i)
      if (!members[i].from_cache) to_run.push_back(i);
    const unsigned threads = driver_.options_.search_threads;
    if (on_fleet()) {
      std::vector<MemberState*> targets;
      targets.reserve(to_run.size());
      for (std::size_t i : to_run) targets.push_back(&members[i]);
      run_members_on_fleet(targets);
    } else if (threads <= 1 || to_run.size() <= 1) {
      for (std::size_t i : to_run) {
        members[i].backend = slots_[0].get();
        run_member(members[i]);
      }
    } else {
      const std::size_t slots =
          std::min<std::size_t>(threads, to_run.size());
      ensure_slots(slots);
      if (pool_ == nullptr)
        pool_ = std::make_unique<support::ThreadPool>(threads);
      // Workers adopt the submitting thread's attribution path so their
      // costs land on the same machine/benchmark/section/method node.
      const std::vector<std::string> path = obs::attribution_path();
      pool_->slotted_for(
          to_run.size(), slots, [&](std::size_t j, std::size_t slot) {
            obs::AttributionPathScope scope(path);
            MemberState& m = members[to_run[j]];
            m.backend = slots_[slot].get();
            run_member(m);  // never throws: errors land in m.error
          });
    }

    // Canonical merge, in candidate order. Every member ran to completion
    // before this loop (on every thread count), so the global state is
    // the same for every schedule; a member's error is rethrown only
    // after its own (partial) deltas are applied.
    const MemberState* pro = prologue ? &*prologue : nullptr;
    for (MemberState& m : members) {
      merge_member(m);
      ++evaluations_;
      DriverMetrics::get().configs_evaluated.inc();
      if (m.error) std::rethrow_exception(m.error);
      record_member_eval(m, pro);
      pro = nullptr;  // the prologue rides along on the first record only
      maybe_store(m);
      out.push_back(m.r);
    }
    return out;
  }

  /// Worker-side rating of one coordinator-shipped member (see
  /// TuningDriver::rate_remote_member). The memo is rebuilt from the
  /// task's frozen entries on every call — never accumulated across
  /// tasks, whose arrival order is timing-dependent — so the result is a
  /// pure function of the task descriptor.
  std::string rate_remote(const RemoteMemberTask& task) {
    const search::OptimizationSpace& space = driver_.effects_.space();
    PEAK_CHECK(task.base_key.size() == space.size() &&
                   task.cfg_key.size() == space.size(),
               "remote task: config key does not match the space");
    search::FlagConfig base(space);
    search::FlagConfig cfg(space);
    for (std::size_t i = 0; i < space.size(); ++i) {
      base.set(i, task.base_key[i] == '1');
      cfg.set(i, task.cfg_key[i] == '1');
    }
    memo_.clear();
    for (const auto& [key, eval] : task.memo) memo_.emplace(key, eval);
    MemberState m;
    m.base = &base;
    m.cfg = &cfg;
    m.prologue = task.prologue;
    m.seed = task.seed;
    ensure_slots(1);
    m.backend = slots_[0].get();
    run_member(m);
    return serialize_member(m);
  }

  /// Fold this evaluator's per-phase simulated-cycle attribution into
  /// the global metrics registry and the cost ledger (under the caller's
  /// attribution path — tune() has machine/benchmark/section/method
  /// scopes open). Called once, after the search ends; on a resumed run
  /// the restored breakdown already contains the replayed cycles, so the
  /// ledger of a resumed run matches the uninterrupted one.
  void publish_costs() const {
    const sim::SimExecutionBackend::CycleBreakdown& b =
        backend_.breakdown();
    obs::gauge("sim.cycles_timed").add(b.timed);
    obs::gauge("sim.cycles_precondition").add(b.precondition);
    obs::gauge("sim.cycles_checkpoint").add(b.checkpoint);
    obs::gauge("sim.cycles_faulted").add(b.faulted);
    obs::gauge("sim.cycles_retry").add(b.retry);
    obs::gauge("sim.cycles_whole_program_surcharge")
        .add(whole_program_surcharge_);
    obs::counter("rbr.checkpoint_saves").inc(b.saves);
    obs::counter("rbr.checkpoint_restores").inc(b.restores);
    obs::counter("rbr.checkpoint_bytes").inc(b.checkpoint_bytes);

    obs::charge_phase("timed", b.timed);
    obs::charge_phase("precondition", b.precondition);
    obs::charge_phase("checkpoint", b.checkpoint);
    obs::charge_phase("faulted", b.faulted);
    obs::charge_phase("retry", b.retry);
    obs::charge_phase("whole_program", whole_program_surcharge_);
    // Wall-only phase: the rating cache consumes no simulated cycles
    // (the cycles a hit *saves* re-enter through the cached cost deltas).
    if (cache_wall_us_ > 0.0)
      obs::charge_phase("cache", 0.0, cache_wall_us_);
    // Wall burned by dead worker processes (isolate_workers). Wall-only
    // for the same reason as the cache phase: simulated time must stay
    // bit-identical to the crash-free run.
    if (proc_retry_wall_us_ > 0.0)
      obs::charge_phase("retry", 0.0, proc_retry_wall_us_);
    if (proc_faulted_wall_us_ > 0.0)
      obs::charge_phase("faulted", 0.0, proc_faulted_wall_us_);
    // Wall spent inside this evaluator's rating calls goes to the method
    // node itself (it spans several cycle phases at once); the method's
    // wall total is then rating wall + the search_overhead phase.
    obs::charge_phase("", 0.0,
                      obs::evaluator_wall_us() - evaluator_wall_at_start_);
  }

  [[nodiscard]] TuningCost cost() const {
    TuningCost c;
    c.simulated_time =
        backend_.accumulated_time() + whole_program_surcharge_;
    c.invocations = invocations_;
    c.configs_evaluated = evaluations_;
    c.program_runs = driver_.trace_.invocations.empty()
                         ? 0.0
                         : static_cast<double>(invocations_) /
                               static_cast<double>(
                                   driver_.trace_.invocations.size());
    return c;
  }

  [[nodiscard]] double exhausted_fraction() const {
    return ratings_ == 0 ? 0.0
                         : static_cast<double>(exhausted_) /
                               static_cast<double>(ratings_);
  }

private:
  /// Replay one recorded evaluation: return the recorded rating without
  /// touching the backend, re-apply the state deltas, and restore the
  /// bit-exact post-evaluation snapshot. Once the recorded evaluations
  /// run out the very next call measures live — from exactly the state
  /// the interrupted run was in.
  double replay_eval(const search::FlagConfig& base,
                     const search::FlagConfig& cfg) {
    static obs::Counter& replayed = obs::counter("journal.replayed");
    const JournalEval& e = replay_->evals[replay_pos_++];
    PEAK_CHECK(e.base_key == base.key() && e.cfg_key == cfg.key(),
               "journal does not match this tuning run (stale journal, or "
               "different seed/options)");
    for (const auto& [key, eval] : e.memo_added) memo_.emplace(key, eval);
    for (const std::string& key : e.validated_added) validated_.insert(key);
    for (const JournalEval::FailDelta& d : e.fails) {
      quarantine_.restore_failures(d.key, d.kind, d.failures);
      if (d.quarantined) quarantine_.quarantine(d.key, d.kind);
    }
    backend_.restore_state(e.snap.backend);
    // Metric continuity: a resumed run must report the same rating.* /
    // search.* registry values as the uninterrupted one, so the global
    // counters advance by exactly what this recorded evaluation consumed
    // (the snapshot fields are absolute; the members still hold the
    // previous record's values, making the subtraction a delta).
    DriverMetrics& m = DriverMetrics::get();
    m.invocations.inc(e.snap.invocations - invocations_);
    m.configs_evaluated.inc(e.snap.evaluations - evaluations_);
    if (!e.ratings_observed.empty()) {
      m.ratings_started.inc(e.ratings_observed.size());
      for (const JournalEval::RatingObs& o : e.ratings_observed)
        m.observe(o);
    } else {
      // Journal predates per-rating observations: restore the tallies
      // from the snapshot deltas (the window histogram stays short).
      const std::size_t started = e.snap.ratings - ratings_;
      const std::size_t exhausted = e.snap.exhausted - exhausted_;
      m.ratings_started.inc(started);
      m.ratings_exhausted.inc(exhausted);
      m.ratings_converged.inc(started - exhausted);
    }
    invocations_ = e.snap.invocations;
    evaluations_ = e.snap.evaluations;
    ratings_ = e.snap.ratings;
    exhausted_ = e.snap.exhausted;
    whole_program_surcharge_ = e.snap.whole_program_surcharge;
    replayed.inc();
    return e.r;
  }

  // ---- Batched evaluation -----------------------------------------------

  /// One candidate of a batch. Everything its rating *reads* is either
  /// immutable during the fan-out (the shared memo, the trace) or copied
  /// in here at rating start (quarantine, validated set); everything it
  /// *writes* is buffered in the output fields and folded into the
  /// evaluator by merge_member(), on the primary thread, in canonical
  /// candidate order.
  struct MemberState {
    const search::FlagConfig* base = nullptr;
    const search::FlagConfig* cfg = nullptr;
    bool prologue = false;  ///< rates the base EVAL only
    std::uint64_t seed = 0;
    sim::SimExecutionBackend* backend = nullptr;
    std::optional<fault::GuardedExecutor> guard;
    fault::Quarantine quarantine;     ///< copy of the shared registry
    std::set<std::string> validated;  ///< copy of the validated set
    std::size_t cursor = 0;           ///< member-local stream cursor

    // Outputs: the complete state delta of this rating.
    double r = 0.0;
    std::vector<std::pair<std::string, double>> memo_added;
    std::vector<std::string> validated_added;
    std::vector<JournalEval::RatingObs> robs;
    std::set<std::string> fail_keys;
    std::vector<fault::FaultEvent> fault_events;
    std::uint64_t invocations = 0;
    std::uint64_t ratings_started = 0;
    std::uint64_t exhausted = 0;
    double whole_program_surcharge = 0.0;
    std::optional<double> mbr_residual;
    std::exception_ptr error;
    sim::SimExecutionBackend::Snapshot before, after;
    bool from_cache = false;
    sim::SimExecutionBackend::CostDeltas cached_cost;
    std::string cache_key;  ///< "" = cache disabled
  };

  /// Stream seed of one member: a pure function of (run seed, section,
  /// base bits, candidate bits), so a candidate's measurement stream is
  /// independent of batch position, thread count, and everything rated
  /// before it — the property both the N-independence guarantee and the
  /// persistent cache rest on.
  [[nodiscard]] std::uint64_t member_seed(const search::FlagConfig& base,
                                          const search::FlagConfig& cfg,
                                          bool prologue) const {
    std::uint64_t s = support::hash_combine(
        support::hash_combine(backend_seed_,
                              support::stable_hash(base.key())),
        support::stable_hash(cfg.key()));
    // The prologue rates (base, base) with a distinct stream from a
    // hypothetical (base, base) candidate.
    if (prologue) s = support::hash_combine(s, 0x70726f6c6f677565ULL);
    return s;
  }

  void ensure_slots(std::size_t n) {
    while (slots_.size() < n) {
      auto clone = std::make_unique<sim::SimExecutionBackend>(
          fn_, backend_.traits(), driver_.machine_, driver_.effects_,
          backend_seed_);
      // Basic RBR saves the full input set; improved RBR saves the
      // range-analysis-narrowed Modified_Input slices.
      clone->set_checkpoint_bytes(
          driver_.profile_.input_sets.input_bytes(fn_),
          driver_.profile_.checkpoint_plan.bytes(fn_));
      if (driver_.options_.fault.injector != nullptr)
        clone->set_fault_injector(driver_.options_.fault.injector);
      slots_.push_back(std::move(clone));
    }
  }

  /// Rate one member on its slot backend. Never throws: an unexpected
  /// exception (e.g. RatingNotConverging) is captured so the merge loop
  /// can rethrow it at the member's canonical position, after applying
  /// the partial deltas.
  void run_member(MemberState& m) {
    m.quarantine = quarantine_;
    m.validated = validated_;
    if (driver_.options_.fault.injector != nullptr &&
        driver_.options_.fault.guard_execution) {
      m.guard.emplace(*m.backend, m.quarantine,
                      driver_.options_.fault.guard);
      m.guard->set_on_fault([&m](const fault::FaultEvent& ev) {
        m.fail_keys.insert(ev.config_key);
        m.fault_events.push_back(ev);
      });
      m.guard->set_reference(*m.base);
    }
    m.backend->reset_measurement_stream(m.seed);
    // Zero the clone's cost tallies so this member's deltas are sums that
    // start from 0.0 — `after - before` with a non-zero `before` rounds
    // differently depending on what the slot accumulated earlier, which
    // would make simulated_time depend on the member → slot assignment
    // (i.e. on the thread count). With the reset, the delta is the exact
    // member-local sum for every slot layout.
    m.backend->reset_accumulated_time();
    m.before = m.backend->snapshot_state();
    try {
      try {
        if (m.prologue) {
          rate_time(m, *m.base);
        } else if (method_ == rating::Method::kRBR) {
          m.r = rbr_ratio(m);
        } else {
          const double e_base = rate_time(m, *m.base);
          const double e_cfg = rate_time(m, *m.cfg);
          PEAK_CHECK(e_cfg > 0.0, "non-positive rating");
          m.r = e_base / e_cfg;
        }
        if (!m.prologue) maybe_validate(m, m.r);
      } catch (const fault::ConfigFailed&) {
        m.r = 0.0;
      }
    } catch (...) {
      m.error = std::current_exception();
    }
    m.after = m.backend->snapshot_state();
  }

  const sim::Invocation& next_invocation(MemberState& m) {
    const auto& invs = driver_.trace_.invocations;
    const sim::Invocation& inv = invs[m.cursor];
    m.cursor = (m.cursor + 1) % invs.size();
    ++m.invocations;
    return inv;
  }

  sim::InvocationResult measure(MemberState& m,
                                const search::FlagConfig& cfg,
                                const sim::Invocation& inv) {
    return m.guard ? m.guard->invoke(cfg, inv)
                   : m.backend->invoke(cfg, inv);
  }

  /// Validate the output digest of an improving configuration before the
  /// search may adopt it. Throws fault::ConfigFailed on a miscompile
  /// (which also quarantines the config in the member's copy).
  void maybe_validate(MemberState& m, double r) {
    if (!m.guard || !driver_.options_.fault.validate_improvements) return;
    if (r <= 1.0) return;
    const std::string key = m.cfg->key();
    if (m.validated.count(key) != 0) return;
    m.guard->validate(*m.cfg, next_invocation(m));
    m.validated.insert(key);
    m.validated_added.push_back(key);
  }

  /// RBR's pair protocol. All tallies land on the member; the registry
  /// updates are deferred to the merge.
  double rbr_ratio(MemberState& m) {
    ++m.ratings_started;
    rating::ReexecutionRater rater(driver_.options_.window);
    sim::RbrOptions rbr_opts;
    rbr_opts.improved = driver_.options_.improved_rbr;
    rbr_opts.batch_pairs = driver_.options_.rbr_batch_pairs;
    while (!rater.converged() && !rater.exhausted()) {
      const sim::Invocation& inv = next_invocation(m);
      const std::vector<sim::RbrPairResult> pairs =
          m.guard ? m.guard->invoke_rbr_batch(*m.base, *m.cfg, inv,
                                              rbr_opts)
                  : m.backend->invoke_rbr_batch(*m.base, *m.cfg, inv,
                                                rbr_opts);
      for (const sim::RbrPairResult& pair : pairs) {
        rater.add_pair(pair.time_best, pair.time_exp);
        if (rater.converged() || rater.exhausted()) break;
      }
    }
    if (!rater.converged()) ++m.exhausted;
    const rating::Rating r = rater.rating();
    m.robs.push_back({rater.converged(), r.samples});
    // Significance gate: with very noisy sections (EQUAKE's irregular
    // memory) the window may cap out with a standard error comparable to
    // the search's improvement threshold; reporting a statistically
    // insignificant ratio would let noise eliminate useful options (the
    // paper's "if the rating is inaccurate, the tuning system will yield
    // limited performance or even degradation"). Below 3 SEM the verdict
    // is "no measurable difference".
    const double sem =
        r.samples > 0 ? std::sqrt(r.var / static_cast<double>(r.samples))
                      : 0.0;
    if (std::fabs(r.eval - 1.0) < 3.0 * sem) return 1.0;
    return r.eval;
  }

  /// Time-like EVAL of one configuration, memoized by config key. The
  /// shared memo is frozen during a batch (the prologue published the
  /// base EVAL before the fan-out); a member additionally sees its own
  /// additions.
  double rate_time(MemberState& m, const search::FlagConfig& cfg) {
    const std::string key = cfg.key();
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    for (const auto& [k, v] : m.memo_added)
      if (k == key) return v;
    ++m.ratings_started;

    double eval = 0.0;
    switch (method_) {
      case rating::Method::kCBR: {
        rating::ContextBasedRater rater(driver_.options_.window);
        // With many contexts only a fraction of invocations feed the
        // dominant bucket, so the stream budget scales with the context
        // count (capped) — this is exactly why forcing CBR onto a
        // many-context section (MGRID_CBR) wastes tuning time.
        const std::size_t budget =
            driver_.options_.window.max_samples *
            std::clamp<std::size_t>(driver_.profile_.num_contexts, 1, 50);
        while (!rater.converged() && rater.total_samples() < budget) {
          const sim::Invocation& inv = next_invocation(m);
          rater.add(inv.context, measure(m, cfg, inv).time);
        }
        if (!rater.converged()) ++m.exhausted;
        const rating::Rating r = rater.rating();
        m.robs.push_back({rater.converged(), r.samples});
        eval = r.eval;
        break;
      }
      case rating::Method::kMBR: {
        rating::ModelBasedRater rater(
            driver_.profile_.components.num_components(),
            driver_.profile_.mbr_profile, driver_.options_.mbr);
        while (!rater.converged() && !rater.exhausted()) {
          const sim::Invocation& inv = next_invocation(m);
          const sim::InvocationResult r = measure(m, cfg, inv);
          std::vector<double> counts(r.counters->begin(),
                                     r.counters->end());
          counts.push_back(1.0);  // constant component
          rater.add(counts, r.time);
        }
        if (!rater.converged()) ++m.exhausted;
        const rating::Rating r = rater.rating();
        m.robs.push_back({rater.converged(), r.samples});
        // r.var carries the fit's unexplained-variance ratio — the MBR
        // regression residual the obs layer reports.
        m.mbr_residual = r.var;
        eval = r.eval;
        break;
      }
      case rating::Method::kAVG: {
        rating::ContextObliviousRater rater(driver_.options_.window);
        while (!rater.converged() && !rater.exhausted()) {
          const sim::Invocation& inv = next_invocation(m);
          rater.add(measure(m, cfg, inv).time);
        }
        if (!rater.converged()) ++m.exhausted;
        const rating::Rating r = rater.rating();
        m.robs.push_back({rater.converged(), r.samples});
        eval = r.eval;
        break;
      }
      case rating::Method::kWHL: {
        rating::WholeProgramRater rater;
        while (!rater.converged() && !rater.exhausted()) {
          // One full application run per sample. The run also executes
          // everything *around* the tuning section, which WHL must pay
          // for — that surcharge is the core of its cost disadvantage.
          double run_ts_time = 0.0;
          for (std::size_t i = 0; i < driver_.trace_.invocations.size();
               ++i) {
            const double t = measure(m, cfg, next_invocation(m)).time;
            rater.add_invocation(t);
            run_ts_time += t;
          }
          rater.end_run();
          const double fraction = driver_.workload_.ts_time_fraction();
          m.whole_program_surcharge +=
              run_ts_time * (1.0 / fraction - 1.0);
        }
        const rating::Rating r = rater.rating();
        m.robs.push_back({rater.converged(), r.samples});
        eval = r.eval;
        break;
      }
      case rating::Method::kRBR:
        PEAK_CHECK(false, "RBR is pair-based; use rbr_ratio");
        break;
    }
    if (eval <= 0.0) {
      ++m.exhausted;
      throw RatingNotConverging(
          std::string(rating::to_string(method_)) +
          " produced no estimate for " + driver_.workload_.full_name());
    }
    m.memo_added.emplace_back(key, eval);
    return eval;
  }

  /// Fold one member's buffered deltas into the evaluator. Primary thread
  /// only, canonical candidate order. Quarantine counts merge by
  /// restoring the member's observed counts verbatim; two members of one
  /// batch failing on the *same* key keep the higher count rather than
  /// the sum (documented undercount — deterministic, and conservative in
  /// the direction of re-measuring).
  void merge_member(const MemberState& m) {
    for (const fault::FaultEvent& ev : m.fault_events)
      if (journal_ != nullptr) journal_->record_fault(ev);
    for (const std::string& key : m.fail_keys) {  // std::set: sorted
      const auto it = m.quarantine.entries().find(key);
      if (it == m.quarantine.entries().end()) continue;
      if (it->second.failures > quarantine_.failures_of(key))
        quarantine_.restore_failures(key, it->second.kind,
                                     it->second.failures);
      if (it->second.quarantined)
        quarantine_.quarantine(key, it->second.kind);
    }
    for (const auto& [key, eval] : m.memo_added) memo_.emplace(key, eval);
    for (const std::string& key : m.validated_added)
      validated_.insert(key);

    DriverMetrics& dm = DriverMetrics::get();
    dm.invocations.inc(m.invocations);
    dm.ratings_started.inc(m.ratings_started);
    for (const JournalEval::RatingObs& o : m.robs) dm.observe(o);
    if (m.mbr_residual) dm.mbr_residual.set(*m.mbr_residual);

    invocations_ += m.invocations;
    ratings_ += m.ratings_started;
    exhausted_ += m.exhausted;
    whole_program_surcharge_ += m.whole_program_surcharge;
    // Simulated-cycle costs fold into the primary backend (cost side
    // only: its own unconsumed rng/warmth state stays untouched).
    backend_.absorb_cost_deltas(
        m.from_cache
            ? m.cached_cost
            : sim::SimExecutionBackend::cost_deltas(m.before, m.after));
  }

  /// Journal one batch member. The batch's prologue (base rating) rides
  /// along on the first live record — its memo entry, observations, and
  /// fail deltas concatenate in front of the member's own — so replay
  /// reproduces the evaluator state without a dedicated prologue record.
  void record_member_eval(const MemberState& m, const MemberState* pro) {
    if (journal_ == nullptr) return;
    JournalEval e;
    e.base_key = m.base->key();
    e.cfg_key = m.cfg->key();
    e.r = m.r;
    if (pro != nullptr) e.memo_added = pro->memo_added;
    e.memo_added.insert(e.memo_added.end(), m.memo_added.begin(),
                        m.memo_added.end());
    e.validated_added = m.validated_added;
    std::set<std::string> fails = m.fail_keys;
    if (pro != nullptr)
      fails.insert(pro->fail_keys.begin(), pro->fail_keys.end());
    for (const std::string& key : fails) {
      const auto it = quarantine_.entries().find(key);
      if (it == quarantine_.entries().end()) continue;
      JournalEval::FailDelta d;
      d.key = key;
      d.kind = it->second.kind;
      d.failures = it->second.failures;
      d.quarantined = it->second.quarantined;
      e.fails.push_back(std::move(d));
    }
    if (pro != nullptr) e.ratings_observed = pro->robs;
    e.ratings_observed.insert(e.ratings_observed.end(), m.robs.begin(),
                              m.robs.end());
    e.snap.backend = backend_.snapshot_state();
    e.snap.invocations = invocations_;
    e.snap.evaluations = evaluations_;
    e.snap.ratings = ratings_;
    e.snap.exhausted = exhausted_;
    e.snap.whole_program_surcharge = whole_program_surcharge_;
    journal_->record_eval(e);
  }

  /// Normalize a cache hit into regular member outputs, so merging and
  /// journaling do not care whether a rating ran live or replayed from
  /// disk.
  void load_cached(MemberState& m) {
    const std::optional<RatingCacheEntry> e = cache_->lookup(m.cache_key);
    if (!e) return;
    m.from_cache = true;
    m.r = e->r;
    m.memo_added = e->memo_added;
    for (const RatingCacheEntry::RatingObs& o : e->rating_obs)
      m.robs.push_back({o.converged, o.samples});
    m.invocations = e->invocations;
    m.ratings_started = e->ratings_started;
    m.exhausted = e->exhausted;
    m.whole_program_surcharge = e->whole_program_surcharge;
    m.cached_cost = e->cost;
    m.mbr_residual = e->mbr_residual;
  }

  void maybe_store(const MemberState& m) {
    if (cache_ == nullptr || m.from_cache || m.error) return;
    const auto t0 = std::chrono::steady_clock::now();
    RatingCacheEntry e;
    e.r = m.r;
    e.memo_added = m.memo_added;
    for (const JournalEval::RatingObs& o : m.robs)
      e.rating_obs.push_back({o.converged, o.samples});
    e.invocations = m.invocations;
    e.ratings_started = m.ratings_started;
    e.exhausted = m.exhausted;
    e.whole_program_surcharge = m.whole_program_surcharge;
    e.cost = sim::SimExecutionBackend::cost_deltas(m.before, m.after);
    e.mbr_residual = m.mbr_residual;
    cache_->store(m.cache_key, e);
    cache_wall_us_ += std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  }

  // ---- Worker fan-out (isolate_workers >= 1, or a coordinator) ---------

  [[nodiscard]] bool on_fleet() const {
    return driver_.options_.coordinator != nullptr ||
           driver_.options_.isolate_workers >= 1;
  }

  /// Run `targets` (canonical batch order) on a worker fleet: the
  /// driver's TCP fleet, else isolate_workers children forked for this
  /// round. Each member ships as a RemoteMemberTask (method, config bits,
  /// content-derived stream seed, the frozen memo entries it may read), so
  /// a TCP agent computes the same pure function of content the slot
  /// threads do; a forked child instead rates targets[id] with the exact
  /// run_member() code on slot clone id % W, from the evaluator state
  /// frozen at fork time (copy-on-write). Either way the member's deltas
  /// come back as one frame. A worker death requeues the task with a
  /// bumped process attempt; after max_task_attempts the config is a
  /// crasher (see synthesize_process_failure).
  void run_members_on_fleet(const std::vector<MemberState*>& targets) {
    if (targets.empty()) return;
    std::vector<RemoteMemberTask> tasks;
    tasks.reserve(targets.size());
    for (const MemberState* mp : targets) {
      RemoteMemberTask t;
      t.method = method_;
      t.base_key = mp->base->key();
      t.cfg_key = mp->cfg->key();
      t.prologue = mp->prologue;
      t.seed = mp->seed;
      const auto base_it = memo_.find(t.base_key);
      if (base_it != memo_.end())
        t.memo.emplace_back(base_it->first, base_it->second);
      if (t.cfg_key != t.base_key) {
        const auto cfg_it = memo_.find(t.cfg_key);
        if (cfg_it != memo_.end())
          t.memo.emplace_back(cfg_it->first, cfg_it->second);
      }
      tasks.push_back(std::move(t));
    }
    dist::Coordinator* fleet = driver_.options_.coordinator;
    std::optional<dist::Coordinator> forked;
    if (fleet == nullptr) {
      const std::size_t workers = std::min<std::size_t>(
          driver_.options_.isolate_workers, targets.size());
      ensure_slots(workers);
      forked.emplace(workers, [this, &targets,
                               workers](const dist::TaskFrame& task) {
        MemberState& m = *targets[task.id];
        m.backend = slots_[task.id % workers].get();
        // Lets a transient hard-crash verdict clear on the retry fork
        // (and a deterministic one keep firing until quarantine).
        m.backend->set_process_attempt(task.attempt);
        run_member(m);
        return serialize_member(m);
      });
      fleet = &*forked;
    }
    const std::vector<proc::TaskOutcome> outs = fleet->run_round(tasks);
    PEAK_CHECK(outs.size() == targets.size(), "fleet outcome arity");
    for (std::size_t i = 0; i < targets.size(); ++i) {
      MemberState& m = *targets[i];
      if (outs[i].ok)
        apply_member_payload(m, outs[i].payload);
      else
        synthesize_process_failure(m, outs[i]);
      // Wall burned on dead attempts is real tuning overhead, but never
      // simulated cycles: charging cycles would perturb simulated_time
      // and break bit-identity with the crash-free run. Retried-then-
      // succeeded attempts land on "retry", given-up ones on "faulted".
      for (const proc::WorkerFailure& f : outs[i].failures)
        (outs[i].ok ? proc_retry_wall_us_ : proc_faulted_wall_us_) +=
            f.burned_wall_us;
    }
  }

  /// Wire format of one rated member: the complete buffered delta of
  /// run_member(), in the journal's JSONL dialect (hex doubles, so the
  /// pipe round trip is exact). Runs in the child.
  [[nodiscard]] std::string serialize_member(const MemberState& m) const {
    using jsonl::hex_double;
    using jsonl::quote;
    std::ostringstream os;
    os << "{\"r\":" << quote(hex_double(m.r));
    if (!m.memo_added.empty()) {
      os << ",\"memo\":[";
      for (std::size_t i = 0; i < m.memo_added.size(); ++i)
        os << (i ? "," : "") << "{\"k\":" << quote(m.memo_added[i].first)
           << ",\"v\":" << quote(hex_double(m.memo_added[i].second)) << "}";
      os << "]";
    }
    if (!m.validated_added.empty()) {
      os << ",\"validated\":[";
      for (std::size_t i = 0; i < m.validated_added.size(); ++i)
        os << (i ? "," : "") << quote(m.validated_added[i]);
      os << "]";
    }
    if (!m.robs.empty()) {
      os << ",\"robs\":[";
      for (std::size_t i = 0; i < m.robs.size(); ++i)
        os << (i ? "," : "") << "{\"c\":"
           << (m.robs[i].converged ? "true" : "false")
           << ",\"s\":" << m.robs[i].samples << "}";
      os << "]";
    }
    if (!m.fail_keys.empty()) {
      os << ",\"failk\":[";
      std::size_t i = 0;
      for (const std::string& key : m.fail_keys)
        os << (i++ ? "," : "") << quote(key);
      os << "],\"fails\":[";
      i = 0;
      for (const std::string& key : m.fail_keys) {
        const auto it = m.quarantine.entries().find(key);
        if (it == m.quarantine.entries().end()) continue;
        os << (i++ ? "," : "") << "{\"k\":" << quote(key)
           << ",\"kind\":" << quote(fault::to_string(it->second.kind))
           << ",\"n\":" << it->second.failures
           << ",\"q\":" << (it->second.quarantined ? "true" : "false")
           << "}";
      }
      os << "]";
    }
    if (!m.fault_events.empty()) {
      os << ",\"events\":[";
      for (std::size_t i = 0; i < m.fault_events.size(); ++i) {
        const fault::FaultEvent& ev = m.fault_events[i];
        os << (i ? "," : "")
           << "{\"kind\":" << quote(fault::to_string(ev.kind))
           << ",\"cfg\":" << quote(ev.config_key)
           << ",\"inv\":" << ev.invocation_id
           << ",\"attempt\":" << ev.attempt
           << ",\"gave_up\":" << (ev.gave_up ? "true" : "false")
           << ",\"q\":" << (ev.quarantined ? "true" : "false") << "}";
      }
      os << "]";
    }
    os << ",\"inv\":" << m.invocations << ",\"rs\":" << m.ratings_started
       << ",\"rx\":" << m.exhausted
       << ",\"whl\":" << quote(hex_double(m.whole_program_surcharge));
    if (m.mbr_residual)
      os << ",\"mbr\":" << quote(hex_double(*m.mbr_residual));
    const sim::SimExecutionBackend::CostDeltas c =
        sim::SimExecutionBackend::cost_deltas(m.before, m.after);
    os << ",\"cost\":{\"acc\":" << quote(hex_double(c.accumulated))
       << ",\"timed\":" << quote(hex_double(c.timed))
       << ",\"pre\":" << quote(hex_double(c.precondition))
       << ",\"ckpt\":" << quote(hex_double(c.checkpoint))
       << ",\"faulted\":" << quote(hex_double(c.faulted))
       << ",\"retry\":" << quote(hex_double(c.retry))
       << ",\"saves\":" << c.saves << ",\"restores\":" << c.restores
       << ",\"ckpt_bytes\":" << c.checkpoint_bytes << "}";
    if (m.error) {
      // Exceptions do not fit through a pipe; a (tag, what) pair does,
      // and the parent rebuilds the matching type so the merge loop's
      // rethrow behaves exactly like the in-process path.
      std::string tag = "std";
      std::string what = "unknown error";
      try {
        std::rethrow_exception(m.error);
      } catch (const RatingNotConverging& e) {
        tag = "rnc";
        what = e.what();
      } catch (const support::CheckError& e) {
        tag = "check";
        what = e.what();
      } catch (const std::exception& e) {
        what = e.what();
      } catch (...) {
      }
      os << ",\"err\":{\"tag\":" << quote(tag)
         << ",\"what\":" << quote(what) << "}";
    }
    os << "}";
    return os.str();
  }

  /// Parent-side inverse of serialize_member(): rebuild the member's
  /// output fields so merge_member()/record_member_eval()/maybe_store()
  /// run unchanged on an isolated result. `before` stays default-zeroed
  /// and `after` carries the deltas directly — x - 0.0 == x bitwise, so
  /// cost_deltas(before, after) reproduces the child's exact values.
  void apply_member_payload(MemberState& m, const std::string& payload) {
    const jsonl::JsonValue j = jsonl::JsonParser(payload).parse();
    m.r = j.at("r").as_hex_double();
    if (j.has("memo"))
      for (const jsonl::JsonValue& e : j.at("memo").as_array())
        m.memo_added.emplace_back(e.at("k").as_string(),
                                  e.at("v").as_hex_double());
    if (j.has("validated"))
      for (const jsonl::JsonValue& v : j.at("validated").as_array())
        m.validated_added.push_back(v.as_string());
    if (j.has("robs"))
      for (const jsonl::JsonValue& o : j.at("robs").as_array())
        m.robs.push_back({o.at("c").as_bool(), o.at("s").as_u64()});
    if (j.has("failk")) {
      for (const jsonl::JsonValue& k : j.at("failk").as_array())
        m.fail_keys.insert(k.as_string());
      m.quarantine = quarantine_;
      for (const jsonl::JsonValue& f : j.at("fails").as_array()) {
        const auto kind = fault::parse_fault_kind(f.at("kind").as_string());
        PEAK_CHECK(kind.has_value(), "worker frame: unknown fault kind");
        m.quarantine.restore_failures(f.at("k").as_string(), *kind,
                                      f.at("n").as_u64());
        if (f.at("q").as_bool())
          m.quarantine.quarantine(f.at("k").as_string(), *kind);
      }
    }
    if (j.has("events"))
      for (const jsonl::JsonValue& e : j.at("events").as_array()) {
        fault::FaultEvent ev;
        const auto kind = fault::parse_fault_kind(e.at("kind").as_string());
        PEAK_CHECK(kind.has_value(), "worker frame: unknown fault kind");
        ev.kind = *kind;
        ev.config_key = e.at("cfg").as_string();
        ev.invocation_id = e.at("inv").as_u64();
        ev.attempt = e.at("attempt").as_u64();
        ev.gave_up = e.at("gave_up").as_bool();
        ev.quarantined = e.at("q").as_bool();
        m.fault_events.push_back(std::move(ev));
      }
    m.invocations = j.at("inv").as_u64();
    m.ratings_started = j.at("rs").as_u64();
    m.exhausted = j.at("rx").as_u64();
    m.whole_program_surcharge = j.at("whl").as_hex_double();
    if (j.has("mbr")) m.mbr_residual = j.at("mbr").as_hex_double();
    const jsonl::JsonValue& c = j.at("cost");
    m.before = sim::SimExecutionBackend::Snapshot{};
    m.after = sim::SimExecutionBackend::Snapshot{};
    m.after.accumulated = c.at("acc").as_hex_double();
    m.after.timed = c.at("timed").as_hex_double();
    m.after.precondition = c.at("pre").as_hex_double();
    m.after.checkpoint = c.at("ckpt").as_hex_double();
    m.after.faulted = c.at("faulted").as_hex_double();
    m.after.retry = c.at("retry").as_hex_double();
    m.after.saves = c.at("saves").as_u64();
    m.after.restores = c.at("restores").as_u64();
    m.after.checkpoint_bytes = c.at("ckpt_bytes").as_u64();
    if (j.has("err")) {
      const jsonl::JsonValue& err = j.at("err");
      const std::string tag = err.at("tag").as_string();
      const std::string what = err.at("what").as_string();
      if (tag == "rnc")
        m.error = std::make_exception_ptr(RatingNotConverging(what));
      else if (tag == "check")
        m.error = std::make_exception_ptr(support::CheckError(what));
      else
        m.error = std::make_exception_ptr(std::runtime_error(what));
    }
  }

  /// The member's rating never completed on any process attempt. The
  /// config gets "no improvement" (the ConfigFailed answer) and, when
  /// every attempt died the same way, a quarantine entry — a
  /// deterministic crasher must never be probed again. Mixed failure
  /// signatures record the failures without quarantining (conservative in
  /// the direction of re-measuring). Nothing here touches the simulated
  /// clock, so the surviving members stay bit-identical.
  void synthesize_process_failure(MemberState& m,
                                  const proc::TaskOutcome& out) {
    m.r = 0.0;
    m.before = sim::SimExecutionBackend::Snapshot{};
    m.after = sim::SimExecutionBackend::Snapshot{};
    const std::string key = m.cfg->key();
    fault::FaultKind kind = fault::FaultKind::kHardCrash;
    if (!out.failures.empty() &&
        out.failures.front().cls == proc::ExitClass::kTimeout)
      kind = fault::FaultKind::kHang;
    const bool deterministic = out.failures_identical();
    m.fail_keys.insert(key);
    m.quarantine = quarantine_;
    m.quarantine.restore_failures(
        key, kind, quarantine_.failures_of(key) + out.failures.size());
    if (deterministic) m.quarantine.quarantine(key, kind);
    fault::FaultEvent ev;
    ev.kind = kind;
    ev.config_key = key;
    ev.attempt = out.attempts == 0 ? 0 : out.attempts - 1;
    ev.gave_up = true;
    ev.quarantined = deterministic;
    m.fault_events.push_back(std::move(ev));
    if (m.prologue)
      // The *base* crashes its process deterministically: no candidate
      // can be rated against it, so the method is unusable here — same
      // answer RatingNotConverging gives for an unmeasurable base.
      m.error = std::make_exception_ptr(RatingNotConverging(
          "base rating crashed its worker process for " +
          driver_.workload_.full_name()));
  }

  /// Everything a batched rating's outcome is a function of, besides the
  /// (base, candidate) bits: machine, section, trace content, run seed,
  /// rating method and its parameters, and the effect model's behaviour.
  /// Mixed into two independent 64-bit chains; each cache key extends
  /// them with the config bits (128-bit keys make accidental collisions
  /// implausible at any realistic cache size).
  void init_cache_fingerprint() {
    std::uint64_t h1 = support::stable_hash("peak.rating_cache.v1");
    std::uint64_t h2 = support::stable_hash("peak.rating_cache.v1.alt");
    const auto mix = [&](std::uint64_t v) {
      h1 = support::hash_combine(h1, v);
      h2 = support::hash_combine(h2, v ^ 0x636f6e74656e7431ULL);
    };
    const auto mix_d = [&](double d) {
      mix(std::bit_cast<std::uint64_t>(d));
    };
    const auto mix_s = [&](std::string_view s) {
      mix(support::stable_hash(s));
    };
    mix_s(driver_.machine_.name);
    mix_s(driver_.workload_.full_name());
    mix(driver_.options_.seed);
    mix_s(rating::to_string(method_));
    const rating::WindowPolicy& w = driver_.options_.window;
    mix(w.min_samples);
    mix(w.max_samples);
    mix_d(w.cv_threshold);
    mix(static_cast<std::uint64_t>(w.outliers.rule));
    mix_d(w.outliers.k);
    mix_d(w.outliers.max_drop_fraction);
    mix(static_cast<std::uint64_t>(w.outliers.max_iterations));
    const rating::MbrPolicy& mb = driver_.options_.mbr;
    mix(mb.min_samples_per_component);
    mix(mb.max_samples);
    mix_d(mb.var_threshold);
    mix_d(mb.cv_threshold);
    mix_d(mb.dominant_share);
    mix(driver_.options_.improved_rbr ? 1 : 0);
    mix(driver_.options_.rbr_batch_pairs);
    mix(driver_.profile_.num_contexts);
    mix(driver_.profile_.input_sets.input_bytes(fn_));
    mix(driver_.profile_.checkpoint_plan.bytes(fn_));
    mix_d(driver_.workload_.ts_time_fraction());
    // Trace content: ids, contexts, cacheability, irregularity.
    mix_d(driver_.trace_.workload_scale);
    mix(driver_.trace_.invocations.size());
    for (const sim::Invocation& inv : driver_.trace_.invocations) {
      mix(inv.id);
      mix(inv.context_determines_time ? 1 : 0);
      mix_d(inv.irregularity);
      mix(inv.context.size());
      for (double c : inv.context) mix_d(c);
    }
    // Effect-model fingerprint: the multipliers of the two canonical
    // configurations pin down the model's seed and curated story (any
    // change to either moves these bit patterns).
    const search::OptimizationSpace& space = driver_.effects_.space();
    mix_d(driver_.effects_.time_multiplier(backend_.traits(),
                                           driver_.machine_,
                                           search::o3_config(space)));
    mix_d(driver_.effects_.time_multiplier(backend_.traits(),
                                           driver_.machine_,
                                           search::baseline_config(space)));
    cache_salt_ = {h1, h2};
  }

  [[nodiscard]] std::string make_cache_key(const search::FlagConfig& base,
                                           const search::FlagConfig& cfg,
                                           bool prologue) const {
    std::uint64_t h1 = cache_salt_.first;
    std::uint64_t h2 = cache_salt_.second;
    const auto mix = [&](std::uint64_t v) {
      h1 = support::hash_combine(h1, v);
      h2 = support::hash_combine(h2, v ^ 0x636f6e74656e7431ULL);
    };
    for (std::uint64_t word : base.bits().words()) mix(word);
    mix(0x2f);  // separator: bits are length-prefixed by space size anyway
    for (std::uint64_t word : cfg.bits().words()) mix(word);
    mix(prologue ? 0x70726f6c6f677565ULL : 0);
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
    return std::string(buf);
  }

  const TuningDriver& driver_;
  rating::Method method_;
  const ir::Function& fn_;
  /// Seed of the primary backend; batch-member stream seeds and backend
  /// clones derive from it, so they are content-addressed too.
  std::uint64_t backend_seed_;
  sim::SimExecutionBackend backend_;
  std::map<std::string, double> memo_;
  std::size_t invocations_ = 0;
  std::size_t evaluations_ = 0;  ///< candidates rated
  std::size_t ratings_ = 0;
  std::size_t exhausted_ = 0;
  double whole_program_surcharge_ = 0.0;

  fault::Quarantine& quarantine_;
  TuningJournal* journal_;              ///< null = no journaling
  const JournalSegment* replay_;        ///< null = nothing to replay
  std::size_t replay_pos_ = 0;
  /// Configs whose output digest already passed validation.
  std::set<std::string> validated_;
  /// evaluator_wall_us() at construction; publish_costs() charges the
  /// delta as this method's rating wall.
  double evaluator_wall_at_start_ = obs::evaluator_wall_us();

  // Per-slot backend clones;
  // slot s rates the batch items i with i % slots == s, so the item →
  // backend mapping is a pure function of the batch shape (and, because
  // every rating resets its clone's measurement stream, the results do
  // not depend on the mapping at all).
  std::vector<std::unique_ptr<sim::SimExecutionBackend>> slots_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// Persistent rating cache; null when none is set or an injector is.
  RatingCache* cache_ = nullptr;
  /// Run-fingerprint halves every cache key starts from.
  std::pair<std::uint64_t, std::uint64_t> cache_salt_{};
  /// Wall spent on cache lookups/stores, charged as the "cache" phase.
  double cache_wall_us_ = 0.0;
  /// Wall burned by worker-process deaths (isolate_workers): attempts
  /// that were retried successfully vs. given up on. Charged wall-only
  /// into the "retry" / "faulted" ledger phases by publish_costs().
  double proc_retry_wall_us_ = 0.0;
  double proc_faulted_wall_us_ = 0.0;
};

TuningDriver::TuningDriver(const workloads::Workload& workload,
                           const ProfileData& profile,
                           const workloads::Trace& trace,
                           const sim::MachineModel& machine,
                           const sim::FlagEffectModel& effects,
                           DriverOptions options)
    : workload_(workload),
      profile_(profile),
      trace_(trace),
      machine_(machine),
      effects_(effects),
      options_(options),
      mbr_instrumented_(
          profile.components.mbr_applicable
              ? analysis::instrument_components(workload.function(),
                                                profile.components)
              : workload.function()) {
  PEAK_CHECK(!trace_.invocations.empty(), "empty tuning trace");
}

TuningDriver::~TuningDriver() = default;

void TuningDriver::prepare_journal() {
  if (options_.fault.journal_path.empty() || journal_ != nullptr) return;
  if (options_.fault.resume) {
    TuningJournal::LoadStats stats;
    replay_segments_ = TuningJournal::load(options_.fault.journal_path,
                                           options_.fault.journal_strict,
                                           &stats);
    // Lenient load stopped at a corrupt mid-file line: physically drop
    // the damaged tail before appending. Records written after it would
    // otherwise sit behind the damage and be discarded by the next load.
    if (stats.truncated)
      ::truncate(options_.fault.journal_path.c_str(),
                 static_cast<off_t>(stats.good_bytes));
  }
  journal_ = std::make_unique<TuningJournal>(options_.fault.journal_path);
}

std::string TuningDriver::rate_remote_member(const RemoteMemberTask& task) {
  PEAK_CHECK(options_.fault.injector == nullptr,
             "a remote rating host cannot carry a fault injector");
  auto it = remote_evals_.find(task.method);
  if (it == remote_evals_.end()) {
    const ir::Function& fn = task.method == rating::Method::kMBR
                                 ? mbr_instrumented_
                                 : workload_.function();
    it = remote_evals_
             .emplace(task.method,
                      std::make_unique<Evaluator>(*this, task.method, fn,
                                                  quarantine_,
                                                  /*journal=*/nullptr,
                                                  /*replay=*/nullptr))
             .first;
  }
  return it->second->rate_remote(task);
}

TuningOutcome TuningDriver::tune(rating::Method method) {
  const ir::Function& fn = method == rating::Method::kMBR
                               ? mbr_instrumented_
                               : workload_.function();
  prepare_journal();
  // On resume, each tune() call consumes one recorded segment: its evals
  // replay instead of measuring, and the journal's existing "start" line
  // stands in for the one a fresh segment would write.
  const JournalSegment* replay = nullptr;
  if (replay_index_ < replay_segments_.size()) {
    PEAK_CHECK(
        replay_segments_[replay_index_].method == rating::to_string(method),
        "journal method sequence does not match this run");
    replay = &replay_segments_[replay_index_++];
  } else if (journal_ != nullptr) {
    journal_->start_segment(rating::to_string(method));
  }
  // Attribution path for every cost this tune() charges: the ledger's
  // machine → benchmark → section → method hierarchy. Thread-local, so
  // parallel section tuning attributes each worker's costs correctly.
  obs::AttributionScope machine_scope(machine_.name);
  obs::AttributionScope benchmark_scope(workload_.benchmark());
  obs::AttributionScope section_scope(workload_.ts_name());
  obs::AttributionScope method_scope(rating::to_string(method));

  Evaluator evaluator(*this, method, fn, quarantine_, journal_.get(),
                      replay);

  search::IterativeElimination default_ie(options_.ie);
  search::SearchAlgorithm& algorithm =
      options_.search_algorithm ? *options_.search_algorithm : default_ie;
  const search::FlagConfig start = search::o3_config(effects_.space());

  obs::ScopedSpan span("tune", "driver");
  if (span.active()) {
    span.add(obs::attr("method", rating::to_string(method)));
    span.add(obs::attr("section", workload_.full_name()));
    span.add(obs::attr("search", algorithm.name()));
  }

  search::SearchResult sr;
  try {
    sr = algorithm.run(effects_.space(), evaluator, start);
  } catch (const RatingNotConverging& e) {
    // The method cannot rate anything here: abandon it, report the cost
    // spent so far, and let tune_auto() switch methods.
    evaluator.publish_costs();
    TuningOutcome outcome;
    outcome.best_config = start;
    outcome.method = method;
    outcome.cost = evaluator.cost();
    outcome.exhausted_fraction = 1.0;
    search::SearchEvent abandoned;
    abandoned.kind = search::SearchEvent::Kind::kAbandoned;
    abandoned.flag = rating::to_string(method);
    abandoned.note = e.what();
    search::record_event(outcome.events, std::move(abandoned));
    return outcome;
  }

  evaluator.publish_costs();
  TuningOutcome outcome;
  outcome.best_config = sr.best;
  outcome.method = method;
  // cost.configs_evaluated comes from the evaluator (== the number of
  // candidates rated), which also equals sr.configs_evaluated
  // for every in-tree search algorithm.
  outcome.cost = evaluator.cost();
  outcome.search_improvement = sr.improvement_over_start;
  outcome.exhausted_fraction = evaluator.exhausted_fraction();
  outcome.events = std::move(sr.events);
  return outcome;
}

TuningOutcome TuningDriver::tune_auto() {
  const auto& chain = profile_.decision.chain;
  PEAK_CHECK(!chain.empty(), "no applicable rating method for " +
                                 workload_.full_name());
  TuningCost accumulated;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    TuningOutcome outcome = tune(chain[i]);
    // Fold in the cost of earlier, abandoned attempts.
    outcome.cost.simulated_time += accumulated.simulated_time;
    outcome.cost.invocations += accumulated.invocations;
    outcome.cost.program_runs += accumulated.program_runs;
    outcome.cost.configs_evaluated += accumulated.configs_evaluated;
    const bool last = i + 1 == chain.size();
    if (last ||
        outcome.exhausted_fraction <= options_.max_exhausted_fraction) {
      search::SearchEvent chosen;
      chosen.kind = search::SearchEvent::Kind::kMethodChosen;
      chosen.flag = rating::to_string(chain[i]);
      chosen.round = i;  // render(): i > 0 reads "(after fallback)"
      // Prepended to the trace (the chosen method heads the log), but
      // published live in real order — the stream is chronological.
      obs::publish_run_event(std::string(search::to_string(chosen.kind)),
                             search::to_json(chosen));
      outcome.events.insert(outcome.events.begin(), std::move(chosen));
      obs::Tracer::global().instant(
          "method_chosen", "driver",
          {obs::attr("method", rating::to_string(chain[i])),
           obs::attr("fallbacks", i)});
      return outcome;
    }
    accumulated = outcome.cost;
  }
  PEAK_CHECK(false, "unreachable");
  return {};
}

double expected_trace_time(const workloads::Workload& workload,
                           const workloads::Trace& trace,
                           const sim::MachineModel& machine,
                           const sim::FlagEffectModel& effects,
                           const search::FlagConfig& config) {
  sim::TsTraits traits = workload.traits();
  traits.workload_scale = trace.workload_scale;
  sim::SimExecutionBackend backend(workload.function(), traits, machine,
                                   effects, /*seed=*/7);
  double total = 0.0;
  for (const sim::Invocation& inv : trace.invocations)
    total += backend.expected_time(config, inv);
  return total;
}

}  // namespace peak::core
