#pragma once

/// \file tuning_driver.hpp
/// The Performance Tuning Driver (paper Figure 5, step 5): for one tuning
/// section it iteratively generates experimental versions (optimization
/// configurations proposed by the search engine), rates them against the
/// current best with the selected rating method, and keeps the winner.
/// The driver also does PEAK's cost accounting — simulated time spent,
/// invocations consumed, equivalent whole-program runs — which the
/// tuning-time experiments (Figure 7 c, d) report.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "fault/guarded_executor.hpp"
#include "rating/rating.hpp"
#include "rating/window.hpp"
#include "search/iterative_elimination.hpp"
#include "search/search_algorithm.hpp"
#include "sim/exec_backend.hpp"
#include "workloads/workload.hpp"

namespace peak::dist {
class Coordinator;
}  // namespace peak::dist

namespace peak::core {

class TuningJournal;
struct JournalSegment;
class RatingCache;
struct RemoteMemberTask;

/// Fault-tolerance knobs. With no injector installed the driver's
/// measurement path is bit-identical to the fault-oblivious one (no
/// guarded wrapper, no validation runs); journaling alone never perturbs
/// a run, so crash-safe resume also works for fault-free tuning.
struct FaultOptions {
  /// Fault model layered onto the execution backend; nullptr = fault-free.
  /// The injector outlives the driver (it is shared across methods and
  /// across a resume so the same seed reproduces the same faults).
  const fault::FaultInjector* injector = nullptr;
  /// Deadline / retry / quarantine policy of the guarded executor.
  fault::GuardPolicy guard{};
  /// Route measurements through the guarded executor. Turning this off
  /// with an injector installed reproduces the paper driver's blind spot
  /// (only the rating windows' non-finite-sample guard remains) — used by
  /// tests and the fault-sweep bench as the "unprotected" arm.
  bool guard_execution = true;
  /// Validate the output digest of any config that rates as an
  /// improvement before the search may adopt it (one extra invocation
  /// per distinct improving config; miscompiles are quarantined).
  bool validate_improvements = true;
  /// Append-only JSONL tuning journal ("" = no journal).
  std::string journal_path;
  /// Replay the journal at `journal_path` first, then continue live from
  /// the last recorded evaluation — the crash-safe resume path.
  bool resume = false;
  /// Fail resume on a corrupt mid-file journal line instead of the
  /// default lenient policy (replay the good prefix, count the discarded
  /// tail in `journal.corrupt_lines`, truncate, and re-measure live).
  bool journal_strict = false;
};

struct DriverOptions {
  rating::WindowPolicy window{};  ///< CBR / RBR / AVG windows
  rating::MbrPolicy mbr{};
  search::IterativeEliminationOptions ie{};
  bool improved_rbr = true;
  /// Measurement pairs amortized per RBR checkpoint cycle (§2.4.2's batch
  /// optimization). 1 = one pair per invocation.
  std::size_t rbr_batch_pairs = 1;
  std::uint64_t seed = 1;
  /// Exhaustion fraction beyond which tune_auto() falls back to the next
  /// applicable rating method (paper Section 3, method switching).
  double max_exhausted_fraction = 0.3;
  /// Search algorithm over the flag space; null = Iterative Elimination
  /// with the `ie` options. The pointer is shared so a caller can reuse
  /// one algorithm instance across drivers.
  std::shared_ptr<search::SearchAlgorithm> search_algorithm;
  /// Fault injection, guarded execution, and crash-safe resume.
  FaultOptions fault{};
  /// Threads that rate the candidates of one probe round. Each
  /// candidate's measurement stream is reseeded from the (seed, base,
  /// candidate) content, candidates are rated on per-slot backend clones
  /// and merged in canonical candidate order, so the TuningOutcome, event
  /// stream, and journal are bit-identical for every value. 0 and 1 both
  /// rate inline on the calling thread; N > 1 fans rounds out over a pool
  /// of N threads.
  unsigned search_threads = 1;
  /// Persistent content-addressed rating cache shared across sections and
  /// runs (not owned; may be null). Ignored whenever a fault injector is
  /// installed — injector verdicts depend on retry/quarantine state that
  /// is not part of the cache key.
  RatingCache* rating_cache = nullptr;
  /// Out-of-process rating isolation (src/proc/, src/dist/): N >= 1 runs
  /// every batch member in a worker forked for its round and served by
  /// the dist::Coordinator event loop instead of a pool thread, so a rating that takes its process down (FaultKind::
  /// kHardCrash, a real SIGSEGV, an rlimit kill) costs one worker, not
  /// the run. Members keep the same per-slot clone + frozen-state +
  /// buffered-delta contract, so the TuningOutcome is bit-identical to
  /// `search_threads N` for any worker count — even across transient
  /// worker deaths, whose retries re-run the identical content-seeded
  /// rating. 0 (default) keeps ratings in-process.
  unsigned isolate_workers = 0;
  /// Distributed rating (src/dist/): non-null fans every batch round out
  /// over the coordinator's TCP worker fleet instead of local threads or
  /// forks. Members keep the content-seeded stream + buffered-delta
  /// contract and merge in canonical order, so the TuningOutcome and
  /// journal are bit-identical to `search_threads N` for any fleet size,
  /// including across worker deaths (tasks from a dead worker requeue
  /// onto survivors). Mutually exclusive with
  /// `isolate_workers` and with a fault injector — injector verdicts
  /// depend on coordinator-side retry/quarantine state a remote rating
  /// cannot see. Not owned; must outlive the driver.
  dist::Coordinator* coordinator = nullptr;
};

struct TuningCost {
  double simulated_time = 0.0;   ///< cycles spent tuning (all overheads in)
  std::size_t invocations = 0;   ///< TS invocations consumed
  double program_runs = 0.0;     ///< invocations / invocations-per-run
  std::size_t configs_evaluated = 0;

  friend bool operator==(const TuningCost&, const TuningCost&) = default;
};

struct TuningOutcome {
  search::FlagConfig best_config;
  rating::Method method = rating::Method::kWHL;
  TuningCost cost;
  double search_improvement = 1.0;  ///< measured R of best vs start
  double exhausted_fraction = 0.0;  ///< ratings that failed to converge
  /// Structured decision trace: the search algorithm's events plus the
  /// driver's method-selection / abandonment events.
  std::vector<search::SearchEvent> events;

  /// Legacy string rendering of `events` (the old `search_log` field),
  /// byte-compatible with what the driver used to emit.
  [[nodiscard]] std::vector<std::string> render_search_log() const {
    return search::render_search_log(events);
  }

  /// Bit-exact equality — what the crash-safe-resume tests assert between
  /// an uninterrupted run and a journal-resumed one.
  friend bool operator==(const TuningOutcome&,
                         const TuningOutcome&) = default;
};

class TuningDriver {
public:
  /// `trace` is the tuning dataset (train in the offline scenario).
  TuningDriver(const workloads::Workload& workload,
               const ProfileData& profile, const workloads::Trace& trace,
               const sim::MachineModel& machine,
               const sim::FlagEffectModel& effects, DriverOptions options);
  ~TuningDriver();

  /// Tune with a fixed rating method (used by the Figure 7 sweeps, which
  /// compare all applicable methods).
  TuningOutcome tune(rating::Method method);

  /// Tune with the consultant's chain, switching methods when ratings do
  /// not converge (PEAK's automatic mode).
  TuningOutcome tune_auto();

  /// Configurations quarantined so far (across every tune() call of this
  /// driver: the registry is shared between methods, so a config that
  /// miscompiled under CBR is never re-measured under RBR either).
  [[nodiscard]] const fault::Quarantine& quarantine() const {
    return quarantine_;
  }
  /// Mutable access, for preloading entries persisted in a ConfigStore.
  [[nodiscard]] fault::Quarantine& quarantine() { return quarantine_; }

  /// Worker-side entry point of the distributed layer: rate one batch
  /// member shipped by a coordinator and return its serialized delta (the
  /// `proc` member wire format the coordinator merges). The rating runs
  /// through the exact batch-member path local threads use — same
  /// content-seeded stream, same slot-clone reset — seeded entirely from
  /// the task descriptor, so the returned bytes are a pure function of
  /// (driver scenario, task). Requires a driver without a fault injector.
  std::string rate_remote_member(const RemoteMemberTask& task);

private:
  class Evaluator;

  /// Open the journal (and, on resume, load its segments) on first use.
  void prepare_journal();

  const workloads::Workload& workload_;
  const ProfileData& profile_;
  const workloads::Trace& trace_;
  const sim::MachineModel& machine_;
  const sim::FlagEffectModel& effects_;
  DriverOptions options_;
  ir::Function mbr_instrumented_;  ///< component-counter version

  fault::Quarantine quarantine_;
  /// Per-method evaluators of a remote rating host, built lazily on the
  /// first task of each method so a session only pays for what it rates.
  std::map<rating::Method, std::unique_ptr<Evaluator>> remote_evals_;
  std::unique_ptr<TuningJournal> journal_;
  /// Loaded on resume; tune() consumes one segment per call.
  std::vector<JournalSegment> replay_segments_;
  std::size_t replay_index_ = 0;
};

/// Noise-free total execution time of a whole trace under one
/// configuration — the ground truth used to report final improvements.
double expected_trace_time(const workloads::Workload& workload,
                           const workloads::Trace& trace,
                           const sim::MachineModel& machine,
                           const sim::FlagEffectModel& effects,
                           const search::FlagConfig& config);

}  // namespace peak::core
