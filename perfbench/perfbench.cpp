/// \file perfbench.cpp
/// The repo benchmark. One process runs one workload — a closed loop of
/// tunes, one at a time — for a given seed and prints every metric with
/// its unit as one JSON object on the last line of stdout:
///
///   perfbench --workload heavy-rbr --seed 7 --seconds 40 --trace 0
///
/// `--trace 0` prints the end-to-end metrics, measured untraced.
/// `--trace 1` prints the per-layer metrics: it installs an in-memory
/// obs::VectorSink, reduces the spans into self times per layer and
/// reports the tracing overhead against an untraced pass of the same
/// tunes. `--self-test` runs the span reducer's self-test. See README.md
/// in this directory for the workloads, the metrics and the checks.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "search/opt_config.hpp"
#include "support/rng.hpp"

namespace perfbench {

std::string Entry::label() const {
  std::string out = inputs->workload->benchmark() + "/" + machine->name +
                    "/v" + std::to_string(inputs->variant);
  if (method) {
    out += std::string("/") + rating::to_string(*method) +
           (tuned_on == workloads::DataSet::kRef ? "/ref" : "/train");
  }
  return out;
}

namespace {

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Process CPU time, own threads plus reaped children (forked workers).
double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

/// Peak resident memory of this program image (VmHWM). getrusage's
/// ru_maxrss is not used: across execve it keeps the high-water mark of
/// the parent that forked us, so a small run would report the launcher's
/// memory. NaN, which the result checker rejects, when it cannot be read.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0)
      kib = std::strtod(line + 6, nullptr);  // "VmHWM:   12345 kB"
  std::fclose(f);
  return kib / 1024.0;
}

// ---- workloads -------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  std::vector<std::string> benchmarks;
  /// Input variants per benchmark made by each set-up round. Each has its
  /// own traces and driver seed. Every run tunes the set-up's variants,
  /// and the quality metrics average over them.
  std::size_t variants_per_round;
  /// The Figure 7 protocol on the serial path (search_threads = 0): every
  /// applicable method plus AVG and WHL, each forced with tune(method) on
  /// train and on ref, and MGRID also forced to CBR.
  bool fig7;
  /// Tunes of each set-up round checked against a reference tune:
  /// search_threads = 1 on the batch path, the same serial options on
  /// fig7. Each later variant has one.
  std::size_t sampled_references;
};

const std::vector<std::string> kHeavy{"EQUAKE", "VORTEX", "BZIP2", "GZIP",
                                      "CRAFTY"};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs{
      {"heavy-rbr", kHeavy, 2, false, 3},
      // EQUAKE, the paper's fourth Figure 7 benchmark, is left out: its
      // RBR and MBR tunes vary threefold with the input and set the p90.
      {"fig7-serial", {"SWIM", "MGRID", "ART"}, 1, true, 3},
  };
  return specs;
}

/// Set-up rounds of a run; setup_s is the median of their walls.
constexpr std::size_t kSetupRounds = 3;

/// Every timed run covers at least this many tunes, so the p90 has ten
/// tunes beyond it.
constexpr std::size_t kMinTunes = 100;

/// The fixed flag-effect model (PEAK's default compiler model). It is
/// part of the system under test, not an input, so it does not vary with
/// the seed; traces and driver seeds do.
const sim::FlagEffectModel& effects() {
  static const sim::FlagEffectModel model(search::gcc33_o3_space(),
                                          1 ^ 0x9eac);
  return model;
}

/// The methods the Figure 7 protocol tunes a section with, in
/// core::Peak::run_benchmark's order.
std::vector<rating::Method> fig7_methods(const workloads::Workload& w,
                                         const core::ProfileData& train) {
  std::vector<rating::Method> methods = train.decision.chain;
  methods.push_back(rating::Method::kAVG);
  methods.push_back(rating::Method::kWHL);
  if (w.benchmark() == "MGRID" &&
      std::find(methods.begin(), methods.end(), rating::Method::kCBR) ==
          methods.end())
    methods.push_back(rating::Method::kCBR);
  return methods;
}

/// Everything a run tunes, owned in one place (entries point into it).
struct Setup {
  std::vector<std::unique_ptr<workloads::Workload>> workloads;
  std::vector<sim::MachineModel> machines;
  std::vector<std::unique_ptr<Inputs>> inputs;
  std::vector<std::unique_ptr<core::ProfileData>> profiles;
  std::vector<Entry> entries;
};

/// The machines and the workload models of a run, before any input.
std::unique_ptr<Setup> new_setup(const WorkloadSpec& spec) {
  auto s = std::make_unique<Setup>();
  s->machines = {sim::sparc2(), sim::pentium4()};
  for (const std::string& name : spec.benchmarks) {
    s->workloads.push_back(workloads::make_workload(name));
    (void)s->workloads.back()->function();  // build the IR model once
  }
  return s;
}

/// Traces, profiles and -O3 ref times of every (variant, benchmark,
/// machine) entry of variants [first, last), appended to `s->entries`.
void add_variants(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t first, std::size_t last, Setup* s) {
  const search::FlagConfig o3 = search::o3_config(effects().space());
  // Variant-major order: every variant's block mixes all benchmarks.
  for (std::size_t v = first; v < last; ++v) {
    for (std::size_t b = 0; b < spec.benchmarks.size(); ++b) {
      const workloads::Workload& w = *s->workloads[b];
      const std::uint64_t trace_seed = support::hash_combine(
          support::hash_combine(seed, support::stable_hash(w.benchmark())),
          v);
      auto in = std::make_unique<Inputs>();
      in->workload = &w;
      in->variant = v;
      in->train = w.trace(workloads::DataSet::kTrain, trace_seed);
      in->ref = w.trace(workloads::DataSet::kRef, trace_seed);
      for (const sim::MachineModel& m : s->machines) {
        s->profiles.push_back(std::make_unique<core::ProfileData>(
            core::profile_workload(w, in->train, m)));
        Entry e;
        e.inputs = in.get();
        e.machine = &m;
        e.driver_seed =
            support::hash_combine(trace_seed, support::stable_hash(m.name));
        e.profile = s->profiles.back().get();
        e.ref_o3_time = core::expected_trace_time(w, in->ref, m, effects(), o3);
        if (!spec.fig7) {
          s->entries.push_back(e);
          continue;
        }
        s->profiles.push_back(std::make_unique<core::ProfileData>(
            core::profile_workload(w, in->ref, m)));
        const core::ProfileData* ref_profile = s->profiles.back().get();
        for (rating::Method method : fig7_methods(w, *e.profile)) {
          Entry train = e;
          train.method = method;
          Entry ref = train;
          ref.tuned_on = workloads::DataSet::kRef;
          ref.profile = ref_profile;
          s->entries.push_back(train);
          s->entries.push_back(ref);
        }
      }
      s->inputs.push_back(std::move(in));
    }
  }
}

core::DriverOptions driver_options(const WorkloadSpec& spec,
                                   unsigned threads) {
  core::DriverOptions o;
  if (!spec.fig7) o.search_threads = threads;  // fig7: serial, 0 threads
  return o;
}

// ---- one tune ----------------------------------------------------------------

struct TuneResult {
  bool ok = false;
  std::string error;
  core::TuningOutcome outcome;
  double ref_improvement_pct = 0.0;
  double wall_s = 0.0;
};

/// The timed unit: driver construction, tune_auto() or tune(method), and
/// the noise-free evaluation of the winner on the ref trace.
TuneResult run_tune(const Entry& e, core::DriverOptions options) {
  TuneResult r;
  options.seed = e.driver_seed;
  const auto t0 = Clock::now();
  try {
    obs::ScopedSpan span("bench.tune", "bench");
    std::unique_ptr<core::TuningDriver> driver;
    {
      obs::ScopedSpan s("bench.driver_construct", "bench");
      driver = std::make_unique<core::TuningDriver>(
          *e.inputs->workload, *e.profile, e.tune_trace(), *e.machine,
          effects(), options);
    }
    r.outcome = e.method ? driver->tune(*e.method) : driver->tune_auto();
    double tuned = 0.0;
    {
      obs::ScopedSpan s("bench.ref_eval", "bench");
      tuned = core::expected_trace_time(*e.inputs->workload, e.inputs->ref,
                                        *e.machine, effects(),
                                        r.outcome.best_config);
    }
    {
      obs::ScopedSpan s("bench.driver_destroy", "bench");
      driver.reset();
    }
    r.ref_improvement_pct = (e.ref_o3_time / tuned - 1.0) * 100.0;
    r.ok = std::isfinite(r.ref_improvement_pct) && tuned > 0.0 &&
           std::isfinite(r.outcome.cost.program_runs) &&
           r.outcome.cost.program_runs > 0.0;
    if (!r.ok) r.error = "non-finite or non-positive outcome";
  } catch (const std::exception& ex) {
    r.error = ex.what();
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// Reference tunes with `options`, run `concurrency` drivers at a time so
/// checking stays a small share of the set-up.
std::map<std::size_t, TuneResult> run_references(
    const std::vector<Entry>& entries, const std::vector<std::size_t>& picked,
    const core::DriverOptions& options, unsigned concurrency) {
  std::vector<TuneResult> results(picked.size());
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> pool;  // joined on scope exit
    for (unsigned t = 0; t < concurrency; ++t)
      pool.emplace_back([&] {
        for (std::size_t k = next++; k < picked.size(); k = next++)
          results[k] = run_tune(entries[picked[k]], options);
      });
  }
  std::map<std::size_t, TuneResult> out;
  for (std::size_t k = 0; k < picked.size(); ++k)
    out[picked[k]] = std::move(results[k]);
  return out;
}

/// The entries [first, last) checked against a reference tune: `count`
/// of them, spread evenly from a seed-chosen offset. The stride is one
/// more than the range over the count, so the sample also walks across
/// benchmarks and machines.
std::vector<std::size_t> pick_references(std::size_t count,
                                         std::uint64_t seed,
                                         std::size_t first, std::size_t last) {
  std::vector<std::size_t> picked;
  const std::size_t n = last - first;
  const std::size_t stride = n / std::max<std::size_t>(1, count) + 1;
  std::size_t i = support::hash_combine(seed, 0x5e1ec7 + first) % n;
  for (std::size_t k = 0; k < count; ++k) {
    if (std::find(picked.begin(), picked.end(), first + i) == picked.end())
      picked.push_back(first + i);
    i = (i + stride) % n;
  }
  return picked;
}

// ---- output ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // the checker rejects it
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- the run -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\nworkloads:");
  for (const WorkloadSpec& w : workload_specs())
    std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      a.trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return a.self_test || !a.workload.empty();
}

/// Check bookkeeping shared by both modes.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void fail(std::string why) {
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

/// Counts the tune, and counts it failed if any check fails.
void check_tune(const Entry& e, const TuneResult& r,
                const TuneResult* first, const TuneResult* reference,
                const std::map<std::string, std::size_t>& oracle,
                Checks& checks) {
  bool ok = r.ok;
  if (!r.ok) checks.fail(e.label() + ": " + r.error);
  if (ok && first != nullptr && !(r.outcome == first->outcome)) {
    ok = false;
    checks.fail(e.label() + ": repeat differs from the first tune");
  }
  if (ok && reference != nullptr && !(r.outcome == reference->outcome)) {
    ok = false;
    checks.fail(e.label() + ": outcome differs from its reference tune");
  }
  const auto it = oracle.find(e.inputs->workload->benchmark());
  if (it != oracle.end() && it->second > 0) {
    ok = false;
    checks.fail(e.label() + ": VM differs from the tree-walker");
  }
  ++checks.attempted;
  if (!ok) ++checks.failed;
}

struct Provenance {
  unsigned hardware_concurrency = 0;
  unsigned threads = 0;
  unsigned workers = 0;
};

void print_result(const Args& a, const Provenance& p, const Checks& checks,
                  std::size_t samples, const Metrics& metrics) {
  std::string out = "{\"workload\": " + json_string(a.workload);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  out += ", \"provenance\": {\"hardware_concurrency\": " +
         std::to_string(p.hardware_concurrency) +
         ", \"search_threads\": " + std::to_string(p.threads) +
         ", \"isolate_workers\": " + std::to_string(p.workers) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) + "}";
  out += ", \"tune_samples\": " + std::to_string(samples);
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    out += (i ? ", " : "") + json_string(checks.failures[i]);
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& a) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workload_specs())
    if (a.workload == w.name) spec = &w;
  if (spec == nullptr) return usage();

  Provenance prov;
  prov.hardware_concurrency = std::thread::hardware_concurrency();
  // Half the cores, at most two: a fan-out as wide as the machine waits
  // for whichever thread another tenant of a shared host preempts.
  const unsigned threads =
      std::clamp(prov.hardware_concurrency / 2, 1u, 2u);
  const core::DriverOptions options = driver_options(*spec, threads);
  prov.threads = options.search_threads;
  prov.workers = options.isolate_workers;

  // Batch outcomes are bit-identical for every thread count N >= 1, so
  // the in-process thread path at N = 1 is the reference of the batch
  // workload; the serial path must reproduce itself.
  core::DriverOptions reference = options;
  if (!spec->fig7) reference.search_threads = 1;
  // The proc layer: on the batch workload the traced run also sends each
  // traced tune through forked workers instead of pool threads.
  core::DriverOptions isolated = reference;
  if (!spec->fig7 && a.trace) {
    isolated.isolate_workers = threads;
    prov.workers = threads;
  }

  std::shared_ptr<obs::VectorSink> sink;
  if (a.trace) sink = std::make_shared<obs::VectorSink>();
  std::map<std::string, std::size_t> oracle;
  // Makes variants [v_first, v_last) in `s`: traces, profiles and -O3 ref
  // times, then the checks on them that are not timed: the VM oracle and,
  // outside traced runs, the reference tunes (into `refs`, by entry).
  auto prepare = [&](Setup& s, std::size_t v_first, std::size_t v_last,
                     std::size_t sampled,
                     std::map<std::size_t, TuneResult>& refs) {
    const std::size_t first = s.entries.size();
    if (a.trace) obs::Tracer::global().set_sink(sink);
    add_variants(*spec, a.seed, v_first, v_last, &s);
    if (a.trace) obs::Tracer::global().set_sink(nullptr);
    const std::vector<Entry> added(s.entries.begin() + first,
                                   s.entries.end());
    for (const auto& [name, n] : vm_oracle_mismatches(added))
      oracle[name] += n;
    if (!a.trace)
      refs.merge(run_references(
          s.entries,
          pick_references(sampled, a.seed, first, s.entries.size()),
          reference, std::clamp(prov.hardware_concurrency, 1u, 4u)));
  };

  // ---- set-up: kSetupRounds equal rounds of variants ----
  const std::unique_ptr<Setup> setup = new_setup(*spec);
  std::map<std::size_t, TuneResult> references;
  std::vector<double> round_s;
  for (std::size_t r = 0; r < kSetupRounds; ++r) {
    const auto t0 = Clock::now();
    prepare(*setup, r * spec->variants_per_round,
            (r + 1) * spec->variants_per_round, spec->sampled_references,
            references);
    round_s.push_back(seconds_since(t0));
  }
  SpanReduction setup_spans;
  if (a.trace) {
    setup_spans = reduce_spans(sink->events());
    sink->clear();
  }
  const std::vector<Entry>& entries = setup->entries;

  Checks checks;
  std::vector<double> tune_s;
  Metrics metrics;

  if (!a.trace) {
    // ---- the timed closed loop ----
    // The set-up's tunes, then one new input variant at a time, each made
    // and checked untimed just before its tunes and dropped after them,
    // until the time and the tune count are reached. Every tune has new
    // inputs, so a longer run averages over more of them. The quality
    // metrics cover the set-up's tunes, which every run makes, so they
    // repeat exactly for a seed.
    double timed = 0.0, impr = 0.0, runs = 0.0;
    auto time_tunes = [&](const Setup& s,
                          const std::map<std::size_t, TuneResult>& refs,
                          bool quality) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < s.entries.size(); ++i) {
        const TuneResult r = run_tune(s.entries[i], options);
        const auto ref = refs.find(i);
        check_tune(s.entries[i], r, nullptr,
                   ref == refs.end() ? nullptr : &ref->second, oracle,
                   checks);
        tune_s.push_back(r.wall_s);
        if (quality) {
          impr += r.ref_improvement_pct;
          runs += r.outcome.cost.program_runs;
        }
      }
      timed += seconds_since(t0);
    };
    time_tunes(*setup, references, true);
    double later_s = 0.0;
    std::size_t later_variants = 0;
    for (std::size_t v = kSetupRounds * spec->variants_per_round;
         tune_s.size() < kMinTunes || timed < a.seconds; ++v) {
      const auto t0 = Clock::now();
      const std::unique_ptr<Setup> later = new_setup(*spec);
      std::map<std::size_t, TuneResult> later_refs;
      prepare(*later, v, v + 1, 1, later_refs);
      later_s += seconds_since(t0);
      time_tunes(*later, later_refs, false);
      ++later_variants;
    }
    const double setup_s = median(round_s);
    const double quality_n = static_cast<double>(entries.size());
    std::fprintf(stderr,
                 "perfbench: set-up rounds %.2f %.2f %.2f s; %zu tunes in "
                 "%.2f s timed (%zu of the set-up, then %zu more variants "
                 "made in %.2f s untimed)\n",
                 round_s[0], round_s[1], round_s[2], tune_s.size(), timed,
                 entries.size(), later_variants, later_s);
    metrics["tunes_per_s"] = {static_cast<double>(tune_s.size()) / timed,
                              "1/s"};
    metrics["tune_s_p50"] = {percentile(tune_s, 50), "s"};
    metrics["tune_s_p90"] = {percentile(tune_s, 90), "s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["ref_improvement_pct"] = {impr / quality_n, "%"};
    metrics["tuning_program_runs"] = {runs / quality_n, "count"};
    metrics["ok_frac"] = {1.0 - static_cast<double>(checks.failed) /
                                    static_cast<double>(checks.attempted),
                          "fraction"};
  } else {
    // Each entry of a prefix of the list runs untraced and traced, in
    // alternating order so neither side always runs warm. CPU time is
    // read around the untraced tunes, registry counters and spans around
    // the traced ones.
    std::vector<std::optional<TuneResult>> first(entries.size());
    auto tune_at = [&](std::size_t idx, const core::DriverOptions& o) {
      TuneResult r = run_tune(entries[idx], o);
      check_tune(entries[idx], r, first[idx] ? &*first[idx] : nullptr,
                 nullptr, oracle, checks);
      tune_s.push_back(r.wall_s);
      if (!first[idx]) first[idx] = std::move(r);
    };
    double untraced_wall = 0.0, traced_wall = 0.0, untraced_cpu = 0.0;
    std::map<std::string, double> counted, proc_counted;
    const auto proc_sink = std::make_shared<obs::VectorSink>();
    auto counters = [] {
      return obs::MetricsRegistry::global().snapshot().counters;
    };
    // Runs one traced tune into `into`, adding the registry counters it
    // moved to `moved`.
    auto traced_tune = [&](std::size_t idx, const core::DriverOptions& o,
                           const std::shared_ptr<obs::VectorSink>& into,
                           std::map<std::string, double>& moved) {
      const auto before = counters();
      obs::Tracer::global().set_sink(into);
      tune_at(idx, o);
      obs::Tracer::global().set_sink(nullptr);
      for (const auto& [name, v] : counters()) {
        const auto b = before.find(name);
        moved[name] +=
            static_cast<double>(v - (b == before.end() ? 0 : b->second));
      }
    };
    const auto t0 = Clock::now();
    std::size_t n = 0;
    while (n == 0 || (n < entries.size() && seconds_since(t0) < a.seconds)) {
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == (n % 2 == 1)) {
          const auto t = Clock::now();
          traced_tune(n, options, sink, counted);
          traced_wall += seconds_since(t);
        } else {
          const double cpu0 = cpu_seconds();
          const auto t = Clock::now();
          tune_at(n, options);
          untraced_wall += seconds_since(t);
          untraced_cpu += cpu_seconds() - cpu0;
        }
      }
      // Its outcome must equal the thread path's bit for bit.
      if (isolated.isolate_workers > 0)
        traced_tune(n, isolated, proc_sink, proc_counted);
      ++n;
    }
    const SpanReduction red = reduce_spans(sink->events());
    sink->clear();
    const SpanReduction proc_red = reduce_spans(proc_sink->events());
    proc_sink->clear();

    auto get = [](const std::map<std::string, double>& m, const char* k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    auto delta = [&](const char* name) { return get(counted, name); };
    const double tunes = static_cast<double>(n);
    auto per_tune_ms = [&](const std::map<std::string, double>& m,
                           const char* k) {
      return get(m, k) / 1000.0 / tunes;
    };
    const double cache_total = delta("sim.base_cache.hit") +
                               delta("sim.base_cache.miss") +
                               delta("sim.base_cache.uncacheable");
    const double started = delta("rating.started");
    const LayerProbes probes = probe_layers(entries, effects());

    metrics["profile.wall_ms"] = {get(setup_spans.wall_us, "profile") / 1e3,
                                  "ms"};
    metrics["profile.detailed_pass_ms"] = {
        get(setup_spans.wall_us, "detailed_pass") / 1e3, "ms"};
    metrics["profile.component_analysis_ms"] = {
        get(setup_spans.wall_us, "component_analysis") / 1e3, "ms"};
    metrics["driver.construct_ms"] = {
        per_tune_ms(red.wall_us, "bench.driver_construct"), "ms/tune"};
    metrics["driver.tune.self_ms"] = {per_tune_ms(red.self_us, "tune"),
                                      "ms/tune"};
    metrics["bench.tune_ms"] = {per_tune_ms(red.wall_us, "bench.tune"),
                                "ms/tune"};
    metrics["bench.ref_eval_ms"] = {per_tune_ms(red.wall_us, "bench.ref_eval"),
                                    "ms/tune"};
    metrics["search.configs_evaluated"] = {
        delta("search.configs_evaluated") / tunes, "count/tune"};
    metrics["search.probe_batch.count"] = {
        get(red.count, "probe_batch") / tunes, "count/tune"};
    metrics["search.batch_size_mean"] = {red.probe_batch_size_mean, "count"};
    metrics["search.probe_batch.self_ms"] = {
        per_tune_ms(red.self_us, "probe_batch"), "ms/tune"};
    metrics["rating.rate_batch.self_ms"] = {
        per_tune_ms(red.self_us, "rate_batch"), "ms/tune"};
    metrics["rating.rate.self_ms"] = {per_tune_ms(red.self_us, "rate"),
                                      "ms/tune"};
    metrics["rating.converged_frac"] = {
        started > 0 ? delta("rating.converged") / started : 0.0, "fraction"};
    metrics["rating.invocations_per_s"] = {
        delta("rating.invocations") / traced_wall, "1/s"};
    metrics["window.add_ns"] = {probes.window_add_ns, "ns"};
    metrics["mbr.add_us"] = {probes.mbr_add_us, "us"};
    metrics["sim.invoke_warm_ns"] = {probes.sim_invoke_warm_ns, "ns"};
    metrics["sim.base_cache.hit_frac"] = {
        cache_total > 0 ? delta("sim.base_cache.hit") / cache_total : 0.0,
        "fraction"};
    metrics["vm.base_run_us"] = {probes.vm_base_run_us, "us"};
    metrics["vm.compile_us"] = {probes.vm_compile_us, "us"};
    std::size_t oracle_total = 0;
    for (const auto& [name, n] : oracle) oracle_total += n;
    metrics["vm.oracle_mismatches"] = {static_cast<double>(oracle_total),
                                       "count"};
    metrics["fanout.cpu_s"] = {untraced_cpu / tunes, "s/tune"};
    metrics["fanout.cpu_per_wall"] = {untraced_cpu / untraced_wall, "ratio"};
    auto proc_delta = [&](const char* name) {
      return get(proc_counted, name) / tunes;
    };
    metrics["proc.workers.spawned"] = {proc_delta("proc.workers.spawned"),
                                       "count/tune"};
    metrics["proc.tasks.retried"] = {proc_delta("proc.tasks.retried"),
                                     "count/tune"};
    metrics["proc.heartbeat.gaps"] = {proc_delta("proc.heartbeat.gaps"),
                                      "count/tune"};
    metrics["proc.rate_batch.self_ms"] = {
        per_tune_ms(proc_red.self_us, "rate_batch"), "ms/tune"};
    metrics["trace.overhead_frac"] = {traced_wall / untraced_wall - 1.0,
                                      "fraction"};
    metrics["trace.conservation_max_err"] = {
        std::max(red.conservation_max_err_frac,
                 proc_red.conservation_max_err_frac),
        "fraction"};
    std::vector<const SpanReduction*> reduced{&red};
    if (isolated.isolate_workers > 0) reduced.push_back(&proc_red);
    for (const SpanReduction* r : reduced) {
      if (r->conservation_checked == 0 || r->conservation_violations > 0) {
        ++checks.failed;
        checks.fail("conservation: " +
                    std::to_string(r->conservation_violations) + " of " +
                    std::to_string(r->conservation_checked) +
                    " tune spans do not sum to their wall");
      }
    }
  }

  print_result(a, prov, checks, tune_s.size(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) return perfbench::usage();
  if (args.self_test) {
    const int failures = perfbench::reducer_self_test();
    std::printf("reducer self-test: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
