#pragma once

/// \file perfbench.hpp
/// Shared declarations of the repo benchmark (`perfbench`). perfbench.cpp
/// builds a workload's tune list, sets it up, times it and checks it;
/// layers.cpp holds the traced-run reducer and the per-layer
/// probes. Everything goes through PEAK's public entry points only.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "obs/trace.hpp"
#include "rating/rating.hpp"
#include "sim/flag_effects.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace peak;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Traces of one benchmark for one input variant (both datasets).
struct Inputs {
  const workloads::Workload* workload = nullptr;
  std::size_t variant = 0;
  workloads::Trace train;
  workloads::Trace ref;
};

/// One timed unit: build a driver, tune on the tuning trace (tune_auto(),
/// or tune(method) when a method is forced), evaluate the winner on ref.
struct Entry {
  const Inputs* inputs = nullptr;
  const sim::MachineModel* machine = nullptr;
  std::uint64_t driver_seed = 0;
  /// The dataset tuned on: train, or ref for the right bars of Figure 7.
  workloads::DataSet tuned_on = workloads::DataSet::kTrain;
  std::optional<rating::Method> method;
  /// Set up before timing: the profile of the tuning trace and the
  /// noise-free -O3 time of the ref trace.
  const core::ProfileData* profile = nullptr;
  double ref_o3_time = 0.0;

  [[nodiscard]] const workloads::Trace& tune_trace() const {
    return tuned_on == workloads::DataSet::kRef ? inputs->ref : inputs->train;
  }

  [[nodiscard]] std::string label() const;
};

// ---- traced-run reduction (layers.cpp) ------------------------------------

/// Per-layer times reduced from the spans of one traced phase.
struct SpanReduction {
  /// Self time (span minus the part of it its children cover), summed
  /// per span name, in microseconds.
  std::map<std::string, double> self_us;
  /// Wall time summed per span name, in microseconds.
  std::map<std::string, double> wall_us;
  std::map<std::string, double> count;  ///< spans per name
  /// Mean of the `candidates` attribute over probe_batch spans.
  double probe_batch_size_mean = 0.0;
  /// Conservation: for every `tune` and `bench.tune` span, the self times
  /// of the span and all its descendants must sum to the span's wall.
  std::size_t conservation_checked = 0;
  std::size_t conservation_violations = 0;
  double conservation_max_err_frac = 0.0;
};

/// Relative tolerance of the conservation check (plus 1 µs per span of
/// timestamp rounding).
inline constexpr double kConservationTolerance = 0.01;

SpanReduction reduce_spans(const std::vector<obs::TraceEvent>& events);

/// Reducer self-test on synthetic spans; returns the number of failures
/// and prints each one to stderr.
int reducer_self_test();

// ---- per-layer probes (layers.cpp) ----------------------------------------

struct LayerProbes {
  double window_add_ns = 0.0;
  double mbr_add_us = 0.0;
  double sim_invoke_warm_ns = 0.0;
  double vm_base_run_us = 0.0;
  double vm_compile_us = 0.0;
};

/// Time the rating, sim and VM layers in isolation on the entries' own
/// invocations (variant 0 of each benchmark × machine, once each).
LayerProbes probe_layers(const std::vector<Entry>& entries,
                         const sim::FlagEffectModel& effects);

/// The VM oracle check: run a sample of every entry's train and ref
/// invocations through ir::BytecodeVm and the tree-walking
/// ir::Interpreter and count results that differ in any bit (once per
/// input variant and machine). Returns the mismatch count per benchmark
/// name.
std::map<std::string, std::size_t> vm_oracle_mismatches(
    const std::vector<Entry>& entries);

}  // namespace perfbench
