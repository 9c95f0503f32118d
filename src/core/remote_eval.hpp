#pragma once

/// \file remote_eval.hpp
/// The measurement contract between a distributed-tuning coordinator and
/// a remote `peak worker` agent (`peak::dist`, see docs/INTERNALS.md §12).
///
/// PEAK's batched ratings are pure functions of content: a member's
/// measurement stream is reseeded from (run seed, section, base bits,
/// candidate bits), it runs on a freshly-reset backend clone, and its
/// entire effect on the run is a buffered delta merged in canonical
/// order. That purity is what makes remote execution sound — a worker on
/// another machine only needs (a) the same deterministic scenario
/// (benchmark, machine model, trace recipe, rating policies) and (b) the
/// task's content (method, config bits, stream seed, the frozen memo
/// entries the member may read) to reproduce the member's delta
/// bit-exactly. SessionSpec carries (a) once per connection;
/// RemoteMemberTask carries (b) once per rating.
///
/// Fault injection is coordinator-side state (retry and quarantine
/// verdicts depend on attempt history), so distributed mode refuses to
/// run with an injector installed — the same soundness rule the
/// persistent rating cache follows.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tuning_driver.hpp"
#include "rating/rating.hpp"

namespace peak::core {

/// Everything a worker needs to rebuild the tuning scenario: names are
/// resolved against the same registries on both sides (workloads,
/// machine models, the GCC 3.3 -O3 space), and the numeric policy fields
/// pin down every knob a rating's outcome depends on.
struct SessionSpec {
  std::string benchmark;        ///< workloads::make_workload() name
  std::string machine;          ///< "sparc2" | "p4"
  std::string dataset = "train";  ///< workloads::DataSet
  std::uint64_t trace_seed = 42;
  std::uint64_t seed = 1;       ///< DriverOptions::seed
  rating::WindowPolicy window{};
  rating::MbrPolicy mbr{};
  bool improved_rbr = true;
  std::size_t rbr_batch_pairs = 1;

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

/// SessionSpec for this driver configuration — the CLI builds it from the
/// exact DriverOptions it is about to tune with, so the spec cannot drift
/// from the run it describes.
[[nodiscard]] SessionSpec make_session_spec(const std::string& benchmark,
                                            const std::string& machine,
                                            const DriverOptions& options);

/// One slot-tagged rating task: rate `cfg` against `base` with `method`.
/// `memo` carries the frozen memo entries this member is allowed to read
/// (at most the base's and candidate's — all a batched rating ever looks
/// up), so the worker-side rating is a pure function of this struct.
struct RemoteMemberTask {
  rating::Method method = rating::Method::kWHL;
  std::string base_key;  ///< FlagConfig::key() ("0"/"1" per flag)
  std::string cfg_key;
  bool prologue = false;  ///< rates the base EVAL only
  std::uint64_t seed = 0; ///< content-derived member stream seed
  std::vector<std::pair<std::string, double>> memo;

  friend bool operator==(const RemoteMemberTask&,
                         const RemoteMemberTask&) = default;
};

/// Worker-side rating host: owns one reconstructed scenario (workload,
/// trace, profile, machine, effect model, driver) and rates member tasks
/// through the exact batch-member code path the in-process driver uses,
/// returning the serialized member delta (the `proc` wire format) the
/// coordinator merges. Construction does the expensive part (profiling);
/// rate() is then cheap per task. Throws support::CheckError for an
/// unknown benchmark/machine/dataset.
class RemoteRatingHost {
public:
  explicit RemoteRatingHost(const SessionSpec& spec);
  ~RemoteRatingHost();

  RemoteRatingHost(const RemoteRatingHost&) = delete;
  RemoteRatingHost& operator=(const RemoteRatingHost&) = delete;

  /// Serialized member delta for one task (see
  /// TuningDriver::rate_remote_member).
  [[nodiscard]] std::string rate(const RemoteMemberTask& task);

  [[nodiscard]] const SessionSpec& spec() const { return spec_; }

private:
  struct State;
  SessionSpec spec_;
  std::unique_ptr<State> state_;
};

}  // namespace peak::core
