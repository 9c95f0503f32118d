#pragma once

/// \file journal.hpp
/// Crash-safe tuning journal: an append-only JSONL log of everything the
/// tuning driver decided — configurations tried, the ratings they
/// received, faults observed, quarantine transitions — plus, per
/// evaluation, a bit-exact snapshot of the evaluator's stochastic state.
/// A tuning run killed at any point can be resumed from the journal: the
/// driver replays the recorded evaluations (the deterministic search
/// re-issues the identical probe sequence, the journal supplies the
/// recorded ratings without touching the backend), restores the snapshot
/// of the last record, and continues live — producing a TuningOutcome
/// bit-identical to the uninterrupted run.
///
/// Doubles are serialized as 16-hex-digit IEEE-754 bit patterns, never as
/// decimal text, so a round trip through the journal is exact.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "fault/guarded_executor.hpp"
#include "sim/exec_backend.hpp"

namespace peak::core {

/// One recorded relative_improvement() evaluation, with the state deltas
/// replay needs (memoized ratings, validated configs, quarantine failure
/// counts) and the full post-evaluation snapshot.
struct JournalEval {
  std::string base_key;
  std::string cfg_key;
  double r = 0.0;

  /// rate_time memo entries added during this evaluation.
  std::vector<std::pair<std::string, double>> memo_added;
  /// Config keys that passed output validation during this evaluation.
  std::vector<std::string> validated_added;

  /// Post-evaluation quarantine state of every key touched during this
  /// evaluation (absolute counts, so replay is idempotent).
  struct FailDelta {
    std::string key;
    fault::FaultKind kind = fault::FaultKind::kNone;
    std::size_t failures = 0;
    bool quarantined = false;
  };
  std::vector<FailDelta> fails;

  /// Ratings completed during this evaluation, in order: whether each
  /// converged and how many window samples it consumed. Replay feeds
  /// these into the obs registry so a resumed run's rating.* counters and
  /// window-occupancy histogram match the uninterrupted run, instead of
  /// silently restarting from zero.
  struct RatingObs {
    bool converged = false;
    std::uint64_t samples = 0;
  };
  std::vector<RatingObs> ratings_observed;

  /// Bit-exact evaluator state after this evaluation. Replay restores the
  /// snapshot of the last recorded evaluation only; earlier snapshots are
  /// dead weight kept for debuggability.
  struct Snapshot {
    sim::SimExecutionBackend::Snapshot backend;
    std::size_t invocations = 0;
    std::size_t evaluations = 0;
    std::size_t ratings = 0;
    std::size_t exhausted = 0;
    double whole_program_surcharge = 0.0;
  };
  Snapshot snap;
};

/// The evaluations of one tune(method) call, in order.
struct JournalSegment {
  std::string method;
  std::vector<JournalEval> evals;
};

/// Append-only journal writer. Every record is one JSON object per line,
/// flushed on write, so a kill between lines loses at most the evaluation
/// in flight — which resume then simply re-runs.
class TuningJournal {
public:
  /// Opens `path` for appending (creating it if absent).
  explicit TuningJournal(std::string path);

  /// A tune(method) call is starting a fresh (non-replayed) segment.
  void start_segment(const std::string& method);

  void record_eval(const JournalEval& eval);

  /// Informational fault record (replay derives everything it needs from
  /// the eval records; fault lines are for humans and the obs exporters).
  void record_fault(const fault::FaultEvent& event);

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// What load() found besides the records: how much of the file is
  /// replayable and how much was rejected.
  struct LoadStats {
    /// Lines discarded as corrupt: the first damaged complete line plus
    /// everything after it. The eval chain is sequence-checked, so a
    /// record past a damaged one cannot be replayed even if it parses —
    /// the whole tail counts as lost.
    std::uint64_t corrupt_lines = 0;
    /// Byte offset just past the last replayable record. A resume that
    /// appends must truncate the file here first, or its new records
    /// would land after the corrupt tail and be lost on the next load.
    std::uint64_t good_bytes = 0;
    /// True when load() stopped before the end of the file (mid-file
    /// corruption; a partial trailing line alone does not set this).
    bool truncated = false;
  };

  /// Parse a journal back into segments. Unknown record types and a
  /// trailing partial line (the record being written when the process
  /// died) are skipped in either mode. A damaged *complete* line mid-file
  /// ends the replayable prefix: lenient mode (strict == false, the
  /// default) returns the records before it, counts the discarded tail in
  /// `stats` and the "journal.corrupt_lines" obs counter; strict mode
  /// throws support::CheckError instead.
  static std::vector<JournalSegment> load(const std::string& path,
                                          bool strict = false,
                                          LoadStats* stats = nullptr);

private:
  void write_line(const std::string& line);

  std::string path_;
  std::ofstream out_;
};

}  // namespace peak::core
