#pragma once

/// \file worker_table.hpp
/// Process-wide registry of worker-subprocess state (`peak::proc`). The
/// worker runtime updates one row per worker slot as it spawns, dispatches
/// to, and reaps workers; the telemetry server's /workers endpoint and
/// the tests read point-in-time snapshots. Rows are keyed by slot, not
/// pid: a respawned worker replaces its predecessor's row and bumps the
/// respawn count, so the table always shows the current fleet plus its
/// failure history.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace peak::proc {

class WorkerTable {
public:
  struct Row {
    std::size_t slot = 0;
    pid_t pid = 0;
    /// "idle" | "running" | "exiting" (drained, told to exit, not yet
    /// reaped) | "dead" | "done"
    std::string state;
    std::size_t current_task = 0;  ///< meaningful while state == running
    std::uint64_t tasks_done = 0;
    std::uint64_t respawns = 0;
    std::string last_failure;  ///< signature of the last failed attempt
    /// Where the worker lives: "" for forked subprocesses (the pid says
    /// it all), the agent name or peer "host:port" for dist fleets.
    std::string label;
  };

  static WorkerTable& global();

  /// Install/replace the row for `slot` (fresh spawn keeps the previous
  /// row's respawn and failure history when `respawn` is true).
  void spawned(std::size_t slot, pid_t pid, bool respawn);
  /// Attach a human-readable location ("host:port" or an agent name) to
  /// the slot's row; survives state changes until the row is replaced.
  void set_label(std::size_t slot, const std::string& label);
  void running(std::size_t slot, std::size_t task);
  void idle(std::size_t slot);
  /// The worker drained its queue and was told to exit; it keeps its pid
  /// until the reap but is no longer live.
  void exiting(std::size_t slot);
  void finished(std::size_t slot, std::uint64_t tasks_done);
  void died(std::size_t slot, const std::string& failure_signature);
  /// Drop every row (start of a fresh forked round).
  void clear();

  [[nodiscard]] std::vector<Row> snapshot() const;

  /// Pids of idle or running workers (tests use this to aim real signals
  /// at the fleet); exiting workers are left out.
  [[nodiscard]] std::vector<pid_t> live_pids() const;

  /// The /workers endpoint document.
  [[nodiscard]] std::string json() const;

private:
  mutable std::mutex mutex_;
  std::map<std::size_t, Row> rows_;
};

}  // namespace peak::proc
