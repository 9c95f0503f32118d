#pragma once

/// \file coordinator.hpp
/// The worker runtime (`peak::dist`). The tuning driver hands it one
/// batch round at a time (run_round); it fans the tasks out over workers
/// that speak the framed task protocol (dist/protocol.hpp), keeps them
/// honest with one liveness rule, requeues tasks from dead workers onto
/// survivors, and returns one proc::TaskOutcome per task in task order,
/// so the TuningOutcome stays bit-identical to `--search-threads N` for
/// any fleet size and any death schedule (docs/INTERNALS.md §12).
///
/// A fleet is one of two kinds, fixed at construction:
///   TCP     `peak worker` agents that dial in or are dialed and complete
///           a SessionSpec handshake (`--distribute`; metrics dist.*);
///   forked  children forked onto socketpairs at the start of every round
///           (`--isolate-workers`; metrics proc.*). A child is born ready
///           (its copy-on-write snapshot is the scenario); a dead child
///           is reaped and classified by proc::ForkedWorker and replaced
///           by one fresh fork while the round has undecided tasks; a
///           child with no work left to start is told to exit and reaped,
///           and run_round() returns once every child is gone.
/// Dispatch (slotted queues, a requeue pool, stealing from the longest
/// queue), deadlines, attempt signatures and the WorkerTable rows behind
/// `/workers` are shared.
///
/// Single-threaded and poll-driven: every public call runs the event
/// loop inline on the caller's thread, so there is no locking and no
/// background thread to wind down. TCP workers may join mid-round — the
/// listener fd sits in the poll set — and immediately steal queued work.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/remote_eval.hpp"
#include "dist/worker_agent.hpp"
#include "obs/metrics.hpp"
#include "proc/supervisor.hpp"
#include "support/tcp.hpp"

namespace peak::dist {

/// Fleet-management knobs. The defaults suit loopback tests and LAN
/// fleets; WAN fleets mostly want a larger heartbeat_timeout.
struct DistPolicy {
  /// A worker silent for longer than this (no frame of any kind; workers
  /// heartbeat every ~100ms) is declared dead.
  std::chrono::milliseconds heartbeat_timeout{2'000};
  /// Per-dispatch deadline: a worker holding one task longer than this
  /// is stalled — a TCP worker is dropped, a forked one escalated — and
  /// the task requeues.
  std::chrono::milliseconds stall_timeout{30'000};
  /// Forked fleets: SIGTERM → SIGKILL grace for a stalled child.
  std::chrono::milliseconds term_grace{250};
  /// Attempts per task before it is reported permanently failed (the
  /// driver then quarantines deterministic crashers).
  std::size_t max_task_attempts = 3;
  /// TCP fleets: wait_for_fleet() returns once this many workers
  /// finished the handshake; run_round() also needs at least one.
  std::size_t min_workers = 1;
  /// TCP fleets: deadline for wait_for_fleet(), for dialing a worker
  /// endpoint, and for a mid-round wait when the whole fleet died.
  std::chrono::milliseconds connect_timeout{10'000};
  /// Forked fleets: caps applied in every child.
  proc::ResourceLimits limits;
  /// Publish fleet rows to proc::WorkerTable::global() (the /workers
  /// endpoint and --progress); off for throwaway coordinators in tests.
  bool update_worker_table = true;
};

/// Mirrored into the obs registry as events happen: a forked fleet
/// publishes proc.*, a TCP fleet dist.* (the names are in coordinator.cpp;
/// a counter without a name for the fleet's kind is kept here only).
struct CoordinatorStats {
  std::uint64_t workers_connected = 0;  ///< handshakes, or forks
  std::uint64_t workers_lost = 0;
  /// Joins after the fleet formed: late TCP agents, or replacement forks.
  std::uint64_t workers_respawned = 0;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t tasks_retried = 0;  ///< failed attempts that go again
  /// Tasks moved off a dead worker into the requeue pool: retried
  /// attempts plus its undispatched queue.
  std::uint64_t tasks_requeued = 0;
  std::uint64_t tasks_failed = 0;  ///< permanent, after max attempts
  std::uint64_t heartbeat_gaps = 0;
  std::uint64_t term_kills = 0;  ///< SIGTERMs to stalled children
  std::uint64_t kill_kills = 0;  ///< SIGKILLs after the grace
  /// Worker exits by class; a forked child told to exit is clean.
  std::uint64_t exits_clean = 0;
  std::uint64_t exits_signal = 0;
  std::uint64_t exits_timeout = 0;
  std::uint64_t exits_oom = 0;
  std::uint64_t exits_nonzero = 0;
};

class Coordinator {
public:
  /// A TCP fleet. `spec` is sent to every worker during the handshake;
  /// it must describe the exact scenario the owning driver tunes.
  explicit Coordinator(core::SessionSpec spec, DistPolicy policy = {});
  /// A forked fleet: every run_round() forks min(workers, tasks)
  /// children, each rating its task frames with `rate`.
  Coordinator(std::size_t workers, WorkerAgent::RateFn rate,
              DistPolicy policy = {});
  ~Coordinator();  ///< shutdown() if the caller has not already

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Accept workers on `port` (0 = ephemeral, see port()). Loopback-only
  /// when `loopback_only`; fleets on other machines need all interfaces.
  bool listen(std::uint16_t port, bool loopback_only, std::string* error) {
    return listener_.listen(port, loopback_only, error);
  }

  /// Dial "host:port" worker endpoints (agents in --listen mode). Each
  /// connection still runs the normal handshake. False when any endpoint
  /// is unreachable or malformed.
  bool dial(const std::vector<std::string>& endpoints, std::string* error);

  /// Run the event loop until `min_workers` workers are ready or
  /// connect_timeout passes (false, with a description in *error).
  bool wait_for_fleet(std::string* error);

  /// Execute one batch round; returns one outcome per task, in task
  /// order. Tasks map to the fleet with the slotted_for schedule (task i
  /// → ready worker i mod W, in join order); idle workers then take
  /// requeued work and steal from the longest queue, so the schedule
  /// adapts to stragglers and deaths without affecting results (members
  /// are order-independent by construction). Throws support::CheckError
  /// when a TCP fleet dies entirely and no replacement joins within
  /// connect_timeout. A shutdown request kills and reaps a forked fleet
  /// and throws support::ShutdownRequested; a TCP round drains first.
  std::vector<proc::TaskOutcome> run_round(
      const std::vector<core::RemoteMemberTask>& tasks);

  /// Fleet shutdown: send every TCP worker a bye frame, kill and reap
  /// every forked one, close all connections and the listener.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t fleet_size() const;
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

private:
  struct Worker;
  using Counter = std::uint64_t CoordinatorStats::*;

  [[nodiscard]] bool forked() const { return forked_workers_ > 0; }
  void register_counters();
  void bump(Counter counter);
  void accept_pending();
  void add_connection(int fd, const std::string& peer);
  void fork_worker(std::size_t slot, bool respawn, std::uint64_t tasks_done);
  [[nodiscard]] Worker* find(std::uint64_t id);
  /// One poll()+drain pass over listener and workers; `wait_ms` bounds
  /// the block so deadline checks stay timely.
  void pump(int wait_ms);
  void handle_frame(Worker& w, const std::string& payload);
  void dispatch_idle();
  void check_deadlines();
  /// The worker's connection closed: a TCP worker is lost to a
  /// disconnect, a forked child is reaped and its exit classified.
  void closed(Worker& w);
  /// Declare a worker dead: record a failure for its in-flight task (if
  /// any), requeue its queued tasks, drop the connection (killing and
  /// reaping a forked child), and fork a replacement when a forked
  /// round still has undecided tasks.
  void lose(Worker& w, const proc::WorkerFailure& death);
  void erase(Worker& w);  ///< kills and reaps a forked child still alive
  void record_task_failure(Worker& w, const proc::WorkerFailure& death);
  /// Tell a forked child with no work left to exit; it is reaped when
  /// its socket closes.
  void drain(Worker& w);

  core::SessionSpec spec_;
  DistPolicy policy_;
  std::size_t forked_workers_ = 0;  ///< 0 for a TCP fleet
  WorkerAgent::RateFn rate_;
  CoordinatorStats stats_;
  /// Registry counters, parallel to the name table in coordinator.cpp
  /// and resolved before any fork (nullptr: not published).
  std::vector<obs::Counter*> counters_;
  support::TcpListener listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_slot_ = 0;  ///< TCP join-order slot ids, never reused
  std::uint64_t next_id_ = 0;  ///< connection ids, never reused
  bool fleet_formed_ = false;  ///< flips at first wait_for_fleet success

  // Round state (valid inside run_round only).
  const std::vector<core::RemoteMemberTask>* round_tasks_ = nullptr;
  std::vector<proc::TaskOutcome>* outcomes_ = nullptr;
  std::vector<char> done_;
  std::size_t undecided_ = 0;
  std::deque<std::size_t> requeue_;
};

}  // namespace peak::dist
