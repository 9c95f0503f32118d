#pragma once

/// \file supervisor.hpp
/// Supervision of forked worker processes (`peak::proc`): the parts of
/// the worker runtime that only a forked child has. ForkedWorker forks a
/// child onto a socketpair, applies setrlimit caps in it, escalates a
/// stalled child from SIGTERM to SIGKILL, and turns its waitpid status
/// into a typed WorkerFailure (classes and signatures: docs/INTERNALS.md
/// §12). Dispatch, heartbeats, requeue and attempt signatures belong to
/// the one event loop in dist::Coordinator, which serves forked children
/// and TCP agents alike.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace peak::proc {

/// clean: told to exit and did (never a failure); signal: an uncaught
/// signal; timeout: stalled, silent, or RLIMIT_CPU; oom: kExitOom after
/// RLIMIT_AS; nonzero: any other exit status.
enum class ExitClass { kClean, kSignal, kTimeout, kOom, kNonzero };

[[nodiscard]] const char* to_string(ExitClass cls);

/// One failed worker attempt, classified.
struct WorkerFailure {
  ExitClass cls = ExitClass::kClean;
  int detail = 0;  ///< signal number (kSignal/kTimeout) or exit status
  std::size_t slot = 0;
  std::size_t task = 0;
  std::size_t attempt = 0;
  double burned_wall_us = 0.0;  ///< wall from dispatch to the death
  /// Stable identity of the failure mode ("signal:11", "timeout",
  /// "oom", "exit:87", "disconnect"); K identical signatures on one task
  /// mean the failure is deterministic.
  std::string signature;
};

struct TaskOutcome {
  bool ok = false;
  std::string payload;  ///< the worker's result payload when ok
  std::size_t attempts = 0;
  std::vector<WorkerFailure> failures;

  /// True when every failed attempt shares one signature (and there was
  /// at least one failure) — the caller's deterministic-crash test.
  [[nodiscard]] bool failures_identical() const;
};

/// Resource caps applied in a forked worker before it serves. Zero means
/// "leave unlimited". Core dumps are always off: crashes are routine.
struct ResourceLimits {
  unsigned cpu_seconds = 0;            ///< RLIMIT_CPU (SIGXCPU at cap)
  std::size_t address_space_bytes = 0; ///< RLIMIT_AS (bad_alloc at cap)
};

/// Child exit codes with classification meaning (avoid 0..2 and the
/// 128+N signal range).
constexpr int kExitOom = 86;        ///< std::bad_alloc escaped the task
constexpr int kExitTaskError = 87;  ///< any other exception escaped
constexpr int kExitProtocol = 88;   ///< connection closed / corrupt

/// Called by the worker runtime right after `task` (process attempt
/// `attempt`) has been sent to the worker `pid` (0 for a TCP agent). A
/// test seam: it lets a caller kill a worker at an exact point of a round
/// — while it holds a known task — instead of racing the event loop.
using DispatchHook =
    std::function<void(std::size_t task, std::size_t attempt, pid_t pid)>;

/// Install (or, with an empty hook, remove) the process-wide dispatch
/// hook. Set it before a run and clear it after; it is not synchronized
/// against a run in progress.
void set_dispatch_hook(DispatchHook hook);
[[nodiscard]] const DispatchHook& dispatch_hook();

/// Called right after the forked worker `pid` in `slot` has been told to
/// exit (its round has no work left for it), before it is reaped. A test seam for the
/// worker table between the drain and the reap.
using DrainHook = std::function<void(std::size_t slot, pid_t pid)>;

/// Install (or clear) the process-wide drain hook, as set_dispatch_hook.
void set_drain_hook(DrainHook hook);
[[nodiscard]] const DrainHook& drain_hook();

/// One forked worker process. The parent forks at the moment the round's
/// shared state is frozen, so the child inherits a copy-on-write snapshot
/// of everything `body` references without any serialization of inputs.
class ForkedWorker {
public:
  /// Fork a child onto a fresh socketpair. The child closes the parent's
  /// end and every fd in `close_in_child` (the siblings' ends: an
  /// inherited copy would keep a dead sibling's socket open and hide its
  /// EOF), resets SIGINT/SIGTERM to their defaults so the escalation is
  /// observable, applies `limits`, runs `body` on its end and _exit()s
  /// with its result — kExitOom if it throws std::bad_alloc,
  /// kExitTaskError for any other exception — so no atexit handler or
  /// static destructor runs twice. Throws support::CheckError when
  /// socketpair() or fork() fails.
  ForkedWorker(const ResourceLimits& limits,
               const std::vector<int>& close_in_child,
               const std::function<int(int fd)>& body);
  ~ForkedWorker();  ///< SIGKILLs and reaps a child not yet reaped

  ForkedWorker(const ForkedWorker&) = delete;
  ForkedWorker& operator=(const ForkedWorker&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// The parent's end of the socketpair; closed by the destructor.
  [[nodiscard]] int fd() const { return fd_; }

  /// The child holds a task past its deadline: SIGTERM on the first call,
  /// SIGKILL once `grace` has passed since. Returns the signal sent, or 0.
  /// The death then classifies as a timeout.
  int escalate(std::chrono::milliseconds grace);

  /// Block until the child exits and classify how; nullopt for the clean
  /// exit of a child that was told to exit.
  std::optional<WorkerFailure> reap(bool told_to_exit);

private:
  pid_t pid_ = -1;  ///< -1 once reaped
  int fd_ = -1;
  bool term_sent_ = false;
  bool kill_sent_ = false;
  std::chrono::steady_clock::time_point term_at_{};
};

}  // namespace peak::proc
