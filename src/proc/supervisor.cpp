#include "proc/supervisor.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <mutex>

#include "core/jsonl.hpp"
#include "obs/metrics.hpp"
#include "proc/protocol.hpp"
#include "proc/worker_table.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"

namespace peak::proc {

namespace {

using Clock = std::chrono::steady_clock;

double wall_us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct ProcMetrics {
  obs::Counter& spawned = obs::counter("proc.workers.spawned");
  obs::Counter& respawned = obs::counter("proc.workers.respawned");
  obs::Counter& term_kills = obs::counter("proc.kills.term");
  obs::Counter& kill_kills = obs::counter("proc.kills.kill");
  obs::Counter& heartbeat_gaps = obs::counter("proc.heartbeat.gaps");
  obs::Counter& tasks_retried = obs::counter("proc.tasks.retried");
  obs::Counter& tasks_failed = obs::counter("proc.tasks.failed");
  obs::Counter& exits_clean = obs::counter("proc.exits.clean");
  obs::Counter& exits_signal = obs::counter("proc.exits.signal");
  obs::Counter& exits_timeout = obs::counter("proc.exits.timeout");
  obs::Counter& exits_oom = obs::counter("proc.exits.oom");
  obs::Counter& exits_nonzero = obs::counter("proc.exits.nonzero");
};

ProcMetrics& proc_metrics() {
  static ProcMetrics* metrics = new ProcMetrics;
  return *metrics;
}

/// A dead worker must surface as EPIPE on the next command write, not as
/// a process-fatal SIGPIPE. Installed once, never restored: SIG_IGN for
/// SIGPIPE is safe for every writer in this process (they all check
/// write() results).
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

DispatchHook& dispatch_hook() {
  static DispatchHook hook;
  return hook;
}

DrainHook& drain_hook() {
  static DrainHook hook;
  return hook;
}

}  // namespace

void set_dispatch_hook(DispatchHook hook) {
  dispatch_hook() = std::move(hook);
}

void set_drain_hook(DrainHook hook) { drain_hook() = std::move(hook); }

const char* to_string(ExitClass cls) {
  switch (cls) {
    case ExitClass::kClean: return "clean";
    case ExitClass::kSignal: return "signal";
    case ExitClass::kTimeout: return "timeout";
    case ExitClass::kOom: return "oom";
    case ExitClass::kNonzero: return "nonzero";
  }
  return "unknown";
}

bool TaskOutcome::failures_identical() const {
  if (failures.empty()) return false;
  for (const WorkerFailure& f : failures)
    if (f.signature != failures.front().signature) return false;
  return true;
}

struct Supervisor::Slot {
  std::size_t index = 0;
  std::unique_ptr<WorkerProcess> worker;
  FrameReader reader;

  std::vector<std::size_t> tasks;  ///< this slot's task ids, in order
  std::size_t next_task = 0;       ///< position in `tasks`

  enum class Phase { kIdle, kRunning, kExiting, kFinished };
  Phase phase = Phase::kIdle;
  std::size_t current_task = 0;
  std::size_t current_attempt = 0;
  Clock::time_point dispatched_at;
  Clock::time_point last_frame_at;
  bool term_sent = false;
  bool kill_sent = false;
  Clock::time_point term_at;
  bool killed_for_stall = false;
  bool gap_counted = false;
  std::uint64_t tasks_done = 0;
};

Supervisor::Supervisor(TaskFn fn, SupervisorPolicy policy)
    : fn_(std::move(fn)), policy_(policy) {
  PEAK_CHECK(policy_.workers >= 1, "supervisor needs at least one worker");
  PEAK_CHECK(policy_.max_task_attempts >= 1,
             "a task needs at least one attempt");
  ignore_sigpipe_once();
  proc_metrics();  // registered before any fork (see docs/INTERNALS §12)
}

Supervisor::~Supervisor() { kill_all(); }

void Supervisor::kill_all() {
  for (Slot& slot : slots_) {
    if (!slot.worker) continue;
    kill(slot.worker->pid(), SIGKILL);
    int status = 0;
    while (waitpid(slot.worker->pid(), &status, 0) < 0 && errno == EINTR) {
    }
    if (policy_.update_worker_table)
      WorkerTable::global().died(slot.index, "killed");
    slot.worker.reset();
  }
}

void Supervisor::spawn_slot(Slot& slot, bool respawn) {
  // Every other live worker's parent-side read fd must be closed in the
  // new child, or a dead sibling's pipe stays open and its EOF never
  // reaches the event loop. (The command write fds are handled inside
  // WorkerProcess::spawn via the same list.)
  std::vector<int> close_in_child;
  for (const Slot& other : slots_)
    if (other.worker) close_in_child.push_back(other.worker->read_fd());

  WorkerProcess::Options options;
  options.limits = policy_.limits;
  options.heartbeat_interval = policy_.heartbeat_interval;
  slot.worker = WorkerProcess::spawn(fn_, options, close_in_child);
  PEAK_CHECK(slot.worker != nullptr, "fork() failed spawning a worker");
  slot.reader = FrameReader{};
  slot.phase = Slot::Phase::kIdle;
  slot.term_sent = false;
  slot.kill_sent = false;
  slot.killed_for_stall = false;
  slot.gap_counted = false;
  slot.last_frame_at = Clock::now();

  ++stats_.spawned;
  proc_metrics().spawned.inc();
  if (respawn) {
    ++stats_.respawned;
    proc_metrics().respawned.inc();
  }
  if (policy_.update_worker_table)
    WorkerTable::global().spawned(slot.index, slot.worker->pid(), respawn);
}

void Supervisor::dispatch(Slot& slot) {
  if (slot.next_task >= slot.tasks.size()) {
    // Queue drained: ask for a clean exit and wait for the EOF. The row
    // leaves the live set now; the worker may already be gone.
    slot.phase = Slot::Phase::kExiting;
    if (policy_.update_worker_table)
      WorkerTable::global().exiting(slot.index);
    slot.worker->send_exit();
    if (drain_hook()) drain_hook()(slot.index, slot.worker->pid());
    return;
  }
  slot.current_task = slot.tasks[slot.next_task];
  slot.phase = Slot::Phase::kRunning;
  slot.dispatched_at = Clock::now();
  slot.term_sent = false;
  slot.kill_sent = false;
  slot.killed_for_stall = false;
  if (policy_.update_worker_table)
    WorkerTable::global().running(slot.index, slot.current_task);
  if (!slot.worker->send_run(slot.current_task, slot.current_attempt)) {
    // Worker already gone; the event loop will see the EOF and requeue.
  }
  if (dispatch_hook())
    dispatch_hook()(slot.current_task, slot.current_attempt,
                    slot.worker->pid());
}

void Supervisor::reap(Slot& slot, std::vector<TaskOutcome>& outcomes) {
  const pid_t pid = slot.worker->pid();
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  slot.worker.reset();

  const bool expected_exit = slot.phase == Slot::Phase::kExiting &&
                             WIFEXITED(status) &&
                             WEXITSTATUS(status) == 0;
  if (expected_exit) {
    ++stats_.exits_clean;
    proc_metrics().exits_clean.inc();
    slot.phase = Slot::Phase::kFinished;
    if (policy_.update_worker_table)
      WorkerTable::global().finished(slot.index, slot.tasks_done);
    return;
  }

  // Unexpected death. Classify it.
  WorkerFailure failure;
  failure.slot = slot.index;
  if (slot.killed_for_stall) {
    failure.cls = ExitClass::kTimeout;
    failure.detail = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    failure.signature = "timeout";
    ++stats_.exits_timeout;
    proc_metrics().exits_timeout.inc();
  } else if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (sig == SIGXCPU) {
      failure.cls = ExitClass::kTimeout;
      failure.signature = "cpu-limit";
      ++stats_.exits_timeout;
      proc_metrics().exits_timeout.inc();
    } else {
      failure.cls = ExitClass::kSignal;
      failure.signature = "signal:" + std::to_string(sig);
      ++stats_.exits_signal;
      proc_metrics().exits_signal.inc();
    }
    failure.detail = sig;
  } else {
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    failure.detail = code;
    if (code == kExitOom) {
      failure.cls = ExitClass::kOom;
      failure.signature = "oom";
      ++stats_.exits_oom;
      proc_metrics().exits_oom.inc();
    } else if (code == 0) {
      // Exited "cleanly" without being told to — still a lost worker.
      failure.cls = ExitClass::kClean;
      failure.signature = "exit:0";
      ++stats_.exits_clean;
      proc_metrics().exits_clean.inc();
    } else {
      failure.cls = ExitClass::kNonzero;
      failure.signature = "exit:" + std::to_string(code);
      ++stats_.exits_nonzero;
      proc_metrics().exits_nonzero.inc();
    }
  }

  if (policy_.update_worker_table)
    WorkerTable::global().died(slot.index, failure.signature);

  if (slot.phase != Slot::Phase::kRunning) {
    // Died between tasks (or while exiting): nothing to requeue; if the
    // queue still has work, a respawn picks it up.
    if (slot.next_task >= slot.tasks.size()) {
      slot.phase = Slot::Phase::kFinished;
      return;
    }
    spawn_slot(slot, /*respawn=*/true);
    slot.current_attempt = 0;
    dispatch(slot);
    return;
  }

  // Died holding a task: charge the burned attempt to that task.
  failure.task = slot.current_task;
  failure.attempt = slot.current_attempt;
  failure.burned_wall_us = wall_us_since(slot.dispatched_at);
  stats_.burned_wall_us += failure.burned_wall_us;
  TaskOutcome& outcome = outcomes[slot.current_task];
  ++outcome.attempts;
  outcome.failures.push_back(failure);

  const bool give_up = outcome.attempts >= policy_.max_task_attempts;
  if (give_up) {
    ++stats_.tasks_failed;
    proc_metrics().tasks_failed.inc();
    ++slot.next_task;  // skip the poisoned task
    slot.current_attempt = 0;
  } else {
    ++stats_.tasks_retried;
    proc_metrics().tasks_retried.inc();
    ++slot.current_attempt;  // requeue: same task, next process attempt
  }

  if (slot.next_task >= slot.tasks.size() && give_up) {
    slot.phase = Slot::Phase::kFinished;
    return;
  }
  spawn_slot(slot, /*respawn=*/true);
  dispatch(slot);
}

std::vector<TaskOutcome> Supervisor::run(std::size_t num_tasks) {
  std::vector<TaskOutcome> outcomes(num_tasks);
  if (num_tasks == 0) return outcomes;

  const std::size_t workers = std::min(policy_.workers, num_tasks);
  slots_.clear();
  slots_.resize(workers);
  if (policy_.update_worker_table) WorkerTable::global().clear();
  for (std::size_t s = 0; s < workers; ++s) {
    Slot& slot = slots_[s];
    slot.index = s;
    for (std::size_t i = s; i < num_tasks; i += workers)
      slot.tasks.push_back(i);  // slotted_for's deterministic mapping
    slot.current_attempt = 0;
  }
  for (Slot& slot : slots_) spawn_slot(slot, /*respawn=*/false);
  for (Slot& slot : slots_) dispatch(slot);

  char buf[4096];
  for (;;) {
    if (support::shutdown_requested()) {
      kill_all();
      support::check_shutdown();  // throws ShutdownRequested
    }

    bool all_finished = true;
    std::vector<pollfd> fds;
    std::vector<Slot*> fd_slots;
    for (Slot& slot : slots_) {
      if (slot.phase != Slot::Phase::kFinished) all_finished = false;
      if (!slot.worker) continue;
      fds.push_back({slot.worker->read_fd(), POLLIN, 0});
      fd_slots.push_back(&slot);
    }
    if (all_finished) break;

    const int ready =
        poll(fds.data(), static_cast<nfds_t>(fds.size()), /*timeout=*/10);
    if (ready < 0 && errno != EINTR) {
      kill_all();
      PEAK_CHECK(false, "poll() failed in the worker supervisor");
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Slot& slot = *fd_slots[i];
      if (!slot.worker) continue;  // reaped earlier this sweep
      const short revents = fds[i].revents;
      if (revents & POLLIN) {
        const ssize_t n = read(fds[i].fd, buf, sizeof buf);
        if (n > 0) {
          slot.reader.feed(buf, static_cast<std::size_t>(n));
          slot.last_frame_at = now;
          slot.gap_counted = false;
          while (auto payload = slot.reader.next()) {
            try {
              core::jsonl::JsonParser parser(*payload);
              const core::jsonl::JsonValue frame = parser.parse();
              const std::string& op = frame.at("op").as_string();
              if (op == "result" &&
                  slot.phase == Slot::Phase::kRunning &&
                  frame.at("task").as_u64() == slot.current_task) {
                TaskOutcome& outcome = outcomes[slot.current_task];
                outcome.ok = true;
                outcome.payload = frame.at("payload").as_string();
                ++outcome.attempts;
                ++slot.tasks_done;
                ++slot.next_task;
                slot.current_attempt = 0;
                if (policy_.update_worker_table)
                  WorkerTable::global().idle(slot.index);
                dispatch(slot);
              }
              // hello / hb frames only refresh last_frame_at above.
            } catch (const support::CheckError&) {
              // Garbled frame from a dying worker: ignore; the EOF (or
              // the watchdog) settles its fate.
            }
          }
          if (slot.reader.corrupted() && !slot.kill_sent) {
            kill(slot.worker->pid(), SIGKILL);
            slot.kill_sent = true;
          }
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        reap(slot, outcomes);  // n == 0 (EOF) or hard read error
        continue;
      }
      if (revents & (POLLHUP | POLLERR | POLLNVAL)) {
        reap(slot, outcomes);
        continue;
      }
    }

    // Watchdog sweep (every live slot, busy or quiet): per-dispatch
    // deadline with SIGTERM → SIGKILL escalation, plus heartbeat-gap
    // accounting. Heartbeats keep flowing from a stalled task's ticker
    // thread, so the deadline is measured from dispatch, not from the
    // last frame.
    for (Slot& slot : slots_) {
      if (!slot.worker) continue;
      if (slot.phase == Slot::Phase::kRunning) {
        const auto held = now - slot.dispatched_at;
        if (!slot.term_sent && held > policy_.stall_timeout) {
          slot.term_sent = true;
          slot.killed_for_stall = true;
          slot.term_at = now;
          kill(slot.worker->pid(), SIGTERM);
          ++stats_.term_kills;
          proc_metrics().term_kills.inc();
        } else if (slot.term_sent && !slot.kill_sent &&
                   now - slot.term_at > policy_.term_grace) {
          slot.kill_sent = true;
          kill(slot.worker->pid(), SIGKILL);
          ++stats_.kill_kills;
          proc_metrics().kill_kills.inc();
        }
      }
      if (!slot.gap_counted &&
          now - slot.last_frame_at > 4 * policy_.heartbeat_interval) {
        slot.gap_counted = true;
        ++stats_.heartbeat_gaps;
        proc_metrics().heartbeat_gaps.inc();
      }
    }
  }
  return outcomes;
}

}  // namespace peak::proc
