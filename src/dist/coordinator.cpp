#include "dist/coordinator.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>

#include "dist/protocol.hpp"
#include "proc/protocol.hpp"
#include "proc/worker_table.hpp"
#include "support/check.hpp"
#include "support/shutdown.hpp"

namespace peak::dist {

namespace {

using Clock = std::chrono::steady_clock;
using proc::ExitClass;

/// Where each counter is published: under proc.* for a forked fleet,
/// under dist.* for a TCP fleet, nowhere for nullptr.
struct CounterName {
  std::uint64_t CoordinatorStats::*field;
  const char* forked;
  const char* tcp;
};

constexpr CounterName kCounterNames[] = {
    {&CoordinatorStats::workers_connected, "proc.workers.spawned",
     "dist.workers.connected"},
    {&CoordinatorStats::workers_lost, nullptr, "dist.workers.lost"},
    {&CoordinatorStats::workers_respawned, "proc.workers.respawned",
     "dist.workers.respawned"},
    {&CoordinatorStats::tasks_dispatched, nullptr, "dist.tasks.dispatched"},
    {&CoordinatorStats::tasks_retried, "proc.tasks.retried", nullptr},
    {&CoordinatorStats::tasks_requeued, nullptr, "dist.tasks.requeued"},
    {&CoordinatorStats::tasks_failed, "proc.tasks.failed",
     "dist.tasks.failed"},
    {&CoordinatorStats::heartbeat_gaps, "proc.heartbeat.gaps",
     "dist.heartbeat.gaps"},
    {&CoordinatorStats::term_kills, "proc.kills.term", nullptr},
    {&CoordinatorStats::kill_kills, "proc.kills.kill", nullptr},
    {&CoordinatorStats::exits_clean, "proc.exits.clean", nullptr},
    {&CoordinatorStats::exits_signal, "proc.exits.signal", nullptr},
    {&CoordinatorStats::exits_timeout, "proc.exits.timeout", nullptr},
    {&CoordinatorStats::exits_oom, "proc.exits.oom", nullptr},
    {&CoordinatorStats::exits_nonzero, "proc.exits.nonzero", nullptr},
};

/// Worker deaths by class, in proc::ExitClass order.
constexpr std::uint64_t CoordinatorStats::*kExitCounters[] = {
    &CoordinatorStats::exits_clean, &CoordinatorStats::exits_signal,
    &CoordinatorStats::exits_timeout, &CoordinatorStats::exits_oom,
    &CoordinatorStats::exits_nonzero};

}  // namespace

/// One worker connection. `queue` holds this round's undispatched task
/// indices; `current` is the single in-flight dispatch (one outstanding
/// task per worker keeps requeue loss bounded to one rating).
struct Coordinator::Worker {
  std::uint64_t id = 0;
  int fd = -1;
  std::size_t slot = 0;
  std::string label;  ///< agent name, or peer "host:port"; "" when forked
  std::unique_ptr<proc::ForkedWorker> process;  ///< set when forked
  proc::FrameReader reader;
  enum class State { kHello, kSession, kReady, kBusy, kExiting };
  State state = State::kHello;
  std::deque<std::size_t> queue;
  std::size_t current = 0;
  Clock::time_point dispatched_at{};
  Clock::time_point last_seen{};
  std::uint64_t tasks_done = 0;

  ~Worker() {
    if (!process) ::close(fd);  // a ForkedWorker closes its own end
  }
  [[nodiscard]] bool in_fleet() const {
    return state == State::kReady || state == State::kBusy;
  }
  [[nodiscard]] pid_t pid() const { return process ? process->pid() : 0; }
};

Coordinator::Coordinator(core::SessionSpec spec, DistPolicy policy)
    : spec_(std::move(spec)), policy_(policy) {
  register_counters();
}

Coordinator::Coordinator(std::size_t workers, WorkerAgent::RateFn rate,
                         DistPolicy policy)
    : policy_(policy), forked_workers_(workers), rate_(std::move(rate)) {
  PEAK_CHECK(workers >= 1, "a forked fleet needs at least one worker");
  register_counters();
}

Coordinator::~Coordinator() { shutdown(); }

void Coordinator::register_counters() {
  proc::ignore_sigpipe_once();
  for (const CounterName& name : kCounterNames) {
    const char* published = forked() ? name.forked : name.tcp;
    counters_.push_back(published ? &obs::counter(published) : nullptr);
  }
}

void Coordinator::bump(Counter counter) {
  ++(stats_.*counter);
  for (std::size_t i = 0; i < std::size(kCounterNames); ++i)
    if (kCounterNames[i].field == counter && counters_[i] != nullptr)
      counters_[i]->inc();
}

bool Coordinator::dial(const std::vector<std::string>& endpoints,
                       std::string* error) {
  for (const std::string& endpoint : endpoints) {
    std::string host;
    std::uint16_t port = 0;
    if (!support::split_host_port(endpoint, &host, &port)) {
      if (error) *error = "bad worker endpoint '" + endpoint + "'";
      return false;
    }
    const int fd = support::tcp_connect(
        host, port, static_cast<int>(policy_.connect_timeout.count()),
        error);
    if (fd < 0) return false;
    add_connection(fd, endpoint);
  }
  return true;
}

void Coordinator::add_connection(int fd, const std::string& peer) {
  auto w = std::make_unique<Worker>();
  w->id = next_id_++;
  w->fd = fd;
  w->slot = next_slot_++;
  w->label = peer;
  w->last_seen = Clock::now();
  workers_.push_back(std::move(w));
}

void Coordinator::fork_worker(std::size_t slot, bool respawn,
                              std::uint64_t tasks_done) {
  std::vector<int> siblings;
  for (const auto& other : workers_) siblings.push_back(other->fd);
  auto w = std::make_unique<Worker>();
  w->process = std::make_unique<proc::ForkedWorker>(
      policy_.limits, siblings, [this](int fd) {
        // The child serves this round's task frames from its snapshot.
        return WorkerAgent(WorkerOptions{}).serve(fd, rate_) == 0
                   ? 0
                   : proc::kExitProtocol;
      });
  w->id = next_id_++;
  w->fd = w->process->fd();
  w->slot = slot;
  w->state = Worker::State::kReady;
  w->last_seen = Clock::now();
  w->tasks_done = tasks_done;
  bump(&CoordinatorStats::workers_connected);
  if (respawn) bump(&CoordinatorStats::workers_respawned);
  if (policy_.update_worker_table)
    proc::WorkerTable::global().spawned(slot, w->pid(), respawn);
  workers_.push_back(std::move(w));
}

void Coordinator::accept_pending() {
  if (!listener_.listening()) return;
  std::string peer;
  int fd = -1;
  while ((fd = listener_.accept_ready(&peer)) >= 0)
    add_connection(fd, peer);
}

Coordinator::Worker* Coordinator::find(std::uint64_t id) {
  for (const auto& w : workers_)
    if (w->id == id) return w.get();
  return nullptr;
}

std::size_t Coordinator::fleet_size() const {
  return static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const auto& w) { return w->in_fleet(); }));
}

bool Coordinator::wait_for_fleet(std::string* error) {
  const Clock::time_point deadline = Clock::now() + policy_.connect_timeout;
  while (fleet_size() < policy_.min_workers) {
    if (Clock::now() >= deadline) {
      if (error)
        *error = "fleet formation timed out: " +
                 std::to_string(fleet_size()) + "/" +
                 std::to_string(policy_.min_workers) + " workers ready";
      return false;
    }
    pump(50);
  }
  fleet_formed_ = true;
  return true;
}

void Coordinator::handle_frame(Worker& w, const std::string& payload) {
  w.last_seen = Clock::now();
  const core::jsonl::JsonValue record = parse_frame(payload);
  const std::string op = frame_op(record);
  if (op == "hello") {
    const std::uint64_t version = record.at("version").as_u64();
    if (version != kDistProtocolVersion) {
      proc::write_frame(w.fd, refuse_frame(
          "protocol version " + std::to_string(version) +
          " != " + std::to_string(kDistProtocolVersion)));
      lose(w, {.cls = ExitClass::kNonzero, .signature = "version"});
      return;
    }
    const std::string name = record.at("name").as_string();
    if (!name.empty()) w.label = name;
    if (!proc::write_frame(w.fd, session_frame(spec_))) {
      closed(w);
      return;
    }
    w.state = Worker::State::kSession;
  } else if (op == "ready") {
    w.state = Worker::State::kReady;
    bump(&CoordinatorStats::workers_connected);
    if (fleet_formed_) bump(&CoordinatorStats::workers_respawned);
    if (policy_.update_worker_table) {
      proc::WorkerTable::global().spawned(w.slot, /*pid=*/0,
                                          /*respawn=*/false);
      proc::WorkerTable::global().set_label(w.slot, w.label);
    }
  } else if (op == "result") {
    const std::uint64_t id = record.at("id").as_u64();
    PEAK_CHECK(round_tasks_ != nullptr && id < round_tasks_->size(),
               "dist: result frame outside a round");
    if (!done_[id]) {
      proc::TaskOutcome& out = (*outcomes_)[id];
      out.ok = true;
      out.payload = record.at("payload").as_string();
      out.attempts = out.failures.size() + 1;
      done_[id] = 1;
      --undecided_;
    }
    w.state = Worker::State::kReady;
    ++w.tasks_done;
    if (policy_.update_worker_table)
      proc::WorkerTable::global().idle(w.slot);
  } else if (op == "err") {
    // The rating host threw (a malformed task, an unknown scenario): the
    // worker is alive and stays in the fleet; the task burns an attempt.
    record_task_failure(
        w, {.cls = ExitClass::kNonzero, .signature = "task_error"});
    w.state = Worker::State::kReady;
    if (policy_.update_worker_table)
      proc::WorkerTable::global().idle(w.slot);
  } else if (op != "hb") {  // a heartbeat only refreshed last_seen
    lose(w, {.cls = ExitClass::kNonzero, .signature = "protocol"});
  }
}

void Coordinator::record_task_failure(Worker& w,
                                      const proc::WorkerFailure& death) {
  if (w.state != Worker::State::kBusy) return;
  PEAK_CHECK(round_tasks_ != nullptr && w.current < round_tasks_->size(),
             "dist: task failure outside a round");
  const std::size_t task = w.current;
  if (done_[task]) return;
  proc::TaskOutcome& out = (*outcomes_)[task];
  proc::WorkerFailure f = death;
  f.slot = w.slot;
  f.task = task;
  f.attempt = out.failures.size();
  f.burned_wall_us = std::chrono::duration<double, std::micro>(
                         Clock::now() - w.dispatched_at)
                         .count();
  out.failures.push_back(std::move(f));
  out.attempts = out.failures.size();
  if (out.failures.size() >= policy_.max_task_attempts) {
    out.ok = false;
    done_[task] = 1;
    --undecided_;
    bump(&CoordinatorStats::tasks_failed);
  } else {
    requeue_.push_back(task);
    bump(&CoordinatorStats::tasks_retried);
    bump(&CoordinatorStats::tasks_requeued);
  }
}

void Coordinator::lose(Worker& w, const proc::WorkerFailure& death) {
  record_task_failure(w, death);
  // Undispatched work reassigns without burning attempts — the tasks
  // never ran here.
  for (std::size_t task : w.queue) {
    if (done_[task]) continue;
    requeue_.push_back(task);
    bump(&CoordinatorStats::tasks_requeued);
  }
  w.queue.clear();
  if (w.in_fleet() || w.state == Worker::State::kExiting) {
    bump(&CoordinatorStats::workers_lost);
    bump(kExitCounters[static_cast<int>(death.cls)]);
    if (death.signature == "heartbeat")
      bump(&CoordinatorStats::heartbeat_gaps);
    if (policy_.update_worker_table)
      proc::WorkerTable::global().died(w.slot, death.signature);
  }
  const bool replace = w.process != nullptr && undecided_ > 0;
  const std::size_t slot = w.slot;
  const std::uint64_t tasks_done = w.tasks_done;
  erase(w);
  if (replace) fork_worker(slot, /*respawn=*/true, tasks_done);
}

void Coordinator::closed(Worker& w) {
  if (!w.process) {
    lose(w, {.cls = ExitClass::kSignal, .signature = "disconnect"});
    return;
  }
  const std::optional<proc::WorkerFailure> death =
      w.process->reap(w.state == Worker::State::kExiting);
  if (death) {
    lose(w, *death);
    return;
  }
  bump(&CoordinatorStats::exits_clean);
  if (policy_.update_worker_table)
    proc::WorkerTable::global().finished(w.slot, w.tasks_done);
  erase(w);
}

void Coordinator::erase(Worker& w) {
  workers_.erase(std::find_if(workers_.begin(), workers_.end(),
                              [&w](const auto& p) { return p.get() == &w; }));
}

void Coordinator::dispatch_idle() {
  if (round_tasks_ == nullptr) return;
  for (const auto& wp : workers_) {
    Worker& w = *wp;
    if (w.state != Worker::State::kReady) continue;
    // Feed from the worker's own queue, then the requeue pool, then
    // steal from the longest sibling queue — an idle worker never waits
    // while undispatched work exists anywhere.
    std::size_t task = 0;
    bool have = false;
    while (!w.queue.empty()) {
      task = w.queue.front();
      w.queue.pop_front();
      if (!done_[task]) {
        have = true;
        break;
      }
    }
    while (!have && !requeue_.empty()) {
      task = requeue_.front();
      requeue_.pop_front();
      if (!done_[task]) have = true;
    }
    if (!have) {
      Worker* longest = nullptr;
      for (const auto& other : workers_)
        if (other.get() != &w && !other->queue.empty() &&
            (longest == nullptr ||
             other->queue.size() > longest->queue.size()))
          longest = other.get();
      while (longest != nullptr && !longest->queue.empty()) {
        task = longest->queue.back();
        longest->queue.pop_back();
        if (!done_[task]) {
          have = true;
          break;
        }
      }
    }
    if (!have) {
      // Nothing left to start: a forked child exits now, overlapping its
      // teardown with the round's last tasks (a death there still gets a
      // replacement fork).
      if (w.process) drain(w);
      continue;
    }
    const proc::TaskOutcome& out = (*outcomes_)[task];
    const unsigned attempt = static_cast<unsigned>(out.failures.size());
    if (!proc::write_frame(
            w.fd, task_frame(task, attempt, (*round_tasks_)[task]))) {
      // The worker is gone. workers_ mutates: rescan on the next pump.
      requeue_.push_front(task);
      closed(w);
      return;
    }
    w.state = Worker::State::kBusy;
    w.current = task;
    w.dispatched_at = Clock::now();
    bump(&CoordinatorStats::tasks_dispatched);
    if (policy_.update_worker_table)
      proc::WorkerTable::global().running(w.slot, task);
    if (proc::dispatch_hook()) proc::dispatch_hook()(task, attempt, w.pid());
  }
}

void Coordinator::check_deadlines() {
  const Clock::time_point now = Clock::now();
  // Collect first: lose() mutates workers_.
  std::vector<std::pair<std::uint64_t, const char*>> dead;
  for (const auto& w : workers_) {
    // Handshaking workers are silent while they rebuild and profile the
    // scenario, so they get the (longer) connect deadline; agents start
    // heartbeating right after hello, so this rarely matters in practice.
    const bool handshaking = w->state == Worker::State::kHello ||
                             w->state == Worker::State::kSession;
    const auto quiet_limit =
        handshaking ? std::max(policy_.connect_timeout,
                               policy_.heartbeat_timeout)
                    : policy_.heartbeat_timeout;
    if (w->state == Worker::State::kBusy &&
        now - w->dispatched_at > policy_.stall_timeout) {
      if (!w->process) {
        dead.emplace_back(w->id, "timeout");
        continue;
      }
      // A stalled child is escalated; its death arrives as an EOF and
      // classifies as a timeout.
      const int sig = w->process->escalate(policy_.term_grace);
      if (sig == SIGTERM) bump(&CoordinatorStats::term_kills);
      if (sig == SIGKILL) bump(&CoordinatorStats::kill_kills);
    } else if (now - w->last_seen > quiet_limit) {
      dead.emplace_back(w->id, "heartbeat");
    }
  }
  for (const auto& [id, signature] : dead)
    if (Worker* w = find(id))
      lose(*w, {.cls = ExitClass::kTimeout, .signature = signature});
}

void Coordinator::pump(int wait_ms) {
  accept_pending();
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  if (listener_.listening())
    fds.push_back({listener_.fd(), POLLIN, 0});
  for (const auto& w : workers_) {
    fds.push_back({w->fd, POLLIN, 0});
    ids.push_back(w->id);
  }
  // With no fd at all (a dialed fleet that died) this just sleeps, so a
  // wait for a replacement never spins.
  const int n = ::poll(fds.data(), fds.size(), wait_ms);
  check_deadlines();
  if (n <= 0) return;
  const std::size_t base = listener_.listening() ? 1 : 0;
  if (base == 1 && (fds[0].revents & POLLIN) != 0) accept_pending();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if ((fds[base + i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
      continue;
    Worker* w = find(ids[i]);
    if (w == nullptr) continue;  // already lost this pass
    char buf[65536];
    const ssize_t got = ::read(w->fd, buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      closed(*w);
      continue;
    }
    w->reader.feed(buf, static_cast<std::size_t>(got));
    while (const auto payload = w->reader.next()) {
      handle_frame(*w, *payload);
      w = find(ids[i]);  // handle_frame may have lost the worker
      if (w == nullptr) break;
    }
    if (w != nullptr && w->reader.corrupted())
      lose(*w, {.cls = ExitClass::kNonzero, .signature = "corrupt"});
  }
}

std::vector<proc::TaskOutcome> Coordinator::run_round(
    const std::vector<core::RemoteMemberTask>& tasks) {
  std::vector<proc::TaskOutcome> outcomes(tasks.size());
  if (tasks.empty()) return outcomes;
  round_tasks_ = &tasks;
  outcomes_ = &outcomes;
  done_.assign(tasks.size(), 0);
  undecided_ = tasks.size();
  requeue_.clear();

  if (forked()) {
    // Fork now, while the caller's round state is frozen.
    if (policy_.update_worker_table) proc::WorkerTable::global().clear();
    for (std::size_t s = 0; s < std::min(forked_workers_, tasks.size());
         ++s)
      fork_worker(s, /*respawn=*/false, /*tasks_done=*/0);
  }

  // slotted_for schedule over the fleet at round start: task i → ready
  // worker i mod W, in join order. Between rounds the coordinator was
  // not draining sockets, so buffered heartbeats must not read as gaps:
  // every clock starts fresh here.
  std::vector<Worker*> fleet;
  for (const auto& w : workers_) {
    w->last_seen = Clock::now();
    if (w->in_fleet()) fleet.push_back(w.get());
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (fleet.empty())
      requeue_.push_back(i);  // no fleet yet: the first joiner drains it
    else
      fleet[i % fleet.size()]->queue.push_back(i);
  }

  Clock::time_point fleet_lost_at{};
  while (undecided_ > 0) {
    if (forked() && support::shutdown_requested()) {
      round_tasks_ = nullptr;
      outcomes_ = nullptr;
      shutdown();
      support::check_shutdown();  // throws ShutdownRequested
    }
    if (fleet_size() == 0) {
      // The whole TCP fleet is gone. Give a replacement connect_timeout
      // to join (the listener stays in the poll set) before giving up.
      if (fleet_lost_at == Clock::time_point{})
        fleet_lost_at = Clock::now();
      PEAK_CHECK(Clock::now() - fleet_lost_at < policy_.connect_timeout,
                 "dist: all workers lost and none rejoined; " +
                     std::to_string(undecided_) + " tasks undone");
    } else {
      fleet_lost_at = Clock::time_point{};
    }
    dispatch_idle();
    pump(50);
  }
  if (forked()) {
    for (const auto& w : workers_)
      if (w->state != Worker::State::kExiting) drain(*w);
    while (!workers_.empty()) pump(50);
  }
  round_tasks_ = nullptr;
  outcomes_ = nullptr;
  // Leftover queue entries (tasks that completed elsewhere first) must
  // not leak into the next round.
  for (const auto& w : workers_) w->queue.clear();
  return outcomes;
}

void Coordinator::drain(Worker& w) {
  w.state = Worker::State::kExiting;
  if (policy_.update_worker_table)
    proc::WorkerTable::global().exiting(w.slot);
  proc::write_frame(w.fd, bye_frame());
  if (proc::drain_hook()) proc::drain_hook()(w.slot, w.pid());
}

void Coordinator::shutdown() {
  for (const auto& w : workers_) {
    if (w->process) {
      if (policy_.update_worker_table)
        proc::WorkerTable::global().died(w->slot, "killed");
      continue;
    }
    proc::write_frame(w->fd, bye_frame());
    if (policy_.update_worker_table && w->in_fleet())
      proc::WorkerTable::global().finished(w->slot, w->tasks_done);
  }
  workers_.clear();  // kills and reaps forked children still alive
  listener_.close();
}

}  // namespace peak::dist
