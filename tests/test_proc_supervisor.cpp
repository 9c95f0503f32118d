#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "dist/coordinator.hpp"
#include "proc/supervisor.hpp"
#include "proc/worker_table.hpp"
#include "support/shutdown.hpp"
#include "workloads/workload.hpp"

namespace peak::proc {
namespace {

using namespace std::chrono_literals;
using dist::Coordinator;
using dist::DistPolicy;
using dist::TaskFrame;

/// Policies for raw-task tests: throwaway forked fleets that should not
/// publish rows to the global worker table, with timings tightened so
/// watchdog paths run in milliseconds instead of the production seconds.
DistPolicy test_policy() {
  DistPolicy policy;
  policy.update_worker_table = false;
  policy.stall_timeout = 2000ms;
  policy.term_grace = 100ms;
  return policy;
}

/// A forked fleet of `workers` children per round, each running `task`
/// on (task index, process attempt).
template <typename TaskFn>
Coordinator fleet(std::size_t workers, TaskFn task,
                  DistPolicy policy = test_policy()) {
  return Coordinator(
      workers,
      [task](const TaskFrame& frame) -> std::string {
        return task(frame.id, frame.attempt);
      },
      policy);
}

/// Run tasks 0..n-1 as one round.
std::vector<TaskOutcome> run(Coordinator& fleet, std::size_t n) {
  return fleet.run_round(std::vector<core::RemoteMemberTask>(n));
}

TEST(Supervisor, RunsTasksInOrderAcrossWorkers) {
  Coordinator sup = fleet(3, [](std::size_t task, std::size_t) {
    return "result-" + std::to_string(task);
  });
  const std::vector<TaskOutcome> outcomes = run(sup, 10);
  ASSERT_EQ(outcomes.size(), 10u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(outcomes[i].payload, "result-" + std::to_string(i));
    EXPECT_EQ(outcomes[i].attempts, 1u);
    EXPECT_TRUE(outcomes[i].failures.empty());
  }
  EXPECT_EQ(sup.stats().workers_connected, 3u);
  EXPECT_EQ(sup.stats().workers_respawned, 0u);
  EXPECT_EQ(sup.stats().tasks_failed, 0u);
}

TEST(Supervisor, MoreWorkersThanTasksIsFine) {
  Coordinator sup = fleet(
      8, [](std::size_t task, std::size_t) { return std::to_string(task); });
  const std::vector<TaskOutcome> outcomes = run(sup, 2);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
}

TEST(Supervisor, ZeroTasksReturnsEmpty) {
  Coordinator sup =
      fleet(2, [](std::size_t, std::size_t) { return std::string(); });
  EXPECT_TRUE(run(sup, 0).empty());
}

TEST(Supervisor, TransientAbortIsRetriedOnAFreshWorker) {
  // Task 1 abort()s on its first attempt only; the respawned worker's
  // retry succeeds. The outcome carries the classified failure history.
  Coordinator sup = fleet(2, [](std::size_t task, std::size_t attempt) {
    if (task == 1 && attempt == 0) std::abort();
    return "ok-" + std::to_string(task);
  });
  const std::vector<TaskOutcome> outcomes = run(sup, 4);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const TaskOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  ASSERT_EQ(outcomes[1].failures.size(), 1u);
  EXPECT_EQ(outcomes[1].failures[0].cls, ExitClass::kSignal);
  EXPECT_EQ(outcomes[1].failures[0].detail, SIGABRT);
  EXPECT_EQ(outcomes[1].failures[0].signature,
            "signal:" + std::to_string(SIGABRT));
  EXPECT_GE(outcomes[1].failures[0].burned_wall_us, 0.0);
  EXPECT_EQ(sup.stats().workers_respawned, 1u);
  EXPECT_EQ(sup.stats().exits_signal, 1u);
  EXPECT_EQ(sup.stats().tasks_retried, 1u);
  EXPECT_EQ(sup.stats().tasks_failed, 0u);
}

TEST(Supervisor, DeterministicCrasherFailsWithIdenticalSignatures) {
  Coordinator sup = fleet(2, [](std::size_t task, std::size_t) {
    if (task == 0) std::abort();
    return std::string("fine");
  });
  const std::vector<TaskOutcome> outcomes = run(sup, 3);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, test_policy().max_task_attempts);
  ASSERT_EQ(outcomes[0].failures.size(), test_policy().max_task_attempts);
  EXPECT_TRUE(outcomes[0].failures_identical());
  // The other tasks were unaffected by their neighbour's crashes.
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(sup.stats().tasks_failed, 1u);
}

TEST(Supervisor, TaskExceptionClassifiesAsNonzeroExit) {
  Coordinator sup = fleet(1, [](std::size_t task, std::size_t) -> std::string {
    if (task == 0) throw std::runtime_error("boom");
    return "fine";
  });
  const std::vector<TaskOutcome> outcomes = run(sup, 2);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kNonzero);
  EXPECT_EQ(outcomes[0].failures[0].detail, kExitTaskError);
  EXPECT_EQ(outcomes[0].failures[0].signature,
            "exit:" + std::to_string(kExitTaskError));
  EXPECT_TRUE(outcomes[1].ok);
}

TEST(Supervisor, ExplicitExitStatusClassifiesAsNonzero) {
  Coordinator sup =
      fleet(1, [](std::size_t, std::size_t) -> std::string { ::_exit(7); });
  const std::vector<TaskOutcome> outcomes = run(sup, 1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kNonzero);
  EXPECT_EQ(outcomes[0].failures[0].detail, 7);
  EXPECT_TRUE(outcomes[0].failures_identical());
}

TEST(Supervisor, WatchdogKillsAStalledWorkerAsTimeout) {
  DistPolicy policy = test_policy();
  policy.stall_timeout = 150ms;
  policy.max_task_attempts = 2;
  Coordinator sup = fleet(
      1,
      [](std::size_t, std::size_t) -> std::string {
        for (;;) ::pause();  // never returns, heartbeats keep flowing
      },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_EQ(outcomes[0].failures.size(), 2u);
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kTimeout);
  EXPECT_EQ(outcomes[0].failures[0].signature, "timeout");
  EXPECT_TRUE(outcomes[0].failures_identical());
  EXPECT_GE(sup.stats().term_kills + sup.stats().kill_kills, 1u);
  EXPECT_GE(sup.stats().exits_timeout, 2u);
}

TEST(Supervisor, WatchdogEscalatesToSigkillWhenSigtermIsBlocked) {
  DistPolicy policy = test_policy();
  policy.stall_timeout = 150ms;
  policy.term_grace = 50ms;
  policy.max_task_attempts = 1;
  Coordinator sup = fleet(
      1,
      [](std::size_t, std::size_t) -> std::string {
        ::signal(SIGTERM, SIG_IGN);  // a wedged worker that won't die nicely
        for (;;) ::pause();
      },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kTimeout);
  EXPECT_GE(sup.stats().kill_kills, 1u);
}

// Sanitizer runtimes mmap huge shadow regions that RLIMIT_AS forbids,
// so the forked child dies in the runtime before the allocation hog
// ever runs — the classification under test is unreachable there.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PEAK_NO_RLIMIT_AS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PEAK_NO_RLIMIT_AS 1
#endif

TEST(Supervisor, AddressSpaceLimitClassifiesAsOom) {
#ifdef PEAK_NO_RLIMIT_AS
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow memory";
#endif
  DistPolicy policy = test_policy();
  policy.limits.address_space_bytes = 256u << 20;
  policy.max_task_attempts = 1;
  Coordinator sup = fleet(
      1,
      [](std::size_t, std::size_t) -> std::string {
        std::vector<std::string> hog;
        for (;;) hog.emplace_back(8u << 20, 'x');
      },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kOom);
  EXPECT_EQ(outcomes[0].failures[0].signature, "oom");
  EXPECT_EQ(sup.stats().exits_oom, 1u);
}

TEST(Supervisor, CpuLimitKillsASpinningWorkerAsTimeout) {
  DistPolicy policy = test_policy();
  policy.limits.cpu_seconds = 1;
  policy.stall_timeout = 60'000ms;  // the watchdog must NOT be the killer
  policy.max_task_attempts = 1;
  Coordinator sup = fleet(
      1,
      [](std::size_t, std::size_t) -> std::string {
        volatile std::uint64_t sink = 0;
        for (;;) sink = sink + 1;
      },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kTimeout);
  EXPECT_EQ(sup.stats().exits_timeout, 1u);
}

TEST(Supervisor, ShutdownRequestMidRoundThrowsAfterReapingTheFleet) {
  support::reset_shutdown();
  Coordinator sup = fleet(2, [](std::size_t task, std::size_t) {
    if (task >= 2) ::usleep(50'000);
    return std::to_string(task);
  });
  std::thread trigger([] {
    ::usleep(20'000);
    support::request_shutdown();
  });
  EXPECT_THROW(run(sup, 64), support::ShutdownRequested);
  trigger.join();
  support::reset_shutdown();
}

/// Task 0 holds its worker until every other task is done, so the round
/// can only finish if the other worker takes tasks 2, 4 and 6 from the
/// stalled worker's queue. A static i mod W schedule never completes it.
TEST(Supervisor, IdleWorkerStealsTheStalledWorkersQueue) {
  // Shared across the fork: each finished task bumps the count.
  void* shared = ::mmap(nullptr, sizeof(std::atomic<int>),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
  ASSERT_NE(shared, MAP_FAILED);
  auto* finished = new (shared) std::atomic<int>(0);
  DistPolicy policy = test_policy();
  policy.stall_timeout = 10'000ms;
  policy.max_task_attempts = 1;
  Coordinator sup = fleet(
      2,
      [finished](std::size_t task, std::size_t) {
        if (task == 0)
          while (finished->load() < 7) ::usleep(1'000);
        else
          finished->fetch_add(1);
        return std::to_string(task) + "@" + std::to_string(::getpid());
      },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 8);
  ::munmap(shared, sizeof(std::atomic<int>));

  ASSERT_EQ(outcomes.size(), 8u);
  std::vector<std::string> pid_of(8);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << i;
    const std::string prefix = std::to_string(i) + "@";
    ASSERT_EQ(outcomes[i].payload.rfind(prefix, 0), 0u)
        << "outcome " << i << " is " << outcomes[i].payload;
    pid_of[i] = outcomes[i].payload.substr(prefix.size());
  }
  for (std::size_t stolen : {2u, 4u, 6u}) {
    EXPECT_EQ(pid_of[stolen], pid_of[1]) << stolen;
    EXPECT_NE(pid_of[stolen], pid_of[0]) << stolen;
  }
  EXPECT_EQ(sup.stats().workers_respawned, 0u);
}

/// The same shape through the driver: the worker holding task 0 of the
/// first rounds of an --isolate-workers 2 tune is stopped for a while, so
/// its sibling steals that worker's queue. Ratings are pure functions of
/// content, so the outcome must not move.
TEST(Supervisor, IsolatedTuneWithAStalledWorkerMatchesThreaded) {
  const sim::MachineModel machine = sim::sparc2();
  const sim::FlagEffectModel effects(search::gcc33_o3_space());
  const auto workload = workloads::make_workload("SWIM");
  const workloads::Trace train =
      workload->trace(workloads::DataSet::kTrain, 42);
  const core::ProfileData profile =
      core::profile_workload(*workload, train, machine);
  const auto tune = [&](const core::DriverOptions& options) {
    core::TuningDriver driver(*workload, profile, train, machine, effects,
                              options);
    return driver.tune(rating::Method::kRBR);
  };
  core::DriverOptions threaded;
  threaded.search_threads = 4;
  const core::TuningOutcome baseline = tune(threaded);

  // Dispatches (task, pid) per round; a round starts at task 0.
  std::vector<std::vector<std::pair<std::size_t, pid_t>>> rounds;
  std::vector<pid_t> stopped;
  std::vector<std::thread> resumers;
  set_dispatch_hook([&](std::size_t task, std::size_t attempt, pid_t pid) {
    if (attempt != 0) return;
    if (task == 0) {
      rounds.emplace_back();
      if (stopped.size() < 3 && ::kill(pid, SIGSTOP) == 0) {
        stopped.push_back(pid);
        resumers.emplace_back([pid] {
          std::this_thread::sleep_for(200ms);
          ::kill(pid, SIGCONT);
        });
      }
    }
    if (!rounds.empty()) rounds.back().emplace_back(task, pid);
  });
  core::DriverOptions isolated;
  isolated.isolate_workers = 2;
  const core::TuningOutcome outcome = tune(isolated);
  set_dispatch_hook(nullptr);
  for (std::thread& t : resumers) t.join();

  EXPECT_EQ(outcome, baseline);
  ASSERT_FALSE(stopped.empty());
  // In a stalled round, an even task other than 0 (slot 0's queue) ran on
  // a worker other than the stopped one: it was stolen.
  std::size_t steals = 0;
  for (std::size_t r = 0; r < stopped.size() && r < rounds.size(); ++r)
    for (const auto& [task, pid] : rounds[r])
      if (task != 0 && task % 2 == 0 && pid != stopped[r]) ++steals;
  EXPECT_GE(steals, 1u);
}

TEST(TaskOutcomeFailures, IdenticalRequiresAtLeastOneAndUniformity) {
  TaskOutcome outcome;
  EXPECT_FALSE(outcome.failures_identical());  // no failures at all
  WorkerFailure a;
  a.signature = "signal:6";
  outcome.failures.push_back(a);
  EXPECT_TRUE(outcome.failures_identical());
  WorkerFailure b;
  b.signature = "timeout";
  outcome.failures.push_back(b);
  EXPECT_FALSE(outcome.failures_identical());
}

TEST(ExitClassNames, CoverEveryClass) {
  EXPECT_STREQ(to_string(ExitClass::kClean), "clean");
  EXPECT_STREQ(to_string(ExitClass::kSignal), "signal");
  EXPECT_STREQ(to_string(ExitClass::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ExitClass::kOom), "oom");
  EXPECT_STREQ(to_string(ExitClass::kNonzero), "nonzero");
}

TEST(WorkerTableRows, TracksSpawnRespawnAndFailureHistory) {
  WorkerTable table;
  table.spawned(0, 100, /*respawn=*/false);
  table.running(0, 7);
  auto rows = table.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].pid, 100);
  EXPECT_EQ(rows[0].state, "running");
  EXPECT_EQ(rows[0].current_task, 7u);

  table.died(0, "signal:11");
  table.spawned(0, 101, /*respawn=*/true);
  rows = table.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].pid, 101);
  EXPECT_EQ(rows[0].respawns, 1u);
  EXPECT_EQ(rows[0].last_failure, "signal:11");
  EXPECT_EQ(rows[0].state, "idle");

  table.finished(0, 9);
  rows = table.snapshot();
  EXPECT_EQ(rows[0].state, "done");
  EXPECT_EQ(rows[0].tasks_done, 9u);
  EXPECT_TRUE(table.live_pids().empty());

  table.clear();
  EXPECT_TRUE(table.snapshot().empty());
}

/// A drained worker has been told to exit but is not reaped yet: its row
/// must already read "exiting" and its pid must be out of live_pids(),
/// so nothing aims a signal at a process that is leaving (or a zombie).
TEST(WorkerTableRows, DrainedWorkerIsExitingUntilReaped) {
  WorkerTable& table = WorkerTable::global();
  std::vector<WorkerTable::Row> at_drain;
  std::vector<pid_t> live_at_drain;
  std::vector<pid_t> drained_pids;
  set_drain_hook([&](std::size_t slot, pid_t pid) {
    drained_pids.push_back(pid);
    for (const WorkerTable::Row& row : table.snapshot())
      if (row.slot == slot) at_drain.push_back(row);
    live_at_drain = table.live_pids();
  });
  DistPolicy policy = test_policy();
  policy.update_worker_table = true;
  Coordinator sup = fleet(
      2, [](std::size_t task, std::size_t) { return std::to_string(task); },
      policy);
  const std::vector<TaskOutcome> outcomes = run(sup, 5);
  set_drain_hook(nullptr);

  ASSERT_EQ(outcomes.size(), 5u);
  ASSERT_EQ(at_drain.size(), 2u);
  for (std::size_t i = 0; i < at_drain.size(); ++i) {
    EXPECT_EQ(at_drain[i].state, "exiting");
    EXPECT_EQ(at_drain[i].pid, drained_pids[i]);
  }
  // The last drain sees every worker exiting or done: none is live.
  EXPECT_TRUE(live_at_drain.empty());
  for (const WorkerTable::Row& row : table.snapshot())
    EXPECT_EQ(row.state, "done");
  EXPECT_TRUE(table.live_pids().empty());
}

TEST(WorkerTableRows, JsonListsWorkersWithCounts) {
  WorkerTable table;
  table.spawned(0, 100, false);
  table.running(0, 3);
  table.spawned(1, 101, false);
  const std::string json = table.json();
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"slot\":0"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos);
  EXPECT_NE(json.find("\"slot\":1"), std::string::npos);
  const auto pids = table.live_pids();
  ASSERT_EQ(pids.size(), 2u);
}

}  // namespace
}  // namespace peak::proc
