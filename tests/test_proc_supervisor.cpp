#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "proc/supervisor.hpp"
#include "proc/worker_table.hpp"
#include "support/shutdown.hpp"

namespace peak::proc {
namespace {

using namespace std::chrono_literals;

/// Policies for raw-task tests: throwaway supervisors that should not
/// publish rows to the global worker table, with timings tightened so
/// watchdog paths run in milliseconds instead of the production seconds.
SupervisorPolicy test_policy(std::size_t workers) {
  SupervisorPolicy policy;
  policy.workers = workers;
  policy.update_worker_table = false;
  policy.heartbeat_interval = 10ms;
  policy.stall_timeout = 2000ms;
  policy.term_grace = 100ms;
  return policy;
}

TEST(Supervisor, RunsTasksInOrderAcrossWorkers) {
  Supervisor sup(
      [](std::size_t task, std::size_t) {
        return "result-" + std::to_string(task);
      },
      test_policy(3));
  const std::vector<TaskOutcome> outcomes = sup.run(10);
  ASSERT_EQ(outcomes.size(), 10u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(outcomes[i].payload, "result-" + std::to_string(i));
    EXPECT_EQ(outcomes[i].attempts, 1u);
    EXPECT_TRUE(outcomes[i].failures.empty());
  }
  EXPECT_EQ(sup.stats().spawned, 3u);
  EXPECT_EQ(sup.stats().respawned, 0u);
  EXPECT_EQ(sup.stats().tasks_failed, 0u);
}

TEST(Supervisor, MoreWorkersThanTasksIsFine) {
  Supervisor sup(
      [](std::size_t task, std::size_t) { return std::to_string(task); },
      test_policy(8));
  const std::vector<TaskOutcome> outcomes = sup.run(2);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
}

TEST(Supervisor, ZeroTasksReturnsEmpty) {
  Supervisor sup([](std::size_t, std::size_t) { return std::string(); },
                 test_policy(2));
  EXPECT_TRUE(sup.run(0).empty());
}

TEST(Supervisor, TransientAbortIsRetriedOnAFreshWorker) {
  // Task 1 abort()s on its first attempt only; the respawned worker's
  // retry succeeds. The outcome carries the classified failure history.
  Supervisor sup(
      [](std::size_t task, std::size_t attempt) {
        if (task == 1 && attempt == 0) std::abort();
        return "ok-" + std::to_string(task);
      },
      test_policy(2));
  const std::vector<TaskOutcome> outcomes = sup.run(4);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const TaskOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcomes[1].attempts, 2u);
  ASSERT_EQ(outcomes[1].failures.size(), 1u);
  EXPECT_EQ(outcomes[1].failures[0].cls, ExitClass::kSignal);
  EXPECT_EQ(outcomes[1].failures[0].detail, SIGABRT);
  EXPECT_EQ(outcomes[1].failures[0].signature,
            "signal:" + std::to_string(SIGABRT));
  EXPECT_GE(outcomes[1].failures[0].burned_wall_us, 0.0);
  EXPECT_EQ(sup.stats().respawned, 1u);
  EXPECT_EQ(sup.stats().exits_signal, 1u);
  EXPECT_EQ(sup.stats().tasks_retried, 1u);
  EXPECT_EQ(sup.stats().tasks_failed, 0u);
}

TEST(Supervisor, DeterministicCrasherFailsWithIdenticalSignatures) {
  Supervisor sup(
      [](std::size_t task, std::size_t) {
        if (task == 0) std::abort();
        return std::string("fine");
      },
      test_policy(2));
  const std::vector<TaskOutcome> outcomes = sup.run(3);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, test_policy(2).max_task_attempts);
  ASSERT_EQ(outcomes[0].failures.size(),
            test_policy(2).max_task_attempts);
  EXPECT_TRUE(outcomes[0].failures_identical());
  // The other tasks were unaffected by their neighbour's crashes.
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(sup.stats().tasks_failed, 1u);
}

TEST(Supervisor, TaskExceptionClassifiesAsNonzeroExit) {
  Supervisor sup(
      [](std::size_t task, std::size_t) -> std::string {
        if (task == 0) throw std::runtime_error("boom");
        return "fine";
      },
      test_policy(1));
  const std::vector<TaskOutcome> outcomes = sup.run(2);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kNonzero);
  EXPECT_EQ(outcomes[0].failures[0].detail, kExitTaskError);
  EXPECT_EQ(outcomes[0].failures[0].signature,
            "exit:" + std::to_string(kExitTaskError));
  EXPECT_TRUE(outcomes[1].ok);
}

TEST(Supervisor, ExplicitExitStatusClassifiesAsNonzero) {
  Supervisor sup(
      [](std::size_t, std::size_t) -> std::string {
        ::_exit(7);
      },
      test_policy(1));
  const std::vector<TaskOutcome> outcomes = sup.run(1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kNonzero);
  EXPECT_EQ(outcomes[0].failures[0].detail, 7);
  EXPECT_TRUE(outcomes[0].failures_identical());
}

TEST(Supervisor, WatchdogKillsAStalledWorkerAsTimeout) {
  SupervisorPolicy policy = test_policy(1);
  policy.stall_timeout = 150ms;
  policy.max_task_attempts = 2;
  Supervisor sup(
      [](std::size_t, std::size_t) -> std::string {
        for (;;) ::pause();  // never returns, heartbeats keep flowing
      },
      policy);
  const std::vector<TaskOutcome> outcomes = sup.run(1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_EQ(outcomes[0].failures.size(), 2u);
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kTimeout);
  EXPECT_EQ(outcomes[0].failures[0].signature, "timeout");
  EXPECT_TRUE(outcomes[0].failures_identical());
  EXPECT_GE(sup.stats().term_kills + sup.stats().kill_kills, 1u);
  EXPECT_GE(sup.stats().exits_timeout, 2u);
}

TEST(Supervisor, WatchdogEscalatesToSigkillWhenSigtermIsBlocked) {
  SupervisorPolicy policy = test_policy(1);
  policy.stall_timeout = 150ms;
  policy.term_grace = 50ms;
  policy.max_task_attempts = 1;
  Supervisor sup(
      [](std::size_t, std::size_t) -> std::string {
        ::signal(SIGTERM, SIG_IGN);  // a wedged worker that won't die nicely
        for (;;) ::pause();
      },
      policy);
  const std::vector<TaskOutcome> outcomes = sup.run(1);
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
  SupervisorPolicy policy = test_policy(1);
  policy.limits.address_space_bytes = 256u << 20;
  policy.max_task_attempts = 1;
  Supervisor sup(
      [](std::size_t, std::size_t) -> std::string {
        std::vector<std::string> hog;
        for (;;) hog.emplace_back(8u << 20, 'x');
      },
      policy);
  const std::vector<TaskOutcome> outcomes = sup.run(1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kOom);
  EXPECT_EQ(outcomes[0].failures[0].signature, "oom");
  EXPECT_EQ(sup.stats().exits_oom, 1u);
}

TEST(Supervisor, CpuLimitKillsASpinningWorkerAsTimeout) {
  SupervisorPolicy policy = test_policy(1);
  policy.limits.cpu_seconds = 1;
  policy.stall_timeout = 60'000ms;  // the watchdog must NOT be the killer
  policy.max_task_attempts = 1;
  Supervisor sup(
      [](std::size_t, std::size_t) -> std::string {
        volatile std::uint64_t sink = 0;
        for (;;) sink = sink + 1;
      },
      policy);
  const std::vector<TaskOutcome> outcomes = sup.run(1);
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_FALSE(outcomes[0].failures.empty());
  EXPECT_EQ(outcomes[0].failures[0].cls, ExitClass::kTimeout);
  EXPECT_EQ(sup.stats().exits_timeout, 1u);
}

TEST(Supervisor, ShutdownRequestMidRoundThrowsAfterReapingTheFleet) {
  support::reset_shutdown();
  Supervisor sup(
      [](std::size_t task, std::size_t) {
        if (task >= 2) ::usleep(50'000);
        return std::to_string(task);
      },
      test_policy(2));
  std::thread trigger([] {
    ::usleep(20'000);
    support::request_shutdown();
  });
  EXPECT_THROW(sup.run(64), support::ShutdownRequested);
  trigger.join();
  support::reset_shutdown();
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
  SupervisorPolicy policy = test_policy(2);
  policy.update_worker_table = true;
  Supervisor sup(
      [](std::size_t task, std::size_t) { return std::to_string(task); },
      policy);
  const std::vector<TaskOutcome> outcomes = sup.run(5);
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
