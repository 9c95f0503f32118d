#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "proc/supervisor.hpp"
#include "proc/worker_table.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Acceptance tests of the out-of-process rating sandbox: for every
/// --isolate-workers N >= 1 the TuningOutcome and journal bytes must be
/// bit-identical to the in-process batch path — including when workers
/// are killed by real signals or abort()ing injected faults mid-round.
class ProcDriverTest : public ::testing::Test {
protected:
  ProcDriverTest()
      : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  struct Setup {
    std::unique_ptr<workloads::Workload> workload;
    workloads::Trace train;
    ProfileData profile;
  };

  Setup setup(const std::string& name) {
    Setup s;
    s.workload = workloads::make_workload(name);
    s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    return s;
  }

  TuningOutcome tune(const Setup& s, const DriverOptions& options,
                     rating::Method method) {
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    return driver.tune(method);
  }

  fault::FaultInjector sweep_injector(std::uint64_t seed) const {
    fault::FaultModel model;
    model.fault_prob = 0.05;
    model.seed = seed;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  /// Non-sticky hard crashes scripted against the first config Iterative
  /// Elimination probes, spread over the trace so RBR's pair sampling is
  /// guaranteed to hit at least one site (same recipe as the crash-sweep
  /// bench): the worker rating it abort()s once, the retry clears.
  fault::FaultInjector transient_crash_injector(const Setup& s) const {
    fault::FaultInjector injector;
    search::FlagConfig probed = search::o3_config(effects_.space());
    probed.set(0, false);
    const std::size_t n = s.train.invocations.size();
    for (std::size_t k = 0; k < 16; ++k) {
      fault::ScriptedFault sf;
      sf.config_key = probed.key();
      sf.invocation_id = s.train.invocations[k * n / 16].id;
      sf.kind = fault::FaultKind::kHardCrash;
      sf.sticky = false;
      injector.script(sf);
    }
    return injector;
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  static std::uint64_t counter(const std::string& name) {
    return obs::counter(name).value();
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ProcDriverTest, IsolatedOutcomeBitIdenticalToSerialAcrossSeeds) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DriverOptions serial;
    serial.seed = seed;
    serial.search_threads = 1;
    const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

    DriverOptions isolated;
    isolated.seed = seed;
    isolated.isolate_workers = 4;
    EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), one);
  }
}

TEST_F(ProcDriverTest, IsolatedOutcomeIdenticalForRbrAndOddWorkerCounts) {
  Setup s = setup("ART");
  DriverOptions serial;
  serial.search_threads = 1;
  const TuningOutcome one = tune(s, serial, rating::Method::kRBR);
  for (unsigned workers : {1u, 3u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    DriverOptions isolated;
    isolated.isolate_workers = workers;
    EXPECT_EQ(tune(s, isolated, rating::Method::kRBR), one);
  }
}

TEST_F(ProcDriverTest, IsolatedMatchesThreadedNotJustSerial) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  const TuningOutcome four = tune(s, threaded, rating::Method::kRBR);

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  EXPECT_EQ(tune(s, isolated, rating::Method::kRBR), four);
}

TEST_F(ProcDriverTest, IsolatedJournalBytesIdenticalToThreaded) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  threaded.fault.journal_path = temp_path("peak_proc_journal_t4.jsonl");
  const TuningOutcome four = tune(s, threaded, rating::Method::kCBR);

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  isolated.fault.journal_path = temp_path("peak_proc_journal_w4.jsonl");
  EXPECT_EQ(tune(s, isolated, rating::Method::kCBR), four);

  const std::string a = slurp(threaded.fault.journal_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(isolated.fault.journal_path));
}

TEST_F(ProcDriverTest, IsolatedOutcomeIdenticalUnderStochasticFaults) {
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfaU);
  DriverOptions serial;
  serial.search_threads = 1;
  serial.fault.injector = &injector;
  TuningDriver one_driver(*s.workload, s.profile, s.train, machine_,
                          effects_, serial);
  const TuningOutcome one = one_driver.tune(rating::Method::kCBR);

  DriverOptions isolated = serial;
  isolated.search_threads = 0;
  isolated.isolate_workers = 4;
  TuningDriver iso_driver(*s.workload, s.profile, s.train, machine_,
                          effects_, isolated);
  EXPECT_EQ(iso_driver.tune(rating::Method::kCBR), one);

  // Quarantine verdicts (which configs, what kind, how many failures)
  // must also be process-isolation-invariant.
  const auto& a = one_driver.quarantine().entries();
  const auto& b = iso_driver.quarantine().entries();
  ASSERT_EQ(b.size(), a.size());
  for (const auto& [key, entry] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(it->second.kind, entry.kind) << key;
    EXPECT_EQ(it->second.failures, entry.failures) << key;
    EXPECT_EQ(it->second.quarantined, entry.quarantined) << key;
  }
}

TEST_F(ProcDriverTest, SurvivedTransientHardCrashLeavesNoTrace) {
  Setup s = setup("SWIM");
  // Crash-free comparator with the same guarded-rating wiring: an
  // injector that never fires. (A null injector would skip the guarded
  // executor entirely and change cost accounting.)
  const fault::FaultInjector inert;
  DriverOptions plain;
  plain.search_threads = 4;
  plain.fault.injector = &inert;
  const TuningOutcome baseline = tune(s, plain, rating::Method::kRBR);

  const fault::FaultInjector crasher = transient_crash_injector(s);
  DriverOptions isolated;
  isolated.isolate_workers = 4;
  isolated.fault.injector = &crasher;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                      effects_, isolated);
  const std::uint64_t before = counter("proc.workers.respawned");
  const TuningOutcome outcome = driver.tune(rating::Method::kRBR);

  // Real abort()s happened (a worker died and was re-forked)...
  EXPECT_GE(counter("proc.workers.respawned"), before + 1);
  // ...and yet nothing distinguishes the outcome from a crash-free run:
  // not the winner, not the cost, not the event stream, and nothing was
  // quarantined or journaled about the crash.
  EXPECT_EQ(outcome, baseline);
  EXPECT_TRUE(driver.quarantine().entries().empty());
}

TEST_F(ProcDriverTest, DeterministicHardCrashersAreQuarantined) {
  Setup s = setup("SWIM");
  fault::FaultModel model;
  model.fault_prob = 0.08;
  model.crash_weight = 0.0;
  model.hang_weight = 0.0;
  model.miscompile_weight = 0.0;
  model.glitch_weight = 0.0;
  model.checkpoint_weight = 0.0;
  model.hard_crash_weight = 1.0;
  model.deterministic_fraction = 1.0;
  model.seed = 7;
  fault::FaultInjector injector(model);
  injector.exempt(search::o3_config(effects_.space()));

  DriverOptions isolated;
  isolated.isolate_workers = 2;
  isolated.fault.injector = &injector;
  TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                      effects_, isolated);
  // Every faulty config abort()s on every attempt: the run must still
  // complete, with the crashers identified and quarantined.
  const TuningOutcome outcome = driver.tune(rating::Method::kRBR);
  EXPECT_FALSE(outcome.best_config.key().empty());
  EXPECT_GE(driver.quarantine().entries().size(), 1u);
}

TEST_F(ProcDriverTest, SigkilledWorkersMidRoundStillBitIdentical) {
  Setup s = setup("SWIM");
  DriverOptions threaded;
  threaded.search_threads = 4;
  const TuningOutcome baseline = tune(s, threaded, rating::Method::kRBR);

  // SIGKILL the worker holding the 2nd and the 7th first-attempt
  // dispatch of the isolated run, right after the task is sent — so each
  // kill lands on a worker that owns an unfinished task. Two deaths on
  // different tasks stay under the per-task attempt budget: each lost
  // task is requeued once onto a fresh fork, and the outcome must be
  // bit-identical to the unharmed run.
  const std::vector<std::size_t> kill_at{2, 7};
  std::size_t dispatches = 0;
  int kills = 0;
  proc::set_dispatch_hook(
      [&](std::size_t /*task*/, std::size_t attempt, pid_t pid) {
        if (attempt != 0) return;
        ++dispatches;
        if (std::find(kill_at.begin(), kill_at.end(), dispatches) !=
                kill_at.end() &&
            ::kill(pid, SIGKILL) == 0)
          ++kills;
      });

  DriverOptions isolated;
  isolated.isolate_workers = 4;
  const std::uint64_t lost = counter("proc.exits.signal");
  const std::uint64_t requeued = counter("proc.tasks.retried");
  const std::uint64_t respawned = counter("proc.workers.respawned");
  const std::uint64_t failed = counter("proc.tasks.failed");
  const TuningOutcome outcome = tune(s, isolated, rating::Method::kRBR);
  proc::set_dispatch_hook(nullptr);

  EXPECT_EQ(outcome, baseline);
  ASSERT_EQ(kills, 2);
  EXPECT_EQ(counter("proc.exits.signal"), lost + 2);
  EXPECT_EQ(counter("proc.tasks.retried"), requeued + 2);
  EXPECT_EQ(counter("proc.workers.respawned"), respawned + 2);
  EXPECT_EQ(counter("proc.tasks.failed"), failed);
}

TEST_F(ProcDriverTest, WorkerTablePublishesFleetState) {
  Setup s = setup("SWIM");
  DriverOptions isolated;
  isolated.isolate_workers = 3;
  (void)tune(s, isolated, rating::Method::kCBR);

  // After the run the table still shows the last round's fleet (all
  // retired; a round never spawns more slots than it has tasks), and its
  // JSON document carries one row per slot.
  const auto rows = proc::WorkerTable::global().snapshot();
  ASSERT_GE(rows.size(), 1u);
  ASSERT_LE(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_EQ(row.state, "done");
  const std::string json = proc::WorkerTable::global().json();
  EXPECT_NE(json.find("\"workers\":["), std::string::npos);
  EXPECT_NE(json.find("\"tasks_done\":"), std::string::npos);
}

}  // namespace
}  // namespace peak::core
