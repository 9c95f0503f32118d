#include "crash_sweep.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "workloads/workload.hpp"

namespace peak::bench {

namespace {

constexpr const char* kBenchmarks[] = {"SWIM", "ART"};

struct TuneSetup {
  std::unique_ptr<workloads::Workload> workload;
  workloads::Trace train;
  core::ProfileData profile;
  sim::MachineModel machine;
  sim::FlagEffectModel effects{search::gcc33_o3_space()};
};

TuneSetup make_setup(const std::string& benchmark) {
  TuneSetup s;
  s.machine = sim::sparc2();
  s.workload = workloads::make_workload(benchmark);
  s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
  s.profile = core::profile_workload(*s.workload, s.train, s.machine);
  return s;
}

struct TuneRun {
  core::TuningOutcome outcome;
  std::size_t quarantined = 0;
};

TuneRun tune_once(const TuneSetup& s, const fault::FaultInjector* injector,
                  unsigned search_threads, unsigned isolate_workers) {
  core::DriverOptions options;
  options.fault.injector = injector;
  options.search_threads = search_threads;
  options.isolate_workers = isolate_workers;
  core::TuningDriver driver(*s.workload, s.profile, s.train, s.machine,
                            s.effects, options);
  TuneRun run;
  run.outcome = driver.tune(rating::Method::kRBR);
  run.quarantined = driver.quarantine().size();
  return run;
}

/// Non-sticky hard crashes scripted against the first config Iterative
/// Elimination probes (-O3 minus the space's first flag) at several trace
/// invocations: the worker rating it abort()s when one fires, and the
/// respawned attempt clears (fire() returns kNone past attempt 0), so the
/// round completes with nothing charged and nothing quarantined.
fault::FaultInjector transient_injector(const TuneSetup& s) {
  fault::FaultInjector injector;
  search::FlagConfig probed = search::o3_config(s.effects.space());
  probed.set(0, false);
  // RBR batches measurement pairs over a method-chosen subset of the
  // trace, so spread the scripted sites widely to guarantee a hit.
  const std::size_t n = s.train.invocations.size();
  std::vector<std::size_t> indices;
  for (std::size_t k = 0; k < 16; ++k) indices.push_back(k * n / 16);
  for (std::size_t index : indices) {
    fault::ScriptedFault sf;
    sf.config_key = probed.key();
    sf.invocation_id = s.train.invocations[index].id;
    sf.kind = fault::FaultKind::kHardCrash;
    sf.sticky = false;
    injector.script(sf);
  }
  return injector;
}

/// Stochastic model where every faulty config is a deterministic hard
/// crasher: it abort()s on every attempt, so the worker runtime exhausts its
/// retries and quarantines the config — and an unisolated run simply dies.
fault::FaultInjector sticky_injector(const TuneSetup& s) {
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
  injector.exempt(search::o3_config(s.effects.space()));
  return injector;
}

std::uint64_t respawned_counter() {
  return obs::counter("proc.workers.respawned").value();
}

/// Run the sticky model in-process (no isolation) inside a forked child:
/// the first firing hard crash abort()s the child, which is the point —
/// this arm documents the completion rate isolation exists to fix.
bool unisolated_survives(const TuneSetup& s,
                         const fault::FaultInjector& injector) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    struct rlimit no_core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);  // an expected abort, no dump
    try {
      tune_once(s, &injector, /*search_threads=*/1, /*isolate_workers=*/0);
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  if (pid < 0) return false;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

CrashSweepResult run_crash_sweep(std::size_t workers) {
  CrashSweepResult result;
  std::size_t isolated_arms = 0, isolated_done = 0;
  std::size_t transient_arms = 0, transient_identical = 0;
  std::size_t unisolated_arms = 0, unisolated_done = 0;

  for (const char* benchmark : kBenchmarks) {
    const TuneSetup s = make_setup(benchmark);
    // The crash-free comparator: same guarded-rating wiring (an injector
    // whose faults never fire), in-process --search-threads N. Identity
    // against it proves both contracts at once — survived crashes leave
    // no trace, and isolated workers reproduce the threaded outcome.
    const fault::FaultInjector inert;
    const core::TuningOutcome baseline =
        tune_once(s, &inert, static_cast<unsigned>(workers), 0).outcome;

    {
      CrashArm arm;
      arm.benchmark = benchmark;
      arm.mode = "transient";
      arm.isolated = true;
      const fault::FaultInjector injector = transient_injector(s);
      const std::uint64_t before = respawned_counter();
      try {
        const TuneRun run = tune_once(s, &injector, 0,
                                      static_cast<unsigned>(workers));
        arm.completed = true;
        arm.identical = run.outcome == baseline;
        arm.quarantined = run.quarantined;
      } catch (const std::exception&) {
        arm.completed = false;
      }
      arm.respawns = respawned_counter() - before;
      ++isolated_arms;
      isolated_done += arm.completed;
      ++transient_arms;
      transient_identical += arm.identical;
      result.total_respawns += arm.respawns;
      result.arms.push_back(arm);
    }

    const fault::FaultInjector sticky = sticky_injector(s);
    {
      CrashArm arm;
      arm.benchmark = benchmark;
      arm.mode = "sticky";
      arm.isolated = true;
      const std::uint64_t before = respawned_counter();
      try {
        const TuneRun run = tune_once(s, &sticky, 0,
                                      static_cast<unsigned>(workers));
        arm.completed = true;
        arm.identical = run.outcome == baseline;
        arm.quarantined = run.quarantined;
      } catch (const std::exception&) {
        arm.completed = false;
      }
      arm.respawns = respawned_counter() - before;
      ++isolated_arms;
      isolated_done += arm.completed;
      result.total_respawns += arm.respawns;
      result.arms.push_back(arm);
    }

    {
      CrashArm arm;
      arm.benchmark = benchmark;
      arm.mode = "unisolated";
      arm.isolated = false;
      arm.completed = unisolated_survives(s, sticky);
      ++unisolated_arms;
      unisolated_done += arm.completed;
      result.arms.push_back(arm);
    }
  }

  const auto rate = [](std::size_t done, std::size_t total) {
    return total > 0 ? static_cast<double>(done) /
                           static_cast<double>(total)
                     : 0.0;
  };
  result.isolated_completion_rate = rate(isolated_done, isolated_arms);
  result.transient_identity_rate =
      rate(transient_identical, transient_arms);
  result.unisolated_completion_rate =
      rate(unisolated_done, unisolated_arms);
  return result;
}

void print_crash_sweep(const CrashSweepResult& result, std::ostream& os) {
  os << "Crash sweep: hard-crash faults under --isolate-workers vs "
        "in-process (RBR)\n";
  for (const CrashArm& arm : result.arms) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-7s %-10s %-11s %-9s %-9s %llu respawns, %llu "
                  "quarantined\n",
                  arm.benchmark.c_str(), arm.mode.c_str(),
                  arm.isolated ? "isolated" : "in-process",
                  arm.completed ? "completed" : "DIED",
                  arm.identical ? "identical" : "-",
                  static_cast<unsigned long long>(arm.respawns),
                  static_cast<unsigned long long>(arm.quarantined));
    os << line;
  }
  char summary[200];
  std::snprintf(summary, sizeof summary,
                "  isolated completion %.0f%%  transient identity %.0f%%  "
                "unisolated completion %.0f%%  (%llu worker respawns)\n",
                100.0 * result.isolated_completion_rate,
                100.0 * result.transient_identity_rate,
                100.0 * result.unisolated_completion_rate,
                static_cast<unsigned long long>(result.total_respawns));
  os << summary;
}

void write_crash_sweep_fragment(std::ostream& os,
                                const CrashSweepResult& result) {
  os << "{\"arms\":[";
  bool first = true;
  for (const CrashArm& arm : result.arms) {
    if (!first) os << ",";
    first = false;
    os << "{\"benchmark\":\"" << obs::json_escape(arm.benchmark)
       << "\",\"mode\":\"" << obs::json_escape(arm.mode)
       << "\",\"isolated\":" << (arm.isolated ? "true" : "false")
       << ",\"completed\":" << (arm.completed ? "true" : "false")
       << ",\"identical\":" << (arm.identical ? "true" : "false")
       << ",\"respawns\":" << arm.respawns
       << ",\"quarantined\":" << arm.quarantined << "}";
  }
  os << "],\"summary\":{\"isolated_completion_rate\":"
     << result.isolated_completion_rate
     << ",\"transient_identity_rate\":" << result.transient_identity_rate
     << ",\"unisolated_completion_rate\":"
     << result.unisolated_completion_rate
     << ",\"total_respawns\":" << result.total_respawns << "}}";
}

bool write_crash_sweep_json(const std::string& path,
                            const CrashSweepResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"bench\":\"crash_sweep\",\"schema\":1,\"crash_sweep\":";
  write_crash_sweep_fragment(os, result);
  os << "}\n";
  return static_cast<bool>(os);
}

}  // namespace peak::bench
