#include <gtest/gtest.h>

#include "core/peak.hpp"
#include "core/profile.hpp"
#include "core/tuning_driver.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

class PipelineTest : public ::testing::Test {
protected:
  PipelineTest() : machine_(sim::sparc2()), peak_(machine_) {}

  sim::MachineModel machine_;
  Peak peak_;
};

TEST_F(PipelineTest, ProfileCapturesSwimFacts) {
  auto w = workloads::make_workload("SWIM");
  const workloads::Trace train = w->trace(workloads::DataSet::kTrain, 42);
  const ProfileData profile = profile_workload(*w, train, machine_);

  EXPECT_TRUE(profile.context_analysis.cbr_applicable);
  EXPECT_TRUE(profile.array_contents_constant);
  EXPECT_EQ(profile.num_contexts, 1u);
  EXPECT_EQ(profile.invocations_per_run, train.invocations.size());
  EXPECT_GT(profile.avg_invocation_cycles, 0.0);
  EXPECT_TRUE(profile.rbr_screen.eligible);
  EXPECT_EQ(profile.decision.initial(), rating::Method::kCBR);
  // Input sets: the smoothing kernel reads and writes every field, so the
  // modified input is non-trivial but bounded by the full input.
  EXPECT_GT(profile.input_sets.modified_input_bytes(w->function()), 0u);
  EXPECT_LE(profile.input_sets.modified_input_bytes(w->function()),
            profile.input_sets.input_bytes(w->function()));
}

TEST_F(PipelineTest, RuntimeConstantCheckSeparatesEquakeFromBzip2) {
  for (const auto& [name, constant] :
       std::vector<std::pair<std::string, bool>>{{"EQUAKE", true},
                                                 {"BZIP2", false}}) {
    auto w = workloads::make_workload(name);
    const workloads::Trace train =
        w->trace(workloads::DataSet::kTrain, 42);
    const ProfileData profile = profile_workload(*w, train, machine_);
    EXPECT_TRUE(profile.context_analysis.needs_runtime_constant_check())
        << name;
    EXPECT_EQ(profile.array_contents_constant, constant) << name;
  }
}

TEST_F(PipelineTest, TuningImprovesOverO3OnTrainAndRef) {
  auto w = workloads::make_workload("SWIM");
  const MethodRun run = peak_.tune_with_consultant(*w);
  EXPECT_EQ(run.method, rating::Method::kCBR);
  EXPECT_GT(run.ref_improvement_pct, 1.0);   // found real wins
  EXPECT_LT(run.ref_improvement_pct, 50.0);  // plausible magnitude
  EXPECT_GT(run.cost.invocations, 0u);
  // The tuned config must have disabled something (O3 is not optimal).
  EXPECT_LT(run.best_config.count_enabled(), 38u);
}

TEST_F(PipelineTest, TunedConfigDropsTheStoryFlag) {
  // On SWIM the curated story plants -fschedule-insns as harmful: the
  // search must find and remove it.
  auto w = workloads::make_workload("SWIM");
  const MethodRun run = peak_.tune_with_consultant(*w);
  const auto& space = peak_.effects().space();
  EXPECT_FALSE(run.best_config.enabled(*space.index_of("-fschedule-insns")));
}

TEST_F(PipelineTest, CheaperMethodsBeatWhlOnTuningTime) {
  auto w = workloads::make_workload("SWIM");
  BenchmarkResult result = peak_.run_benchmark(*w);
  const double cbr_norm = result.normalized_tuning_time(
      rating::Method::kCBR, workloads::DataSet::kTrain);
  ASSERT_GT(cbr_norm, 0.0);
  // The paper reports tuning-time reductions of ~10x and more.
  EXPECT_LT(cbr_norm, 0.2);
  // All methods reach similar quality (within a few points of WHL).
  const MethodRun* cbr =
      result.find(rating::Method::kCBR, workloads::DataSet::kTrain);
  const MethodRun* whl =
      result.find(rating::Method::kWHL, workloads::DataSet::kTrain);
  ASSERT_NE(cbr, nullptr);
  ASSERT_NE(whl, nullptr);
  EXPECT_NEAR(cbr->ref_improvement_pct, whl->ref_improvement_pct, 4.0);
}

TEST_F(PipelineTest, ExtraMethodsCanBeForced) {
  auto w = workloads::make_workload("MGRID");
  BenchmarkResult result =
      peak_.run_benchmark(*w, true, {rating::Method::kCBR});
  // MGRID's chain has no CBR (too many contexts) but the forced run exists.
  EXPECT_FALSE(result.decision.applicable(rating::Method::kCBR));
  EXPECT_NE(result.find(rating::Method::kCBR, workloads::DataSet::kTrain),
            nullptr);
}

TEST_F(PipelineTest, AutoFallbackSwitchesMethodWhenNotConverging) {
  // Force CBR to be hopeless by shrinking its sample budget to nothing:
  // the driver must fall through the chain instead of returning garbage.
  auto w = workloads::make_workload("WUPWISE");
  const workloads::Trace train = w->trace(workloads::DataSet::kTrain, 42);
  const ProfileData profile = profile_workload(*w, train, machine_);
  ASSERT_EQ(profile.decision.initial(), rating::Method::kCBR);

  DriverOptions options;
  options.window.max_samples = 4;       // cannot even reach min_samples
  options.window.min_samples = 8;
  options.mbr.max_samples = 4;
  options.mbr.min_samples_per_component = 8;
  sim::FlagEffectModel effects(search::gcc33_o3_space());
  TuningDriver driver(*w, profile, train, machine_, effects, options);
  const TuningOutcome outcome = driver.tune_auto();
  // CBR and MBR both exhaust; RBR (pair windows also tiny but usable
  // ratios) is the terminal method.
  EXPECT_EQ(outcome.method, rating::Method::kRBR);
  EXPECT_FALSE(outcome.events.empty());
  EXPECT_FALSE(outcome.render_search_log().empty());
}

TEST_F(PipelineTest, ArtOnPentium4FindsTheStrictAliasingWin) {
  const sim::MachineModel p4 = sim::pentium4();
  Peak peak(p4);
  auto w = workloads::make_workload("ART");
  const MethodRun run = peak.tune_with_consultant(*w);
  EXPECT_EQ(run.method, rating::Method::kRBR);
  // The paper's headline: ~178% improvement from disabling strict aliasing.
  EXPECT_GT(run.ref_improvement_pct, 120.0);
  const auto& space = peak.effects().space();
  EXPECT_FALSE(
      run.best_config.enabled(*space.index_of("-fstrict-aliasing")));
}

TEST_F(PipelineTest, ArtOnSparcKeepsStrictAliasing) {
  auto w = workloads::make_workload("ART");
  const MethodRun run = peak_.tune_with_consultant(*w);
  const auto& space = peak_.effects().space();
  // On the register-rich SPARC II, strict aliasing helps and must survive.
  EXPECT_TRUE(
      run.best_config.enabled(*space.index_of("-fstrict-aliasing")));
}

TEST_F(PipelineTest, LibraryDefaultsRateLikeTheParallelCli) {
  // The library defaults (what the paper benches use) and a multi-thread
  // run (what `peak tune` does by default) share one rating semantics,
  // so they must pick the same winner on the same scenario.
  const sim::MachineModel p4 = sim::pentium4();
  auto w = workloads::make_workload("EQUAKE");
  const MethodRun defaults = Peak(p4).tune_with_consultant(*w);
  PeakOptions threaded;
  threaded.driver.search_threads = 4;
  const MethodRun parallel = Peak(p4, threaded).tune_with_consultant(*w);
  EXPECT_EQ(parallel.best_config.key(), defaults.best_config.key());
  EXPECT_EQ(parallel.ref_improvement_pct, defaults.ref_improvement_pct);
}

TEST_F(PipelineTest, TuningCostAccountingIsConsistent) {
  auto w = workloads::make_workload("SWIM");
  const workloads::Trace train = w->trace(workloads::DataSet::kTrain, 42);
  const ProfileData profile = profile_workload(*w, train, machine_);
  sim::FlagEffectModel effects(search::gcc33_o3_space());
  TuningDriver driver(*w, profile, train, machine_, effects, {});
  const TuningOutcome outcome = driver.tune(rating::Method::kCBR);
  EXPECT_GT(outcome.cost.simulated_time, 0.0);
  EXPECT_NEAR(outcome.cost.program_runs,
              static_cast<double>(outcome.cost.invocations) /
                  static_cast<double>(train.invocations.size()),
              1e-9);
}

}  // namespace
}  // namespace peak::core
