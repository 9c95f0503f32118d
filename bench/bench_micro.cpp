/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the rating machinery itself: the
/// costs PEAK adds around each tuning-section invocation must be small
/// relative to the sections being tuned. Covers the regression solver
/// (MBR), snapshot save/restore (RBR), the windowed rater, the IR
/// interpreter, and the set-associative cache model.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>

#include "engine_compare.hpp"
#include "ir/builder.hpp"
#include "ir/bytecode.hpp"
#include "ir/fuzz.hpp"
#include "ir/interpreter.hpp"
#include "ir/liveness.hpp"
#include "ir/passes.hpp"
#include "ir/range_analysis.hpp"
#include "rating/mbr.hpp"
#include "rating/window.hpp"
#include "runtime/snapshot.hpp"
#include "sim/cache_model.hpp"
#include "stats/regression.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace peak;

void BM_RegressionSolve(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  support::Rng rng(1);
  stats::Matrix design(rows, cols);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      design(r, c) = rng.uniform(1, 100);
      sum += design(r, c) * static_cast<double>(c + 1);
    }
    y[r] = sum * rng.lognormal(0.01);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::least_squares(design, y));
  }
}
BENCHMARK(BM_RegressionSolve)->Args({40, 2})->Args({160, 6})->Args({640, 8});

void BM_SnapshotSaveRestore(benchmark::State& state) {
  ir::FunctionBuilder b("snap");
  const auto arr =
      b.param_array("arr", static_cast<std::size_t>(state.range(0)), true);
  b.store(arr, b.c(0.0), b.c(1.0));
  const ir::Function fn = b.build();
  ir::Memory mem = ir::Memory::for_function(fn);
  runtime::MemorySnapshot snap(fn, mem, std::vector<peak::ir::VarId>{arr});
  for (auto _ : state) {
    snap.recapture(mem);
    snap.restore(mem);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * state.range(0) *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_SnapshotSaveRestore)->Arg(1024)->Arg(16384);

/// One add into a window that restarts at the 640-sample cap, as the
/// driver's windows do (none grows past max_samples).
void BM_WindowedRaterAdd(benchmark::State& state) {
  support::Rng rng(2);
  rating::WindowedRater rater;
  for (auto _ : state) {
    if (rater.exhausted()) rater.reset();
    rater.add(rng.normal(100, 1));
  }
}
BENCHMARK(BM_WindowedRaterAdd);

/// RBR-like ratios T_base/T_exp: lognormal jitter on both timings and an
/// occasional interrupt spike on either, noisy enough that many windows
/// run to the 640-sample cap, as on the heavy-rbr workload.
std::vector<double> rbr_ratio_stream(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<double> out(n);
  for (double& ratio : out) {
    double base = rng.lognormal(0.08);
    double exp = 0.97 * rng.lognormal(0.08);
    if (rng.bernoulli(0.03)) base *= rng.uniform(1.5, 4.0);
    if (rng.bernoulli(0.03)) exp *= rng.uniform(1.5, 4.0);
    ratio = base / exp;
  }
  return out;
}

/// The driver's rating loop: add one sample, ask converged(), until a
/// verdict or the sample cap. One iteration is one rating; items are
/// samples.
void BM_WindowedRaterVerdictLoop(benchmark::State& state) {
  const std::vector<double> stream = rbr_ratio_stream(1 << 16, 4);
  std::size_t next = 0;
  std::int64_t samples = 0;
  for (auto _ : state) {
    rating::WindowedRater rater;
    while (!rater.converged() && !rater.exhausted()) {
      rater.add(stream[next++ % stream.size()]);
      ++samples;
    }
    benchmark::DoNotOptimize(rater.rating());
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_WindowedRaterVerdictLoop);

/// The same loop for MBR on a two-count model plus the constant
/// component: one least-squares fit and standard error per sample.
void BM_MbrVerdictLoop(benchmark::State& state) {
  support::Rng rng(5);
  std::vector<std::vector<double>> rows(1 << 12);
  std::vector<double> times(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = {rng.uniform(20, 100), rng.uniform(5, 40), 1.0};
    times[i] = (7.0 * rows[i][0] + 30.0 * rows[i][1] + 500.0) *
               rng.lognormal(0.08);
  }
  rating::MbrProfile profile;
  profile.c_avg = {50.0, 20.0, 1.0};
  std::size_t next = 0;
  std::int64_t samples = 0;
  for (auto _ : state) {
    rating::ModelBasedRater rater(3, profile);
    while (!rater.converged() && !rater.exhausted()) {
      const std::size_t i = next++ % rows.size();
      rater.add(rows[i], times[i]);
      ++samples;
    }
    benchmark::DoNotOptimize(rater.rating());
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_MbrVerdictLoop);

void BM_WindowedRaterRating(benchmark::State& state) {
  // Times the exact rebuild behind rating() on a 160-sample window: each
  // timed call starts from an untimed copy of a rater whose cache was
  // never filled, so no call is answered from the cache.
  support::Rng rng(3);
  rating::WindowedRater filled;
  for (int i = 0; i < 160; ++i) filled.add(rng.normal(100, 1));
  rating::WindowedRater rater;
  for (auto _ : state) {
    state.PauseTiming();
    rater = filled;
    state.ResumeTiming();
    benchmark::DoNotOptimize(rater.rating());
  }
}
BENCHMARK(BM_WindowedRaterRating);

void BM_InterpreterSwimInvocation(benchmark::State& state) {
  const auto workload = workloads::make_workload("SWIM");
  const workloads::Trace trace =
      workload->trace(workloads::DataSet::kTrain, 1);
  const ir::Function& fn = workload->function();
  const ir::Interpreter interp(fn);
  ir::Memory mem = ir::Memory::for_function(fn);
  trace.invocations[0].bind(mem);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const ir::RunResult run = interp.run(mem);
    steps += run.steps;
    benchmark::DoNotOptimize(run.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_InterpreterSwimInvocation);

void BM_BytecodeVmSwimInvocation(benchmark::State& state) {
  // Same workload as BM_InterpreterSwimInvocation, executed by the
  // bytecode VM — the two items/sec numbers give the engine speedup on a
  // real section.
  const auto workload = workloads::make_workload("SWIM");
  const workloads::Trace trace =
      workload->trace(workloads::DataSet::kTrain, 1);
  const ir::Function& fn = workload->function();
  const ir::BytecodeProgram program = ir::BytecodeProgram::compile(fn);
  ir::BytecodeVm vm(program);
  ir::Memory mem = ir::Memory::for_function(fn);
  trace.invocations[0].bind(mem);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const ir::RunResult run = vm.run(mem);
    steps += run.steps;
    benchmark::DoNotOptimize(run.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_BytecodeVmSwimInvocation);

void BM_BytecodeCompile(benchmark::State& state) {
  const ir::Function fn =
      ir::fuzz_function(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::BytecodeProgram::compile(fn));
  }
}
BENCHMARK(BM_BytecodeCompile)->Arg(3)->Arg(17);

void BM_CacheAccess(benchmark::State& state) {
  sim::SetAssocCache cache(16 * 1024, 32, 4);
  support::Rng rng(4);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr = (addr + 64) % (64 * 1024);
    benchmark::DoNotOptimize(cache.access(addr));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_RangeAnalysis(benchmark::State& state) {
  const auto workload = workloads::make_workload("MGRID");
  const ir::Function& fn = workload->function();
  const std::map<ir::VarId, ir::Interval> bounds = {
      {*fn.find_var("n"), ir::Interval{6, 14}},
      {*fn.find_var("sweep"), ir::Interval{0, 59}}};
  for (auto _ : state) {
    ir::RangeAnalysis ranges(fn, bounds);
    benchmark::DoNotOptimize(ranges.written_ranges().size());
  }
}
BENCHMARK(BM_RangeAnalysis);

void BM_PassPipeline(benchmark::State& state) {
  const ir::Function original =
      ir::fuzz_function(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    ir::Function fn = original;
    benchmark::DoNotOptimize(
        ir::PassManager::standard_pipeline().run(fn, 4));
  }
}
BENCHMARK(BM_PassPipeline)->Arg(3)->Arg(17);

void BM_PointsToAndLiveness(benchmark::State& state) {
  const auto workload = workloads::make_workload("EQUAKE");
  const ir::Function& fn = workload->function();
  for (auto _ : state) {
    ir::PointsTo pt(fn);
    ir::Liveness live(fn, pt);
    benchmark::DoNotOptimize(live.input_set().size());
  }
}
BENCHMARK(BM_PointsToAndLiveness);

}  // namespace

/// `--engine-compare-json=PATH` bypasses google-benchmark and runs the
/// interpreter-vs-VM comparison kernels, writing a standalone
/// ENGINE_compare.json for tools/check_bench_json.py --compare (the ctest
/// regression gate). Any other arguments go to google-benchmark as usual.
int main(int argc, char** argv) {
  constexpr const char* kFlag = "--engine-compare-json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      const std::string path = argv[i] + std::strlen(kFlag);
      const peak::bench::EngineCompareResult result =
          peak::bench::run_engine_compare();
      peak::bench::print_engine_compare(result, std::cout);
      if (!peak::bench::write_engine_compare_json(path, result)) {
        std::cerr << "failed to write " << path << "\n";
        return 1;
      }
      std::cout << "Wrote " << path << "\n";
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
