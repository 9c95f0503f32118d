/// \file layers.cpp
/// Per-layer side of the benchmark: the reducer that turns the in-memory
/// spans of a traced phase into self times (with a conservation check),
/// the isolated probes of the rating / sim / VM layers, and the VM oracle
/// check against the tree-walking interpreter.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "analysis/instrumentation.hpp"
#include "ir/bytecode.hpp"
#include "ir/interpreter.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "rating/mbr.hpp"
#include "rating/window.hpp"
#include "search/opt_config.hpp"
#include "sim/exec_backend.hpp"

namespace perfbench {
namespace {

/// Length of the union of [lo, hi) intervals clipped to [from, to).
double covered(std::vector<std::pair<double, double>> spans, double from,
               double to) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cursor = from;
  for (auto [lo, hi] : spans) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, to);
    if (hi > lo) {
      total += hi - lo;
      cursor = hi;
    }
  }
  return total;
}

/// The first entry of every (inputs, machine) pair: entries that differ
/// only in the method or the dataset tuned on share their invocations.
std::vector<const Entry*> distinct_inputs(const std::vector<Entry>& entries) {
  std::vector<const Entry*> out;
  for (const Entry& e : entries)
    if (std::none_of(out.begin(), out.end(), [&](const Entry* o) {
          return o->inputs == e.inputs && o->machine == e.machine;
        }))
      out.push_back(&e);
  return out;
}

/// The variant-0 inputs: one per (benchmark, machine). The per-layer
/// probes need each section once per machine, not once per input variant.
std::vector<const Entry*> probe_targets(const std::vector<Entry>& entries) {
  std::vector<const Entry*> out;
  for (const Entry* e : distinct_inputs(entries))
    if (e->inputs->variant == 0) out.push_back(e);
  return out;
}

sim::TsTraits traits_for(const Entry& e) {
  sim::TsTraits traits = e.inputs->workload->traits();
  traits.workload_scale = e.inputs->train.workload_scale;
  return traits;
}

/// Measured O3 invocation results over (up to) `n` invocations of the
/// training trace, cycling through it.
std::vector<sim::InvocationResult> sample_results(
    const Entry& e, const ir::Function& fn,
    const sim::FlagEffectModel& effects, std::size_t n) {
  sim::SimExecutionBackend backend(fn, traits_for(e), *e.machine, effects,
                                   e.driver_seed);
  const search::FlagConfig o3 = search::o3_config(effects.space());
  const auto& invs = e.inputs->train.invocations;
  std::vector<sim::InvocationResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(backend.invoke(o3, invs[i % invs.size()]));
  return out;
}

/// Bitwise equality (so NaNs and signed zeros must match too).
bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](double p, double q) {
                      return std::bit_cast<std::uint64_t>(p) ==
                             std::bit_cast<std::uint64_t>(q);
                    });
}

constexpr std::size_t kProbeSamples = 2048;
constexpr int kProbeRepeats = 3;

}  // namespace

SpanReduction reduce_spans(const std::vector<obs::TraceEvent>& events) {
  struct Node {
    const obs::TraceEvent* ev;
    std::vector<std::size_t> children;
    double self_us = 0.0;
  };
  std::vector<Node> nodes;
  for (const obs::TraceEvent& ev : events)
    if (ev.phase == obs::EventPhase::kComplete) nodes.push_back({&ev, {}});
  // Per thread, spans open in timestamp order with nesting depth recorded
  // at open time, so the parent of a span at depth d is the latest span
  // still open at depth d - 1.
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::TraceEvent& x = *nodes[a].ev;
    const obs::TraceEvent& y = *nodes[b].ev;
    return std::tie(x.tid, x.ts_us, x.depth) <
           std::tie(y.tid, y.ts_us, y.depth);
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (std::size_t idx : order) {
    const obs::TraceEvent& ev = *nodes[idx].ev;
    if (ev.tid != tid) {
      stack.clear();
      tid = ev.tid;
    }
    while (!stack.empty() && nodes[stack.back()].ev->depth >= ev.depth)
      stack.pop_back();
    if (!stack.empty() && nodes[stack.back()].ev->depth + 1 == ev.depth) {
      nodes[stack.back()].children.push_back(idx);
    }
    stack.push_back(idx);
  }

  SpanReduction out;
  double batch_candidates = 0.0;
  for (Node& n : nodes) {
    const double from = static_cast<double>(n.ev->ts_us);
    const double to = from + static_cast<double>(n.ev->dur_us);
    std::vector<std::pair<double, double>> kids;
    for (std::size_t c : n.children) {
      const double lo = static_cast<double>(nodes[c].ev->ts_us);
      kids.emplace_back(lo, lo + static_cast<double>(nodes[c].ev->dur_us));
    }
    n.self_us = (to - from) - covered(std::move(kids), from, to);
    out.self_us[n.ev->name] += n.self_us;
    out.wall_us[n.ev->name] += static_cast<double>(n.ev->dur_us);
    ++out.count[n.ev->name];
    if (n.ev->name == "probe_batch")
      for (const obs::Attr& a : n.ev->args)
        if (a.key == "candidates") batch_candidates += std::stod(a.value);
  }
  if (out.count["probe_batch"] > 0)
    out.probe_batch_size_mean = batch_candidates / out.count["probe_batch"];

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string& name = nodes[i].ev->name;
    if (name != "tune" && name != "bench.tune") continue;
    double self_sum = 0.0;
    std::size_t spans = 0;
    std::vector<std::size_t> todo{i};
    while (!todo.empty()) {
      const std::size_t n = todo.back();
      todo.pop_back();
      self_sum += nodes[n].self_us;
      ++spans;
      for (std::size_t c : nodes[n].children) todo.push_back(c);
    }
    const double wall = static_cast<double>(nodes[i].ev->dur_us);
    const double err = std::abs(self_sum - wall);
    ++out.conservation_checked;
    if (err > kConservationTolerance * wall + static_cast<double>(spans))
      ++out.conservation_violations;
    if (wall > 0.0)
      out.conservation_max_err_frac =
          std::max(out.conservation_max_err_frac, err / wall);
  }
  return out;
}

int reducer_self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "reducer self-test failed: %s\n", what);
      ++failures;
    }
  };
  auto span = [](std::string name, std::uint64_t ts, std::uint64_t dur,
                 std::uint32_t depth, std::uint32_t tid = 1) {
    obs::TraceEvent ev;
    ev.name = std::move(name);
    ev.phase = obs::EventPhase::kComplete;
    ev.ts_us = ts;
    ev.dur_us = dur;
    ev.depth = depth;
    ev.tid = tid;
    return ev;
  };
  // tune [0,100) > probe_batch [10,40) > rate_batch [12,38); probe_batch
  // [50,90) with candidates=4; a span on another thread stays separate.
  std::vector<obs::TraceEvent> good{
      span("rate_batch", 12, 26, 2), span("probe_batch", 10, 30, 1),
      span("probe_batch", 50, 40, 1), span("tune", 0, 100, 0),
      span("tune", 5, 20, 0, 2)};
  good[1].args.push_back(obs::attr("candidates", 2));
  good[2].args.push_back(obs::attr("candidates", 4));
  const SpanReduction r = reduce_spans(good);
  expect(r.self_us.at("tune") == 30.0 + 20.0, "tune self = 100-30-40 + 20");
  expect(r.self_us.at("probe_batch") == 4.0 + 40.0, "probe_batch self");
  expect(r.self_us.at("rate_batch") == 26.0, "rate_batch self");
  expect(r.count.at("probe_batch") == 2, "probe_batch count");
  expect(r.probe_batch_size_mean == 3.0, "batch size mean");
  expect(r.conservation_checked == 2 && r.conservation_violations == 0,
         "nested spans conserve");
  // A child escaping its parent by far more than the tolerance breaks
  // conservation.
  std::vector<obs::TraceEvent> bad{span("probe_batch", 50, 200, 1),
                                   span("tune", 0, 100, 0)};
  const SpanReduction b = reduce_spans(bad);
  expect(b.conservation_violations == 1, "escaping child is flagged");
  // Overlapping siblings count the shared interval once in the parent's
  // self time but twice in the children's: also a violation.
  std::vector<obs::TraceEvent> overlap{span("probe", 10, 50, 1),
                                       span("probe", 20, 50, 1),
                                       span("tune", 0, 100, 0)};
  expect(reduce_spans(overlap).conservation_violations == 1,
         "overlapping siblings are flagged");
  return failures;
}

LayerProbes probe_layers(const std::vector<Entry>& entries,
                         const sim::FlagEffectModel& effects) {
  LayerProbes out;
  const std::vector<const Entry*> targets = probe_targets(entries);
  const search::FlagConfig o3 = search::o3_config(effects.space());
  obs::Counter& misses = obs::counter("sim.base_cache.miss");

  std::vector<double> window_ns, mbr_us, warm_ns, base_us, compile_us;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    double window_s = 0.0, mbr_s = 0.0, warm_s = 0.0, base_s = 0.0;
    double compile_s = 0.0;
    std::size_t window_n = 0, mbr_n = 0, warm_n = 0, base_n = 0;
    for (const Entry* e : targets) {
      const ir::Function& fn = e->inputs->workload->function();

      // Rating statistics: the driver's add-then-check loop over this
      // section's own measured times, restarting at each verdict.
      const auto samples = sample_results(*e, fn, effects, kProbeSamples);
      {
        rating::WindowedRater rater;
        const auto t0 = Clock::now();
        for (const auto& s : samples) {
          rater.add(s.time);
          if (rater.converged() || rater.exhausted()) rater.reset();
        }
        window_s += seconds_since(t0);
        window_n += samples.size();
      }
      if (e->profile->components.mbr_applicable) {
        const ir::Function inst =
            analysis::instrument_components(fn, e->profile->components);
        const auto rows = sample_results(*e, inst, effects, kProbeSamples);
        const std::size_t k = e->profile->components.num_components();
        rating::ModelBasedRater rater(k, e->profile->mbr_profile);
        std::vector<double> counts;
        const auto t0 = Clock::now();
        for (const auto& s : rows) {
          counts.assign(s.counters->begin(), s.counters->end());
          counts.push_back(1.0);
          rater.add(counts, s.time);
          if (rater.converged() || rater.exhausted()) rater.reset();
        }
        mbr_s += seconds_since(t0);
        mbr_n += rows.size();
      }

      // Sim + VM: a cold pass fills the base-run cache (one VM run per
      // miss), a warm pass over the same invocations only hits it.
      {
        sim::SimExecutionBackend backend(fn, traits_for(*e), *e->machine,
                                         effects, e->driver_seed);
        const auto& invs = e->inputs->train.invocations;
        const std::uint64_t miss0 = misses.value();
        auto t0 = Clock::now();
        for (const auto& inv : invs) (void)backend.invoke(o3, inv);
        const double cold = seconds_since(t0);
        const std::uint64_t cold_misses = misses.value() - miss0;
        t0 = Clock::now();
        for (const auto& inv : invs) (void)backend.invoke(o3, inv);
        const double warm = seconds_since(t0);
        warm_s += warm;
        warm_n += invs.size();
        base_s += std::max(0.0, cold - warm);
        base_n += cold_misses;
      }

      const sim::MachineCostModel cost(*e->machine);
      const auto t0 = Clock::now();
      const ir::BytecodeProgram program =
          ir::BytecodeProgram::compile(fn, cost);
      compile_s += seconds_since(t0);
      (void)program;
    }
    if (window_n) window_ns.push_back(window_s * 1e9 / window_n);
    if (mbr_n) mbr_us.push_back(mbr_s * 1e6 / mbr_n);
    if (warm_n) warm_ns.push_back(warm_s * 1e9 / warm_n);
    if (base_n) base_us.push_back(base_s * 1e6 / base_n);
    if (!targets.empty())
      compile_us.push_back(compile_s * 1e6 / targets.size());
  }
  out.window_add_ns = median(window_ns);
  out.mbr_add_us = median(mbr_us);
  out.sim_invoke_warm_ns = median(warm_ns);
  out.vm_base_run_us = median(base_us);
  out.vm_compile_us = median(compile_us);
  return out;
}

std::map<std::string, std::size_t> vm_oracle_mismatches(
    const std::vector<Entry>& entries) {
  // Invocations checked per trace; each variant starts at another offset.
  constexpr std::size_t kSample = 4;
  std::map<std::string, std::size_t> out;
  for (const Entry* entry : distinct_inputs(entries)) {
    const Entry& e = *entry;
    const ir::Function& fn = e.inputs->workload->function();
    const sim::MachineCostModel cost(*e.machine);
    const ir::BytecodeProgram program =
        ir::BytecodeProgram::compile(fn, cost);
    ir::BytecodeVm vm(program);
    const ir::Interpreter interp(fn);
    std::size_t& bad = out[e.inputs->workload->benchmark()];
    for (const workloads::Trace* trace : {&e.inputs->train, &e.inputs->ref}) {
      const auto& invs = trace->invocations;
      const std::size_t stride =
          std::max<std::size_t>(1, invs.size() / kSample);
      for (std::size_t i = e.inputs->variant % stride; i < invs.size();
           i += stride) {
        ir::Memory a = ir::Memory::for_function(fn);
        ir::Memory b = ir::Memory::for_function(fn);
        invs[i].bind(a);
        invs[i].bind(b);
        const ir::RunResult ra = vm.run(a);
        const ir::RunResult rb = interp.run(b, cost);
        const bool same =
            same_bits({ra.cycles}, {rb.cycles}) &&
            ra.block_entries == rb.block_entries &&
            ra.counters == rb.counters && ra.steps == rb.steps &&
            same_bits(a.scalars, b.scalars) &&
            std::equal(a.arrays.begin(), a.arrays.end(), b.arrays.begin(),
                       b.arrays.end(), same_bits);
        if (!same) ++bad;
      }
    }
  }
  return out;
}

}  // namespace perfbench
