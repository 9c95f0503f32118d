#include "search/combined_elimination.hpp"

#include <algorithm>
#include <cmath>

#include "obs/attribution.hpp"
#include "stats/regression.hpp"
#include "support/check.hpp"

namespace peak::search {

SearchResult CombinedElimination::run(const OptimizationSpace& space,
                                      ConfigEvaluator& evaluator,
                                      const FlagConfig& start) {
  // Same search_overhead accounting as IterativeElimination::run.
  obs::SearchOverheadScope overhead;
  SearchResult result;
  FlagConfig base = start;

  for (std::size_t round = 0; round < space.size(); ++round) {
    // Probe every still-enabled option against the current base, as one
    // batch (the probes are independent).
    std::vector<std::pair<double, std::size_t>> harmful;  // (R, flag)
    std::vector<std::size_t> flags;
    for (std::size_t f = 0; f < space.size(); ++f)
      if (base.enabled(f)) flags.push_back(f);
    for (const auto& [f, r] :
         probe_flags(evaluator, result, space, base, round, flags))
      if (r > threshold_) harmful.emplace_back(r, f);
    if (harmful.empty()) {
      SearchEvent ev;
      ev.kind = SearchEvent::Kind::kCeExhausted;
      ev.round = round;
      record_event(result.events, std::move(ev));
      break;
    }
    std::sort(harmful.rbegin(), harmful.rend());

    // Remove the worst unconditionally ...
    base.set(harmful.front().second, false);
    {
      SearchEvent ev;
      ev.kind = SearchEvent::Kind::kCeRemove;
      ev.round = round;
      ev.flag = space.flag(harmful.front().second).name;
      ev.ratio = harmful.front().first;
      record_event(result.events, std::move(ev));
    }

    // ... then re-validate the rest, in order: every remaining harmful
    // flag is rated against the post-removal base in one batch (they are
    // independent given that base).
    std::vector<std::size_t> rest;
    rest.reserve(harmful.size() - 1);
    for (std::size_t i = 1; i < harmful.size(); ++i)
      rest.push_back(harmful[i].second);
    for (const auto& [f, r] :
         probe_flags(evaluator, result, space, base, round, rest)) {
      if (r > threshold_) {
        base.set(f, false);
        SearchEvent ev;
        ev.kind = SearchEvent::Kind::kCeRevalidate;
        ev.round = round;
        ev.flag = space.flag(f).name;
        ev.ratio = r;
        record_event(result.events, std::move(ev));
      }
    }
  }

  result.best = base;
  result.improvement_over_start =
      rate_config(evaluator, start, base, "validate");
  ++result.configs_evaluated;
  return result;
}

SearchResult FactorialScreening::run(const OptimizationSpace& space,
                                     ConfigEvaluator& evaluator,
                                     const FlagConfig& start) {
  SearchResult result;
  const std::size_t n = space.size();
  const std::size_t runs = std::max<std::size_t>(options_.runs, n + 8);
  support::Rng rng(options_.seed);

  // Balanced two-level design: each run toggles every flag with p = 1/2.
  // The response is log(R vs start): additive per-flag effects multiply
  // execution times, so effects are linear in log space.
  stats::Matrix design(runs, n + 1);
  std::vector<double> response(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    FlagConfig cfg(space);
    for (std::size_t f = 0; f < n; ++f) {
      const bool on = rng.bernoulli(0.5);
      cfg.set(f, on);
      design(r, f) = on ? 1.0 : -1.0;
    }
    design(r, n) = 1.0;  // intercept
    const double rel = rate_config(evaluator, start, cfg, "screening");
    ++result.configs_evaluated;
    response[r] = std::log(std::max(rel, 1e-9));
  }

  const stats::RegressionResult fit =
      stats::least_squares(design, response);

  FlagConfig best = start;
  if (fit.ok) {
    for (std::size_t f = 0; f < n; ++f) {
      // Positive coefficient: enabling the flag increases log-improvement
      // over the all-on start, i.e. the flag is *harmful* when on... note
      // the response measures configs vs start, so a flag whose presence
      // correlates with slower configs has a negative coefficient.
      if (fit.coefficients[f] < -options_.harm_threshold / 2.0) {
        best.set(f, false);
        SearchEvent ev;
        ev.kind = SearchEvent::Kind::kMainEffect;
        ev.flag = space.flag(f).name;
        ev.ratio = fit.coefficients[f];
        record_event(result.events, std::move(ev));
      }
    }
  } else {
    SearchEvent ev;
    ev.kind = SearchEvent::Kind::kDegenerate;
    record_event(result.events, std::move(ev));
  }

  result.best = best;
  result.improvement_over_start =
      rate_config(evaluator, start, best, "validate");
  ++result.configs_evaluated;
  return result;
}

}  // namespace peak::search
