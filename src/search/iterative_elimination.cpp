#include "search/iterative_elimination.hpp"

#include "obs/attribution.hpp"

namespace peak::search {

SearchResult IterativeElimination::run(const OptimizationSpace& space,
                                       ConfigEvaluator& evaluator,
                                       const FlagConfig& start) {
  // Wall the algorithm spends choosing candidates (elapsed minus rating
  // wall) lands on the caller's ledger path as `search_overhead`.
  obs::SearchOverheadScope overhead;
  SearchResult result;
  FlagConfig base = start;
  double cumulative = 1.0;

  for (std::size_t round = 0; round < options_.max_rounds; ++round) {
    double best_gain = options_.improvement_threshold;
    std::size_t best_flag = space.size();

    // The probes of one round are mutually independent: submit them as
    // one batch so the evaluator can fan them out / serve them cached.
    std::vector<std::size_t> flags;
    for (std::size_t f = 0; f < space.size(); ++f)
      if (base.enabled(f)) flags.push_back(f);
    for (const auto& [f, r] :
         probe_flags(evaluator, result, space, base, round, flags)) {
      if (r > best_gain) {
        best_gain = r;
        best_flag = f;
      }
    }

    if (best_flag == space.size()) {
      SearchEvent stop;
      stop.kind = SearchEvent::Kind::kStop;
      stop.round = round;
      record_event(result.events, std::move(stop));
      break;
    }

    base.set(best_flag, false);
    cumulative *= best_gain;
    SearchEvent removed;
    removed.kind = SearchEvent::Kind::kRemove;
    removed.round = round;
    removed.flag = space.flag(best_flag).name;
    removed.ratio = best_gain;
    record_event(result.events, std::move(removed));
  }

  result.best = base;
  result.improvement_over_start = cumulative;
  return result;
}

SearchResult BatchElimination::run(const OptimizationSpace& space,
                                   ConfigEvaluator& evaluator,
                                   const FlagConfig& start) {
  SearchResult result;
  FlagConfig base = start;

  std::vector<std::size_t> harmful;
  for (std::size_t f = 0; f < space.size(); ++f) {
    if (!base.enabled(f)) continue;
    const std::optional<double> r = probe_candidate(
        evaluator, result, base, base.with(f, false), space.flag(f).name,
        /*round=*/0);
    if (r && *r > threshold_) {
      harmful.push_back(f);
      SearchEvent ev;
      ev.kind = SearchEvent::Kind::kHarmful;
      ev.flag = space.flag(f).name;
      ev.ratio = *r;
      record_event(result.events, std::move(ev));
    }
  }

  for (std::size_t f : harmful) base.set(f, false);

  // One validation measurement of the final configuration.
  if (!harmful.empty()) {
    result.improvement_over_start =
        rate_config(evaluator, start, base, "validate");
    ++result.configs_evaluated;
  }
  result.best = base;
  return result;
}

}  // namespace peak::search
