#pragma once

/// \file combined_elimination.hpp
/// Two further search strategies from the paper's orbit:
///
/// * CombinedElimination — the authors' successor to Iterative
///   Elimination: one full probing round identifies all individually
///   harmful options; the worst is removed unconditionally, and the rest
///   are re-validated against the *new* baseline within the same round
///   (as one batch, each against the post-removal base), removing those
///   that still help. Near-BE cost with near-IE quality.
///
/// * FactorialScreening — in the spirit of Chow & Wu's fractional
///   factorial design: run a balanced random two-level design over the
///   flag space, fit per-flag main effects by least squares, and disable
///   every flag whose main effect is harmful. O(R) evaluations for R
///   design runs, independent of n², but blind to interactions beyond
///   what the averaging washes out.

#include "search/search_algorithm.hpp"
#include "support/rng.hpp"

namespace peak::search {

class CombinedElimination final : public SearchAlgorithm {
public:
  explicit CombinedElimination(double improvement_threshold = 1.01)
      : threshold_(improvement_threshold) {}

  SearchResult run(const OptimizationSpace& space,
                   ConfigEvaluator& evaluator,
                   const FlagConfig& start) override;

  [[nodiscard]] std::string name() const override {
    return "combined-elimination";
  }

private:
  double threshold_;
};

struct FactorialScreeningOptions {
  std::size_t runs = 96;          ///< design size (R >= ~2n for stability)
  std::uint64_t seed = 0xfac7;
  /// A flag is disabled when its fitted main effect slows the section by
  /// more than this relative amount.
  double harm_threshold = 0.002;
};

class FactorialScreening final : public SearchAlgorithm {
public:
  explicit FactorialScreening(FactorialScreeningOptions options = {})
      : options_(options) {}

  SearchResult run(const OptimizationSpace& space,
                   ConfigEvaluator& evaluator,
                   const FlagConfig& start) override;

  [[nodiscard]] std::string name() const override {
    return "factorial-screening";
  }

private:
  FactorialScreeningOptions options_;
};

}  // namespace peak::search
