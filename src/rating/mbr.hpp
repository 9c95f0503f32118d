#pragma once

/// \file mbr.hpp
/// Model-based rating (paper Section 2.3). The execution time of a tuning
/// section is modelled as T_TS = Σ T_i · C_i over the components derived
/// by the component analysis (the last component is the constant one,
/// C_n = 1). During tuning the rater collects the invocation-time vector
/// Y and the component-count matrix C, then solves the linear regression
/// Y = T·C for the component-time vector T of the version under test.
///
/// EVAL is either the dominant component's T_i (when the profile shows one
/// component carrying ≥ `dominant_share` of the time) or the estimate
/// T_avg = Σ T_i · C_avg_i (Eq. 4). VAR is the ratio of the residual sum
/// of squares to the total sum of squares of the TS execution times.

#include <cstddef>
#include <optional>
#include <vector>

#include "rating/rating.hpp"
#include "stats/regression.hpp"

namespace peak::rating {

struct MbrPolicy {
  std::size_t min_samples_per_component = 8;  ///< regression needs slack
  std::size_t max_samples = 640;
  double var_threshold = 0.02;  ///< VAR = SSres/SStot reporting bound
  /// Convergence: relative standard error of EVAL (the fitted functional
  /// of T) must drop below this. Unlike VAR, this always shrinks with the
  /// window, so sections whose count variation is small (e.g. a single
  /// context, where MBR degenerates to CBR/AVG) still converge.
  double cv_threshold = 0.005;
  /// A component is "dominant" when the profile attributes at least this
  /// share of execution time to it.
  double dominant_share = 0.90;

  friend bool operator==(const MbrPolicy&, const MbrPolicy&) = default;
};

/// Profile-derived constants for one tuning section (from the training
/// run): average component counts and, when one exists, the dominant
/// component's index.
struct MbrProfile {
  std::vector<double> c_avg;  ///< average counts, constant column included
  std::optional<std::size_t> dominant_component;
};

class ModelBasedRater {
public:
  ModelBasedRater(std::size_t num_components, MbrProfile profile,
                  MbrPolicy policy = {});

  /// Record one invocation: its component-count row (length
  /// num_components, constant column last = 1) and measured time.
  void add(const std::vector<double>& counts, double time);

  /// Fits the model and rates it; cached until the next add(), so the
  /// driver's converged()/rating()/converged() sequence fits once.
  [[nodiscard]] Rating rating() const;

  /// The fitted component-time vector T (empty before enough samples).
  [[nodiscard]] std::vector<double> component_times() const;

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] bool converged() const { return rating().converged; }
  [[nodiscard]] bool exhausted() const {
    return times_.size() >= policy_.max_samples;
  }
  void reset();

private:
  [[nodiscard]] stats::RegressionResult fit() const;
  [[nodiscard]] Rating compute_rating() const;

  std::size_t num_components_;
  MbrProfile profile_;
  MbrPolicy policy_;
  /// The count rows so far, one per invocation (row-major, grown in place).
  stats::Matrix design_;
  /// design_.gram(), kept current one row at a time (bit-equal).
  stats::Matrix gram_;
  std::vector<double> times_;
  mutable std::optional<Rating> cached_;
};

}  // namespace peak::rating
