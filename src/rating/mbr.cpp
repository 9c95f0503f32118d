#include "rating/mbr.hpp"

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::rating {

ModelBasedRater::ModelBasedRater(std::size_t num_components,
                                 MbrProfile profile, MbrPolicy policy)
    : num_components_(num_components),
      profile_(std::move(profile)),
      policy_(policy),
      design_(0, num_components),
      gram_(num_components, num_components) {
  PEAK_CHECK(num_components_ >= 1, "model needs at least one component");
  PEAK_CHECK(profile_.c_avg.empty() ||
                 profile_.c_avg.size() == num_components_,
             "C_avg arity must match the component count");
  if (profile_.dominant_component)
    PEAK_CHECK(*profile_.dominant_component < num_components_,
               "dominant component out of range");
}

void ModelBasedRater::add(const std::vector<double>& counts, double time) {
  static obs::Counter& samples = obs::counter("mbr.samples");
  PEAK_CHECK(counts.size() == num_components_,
             "count row arity mismatch");
  samples.inc();
  design_.append_row(counts);
  stats::accumulate_gram(gram_, counts);
  times_.push_back(time);
  cached_.reset();
}

stats::RegressionResult ModelBasedRater::fit() const {
  static obs::Counter& fits = obs::counter("mbr.fits");
  fits.inc();
  return stats::least_squares_nonneg(design_, times_);
}

std::vector<double> ModelBasedRater::component_times() const {
  if (times_.size() < num_components_ + 1) return {};
  return fit().coefficients;
}

Rating ModelBasedRater::rating() const {
  if (!cached_) cached_ = compute_rating();
  return *cached_;
}

Rating ModelBasedRater::compute_rating() const {
  Rating r;
  r.samples = times_.size();
  const std::size_t needed =
      policy_.min_samples_per_component * num_components_;
  if (times_.size() < std::max<std::size_t>(needed, num_components_ + 1))
    return r;

  const stats::RegressionResult fit_result = fit();
  if (!fit_result.ok) return r;

  // EVAL is a linear functional cᵀT of the fitted component times.
  std::vector<double> weights(num_components_, 0.0);
  if (profile_.dominant_component) {
    weights[*profile_.dominant_component] = 1.0;
  } else if (!profile_.c_avg.empty()) {
    weights = profile_.c_avg;  // T_avg = Σ T_i · C_avg_i (Eq. 4)
  } else {
    // No profile at all: mean observed count row.
    for (std::size_t row = 0; row < design_.rows(); ++row)
      for (std::size_t i = 0; i < num_components_; ++i)
        weights[i] += design_(row, i) / static_cast<double>(design_.rows());
  }
  double eval = 0.0;
  for (std::size_t i = 0; i < num_components_; ++i)
    eval += fit_result.coefficients[i] * weights[i];
  r.eval = eval;
  r.var = fit_result.var_ratio();

  // Convergence by the standard error of EVAL.
  const double se = stats::functional_std_error_from_gram(
      gram_, times_.size(), fit_result, weights);
  r.converged =
      se >= 0.0 && eval > 0.0 && se / eval < policy_.cv_threshold;
  return r;
}

void ModelBasedRater::reset() {
  design_ = stats::Matrix(0, num_components_);
  gram_ = stats::Matrix(num_components_, num_components_);
  times_.clear();
  cached_.reset();
}

}  // namespace peak::rating
