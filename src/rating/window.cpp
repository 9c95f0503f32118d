#include "rating/window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "support/check.hpp"

namespace peak::rating {

namespace {

/// Relative distance from cv_threshold the incremental estimate must keep
/// before its convergence verdict is used without an exact recompute.
constexpr long double kVerdictMargin = 1e-6L;

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::kCBR: return "CBR";
    case Method::kMBR: return "MBR";
    case Method::kRBR: return "RBR";
    case Method::kAVG: return "AVG";
    case Method::kWHL: return "WHL";
  }
  return "?";
}

WindowedRater::WindowedRater(WindowPolicy policy)
    : policy_(policy) {}

void WindowedRater::add(double sample) {
  // A non-finite sample (glitched timer, faulted run) must never enter
  // the window: one NaN makes mean/variance NaN forever, and an Inf
  // defeats the MAD filter's median arithmetic. Drop it — the stream
  // simply yields the next invocation — and count the drop so fault
  // sweeps can assert contamination stayed out of the ratings.
  if (!std::isfinite(sample)) {
    static obs::Counter& nonfinite_dropped =
        obs::counter("rating.nonfinite_dropped");
    nonfinite_dropped.inc();
    ++nonfinite_dropped_;
    return;
  }
  static obs::Counter& samples_added = obs::counter("window.samples");
  samples_added.inc();
  if (samples_.empty()) shift_ = sample;
  const long double y = static_cast<long double>(sample) - shift_;
  sum_ += y;
  sum_sq_ += y * y;
  samples_.push_back(sample);
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), sample),
                 sample);
  cache_valid_ = false;
  verdict_valid_ = false;
}

void WindowedRater::reset() {
  samples_.clear();
  sorted_.clear();
  nonfinite_dropped_ = 0;
  shift_ = sum_ = sum_sq_ = 0.0L;
  cache_valid_ = false;
  verdict_valid_ = false;
}

bool WindowedRater::converged() const {
  if (cache_valid_) return cached_.converged;
  if (!verdict_valid_) {
    const std::optional<bool> verdict = incremental_verdict();
    if (!verdict) {
      recompute();
      return cached_.converged;
    }
    verdict_ = *verdict;
    verdict_valid_ = true;
  }
  return verdict_;
}

/// recompute() decides `sem/|mean| < cv_threshold` from the kept samples in
/// double precision. Without the quota, the MAD filter's kept set is the
/// sorted mirror minus an outlier prefix and suffix, so its size, mean and
/// spread follow from the running sums in O(log w + outliers). The
/// estimate r of sem/|mean| comes with a bound A that covers both its own
/// long-double rounding (sums over every sample, the outliers taken back
/// out) and recompute()'s double rounding (naive-sum mean, two-pass
/// variance). r is trusted only when A is within half the margin and r
/// clears the threshold by the full margin, so recompute() would land on
/// the same side.
std::optional<bool> WindowedRater::incremental_verdict() const {
  using LD = long double;
  const stats::OutlierPolicy& policy = policy_.outliers;
  const double threshold = policy_.cv_threshold;
  if (policy.rule != stats::OutlierRule::kMad || !(policy.k > 0.0) ||
      !(threshold > 0.0))
    return std::nullopt;
  const std::size_t n = sorted_.size();
  if (n == 0) return false;

  // The kept set is sorted_[lo, hi): the MAD filter's predicate is
  // monotone on each side of the median.
  const double med = stats::median_sorted(sorted_);
  const double spread = n < 3 ? 0.0 : stats::mad_sorted(sorted_);
  std::size_t lo = 0;
  std::size_t hi = n;
  if (spread != 0.0) {
    const double bound = policy.k * spread;
    const auto outlier = [&](double x) { return std::fabs(x - med) > bound; };
    const auto split =
        std::upper_bound(sorted_.begin(), sorted_.end(), med);
    lo = static_cast<std::size_t>(
        std::partition_point(sorted_.begin(), split, outlier) -
        sorted_.begin());
    hi = static_cast<std::size_t>(
        std::partition_point(split, sorted_.end(),
                             [&](double x) { return !outlier(x); }) -
        sorted_.begin());
    const auto max_drop = static_cast<std::size_t>(
        policy.max_drop_fraction * static_cast<double>(n));
    if (lo + (n - hi) > max_drop) return std::nullopt;  // quota hit
  }
  const std::size_t m = hi - lo;
  if (m < policy_.min_samples) return false;
  if (m < 2) return std::nullopt;

  LD s1 = sum_;
  LD s2 = sum_sq_;
  const auto take_out = [&](double x) {
    const LD y = static_cast<LD>(x) - shift_;
    s1 -= y;
    s2 -= y * y;
  };
  for (std::size_t i = 0; i < lo; ++i) take_out(sorted_[i]);
  for (std::size_t i = hi; i < n; ++i) take_out(sorted_[i]);

  const LD ml = static_cast<LD>(m);
  const LD d = s1 / ml;
  const LD mean = shift_ + d;
  const LD ss = s2 - s1 * d;  // Σ(x - mean)² over the kept set
  const LD abs_mean = std::fabs(mean);

  // Long-double error of s1 and s2 against the exact sums (each term,
  // add, and take-back costs one rounding; Σ|y| <= sqrt(n·Σy²)).
  const LD u_ld = std::numeric_limits<LD>::epsilon() / 2;
  const LD ops = 2 * static_cast<LD>(n) + 8;
  const LD e1 = ops * u_ld * std::sqrt(static_cast<LD>(n) * sum_sq_);
  const LD e2 = ops * u_ld * sum_sq_;
  const LD e_ss = e2 + (2 * std::fabs(s1) * e1 + e1 * e1) / ml +
                  4 * u_ld * (std::fabs(s2) + std::fabs(s1 * d));
  const LD e_mean = e1 / ml + 4 * u_ld * (std::fabs(d) + abs_mean);
  // recompute()'s double error: the naive-sum mean is off by at most
  // (m+1)·u·max|x|; the two-pass sum of squares grows by m·δ² and
  // carries (m+8)·u relative rounding through the final ratio.
  const LD u_d = std::numeric_limits<double>::epsilon() / 2;
  const LD max_abs = std::max(std::fabs(static_cast<LD>(sorted_[lo])),
                              std::fabs(static_cast<LD>(sorted_[hi - 1])));
  const LD delta = 1.01L * (ml + 1) * u_d * max_abs;
  const LD gamma = 1.01L * (ml + 8) * u_d;

  const LD mean_lo = abs_mean - e_mean - delta;
  if (!(mean_lo > 0)) return std::nullopt;  // mean too close to zero
  const LD mean_hi = abs_mean + e_mean + delta;
  const LD k = std::sqrt(ml * (ml - 1));
  const LD root = std::sqrt(std::max(ss, LD{0}));
  const LD r = root / (k * abs_mean);
  const LD root_err =
      root > 0 ? std::min(std::sqrt(e_ss), e_ss / root) : std::sqrt(e_ss);
  const LD r_lo = std::max(root - root_err, LD{0}) * std::sqrt(1 - gamma) /
                  (k * mean_hi);
  const LD r_hi = std::sqrt(((root + root_err) * (root + root_err) +
                             ml * delta * delta) *
                            (1 + gamma)) /
                  (k * mean_lo);
  const LD margin = kVerdictMargin * threshold;
  if (!(std::max(r_hi - r, r - r_lo) <= margin / 2)) return std::nullopt;
  if (r < threshold - margin) return true;
  if (r > threshold + margin) return false;
  return std::nullopt;
}

std::size_t WindowedRater::outliers_dropped() const {
  if (!cache_valid_) recompute();
  return cached_dropped_;
}

/// Rebuild the cached rating. For the default MAD policy the filter is
/// replicated here against the sorted mirror — same kept set and dropped
/// count as stats::filter_outliers (covered by RatingMatchesFilterOutliers
/// in tests/test_rating_window.cpp), without the three median selections
/// and two temporary vectors per call. Other rules fall back to the
/// generic filter.
void WindowedRater::recompute() const {
  static obs::Counter& recomputes = obs::counter("window.recomputes");
  recomputes.inc();
  Rating r;
  r.samples = samples_.size();
  cached_dropped_ = 0;
  if (samples_.empty()) {
    cached_ = r;
    cache_valid_ = true;
    return;
  }

  kept_scratch_.clear();
  const stats::OutlierPolicy& policy = policy_.outliers;
  if (policy.rule == stats::OutlierRule::kMad) {
    PEAK_CHECK(policy.k > 0.0, "outlier threshold must be positive");
    const double med = stats::median_sorted(sorted_);
    const double spread =
        samples_.size() < 3 ? 0.0 : stats::mad_sorted(sorted_);
    if (spread == 0.0) {
      kept_scratch_ = samples_;
    } else {
      const auto max_drop = static_cast<std::size_t>(
          policy.max_drop_fraction * static_cast<double>(samples_.size()));
      // Mirror of stats::mad_mask: drop in index order until the quota is
      // hit, then keep everything from the first over-quota outlier on.
      bool quota_hit = false;
      for (const double x : samples_) {
        if (!quota_hit && std::fabs(x - med) > policy.k * spread) {
          if (cached_dropped_ >= max_drop)
            quota_hit = true;
          else {
            ++cached_dropped_;
            continue;
          }
        }
        kept_scratch_.push_back(x);
      }
    }
  } else {
    const stats::OutlierResult filtered =
        stats::filter_outliers(samples_, policy);
    kept_scratch_ = filtered.kept;
    cached_dropped_ = filtered.dropped;
  }

  r.eval = stats::mean(kept_scratch_);
  r.var = stats::variance(kept_scratch_);
  if (kept_scratch_.size() >= policy_.min_samples && r.eval != 0.0) {
    const double sem = std::sqrt(
        r.var / static_cast<double>(kept_scratch_.size()));
    r.converged = sem / std::fabs(r.eval) < policy_.cv_threshold;
  }
  cached_ = r;
  cache_valid_ = true;
}

Rating WindowedRater::rating() const {
  if (!cache_valid_) recompute();
  return cached_;
}

}  // namespace peak::rating
