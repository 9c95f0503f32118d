#pragma once

/// \file window.hpp
/// Windowed sample aggregation (paper Section 3): ratings are computed
/// over a window of TS invocations; measurement outliers are eliminated;
/// and because VAR shrinks as the window grows, the engine keeps
/// collecting until VAR falls below a threshold (convergence) or the
/// sample budget is exhausted (the consultant then switches to the next
/// applicable rating method).

#include <cstddef>
#include <optional>
#include <vector>

#include "rating/rating.hpp"
#include "stats/outlier.hpp"

namespace peak::rating {

struct WindowPolicy {
  std::size_t min_samples = 10;   ///< smallest window worth evaluating
  std::size_t max_samples = 640;  ///< give up (switch methods) beyond this
  /// Convergence: coefficient of variation of the *mean* estimate,
  /// stddev/(sqrt(n)·mean), must fall below this.
  double cv_threshold = 0.005;
  /// MAD-based detection by default: at the small window sizes PEAK works
  /// with (w = 10), a perturbation spike inflates the mean and sigma it
  /// hides behind (masking); the median absolute deviation does not care.
  stats::OutlierPolicy outliers{stats::OutlierRule::kMad, 6.0, 0.25, 4};

  friend bool operator==(const WindowPolicy&,
                         const WindowPolicy&) = default;
};

class WindowedRater {
public:
  explicit WindowedRater(WindowPolicy policy = {});

  /// Insert one sample. Non-finite samples are rejected (dropped and
  /// counted, both here and on the `rating.nonfinite_dropped` obs
  /// counter); they still count toward exhaustion so a stream of garbage
  /// measurements exhausts the window instead of spinning forever.
  void add(double sample);

  /// Current (EVAL, VAR) over the outlier-filtered window. EVAL = mean,
  /// VAR = sample variance (paper Section 3, cases 1 and 3). Always
  /// computed exactly over the whole window; cached until the next add().
  [[nodiscard]] Rating rating() const;

  /// rating().converged, bit for bit, without the O(w) rebuild on most
  /// samples. For the MAD rule the verdict comes from O(log w) state: the
  /// median and MAD from the sorted mirror, the outlier prefix and suffix
  /// by binary search, and the kept set's Σ and Σ² from running sums
  /// minus the outliers. That estimate decides only when it clears the
  /// threshold by a relative margin its error bound cannot cross; quota
  /// hits, near-zero means, other outlier rules and a too-wide bound fall
  /// back to the exact rebuild (counted on `window.recomputes`).
  [[nodiscard]] bool converged() const;
  [[nodiscard]] bool exhausted() const {
    return samples_.size() + nonfinite_dropped_ >= policy_.max_samples;
  }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] std::size_t outliers_dropped() const;
  [[nodiscard]] std::size_t nonfinite_dropped() const {
    return nonfinite_dropped_;
  }
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  void reset();

private:
  void recompute() const;
  /// The incremental verdict, or nullopt where only recompute() can tell.
  [[nodiscard]] std::optional<bool> incremental_verdict() const;

  WindowPolicy policy_;
  std::vector<double> samples_;
  std::size_t nonfinite_dropped_ = 0;
  /// Ascending mirror of samples_, maintained incrementally so the MAD
  /// outlier filter needs no per-rating copy or selection.
  std::vector<double> sorted_;
  /// Σ(x - shift_) and Σ(x - shift_)² over every sample, shifted by the
  /// first one so near-equal timings do not cancel.
  long double shift_ = 0.0L;
  long double sum_ = 0.0L;
  long double sum_sq_ = 0.0L;
  mutable std::vector<double> kept_scratch_;
  mutable Rating cached_;
  mutable std::size_t cached_dropped_ = 0;
  mutable bool cache_valid_ = false;
  mutable bool verdict_ = false;
  mutable bool verdict_valid_ = false;
};

}  // namespace peak::rating
