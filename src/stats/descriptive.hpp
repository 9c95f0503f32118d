#pragma once

/// \file descriptive.hpp
/// Descriptive statistics over timing samples. These are the primitives the
/// rating engine (Section 3 of the paper) uses to compute EVAL (mean) and
/// VAR (variance) over a window of tuning-section invocations.

#include <cstddef>
#include <span>
#include <vector>

namespace peak::stats {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Unbiased sample variance (divisor n-1); 0 when n < 2.
double variance(std::span<const double> xs);

/// sqrt(variance).
double stddev(std::span<const double> xs);

/// Median (copies and partially sorts); 0 for empty input.
double median(std::span<const double> xs);

/// Median absolute deviation, scaled by 1.4826 so it estimates sigma for
/// normal data. Robust spread measure used by the outlier filter.
double mad(std::span<const double> xs);

/// Median of an already-sorted (ascending) span, O(1) and allocation-free.
/// Same value as median() on any permutation of the data.
double median_sorted(std::span<const double> sorted);

/// mad() of an already-sorted (ascending) span without copying: the
/// absolute deviations from the median form two sorted runs around the
/// median split, so each middle order statistic is found by a binary
/// search over how many of the smallest deviations come from each run.
/// O(log n), allocation-free; the windowed rater calls it once per
/// convergence verdict.
double mad_sorted(std::span<const double> sorted);

double min(std::span<const double> xs);
double max(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::span<const double> xs, double p);

/// Streaming mean/variance accumulator (Welford's algorithm). The windowed
/// rater pushes one sample per invocation and reads mean/variance in O(1),
/// avoiding catastrophic cancellation for long windows of near-equal times.
class Welford {
public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }

  /// Unbiased sample variance; 0 when fewer than two samples.
  [[nodiscard]] double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }

  [[nodiscard]] double stddev() const;

  /// Merge another accumulator (Chan et al. parallel formula), enabling
  /// per-thread accumulation in the parallel tuning driver.
  void merge(const Welford& other);

  void reset() { *this = Welford{}; }

private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace peak::stats
