/// Differential tests for the incremental rating verdicts: the O(log n)
/// MAD against the merge walk it replaced, WindowedRater::converged()
/// against the exact rebuild behind rating(), the CBR dominant-bucket
/// tracking against a full scan, and the MBR running Gram and rating
/// cache against from-scratch fits. Every comparison is bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "rating/cbr.hpp"
#include "rating/mbr.hpp"
#include "rating/window.hpp"
#include "stats/descriptive.hpp"
#include "stats/regression.hpp"
#include "support/rng.hpp"

namespace peak::rating {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_rating(const Rating& a, const Rating& b) {
  return same_bits(a.eval, b.eval) && same_bits(a.var, b.var) &&
         a.samples == b.samples && a.converged == b.converged;
}

// --- MAD ---------------------------------------------------------------

/// The O(n) merge walk stats::mad_sorted() used before its binary search,
/// kept as the reference the fast version must reproduce exactly.
double mad_sorted_merge_walk(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  const double med = stats::median_sorted(sorted);
  const std::size_t n = sorted.size();
  std::size_t l = static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  std::size_t r = l;
  const std::size_t mid = n / 2;
  double prev = 0.0;
  double cur = 0.0;
  for (std::size_t k = 0; k <= mid; ++k) {
    prev = cur;
    const double dl =
        l > 0 ? med - sorted[l - 1] : std::numeric_limits<double>::infinity();
    const double dr =
        r < n ? sorted[r] - med : std::numeric_limits<double>::infinity();
    if (dl <= dr) {
      cur = dl;
      --l;
    } else {
      cur = dr;
      ++r;
    }
  }
  return 1.4826 * (n % 2 == 1 ? cur : 0.5 * (prev + cur));
}

enum class Shape { kNormal, kTies, kAllEqual, kLognormal, kSpikes, kSigned };
constexpr int kShapes = 6;

double draw(support::Rng& rng, Shape shape) {
  switch (shape) {
    case Shape::kNormal: return rng.normal(100.0, 5.0);
    case Shape::kTies:
      return 100.0 + static_cast<double>(rng.uniform_int(0, 3));
    case Shape::kAllEqual: return 42.5;
    case Shape::kLognormal: return 100.0 * rng.lognormal(0.3);
    case Shape::kSpikes: {
      const double x = 100.0 * rng.lognormal(0.05);
      return rng.bernoulli(0.1) ? x * rng.uniform(2.0, 1e6) : x;
    }
    case Shape::kSigned: return rng.normal(0.0, 1.0);
  }
  return 0.0;
}

TEST(MadSorted, MatchesMergeWalkOnRandomSortedSpans) {
  support::Rng rng(41);
  constexpr std::size_t kBase = 700;
  std::vector<double> base(kBase);
  std::size_t spans = 0;
  std::size_t mismatches = 0;
  while (spans < 200'000) {
    const auto shape = static_cast<Shape>(rng.uniform_int(0, kShapes - 1));
    for (double& x : base) x = draw(rng, shape);
    std::sort(base.begin(), base.end());
    // Every contiguous piece of a sorted array is itself sorted; half the
    // pieces are short, where the two deviation runs are most uneven.
    for (int piece = 0; piece < 100; ++piece, ++spans) {
      const auto n = static_cast<std::size_t>(
          piece % 2 == 0 ? rng.uniform_int(1, kBase) : rng.uniform_int(1, 16));
      const auto offset =
          static_cast<std::size_t>(rng.uniform_int(0, kBase - n));
      const std::span<const double> sorted(base.data() + offset, n);
      if (!same_bits(stats::mad_sorted(sorted),
                     mad_sorted_merge_walk(sorted)))
        ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << spans << " spans";
}

// --- WindowedRater::converged() ----------------------------------------

using Source = std::function<double()>;

struct Tally {
  std::size_t decisions = 0;
  std::size_t verdict_mismatches = 0;
  std::size_t rating_mismatches = 0;
};

/// One rating, fed to a rater asked only converged() and to a twin asked
/// only rating().converged, until the twin converges or exhausts.
void rate_both(const WindowPolicy& policy, const Source& next, Tally& t) {
  WindowedRater fast(policy);
  WindowedRater twin(policy);
  while (true) {
    const double x = next();
    fast.add(x);
    twin.add(x);
    const bool exact = twin.rating().converged;
    ++t.decisions;
    if (fast.converged() != exact) ++t.verdict_mismatches;
    if (fast.converged() != exact) ++t.verdict_mismatches;  // cached
    if (exact || twin.exhausted()) break;
  }
  if (!same_rating(fast.rating(), twin.rating()) ||
      fast.outliers_dropped() != twin.outliers_dropped() ||
      fast.nonfinite_dropped() != twin.nonfinite_dropped())
    ++t.rating_mismatches;
}

/// sem/|mean| as recompute() forms it, from a rating and its drop count.
double exact_ratio(const WindowedRater& rater) {
  const Rating r = rater.rating();
  const auto kept =
      static_cast<double>(r.samples - rater.outliers_dropped());
  return std::sqrt(r.var / kept) / std::fabs(r.eval);
}

/// A sim-like timing stream: lognormal jitter and occasional interrupt
/// spikes, scaled to `level`.
Source jitter(support::Rng& rng, double level, double sigma, double spike_p,
              double spike_hi) {
  return [&rng, level, sigma, spike_p, spike_hi] {
    const double x = level * rng.lognormal(sigma);
    return rng.bernoulli(spike_p) ? x * rng.uniform(1.5, spike_hi) : x;
  };
}

WindowPolicy random_policy(support::Rng& rng) {
  WindowPolicy p;
  const double thresholds[] = {0.001, 0.005, 0.005, 0.02, 0.1};
  p.cv_threshold = thresholds[rng.uniform_int(0, 4)];
  const std::size_t mins[] = {1, 2, 10, 10};
  p.min_samples = mins[rng.uniform_int(0, 3)];
  const std::size_t maxes[] = {16, 64, 640, 640};
  p.max_samples = maxes[rng.uniform_int(0, 3)];
  const double ks[] = {2.0, 3.0, 6.0, 6.0};
  p.outliers.k = ks[rng.uniform_int(0, 3)];
  const double drops[] = {0.0, 0.1, 0.25, 0.25, 0.5};
  p.outliers.max_drop_fraction = drops[rng.uniform_int(0, 4)];
  return p;
}

TEST(WindowVerdict, MatchesExactRebuildOverAMillionDecisions) {
  support::Rng rng(73);
  support::Rng noise(74);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Tally t;
  std::size_t ratings = 0;
  while (t.decisions < 1'000'000) {
    WindowPolicy policy = random_policy(rng);
    const double level = std::pow(10.0, rng.uniform(-3.0, 9.0));
    const double sigma = rng.uniform(0.001, 0.08);
    Source next = jitter(noise, level, sigma, 0.03, 4.0);
    switch (rng.uniform_int(0, 8)) {
      case 0:  // the default policy on the plain jittered stream
        policy = WindowPolicy{};
        break;
      case 1: {  // a huge spike as the very first sample
        const double spike = rng.bernoulli(0.5) ? 1e6 : 1e12;
        auto first = std::make_shared<bool>(true);
        next = [inner = next, first, spike] {
          const double x = inner();
          if (!*first) return x;
          *first = false;
          return x * spike;
        };
        break;
      }
      case 2:  // spikes on 40% of samples: the drop quota is hit
        next = jitter(noise, level, sigma, 0.4, 8.0);
        break;
      case 3:  // quantized timings: zero-MAD windows keep every sample
        next = [&noise, level] {
          return level * (1.0 + (noise.bernoulli(0.15) ? 0.01 : 0.0));
        };
        break;
      case 4: {  // non-MAD rules
        const stats::OutlierRule rules[] = {stats::OutlierRule::kSigma,
                                            stats::OutlierRule::kNone};
        policy.outliers.rule = rules[rng.uniform_int(0, 1)];
        break;
      }
      case 5:  // non-finite readings interleaved
        next = [inner = next, &noise, nan, inf] {
          if (noise.bernoulli(0.05)) return nan;
          if (noise.bernoulli(0.02)) return noise.bernoulli(0.5) ? inf : -inf;
          return inner();
        };
        break;
      case 6:  // a mean near zero: signed noise
        policy.max_samples = 64;
        next = [&noise, level] { return noise.normal(0.0, level); };
        break;
      case 7:  // huge magnitudes with tiny relative noise
        policy.cv_threshold = 1e-9;
        policy.max_samples = 64;
        next = jitter(noise, 1e12, 1e-8, 0.0, 1.5);
        break;
      default:
        break;
    }
    rate_both(policy, next, t);
    ++ratings;
  }
  EXPECT_EQ(t.verdict_mismatches, 0u)
      << "of " << t.decisions << " decisions over " << ratings << " ratings";
  EXPECT_EQ(t.rating_mismatches, 0u) << "of " << ratings << " ratings";
}

/// Thresholds placed on, or within the margin of, the exact ratio the
/// window reaches at some sample: only the exact fallback can decide
/// those, and it must. Some streams carry spikes up to 1e9 times the
/// level, which the MAD filter drops but which dwarf the running sums the
/// estimate takes them back out of.
TEST(WindowVerdict, ThresholdsInsideTheMarginFallBackExactly) {
  support::Rng rng(97);
  Tally t;
  const double spike_tops[] = {4.0, 1e6, 1e9};
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<double> samples(200);
    const Source next =
        jitter(rng, 100.0, 0.02, 0.03, spike_tops[trial % 3]);
    for (double& x : samples) x = next();
    const auto at = static_cast<std::size_t>(rng.uniform_int(10, 199));
    WindowedRater prefix;
    for (std::size_t i = 0; i <= at; ++i) prefix.add(samples[i]);
    const double r = exact_ratio(prefix);
    for (const double threshold :
         {r, std::nextafter(r, 0.0), std::nextafter(r, 1.0),
          r * (1 - 1e-7), r * (1 + 1e-7), r * (1 - 2e-6), r * (1 + 2e-6)}) {
      WindowPolicy policy;
      policy.cv_threshold = threshold;
      policy.max_samples = samples.size();
      std::size_t i = 0;
      rate_both(policy, [&] { return samples[i++ % samples.size()]; }, t);
    }
  }
  EXPECT_EQ(t.verdict_mismatches, 0u) << "of " << t.decisions;
  EXPECT_EQ(t.rating_mismatches, 0u);
}

/// The point of the incremental verdict: on a sim-like stream under the
/// default policy almost no sample needs the O(w) rebuild.
TEST(WindowVerdict, DefaultPolicyRarelyRecomputes) {
  obs::Counter& recomputes = obs::counter("window.recomputes");
  support::Rng rng(5);
  const Source next = jitter(rng, 1.0, 0.04, 0.03, 4.0);
  std::size_t decisions = 0;
  const std::uint64_t before = recomputes.value();
  for (int rating = 0; rating < 200; ++rating) {
    WindowedRater rater;
    while (!rater.converged() && !rater.exhausted()) {
      rater.add(next());
      ++decisions;
    }
  }
  const std::uint64_t fallbacks = recomputes.value() - before;
  EXPECT_LT(static_cast<double>(fallbacks),
            0.02 * static_cast<double>(decisions))
      << fallbacks << " recomputes for " << decisions << " decisions";
}

// --- CBR ---------------------------------------------------------------

/// converged() and dominant_context() against the full scan the rater
/// used to run on every call: largest total time, first key among ties.
TEST(CbrIncremental, DominantBucketMatchesFullScan) {
  support::Rng rng(19);
  std::size_t mismatches = 0;
  std::size_t decisions = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ContextBasedRater rater;
    std::map<ContextKey, double> totals;
    const auto contexts = rng.uniform_int(1, 6);
    const bool signed_times = trial % 3 == 0;
    for (int i = 0; i < 400; ++i) {
      const ContextKey key{static_cast<double>(rng.uniform_int(0, contexts))};
      // Small integer times tie bucket totals often.
      double time = static_cast<double>(rng.uniform_int(0, 4));
      if (signed_times && rng.bernoulli(0.1)) time = -time;
      rater.add(key, time);
      totals[key] += time;
      const ContextKey* best = nullptr;
      double best_time = -1.0;
      for (const auto& [k, total] : totals) {
        if (total > best_time) {
          best_time = total;
          best = &k;
        }
      }
      ++decisions;
      if (best == nullptr) continue;
      if (rater.dominant_context() != *best ||
          rater.converged() != rater.rating_for(*best).converged ||
          !same_rating(rater.rating(), rater.rating_for(*best)))
        ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << decisions;
}

// --- MBR ---------------------------------------------------------------

TEST(MbrIncremental, RunningGramIsBitEqualToMatrixGram) {
  support::Rng rng(23);
  std::size_t mismatches = 0;
  for (std::size_t cols = 1; cols <= 6; ++cols) {
    stats::Matrix design(0, cols);
    stats::Matrix gram(cols, cols);
    std::vector<double> row(cols);
    for (int r = 0; r < 300; ++r) {
      for (double& c : row)
        c = std::pow(10.0, rng.uniform(-3.0, 6.0)) * rng.uniform(0.5, 1.5);
      row.back() = 1.0;
      design.append_row(row);
      stats::accumulate_gram(gram, row);
      const stats::Matrix expect = design.gram();
      for (std::size_t i = 0; i < cols; ++i)
        for (std::size_t j = 0; j < cols; ++j)
          if (!same_bits(gram(i, j), expect(i, j))) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The rating the rater computed before it cached anything: a fresh
/// design matrix, a non-negative fit, and the standard error from the
/// design's own Gram matrix.
Rating reference_mbr_rating(const std::vector<std::vector<double>>& rows,
                            const std::vector<double>& times,
                            const MbrProfile& profile,
                            const MbrPolicy& policy) {
  const std::size_t k = rows.front().size();
  Rating r;
  r.samples = times.size();
  if (times.size() < std::max(policy.min_samples_per_component * k, k + 1))
    return r;
  stats::Matrix design(0, k);
  for (const auto& row : rows) design.append_row(row);
  const stats::RegressionResult fit = stats::least_squares_nonneg(design, times);
  if (!fit.ok) return r;
  std::vector<double> weights(k, 0.0);
  if (profile.dominant_component) {
    weights[*profile.dominant_component] = 1.0;
  } else if (!profile.c_avg.empty()) {
    weights = profile.c_avg;
  } else {
    for (const auto& row : rows)
      for (std::size_t i = 0; i < k; ++i)
        weights[i] += row[i] / static_cast<double>(rows.size());
  }
  double eval = 0.0;
  for (std::size_t i = 0; i < k; ++i) eval += fit.coefficients[i] * weights[i];
  r.eval = eval;
  r.var = fit.var_ratio();
  const double se = stats::functional_std_error(design, fit, weights);
  r.converged = se >= 0.0 && eval > 0.0 && se / eval < policy.cv_threshold;
  return r;
}

TEST(MbrIncremental, CachedRatingMatchesFreshRaterAndReference) {
  support::Rng rng(29);
  std::size_t mismatches = 0;
  std::size_t checks = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 4);
    MbrProfile profile;
    if (trial % 3 == 1) profile.dominant_component = 0;
    if (trial % 3 == 2) profile.c_avg.assign(k, 1.0);
    MbrPolicy policy;
    policy.min_samples_per_component = 3;
    policy.max_samples = 120;
    ModelBasedRater rater(k, profile, policy);
    // On odd trials the first component costs nothing, so noise often
    // fits it a negative time and the active set drops its column.
    const double first_slope = trial % 2 == 1 ? 0.0 : 2.0;
    std::vector<std::vector<double>> rows;
    std::vector<double> times;
    while (!rater.exhausted()) {
      std::vector<double> row(k, 1.0);
      double time = 50.0;
      for (std::size_t c = 0; c + 1 < k; ++c) {
        row[c] = rng.uniform(10.0, 200.0);
        time += (c == 0 ? first_slope : static_cast<double>(c + 2)) * row[c];
      }
      time *= rng.lognormal(0.02);
      rater.add(row, time);
      rows.push_back(row);
      times.push_back(time);

      const bool converged = rater.converged();
      const Rating cached = rater.rating();
      ModelBasedRater fresh(k, profile, policy);
      for (std::size_t i = 0; i < rows.size(); ++i)
        fresh.add(rows[i], times[i]);
      const Rating expect = reference_mbr_rating(rows, times, profile, policy);
      ++checks;
      if (converged != expect.converged || !same_rating(cached, expect) ||
          !same_rating(fresh.rating(), expect) ||
          rater.converged() != expect.converged)
        ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checks;
}

TEST(MbrIncremental, RatingFitsOncePerSample) {
  obs::Counter& fits = obs::counter("mbr.fits");
  MbrProfile profile;
  profile.c_avg = {40.0, 1.0};
  ModelBasedRater rater(2, profile);
  support::Rng rng(31);
  for (int i = 0; i < 40; ++i)
    rater.add({rng.uniform(10.0, 80.0), 1.0}, 100.0 * rng.lognormal(0.01));
  const std::uint64_t before = fits.value();
  const bool converged = rater.converged();
  const Rating r = rater.rating();
  EXPECT_EQ(rater.converged(), converged);
  EXPECT_EQ(r.converged, converged);
  EXPECT_EQ(fits.value() - before, 1u);
  rater.add({30.0, 1.0}, 100.0);
  (void)rater.rating();
  EXPECT_EQ(fits.value() - before, 2u);
}

}  // namespace
}  // namespace peak::rating
