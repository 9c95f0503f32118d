#include "rating/cbr.hpp"

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::rating {

ContextBasedRater::ContextBasedRater(WindowPolicy policy)
    : policy_(policy) {}

void ContextBasedRater::add(const ContextKey& context, double time) {
  static obs::Counter& fills = obs::counter("cbr.bucket_fills");
  static obs::Counter& buckets_created = obs::counter("cbr.buckets");
  auto it = buckets_.find(context);
  if (it == buckets_.end()) {
    it = buckets_.emplace(context, Bucket{WindowedRater(policy_), 0.0})
             .first;
    buckets_created.inc();
  }
  fills.inc();
  it->second.rater.add(time);
  it->second.total_time += time;
  ++total_;

  // A grown bucket can only overtake the incumbent; the incumbent itself
  // stays dominant when it grows. Shrinking or NaN totals rescan.
  if (!(time >= 0.0) || dominant_ == buckets_.end()) {
    dominant_ = scan_dominant();
  } else if (it != dominant_) {
    const double grown = it->second.total_time;
    const double best = dominant_->second.total_time;
    if (grown > best || (grown == best && it->first < dominant_->first))
      dominant_ = it;
  }
}

ContextBasedRater::BucketMap::const_iterator
ContextBasedRater::scan_dominant() const {
  auto best = buckets_.end();
  double best_time = -1.0;
  for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
    if (it->second.total_time > best_time) {
      best_time = it->second.total_time;
      best = it;
    }
  }
  return best;
}

const ContextKey& ContextBasedRater::dominant_context() const {
  PEAK_CHECK(dominant_ != buckets_.end(), "no contexts recorded");
  return dominant_->first;
}

const WindowedRater& ContextBasedRater::dominant_rater() const {
  PEAK_CHECK(dominant_ != buckets_.end(), "no contexts recorded");
  return dominant_->second.rater;
}

Rating ContextBasedRater::rating() const {
  if (buckets_.empty()) return Rating{};
  return dominant_rater().rating();
}

bool ContextBasedRater::converged() const {
  if (buckets_.empty()) return false;
  return dominant_rater().converged();
}

Rating ContextBasedRater::rating_for(const ContextKey& context) const {
  auto it = buckets_.find(context);
  if (it == buckets_.end()) return Rating{};
  return it->second.rater.rating();
}

std::map<ContextKey, Rating> ContextBasedRater::all_ratings() const {
  std::map<ContextKey, Rating> out;
  for (const auto& [key, bucket] : buckets_)
    out.emplace(key, bucket.rater.rating());
  return out;
}

bool ContextBasedRater::exhausted() const {
  if (buckets_.empty()) return false;
  return dominant_rater().exhausted();
}

void ContextBasedRater::reset() {
  buckets_.clear();
  dominant_ = buckets_.end();
  total_ = 0;
}

}  // namespace peak::rating
