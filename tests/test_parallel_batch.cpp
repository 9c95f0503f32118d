#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/profile.hpp"
#include "core/rating_cache.hpp"
#include "core/tuning_driver.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "search/combined_elimination.hpp"
#include "workloads/workload.hpp"

namespace peak::core {
namespace {

/// Acceptance tests of batched evaluation: for every search_threads
/// N >= 1 the TuningOutcome (winner, ratings, event stream), the journal
/// bytes, and crash-safe resume must be bit-identical to the N = 1 batch
/// path — with and without fault injection — and a warm persistent
/// rating cache must reproduce the outcome from disk.
class ParallelBatchTest : public ::testing::Test {
protected:
  ParallelBatchTest()
      : machine_(sim::sparc2()), effects_(search::gcc33_o3_space()) {}

  struct Setup {
    std::unique_ptr<workloads::Workload> workload;
    workloads::Trace train;
    ProfileData profile;
  };

  Setup setup(const std::string& name) {
    Setup s;
    s.workload = workloads::make_workload(name);
    s.train = s.workload->trace(workloads::DataSet::kTrain, 42);
    s.profile = profile_workload(*s.workload, s.train, machine_);
    return s;
  }

  TuningOutcome tune(const Setup& s, DriverOptions options,
                     rating::Method method) {
    TuningDriver driver(*s.workload, s.profile, s.train, machine_,
                        effects_, options);
    return driver.tune(method);
  }

  fault::FaultInjector sweep_injector(std::uint64_t seed) const {
    fault::FaultModel model;
    model.fault_prob = 0.05;
    model.seed = seed;
    fault::FaultInjector injector(model);
    injector.exempt(search::o3_config(effects_.space()));
    return injector;
  }

  static std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  static std::uint64_t counter(const std::string& name) {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  sim::MachineModel machine_;
  sim::FlagEffectModel effects_;
};

TEST_F(ParallelBatchTest, OutcomeBitIdenticalAcrossThreadCountsTenSeeds) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DriverOptions serial;
    serial.seed = seed;
    serial.search_threads = 1;
    const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

    DriverOptions parallel = serial;
    parallel.search_threads = 4;
    EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);

    // The defaults and N = 0 rate inline with the same batch semantics.
    DriverOptions defaults;
    defaults.seed = seed;
    EXPECT_EQ(tune(s, defaults, rating::Method::kCBR), one);
    DriverOptions inline_zero = serial;
    inline_zero.search_threads = 0;
    EXPECT_EQ(tune(s, inline_zero, rating::Method::kCBR), one);
  }
}

TEST_F(ParallelBatchTest, OutcomeBitIdenticalForRbrAndOddThreadCounts) {
  Setup s = setup("ART");
  DriverOptions serial;
  serial.search_threads = 1;
  const TuningOutcome one = tune(s, serial, rating::Method::kRBR);
  for (unsigned threads : {2u, 3u, 7u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    DriverOptions parallel = serial;
    parallel.search_threads = threads;
    EXPECT_EQ(tune(s, parallel, rating::Method::kRBR), one);
  }
}

TEST_F(ParallelBatchTest, OutcomeBitIdenticalUnderFaultInjection) {
  Setup s = setup("SWIM");
  for (std::uint64_t seed : {0xfaUL, 0xfbUL, 0xfcUL}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const fault::FaultInjector injector = sweep_injector(seed);
    DriverOptions serial;
    serial.search_threads = 1;
    serial.fault.injector = &injector;

    TuningDriver one_driver(*s.workload, s.profile, s.train, machine_,
                            effects_, serial);
    const TuningOutcome one = one_driver.tune(rating::Method::kCBR);

    DriverOptions parallel = serial;
    parallel.search_threads = 4;
    TuningDriver four_driver(*s.workload, s.profile, s.train, machine_,
                             effects_, parallel);
    EXPECT_EQ(four_driver.tune(rating::Method::kCBR), one);

    const auto& a = one_driver.quarantine().entries();
    const auto& b = four_driver.quarantine().entries();
    ASSERT_EQ(b.size(), a.size());
    for (const auto& [key, entry] : a) {
      const auto it = b.find(key);
      ASSERT_NE(it, b.end()) << key;
      EXPECT_EQ(it->second.kind, entry.kind) << key;
      EXPECT_EQ(it->second.failures, entry.failures) << key;
      EXPECT_EQ(it->second.quarantined, entry.quarantined) << key;
    }
  }
}

TEST_F(ParallelBatchTest, CombinedEliminationIdenticalAcrossThreadCounts) {
  Setup s = setup("SWIM");
  DriverOptions serial;
  serial.search_threads = 1;
  serial.search_algorithm = std::make_shared<search::CombinedElimination>();
  const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

  DriverOptions parallel = serial;
  parallel.search_threads = 4;
  EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);
}

TEST_F(ParallelBatchTest, JournalBytesIdenticalAcrossThreadCounts) {
  Setup s = setup("SWIM");
  DriverOptions serial;
  serial.search_threads = 1;
  serial.fault.journal_path = temp_path("peak_batch_journal_t1.jsonl");
  const TuningOutcome one = tune(s, serial, rating::Method::kCBR);

  DriverOptions parallel;
  parallel.search_threads = 4;
  parallel.fault.journal_path = temp_path("peak_batch_journal_t4.jsonl");
  EXPECT_EQ(tune(s, parallel, rating::Method::kCBR), one);

  const std::string a = slurp(serial.fault.journal_path);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(parallel.fault.journal_path));
}

TEST_F(ParallelBatchTest, ResumeTruncatedJournalAcrossThreadCounts) {
  // A run journaled at 4 threads, killed partway, must resume to the
  // bit-identical outcome at 1 thread (and vice versa): the journal is a
  // canonical-order record, not a schedule.
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_batch_journal_cut_src.jsonl");
  DriverOptions options;
  options.search_threads = 4;
  options.fault.journal_path = path;
  const TuningOutcome original = tune(s, options, rating::Method::kCBR);

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::string cut = temp_path("peak_batch_journal_cut.jsonl");
  {
    std::ofstream out(cut);
    for (std::size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i)
      out << lines[i] << '\n';
    out << R"({"type":"eval","base":"dead)";  // partial trailing line
  }

  for (unsigned resume_threads : {1u, 4u}) {
    SCOPED_TRACE("resume threads " + std::to_string(resume_threads));
    const std::string copy = temp_path(
        "peak_batch_journal_resume_" + std::to_string(resume_threads) +
        ".jsonl");
    {
      std::ofstream out(copy, std::ios::binary);
      out << slurp(cut);
    }
    DriverOptions resume_options;
    resume_options.search_threads = resume_threads;
    resume_options.fault.journal_path = copy;
    resume_options.fault.resume = true;
    EXPECT_EQ(tune(s, resume_options, rating::Method::kCBR), original);
  }
}

TEST_F(ParallelBatchTest, WarmCacheRerunIsBitIdenticalAndOver90PctHits) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_rating_cache.jsonl");

  RatingCache cold_cache(path);
  DriverOptions options;
  options.search_threads = 2;
  options.rating_cache = &cold_cache;
  const std::uint64_t stores_before = counter("search.cache.store");
  const TuningOutcome cold = tune(s, options, rating::Method::kCBR);
  EXPECT_GT(counter("search.cache.store"), stores_before);

  // Without a cache the outcome must be the same (the cache may never
  // perturb what is computed, only where it comes from).
  DriverOptions plain;
  plain.search_threads = 2;
  EXPECT_EQ(tune(s, plain, rating::Method::kCBR), cold);

  // Fresh cache object, same file: everything replays from disk.
  RatingCache warm_cache(path);
  EXPECT_EQ(warm_cache.size(), cold_cache.size());
  options.rating_cache = &warm_cache;
  const std::uint64_t hits_before = counter("search.cache.hit");
  const std::uint64_t misses_before = counter("search.cache.miss");
  EXPECT_EQ(tune(s, options, rating::Method::kCBR), cold);
  const std::uint64_t hits = counter("search.cache.hit") - hits_before;
  const std::uint64_t misses =
      counter("search.cache.miss") - misses_before;
  ASSERT_GT(hits, 0u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.9);
}

TEST_F(ParallelBatchTest, CacheKeySeparatesSeedsAndMethods) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_rating_cache_keys.jsonl");
  RatingCache cache(path);

  DriverOptions options;
  options.search_threads = 1;
  options.rating_cache = &cache;
  const TuningOutcome first = tune(s, options, rating::Method::kCBR);

  // A different run seed asks different questions: the warm cache must
  // not serve it the old answers.
  DriverOptions other = options;
  other.seed = 2;
  const std::uint64_t hits_before = counter("search.cache.hit");
  const TuningOutcome reseeded = tune(s, other, rating::Method::kCBR);
  EXPECT_EQ(counter("search.cache.hit"), hits_before);

  DriverOptions plain;
  plain.search_threads = 1;
  plain.seed = 2;
  EXPECT_EQ(tune(s, plain, rating::Method::kCBR), reseeded);
  (void)first;
}

TEST_F(ParallelBatchTest, CacheDisabledUnderFaultInjection) {
  Setup s = setup("SWIM");
  const fault::FaultInjector injector = sweep_injector(0xfau);
  const std::string path = temp_path("peak_rating_cache_faulty.jsonl");
  RatingCache cache(path);

  DriverOptions options;
  options.search_threads = 2;
  options.rating_cache = &cache;
  options.fault.injector = &injector;
  const std::uint64_t stores_before = counter("search.cache.store");
  const std::uint64_t lookups_before =
      counter("search.cache.hit") + counter("search.cache.miss");
  (void)tune(s, options, rating::Method::kCBR);
  EXPECT_EQ(counter("search.cache.store"), stores_before);
  EXPECT_EQ(counter("search.cache.hit") + counter("search.cache.miss"),
            lookups_before);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ParallelBatchTest, CacheFileSurvivesDamagedTrailingLine) {
  Setup s = setup("SWIM");
  const std::string path = temp_path("peak_rating_cache_damage.jsonl");
  {
    RatingCache cache(path);
    DriverOptions options;
    options.search_threads = 1;
    options.rating_cache = &cache;
    (void)tune(s, options, rating::Method::kCBR);
    ASSERT_GT(cache.size(), 0u);
  }
  std::size_t intact = 0;
  {
    RatingCache reloaded(path);
    intact = reloaded.size();
  }
  // Simulate a crash mid-append: a partial record must be skipped, the
  // complete ones kept.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << R"({"type":"rating","key":"dead)";
  }
  RatingCache damaged(path);
  EXPECT_EQ(damaged.size(), intact);
}

}  // namespace
}  // namespace peak::core
