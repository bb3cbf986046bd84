// Unit tests for src/common: Status/Result, Random, Zipf, Hash,
// RunningStats, MappedRegion, TallyShards.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mapped_region.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/tally_shards.h"
#include "common/zipf.h"

namespace dido {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCode) {
  EXPECT_EQ(Status::NotFound().code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfMemory().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::ResourceBusy().code(), StatusCode::kResourceBusy);
  EXPECT_EQ(Status::CapacityFull().code(), StatusCode::kCapacityFull);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable().code(), StatusCode::kUnavailable);
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad frame");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad frame");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Ok());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_EQ(StatusCodeName(StatusCode::kCapacityFull), "CAPACITY_FULL");
}

Status FailingHelper() { return Status::OutOfMemory("no space"); }

Status PropagatingHelper() {
  DIDO_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kOutOfMemory);
}

TEST(ResultTest, HoldsValueWhenOk) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(ResultTest, HoldsStatusWhenFailed) {
  Result<int> result(Status::NotFound());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string(1000, 'x'));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 1000u);
}

// ---------------------------------------------------------------- Random --

TEST(RandomTest, DeterministicForSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, ZeroSeedIsUsable) {
  Random rng(0);
  EXPECT_NE(rng.Next(), rng.Next());
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliEdgeCases) {
  Random rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class RandomBoundedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBoundedTest, StaysInBoundAndCoversRange) {
  const uint64_t bound = GetParam();
  Random rng(bound * 977 + 3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextBounded(bound);
    EXPECT_LT(v, bound);
    seen.insert(v);
  }
  if (bound <= 16) {
    EXPECT_EQ(seen.size(), bound);  // small ranges fully covered
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RandomBoundedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 1000, 1 << 20,
                                           (1ULL << 40) + 7));

TEST(RandomTest, NextInRangeInclusive) {
  Random rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    saw_lo |= v == 10;
    saw_hi |= v == 13;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfGenerator zipf(1000, 0.99);
  double sum = 0.0;
  for (uint64_t i = 0; i < 1000; ++i) sum += zipf.Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, ProbabilityDecreasesWithRank) {
  ZipfGenerator zipf(1000, 0.99);
  for (uint64_t i = 1; i < 1000; ++i) {
    EXPECT_GT(zipf.Probability(i - 1), zipf.Probability(i));
  }
}

TEST(ZipfTest, UniformSkewIsFlat) {
  ZipfGenerator zipf(100, 0.0);
  EXPECT_NEAR(zipf.Probability(0), 0.01, 1e-12);
  EXPECT_NEAR(zipf.Probability(99), 0.01, 1e-12);
}

TEST(ZipfTest, TopFractionBoundsAndMonotonicity) {
  ZipfGenerator zipf(100000, 0.99);
  EXPECT_DOUBLE_EQ(zipf.TopFraction(0), 0.0);
  EXPECT_DOUBLE_EQ(zipf.TopFraction(100000), 1.0);
  double prev = 0.0;
  for (uint64_t k : {1u, 10u, 100u, 1000u, 10000u, 99999u}) {
    const double f = zipf.TopFraction(k);
    EXPECT_GT(f, prev);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(ZipfTest, SkewedTopFractionExceedsUniform) {
  ZipfGenerator skewed(100000, 0.99);
  ZipfGenerator uniform(100000, 0.0);
  EXPECT_GT(skewed.TopFraction(1000), 5.0 * uniform.TopFraction(1000));
}

TEST(ZipfTest, DrawsMatchTopFraction) {
  const uint64_t n = 10000;
  ZipfGenerator zipf(n, 0.99);
  Random rng(99);
  const uint64_t top_k = 100;
  uint64_t in_top = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Next(rng) < top_k) ++in_top;
  }
  EXPECT_NEAR(static_cast<double>(in_top) / draws, zipf.TopFraction(top_k),
              0.02);
}

TEST(ZipfTest, UniformDrawsAreFlat) {
  const uint64_t n = 100;
  ZipfGenerator zipf(n, 0.0);
  Random rng(3);
  std::vector<int> counts(n, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) counts[zipf.Next(rng)] += 1;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], draws / static_cast<int>(n), draws / n);
  }
}

class ZetaSumTest : public ::testing::TestWithParam<double> {};

TEST_P(ZetaSumTest, ApproximationMatchesExactSum) {
  const double theta = GetParam();
  // Compare the Euler-Maclaurin path (n > 64k) against a brute-force sum.
  const uint64_t n = 200000;
  double exact = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    exact += std::pow(static_cast<double>(i), -theta);
  }
  EXPECT_NEAR(ZetaSum(n, theta) / exact, 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZetaSumTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.99, 1.0,
                                           1.2, 1.5));

TEST(ZipfTest, TopFrequenciesHelper) {
  const std::vector<double> freqs = ZipfTopFrequencies(1000, 0.99, 10);
  ASSERT_EQ(freqs.size(), 10u);
  for (size_t i = 1; i < freqs.size(); ++i) EXPECT_LT(freqs[i], freqs[i - 1]);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash64("hello"), Hash64("hello"));
  EXPECT_EQ(Hash64("hello", 1), Hash64("hello", 1));
}

TEST(HashTest, SeedChangesValue) {
  EXPECT_NE(Hash64("hello", 0), Hash64("hello", 1));
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(Hash64("hello"), Hash64("hellp"));
  EXPECT_NE(Hash64("a"), Hash64("aa"));
  EXPECT_NE(Hash64(""), Hash64("a"));
}

TEST(HashTest, AllLengthsCovered) {
  // Exercise the 8-byte, 4-byte and tail paths.
  std::set<uint64_t> hashes;
  std::string s;
  for (int len = 0; len <= 40; ++len) {
    hashes.insert(Hash64(s));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(hashes.size(), 41u);
}

TEST(HashTest, BitsLookUniform) {
  // Count set bits over many hashes; should be near 32 per 64-bit value.
  double total_bits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    uint64_t key = static_cast<uint64_t>(i);
    total_bits += __builtin_popcountll(Hash64(&key, sizeof(key)));
  }
  EXPECT_NEAR(total_bits / n, 32.0, 0.5);
}

TEST(HashTest, Mix64IsBijectiveish) {
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 10000; ++i) out.insert(Mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

// ---------------------------------------------------------- RunningStats --

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.PopulationVariance(), 4.0, 1e-12);
  EXPECT_NEAR(stats.PopulationStdDev(), 2.0, 1e-12);
}

TEST(RunningStatsTest, SymmetricDataHasZeroSkew) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.Add(x);
  EXPECT_NEAR(stats.SkewnessG1(), 0.0, 1e-12);
  EXPECT_NEAR(stats.SkewnessAdjusted(), 0.0, 1e-12);
}

TEST(RunningStatsTest, RightSkewedDataPositive) {
  RunningStats stats;
  for (double x : {1.0, 1.0, 1.0, 1.0, 10.0}) stats.Add(x);
  EXPECT_GT(stats.SkewnessG1(), 0.5);
  // Joanes-Gill adjustment amplifies for small n.
  EXPECT_GT(stats.SkewnessAdjusted(), stats.SkewnessG1());
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Random rng(17);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * rng.NextDouble() * 100.0;
    all.Add(x);
    (i < 500 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.PopulationVariance(), all.PopulationVariance(), 1e-6);
  EXPECT_NEAR(left.SkewnessG1(), all.SkewnessG1(), 1e-6);
}

TEST(RunningStatsTest, SkewnessNanSafeForTinySamples) {
  // n < 3 leaves the adjusted estimator undefined (its sqrt(n(n-1))/(n-2)
  // correction divides by zero at n=2); the accumulator must return finite
  // zeros instead of NaN/inf for n = 0, 1, 2.
  RunningStats stats;
  for (int n = 0; n <= 2; ++n) {
    EXPECT_TRUE(std::isfinite(stats.SkewnessG1())) << "n=" << n;
    EXPECT_TRUE(std::isfinite(stats.SkewnessAdjusted())) << "n=" << n;
    EXPECT_DOUBLE_EQ(stats.SkewnessAdjusted(), 0.0) << "n=" << n;
    stats.Add(static_cast<double>(n) + 1.0);
  }
}

TEST(RunningStatsTest, SkewnessNanSafeForZeroVariance) {
  // Constant samples: m2 == 0, so g1's m2^{3/2} denominator vanishes.
  RunningStats stats;
  for (int i = 0; i < 100; ++i) stats.Add(7.5);
  EXPECT_DOUBLE_EQ(stats.PopulationVariance(), 0.0);
  EXPECT_TRUE(std::isfinite(stats.SkewnessG1()));
  EXPECT_TRUE(std::isfinite(stats.SkewnessAdjusted()));
  EXPECT_DOUBLE_EQ(stats.SkewnessG1(), 0.0);
  EXPECT_DOUBLE_EQ(stats.SkewnessAdjusted(), 0.0);
}

TEST(RunningStatsTest, JoanesGillRegression) {
  // Regression against the definition evaluated directly: for samples X,
  // g1 = m3/m2^{3/2} with population moments, and
  // G1 = g1 * sqrt(n(n-1))/(n-2)  (Joanes & Gill 1998, estimator b).
  const std::vector<double> samples = {1.0, 2.0, 2.5, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : samples) stats.Add(x);

  const double n = static_cast<double>(samples.size());
  double mean = 0.0;
  for (double x : samples) mean += x / n;
  double m2 = 0.0;
  double m3 = 0.0;
  for (double x : samples) {
    const double d = x - mean;
    m2 += d * d / n;
    m3 += d * d * d / n;
  }
  const double g1 = m3 / std::pow(m2, 1.5);
  const double adjusted = g1 * std::sqrt(n * (n - 1.0)) / (n - 2.0);

  EXPECT_NEAR(stats.SkewnessG1(), g1, 1e-12);
  EXPECT_NEAR(stats.SkewnessAdjusted(), adjusted, 1e-12);
  // And the well-known direction/magnitude sanity: this sample is clearly
  // right-skewed and the small-n adjustment amplifies g1.
  EXPECT_GT(g1, 0.9);
  EXPECT_GT(stats.SkewnessAdjusted(), stats.SkewnessG1());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

// ---------------------------------------------------------------- CRC32C --

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 B.4 test vectors.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xFF');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[static_cast<size_t>(i)] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c(std::string_view()), 0u);
}

TEST(Crc32cTest, ExtendComposesOverConcatenation) {
  const std::string a = "hello, ";
  const std::string b = "durability tier";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b), Crc32c(a + b));
  // Byte-at-a-time streaming agrees with the one-shot form.
  uint32_t crc = 0;
  const std::string all = a + b;
  for (char c : all) crc = Crc32cExtend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32c(all));
}

// Finalizes the raw portable kernel the way the public Crc32c does.
uint32_t PortableOneShot(const std::string& buf) {
  return internal::Crc32cPortable(0xFFFFFFFFu, buf.data(), buf.size()) ^
         0xFFFFFFFFu;
}

TEST(Crc32cTest, PortableAgreesWithDispatchedPath) {
  // Exercise every length 0..64 plus a large buffer, so both the
  // word-at-a-time loop and the byte tail are covered on whichever
  // implementation the runtime probe selected.
  Random rng(7);
  std::string buf;
  for (size_t len = 0; len <= 64; ++len) {
    buf.resize(len);
    for (size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<char>(rng.NextBounded(256));
    }
    EXPECT_EQ(Crc32c(buf), PortableOneShot(buf)) << "length " << len;
  }
  buf.resize(1 << 16);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(rng.NextBounded(256));
  }
  EXPECT_EQ(Crc32c(buf), PortableOneShot(buf));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string buf = "the quick brown fox jumps over the lazy dog";
  const uint32_t base = Crc32c(buf);
  for (size_t bit = 0; bit < buf.size() * 8; bit += 13) {
    buf[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    EXPECT_NE(Crc32c(buf), base) << "undetected flip at bit " << bit;
    buf[bit / 8] ^= static_cast<char>(1 << (bit % 8));
  }
}

// ----------------------------------------------------------- TallyShards --

struct TestTally {
  uint64_t events = 0;
  uint64_t weight = 0;
};

TEST(TallyShardsTest, SumsAddedTallies) {
  TallyShards<TestTally> shards;
  EXPECT_EQ(shards.Sum().events, 0u);
  shards.Add({.events = 2, .weight = 5});
  shards.Add({.events = 3});
  EXPECT_EQ(shards.Sum().events, 5u);
  EXPECT_EQ(shards.Sum().weight, 5u);
}

// Eight threads hold eight distinct ids at once, so with a capacity of four
// at least four of them add through the overflow shard; the sums stay exact.
TEST(TallyShardsTest, ThreadsPastCapacityAddExactlyThroughOverflow) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kAdds = 1000;
  TallyShards<TestTally, 4> shards;
  std::latch all_registered(kThreads);
  std::vector<size_t> ids(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ids[t] = ThreadShardId::Get();
      all_registered.arrive_and_wait();
      for (uint64_t i = 0; i < kAdds; ++i) {
        shards.Add({.events = 1, .weight = t});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(std::set<size_t>(ids.begin(), ids.end()).size(), kThreads);
  EXPECT_GE(std::count_if(ids.begin(), ids.end(),
                          [&](size_t id) { return id >= shards.capacity(); }),
            4);
  EXPECT_EQ(shards.Sum().events, kThreads * kAdds);
  EXPECT_EQ(shards.Sum().weight, kAdds * (kThreads * (kThreads - 1) / 2));
}

// A thread that exits returns its id; the next thread takes it over and
// adds on top of the counts left in its shard.
TEST(ThreadShardIdTest, ExitedThreadsIdIsReusedAndItsCountsKept) {
  TallyShards<TestTally> shards;
  size_t first = 0;
  size_t second = 0;
  std::thread([&] {
    first = ThreadShardId::Get();
    shards.Add({.events = 5});
  }).join();
  std::thread([&] {
    second = ThreadShardId::Get();
    shards.Add({.events = 3});
  }).join();
  EXPECT_EQ(second, first);
  EXPECT_LT(first, shards.capacity());
  EXPECT_EQ(shards.Sum().events, 8u);
  // Ids are bounded by the threads alive at once, not by those ever made.
  for (int i = 0; i < 16; ++i) {
    size_t id = 0;
    std::thread([&] { id = ThreadShardId::Get(); }).join();
    EXPECT_EQ(id, first);
  }
}

// --------------------------------------------------------------- Logging --

TEST(LoggingTest, SeverityFilter) {
  const LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_FALSE(DIDO_LOG_ENABLED(Info));
  EXPECT_TRUE(DIDO_LOG_ENABLED(Error));
  SetMinLogSeverity(original);
}

// ---------------------------------------------------------- MappedRegion --

constexpr size_t kHugePage = MappedRegion::kHugePageBytes;
constexpr size_t kSmallPage = MappedRegion::kSmallPageBytes;

uintptr_t Address(const MappedRegion& region) {
  return reinterpret_cast<uintptr_t>(region.data());
}

TEST(MappedRegionTest, LargeRegionsAreHugePageAligned) {
  for (const size_t bytes : {kHugePage, 5 * kHugePage + 512}) {
    MappedRegion region(bytes);
    EXPECT_EQ(Address(region) % kHugePage, 0u) << bytes;
    EXPECT_EQ(region.size(), bytes);
    EXPECT_EQ(region.mapped_bytes() % kHugePage, 0u) << bytes;
    EXPECT_GE(region.mapped_bytes(), bytes);
    EXPECT_LT(region.mapped_bytes() - bytes, kHugePage);
  }
}

TEST(MappedRegionTest, SmallRegionsAreNotRoundedToHugePages) {
  for (const size_t bytes : {size_t{1}, size_t{1} << 20, (size_t{1} << 20) + 512,
                             kHugePage - 1}) {
    MappedRegion region(bytes);
    EXPECT_EQ(Address(region) % kSmallPage, 0u) << bytes;
    EXPECT_EQ(region.mapped_bytes(),
              (bytes + kSmallPage - 1) / kSmallPage * kSmallPage)
        << bytes;
  }
}

TEST(MappedRegionTest, ContentsReadZero) {
  for (const size_t bytes : {size_t{4000}, (size_t{1} << 20) + 512,
                             3 * kHugePage + 8}) {
    MappedRegion region(bytes);
    const uint8_t* data = region.data();
    Random rng(bytes);
    for (int i = 0; i < 512; ++i) {
      const uint64_t offset = rng.NextBounded(bytes);
      ASSERT_EQ(data[offset], 0) << "offset " << offset << " of " << bytes;
    }
    EXPECT_EQ(data[0], 0);
    EXPECT_EQ(data[bytes - 1], 0);
  }
}

TEST(MappedRegionTest, MovedFromRegionIsEmptyAndUnmapsNothing) {
  MappedRegion kept(kSmallPage);
  uint8_t* data = nullptr;
  {
    MappedRegion source(kHugePage);
    data = source.data();
    data[0] = 42;
    data[kHugePage - 1] = 7;
    MappedRegion middle(std::move(source));
    EXPECT_EQ(source.data(), nullptr);
    EXPECT_EQ(source.size(), 0u);
    EXPECT_EQ(source.mapped_bytes(), 0u);
    EXPECT_EQ(middle.data(), data);
    kept = std::move(middle);  // unmaps kept's own small page
    EXPECT_EQ(middle.data(), nullptr);
    EXPECT_EQ(middle.size(), 0u);
  }  // source and middle go out of scope empty
  ASSERT_EQ(kept.data(), data);
  EXPECT_EQ(kept.size(), kHugePage);
  // Still mapped: a moved-from destructor that unmapped would fault here.
  EXPECT_EQ(data[0], 42);
  EXPECT_EQ(data[kHugePage - 1], 7);
}

}  // namespace
}  // namespace dido
