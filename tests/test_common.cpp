// Tests for src/common: RNG determinism and distributions, statistics
// accumulators, hex codec, thread pool, and the IBSEC_CHECK contract
// library.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "common/check.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "support/from_hex.h"

namespace ibsec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kTrials, 5.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(33);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_double() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(9.9);
  h.add(15.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, TracksExactExtremesAcrossMerge) {
  Histogram h(10.0, 10);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty: 0, matching RunningStats
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.add(2.5);
  h.add(15.0);  // overflow still counts toward the extremes
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);

  Histogram other(10.0, 10);
  other.add(0.5);
  h.merge(other);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);

  Histogram empty(10.0, 10);
  h.merge(empty);  // merging an empty histogram must not clobber extremes
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 15.0);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h(100.0, 100);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform_double() * 100);
  const double p50 = h.percentile(0.5);
  const double p90 = h.percentile(0.9);
  const double p99 = h.percentile(0.99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  EXPECT_NEAR(p50, 50.0, 5.0);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xAB, 0xFF, 0x7E};
  EXPECT_EQ(to_hex(data), "0001abff7e");
  EXPECT_EQ(from_hex("0001abff7e"), data);
  EXPECT_EQ(from_hex("0001ABFF7E"), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Hex, AsciiBytes) {
  const auto bytes = ascii_bytes("abc");
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 'a');
  EXPECT_EQ(bytes[2], 'c');
}

TEST(SimTime, SerializationTimeExact) {
  // 1024 bytes at 2.5 Gbps = 8192 bits / 2.5e9 bps = 3276.8 ns.
  EXPECT_EQ(serialization_time_ps(1024, 2'500'000'000LL), 3'276'800);
  // 1 byte at 2.5 Gbps = 3.2 ns exactly.
  EXPECT_EQ(serialization_time_ps(1, 2'500'000'000LL), 3'200);
}

TEST(SimTime, Conversions) {
  using namespace time_literals;
  EXPECT_DOUBLE_EQ(to_microseconds(5 * kMicrosecond), 5.0);
  EXPECT_DOUBLE_EQ(to_nanoseconds(kMicrosecond), 1000.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

// --- contract library (common/check.h) ---------------------------------------

// Captures failures instead of aborting, restoring the previous handler on
// scope exit so an expectation failure never leaks the override.
class CheckCapture {
 public:
  CheckCapture() { prev_ = set_check_failure_handler(&record); }
  ~CheckCapture() { set_check_failure_handler(prev_); }

  static int hits;
  static std::string last_message;
  static std::string last_expr;

 private:
  static void record(const CheckContext& ctx) {
    ++hits;
    last_expr = ctx.expr;
    last_message = ctx.message;
  }
  CheckFailureHandler prev_;
};

int CheckCapture::hits = 0;
std::string CheckCapture::last_message;
std::string CheckCapture::last_expr;

TEST(Check, PassingCheckIsSilent) {
  CheckCapture capture;
  CheckCapture::hits = 0;
  IBSEC_CHECK(1 + 1 == 2) << "never built";
  EXPECT_EQ(CheckCapture::hits, 0);
}

TEST(Check, FailingCheckReportsExpressionAndMessage) {
  CheckCapture capture;
  CheckCapture::hits = 0;
  const std::uint64_t before = check_failure_count();
  const int vl = 3;
  IBSEC_CHECK(vl < 2) << "vl=" << vl << " out of range";
  EXPECT_EQ(CheckCapture::hits, 1);
  EXPECT_EQ(CheckCapture::last_expr, "vl < 2");
  EXPECT_EQ(CheckCapture::last_message, "vl=3 out of range");
  EXPECT_EQ(check_failure_count(), before + 1);
}

TEST(Check, MessageIsLazyOnSuccess) {
  CheckCapture capture;
  int streamed = 0;
  const auto cost = [&streamed] {
    ++streamed;
    return 1;
  };
  IBSEC_CHECK(true) << cost();
  EXPECT_EQ(streamed, 0);  // the stream arm is never evaluated
}

TEST(Check, DcheckMatchesBuildMode) {
  CheckCapture capture;
  CheckCapture::hits = 0;
  IBSEC_DCHECK(false) << "debug-only";
#ifdef NDEBUG
  EXPECT_EQ(CheckCapture::hits, 0);
#else
  EXPECT_EQ(CheckCapture::hits, 1);
#endif
}

TEST(Check, DcheckDoesNotEvaluateConditionInRelease) {
  CheckCapture capture;
  int evaluated = 0;
  const auto probe = [&evaluated] {
    ++evaluated;
    return true;
  };
  IBSEC_DCHECK(probe());
#ifdef NDEBUG
  EXPECT_EQ(evaluated, 0);
#else
  EXPECT_EQ(evaluated, 1);
#endif
}

TEST(CheckDeath, DefaultHandlerAborts) {
  EXPECT_DEATH({ IBSEC_CHECK(false) << "fatal"; }, "IBSEC_CHECK failed");
}

}  // namespace
}  // namespace ibsec
