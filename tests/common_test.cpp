// Unit tests for src/common: IDs, Status/StatusOr, RNG, byte sizes, strings,
// statistics, flags, CRC-32.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "common/bounded_deque.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"

namespace s3 {
namespace {

TEST(StrongIdTest, DefaultIsInvalid) {
  JobId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(JobId(0).valid());
}

TEST(StrongIdTest, EqualityAndOrdering) {
  EXPECT_EQ(JobId(3), JobId(3));
  EXPECT_NE(JobId(3), JobId(4));
  EXPECT_LT(JobId(3), JobId(4));
}

TEST(StrongIdTest, StreamsWithPrefix) {
  std::ostringstream os;
  os << JobId(7) << ' ' << NodeId(2);
  EXPECT_EQ(os.str(), "job-7 node-2");
}

TEST(StrongIdTest, HashableDistinct) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 100; ++i) {
    hashes.insert(std::hash<JobId>{}(JobId(i)));
  }
  EXPECT_GT(hashes.size(), 95u);  // no mass collisions
}

TEST(IdGeneratorTest, Monotonic) {
  IdGenerator<TaskId> gen;
  EXPECT_EQ(gen.next(), TaskId(0));
  EXPECT_EQ(gen.next(), TaskId(1));
  EXPECT_EQ(gen.issued(), 2u);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::not_found("missing thing");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_NE(s.to_string().find("NOT_FOUND"), std::string::npos);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::internal("boom");
  EXPECT_FALSE(v.is_ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.is_ok());
  auto p = std::move(v).value();
  EXPECT_EQ(*p, 5);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformU64Bounded) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_u64(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.1);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(7);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(ZipfSamplerTest, RankZeroMostFrequent) {
  ZipfSampler zipf(100, 1.1);
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // Every sampled index is in range and the head dominates.
  EXPECT_GT(counts[0], 20000 / 20);
}

TEST(ByteSizeTest, ConstructorsAndAccessors) {
  EXPECT_EQ(ByteSize::mib(64).count(), 64ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(ByteSize::gib(2).as_gib(), 2.0);
  EXPECT_DOUBLE_EQ(ByteSize::mib(512).as_mib(), 512.0);
}

TEST(ByteSizeTest, ArithmeticAndComparison) {
  EXPECT_EQ(ByteSize::kib(1) + ByteSize::kib(1), ByteSize::kib(2));
  EXPECT_EQ(ByteSize::kib(4) * 2, ByteSize::kib(8));
  EXPECT_LT(ByteSize::mib(1), ByteSize::gib(1));
}

TEST(ByteSizeTest, HumanFormatting) {
  EXPECT_EQ(ByteSize(512).to_string(), "512 B");
  EXPECT_NE(ByteSize::mib(64).to_string().find("MiB"), std::string::npos);
  EXPECT_NE(ByteSize::gib(3).to_string().find("GiB"), std::string::npos);
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(StringsTest, FormatDoubleAndPadding) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_right("abcd", 2), "ab");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(format_duration(5.25), "5.2s");
  EXPECT_EQ(format_duration(65.0), "1m 5.0s");
  EXPECT_EQ(format_duration(3725.0), "1h 2m 5.0s");
}

TEST(OnlineStatsTest, WelfordMatchesDirect) {
  OnlineStats stats;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 100};
  double sum = 0;
  for (double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-9);
  EXPECT_EQ(stats.min(), 1);
  EXPECT_EQ(stats.max(), 100);
}

TEST(OnlineStatsTest, MergeEqualsSinglePass) {
  OnlineStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SampleSetTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSetTest, EmptyAndSingle) {
  SampleSet s;
  EXPECT_EQ(s.percentile(50), 0.0);
  s.add(7.0);
  EXPECT_EQ(s.percentile(50), 7.0);
  EXPECT_EQ(s.min(), 7.0);
  EXPECT_EQ(s.max(), 7.0);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[4], 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(FlagsTest, ParsesAllForms) {
  // Note: a bare word after "--flag" binds as its value, so positional
  // arguments must precede boolean switches (or use --flag=true).
  const char* argv[] = {"prog", "positional", "--alpha=1.5", "--name", "test",
                        "--verbose"};
  const Flags flags = Flags::parse(6, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha"), 1.5);
  EXPECT_EQ(flags.get_string("name"), "test");
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_FALSE(flags.get_bool("absent"));
  EXPECT_EQ(flags.get_int("absent", 9), 9);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.program(), "prog");
}

TEST(FlagsTest, ExplicitBooleanBeforePositional) {
  const char* argv[] = {"prog", "--verbose=true", "positional"};
  const Flags flags = Flags::parse(3, argv);
  EXPECT_TRUE(flags.get_bool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
}

TEST(BoundedDequeTest, PushBackRefusesBeyondCapacity) {
  BoundedDeque<int> d(2);
  EXPECT_TRUE(d.push_back(1));
  EXPECT_TRUE(d.push_back(2));
  EXPECT_TRUE(d.full());
  EXPECT_FALSE(d.push_back(3));  // refused, not silently grown
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.front(), 1);
}

TEST(BoundedDequeTest, PopFreesCapacity) {
  BoundedDeque<int> d(1);
  EXPECT_TRUE(d.push_back(7));
  EXPECT_EQ(d.pop_front(), 7);
  EXPECT_TRUE(d.empty());
  EXPECT_TRUE(d.push_back(8));
  EXPECT_EQ(d.pop_back(), 8);
}

TEST(BoundedDequeTest, EraseAtRemovesMiddleElement) {
  BoundedDeque<int> d(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(d.push_back(i));
  d.erase_at(2);
  ASSERT_EQ(d.size(), 3u);
  std::vector<int> got(d.begin(), d.end());
  EXPECT_EQ(got, (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(d.push_back(9));  // the erased slot is reusable
}

TEST(BoundedDequeTest, ShrinkingCapacityKeepsExistingItems) {
  BoundedDeque<int> d(4);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(d.push_back(i));
  d.set_capacity(2);  // over capacity now: keeps items, refuses new ones
  EXPECT_EQ(d.size(), 3u);
  EXPECT_FALSE(d.push_back(9));
  (void)d.pop_front();
  (void)d.pop_front();
  EXPECT_TRUE(d.push_back(9));
}

// Bit-at-a-time CRC-32 (reflected IEEE polynomial, no table): the oracle
// for any faster s3::crc32.
std::uint32_t crc32_bitwise(std::string_view data) {
  std::uint32_t crc = 0xffffffffU;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) != 0 ? 0xedb88320U : 0U);
    }
  }
  return crc ^ 0xffffffffU;
}

TEST(Crc32Test, KnownAnswers) {
  // Check values from zlib.crc32.
  EXPECT_EQ(crc32(""), 0x00000000U);
  EXPECT_EQ(crc32("a"), 0xe8b7be43U);
  EXPECT_EQ(crc32("abc"), 0x352441c2U);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926U);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414fa339U);
}

TEST(Crc32Test, MatchesBitwiseReference) {
  constexpr std::size_t kMaxLength = 64 * 1024;
  // The e2e_ledger's two block sizes.
  constexpr std::size_t kBlockLengths[] = {256 * 1024, 1024 * 1024};
  Rng rng(0xc5c32);
  std::string buffer(kBlockLengths[1] + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.next() & 0xffU);
  // Every short length at every start offset 0-7 (alignment and tail
  // handling), then random lengths up to 64 KiB, then whole blocks.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << offset << " length " << length;
    }
  }
  for (int i = 0; i < 32; ++i) {
    const std::size_t offset = rng.uniform_u64(8);
    const std::size_t length = rng.uniform_u64(kMaxLength + 1);
    const std::string_view data(buffer.data() + offset, length);
    ASSERT_EQ(crc32(data), crc32_bitwise(data))
        << "offset " << offset << " length " << length;
  }
  for (const std::size_t length : kBlockLengths) {
    const std::size_t offset = rng.uniform_u64(8);
    const std::string_view data(buffer.data() + offset, length);
    ASSERT_EQ(crc32(data), crc32_bitwise(data))
        << "offset " << offset << " length " << length;
  }
}

}  // namespace
}  // namespace s3
