#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "util/binary_io.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/intern_index.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace emd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k: ", 42);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k: 42");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k: 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() -> Status { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    EMD_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto use = [&](bool fail) -> Result<int> {
    int v = 0;
    EMD_ASSIGN_OR_RETURN(v, make(fail));
    return v + 1;
  };
  EXPECT_EQ(*use(false), 6);
  EXPECT_TRUE(use(true).status().IsInternal());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedDrawRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64(17), 17u);
    int v = rng.NextInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(10);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, WeightedSamplingFollowsWeights) {
  Rng rng(12);
  std::vector<double> w = {1, 0, 3};
  int counts[3] = {};
  for (int i = 0; i < 8000; ++i) ++counts[rng.NextWeighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, ZipfIsSkewedAndBounded) {
  Rng rng(13);
  int counts[10] = {};
  for (int i = 0; i < 20000; ++i) {
    size_t k = rng.NextZipf(10, 1.2);
    ASSERT_LT(k, 10u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng a(77), b(77);
  Rng ca = a.Split();
  Rng cb = b.Split();
  EXPECT_EQ(ca.NextU64(), cb.NextU64());
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLowerAscii("AbC1!"), "abc1!");
  EXPECT_EQ(ToUpperAscii("AbC1!"), "ABC1!");
  EXPECT_EQ(Capitalize("cORONAVIRUS"), "Coronavirus");
  EXPECT_TRUE(EqualsIgnoreCase("Andy", "aNDY"));
  EXPECT_FALSE(EqualsIgnoreCase("Andy", "Andi"));
}

TEST(StringUtilTest, CasePredicates) {
  EXPECT_TRUE(IsAllUpper("US"));
  EXPECT_FALSE(IsAllUpper("Us"));
  EXPECT_FALSE(IsAllUpper("12"));  // no alpha
  EXPECT_TRUE(IsAllLower("virus"));
  EXPECT_FALSE(IsAllLower("Virus"));
  EXPECT_TRUE(IsInitialCap("Beshear"));
  EXPECT_FALSE(IsInitialCap("BEshear"));
  EXPECT_TRUE(HasDigit("covid19"));
  EXPECT_FALSE(HasDigit("covid"));
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitKeepEmpty("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(Strip("  hi\n"), "hi");
}

TEST(StringUtilTest, WordShape) {
  EXPECT_EQ(WordShape("McDonald"), "XxXx");
  EXPECT_EQ(WordShape("COVID19"), "Xd");
  EXPECT_EQ(WordShape("covid-19", false), "xxxxxodd");
  std::string shape = "stale contents";
  WordShapeInto("McDonald", &shape);
  EXPECT_EQ(shape, "XxXx");
}

TEST(InternIndexTest, DenseIdsInInsertionOrderAcrossGrowth) {
  InternIndex index;
  EXPECT_EQ(index.Find("absent"), InternIndex::kAbsent);
  std::vector<std::string> keys = {"", "a", "ab", "abc", "A", "\xc3\xa9t\xc3\xa9",
                                   "a much longer key than eight bytes"};
  for (int i = 0; i < 5000; ++i) keys.push_back("k" + std::to_string(i));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Intern(keys[i]), static_cast<int32_t>(i));
  }
  ASSERT_EQ(index.size(), static_cast<int32_t>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.Find(keys[i]), static_cast<int32_t>(i)) << keys[i];
    EXPECT_EQ(index.Intern(keys[i]), static_cast<int32_t>(i));
    EXPECT_EQ(index.key(static_cast<int32_t>(i)), keys[i]);
  }
  EXPECT_EQ(index.size(), static_cast<int32_t>(keys.size()));
  EXPECT_EQ(index.Find("k5000"), InternIndex::kAbsent);
  EXPECT_EQ(index.Find("abcd"), InternIndex::kAbsent);
}

TEST(FileIoTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_io_test.txt").string();
  ASSERT_TRUE(WriteStringToFile(path, "line1\nline2\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "line1\nline2\n");
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[1], "line2");
  std::filesystem::remove(path);
}

TEST(FileIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadFileToString("/nonexistent/emd/file").status().IsIoError());
  EXPECT_FALSE(FileExists("/nonexistent/emd/file"));
}

TEST(Crc32Test, KnownAnswers) {
  // IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(std::string_view("abc")), Crc32("abc", 3));
}

TEST(Crc32Test, SeedChainsIncrementally) {
  const std::string data = "the quick brown fox";
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 7);
  const uint32_t chained = Crc32(data.data() + 7, data.size() - 7, first);
  EXPECT_EQ(chained, whole);
  EXPECT_NE(Crc32(data.data(), data.size(), 1), whole) << "seed matters";
}

TEST(BinaryIoTest, RoundTripsScalarsAndStrings) {
  std::string buf;
  binio::AppendU8(&buf, 7);
  binio::AppendU32(&buf, 0xDEADBEEFu);
  binio::AppendI64(&buf, -42);
  binio::AppendF32(&buf, 1.5f);
  binio::AppendString(&buf, "hello");
  const float floats[3] = {1.f, -2.f, 3.f};
  binio::AppendFloats(&buf, floats, 3);

  binio::Reader r(buf, "test buffer");
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  std::string s;
  float out[3] = {};
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadFloats(out, 3).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(out[1], -2.f);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinaryIoTest, ExhaustedReaderIsCorruption) {
  std::string buf;
  binio::AppendU32(&buf, 3);  // string length prefix promising 3 bytes...
  buf += "ab";                // ...but only 2 present
  binio::Reader r(buf, "short buffer");
  std::string s;
  const Status st = r.ReadString(&s);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("short buffer"), std::string::npos);
  uint64_t v = 0;
  EXPECT_TRUE(binio::Reader("abc", "x").ReadU64(&v).IsCorruption());
}

TEST(FileIoTest, WriteFileAtomicPublishesAndReplaces) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "emd_atomic_util.txt").string();
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace emd
