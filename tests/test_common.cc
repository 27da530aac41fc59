#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/dynamic_bitset.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace tq {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::IOError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.ToString(), "IOError: disk on fire");
}

TEST(Status, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::IOError("x").code(),         Status::OutOfRange("x").code(),
      Status::AlreadyExists("x").code(),   Status::Unimplemented("x").code(),
      Status::Internal("x").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextU64() == b.NextU64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  size_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(100, 1.2) < 10) ++low;
  }
  // With s=1.2 the first 10 of 100 ranks carry well over half the mass.
  EXPECT_GT(low, static_cast<size_t>(n / 2));
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(DynamicBitset, SetTestClear) {
  DynamicBitset b(130);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitset, CountNewFrom) {
  DynamicBitset a(100), b(100);
  a.Set(5);
  b.Set(5);
  b.Set(6);
  b.Set(99);
  EXPECT_EQ(a.CountNewFrom(b), 2u);
  EXPECT_EQ(b.CountNewFrom(a), 0u);
}

TEST(DynamicBitset, AllAndReset) {
  DynamicBitset b(3);
  b.Set(0);
  b.Set(1);
  EXPECT_FALSE(b.All());
  b.Set(2);
  EXPECT_TRUE(b.All());
  b.Reset();
  EXPECT_TRUE(b.None());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  ASSERT_GT(sink, 0.0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  const double ms = t.ElapsedMillis();
  EXPECT_FALSE(std::isnan(ms));
}

}  // namespace
}  // namespace tq
