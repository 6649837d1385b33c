// Tests for ULP/NaN-aware output comparison and majority divergence analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/differ.hpp"

namespace ompfuzz::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(UlpDistance, AdjacentDoublesAreOneApart) {
  const double x = 1.0;
  const double next = std::nextafter(x, 2.0);
  EXPECT_EQ(ulp_distance(x, next), 1u);
  EXPECT_EQ(ulp_distance(next, x), 1u);
}

TEST(UlpDistance, IdenticalValuesAreZeroApart) {
  EXPECT_EQ(ulp_distance(3.14, 3.14), 0u);
}

TEST(UlpDistance, SignedZerosAreZeroApart) {
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
}

TEST(UlpDistance, AcrossZeroCountsBothSides) {
  const double tiny = 5e-324;  // smallest subnormal
  EXPECT_EQ(ulp_distance(tiny, -tiny), 2u);
}

TEST(UlpDistance, KUlpsApart) {
  double x = 2.0;
  double y = x;
  for (int i = 0; i < 10; ++i) y = std::nextafter(y, 3.0);
  EXPECT_EQ(ulp_distance(x, y), 10u);
}

TEST(Compare, BitwiseEqual) {
  const auto c = compare_outputs(1.5, 1.5);
  EXPECT_TRUE(c.bitwise_equal);
  EXPECT_TRUE(c.equivalent);
  EXPECT_EQ(c.ulp_distance, 0u);
}

// Operands 2^63 or more ulps apart compare as equivalent: the verdict the
// campaign reports were recorded with (see compare_outputs). Pinned so that
// changing it is a deliberate change that re-records those references.
TEST(Compare, FarApartAcrossZeroKeepsTheRecordedVerdict) {
  const auto far = compare_outputs(1e298, -1e298, exact_tolerance());
  EXPECT_GE(far.ulp_distance, std::uint64_t{1} << 63);
  EXPECT_TRUE(far.equivalent);
  const auto near = compare_outputs(1.0, -1.0, exact_tolerance());
  EXPECT_EQ(near.ulp_distance, 0x7FE0000000000000ull);
  EXPECT_FALSE(near.equivalent);
}

TEST(Compare, BothNanAreEquivalent) {
  const auto c = compare_outputs(kNaN, -kNaN);
  EXPECT_TRUE(c.both_nan);
  EXPECT_TRUE(c.equivalent);
}

TEST(Compare, NanVsNumberDiverges) {
  EXPECT_FALSE(compare_outputs(kNaN, 1.0).equivalent);
  EXPECT_FALSE(compare_outputs(1.0, kNaN).equivalent);
}

TEST(Compare, InfinitySignMatters) {
  EXPECT_TRUE(compare_outputs(kInf, kInf).equivalent);
  EXPECT_FALSE(compare_outputs(kInf, -kInf).equivalent);
  EXPECT_FALSE(compare_outputs(kInf, 1e308).equivalent);
}

TEST(Compare, WithinUlpToleranceIsEquivalent) {
  DiffTolerance tol;
  tol.max_ulps = 4;
  tol.max_rel_error = 0.0;
  double y = 1.0;
  for (int i = 0; i < 4; ++i) y = std::nextafter(y, 2.0);
  EXPECT_TRUE(compare_outputs(1.0, y, tol).equivalent);
  y = std::nextafter(y, 2.0);
  EXPECT_FALSE(compare_outputs(1.0, y, tol).equivalent);
}

TEST(Compare, RelativeToleranceFallback) {
  DiffTolerance tol;
  tol.max_ulps = 0;
  tol.max_rel_error = 1e-6;
  EXPECT_TRUE(compare_outputs(1000000.0, 1000000.5, tol).equivalent);
  EXPECT_FALSE(compare_outputs(1000000.0, 1000010.0, tol).equivalent);
}

TEST(Compare, ExactToleranceIsBitwise) {
  DiffTolerance exact;
  exact.max_ulps = 0;
  exact.max_rel_error = 0.0;
  EXPECT_TRUE(compare_outputs(2.0, 2.0, exact).equivalent);
  EXPECT_FALSE(compare_outputs(2.0, std::nextafter(2.0, 3.0), exact).equivalent);
  // +0 vs -0: 0 ulps apart -> equivalent even bitwise-wise by ULP metric.
  EXPECT_TRUE(compare_outputs(0.0, -0.0, exact).equivalent);
}

// ------------------------------------------------------------ divergence ---

TEST(Divergence, AllEqualIsConsensus) {
  const std::vector<double> outs = {1.5, 1.5, 1.5};
  const auto d = analyze_outputs(outs);
  EXPECT_TRUE(d.all_equivalent);
  EXPECT_EQ(d.majority_size, 3u);
  for (bool x : d.diverges) EXPECT_FALSE(x);
}

TEST(Divergence, SingleDissenterFlagged) {
  const std::vector<double> outs = {1.5, 1.5, 2.5};
  const auto d = analyze_outputs(outs);
  EXPECT_FALSE(d.all_equivalent);
  EXPECT_EQ(d.majority_size, 2u);
  EXPECT_FALSE(d.diverges[0]);
  EXPECT_FALSE(d.diverges[1]);
  EXPECT_TRUE(d.diverges[2]);
}

TEST(Divergence, NanConsensus) {
  const std::vector<double> outs = {kNaN, kNaN, 3.0};
  const auto d = analyze_outputs(outs);
  EXPECT_EQ(d.majority_size, 2u);
  EXPECT_TRUE(d.diverges[2]);
}

TEST(Divergence, AllDistinctPicksFirstMaximal) {
  const std::vector<double> outs = {1.0, 2.0, 4.0};
  const auto d = analyze_outputs(outs);
  EXPECT_EQ(d.majority_size, 1u);
  EXPECT_FALSE(d.all_equivalent);
}

TEST(Divergence, EmptyAndSingleton) {
  EXPECT_TRUE(analyze_outputs({}).all_equivalent);
  const std::vector<double> one = {7.0};
  const auto d = analyze_outputs(one);
  EXPECT_TRUE(d.all_equivalent);
  EXPECT_FALSE(d.diverges[0]);
}

TEST(Divergence, RespectsTolerance) {
  DiffTolerance exact;
  exact.max_ulps = 0;
  exact.max_rel_error = 0.0;
  const double base = 1976157359951.6069;
  const std::vector<double> outs = {std::nextafter(base, 2e12), base, base};
  const auto strict = analyze_outputs(outs, exact);
  EXPECT_TRUE(strict.diverges[0]);
  const auto lenient = analyze_outputs(outs);  // default 16-ulp budget
  EXPECT_FALSE(lenient.diverges[0]);
}

}  // namespace
}  // namespace ompfuzz::core
