// Tests for the OpenMP loop-schedule calculators.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <type_traits>

#include "runtime/sched.hpp"
#include "support/error.hpp"

namespace ompfuzz::rt {
namespace {

// gtest names each case by a byte dump of its parameter, so the padding is
// spelled out and zeroed: implicit padding put stack bytes into test names.
struct SchedCase {
  constexpr SchedCase(ScheduleKind k, std::int64_t n_, int t, std::int64_t c)
      : kind(k), n(n_), threads(t), chunk(c) {}
  ScheduleKind kind;
  std::array<std::uint8_t, 7> pad0{};
  std::int64_t n;
  int threads;
  std::int32_t pad1 = 0;
  std::int64_t chunk;
};
static_assert(std::has_unique_object_representations_v<SchedCase>);

class ScheduleCoverage : public ::testing::TestWithParam<SchedCase> {};

TEST_P(ScheduleCoverage, EveryIterationAssignedExactlyOnce) {
  const auto p = GetParam();
  const auto chunks = compute_schedule(p.kind, p.n, p.threads, p.chunk);
  std::vector<int> hits(static_cast<std::size_t>(p.n), 0);
  for (const auto& c : chunks) {
    EXPECT_GE(c.thread, 0);
    EXPECT_LT(c.thread, p.threads);
    EXPECT_LT(c.begin, c.end);
    for (auto i = c.begin; i < c.end; ++i) hits[static_cast<std::size_t>(i)]++;
  }
  for (std::int64_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "iteration " << i;
  }
}

TEST_P(ScheduleCoverage, ChunksAreOrderedAndDisjoint) {
  const auto p = GetParam();
  const auto chunks = compute_schedule(p.kind, p.n, p.threads, p.chunk);
  for (std::size_t k = 1; k < chunks.size(); ++k) {
    EXPECT_EQ(chunks[k].begin, chunks[k - 1].end);
  }
  if (!chunks.empty()) {
    EXPECT_EQ(chunks.front().begin, 0);
    EXPECT_EQ(chunks.back().end, p.n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleCoverage,
    ::testing::Values(SchedCase{ScheduleKind::Static, 100, 8, 1},
                      SchedCase{ScheduleKind::Static, 7, 32, 1},
                      SchedCase{ScheduleKind::Static, 32, 32, 1},
                      SchedCase{ScheduleKind::StaticChunked, 100, 8, 7},
                      SchedCase{ScheduleKind::StaticChunked, 10, 3, 100},
                      SchedCase{ScheduleKind::Dynamic, 100, 8, 4},
                      SchedCase{ScheduleKind::Dynamic, 5, 8, 1},
                      SchedCase{ScheduleKind::Guided, 100, 8, 1},
                      SchedCase{ScheduleKind::Guided, 1000, 16, 4}));

TEST(Schedule, StaticBalancedWithinOne) {
  const auto chunks = compute_schedule(ScheduleKind::Static, 30, 8);
  std::vector<std::int64_t> per_thread(8, 0);
  for (const auto& c : chunks) per_thread[static_cast<std::size_t>(c.thread)] += c.size();
  const auto [lo, hi] = std::minmax_element(per_thread.begin(), per_thread.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(Schedule, StaticChunkedDealsRoundRobin) {
  const auto chunks = compute_schedule(ScheduleKind::StaticChunked, 12, 3, 2);
  ASSERT_EQ(chunks.size(), 6u);
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    EXPECT_EQ(chunks[k].thread, static_cast<int>(k % 3));
    EXPECT_EQ(chunks[k].size(), 2);
  }
}

TEST(Schedule, GuidedChunksDecrease) {
  const auto chunks = compute_schedule(ScheduleKind::Guided, 1000, 4, 1);
  for (std::size_t k = 1; k < chunks.size(); ++k) {
    EXPECT_LE(chunks[k].size(), chunks[k - 1].size());
  }
  // First claim is remaining/threads = 250.
  EXPECT_EQ(chunks.front().size(), 250);
}

TEST(Schedule, GuidedRespectsMinimumChunk) {
  const auto chunks = compute_schedule(ScheduleKind::Guided, 100, 4, 10);
  for (std::size_t k = 0; k + 1 < chunks.size(); ++k) {
    EXPECT_GE(chunks[k].size(), 10);
  }
}

TEST(Schedule, EmptyAndDegenerate) {
  EXPECT_TRUE(compute_schedule(ScheduleKind::Static, 0, 4).empty());
  EXPECT_TRUE(compute_schedule(ScheduleKind::Dynamic, -3, 4).empty());
  EXPECT_THROW((void)compute_schedule(ScheduleKind::Static, 10, 0), Error);
  EXPECT_THROW((void)compute_schedule(ScheduleKind::Dynamic, 10, 4, 0), Error);
}

TEST(Schedule, SingleThreadGetsEverything) {
  const auto chunks = compute_schedule(ScheduleKind::Static, 50, 1);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 50);
  EXPECT_EQ(chunks[0].thread, 0);
}

TEST(Schedule, ClaimCountsMatchOverheadModel) {
  // Static: one claim per participating thread; dynamic: one per chunk.
  EXPECT_EQ(claim_count(ScheduleKind::Static, 100, 8), 8u);
  EXPECT_EQ(claim_count(ScheduleKind::Static, 3, 8), 3u);
  EXPECT_EQ(claim_count(ScheduleKind::Dynamic, 100, 8, 4), 25u);
  EXPECT_EQ(claim_count(ScheduleKind::Dynamic, 100, 8, 1), 100u);
  EXPECT_EQ(claim_count(ScheduleKind::Static, 0, 8), 0u);
  // Guided claims far fewer than dynamic chunk=1.
  EXPECT_LT(claim_count(ScheduleKind::Guided, 1000, 8, 1),
            claim_count(ScheduleKind::Dynamic, 1000, 8, 1) / 4);
}

TEST(Schedule, ToStringCoverage) {
  EXPECT_STREQ(to_string(ScheduleKind::Static), "static");
  EXPECT_STREQ(to_string(ScheduleKind::Guided), "guided");
}

}  // namespace
}  // namespace ompfuzz::rt
