// Tests for the lock models' analytic contention curves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "runtime/lock_models.hpp"

namespace ompfuzz::rt {
namespace {

TEST(LockCurves, NoWaitWithOneThread) {
  for (auto alg : {LockAlgorithm::TestAndSet, LockAlgorithm::Ticket,
                   LockAlgorithm::Queuing, LockAlgorithm::FutexMutex}) {
    EXPECT_DOUBLE_EQ(wait_ns_per_entry(alg, 1, 100.0), 0.0);
  }
}

TEST(LockCurves, WaitGrowsWithThreads) {
  for (auto alg : {LockAlgorithm::TestAndSet, LockAlgorithm::Ticket,
                   LockAlgorithm::Queuing, LockAlgorithm::FutexMutex}) {
    double prev = 0.0;
    for (int threads : {2, 4, 8, 16, 32}) {
      const double w = wait_ns_per_entry(alg, threads, 50.0);
      EXPECT_GT(w, prev) << to_string(alg) << " T=" << threads;
      prev = w;
    }
  }
}

TEST(LockCurves, WaitGrowsWithHoldTime) {
  for (auto alg : {LockAlgorithm::TestAndSet, LockAlgorithm::Ticket,
                   LockAlgorithm::Queuing, LockAlgorithm::FutexMutex}) {
    EXPECT_GT(wait_ns_per_entry(alg, 16, 500.0),
              wait_ns_per_entry(alg, 16, 10.0));
  }
}

TEST(LockCurves, TestAndSetDegradesQuadratically) {
  // At zero hold time the TAS curve is pure cache-line contention: going
  // from 8 to 32 threads (~4x waiters) must cost ~16x, not ~4x.
  const double w8 = wait_ns_per_entry(LockAlgorithm::TestAndSet, 9, 0.0);
  const double w32 = wait_ns_per_entry(LockAlgorithm::TestAndSet, 33, 0.0);
  EXPECT_NEAR(w32 / w8, 16.0, 0.5);
}

TEST(LockCurves, FutexIsCheapestAmongVendorLocks) {
  // The vendor-modeled locks: GCC's futex mutex must undercut both Intel's
  // queuing lock and Clang's test-and-set at high contention (the mechanism
  // behind the GCC-fast outliers). The fair ticket spin is cheap too, but no
  // vendor profile uses it for criticals.
  const int t = 32;
  const double hold = 40.0;
  const double futex = wait_ns_per_entry(LockAlgorithm::FutexMutex, t, hold);
  EXPECT_LT(futex * 2.0, wait_ns_per_entry(LockAlgorithm::TestAndSet, t, hold));
  EXPECT_LT(futex * 2.0, wait_ns_per_entry(LockAlgorithm::Queuing, t, hold));
}

TEST(LockCurves, QueuingAndTasComparableAt32Threads) {
  // The calibration invariant behind the GCC-fast outliers: Intel (queuing)
  // and Clang (TAS) must stay alpha-comparable so they form the baseline.
  for (double hold : {10.0, 20.0, 40.0}) {
    const double tas = uncontended_ns(LockAlgorithm::TestAndSet) +
                       wait_ns_per_entry(LockAlgorithm::TestAndSet, 32, hold);
    const double queuing = uncontended_ns(LockAlgorithm::Queuing) +
                           wait_ns_per_entry(LockAlgorithm::Queuing, 32, hold);
    const double ratio = std::fabs(tas - queuing) / std::min(tas, queuing);
    EXPECT_LE(ratio, 0.2) << "hold " << hold;
  }
}

TEST(LockCurves, UncontendedCostsOrdered) {
  // Queuing locks pay queue-node setup even uncontended.
  EXPECT_GT(uncontended_ns(LockAlgorithm::Queuing),
            uncontended_ns(LockAlgorithm::TestAndSet));
}

TEST(LockNames, ToStringCoverage) {
  EXPECT_STREQ(to_string(LockAlgorithm::TestAndSet), "test-and-set");
  EXPECT_STREQ(to_string(LockAlgorithm::Ticket), "ticket");
  EXPECT_STREQ(to_string(LockAlgorithm::Queuing), "queuing");
  EXPECT_STREQ(to_string(LockAlgorithm::FutexMutex), "futex-mutex");
}

}  // namespace
}  // namespace ompfuzz::rt
