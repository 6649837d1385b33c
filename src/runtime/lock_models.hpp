// Lock algorithms used by OpenMP critical-section implementations.
//
// Analytic contention models (wait_ns_per_entry) used by the cost model to
// price critical sections per vendor — GCC's libgomp uses a spin-then-futex
// mutex, Intel's libiomp5 a queuing lock (__kmp_acquire_queuing_lock, the
// function in the paper's Fig. 8 backtrace), Clang's libomp a test-and-set
// with backoff.
#pragma once

#include <cstdint>

namespace ompfuzz::rt {

enum class LockAlgorithm : std::uint8_t {
  TestAndSet,  ///< spin on an atomic flag with exponential backoff
  Ticket,      ///< FIFO ticket lock
  Queuing,     ///< MCS-style queue lock (Intel __kmp_acquire_queuing_lock)
  FutexMutex,  ///< spin briefly, then sleep (GCC gomp_mutex_lock_slow)
};

[[nodiscard]] const char* to_string(LockAlgorithm a) noexcept;

/// Expected wait time per critical-section entry, given the team size and
/// the average lock hold time. Analytic shapes:
///   TestAndSet — waiters collide on one cache line: O(T^2) traffic term;
///   Ticket     — fair FIFO: waiters serialize, ~ (T-1)/2 * hold;
///   Queuing    — local spinning, but handoff latency per waiter plus queue
///                maintenance overhead on every entry;
///   FutexMutex — cheap when uncontended; sleeping waiters pay wake latency.
[[nodiscard]] double wait_ns_per_entry(LockAlgorithm algorithm, int threads,
                                       double hold_ns) noexcept;

/// Uncontended acquire+release cost.
[[nodiscard]] double uncontended_ns(LockAlgorithm algorithm) noexcept;

}  // namespace ompfuzz::rt
