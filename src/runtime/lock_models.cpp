#include "runtime/lock_models.hpp"

namespace ompfuzz::rt {

const char* to_string(LockAlgorithm a) noexcept {
  switch (a) {
    case LockAlgorithm::TestAndSet: return "test-and-set";
    case LockAlgorithm::Ticket: return "ticket";
    case LockAlgorithm::Queuing: return "queuing";
    case LockAlgorithm::FutexMutex: return "futex-mutex";
  }
  return "?";
}

double wait_ns_per_entry(LockAlgorithm algorithm, int threads,
                         double hold_ns) noexcept {
  if (threads <= 1) return 0.0;
  const double waiters = static_cast<double>(threads - 1);
  switch (algorithm) {
    case LockAlgorithm::TestAndSet:
      // Every waiter hammers the same line; cache-line ping-pong grows with
      // the square of the waiter count on top of the serialized hold time.
      return waiters * hold_ns * 0.5 + waiters * waiters * 7.5;
    case LockAlgorithm::Ticket:
      // Fair FIFO: each entry waits on average half the queue ahead of it.
      return waiters * 0.5 * (hold_ns + 40.0);
    case LockAlgorithm::Queuing:
      // Local spinning avoids line ping-pong, but the queue handoff installs
      // a fixed latency per waiting thread and queue-maintenance bookkeeping
      // per entry; at high hold times the serialized queue dominates.
      return waiters * 0.6 * hold_ns + waiters * 220.0 + 350.0;
    case LockAlgorithm::FutexMutex:
      // Short spin then sleep: contention adds wake latency amortized over
      // the waiters that actually sleep.
      return waiters * 0.5 * hold_ns + waiters * 60.0;
  }
  return 0.0;
}

double uncontended_ns(LockAlgorithm algorithm) noexcept {
  switch (algorithm) {
    case LockAlgorithm::TestAndSet: return 22.0;
    case LockAlgorithm::Ticket: return 26.0;
    case LockAlgorithm::Queuing: return 95.0;  // queue node setup every entry
    case LockAlgorithm::FutexMutex: return 30.0;
  }
  return 0.0;
}

}  // namespace ompfuzz::rt
