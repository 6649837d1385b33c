#include "harness/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

/// One batch of units for one backend: `programs` × `inputs` units, claimed
/// program-major so each program's inputs go out in order. Workers (owner
/// and thieves alike) claim units with a single fetch_add on `next`, so a
/// unit is executed exactly once no matter how many workers scan the batch.
struct Batch {
  std::size_t backend = 0;
  std::size_t inputs = 0;
  std::vector<int> programs;
  std::atomic<std::size_t> next{0};
  /// Worker id that popped the batch from the FIFO; units claimed by any
  /// other worker count as stolen. Relaxed: only stats read it.
  std::atomic<int> owner{-1};

  [[nodiscard]] std::size_t size() const noexcept { return programs.size() * inputs; }
  [[nodiscard]] ShardUnit unit(std::size_t k) const {
    return ShardUnit{programs[k / inputs], k % inputs, backend};
  }
};

/// Mirrors one run's SchedulerStats into the telemetry registry, so the
/// scheduler summary can render from a metrics snapshot. Counters accumulate
/// across runs (snapshot deltas scope them); the per-backend unit gauges are
/// instantaneous and describe the most recent run.
void publish_stats(const SchedulerStats& stats) {
  auto& registry = telemetry::Registry::global();
  registry.counter("scheduler.batches").add(stats.batches);
  registry.counter("scheduler.units").add(stats.units);
  registry.counter("scheduler.stolen_units").add(stats.stolen_units);
  for (std::size_t b = 0; b < stats.units_per_backend.size(); ++b) {
    registry.gauge("scheduler.backend." + std::to_string(b) + ".units")
        .set(static_cast<std::int64_t>(stats.units_per_backend[b]));
  }
}

}  // namespace

ShardScheduler::ShardScheduler(std::size_t num_backends,
                               const SchedulerConfig& config,
                               std::size_t threads)
    : num_backends_(num_backends), config_(config),
      threads_(std::max<std::size_t>(1, threads)) {
  config_.validate();
  OMPFUZZ_CHECK(num_backends_ >= 1, "scheduler needs at least one backend");
}

SchedulerStats ShardScheduler::run(
    const std::vector<std::vector<int>>& programs_per_backend,
    std::size_t inputs_per_program, const RunUnitFn& run_unit) const {
  OMPFUZZ_CHECK(programs_per_backend.size() == num_backends_,
                "scheduler backend count mismatch");
  OMPFUZZ_CHECK(inputs_per_program >= 1, "scheduler needs an input per program");
  SchedulerStats stats;
  stats.units_per_backend.assign(num_backends_, 0);

  // Form batches: each backend's pending programs, in program order, cut
  // into runs of batch_size, each program with all its inputs. Backend-major
  // order — the FIFO hands every worker the next unstarted batch regardless
  // of backend, and stealing erases any imbalance the ordering leaves.
  const auto batch_size = static_cast<std::size_t>(config_.batch_size);
  std::vector<std::unique_ptr<Batch>> batches;
  for (std::size_t b = 0; b < num_backends_; ++b) {
    const auto& programs = programs_per_backend[b];
    const std::size_t units = programs.size() * inputs_per_program;
    stats.units += units;
    stats.units_per_backend[b] += units;
    for (std::size_t start = 0; start < programs.size(); start += batch_size) {
      auto batch = std::make_unique<Batch>();
      batch->backend = b;
      batch->inputs = inputs_per_program;
      const std::size_t end = std::min(programs.size(), start + batch_size);
      batch->programs.assign(programs.begin() + static_cast<std::ptrdiff_t>(start),
                             programs.begin() + static_cast<std::ptrdiff_t>(end));
      batches.push_back(std::move(batch));
    }
  }
  stats.batches = batches.size();
  if (batches.empty()) {
    publish_stats(stats);
    return stats;
  }

  std::atomic<std::size_t> next_batch{0};
  std::atomic<std::uint64_t> stolen{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto record_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  if (threads_ <= 1) {
    // Inline serial path: deterministic batch order, no worker threads (and
    // no mutex around a non-thread-safe executor needed upstream). Same
    // exception contract as the threaded path: every unit still runs (and
    // reaches the caller's journal) before the first error rethrows, so
    // crash-resume progress does not depend on the thread count.
    for (const auto& batch : batches) {
      for (std::size_t k = 0; k < batch->size(); ++k) {
        try {
          run_unit(batch->unit(k));
        } catch (...) {
          record_error();
        }
      }
    }
    publish_stats(stats);
    if (first_error) std::rethrow_exception(first_error);
    return stats;
  }

  const auto worker = [&](int id) {
    // Phase 1 — own batches: pop the next unstarted batch off the FIFO and
    // drain it, each program's inputs in order. The per-batch cursor (not a
    // partition) claims units, so thieves can already be helping with this
    // batch.
    for (;;) {
      const std::size_t bi = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (bi >= batches.size()) break;
      Batch& batch = *batches[bi];
      batch.owner.store(id, std::memory_order_relaxed);
      for (;;) {
        const std::size_t k = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (k >= batch.size()) break;
        try {
          run_unit(batch.unit(k));
        } catch (...) {
          record_error();
        }
      }
    }
    if (!config_.steal) return;
    // Phase 2 — steal: every batch has an owner by now (the FIFO is empty),
    // so any unit still unclaimed sits in a batch some straggler is working
    // through — often the remaining inputs of the very program the owner is
    // running. One sweep suffices: a batch whose cursor is past the end
    // stays that way, and claiming is idempotent-per-unit.
    for (const auto& batch_ptr : batches) {
      Batch& batch = *batch_ptr;
      for (;;) {
        const std::size_t k = batch.next.fetch_add(1, std::memory_order_relaxed);
        if (k >= batch.size()) break;
        const ShardUnit unit = batch.unit(k);
        if (batch.owner.load(std::memory_order_relaxed) != id) {
          stolen.fetch_add(1, std::memory_order_relaxed);
          if (telemetry::Tracer::instance().active()) {
            telemetry::Tracer::instance().instant(
                "steal", "steal",
                "\"program\":" + std::to_string(unit.program_index) +
                    ",\"input\":" + std::to_string(unit.input_index) +
                    ",\"backend\":" + std::to_string(unit.backend) +
                    ",\"thief\":" + std::to_string(id));
          }
        }
        try {
          run_unit(unit);
        } catch (...) {
          record_error();
        }
      }
    }
  };

  const std::size_t worker_count = std::min(threads_, stats.units);
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back(worker, static_cast<int>(w));
  }
  for (auto& thread : workers) thread.join();

  stats.stolen_units = stolen.load(std::memory_order_relaxed);
  publish_stats(stats);
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace ompfuzz::harness
