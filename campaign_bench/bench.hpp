// Shared pieces of the campaign_bench program: run options, the record of one
// measured campaign call, correctness bookkeeping, and clocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "workload.hpp"

namespace campaign_bench {

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  int programs = 0;   ///< programs per call (the workload's size unless overridden)
  int max_calls = 0;  ///< 0 = as many as fit in `seconds`
  /// Campaign seeds of the calls, in order; empty = call_seed(seed, call).
  /// When given, at most this many calls run.
  std::vector<std::uint64_t> call_seeds;
  std::string work_dir;
  std::string report_out;  ///< when set, call 0's report is written here
};

/// Campaign seed of call `call` of a run.
[[nodiscard]] std::uint64_t campaign_seed_of(const RunOptions& options, int call);

/// One measured campaign call.
struct CallRecord {
  std::uint64_t campaign_seed = 0;
  int tests = 0;
  int runs = 0;
  double wall_s = 0;       ///< Campaign::run + to_json
  double cpu_s = 0;        ///< user+sys over the same interval (children included)
  double peak_rss_mb = 0;  ///< largest resident set over the same interval
  std::string digest;      ///< of the report (see check_real_runs for real-gxx)
  /// The first call of a run that draws calls until its time is up: checked,
  /// but not timed into the metrics (it pages in code and grows the heap).
  bool warmup = false;
};

/// Correctness bookkeeping of a whole run. A run "fails" when the harness
/// could not produce it (harness_failure, compile failure, timeout) or its
/// result differs from an independent recomputation.
struct Checks {
  int attempted = 0;
  int failed = 0;
  int checked = 0;    ///< runs compared against a recomputation
  int unchecked = 0;  ///< runs the oracle could not recompute (over budget)
  /// Real-toolchain runs whose output differs from the interpreter's while
  /// most runs of their call agree (see check_real_runs): not a failure.
  int interp_mismatch = 0;
  std::vector<std::string> problems;
  std::vector<std::string> notes;

  void problem(std::string what);
  void note(std::string what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+sys CPU seconds of this process, plus its waited-for children.
[[nodiscard]] double cpu_seconds();

/// Peak resident set of this process in MiB since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();

/// Restarts the peak_rss_mb() high-water mark at the current resident set.
void reset_peak_rss();

/// Calls `body(call)` for call = 0, 1, ... up to `max_calls`, stopping
/// before a call that would overrun `seconds` unless `whole_list`.
void for_each_call(const RunOptions& options, bool whole_list,
                   const std::function<void(int)>& body);

/// Runs call `call` of the workload (set-up, measured Campaign::run +
/// to_json, correctness checks, clean-up) and appends its record.
CallRecord measure_call(const RunOptions& options, int call, Checks& checks);

/// Real toolchains: compares every Ok run's output with the interpreter's
/// and returns the digest of the report's reproducible part — each test's
/// program and input, and each run's status. Single-thread teams leave
/// OpenMP no ordering freedom, so a well-defined program prints the
/// interpreter's value bit for bit. Generated programs can read
/// uninitialized variables, though, and then print values that differ
/// between builds and between runs of one -O0 binary; such runs are counted
/// in `interp_mismatch` and noted, not failed — unless they are most of the
/// call's runs, which points at the harness rather than at a few programs.
[[nodiscard]] std::string check_real_runs(const ompfuzz::harness::Campaign& campaign,
                                          const ompfuzz::harness::CampaignResult& result,
                                          Checks& checks);

/// The per-layer metrics of the traced replay (trace mode): the untraced
/// calls it measured for comparison are appended to `calls`.
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};
[[nodiscard]] std::vector<LayerMetric> run_traced(const RunOptions& options,
                                                  std::vector<CallRecord>& calls,
                                                  Checks& checks);

/// Interpreter steps of each program of the campaign with `campaign_seed`:
/// a machine-independent measure of a simulated call's work.
[[nodiscard]] std::vector<std::uint64_t> interp_steps(const RunOptions& options,
                                                      std::uint64_t campaign_seed);

}  // namespace campaign_bench
