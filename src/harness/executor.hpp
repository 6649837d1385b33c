// Execution backends for the differential-testing campaign (Fig. 1 b-c).
//
// An Executor runs one generated test under one OpenMP implementation and
// reports the observable outcome (status, time, output). Two backends:
//
//   SimExecutor        — interprets the program under the implementation's
//                        simulated profile (sim_executor.hpp); deterministic,
//                        laptop-fast, used by the paper-reproduction benches.
//   SubprocessExecutor — emits the program to disk, compiles it with a real
//                        compiler command, runs the binary with a timeout;
//                        the paper's actual driver (subprocess_executor.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/findings.hpp"
#include "ast/program.hpp"
#include "core/outlier.hpp"
#include "fp/input_gen.hpp"

namespace ompfuzz::harness {

/// Static-analysis accounting of the generation phase. Campaign::make_test_case
/// tallies the drafts it analyzes into its TestCase, and the campaign sums the
/// per-program tallies in program order — so the numbers are bit-identical
/// across thread counts, backend splits, and resumes, and can live in the
/// report JSON.
struct StaticAnalysisStats {
  int programs_checked = 0;   ///< drafts run through the race analysis
  int programs_filtered = 0;  ///< racy drafts discarded and regenerated
  /// Findings across filtered drafts, indexed by analysis::RaceKind.
  std::array<int, analysis::kNumRaceKinds> findings_by_kind{};
  /// Interval-precision delta: how many accepted drafts the affine-only
  /// baseline would have filtered as racy that value-range analysis proves
  /// clean. Every rescued draft is a regeneration (and its analysis +
  /// generation cost) the campaign did not pay. Zero unless the grammar emits
  /// range-separated subscripts (the `rangeidx` generator feature).
  int interval_rescued_drafts = 0;
  /// Access pairs across all checked drafts proved race-free purely by
  /// interval disjointness (affine subtraction was inconclusive).
  std::uint64_t interval_disjoint_pairs = 0;
  /// `x % c` subscript wrappers the interval engine proved to be identity
  /// rewrites, reclassifying the subscript for the affine test.
  std::uint64_t interval_mod_rewrites = 0;

  StaticAnalysisStats& operator+=(const StaticAnalysisStats& other) noexcept {
    programs_checked += other.programs_checked;
    programs_filtered += other.programs_filtered;
    for (std::size_t k = 0; k < findings_by_kind.size(); ++k) {
      findings_by_kind[k] += other.findings_by_kind[k];
    }
    interval_rescued_drafts += other.interval_rescued_drafts;
    interval_disjoint_pairs += other.interval_disjoint_pairs;
    interval_mod_rewrites += other.interval_mod_rewrites;
    return *this;
  }
};

/// One generated test: a program plus its generated inputs.
struct TestCase {
  ast::Program program;
  ast::ProgramFeatures features;
  std::vector<fp::InputSet> inputs;
  std::uint64_t seed = 0;
  int regeneration_attempts = 0;  ///< racy drafts discarded before this one
  StaticAnalysisStats analysis;   ///< tally of every draft analyzed for it
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs input `input_index` of `test` under implementation `impl_name`.
  [[nodiscard]] virtual core::RunResult run(const TestCase& test,
                                            std::size_t input_index,
                                            const std::string& impl_name) = 0;

  /// Runs every (input, implementation) pair of one test in a single call:
  /// the result vector holds, for each index in `input_indices` in order, one
  /// RunResult per name in `impls` in order (input-major). Semantically
  /// equivalent to looping run() — which is exactly the default
  /// implementation — but a backend that can overlap work (the subprocess
  /// pipeline keeps dozens of compiler/test children in flight) overrides it
  /// to see the whole batch at once. The campaign engine calls this once per
  /// program shard.
  [[nodiscard]] virtual std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) {
    std::vector<core::RunResult> results;
    results.reserve(input_indices.size() * impls.size());
    for (const std::size_t input_index : input_indices) {
      for (const auto& impl : impls) {
        results.push_back(run(test, input_index, impl));
      }
    }
    return results;
  }

  /// Names of the implementations this executor can drive.
  [[nodiscard]] virtual std::vector<std::string> implementations() const = 0;

  /// Cache identity of one implementation for the persistent result store:
  /// a string covering everything besides the (program, input) content that
  /// can change this executor's RunResult — backend kind, compile command
  /// and flags, timeouts, simulated profile parameters. Two executors whose
  /// identity strings match must produce bit-identical results for the same
  /// test, so a cached result can stand in for a real run. The default empty
  /// string means "unknown identity": the campaign then never caches or
  /// reuses results for this executor.
  [[nodiscard]] virtual std::string impl_identity(
      const std::string& impl_name) const {
    (void)impl_name;
    return {};
  }

  /// Releases any on-disk artifacts and cached compile state this executor
  /// still holds for the program with `program_fingerprint` (the subprocess
  /// backend keeps one emitted source + compiled binary per implementation
  /// in its work_dir, plus a binary-cache future). Callers invoke it once a
  /// program's verdicts are safely in the result store — a long reduction
  /// would otherwise leave one source+binary per candidate per impl on disk.
  /// Must not be called while runs of that program are still in flight.
  /// Reclaiming is always safe for correctness: a later request for the same
  /// program re-emits and re-compiles. Default: nothing to reclaim.
  virtual void reclaim_artifacts(std::uint64_t program_fingerprint) {
    (void)program_fingerprint;
  }

  /// True if run() may be called concurrently from multiple threads. The
  /// campaign engine serializes run() calls behind a mutex otherwise, so a
  /// non-thread-safe executor is race-free (just unaccelerated). Note that
  /// with threads > 1 the serialized calls still *arrive* in shard
  /// completion order, not program order — so the campaign's
  /// identical-for-every-thread-count guarantee additionally requires run()
  /// to be a pure function of its arguments (both in-tree executors are).
  /// An executor whose results depend on call order must be driven with
  /// threads = 1.
  [[nodiscard]] virtual bool thread_safe() const noexcept { return false; }
};

}  // namespace ompfuzz::harness
