// Numerical output comparison for differential testing.
//
// The paper compares the comp value printed by each implementation's binary.
// Equal-looking floating-point results can legitimately differ in the last
// bits when compilers reassociate or contract differently, so comparison is
// ULP- and relative-error-aware, with IEEE special cases (NaN compares equal
// to NaN: both implementations agree the result is invalid).
//
// Section V-B attributes about half of the GCC fast outliers to control-flow
// divergence caused by numerical exceptions: those tests produce *different*
// outputs. analyze_outputs() reproduces that classification: it groups
// outputs into equivalence classes and reports which implementations diverge
// from the majority.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/outlier.hpp"

namespace ompfuzz::core {

struct DiffTolerance {
  std::uint64_t max_ulps = 16;   ///< ULP budget for "same result"
  double max_rel_error = 1e-12;  ///< alternative relative-error budget
};

/// Bitwise (NaN-aware) comparison: the tolerance the campaign applies to the
/// printed outputs, which %.17g round-trips exactly.
[[nodiscard]] constexpr DiffTolerance exact_tolerance() noexcept {
  return DiffTolerance{0, 0.0};
}

/// Comparison of two outputs.
struct OutputComparison {
  bool bitwise_equal = false;
  bool both_nan = false;
  /// UINT64_MAX when not meaningful (NaN/Inf mix); finite distances never
  /// reach it.
  std::uint64_t ulp_distance = std::numeric_limits<std::uint64_t>::max();
  double rel_error = 0.0;
  bool equivalent = false;  ///< the verdict under the tolerance
};

/// Distance in units-in-the-last-place between two finite doubles, using the
/// monotone integer mapping of IEEE-754 (sign-magnitude to offset binary).
/// +0.0 and -0.0 are 0 apart. Unsigned because the widest distance,
/// -DBL_MAX to DBL_MAX, is just under 2^64.
[[nodiscard]] std::uint64_t ulp_distance(double a, double b) noexcept;

[[nodiscard]] OutputComparison compare_outputs(double a, double b,
                                               const DiffTolerance& tol = {}) noexcept;

/// Majority analysis of N outputs: the largest equivalence class is the
/// consensus; every run outside it diverges.
struct OutputDivergence {
  bool all_equivalent = false;
  std::vector<bool> diverges;      ///< per run
  std::size_t majority_size = 0;
};

[[nodiscard]] OutputDivergence analyze_outputs(std::span<const double> outputs,
                                               const DiffTolerance& tol = {});

/// Majority analysis over the Ok runs of one test (the campaign's divergence
/// pass, shared with the reducer's oracle): the returned vector is aligned
/// with `runs`; non-Ok runs are non-divergent placeholders.
[[nodiscard]] OutputDivergence analyze_run_outputs(
    std::span<const RunResult> runs, const DiffTolerance& tol);

/// Time-independent class of one run within its test. This is the signature
/// the test-case reducer preserves: it covers output divergence and
/// correctness outliers but deliberately excludes the Slow/Fast performance
/// verdicts — reduction shrinks run times, so timing outliers are not stable
/// under it.
enum class RunClass : std::uint8_t {
  OkConsensus,  ///< terminated OK, output in the majority class
  OkDivergent,  ///< terminated OK, output diverges from the majority
  Crash,
  Hang,
  Skipped,
};

[[nodiscard]] const char* to_string(RunClass c) noexcept;

/// Per-implementation verdict class of one test: the equality the reducer's
/// interestingness oracle checks. Two run vectors are in the same class iff
/// every implementation lands in the same RunClass.
struct VerdictClass {
  std::vector<RunClass> per_run;  ///< one entry per run, implementation order

  friend bool operator==(const VerdictClass&, const VerdictClass&) = default;

  /// True when this test is worth reporting (and reducing): some Ok run
  /// diverges from the consensus, or an implementation crashed/hanged while
  /// another terminated OK (the paper's correctness outliers, Section IV-C).
  [[nodiscard]] bool divergent() const noexcept;
};

/// Classifies one test's runs. Deterministic, and derived purely from the
/// raw observations — no timing thresholds — so cached, resumed, and freshly
/// executed runs classify identically.
[[nodiscard]] VerdictClass classify_runs(std::span<const RunResult> runs,
                                         const DiffTolerance& tol);

/// Same classification from an already-computed divergence (the campaign
/// stores one per outcome); the tolerance overload delegates here, so there
/// is exactly one status+divergence -> RunClass mapping.
[[nodiscard]] VerdictClass classify_runs(std::span<const RunResult> runs,
                                         const OutputDivergence& divergence);

/// Compact rendering, e.g. "gcc=ok clang=ok/div intel=crash" without names:
/// "ok ok/div crash".
[[nodiscard]] std::string to_string(const VerdictClass& cls);

}  // namespace ompfuzz::core
