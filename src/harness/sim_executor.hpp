// Simulated execution backend: interpreter + vendor runtime profiles.
//
// For each run, the program is interpreted under the implementation's
// floating-point semantics (so control flow may legitimately diverge between
// implementations), the event stream is priced by the implementation's cost
// model, and the fault model decides rare crash/hang outcomes. Every
// decision derives from a hash of (program fingerprint, input, impl), making
// whole campaigns bit-reproducible.
//
// Each run is counted in the process-wide telemetry registry: sim.runs,
// sim.over_budget_runs, sim.steps, sim.compiles (programs lowered), and the
// interpretation time in the sim.interp_nanos.ok / .over_budget histograms —
// so the share of interpreter time spent on runs whose result is discarded
// is visible in every metrics snapshot.
#pragma once

#include <optional>

#include "harness/executor.hpp"
#include "interp/interp.hpp"
#include "runtime/fault_model.hpp"
#include "runtime/impl_profile.hpp"
#include "runtime/perf_counters.hpp"

namespace ompfuzz::harness {

/// Everything the case-study analysis needs about one simulated run.
struct DetailedRun {
  core::RunResult result;
  interp::EventCounts events;
  rt::TimeBreakdown time;
  rt::PerfCounters counters;
  rt::FaultDecision fault;
};

/// Version of the interpreter's observable semantics. SimExecutor stamps it
/// into impl_identity, so persistent store and journal keys change whenever
/// the semantics do; tests/test_interp_golden.cpp keys its golden digests by
/// it. Bump it together with a new golden entry whenever a digest moves.
inline constexpr int kSimEngineVersion = 1;

struct SimExecutorOptions {
  int num_threads = 32;                      ///< team size (Section V-A uses 32)
  std::int64_t hang_timeout_us = 180'000'000;///< 3 minutes, as in Case Study 3
  std::uint64_t max_interp_steps = 4'000'000;
};

class SimExecutor final : public Executor {
 public:
  /// Uses the three built-in vendor profiles by default.
  explicit SimExecutor(SimExecutorOptions options = {});
  SimExecutor(std::vector<rt::OmpImplProfile> profiles, SimExecutorOptions options);

  [[nodiscard]] core::RunResult run(const TestCase& test, std::size_t input_index,
                                    const std::string& impl_name) override;
  /// Lowers the program once per batch (once per contract_fma setting among
  /// `impls`) and runs every (input, implementation) pair on that lowered
  /// form. Results equal looping run().
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override;
  [[nodiscard]] std::vector<std::string> implementations() const override;

  /// Backend kind + profile name + every SimExecutorOptions knob + the
  /// engine version. Assumes a profile name denotes one fixed parameter set
  /// (true for the built-in vendor profiles); campaigns that hand-perturb
  /// profile fields (the ablation benches) should not share a persistent
  /// result store.
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override;

  /// Stateless run path: interpretation, pricing, and fault decisions touch
  /// only immutable members and locals.
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

  /// Full observability for the perf-analysis benches (Tables II/III).
  [[nodiscard]] DetailedRun run_detailed(const TestCase& test,
                                         std::size_t input_index,
                                         const std::string& impl_name);

  [[nodiscard]] const rt::OmpImplProfile& profile(const std::string& name) const;
  [[nodiscard]] const SimExecutorOptions& options() const noexcept { return options_; }

 private:
  [[nodiscard]] DetailedRun run_lowered(const TestCase& test,
                                        const interp::Compiled& lowered,
                                        std::uint64_t fingerprint,
                                        std::size_t input_index,
                                        const std::string& impl_name) const;

  std::vector<rt::OmpImplProfile> profiles_;
  SimExecutorOptions options_;
};

}  // namespace ompfuzz::harness
