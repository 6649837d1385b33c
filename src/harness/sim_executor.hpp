// Simulated execution backend: interpreter + vendor runtime profiles.
//
// For each run, the program is interpreted under the implementation's
// floating-point semantics (so control flow may legitimately diverge between
// implementations), the event stream is priced by the implementation's cost
// model, and the fault model decides rare crash/hang outcomes. Every
// decision derives from a hash of (program fingerprint, input, impl), making
// whole campaigns bit-reproducible.
//
// run_batch lowers each program once per contract_fma setting and keeps the
// lowered form, as SubprocessExecutor keeps binaries: a shared future per
// (program fingerprint, contract_fma). The first requester lowers; every
// later run_batch call for the program, on any thread, reuses the result
// until reclaim_artifacts drops it. A campaign calls run_batch once per input
// and reclaims when a program's last input finishes, so each program is
// lowered once however its inputs are spread across workers. run() and
// run_detailed() lower on every call and never touch the cache.
//
// Inside one run_batch call, implementations with equal FpSemantics share
// one interpretation per input: the team size and step budget are fixed per
// executor, so their interpretations are bit-identical. The first such
// implementation interprets; the others price that result with their own
// cost and fault models and run hash (a "memo hit"). Results equal looping
// run() field for field.
//
// Before interpreting an input, run_batch computes interp::min_steps, a
// static lower bound on the steps any completed interpretation of it takes
// (the bound ignores FpSemantics and contract_fma). When that bound exceeds
// max_interp_steps, the interpretation would end over budget for every
// implementation, so each of them gets the Skipped result without one (a
// "static skip"). run() and run_detailed() always interpret.
//
// Every run and every interpretation is counted in the process-wide
// telemetry registry. Per run: sim.runs, sim.over_budget_runs (runs that
// end Skipped), sim.memo_hits (runs priced from a shared interpretation)
// and sim.static_skips (runs whose interpretation the step bound skipped).
// Per interpretation actually performed: sim.steps and the interpretation
// time in the sim.interp_nanos.ok / .over_budget histograms, so the share
// of interpreter time spent on runs whose result is discarded is visible in
// every metrics snapshot. Per lowering actually performed: sim.compiles. Hence
// ok + over_budget histogram counts + sim.memo_hits + sim.static_skips ==
// sim.runs.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <utility>

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
  /// Takes the program's lowered form from the cache (lowering it on first
  /// request, once per contract_fma setting among `impls`), interprets each
  /// input once per FpSemantics class among `impls`, and prices that
  /// interpretation for every implementation of the class. Inputs whose
  /// static step bound exceeds the budget are not interpreted at all.
  /// Results equal looping run().
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

  /// Drops the cached lowered forms of the program (both contract_fma
  /// settings); a later run_batch for it lowers again.
  void reclaim_artifacts(std::uint64_t program_fingerprint) override;

  /// Interpretation, pricing and fault decisions touch only immutable
  /// members and locals; the lowering cache hands out shared futures behind
  /// a short-lived mutex.
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

  /// Full observability for the perf-analysis benches (Tables II/III).
  [[nodiscard]] DetailedRun run_detailed(const TestCase& test,
                                         std::size_t input_index,
                                         const std::string& impl_name);

  [[nodiscard]] const rt::OmpImplProfile& profile(const std::string& name) const;
  [[nodiscard]] const SimExecutorOptions& options() const noexcept { return options_; }

 private:
  /// Interprets `input` under `fp` at this executor's team size and budget.
  [[nodiscard]] interp::InterpResult interpret(const interp::Compiled& lowered,
                                               const fp::InputSet& input,
                                               const interp::FpSemantics& fp) const;
  /// Prices one interpretation for `prof`: fault decision, simulated time,
  /// counters, hang check and status, all keyed by that profile's run hash.
  [[nodiscard]] DetailedRun price(const TestCase& test,
                                  const interp::InterpResult& ir,
                                  std::uint64_t fingerprint,
                                  const fp::InputSet& input,
                                  const rt::OmpImplProfile& prof) const;
  /// Where a run's interpretation comes from.
  enum class Source {
    Interpret,   ///< interpret into `ir`
    Memo,        ///< `ir` already holds this input's interpretation
    StaticSkip,  ///< the step bound proved it over budget: none is made
  };
  /// One run, traced as a sim_run span. Fills `ir` as `source` says, then
  /// prices it.
  [[nodiscard]] DetailedRun run_lowered(const TestCase& test,
                                        const interp::Compiled& lowered,
                                        std::uint64_t fingerprint,
                                        std::size_t input_index,
                                        const rt::OmpImplProfile& prof,
                                        interp::InterpResult& ir,
                                        Source source) const;

  /// The cached lowered form of `program` under `contract_fma`; the first
  /// requester lowers it while later ones wait on the same future.
  [[nodiscard]] std::shared_future<interp::Compiled> lowered(
      const ast::Program& program, std::uint64_t fingerprint, bool contract_fma);

  std::vector<rt::OmpImplProfile> profiles_;
  SimExecutorOptions options_;
  /// Guards lowered_ only — insertion of the future, not the lowering.
  std::mutex lowered_mutex_;
  /// (program fingerprint, contract_fma) -> future lowered form.
  std::map<std::pair<std::uint64_t, bool>, std::shared_future<interp::Compiled>>
      lowered_;
};

}  // namespace ompfuzz::harness
