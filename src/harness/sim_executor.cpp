#include "harness/sim_executor.hpp"

#include "runtime/cost_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

/// Registered once; bumped once per run or compile, never per step.
struct SimMetrics {
  telemetry::Counter& runs;
  telemetry::Counter& over_budget_runs;
  telemetry::Counter& steps;
  telemetry::Counter& compiles;
  telemetry::Histogram& interp_nanos_ok;
  telemetry::Histogram& interp_nanos_over_budget;
};

SimMetrics& sim_metrics() {
  auto& r = telemetry::Registry::global();
  static SimMetrics metrics{r.counter("sim.runs"),
                            r.counter("sim.over_budget_runs"),
                            r.counter("sim.steps"),
                            r.counter("sim.compiles"),
                            r.histogram("sim.interp_nanos.ok"),
                            r.histogram("sim.interp_nanos.over_budget")};
  return metrics;
}

interp::Compiled lower(const ast::Program& program, bool contract_fma) {
  sim_metrics().compiles.add();
  return interp::compile(program, contract_fma);
}

}  // namespace

SimExecutor::SimExecutor(SimExecutorOptions options)
    : SimExecutor({rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()},
                  options) {}

SimExecutor::SimExecutor(std::vector<rt::OmpImplProfile> profiles,
                         SimExecutorOptions options)
    : profiles_(std::move(profiles)), options_(options) {
  OMPFUZZ_CHECK(!profiles_.empty(), "SimExecutor needs at least one profile");
}

const rt::OmpImplProfile& SimExecutor::profile(const std::string& name) const {
  for (const auto& p : profiles_) {
    if (p.name == name) return p;
  }
  throw Error("unknown implementation: " + name);
}

std::string SimExecutor::impl_identity(const std::string& impl_name) const {
  const rt::OmpImplProfile& p = profile(impl_name);
  // compiler/runtime_lib distinguish the base vendor profile even when the
  // campaign renames it (campaign_demo maps config names onto profiles).
  return "sim;profile=" + p.name + ";compiler=" + p.compiler +
         ";runtime=" + p.runtime_lib +
         ";num_threads=" + std::to_string(options_.num_threads) +
         ";hang_timeout_us=" + std::to_string(options_.hang_timeout_us) +
         ";max_interp_steps=" + std::to_string(options_.max_interp_steps) +
         ";sim_engine_version=" + std::to_string(kSimEngineVersion);
}

std::vector<std::string> SimExecutor::implementations() const {
  std::vector<std::string> names;
  names.reserve(profiles_.size());
  for (const auto& p : profiles_) names.push_back(p.name);
  return names;
}

DetailedRun SimExecutor::run_detailed(const TestCase& test,
                                      std::size_t input_index,
                                      const std::string& impl_name) {
  const interp::Compiled lowered =
      lower(test.program, profile(impl_name).fp.contract_fma);
  return run_lowered(test, lowered, test.program.fingerprint(), input_index,
                     impl_name);
}

std::vector<core::RunResult> SimExecutor::run_batch(
    const TestCase& test, const std::vector<std::size_t>& input_indices,
    const std::vector<std::string>& impls) {
  // Lowered forms live for this batch only, indexed by contract_fma.
  std::optional<interp::Compiled> lowered[2];
  const std::uint64_t fingerprint = test.program.fingerprint();
  std::vector<core::RunResult> results;
  results.reserve(input_indices.size() * impls.size());
  for (const std::size_t input_index : input_indices) {
    for (const auto& impl : impls) {
      const bool fma = profile(impl).fp.contract_fma;
      std::optional<interp::Compiled>& slot = lowered[fma ? 1 : 0];
      if (!slot) slot.emplace(lower(test.program, fma));
      results.push_back(
          run_lowered(test, *slot, fingerprint, input_index, impl).result);
    }
  }
  return results;
}

DetailedRun SimExecutor::run_lowered(const TestCase& test,
                                     const interp::Compiled& lowered,
                                     std::uint64_t fingerprint,
                                     std::size_t input_index,
                                     const std::string& impl_name) const {
  OMPFUZZ_CHECK(input_index < test.inputs.size(), "input index out of range");
  telemetry::ScopedSpan span("run", "sim_run");
  if (span.active()) {
    span.arg("fingerprint", telemetry::hex_fingerprint(fingerprint));
    span.arg("impl", impl_name);
    span.arg("input", static_cast<std::uint64_t>(input_index));
  }
  const rt::OmpImplProfile& prof = profile(impl_name);
  const fp::InputSet& input = test.inputs[input_index];

  DetailedRun out;
  out.result.impl = impl_name;

  // Deterministic per-(program, input, impl) identity.
  const std::uint64_t run_hash =
      hash_combine(hash_combine(fingerprint, input.hash()), fnv1a64(impl_name));

  interp::InterpOptions iopt;
  iopt.fp = prof.fp;
  iopt.num_threads_override = options_.num_threads;
  iopt.max_steps = options_.max_interp_steps;
  const std::uint64_t start_ns = telemetry::Tracer::now_ns();
  const interp::InterpResult ir = interp::execute(lowered, input, iopt);
  const std::uint64_t interp_ns = telemetry::Tracer::now_ns() - start_ns;
  out.events = ir.events;

  SimMetrics& metrics = sim_metrics();
  metrics.runs.add();
  metrics.steps.add(ir.steps);
  if (ir.over_budget) {
    metrics.over_budget_runs.add();
    metrics.interp_nanos_over_budget.record(interp_ns);
    out.result.status = core::RunStatus::Skipped;
    return out;
  }
  metrics.interp_nanos_ok.record(interp_ns);

  out.fault = rt::decide_fault(test.features, options_.num_threads, prof, run_hash);
  out.time = rt::simulate_time(ir.events, test.features, options_.num_threads,
                               prof, run_hash);
  out.counters = rt::synthesize_counters(ir.events, out.time,
                                         options_.num_threads, prof, run_hash);

  switch (out.fault.kind) {
    case rt::FaultKind::Crash:
      out.result.status = core::RunStatus::Crash;
      return out;
    case rt::FaultKind::Hang:
      out.result.status = core::RunStatus::Hang;
      return out;
    case rt::FaultKind::None:
      break;
  }
  if (out.time.total_us() > static_cast<double>(options_.hang_timeout_us)) {
    out.result.status = core::RunStatus::Hang;
    return out;
  }

  out.result.status = core::RunStatus::Ok;
  out.result.time_us = out.time.total_us();
  out.result.output = ir.comp;
  return out;
}

core::RunResult SimExecutor::run(const TestCase& test, std::size_t input_index,
                                 const std::string& impl_name) {
  return run_detailed(test, input_index, impl_name).result;
}

}  // namespace ompfuzz::harness
