#include "harness/sim_executor.hpp"

#include <optional>

#include "interp/step_bound.hpp"
#include "runtime/cost_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

namespace {

/// Registered once; bumped once per run or compile, never per step.
struct SimMetrics {
  telemetry::Counter& runs;
  telemetry::Counter& memo_hits;
  telemetry::Counter& static_skips;
  telemetry::Counter& over_budget_runs;
  telemetry::Counter& steps;
  telemetry::Counter& compiles;
  telemetry::Histogram& interp_nanos_ok;
  telemetry::Histogram& interp_nanos_over_budget;
};

SimMetrics& sim_metrics() {
  auto& r = telemetry::Registry::global();
  static SimMetrics metrics{r.counter("sim.runs"),
                            r.counter("sim.memo_hits"),
                            r.counter("sim.static_skips"),
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
  const rt::OmpImplProfile& prof = profile(impl_name);
  const interp::Compiled lowered = lower(test.program, prof.fp.contract_fma);
  interp::InterpResult ir;
  return run_lowered(test, lowered, fingerprint_of(test), input_index,
                     prof, ir, Source::Interpret);
}

std::vector<core::RunResult> SimExecutor::run_batch(
    const TestCase& test, const std::vector<std::size_t>& input_indices,
    const std::vector<std::string>& impls) {
  // Resolved once per batch: each impl's profile and its leader, the first
  // impl of the batch with equal semantics. An impl led by another prices
  // the interpretation its leader made of the same input a moment earlier;
  // when no two impls share semantics, every impl leads itself and each run
  // interprets, exactly as looping run() does.
  const std::size_t n = impls.size();
  std::vector<core::RunResult> results;
  if (n == 0) return results;
  std::vector<const rt::OmpImplProfile*> profs(n);
  std::vector<std::size_t> leader(n);
  for (std::size_t j = 0; j < n; ++j) {
    profs[j] = &profile(impls[j]);
    leader[j] = j;
    for (std::size_t k = 0; k < j; ++k) {
      if (profs[k]->fp == profs[j]->fp) {
        leader[j] = k;
        break;
      }
    }
  }
  std::vector<interp::InterpResult> interps(n);  // this input's, by leader
  // This batch's hold on the cached lowered forms, indexed by contract_fma:
  // a reclaim during the batch cannot free them.
  const std::uint64_t fingerprint = fingerprint_of(test);
  std::shared_future<interp::Compiled> forms[2];
  const auto lowered_for = [&](const rt::OmpImplProfile& p) -> const interp::Compiled& {
    std::shared_future<interp::Compiled>& form = forms[p.fp.contract_fma ? 1 : 0];
    if (!form.valid()) form = lowered(test.program, fingerprint, p.fp.contract_fma);
    return form.get();
  };
  results.reserve(input_indices.size() * n);
  for (const std::size_t input_index : input_indices) {
    OMPFUZZ_CHECK(input_index < test.inputs.size(), "input index out of range");
    // Every lowering has the same statements, so any one bounds the steps
    // of every implementation's interpretation.
    const interp::Compiled& first = lowered_for(*profs[0]);
    const bool over_budget =
        interp::min_steps(first, test.inputs[input_index], options_.num_threads) >
        options_.max_interp_steps;
    for (std::size_t j = 0; j < n; ++j) {
      const Source source = over_budget     ? Source::StaticSkip
                            : leader[j] != j ? Source::Memo
                                             : Source::Interpret;
      const interp::Compiled& form = over_budget ? first : lowered_for(*profs[j]);
      results.push_back(run_lowered(test, form, fingerprint, input_index,
                                    *profs[j], interps[leader[j]], source)
                            .result);
    }
  }
  return results;
}

std::shared_future<interp::Compiled> SimExecutor::lowered(
    const ast::Program& program, std::uint64_t fingerprint, bool contract_fma) {
  const auto key = std::make_pair(fingerprint, contract_fma);
  std::optional<std::promise<interp::Compiled>> promise;
  std::shared_future<interp::Compiled> future;
  {
    const std::lock_guard<std::mutex> lock(lowered_mutex_);
    if (const auto it = lowered_.find(key); it != lowered_.end()) return it->second;
    // Insert the future before lowering: a second thread asking for the same
    // program waits on it instead of lowering again.
    future = promise.emplace().get_future().share();
    lowered_.emplace(key, future);
  }
  try {
    promise->set_value(lower(program, contract_fma));
  } catch (...) {
    // Waiters see the error; the next request lowers again.
    promise->set_exception(std::current_exception());
    const std::lock_guard<std::mutex> lock(lowered_mutex_);
    lowered_.erase(key);
  }
  return future;
}

void SimExecutor::reclaim_artifacts(std::uint64_t program_fingerprint) {
  const std::lock_guard<std::mutex> lock(lowered_mutex_);
  lowered_.erase({program_fingerprint, false});
  lowered_.erase({program_fingerprint, true});
}

DetailedRun SimExecutor::run_lowered(const TestCase& test,
                                     const interp::Compiled& lowered,
                                     std::uint64_t fingerprint,
                                     std::size_t input_index,
                                     const rt::OmpImplProfile& prof,
                                     interp::InterpResult& ir,
                                     Source source) const {
  OMPFUZZ_CHECK(input_index < test.inputs.size(), "input index out of range");
  telemetry::ScopedSpan span("run", "sim_run");
  const fp::InputSet& input = test.inputs[input_index];
  switch (source) {
    case Source::Interpret:
      ir = interpret(lowered, input, prof.fp);
      break;
    case Source::Memo:
      sim_metrics().memo_hits.add();
      break;
    case Source::StaticSkip:
      sim_metrics().static_skips.add();
      ir = interp::InterpResult{};
      ir.over_budget = true;
      break;
  }
  DetailedRun out = price(test, ir, fingerprint, input, prof);
  if (span.active()) {
    span.arg("fingerprint", telemetry::hex_fingerprint(fingerprint));
    span.arg("impl", prof.name);
    span.arg("input", static_cast<std::uint64_t>(input_index));
    span.arg("status", core::to_string(out.result.status));
    span.arg("steps", ir.steps);
    span.arg("memo_hit", source == Source::Memo ? 1 : 0);
    span.arg("static_skip", source == Source::StaticSkip ? 1 : 0);
  }
  return out;
}

interp::InterpResult SimExecutor::interpret(const interp::Compiled& lowered,
                                            const fp::InputSet& input,
                                            const interp::FpSemantics& fp) const {
  interp::InterpOptions iopt;
  iopt.fp = fp;
  iopt.num_threads_override = options_.num_threads;
  iopt.max_steps = options_.max_interp_steps;
  const std::uint64_t start_ns = telemetry::Tracer::now_ns();
  interp::InterpResult ir = interp::execute(lowered, input, iopt);
  const std::uint64_t interp_ns = telemetry::Tracer::now_ns() - start_ns;

  SimMetrics& metrics = sim_metrics();
  metrics.steps.add(ir.steps);
  (ir.over_budget ? metrics.interp_nanos_over_budget : metrics.interp_nanos_ok)
      .record(interp_ns);
  return ir;
}

DetailedRun SimExecutor::price(const TestCase& test, const interp::InterpResult& ir,
                               std::uint64_t fingerprint, const fp::InputSet& input,
                               const rt::OmpImplProfile& prof) const {
  DetailedRun out;
  out.result.impl = prof.name;
  out.events = ir.events;

  SimMetrics& metrics = sim_metrics();
  metrics.runs.add();
  if (ir.over_budget) {
    metrics.over_budget_runs.add();
    out.result.status = core::RunStatus::Skipped;
    return out;
  }

  // Deterministic per-(program, input, impl) identity.
  const std::uint64_t run_hash =
      hash_combine(hash_combine(fingerprint, input.hash()), fnv1a64(prof.name));
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
