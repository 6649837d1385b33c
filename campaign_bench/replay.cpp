// Traced replay: the per-layer metrics of the benchmark.
//
// Each call of the workload is measured untraced (measure_call) and run
// again with an instrumented executor, in alternating order, followed by
// serial replays of the layers Campaign::run calls internally. Every timed call is a call into
// a module's public function made from this file; nothing inside the
// library is instrumented. The traced campaign's report must equal the
// untraced one, which is what shows the replay executor to be faithful.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "analysis/race_analyzer.hpp"
#include "bench.hpp"
#include "core/differ.hpp"
#include "core/generator.hpp"
#include "core/outlier.hpp"
#include "emit/codegen.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/fault_model.hpp"
#include "runtime/perf_counters.hpp"
#include "support/rng.hpp"

namespace campaign_bench {

using namespace ompfuzz;
namespace fs = std::filesystem;

namespace {

/// Durations in seconds (or any sample), with nearest-rank percentiles.
struct Samples {
  std::vector<double> v;

  [[nodiscard]] double sum() const {
    double s = 0;
    for (const double x : v) s += x;
    return s;
  }
  [[nodiscard]] double pct(double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  }
  [[nodiscard]] double max() const {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  }
  void append(const Samples& other) { v.insert(v.end(), other.v.begin(), other.v.end()); }
};

/// What the instrumented executors record, from every campaign worker.
struct ExecutorTimes {
  std::mutex mutex;
  Samples units;   ///< run_batch durations: one per (program, backend) unit
  Samples interp;  ///< interp::execute durations
  double over_budget_s = 0;
  std::uint64_t over_budget = 0;
  std::uint64_t steps = 0;
  std::uint64_t duplicates = 0;
  /// (fingerprint, input hash, FpSemantics + team, step budget) of every
  /// interpretation: a repeated key is an interpretation whose answer was
  /// already known.
  std::set<std::array<std::uint64_t, 4>> interp_keys;
  double runtime_s = 0;
  std::uint64_t runtime_runs = 0;
  std::map<std::uint64_t, std::uint64_t> steps_by_program;  ///< by fingerprint
};

/// Forwards to `inner`, timing each run_batch call — one scheduler unit.
class UnitTimedExecutor : public harness::Executor {
 public:
  UnitTimedExecutor(harness::Executor& inner, ExecutorTimes& times)
      : times_(times), inner_(inner) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    const auto t0 = Clock::now();
    auto results = batch(test, input_indices, impls);
    const double elapsed = seconds_since(t0);
    const std::lock_guard<std::mutex> lock(times_.mutex);
    times_.units.v.push_back(elapsed);
    return results;
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(const std::string& impl_name) const override {
    return inner_.impl_identity(impl_name);
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_.thread_safe();
  }

 protected:
  virtual std::vector<core::RunResult> batch(
      const harness::TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) {
    return inner_.run_batch(test, input_indices, impls);
  }

  ExecutorTimes& times_;

 private:
  harness::Executor& inner_;
};

/// SimExecutor::run rebuilt from the public layer functions it calls —
/// interp::execute, then rt::decide_fault, rt::simulate_time and
/// rt::synthesize_counters — so each layer can be timed on its own.
class ReplaySimExecutor final : public UnitTimedExecutor {
 public:
  ReplaySimExecutor(harness::SimExecutor& sim, ExecutorTimes& times)
      : UnitTimedExecutor(sim, times), sim_(sim) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    const rt::OmpImplProfile& prof = sim_.profile(impl_name);
    const harness::SimExecutorOptions& opt = sim_.options();
    const fp::InputSet& input = test.inputs.at(input_index);
    const std::uint64_t fingerprint = test.program.fingerprint();
    const std::uint64_t run_hash = hash_combine(
        hash_combine(fingerprint, input.hash()), fnv1a64(impl_name));

    interp::InterpOptions iopt;
    iopt.fp = prof.fp;
    iopt.num_threads_override = opt.num_threads;
    iopt.max_steps = opt.max_interp_steps;
    const auto t0 = Clock::now();
    const interp::InterpResult ir = interp::execute(test.program, input, iopt);
    const double interp_s = seconds_since(t0);

    core::RunResult result;
    result.impl = impl_name;
    double runtime_s = 0;
    if (ir.over_budget) {
      result.status = core::RunStatus::Skipped;
    } else {
      const auto t1 = Clock::now();
      const auto fault = rt::decide_fault(test.features, opt.num_threads, prof, run_hash);
      const auto time = rt::simulate_time(ir.events, test.features, opt.num_threads,
                                          prof, run_hash);
      const auto counters = rt::synthesize_counters(ir.events, time, opt.num_threads,
                                                    prof, run_hash);
      (void)counters;  // priced like the real executor; unused by the report
      runtime_s = seconds_since(t1);
      if (fault.kind == rt::FaultKind::Crash) {
        result.status = core::RunStatus::Crash;
      } else if (fault.kind == rt::FaultKind::Hang ||
                 time.total_us() > static_cast<double>(opt.hang_timeout_us)) {
        result.status = core::RunStatus::Hang;
      } else {
        result.status = core::RunStatus::Ok;
        result.time_us = time.total_us();
        result.output = ir.comp;
      }
    }

    const std::uint64_t semantics =
        (prof.fp.flush_subnormals ? 1U : 0U) | (prof.fp.contract_fma ? 2U : 0U) |
        (prof.fp.reassociate_reductions ? 4U : 0U) |
        (static_cast<std::uint64_t>(opt.num_threads) << 8);
    const std::lock_guard<std::mutex> lock(times_.mutex);
    times_.interp.v.push_back(interp_s);
    times_.steps += ir.steps;
    times_.steps_by_program[fingerprint] += ir.steps;
    if (ir.over_budget) {
      ++times_.over_budget;
      times_.over_budget_s += interp_s;
    } else {
      times_.runtime_s += runtime_s;
      ++times_.runtime_runs;
    }
    if (!times_.interp_keys.insert({fingerprint, input.hash(), semantics, opt.max_interp_steps})
             .second) {
      ++times_.duplicates;
    }
    return result;
  }

 private:
  std::vector<core::RunResult> batch(const harness::TestCase& test,
                                     const std::vector<std::size_t>& input_indices,
                                     const std::vector<std::string>& impls) override {
    return Executor::run_batch(test, input_indices, impls);  // loops run() above
  }

  harness::SimExecutor& sim_;
};

bool same_run(const core::RunResult& a, const core::RunResult& b) {
  return a.impl == b.impl && a.status == b.status &&
         std::memcmp(&a.time_us, &b.time_us, sizeof a.time_us) == 0 &&
         std::memcmp(&a.output, &b.output, sizeof a.output) == 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Accumulators over every traced call of a run.
struct Totals {
  int calls = 0;
  int programs = 0;
  // generation + analysis + emit replay
  Samples make_test_case, analyze, emit;
  int drafts = 0;
  int racy = 0;
  double emit_bytes = 0;
  // executor layers
  Samples units, interp;
  double over_budget_s = 0, runtime_s = 0;
  std::uint64_t over_budget = 0, steps = 0, duplicates = 0, runtime_runs = 0;
  // scheduler / merge / report
  Samples straggler;
  double unit_busy_s = 0, worker_capacity_s = 0;
  double merge_s = 0, run_s = 0, report_s = 0, report_bytes = 0;
  Samples classify;
  // result store (store_passes)
  int store_runs = 0;
  Samples put, lookup;
  double cold_s = 0, warm_s = 0, resume_s = 0, journal_open_s = 0;
  double warm_hits = 0, warm_lookups = 0, resumed_share = 0, store_bytes = 0;
  // subprocess
  double children = 0;
  // accounting
  double traced_tests = 0, traced_wall_s = 0, untraced_tests = 0, untraced_wall_s = 0;
  double accounted_s = 0;
};

ExecutorWrap replay_wrap(ExecutorTimes& times) {
  return [&times](harness::Executor& inner) -> std::unique_ptr<harness::Executor> {
    if (auto* sim = dynamic_cast<harness::SimExecutor*>(&inner)) {
      return std::make_unique<ReplaySimExecutor>(*sim, times);
    }
    return std::make_unique<UnitTimedExecutor>(inner, times);
  };
}

/// The result-store passes of a traced run: a cold pass into an empty store
/// (one fsync'd record per triple plus one journal record per program), a
/// warm pass through a fresh store instance (every triple read back from
/// disk, nothing executed) and a resume from the journal — all three must
/// report the same campaign. Then every triple of the report is put into
/// another empty store and looked up through a second instance, timing each
/// ResultStore call, and the journal is re-opened.
void store_passes(const RunOptions& options, std::uint64_t campaign_seed,
                  const std::string& dir, Totals& totals, Checks& checks) {
  const Workload& workload = *options.workload;
  const int programs = std::min(workload.store_programs, options.programs);
  const std::string ini = config_text(workload, campaign_seed, programs, dir, true);
  ExecutorTimes times;
  std::string cold_report;
  std::optional<CampaignSetup> cold;
  std::optional<harness::CampaignResult> cold_result;
  double pass_s[3] = {};
  for (int pass = 0; pass < 3; ++pass) {
    CampaignSetup setup = make_setup(ini, /*resume=*/pass == 2, replay_wrap(times));
    const auto t0 = Clock::now();
    harness::CampaignResult result = setup.campaign->run();
    const std::string report = harness::to_json(result);
    pass_s[pass] = seconds_since(t0);
    if (pass == 0) {
      cold_report = report;
    } else if (report != cold_report) {
      checks.failed += result.total_runs;
      checks.problem("store pass " + std::to_string(pass) +
                     " report differs from the cold pass");
    }
    if (pass == 1) {
      const auto stats = setup.store->stats();
      totals.warm_hits += static_cast<double>(stats.hits);
      totals.warm_lookups += static_cast<double>(stats.hits + stats.misses);
    }
    if (pass == 2) {
      totals.resumed_share += static_cast<double>(setup.campaign->resumed_programs()) /
                              static_cast<double>(programs);
      totals.store_bytes += static_cast<double>(dir_bytes(dir + "/store"));
      CheckpointJournal journal(dir + "/store/checkpoint.journal");
      const JournalBackend backend{"sim0", setup.driven().implementations()};
      const auto t_open = Clock::now();
      const auto shards =
          journal.open(setup.campaign->checkpoint_key(), std::span(&backend, 1), true);
      totals.journal_open_s += seconds_since(t_open);
      if (static_cast<int>(shards.size()) != programs) {
        checks.problem("journal holds " + std::to_string(shards.size()) + " of " +
                       std::to_string(programs) + " shards");
      }
    }
    if (pass == 0) {
      cold.emplace(std::move(setup));
      cold_result.emplace(std::move(result));
    }
  }
  totals.cold_s += pass_s[0];
  totals.warm_s += pass_s[1];
  totals.resume_s += pass_s[2];
  ++totals.store_runs;

  StoreConfig store_cfg;
  store_cfg.enabled = true;
  store_cfg.dir = dir + "/replay_store";
  std::vector<std::pair<RunKey, core::RunResult>> records;
  std::uint64_t fingerprint = 0;
  for (const auto& outcome : cold_result->outcomes) {
    if (outcome.input_index == 0) {
      fingerprint = cold->campaign->make_test_case(outcome.program_index).program.fingerprint();
    }
    for (const auto& run : outcome.runs) {
      records.push_back({RunKey{fingerprint, outcome.input_text,
                                store_impl_identity(run.impl,
                                                    cold->driven().impl_identity(run.impl))},
                         run});
    }
  }
  {
    ResultStore store(store_cfg);
    for (const auto& [key, run] : records) {
      const auto t0 = Clock::now();
      store.put(key, run);
      totals.put.v.push_back(seconds_since(t0));
    }
  }
  ResultStore store(store_cfg);
  for (const auto& [key, run] : records) {
    const auto t0 = Clock::now();
    const auto hit = store.lookup(key);
    totals.lookup.v.push_back(seconds_since(t0));
    if (!hit || !same_run(*hit, run)) {
      ++checks.failed;
      checks.problem("store replay lost or altered a record");
    }
  }
}

/// One traced call: campaign call `call` run through the instrumented
/// executor, followed by serial replays of generation, analysis, emission
/// and classification (and, on the first call of a workload with store
/// passes, of the result store). Returns the report digest.
std::string trace_call(const RunOptions& options, int call, Totals& totals,
                       Checks& checks) {
  const Workload& workload = *options.workload;
  const std::string dir = options.work_dir + "/trace" + std::to_string(call);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::uint64_t campaign_seed = campaign_seed_of(options, call);
  const std::string ini = config_text(workload, campaign_seed, options.programs, dir);
  const std::size_t threads = campaign_threads(workload);

  ExecutorTimes times;
  const CampaignSetup setup = make_setup(ini, false, replay_wrap(times));
  std::mutex progress_mutex;
  auto last_progress = Clock::now();
  const auto t0 = Clock::now();
  const harness::CampaignResult result = setup.campaign->run([&](int, int) {
    const std::lock_guard<std::mutex> lock(progress_mutex);
    last_progress = Clock::now();
  });
  const auto t_run = Clock::now();
  const std::string report = harness::to_json(result);
  const double report_s = seconds_since(t_run);
  const double run_s = std::chrono::duration<double>(t_run - t0).count();
  const double sched_s = std::chrono::duration<double>(last_progress - t0).count();
  const double merge_s = run_s - sched_s;

  Checks replay_checks;  // the untraced call already counted these runs
  const std::string digest = workload.kind == Kind::Subprocess
                                 ? check_real_runs(*setup.campaign, result, replay_checks)
                                 : digest_hex(report);
  totals.traced_wall_s += run_s + report_s;
  totals.traced_tests += result.total_tests;
  totals.children += static_cast<double>(
      setup.campaign->run_metrics().counter("exec.children"));
  totals.merge_s += merge_s;
  totals.run_s += run_s;
  totals.report_s += report_s;
  totals.report_bytes += static_cast<double>(report.size());
  totals.straggler.v.push_back(sched_s > 0 ? times.units.max() / sched_s : 0);
  totals.unit_busy_s += times.units.sum();
  totals.worker_capacity_s += sched_s * static_cast<double>(threads);

  // Serial replay of generation: make_test_case, then the race analysis of
  // each draft it generated (re-derived from the test's seed), and emission.
  const core::ProgramGenerator generator(setup.config.generator);
  Samples make_test_case;
  for (int p = 0; p < options.programs; ++p) {
    auto t1 = Clock::now();
    const harness::TestCase test = setup.campaign->make_test_case(p);
    make_test_case.v.push_back(seconds_since(t1));
    for (int attempt = 0; attempt <= test.regeneration_attempts; ++attempt) {
      const ast::Program draft = generator.generate(
          "test_" + std::to_string(p), hash_combine(test.seed, attempt));
      t1 = Clock::now();
      const bool race_free = analysis::analyze_races(draft).race_free();
      totals.analyze.v.push_back(seconds_since(t1));
      ++totals.drafts;
      totals.racy += race_free ? 0 : 1;
      if (race_free != (attempt == test.regeneration_attempts)) {
        checks.problem("test_" + std::to_string(p) +
                       ": replayed draft analysis disagrees with make_test_case");
      }
    }
    t1 = Clock::now();
    const std::string source = emit::emit_translation_unit(test.program);
    totals.emit.v.push_back(seconds_since(t1));
    totals.emit_bytes += static_cast<double>(source.size());
  }
  totals.make_test_case.append(make_test_case);
  totals.programs += options.programs;

  // Classification replay over the report's raw runs; the verdicts must
  // match what the campaign stored.
  core::OutlierParams params;
  params.alpha = setup.config.alpha;
  params.beta = setup.config.beta;
  params.min_time_us = static_cast<double>(setup.config.min_time_us);
  const core::OutlierDetector detector(params);
  for (const auto& outcome : result.outcomes) {
    const auto t1 = Clock::now();
    const auto verdict = detector.analyze(outcome.runs);
    const auto divergence =
        core::analyze_run_outputs(outcome.runs, core::exact_tolerance());
    const auto verdict_class = core::classify_runs(outcome.runs, divergence);
    totals.classify.v.push_back(seconds_since(t1));
    if (verdict.per_run != outcome.verdict.per_run ||
        divergence.diverges != outcome.divergence.diverges ||
        verdict_class.per_run.size() != outcome.runs.size()) {
      checks.problem(outcome.program_name + ": replayed classification differs");
    }
  }

  // Executor layers, and how much of the untraced call the timed calls
  // account for: unit work (run_batch plus the make_test_case each unit
  // starts with) spread over the workers, then the serial merge and report.
  totals.units.append(times.units);
  totals.interp.append(times.interp);
  totals.over_budget += times.over_budget;
  totals.over_budget_s += times.over_budget_s;
  totals.steps += times.steps;
  totals.duplicates += times.duplicates;
  totals.runtime_s += times.runtime_s;
  totals.runtime_runs += times.runtime_runs;
  totals.accounted_s +=
      (times.units.sum() + make_test_case.sum()) / static_cast<double>(threads) + merge_s +
      report_s;
  ++totals.calls;

  if (call == 0 && workload.store_programs > 0) {
    store_passes(options, campaign_seed, dir, totals, checks);
  }
  fs::remove_all(dir);
  return digest;
}

}  // namespace

std::vector<std::uint64_t> interp_steps(const RunOptions& options,
                                        std::uint64_t campaign_seed) {
  ExecutorTimes times;
  const CampaignSetup setup = make_setup(
      config_text(*options.workload, campaign_seed, options.programs, options.work_dir),
      false, replay_wrap(times));
  (void)setup.campaign->run();
  std::vector<std::uint64_t> steps;
  for (int p = 0; p < options.programs; ++p) {
    steps.push_back(
        times.steps_by_program[setup.campaign->make_test_case(p).program.fingerprint()]);
  }
  return steps;
}

std::vector<LayerMetric> run_traced(const RunOptions& options,
                                    std::vector<CallRecord>& calls, Checks& checks) {
  Totals t;
  for_each_call(options, false, [&](int call) {
    // Alternate which of the pair runs first, so that warm-up favours
    // neither in the tracing overhead.
    std::string traced;
    if (call % 2 == 1) traced = trace_call(options, call, t, checks);
    calls.push_back(measure_call(options, call, checks));
    if (call % 2 == 0) traced = trace_call(options, call, t, checks);
    t.untraced_tests += calls.back().tests;
    t.untraced_wall_s += calls.back().wall_s;
    if (traced != calls.back().digest) {
      checks.failed += calls.back().runs;
      checks.problem("traced replay of call " + std::to_string(call) +
                     " differs from the untraced report");
    }
  });

  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n_calls = t.calls;
  const double interp_s = t.interp.sum();
  const double unit_s = t.units.sum();
  const bool subprocess = options.workload->kind == Kind::Subprocess;
  const double store_runs = t.store_runs;
  const double analysis_s = t.analyze.sum();
  // Counts and busy times are per campaign call: how many calls fit in the
  // run depends on the machine.
  std::vector<LayerMetric> m = {
      {"core.generate.calls", per(static_cast<double>(t.make_test_case.v.size()), n_calls),
       "count"},
      {"core.generate.us_per_program", 1e6 * per(t.make_test_case.sum(), t.programs), "us"},
      {"core.generate.drafts_per_program", per(t.drafts, t.programs), "count"},
      {"analysis.calls", per(static_cast<double>(t.analyze.v.size()), n_calls), "count"},
      {"analysis.us_per_draft", 1e6 * per(analysis_s, t.drafts), "us"},
      {"analysis.racy_share", per(t.racy, t.drafts), "ratio"},
      {"interp.calls", per(static_cast<double>(t.interp.v.size()), n_calls), "count"},
      {"interp.busy_ms", 1e3 * per(interp_s, n_calls), "ms"},
      {"interp.steps", per(static_cast<double>(t.steps), n_calls), "count"},
      {"interp.steps_per_s", per(static_cast<double>(t.steps), interp_s), "1/s"},
      {"interp.call_p50_ms", 1e3 * t.interp.pct(0.50), "ms"},
      {"interp.call_p99_ms", 1e3 * t.interp.pct(0.99), "ms"},
      {"interp.over_budget_share",
       per(static_cast<double>(t.over_budget), static_cast<double>(t.interp.v.size())), "ratio"},
      {"interp.over_budget_time_share", per(t.over_budget_s, interp_s), "ratio"},
      {"interp.dup_share",
       per(static_cast<double>(t.duplicates), static_cast<double>(t.interp.v.size())), "ratio"},
      {"runtime.us_per_run", 1e6 * per(t.runtime_s, static_cast<double>(t.runtime_runs)), "us"},
      {"core.classify.us_per_test",
       1e6 * per(t.classify.sum(), static_cast<double>(t.classify.v.size())), "us"},
      {"harness.unit.count", per(static_cast<double>(t.units.v.size()), n_calls), "count"},
      {"harness.unit.p50_ms", 1e3 * t.units.pct(0.50), "ms"},
      {"harness.unit.max_ms", 1e3 * t.units.max(), "ms"},
      {"harness.straggler_share", t.straggler.pct(0.50), "ratio"},
      {"harness.worker_busy_share", per(t.unit_busy_s, t.worker_capacity_s), "ratio"},
      {"harness.merge_s", per(t.merge_s, n_calls), "s"},
      {"harness.merge_share", per(t.merge_s, t.run_s), "ratio"},
      {"harness.report.ms", 1e3 * per(t.report_s, n_calls), "ms"},
      {"harness.report.bytes", per(t.report_bytes, n_calls), "bytes"},
      {"store.put_us_p50", 1e6 * t.put.pct(0.50), "us"},
      {"store.put_us_p99", 1e6 * t.put.pct(0.99), "us"},
      {"store.lookup_us_p50", 1e6 * t.lookup.pct(0.50), "us"},
      {"store.lookup_us_p99", 1e6 * t.lookup.pct(0.99), "us"},
      {"store.warm_hit_ratio", per(t.warm_hits, t.warm_lookups), "ratio"},
      {"store.resumed_share", per(t.resumed_share, store_runs), "ratio"},
      {"store.dir_bytes", per(t.store_bytes, store_runs), "bytes"},
      {"store.cold_pass_s", per(t.cold_s, store_runs), "s"},
      {"store.warm_pass_s", per(t.warm_s, store_runs), "s"},
      {"store.resume_pass_s", per(t.resume_s, store_runs), "s"},
      {"store.journal_open_ms", 1e3 * per(t.journal_open_s, store_runs), "ms"},
      {"emit.us_per_program", 1e6 * per(t.emit.sum(), static_cast<double>(t.emit.v.size())), "us"},
      {"emit.bytes_per_program", per(t.emit_bytes, static_cast<double>(t.emit.v.size())), "bytes"},
      {"subprocess.unit_p50_ms", subprocess ? 1e3 * t.units.pct(0.50) : 0, "ms"},
      {"subprocess.unit_max_ms", subprocess ? 1e3 * t.units.max() : 0, "ms"},
      {"subprocess.children_per_s", per(t.children, t.run_s), "1/s"},
      {"subprocess.interp_mismatch_share",
       per(checks.interp_mismatch, checks.checked), "ratio"},
      // Self time: each layer's timed calls minus the timed calls nested in
      // them.
      {"core.generate.self_ms", 1e3 * per(t.make_test_case.sum() - analysis_s, n_calls), "ms"},
      {"analysis.self_ms", 1e3 * per(analysis_s, n_calls), "ms"},
      {"interp.self_ms", 1e3 * per(interp_s, n_calls), "ms"},
      {"runtime.self_ms", 1e3 * per(t.runtime_s, n_calls), "ms"},
      {"core.classify.self_ms", 1e3 * per(t.classify.sum(), n_calls), "ms"},
      {"harness.unit.self_ms",
       subprocess ? 0 : 1e3 * per(unit_s - interp_s - t.runtime_s, n_calls), "ms"},
      {"harness.merge.self_ms", 1e3 * per(t.merge_s, n_calls), "ms"},
      {"harness.report.self_ms", 1e3 * per(t.report_s, n_calls), "ms"},
      {"store.self_ms", 1e3 * per(t.put.sum() + t.lookup.sum(), store_runs), "ms"},
      {"emit.self_ms", 1e3 * per(t.emit.sum(), n_calls), "ms"},
      {"subprocess.self_ms", subprocess ? 1e3 * per(unit_s, n_calls) : 0, "ms"},
      {"trace.unaccounted_share", 1 - per(t.accounted_s, t.untraced_wall_s), "ratio"},
      {"trace.overhead_tests_per_s",
       per(t.traced_tests, t.traced_wall_s) - per(t.untraced_tests, t.untraced_wall_s), "1/s"},
  };
  return m;
}

}  // namespace campaign_bench
