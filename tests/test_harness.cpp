// Tests for the campaign harness: SimExecutor semantics, campaign
// determinism and aggregation, report rendering, and the case-study analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/race_analyzer.hpp"
#include "harness/campaign.hpp"
#include "harness/perf_analyzer.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "interp/step_bound.hpp"
#include "runtime/cost_model.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {
namespace {

CampaignConfig tiny_config(int programs = 8) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 8;
  cfg.generator.max_loop_trip_count = 30;
  cfg.min_time_us = 10;
  cfg.seed = 0xABCD;
  return cfg;
}

SimExecutorOptions tiny_options() {
  SimExecutorOptions opt;
  opt.num_threads = 8;
  opt.max_interp_steps = 2'000'000;
  return opt;
}

TEST(SimExecutor, ListsThreeVendorsByDefault) {
  SimExecutor exec(tiny_options());
  const auto impls = exec.implementations();
  ASSERT_EQ(impls.size(), 3u);
  EXPECT_EQ(impls[0], "gcc");
  EXPECT_EQ(impls[1], "clang");
  EXPECT_EQ(impls[2], "intel");
  EXPECT_THROW((void)exec.profile("msvc"), Error);
}

TEST(SimExecutor, RunsAreDeterministic) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  const auto a = exec.run(test, 0, "gcc");
  const auto b = exec.run(test, 0, "gcc");
  EXPECT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_EQ(std::isnan(a.output), std::isnan(b.output));
  if (!std::isnan(a.output)) {
    EXPECT_DOUBLE_EQ(a.output, b.output);
  }
}

TEST(SimExecutor, DifferentImplsDifferentTimes) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(1);
  const auto gcc = exec.run(test, 0, "gcc");
  const auto intel = exec.run(test, 0, "intel");
  if (gcc.status == core::RunStatus::Ok && intel.status == core::RunStatus::Ok) {
    EXPECT_NE(gcc.time_us, intel.time_us);
  }
}

TEST(SimExecutor, DetailedRunExposesEventsAndCounters) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(2);
  const auto d = exec.run_detailed(test, 0, "intel");
  if (d.result.status == core::RunStatus::Ok) {
    EXPECT_GT(d.events.total_ops(), 0u);
    EXPECT_GT(d.time.total_us(), 0.0);
    EXPECT_GT(d.counters.instructions, 0u);
    EXPECT_NEAR(d.result.time_us, d.time.total_us(), 1e-9);
  }
}

TEST(SimExecutor, InputIndexValidated) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  EXPECT_THROW((void)exec.run(test, 99, "gcc"), Error);
}

TEST(SimExecutor, BudgetProducesSkipped) {
  SimExecutorOptions opt = tiny_options();
  opt.max_interp_steps = 50;  // absurdly small
  SimExecutor exec(opt);
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  const auto r = exec.run(test, 0, "gcc");
  EXPECT_EQ(r.status, core::RunStatus::Skipped);
}

/// One run rebuilt from the public layer functions SimExecutor composes:
/// interp::execute, then decide_fault, simulate_time and synthesize_counters
/// under the profile's own run hash.
DetailedRun reference_run(const SimExecutor& exec, const TestCase& test,
                          std::size_t input_index, const std::string& impl) {
  const rt::OmpImplProfile& prof = exec.profile(impl);
  const SimExecutorOptions& opt = exec.options();
  const fp::InputSet& input = test.inputs.at(input_index);
  interp::InterpOptions iopt;
  iopt.fp = prof.fp;
  iopt.num_threads_override = opt.num_threads;
  iopt.max_steps = opt.max_interp_steps;
  const interp::InterpResult ir = interp::execute(test.program, input, iopt);

  DetailedRun out;
  out.result.impl = impl;
  out.events = ir.events;
  if (ir.over_budget) {
    out.result.status = core::RunStatus::Skipped;
    return out;
  }
  const std::uint64_t run_hash = hash_combine(
      hash_combine(test.program.fingerprint(), input.hash()), fnv1a64(impl));
  out.fault = rt::decide_fault(test.features, opt.num_threads, prof, run_hash);
  out.time = rt::simulate_time(ir.events, test.features, opt.num_threads, prof,
                               run_hash);
  out.counters = rt::synthesize_counters(ir.events, out.time, opt.num_threads,
                                         prof, run_hash);
  if (out.fault.kind == rt::FaultKind::Crash) {
    out.result.status = core::RunStatus::Crash;
  } else if (out.fault.kind == rt::FaultKind::Hang ||
             out.time.total_us() > static_cast<double>(opt.hang_timeout_us)) {
    out.result.status = core::RunStatus::Hang;
  } else {
    out.result.status = core::RunStatus::Ok;
    out.result.time_us = out.time.total_us();
    out.result.output = ir.comp;
  }
  return out;
}

void expect_same_result(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.impl, b.impl);
  EXPECT_EQ(a.status, b.status) << a.impl;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_us),
            std::bit_cast<std::uint64_t>(b.time_us)) << a.impl;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.output),
            std::bit_cast<std::uint64_t>(b.output)) << a.impl;
  EXPECT_EQ(a.harness_failure, b.harness_failure) << a.impl;
}

/// Bitwise equality of a struct made only of 8-byte scalars (no padding).
template <typename T>
bool same_bits(const T& a, const T& b) {
  static_assert(sizeof(T) % 8 == 0 && alignof(T) == 8);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_same_detailed(const DetailedRun& a, const DetailedRun& b) {
  expect_same_result(a.result, b.result);
  EXPECT_TRUE(same_bits(a.events, b.events)) << a.result.impl;
  EXPECT_TRUE(same_bits(a.time, b.time)) << a.result.impl;
  EXPECT_TRUE(same_bits(a.counters, b.counters)) << a.result.impl;
  EXPECT_EQ(a.fault.kind, b.fault.kind) << a.result.impl;
  EXPECT_EQ(a.fault.detail, b.fault.detail) << a.result.impl;
}

std::uint64_t memo_hits() {
  return telemetry::Registry::global().snapshot().counter("sim.memo_hits");
}

std::uint64_t static_skips() {
  return telemetry::Registry::global().snapshot().counter("sim.static_skips");
}

// run_batch interprets each input once per FpSemantics class and prices the
// result per profile. Over the default and the feature-gated program
// streams, with a budget that cuts some shared interpretations short, every
// batched result must equal looping run(), and run_detailed must equal the
// layer functions composed by hand. Only profiles with equal semantics share:
// a renamed clang and intel (clang's semantics) are memo hits; intel with FMA
// contraction and gcc without reassociation are not. Inputs whose step bound
// exceeds the budget are skipped for every profile, uninterpreted, and must
// still equal run(), which interprets them.
TEST(SimExecutor, RunBatchSharesInterpretationsAndEqualsRun) {
  rt::OmpImplProfile intel_fma = rt::intel_profile();
  intel_fma.name = "intel_fma";
  intel_fma.fp.contract_fma = true;
  rt::OmpImplProfile clang_copy = rt::clang_profile();
  clang_copy.name = "clang_copy";
  rt::OmpImplProfile gcc_ordered = rt::gcc_profile();
  gcc_ordered.name = "gcc_ordered";
  gcc_ordered.fp.reassociate_reductions = false;
  SimExecutorOptions opt = tiny_options();
  opt.max_interp_steps = 6'000;
  SimExecutor exec({rt::gcc_profile(), rt::clang_profile(), rt::intel_profile(),
                    intel_fma, clang_copy, gcc_ordered},
                   opt);
  const std::vector<std::string> impls = exec.implementations();

  int shared_skipped = 0;
  int shared_ok = 0;
  int statically_skipped = 0;
  for (const char* features : {"", "atomic,single,master,schedule,rangeidx"}) {
    CampaignConfig cfg = tiny_config(8);
    cfg.inputs_per_program = 3;
    if (*features != '\0') cfg.generator.enable_features(features);
    Campaign campaign(cfg, exec);
    for (int p = 0; p < cfg.num_programs; ++p) {
      const TestCase test = campaign.make_test_case(p);
      const std::vector<std::size_t> inputs = {2, 0, 1};
      // Inputs whose static step bound exceeds the budget are not
      // interpreted for any implementation.
      const interp::Compiled lowered = interp::compile(test.program);
      std::vector<bool> pre_skipped;
      for (const std::size_t i : inputs) {
        pre_skipped.push_back(interp::min_steps(lowered, test.inputs[i], opt.num_threads) >
                              opt.max_interp_steps);
      }
      const auto skipped_inputs = static_cast<std::size_t>(
          std::count(pre_skipped.begin(), pre_skipped.end(), true));
      const std::uint64_t hits_before = memo_hits();
      const std::uint64_t skips_before = static_skips();
      const auto batch = exec.run_batch(test, inputs, impls);
      // intel and clang_copy reuse clang's interpretation of each input
      // that is interpreted.
      EXPECT_EQ(memo_hits() - hits_before, 2 * (inputs.size() - skipped_inputs));
      EXPECT_EQ(static_skips() - skips_before, impls.size() * skipped_inputs);
      ASSERT_EQ(batch.size(), inputs.size() * impls.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t j = 0; j < impls.size(); ++j) {
          const auto& batched = batch[i * impls.size() + j];
          const DetailedRun detailed = exec.run_detailed(test, inputs[i], impls[j]);
          expect_same_result(batched, exec.run(test, inputs[i], impls[j]));
          expect_same_detailed(detailed, reference_run(exec, test, inputs[i], impls[j]));
          expect_same_result(batched, detailed.result);
          if (pre_skipped[i]) {
            EXPECT_EQ(batched.status, core::RunStatus::Skipped);
            ++statically_skipped;
          } else if (impls[j] == "intel" || impls[j] == "clang_copy") {
            (batched.status == core::RunStatus::Skipped ? shared_skipped : shared_ok)++;
          }
        }
      }
    }
  }
  EXPECT_GT(shared_skipped, 0) << "no shared interpretation ran over budget";
  EXPECT_GT(shared_ok, 0) << "every shared interpretation ran over budget";
  EXPECT_GT(statically_skipped, 0) << "the step bound skipped no run";

  // Batches without equal semantics interpret every run.
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  for (const std::vector<std::string>& distinct :
       {std::vector<std::string>{"gcc", "gcc_ordered"},
        std::vector<std::string>{"gcc", "clang", "intel_fma", "gcc_ordered"},
        std::vector<std::string>{"intel"}}) {
    const std::uint64_t hits_before = memo_hits();
    const auto batch = exec.run_batch(test, {0, 1}, distinct);
    EXPECT_EQ(memo_hits(), hits_before);
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < distinct.size(); ++j) {
        expect_same_result(batch[i * distinct.size() + j],
                           exec.run(test, i, distinct[j]));
      }
    }
  }
}

std::uint64_t compiles() {
  return telemetry::Registry::global().snapshot().counter("sim.compiles");
}

// run_batch keeps each program's lowered form, once per contract_fma
// setting, for every later call on any thread, until reclaim_artifacts drops
// it. run() lowers on every call and leaves the cache alone.
TEST(SimExecutor, RunBatchLowersOncePerProgramUntilReclaimed) {
  rt::OmpImplProfile intel_fma = rt::intel_profile();
  intel_fma.fp.contract_fma = true;
  SimExecutor exec({rt::gcc_profile(), rt::clang_profile(), intel_fma},
                   tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase test = campaign.make_test_case(0);
  const std::vector<std::string> impls = exec.implementations();
  const std::vector<core::RunResult> expected =
      exec.run_batch(test, {0, 1}, impls);
  const std::uint64_t lowered = compiles();

  // One call per input, from four threads at once: nothing is lowered again.
  std::vector<std::vector<core::RunResult>> per_input(4);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < per_input.size(); ++t) {
    workers.emplace_back(
        [&, t] { per_input[t] = exec.run_batch(test, {t % 2}, impls); });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(compiles(), lowered);
  for (std::size_t t = 0; t < per_input.size(); ++t) {
    ASSERT_EQ(per_input[t].size(), impls.size());
    for (std::size_t j = 0; j < impls.size(); ++j) {
      expect_same_result(per_input[t][j], expected[(t % 2) * impls.size() + j]);
    }
  }

  (void)exec.run(test, 0, "gcc");
  EXPECT_EQ(compiles(), lowered + 1) << "run() must lower uncached";

  // Reclaiming empties the cache: both forms are lowered again.
  exec.reclaim_artifacts(test.program.fingerprint());
  (void)exec.run_batch(test, {0}, impls);
  EXPECT_EQ(compiles(), lowered + 3);
  // Reclaiming another program leaves this one cached.
  exec.reclaim_artifacts(test.program.fingerprint() + 1);
  (void)exec.run_batch(test, {1}, impls);
  EXPECT_EQ(compiles(), lowered + 3);
}

// ------------------------------------------------------------ campaign -----

TEST(CampaignTest, TestCasesAreReproducible) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(), exec);
  const TestCase a = campaign.make_test_case(3);
  const TestCase b = campaign.make_test_case(3);
  EXPECT_EQ(a.program.fingerprint(), b.program.fingerprint());
  EXPECT_EQ(a.fingerprint, a.program.fingerprint());
  EXPECT_EQ(fingerprint_of(a), a.fingerprint);
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i].hash(), b.inputs[i].hash());
  }
}

TEST(CampaignTest, GeneratedTestsAreRaceFree) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(20), exec);
  for (int p = 0; p < 20; ++p) {
    const TestCase test = campaign.make_test_case(p);
    EXPECT_TRUE(analysis::analyze_races(test.program).race_free());
  }
}

TEST(CampaignTest, FullRunAggregatesConsistently) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  EXPECT_EQ(result.total_tests, 20);      // 10 programs x 2 inputs
  EXPECT_EQ(result.total_runs, 60);       // x 3 impls
  EXPECT_EQ(result.outcomes.size(), 20u);
  EXPECT_EQ(result.impl_names.size(), 3u);
  // Per-impl aggregates must equal a recount over outcomes.
  std::map<std::string, int> recount;
  for (const auto& o : result.outcomes) {
    for (std::size_t r = 0; r < o.runs.size(); ++r) {
      if (o.verdict.per_run[r] != core::OutlierKind::None) {
        recount[o.runs[r].impl]++;
      }
    }
  }
  for (const auto& name : result.impl_names) {
    EXPECT_EQ(result.per_impl.at(name).total(), recount[name]) << name;
  }
  EXPECT_GE(result.outlier_rate(), 0.0);
  EXPECT_LE(result.outlier_rate(), 1.0);
}

TEST(CampaignTest, RunIsDeterministic) {
  SimExecutor exec1(tiny_options());
  Campaign campaign1(tiny_config(6), exec1);
  const auto r1 = campaign1.run();
  SimExecutor exec2(tiny_options());
  Campaign campaign2(tiny_config(6), exec2);
  const auto r2 = campaign2.run();
  EXPECT_EQ(r1.total_runs, r2.total_runs);
  EXPECT_EQ(r1.analyzable_tests, r2.analyzable_tests);
  EXPECT_EQ(r1.outlier_runs(), r2.outlier_runs());
  for (const auto& name : r1.impl_names) {
    EXPECT_EQ(r1.per_impl.at(name).fast, r2.per_impl.at(name).fast);
    EXPECT_EQ(r1.per_impl.at(name).slow, r2.per_impl.at(name).slow);
  }
}

TEST(CampaignTest, SeedChangesOutcomes) {
  SimExecutor exec(tiny_options());
  auto cfg1 = tiny_config(6);
  auto cfg2 = tiny_config(6);
  cfg2.seed = cfg1.seed + 1;
  Campaign c1(cfg1, exec);
  Campaign c2(cfg2, exec);
  EXPECT_NE(c1.make_test_case(0).program.fingerprint(),
            c2.make_test_case(0).program.fingerprint());
}

TEST(CampaignTest, ProgressCallbackInvoked) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(5), exec);
  int calls = 0;
  int last_done = 0;
  (void)campaign.run([&](int done, int total) {
    ++calls;
    EXPECT_EQ(total, 5);
    EXPECT_GT(done, last_done);
    last_done = done;
  });
  EXPECT_EQ(calls, 5);
}

// ------------------------------------------------------------ reports ------

TEST(Report, Table1HasAllImplRows) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(6), exec);
  const auto result = campaign.run();
  const std::string table = render_table1(result);
  EXPECT_NE(table.find("Implementation"), std::string::npos);
  EXPECT_NE(table.find("Slow"), std::string::npos);
  EXPECT_NE(table.find("Hang"), std::string::npos);
  for (const auto& name : result.impl_names) {
    EXPECT_NE(table.find(name), std::string::npos);
  }
}

TEST(Report, SummaryMentionsKeyRates) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(6), exec);
  const auto result = campaign.run();
  const std::string summary = render_summary(result);
  EXPECT_NE(summary.find("runs:"), std::string::npos);
  EXPECT_NE(summary.find("outlier runs:"), std::string::npos);
  EXPECT_NE(summary.find("correctness outliers:"), std::string::npos);
}

TEST(Report, JsonIsWellFormedEnough) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(4), exec);
  const auto result = campaign.run();
  const std::string json = to_json(result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"per_impl\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  // Balanced braces/brackets (a cheap structural check).
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      EXPECT_GE(depth, 0);
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Report, OutlierListRenders) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  const std::string list = render_outlier_list(result);
  EXPECT_NE(list.find("Kind"), std::string::npos);
}

// ------------------------------------------------------------ analyzer -----

TEST(PerfAnalyzer, CounterComparisonTable) {
  rt::PerfCounters a;
  a.context_switches = 232;
  a.cycles = 110520780;
  rt::PerfCounters b;
  b.context_switches = 10;
  b.cycles = 154797061;
  const std::string table = render_counter_comparison("Intel", a, "GCC", b);
  EXPECT_NE(table.find("context-switches"), std::string::npos);
  EXPECT_NE(table.find("110,520,780"), std::string::npos);
  EXPECT_NE(table.find("154,797,061"), std::string::npos);
  EXPECT_NE(table.find("branch-misses"), std::string::npos);
}

TEST(PerfAnalyzer, CaseStudyReRunsMatchCampaign) {
  SimExecutor exec(tiny_options());
  Campaign campaign(tiny_config(10), exec);
  const auto result = campaign.run();
  // Pick any outcome and re-run it in detailed mode: times must match the
  // campaign's recorded runs exactly (full determinism end to end).
  const auto& outcome = result.outcomes.front();
  const auto cs = analyze_case(campaign, exec, outcome, "gcc", "intel");
  EXPECT_EQ(cs.subject.result.status, outcome.runs[0].status);
  if (outcome.runs[0].status == core::RunStatus::Ok) {
    EXPECT_DOUBLE_EQ(cs.subject.result.time_us, outcome.runs[0].time_us);
  }
  EXPECT_EQ(cs.baseline.result.status, outcome.runs[2].status);
}

TEST(PerfAnalyzer, TimeBreakdownRenders) {
  rt::TimeBreakdown t;
  t.compute_ns = 1e6;
  t.launch_ns = 2e5;
  t.critical_ns = 3e5;
  const std::string out = render_time_breakdown("gcc", t);
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("critical sections"), std::string::npos);
  EXPECT_NE(out.find("total"), std::string::npos);
}

}  // namespace
}  // namespace ompfuzz::harness
