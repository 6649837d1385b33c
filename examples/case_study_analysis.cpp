// Case-study analysis: hunt for the most extreme outlier in a campaign and
// triage it the way the paper's Section V case studies do — perf counters,
// time breakdowns, call-stack profiles, and (for hangs) the thread-state dump.
//
//   $ ./case_study_analysis [num_programs]
#include <cstdio>
#include <limits>

#include "emit/codegen.hpp"
#include "harness/campaign.hpp"
#include "harness/perf_analyzer.hpp"
#include "harness/sim_executor.hpp"
#include "profiler/callstack.hpp"
#include "profiler/thread_state.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace ompfuzz;
  int programs = 80;
  try {
    if (argc > 1) {
      programs = static_cast<int>(parse_int_arg("num_programs", argv[1], 1,
                                                std::numeric_limits<int>::max()));
    }
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "case_study_analysis: %s\n", e.what());
    return 2;
  }

  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 3;
  cfg.generator.num_threads = 32;
  cfg.generator.max_loop_trip_count = 100;
  harness::SimExecutorOptions opt;
  opt.num_threads = 32;
  harness::SimExecutor executor(opt);
  harness::Campaign campaign(cfg, executor);
  std::printf("running %d-program campaign...\n", programs);
  const auto result = campaign.run();

  // Pick the most extreme performance outlier of any implementation.
  const harness::TestOutcome* best = nullptr;
  std::size_t best_run = 0;
  double best_ratio = 0.0;
  for (const auto& outcome : result.outcomes) {
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      const auto kind = outcome.verdict.per_run[r];
      if (kind != core::OutlierKind::Slow && kind != core::OutlierKind::Fast) {
        continue;
      }
      const double t = outcome.runs[r].time_us;
      const double m = outcome.verdict.midpoint_us;
      const double ratio = kind == core::OutlierKind::Slow ? t / m : m / t;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = &outcome;
        best_run = r;
      }
    }
  }
  if (best == nullptr) {
    std::printf("no performance outliers found; rerun with more programs\n");
    return 1;
  }

  const auto& run = best->runs[best_run];
  const auto kind = best->verdict.per_run[best_run];
  std::printf("\nmost extreme outlier: %s on %s (input %d) — %s, %.1fx vs "
              "midpoint %.0f us\n\n",
              run.impl.c_str(), best->program_name.c_str(), best->input_index,
              core::to_string(kind), best_ratio, best->verdict.midpoint_us);

  // Show the offending test's source (truncated).
  const auto test = campaign.make_test_case(best->program_index);
  emit::EmitOptions eopt;
  eopt.include_main = false;
  const std::string source = emit::emit_translation_unit(test.program, eopt);
  std::printf("--- offending kernel ---------------------------------------\n");
  std::printf("%.2000s%s\n", source.c_str(),
              source.size() > 2000 ? "\n... (truncated)" : "");

  // Counters against the Intel baseline, like the paper's case studies.
  const std::string baseline = run.impl == "intel" ? "gcc" : "intel";
  const auto cs = harness::analyze_case(campaign, executor, *best, run.impl,
                                        baseline);
  std::printf("\n--- perf counters vs baseline ------------------------------\n");
  std::printf("%s\n", harness::render_counter_comparison(
                          run.impl, cs.subject.counters, baseline,
                          cs.baseline.counters)
                          .c_str());

  std::printf("--- where the time goes ------------------------------------\n");
  std::printf("%s\n", harness::render_time_breakdown(run.impl, cs.subject.time)
                          .c_str());
  std::printf("%s\n",
              harness::render_time_breakdown(baseline, cs.baseline.time).c_str());

  std::printf("--- call-stack profile (perf-report style) -----------------\n");
  const auto stack = prof::build_stack_profile(
      cs.subject.time, executor.profile(run.impl), best->program_name);
  std::printf("%s\n", stack.render(false).c_str());

  // If the campaign also produced a hang, show the Fig 8/9 triage.
  for (const auto& outcome : result.outcomes) {
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      if (outcome.verdict.per_run[r] == core::OutlierKind::Hang) {
        std::printf("--- bonus: hang triage for %s on %s ------------------\n",
                    outcome.runs[r].impl.c_str(), outcome.program_name.c_str());
        const auto report = prof::analyze_hang(
            executor.profile(outcome.runs[r].impl), 32,
            fnv1a64(outcome.program_name), outcome.program_name + ".cpp");
        std::printf("%s\n", report.render_groups().c_str());
        return 0;
      }
    }
  }
  return 0;
}
