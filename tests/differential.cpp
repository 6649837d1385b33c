#include "differential.hpp"

#include "fp/input_gen.hpp"
#include "interp/interp.hpp"
#include "profiler/thread_state.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz::analysis {

bool validate_program(const ast::Program& program,
                      const DifferentialOptions& options,
                      DifferentialStats& stats) {
  ++stats.programs;
  const bool static_racy = !analyze_races(program).race_free();
  if (static_racy) {
    ++stats.static_racy;
  } else {
    ++stats.static_clean;
  }

  fp::InputGenOptions in_opt;
  in_opt.min_trip_count = 1;
  in_opt.max_trip_count = options.max_trip_count;
  const fp::InputGenerator input_gen(in_opt);
  RandomEngine rng(hash_combine(options.seed, program.fingerprint()));

  interp::AccessTrace trace;
  interp::InterpOptions interp_opt;
  interp_opt.num_threads_override = options.num_threads;
  interp_opt.max_steps = options.max_steps;
  interp_opt.trace = &trace;

  std::vector<interp::AccessConflict> conflicts;
  for (int run = 0; run < options.runs_per_program; ++run) {
    const fp::InputSet input = input_gen.generate(program.signature(), rng);
    trace.clear();
    try {
      const interp::InterpResult r = interp::execute(program, input, interp_opt);
      if (!r.ok) {
        ++stats.skipped_runs;
        continue;
      }
    } catch (const Error&) {
      // Out-of-bounds subscripts / modulo-by-zero under adversarial inputs:
      // no verdict to compare for this run.
      ++stats.skipped_runs;
      continue;
    }
    auto found = interp::find_conflicts(trace);
    if (!found.empty()) {
      conflicts = std::move(found);
      break;  // one dynamically racy run settles the program
    }
  }

  const bool dynamic_racy = !conflicts.empty();
  if (dynamic_racy && static_racy) ++stats.confirmed_racy;
  if (dynamic_racy && !static_racy) {
    ++stats.unsound;
    if (stats.unsound_examples.size() < 8) {
      stats.unsound_examples.push_back(
          program.name() + ": " +
          prof::render_access_conflict(
              conflicts.front(),
              program.var(conflicts.front().first.var).name));
    }
  }
  return dynamic_racy;
}

}  // namespace ompfuzz::analysis
