// Real-compiler differential testing: the paper's actual driver, using
// whatever OpenMP compilers this machine has. With a single g++ install,
// optimization levels act as implementation proxies (same compile-run-compare
// pipeline; see DESIGN.md substitutions). With icpx/clang++ installed, edit
// the commands below and this example runs the paper's exact experiment.
//
//   $ ./real_compiler_diff [num_programs] [threads] [max_inflight]
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/subprocess_executor.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace ompfuzz;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  int programs = 5;
  int threads = 1;
  int max_inflight = 0;
  try {
    // Parsed before anything is spawned: a malformed argument starts no child.
    if (argc > 1) {
      programs = static_cast<int>(parse_int_arg("num_programs", argv[1], 1, kIntMax));
    }
    if (argc > 2) {
      threads = static_cast<int>(parse_int_arg("threads", argv[2], 0, kIntMax));
    }
    if (argc > 3) {
      max_inflight = static_cast<int>(parse_int_arg("max_inflight", argv[3], 0, kIntMax));
    }
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "real_compiler_diff: %s\n", e.what());
    return 2;
  }

  if (std::system("g++ --version > /dev/null 2>&1") != 0) {
    std::printf("no g++ on PATH; this example needs a real compiler\n");
    return 0;
  }

  std::vector<ImplementationSpec> impls = {
      {"gxx-O0", "g++ -std=c++17 -fopenmp -O0 {src} -o {bin}", ""},
      {"gxx-O2", "g++ -std=c++17 -fopenmp -O2 {src} -o {bin}", ""},
      {"gxx-O3", "g++ -std=c++17 -fopenmp -O3 {src} -o {bin}", ""},
  };
  std::printf("implementations under test:\n");
  for (const auto& impl : impls) {
    std::printf("  %-7s %s\n", impl.name.c_str(), impl.compile_command.c_str());
  }

  // The [executor] config section drives the same struct; build it directly
  // here so the example stays file-free.
  ExecutorConfig ecfg;
  ecfg.work_dir = "_real_tests";
  ecfg.run_timeout_ms = 30'000;
  // Trade timing fidelity for throughput when parallelism was requested —
  // this example's alpha = 0.5 already tolerates wall-clock noise.
  ecfg.concurrent_runs = threads != 1;  // 0 means "all hardware threads"
  ecfg.max_inflight = max_inflight;     // 0 = 2x hardware concurrency
  harness::SubprocessExecutor executor(std::move(impls),
                                       harness::to_subprocess_options(ecfg));

  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 4;  // modest team for laptop hardware
  cfg.generator.max_loop_trip_count = 200;
  cfg.min_time_us = 0;  // real runs here are fast; analyze everything
  cfg.alpha = 0.5;      // wall-clock noise on a shared machine needs slack
  cfg.beta = 2.0;
  cfg.threads = threads;  // campaign shards (see concurrent_runs above)

  harness::Campaign campaign(cfg, executor);
  std::printf("\ncompiling and running %d programs x 2 inputs x 3 binaries "
              "(this shells out to g++)...\n\n", programs);
  const auto result = campaign.run([](int done, int total) {
    std::fprintf(stderr, "  %d/%d programs\n", done, total);
  });

  std::printf("%s\n", harness::render_table1(result).c_str());
  std::printf("%s\n", harness::render_summary(result).c_str());

  // Output agreement across optimization levels: race-free tests compiled
  // from the same source should agree numerically.
  int agreeing = 0, total = 0;
  for (const auto& outcome : result.outcomes) {
    bool all_ok = true;
    for (const auto& run : outcome.runs) {
      all_ok &= run.status == core::RunStatus::Ok;
    }
    if (!all_ok) continue;
    ++total;
    agreeing += outcome.divergence.all_equivalent ? 1 : 0;
  }
  std::printf("output agreement across -O0/-O2/-O3: %d of %d tests\n",
              agreeing, total);
  return 0;
}
