#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "runtime/impl_profile.hpp"

namespace campaign_bench {

using namespace ompfuzz;

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the sizes below
// make one call a few seconds at most, so a run measures many calls.
// sim-breadth runs on two workers, not on every core: with every core busy
// its throughput followed the load other tenants put on a shared host.
constexpr Workload kWorkloads[] = {
    {"sim-paper", Kind::Sim, 40, 4, 0, 0},
    {"sim-breadth", Kind::Sim, 2000, 16, 500, 2},
    {"real-gxx", Kind::Subprocess, 4, 0, 0, 0},
};

/// The paper's Section V-A shape: campaign_demo's built-in configuration.
constexpr const char* kPaperGenerator = R"([generator]
max_expression_size = 5
max_nesting_levels = 3
max_lines_in_block = 10
array_size = 1000
max_same_level_blocks = 3
math_func_allowed = true
math_func_probability = 0.01
num_threads = 32
max_loop_trip_count = 100
)";

/// Many small programs with every optional grammar gate on. min_time_us = 0
/// keeps every test analyzable, so classification does its full work.
constexpr const char* kBreadthGenerator = R"([generator]
max_expression_size = 5
max_nesting_levels = 3
max_lines_in_block = 10
array_size = 1000
max_same_level_blocks = 3
math_func_allowed = true
math_func_probability = 0.01
num_threads = 4
max_loop_trip_count = 8
features = atomic,single,master,schedule,rangeidx
)";

std::string campaign_section(const Workload& workload, std::uint64_t seed,
                             int programs, int inputs, double alpha, double beta,
                             int min_time_us) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\n[campaign]\nnum_programs = %d\ninputs_per_program = %d\n"
                "seed = %llu\nalpha = %g\nbeta = %g\nmin_time_us = %d\n"
                "threads = %zu\n",
                programs, inputs, static_cast<unsigned long long>(seed), alpha,
                beta, min_time_us, campaign_threads(workload));
  return buf;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::size_t campaign_threads(const Workload& workload) {
  const std::size_t cores = resolve_thread_count(0);
  return workload.max_threads > 0
             ? std::min(cores, static_cast<std::size_t>(workload.max_threads))
             : cores;
}

std::uint64_t call_seed(std::uint64_t seed, int call) {
  // The [campaign] seed is read as a signed 64-bit integer.
  constexpr std::uint64_t kMaxSeed = 9'000'000'000'000'000ULL / 1000;
  if (seed > kMaxSeed) throw std::invalid_argument("seed too large");
  return seed * 1000 + static_cast<std::uint64_t>(call);
}

std::string config_text(const Workload& workload, std::uint64_t campaign_seed,
                        int programs, const std::string& work_dir, bool store) {
  const std::string store_section =
      store ? "\n[store]\nenabled = true\ndir = " + work_dir + "/store\n" : "";
  if (workload.kind == Kind::Subprocess) {
    // Single-thread teams: OpenMP leaves no reduction-order freedom, so a
    // well-defined program prints the interpreter's value bit for bit (the
    // correctness oracle), and binaries may run side by side without
    // oversubscribing the cores. real_compiler_diff's trip-count bound and
    // timing slack.
    char exec[256];
    std::snprintf(exec, sizeof exec,
                  "\n[executor]\nwork_dir = %s/tests\nrun_timeout_ms = 30000\n"
                  "concurrent_runs = true\nmax_inflight = %zu\n",
                  work_dir.c_str(), resolve_thread_count(0));
    return std::string("[generator]\nnum_threads = 1\nmax_loop_trip_count = 200\n") +
           campaign_section(workload, campaign_seed, programs, 2, 0.5, 2.0, 0) + exec +
           "\n[implementations]\n"
           "gxx-O0 = g++ -std=c++17 -fopenmp -O0 {src} -o {bin}\n"
           "gxx-O2 = g++ -std=c++17 -fopenmp -O2 {src} -o {bin}\n"
           "gxx-O3 = g++ -std=c++17 -fopenmp -O3 {src} -o {bin}\n" +
           store_section;
  }
  if (workload.name == std::string("sim-paper")) {
    return kPaperGenerator +
           campaign_section(workload, campaign_seed, programs, 3, 0.2, 1.5, 1000) +
           "\n[implementations]\ngcc = profile: libgomp\n"
           "clang = profile: libomp\nintel = profile: libiomp5\n" +
           store_section;
  }
  return kBreadthGenerator +
         campaign_section(workload, campaign_seed, programs, 3, 0.2, 1.5, 0) +
         "\n[implementations]\ngcc = profile: libgomp\nclang = profile: libomp\n" +
         store_section;
}

CampaignSetup make_setup(const std::string& ini, bool resume,
                         const ExecutorWrap& wrap) {
  const ConfigFile file = ConfigFile::parse(ini);
  CampaignSetup setup;
  setup.config = CampaignConfig::from_config(file);
  const auto& impls = setup.config.implementations;
  const bool subprocess = !impls.front().compile_command.empty();
  std::string backend_name;
  if (subprocess) {
    backend_name = "subprocess0";
    setup.executor = std::make_unique<harness::SubprocessExecutor>(
        impls, harness::to_subprocess_options(ExecutorConfig::from_config(file)));
  } else {
    backend_name = "sim0";
    harness::SimExecutorOptions opt;
    opt.num_threads = setup.config.generator.num_threads;
    std::vector<rt::OmpImplProfile> profiles;
    for (const auto& impl : impls) {
      auto profile = rt::profile_by_name(impl.profile);
      profile.name = impl.name;
      profiles.push_back(std::move(profile));
    }
    setup.executor =
        std::make_unique<harness::SimExecutor>(std::move(profiles), opt);
  }
  if (wrap) setup.wrapper = wrap(*setup.executor);
  setup.campaign = std::make_unique<harness::Campaign>(
      setup.config,
      std::vector<harness::CampaignBackend>{{&setup.driven(), backend_name}},
      SchedulerConfig::from_config(file));

  const StoreConfig store_cfg = StoreConfig::from_config(file);
  if (store_cfg.enabled) {
    setup.store = std::make_unique<ResultStore>(store_cfg);
    setup.journal =
        std::make_unique<CheckpointJournal>(store_cfg.dir + "/checkpoint.journal");
    setup.campaign->set_result_store(setup.store.get());
    setup.campaign->set_checkpoint(setup.journal.get(), resume);
  }
  return setup;
}

std::string digest_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace campaign_bench
