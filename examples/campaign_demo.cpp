// Campaign demo: the full Figure 1 workflow at configurable scale, driven by
// an INI configuration file exactly like the paper's step (a).
//
//   $ ./campaign_demo [config.ini] [--resume] [--reduce] [--backends N]
//                     [--inject-faults RATE] [--features LIST]
//                     [--trace FILE] [--metrics FILE] [--heartbeat]
//
// --features takes a comma-separated subset of {atomic, single, master,
// schedule, rangeidx} and switches the corresponding generator gates on
// (equivalent to `[generator] features = ...` in the config). All gates default off, and an
// off gate draws nothing from the generator's RNG, so the default program
// stream is bit-identical to builds that predate the gates.
//
// Without a config argument it uses a built-in 40-program configuration over
// the simulated backend. Implementations whose value is a compile command
// (instead of "profile: NAME") select the real-compiler subprocess backend,
// tuned by the [executor] section (max_inflight, concurrent_runs, ...).
//
// The [scheduler] section (and the --backends override) splits the
// implementation list into N contiguous execution backends — each group all
// simulated or all subprocess, so e.g. "profile:" entries can run next to a
// real toolchain in one campaign — and controls shard batching
// (scheduler.batch_size) and work-stealing (scheduler.steal). The merged
// CampaignResult and its JSON report are bit-identical for every split.
//
// With `[store] enabled = true` the campaign persists every executed
// (program, input, implementation) result in a content-addressed run cache
// under `store.dir` and streams completed shards to a crash-safe checkpoint
// journal: a re-run skips every triple whose cache key is unchanged, and
// `--resume` additionally restores whole shards recorded by a previous
// (possibly killed) invocation. Either way the final CampaignResult is
// bit-identical to a cold run.
//
// With `--reduce` every divergent (program, input, implementation set)
// triple the campaign retained is minimized by the verdict-preserving
// reducer; the reduction table is printed and the reduced sources land in
// campaign_reductions.json. When the store is enabled the oracle shares it,
// so a re-reduction replays candidate verdicts without executing anything.
//
// With `--inject-faults RATE` (or a `[faults]` config section) the harness's
// own failure paths — batch dispatch, process-pool spawns, compiles, store
// I/O — fail deterministically at the given per-site probability. Retries,
// failover, and store degradation absorb transient faults completely, so the
// JSON report written under injection is byte-identical to a fault-free
// run's (the CI diffs exactly that); the retry/fault counters print to
// stdout only.
//
// Telemetry (`[telemetry]` config section, overridable by flags) is strictly
// out-of-band — the JSON report is byte-identical with it on or off:
// `--trace FILE` records every campaign phase (generate, compile, run-batch,
// store, steal, process, ...) as Chrome trace_event JSON for
// chrome://tracing / Perfetto; `--metrics FILE` rewrites a machine-readable
// metrics snapshot atomically every telemetry.interval_ms; `--heartbeat`
// prints a live progress line (units done, children/s, store hit rate, live
// backends) to stderr at the same cadence.
//
// The report prints the Table I counts for the campaign plus the most
// extreme outliers, and writes a machine-readable JSON report next to the
// binary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "harness/campaign.hpp"
#include "harness/campaign_metrics.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "reduce/campaign_reduce.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/result_store.hpp"
#include "support/telemetry.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(
; ompfuzz campaign configuration (paper Section V-A shape, laptop scale)
[generator]
max_expression_size = 5
max_nesting_levels = 3
max_lines_in_block = 10
array_size = 1000
max_same_level_blocks = 3
math_func_allowed = true
math_func_probability = 0.01
num_threads = 32
max_loop_trip_count = 100

[campaign]
num_programs = 40
inputs_per_program = 3
seed = 51966
alpha = 0.2
beta = 1.5
min_time_us = 1000

[implementations]
gcc = profile: libgomp
clang = profile: libomp
intel = profile: libiomp5
)";

int run_demo(int argc, char** argv) {
  using namespace ompfuzz;

  bool resume = false;
  bool reduce_divergent = false;
  int backends_override = 0;
  double fault_rate_override = -1.0;
  std::string features_override;
  std::string trace_override;
  std::string metrics_override;
  bool heartbeat_override = false;
  std::string config_path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[a], "--reduce") == 0) {
      reduce_divergent = true;
    } else if (std::strcmp(argv[a], "--backends") == 0) {
      // Must not fall through to the config-path branch on a missing value:
      // "--backends" would silently become the config file path.
      if (a + 1 >= argc) throw ConfigError("--backends needs a positive count");
      backends_override = static_cast<int>(parse_int_arg(
          "--backends", argv[++a], 1, std::numeric_limits<int>::max()));
    } else if (std::strcmp(argv[a], "--inject-faults") == 0) {
      if (a + 1 >= argc) throw ConfigError("--inject-faults needs a rate in [0, 1]");
      fault_rate_override = parse_double_arg("--inject-faults", argv[++a]);
      if (fault_rate_override < 0.0 || fault_rate_override > 1.0) {
        throw ConfigError("--inject-faults needs a rate in [0, 1]");
      }
    } else if (std::strcmp(argv[a], "--features") == 0) {
      if (a + 1 >= argc) {
        throw ConfigError(
            "--features needs a comma-separated list "
            "(atomic, single, master, schedule, rangeidx)");
      }
      features_override = argv[++a];
    } else if (std::strcmp(argv[a], "--trace") == 0) {
      if (a + 1 >= argc) throw ConfigError("--trace needs a file path");
      trace_override = argv[++a];
    } else if (std::strcmp(argv[a], "--metrics") == 0) {
      if (a + 1 >= argc) throw ConfigError("--metrics needs a file path");
      metrics_override = argv[++a];
    } else if (std::strcmp(argv[a], "--heartbeat") == 0) {
      heartbeat_override = true;
    } else {
      config_path = argv[a];
    }
  }
  ConfigFile file = !config_path.empty() ? ConfigFile::load(config_path)
                                         : ConfigFile::parse(kDefaultConfig);
  if (!features_override.empty()) {
    file.set("generator.features", features_override);
  }
  const CampaignConfig cfg = CampaignConfig::from_config(file);

  TelemetryConfig telemetry_cfg = TelemetryConfig::from_config(file);
  if (!trace_override.empty()) telemetry_cfg.trace_file = trace_override;
  if (!metrics_override.empty()) telemetry_cfg.metrics_file = metrics_override;
  if (heartbeat_override) telemetry_cfg.heartbeat = true;
  telemetry_cfg.validate();

  FaultConfig faults = FaultConfig::from_config(file);
  if (fault_rate_override >= 0.0) {
    faults.enabled = true;
    faults.rate = fault_rate_override;
  }
  faults.validate();
  if (faults.enabled) {
    FaultInjector::instance().configure(faults);
    std::printf("fault injection: rate=%.3f seed=%llu sites=%s\n", faults.rate,
                static_cast<unsigned long long>(faults.seed),
                faults.sites.empty() ? "all" : faults.sites.c_str());
  }
  std::printf("campaign: %d programs x %d inputs, alpha=%.2f beta=%.2f, "
              "%zu implementations\n\n",
              cfg.num_programs, cfg.inputs_per_program, cfg.alpha, cfg.beta,
              cfg.implementations.size());

  SchedulerConfig sched = SchedulerConfig::from_config(file);
  if (backends_override > 0) sched.backends = backends_override;
  const auto num_backends = static_cast<std::size_t>(sched.backends);
  if (num_backends > cfg.implementations.size()) {
    throw ConfigError("scheduler.backends exceeds the implementation count");
  }
  if (reduce_divergent && num_backends > 1) {
    // Checked before the campaign runs, not after hours of execution: the
    // reduction oracle classifies candidates against ONE executor's
    // implementation set; reducing a multi-backend campaign's triples would
    // silently drop every implementation outside backend 0.
    throw ConfigError("--reduce currently needs scheduler.backends = 1");
  }

  // Split the implementation list into `scheduler.backends` contiguous,
  // as-equal-as-possible groups. Each group must be homogeneous — all
  // "profile:" entries (one simulated backend) or all compile commands (one
  // subprocess pool). Mixing kinds ACROSS groups is the point of the split
  // (a simulated oracle next to real toolchains in one campaign); mixing
  // within one group is refused loudly, because falling back to simulation
  // would quietly simulate an implementation the user gave a real compile
  // command for.
  const ExecutorConfig ecfg = ExecutorConfig::from_config(file);
  std::vector<std::unique_ptr<harness::Executor>> executors;
  std::vector<harness::CampaignBackend> backends;
  const std::size_t base = cfg.implementations.size() / num_backends;
  const std::size_t extra = cfg.implementations.size() % num_backends;
  std::size_t next = 0;
  for (std::size_t g = 0; g < num_backends; ++g) {
    const std::size_t count = base + (g < extra ? 1 : 0);
    const std::vector<ImplementationSpec> group(
        cfg.implementations.begin() + static_cast<std::ptrdiff_t>(next),
        cfg.implementations.begin() + static_cast<std::ptrdiff_t>(next + count));
    next += count;
    const auto has_command = [](const ImplementationSpec& impl) {
      return !impl.compile_command.empty();
    };
    const bool subprocess_group =
        std::all_of(group.begin(), group.end(), has_command);
    if (!subprocess_group &&
        std::any_of(group.begin(), group.end(), has_command)) {
      throw ConfigError(
          "backend " + std::to_string(g) +
          " mixes compile commands and 'profile:' entries; reorder the "
          "implementations or adjust scheduler.backends so every backend "
          "group is one kind");
    }
    std::string name;
    if (subprocess_group) {
      name = "subprocess" + std::to_string(g);
      executors.push_back(std::make_unique<harness::SubprocessExecutor>(
          group, harness::to_subprocess_options(ecfg)));
      std::printf("backend %s: work_dir=%s max_inflight=%d "
                  "concurrent_runs=%s\n",
                  name.c_str(), ecfg.work_dir.c_str(), ecfg.max_inflight,
                  ecfg.concurrent_runs ? "true" : "false");
    } else {
      name = "sim" + std::to_string(g);
      harness::SimExecutorOptions opt;
      opt.num_threads = cfg.generator.num_threads;
      // Map the configured implementations onto simulated profiles.
      std::vector<rt::OmpImplProfile> profiles;
      for (const auto& impl : group) {
        auto profile = rt::profile_by_name(
            impl.profile.empty() ? impl.name : impl.profile);
        profile.name = impl.name;
        profiles.push_back(std::move(profile));
      }
      executors.push_back(std::make_unique<harness::SimExecutor>(
          std::move(profiles), opt));
    }
    backends.push_back({executors.back().get(), name});
  }
  if (num_backends > 1 || sched.batch_size > 1) {
    std::printf("scheduler: %zu backends, batch_size=%d steal=%s\n",
                num_backends, sched.batch_size, sched.steal ? "on" : "off");
  }
  std::printf("\n");

  harness::Campaign campaign(cfg, backends, sched);

  const StoreConfig store_cfg = StoreConfig::from_config(file);
  std::unique_ptr<ResultStore> store;
  std::unique_ptr<CheckpointJournal> journal;
  if (store_cfg.enabled) {
    store = std::make_unique<ResultStore>(store_cfg);
    journal = std::make_unique<CheckpointJournal>(store_cfg.dir +
                                                  "/checkpoint.journal");
    campaign.set_result_store(store.get());
    campaign.set_checkpoint(journal.get(), resume);
    std::printf("result store: dir=%s resume=%s\n\n", store_cfg.dir.c_str(),
                resume ? "true" : "false");
  } else if (resume) {
    throw ConfigError("--resume needs '[store] enabled = true' in the config");
  }

  if (!telemetry_cfg.trace_file.empty()) {
    telemetry::Tracer::instance().start(telemetry_cfg.trace_file);
  }
  MetricsSampler sampler({telemetry_cfg.metrics_file,
                          telemetry_cfg.interval_ms, telemetry_cfg.heartbeat});
  sampler.start();

  const auto result = campaign.run([](int done, int total) {
    if (done % 10 == 0 || done == total) {
      std::fprintf(stderr, "  %d/%d programs\n", done, total);
    }
  });

  sampler.stop();
  if (!telemetry_cfg.trace_file.empty()) {
    if (telemetry::Tracer::instance().stop()) {
      std::printf("trace written to %s\n\n", telemetry_cfg.trace_file.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   telemetry_cfg.trace_file.c_str());
    }
  }

  if (store) {
    const auto stats = store->stats();
    std::printf("store: %llu hits, %llu misses, %llu puts; resumed %d/%d "
                "programs from %s\n\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.puts),
                campaign.resumed_programs(), cfg.num_programs,
                journal->path().c_str());
  }

  // One snapshot feeds every summary below: the renderers read the registry
  // counters scoped to this run (run_metrics() subtracts the pre-run
  // baseline), so the stdout summaries and campaign_metrics.json agree.
  const telemetry::MetricsSnapshot run_metrics = campaign.run_metrics();
  std::printf("%s\n", harness::render_table1(result).c_str());
  std::printf("%s\n", harness::render_summary(result).c_str());
  std::printf("%s\n",
              harness::render_scheduler_summary(campaign.backends(),
                                                run_metrics)
                  .c_str());
  std::printf("%s\n",
              harness::render_analysis_summary(result, run_metrics).c_str());
  std::printf("%s\n",
              harness::render_robustness_summary(
                  result, campaign.robustness_counters())
                  .c_str());
  std::printf("%s\n", harness::render_outlier_list(result, 10).c_str());

  if (reduce_divergent) {
    std::printf("reducing %zu divergent triples...\n", result.divergent.size());
    const auto reduction_report = reduce::reduce_campaign(
        result, *backends.front().executor, store.get(), {},
        [](int done, int total) {
          std::fprintf(stderr, "  reduced %d/%d triples\n", done, total);
        });
    std::printf("%s\n",
                reduce::render_reduction_table(reduction_report.reductions)
                    .c_str());
    const auto& ostats = reduction_report.oracle_stats;
    std::printf("reduction oracle: %llu candidates, %llu runs executed, "
                "%llu served by the store\n\n",
                static_cast<unsigned long long>(ostats.candidates),
                static_cast<unsigned long long>(ostats.executed_runs),
                static_cast<unsigned long long>(ostats.cached_runs));
    std::ofstream reductions_json("campaign_reductions.json");
    reductions_json << reduce::reductions_to_json(reduction_report.reductions);
    std::printf("reduced sources written to campaign_reductions.json\n");
  }

  const std::string json_path = "campaign_report.json";
  std::ofstream json(json_path);
  json << harness::to_json(result);
  std::printf("full JSON report written to %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_demo(argc, argv);
  } catch (const ompfuzz::ConfigError& e) {
    std::fprintf(stderr, "campaign_demo: %s\n", e.what());
    return 2;
  }
}
