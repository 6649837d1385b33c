// Tests for the multi-backend shard scheduler: every unit runs exactly once
// under any batch/steal/thread setting, merged CampaignResults are
// bit-identical across backend splits, batch sizes, and steal schedules,
// work-stealing actually moves work off a skewed batch (wall-clock bound +
// stolen-unit count), the checkpoint journal re-pins sub-shards to their
// owning backend on resume, and stale journal records never restore.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "runtime/impl_profile.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"

namespace ompfuzz::harness {
namespace {

std::string temp_dir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/ompfuzz_sched_" +
                    std::to_string(getpid()) + "_" + std::to_string(counter++);
  mkdir(dir.c_str(), 0755);
  return dir;
}

CampaignConfig sim_config(int programs, int threads) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.max_loop_trip_count = 50;
  cfg.min_time_us = 0;
  cfg.seed = 51966;
  cfg.threads = threads;
  return cfg;
}

SchedulerConfig sched_config(int batch_size, bool steal) {
  SchedulerConfig s;
  s.batch_size = batch_size;
  s.steal = steal;
  return s;
}

/// The three vendor profiles in canonical order; slices of this list build
/// backend splits whose concatenated implementation order matches the
/// single-backend baseline.
std::vector<rt::OmpImplProfile> profile_slice(std::size_t from, std::size_t to) {
  const std::vector<rt::OmpImplProfile> all = {
      rt::gcc_profile(), rt::clang_profile(), rt::intel_profile()};
  return {all.begin() + static_cast<std::ptrdiff_t>(from),
          all.begin() + static_cast<std::ptrdiff_t>(to)};
}

// ------------------------------------------------------- raw scheduler ----

TEST(ShardScheduler, EveryUnitRunsExactlyOnce) {
  for (const int batch_size : {1, 4, 16}) {
    for (const bool steal : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const ShardScheduler scheduler(2, sched_config(batch_size, steal),
                                       threads);
        std::mutex mutex;
        std::set<std::tuple<int, std::size_t, std::size_t>> seen;
        std::atomic<int> calls{0};
        const std::vector<std::vector<int>> programs = {
            {0, 1, 2, 3, 4, 5, 6}, {0, 2, 4, 6}};
        const auto stats = scheduler.run(programs, 3, [&](const ShardUnit& unit) {
          calls.fetch_add(1);
          const std::lock_guard<std::mutex> lock(mutex);
          EXPECT_LT(unit.input_index, 3u);
          EXPECT_TRUE(
              seen.insert({unit.program_index, unit.input_index, unit.backend})
                  .second)
              << "unit ran twice";
        });
        EXPECT_EQ(calls.load(), 33);
        EXPECT_EQ(seen.size(), 33u);
        EXPECT_EQ(stats.units, 33u);
        ASSERT_EQ(stats.units_per_backend.size(), 2u);
        EXPECT_EQ(stats.units_per_backend[0], 21u);
        EXPECT_EQ(stats.units_per_backend[1], 12u);
        const auto expected_batches =
            static_cast<std::uint64_t>((7 + batch_size - 1) / batch_size +
                                       (4 + batch_size - 1) / batch_size);
        EXPECT_EQ(stats.batches, expected_batches);
        if (!steal || threads <= 1) {
          EXPECT_EQ(stats.stolen_units, 0u);
        }
      }
    }
  }
}

TEST(ShardScheduler, PropagatesRunUnitExceptions) {
  const ShardScheduler scheduler(1, sched_config(2, true), 4);
  const std::vector<std::vector<int>> programs = {{0, 1, 2, 3, 4, 5}};
  std::atomic<int> calls{0};
  EXPECT_THROW(scheduler.run(programs, 2,
                             [&](const ShardUnit& unit) {
                               calls.fetch_add(1);
                               if (unit.program_index == 3 &&
                                   unit.input_index == 0) {
                                 throw Error("unit failure");
                               }
                             }),
               Error);
  // Remaining units still ran (parallel_for semantics).
  EXPECT_EQ(calls.load(), 12);
}

// ------------------------------------------- bit-identical merged result ---

TEST(SchedulerCampaign, BitIdenticalAcrossBatchSizesAndSteal) {
  SimExecutorOptions opt;
  opt.num_threads = 4;

  SimExecutor baseline_exec(opt);
  Campaign baseline(sim_config(18, 1), baseline_exec);
  const std::string expected = to_json(baseline.run());

  for (const int batch_size : {1, 4, 16}) {
    for (const bool steal : {false, true}) {
      for (const int threads : {1, 4}) {
        SimExecutor exec(opt);
        Campaign campaign(sim_config(18, threads),
                          {{&exec, "default"}},
                          sched_config(batch_size, steal));
        EXPECT_EQ(to_json(campaign.run()), expected)
            << "batch_size=" << batch_size << " steal=" << steal
            << " threads=" << threads;
      }
    }
  }
}

TEST(SchedulerCampaign, BitIdenticalAcrossBackendSplits) {
  SimExecutorOptions opt;
  opt.num_threads = 4;

  SimExecutor baseline_exec(profile_slice(0, 3), opt);
  Campaign baseline(sim_config(12, 1), {{&baseline_exec, "all"}});
  const std::string expected = to_json(baseline.run());

  {
    // {gcc} | {clang, intel}
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    Campaign campaign(sim_config(12, 4), {{&a, "left"}, {&b, "right"}},
                      sched_config(4, true));
    EXPECT_EQ(to_json(campaign.run()), expected);
  }
  {
    // {gcc} | {clang} | {intel}
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 2), opt);
    SimExecutor c(profile_slice(2, 3), opt);
    Campaign campaign(sim_config(12, 4),
                      {{&a, "b0"}, {&b, "b1"}, {&c, "b2"}},
                      sched_config(1, false));
    EXPECT_EQ(to_json(campaign.run()), expected);
  }
}

TEST(SchedulerCampaign, RejectsDuplicateImplsAndAnonymousBackends) {
  SimExecutorOptions opt;
  SimExecutor a(profile_slice(0, 2), opt);
  SimExecutor b(profile_slice(1, 3), opt);  // clang appears in both
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&a, "a"}, {&b, "b"}}), Error);

  SimExecutor c(profile_slice(0, 1), opt);
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&c, ""}}), Error);
  SimExecutor d(profile_slice(1, 3), opt);
  EXPECT_THROW(Campaign(sim_config(2, 1), {{&c, "same"}, {&d, "same"}}), Error);
}

// ------------------------------------------------- skewed-cost stealing ----

/// Deterministic sleeping executor: program "test_0" costs `heavy_ms` per
/// run, every other program `light_ms` — the 50x-skew shape of a hang-heavy
/// shard. Results are a pure function of (program, input, impl): fixed
/// self-reported time, output derived from the test seed, so campaigns over
/// it are bit-identical however units are scheduled.
class SleepExecutor final : public Executor {
 public:
  SleepExecutor(int heavy_ms, int light_ms)
      : heavy_ms_(heavy_ms), light_ms_(light_ms) {}

  [[nodiscard]] core::RunResult run(const TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    const bool heavy = test.program.name() == "test_0";
    std::this_thread::sleep_for(
        std::chrono::milliseconds(heavy ? heavy_ms_ : light_ms_));
    core::RunResult result;
    result.impl = impl_name;
    result.status = core::RunStatus::Ok;
    result.time_us = 2000.0;
    result.output = static_cast<double>((test.seed >> 8) % 1000) +
                    static_cast<double>(input_index);
    return result;
  }

  [[nodiscard]] std::vector<std::string> implementations() const override {
    return {"stub"};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  int heavy_ms_;
  int light_ms_;
};

TEST(SchedulerSteal, MovesWorkOffSkewedBatchesAndPreservesResults) {
  // 40 programs, one 50x shard, a single batch, 4 workers. Without stealing
  // the worker that pops the batch runs all 40 units serially (the sum of
  // every sleep); with stealing the three idle workers drain the light units
  // while the owner sits in the heavy one, so wall-clock collapses towards
  // the heavy unit's cost.
  constexpr int kPrograms = 40;
  constexpr int kLightMs = 4;
  constexpr int kHeavyMs = 50 * kLightMs;
  CampaignConfig cfg = sim_config(kPrograms, 4);
  cfg.inputs_per_program = 1;

  const auto timed_run = [&](bool steal, SchedulerStats* stats_out) {
    SleepExecutor exec(kHeavyMs, kLightMs);
    Campaign campaign(cfg, {{&exec, "sleepy"}},
                      sched_config(kPrograms, steal));
    const auto start = std::chrono::steady_clock::now();
    const CampaignResult result = campaign.run();
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (stats_out != nullptr) *stats_out = campaign.scheduler_stats();
    return std::make_pair(to_json(result), wall);
  };

  SchedulerStats steal_stats;
  const auto [json_off, wall_off] = timed_run(false, nullptr);
  const auto [json_on, wall_on] = timed_run(true, &steal_stats);

  EXPECT_EQ(json_on, json_off) << "steal schedule changed the merged result";
  EXPECT_GT(steal_stats.stolen_units, 0u) << "no work was stolen";
  // Serial lower bound without stealing: the sum of all sleeps (~356 ms).
  // With stealing the bound is ~one heavy unit (~200 ms); 0.75 leaves CI
  // scheduling noise plenty of headroom while still proving movement.
  EXPECT_LT(wall_on, wall_off * 3 / 4)
      << "stealing did not shorten the skewed campaign: " << wall_on << "ms vs "
      << wall_off << "ms";
}

// ------------------------------------------------ journal v3 re-pinning ----

/// Forwards to an inner executor, counting batch dispatches — a resumed
/// campaign that restored every sub-shard must dispatch nothing.
class CountingExecutor final : public Executor {
 public:
  CountingExecutor(Executor& inner, std::atomic<int>& batches)
      : inner_(inner), batches_(batches) {}

  [[nodiscard]] core::RunResult run(const TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    batches_.fetch_add(1);
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    batches_.fetch_add(1);
    return inner_.run_batch(test, input_indices, impls);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(
      const std::string& impl_name) const override {
    return inner_.impl_identity(impl_name);
  }
  [[nodiscard]] bool thread_safe() const noexcept override {
    return inner_.thread_safe();
  }

 private:
  Executor& inner_;
  std::atomic<int>& batches_;
};

TEST(SchedulerJournal, MultiBackendResumeRepinsEveryBackend) {
  const std::string path = temp_dir() + "/j.journal";
  SimExecutorOptions opt;
  opt.num_threads = 4;
  const CampaignConfig cfg = sim_config(6, 2);
  const SchedulerConfig sched = sched_config(2, true);

  std::string cold_json;
  {
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    CheckpointJournal journal(path);
    Campaign campaign(cfg, {{&a, "left"}, {&b, "right"}}, sched);
    campaign.set_checkpoint(&journal, true);
    cold_json = to_json(campaign.run());
    EXPECT_EQ(campaign.resumed_programs(), 0);
  }
  {
    // Same split: every sub-shard restores, zero dispatches.
    SimExecutor a(profile_slice(0, 1), opt);
    SimExecutor b(profile_slice(1, 3), opt);
    std::atomic<int> dispatches{0};
    CountingExecutor ca(a, dispatches);
    CountingExecutor cb(b, dispatches);
    CheckpointJournal journal(path);
    Campaign campaign(cfg, {{&ca, "left"}, {&cb, "right"}}, sched);
    campaign.set_checkpoint(&journal, true);
    EXPECT_EQ(to_json(campaign.run()), cold_json);
    EXPECT_EQ(campaign.resumed_programs(), cfg.num_programs);
    EXPECT_EQ(dispatches.load(), 0)
        << "restored campaign dispatched to an executor";
  }
  {
    // Different split, same implementations: a different checkpoint key —
    // sub-shard ownership moved, so nothing may restore.
    SimExecutor all(profile_slice(0, 3), opt);
    CheckpointJournal journal(path);
    Campaign campaign(cfg, {{&all, "all"}}, sched);
    campaign.set_checkpoint(&journal, true);
    EXPECT_EQ(to_json(campaign.run()), cold_json)
        << "the merged result itself is split-invariant";
    EXPECT_EQ(campaign.resumed_programs(), 0);
  }
}

TEST(SchedulerJournal, GrownCampaignResumesItsPrefix) {
  const std::string path = temp_dir() + "/j.journal";
  SimExecutorOptions opt;
  opt.num_threads = 4;
  const SchedulerConfig sched = sched_config(3, true);

  {
    SimExecutor a(profile_slice(0, 2), opt);
    SimExecutor b(profile_slice(2, 3), opt);
    CheckpointJournal journal(path);
    Campaign campaign(sim_config(3, 2), {{&a, "left"}, {&b, "right"}}, sched);
    campaign.set_checkpoint(&journal, true);
    (void)campaign.run();
  }
  std::string grown_json;
  {
    SimExecutor a(profile_slice(0, 2), opt);
    SimExecutor b(profile_slice(2, 3), opt);
    CheckpointJournal journal(path);
    Campaign campaign(sim_config(6, 2), {{&a, "left"}, {&b, "right"}}, sched);
    campaign.set_checkpoint(&journal, true);
    grown_json = to_json(campaign.run());
    EXPECT_EQ(campaign.resumed_programs(), 3);
  }
  // The grown, partially resumed campaign matches a cold serial run.
  SimExecutor a(profile_slice(0, 2), opt);
  SimExecutor b(profile_slice(2, 3), opt);
  Campaign cold(sim_config(6, 1), {{&a, "left"}, {&b, "right"}});
  EXPECT_EQ(grown_json, to_json(cold.run()));
}

// ------------------------------------------------------- stale journals ----

/// Runs `cfg` over the gcc/clang/intel profiles, as one backend ("default")
/// or split across two, resuming from `journal_path` when it is non-empty.
/// Returns the report JSON and stores resumed_programs() in `resumed`.
std::string run_journaled(const CampaignConfig& cfg, int split,
                          const std::string& journal_path, int* resumed = nullptr) {
  SimExecutorOptions opt;
  opt.num_threads = 4;
  SimExecutor all(profile_slice(0, 3), opt);
  SimExecutor left(profile_slice(0, 1), opt);
  SimExecutor right(profile_slice(1, 3), opt);
  std::vector<CampaignBackend> backends = {{&all, "default"}};
  if (split == 2) backends = {{&left, "left"}, {&right, "right"}};
  Campaign campaign(cfg, backends);
  std::optional<CheckpointJournal> journal;
  if (!journal_path.empty()) {
    journal.emplace(journal_path);
    campaign.set_checkpoint(&*journal, true);
  }
  std::string json = to_json(campaign.run());
  if (resumed != nullptr) *resumed = campaign.resumed_programs();
  return json;
}

TEST(StaleJournal, KeyCoversEveryFeatureGateAndProbability) {
  SimExecutor exec{SimExecutorOptions{}};
  const auto key_of = [&](const CampaignConfig& cfg) {
    return Campaign(cfg, exec).checkpoint_key();
  };
  const CampaignConfig base = sim_config(4, 1);
  const std::uint64_t key = key_of(base);
  using Edit = void (*)(GeneratorConfig&);
  const Edit edits[] = {
      [](GeneratorConfig& g) { g.enable_atomic = true; },
      [](GeneratorConfig& g) { g.enable_single = true; },
      [](GeneratorConfig& g) { g.enable_master = true; },
      [](GeneratorConfig& g) { g.enable_schedule = true; },
      [](GeneratorConfig& g) { g.enable_rangeidx = true; },
      [](GeneratorConfig& g) { g.p_atomic = 0.5; },
      [](GeneratorConfig& g) { g.p_single = 0.5; },
      [](GeneratorConfig& g) { g.p_master = 0.5; },
      [](GeneratorConfig& g) { g.p_schedule = 0.5; },
      [](GeneratorConfig& g) { g.p_rangeidx = 0.5; },
  };
  for (std::size_t e = 0; e < std::size(edits); ++e) {
    CampaignConfig cfg = base;
    edits[e](cfg.generator);
    EXPECT_NE(key_of(cfg), key) << "generator edit " << e;
  }
  CampaignConfig grown = base;
  grown.num_programs = 40;
  EXPECT_EQ(key_of(grown), key) << "a grown campaign must resume its prefix";
}

TEST(StaleJournal, ToggledFeatureGatesResumeLikeAColdRun) {
  const CampaignConfig plain = sim_config(6, 2);
  CampaignConfig gated = plain;
  gated.generator.enable_features("atomic,single,master,schedule");
  for (const int split : {1, 2}) {
    const std::string path = temp_dir() + "/j.journal";
    (void)run_journaled(plain, split, path);  // journals the ungated stream
    int resumed = -1;
    EXPECT_EQ(run_journaled(gated, split, path, &resumed),
              run_journaled(gated, split, ""))
        << split << " backend(s): resumed records of the ungated stream";
    EXPECT_EQ(resumed, 0) << split << " backend(s)";
  }
}

TEST(StaleJournal, RecordsThatDisagreeWithTheProgramAreReexecuted) {
  const CampaignConfig cfg = sim_config(4, 1);
  const std::string cold = run_journaled(cfg, 1, "");
  for (const bool wrong_fingerprint : {true, false}) {
    const std::string path = temp_dir() + "/j.journal";
    (void)run_journaled(cfg, 1, path);
    {
      // Append a doctored copy of program 2's record under the current key.
      // Later records win, so it replaces the genuine one on resume; its
      // tripled times would show in the report if it were restored.
      SimExecutorOptions opt;
      opt.num_threads = 4;
      SimExecutor all(profile_slice(0, 3), opt);
      const Campaign campaign(cfg, {{&all, "default"}});
      CheckpointJournal journal(path);
      const auto records =
          journal.open(campaign.checkpoint_key(), all.implementations(), true);
      const auto genuine =
          std::find_if(records.begin(), records.end(),
                       [](const StoredShard& s) { return s.program_index == 2; });
      ASSERT_NE(genuine, records.end());
      StoredShard doctored = *genuine;
      if (wrong_fingerprint) {
        doctored.program_fingerprint ^= 1;
      } else {
        doctored.outcomes[1].input_text += " 1";
      }
      for (auto& outcome : doctored.outcomes) {
        for (auto& run : outcome.runs) run.time_us *= 3;
      }
      journal.append(doctored);
    }
    int resumed = -1;
    EXPECT_EQ(run_journaled(cfg, 1, path, &resumed), cold)
        << (wrong_fingerprint ? "wrong fingerprint" : "wrong input text");
    EXPECT_EQ(resumed, cfg.num_programs - 1)
        << (wrong_fingerprint ? "wrong fingerprint" : "wrong input text");
  }
}

// ------------------------------------------------------ mixed backends ----

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

TEST(SchedulerCampaign, SimAndSubprocessBackendsMergeIntoOneResult) {
  const std::string dir = temp_dir();
  const std::string payload = dir + "/payload.sh";
  write_script(payload, "#!/bin/sh\necho 42\necho \"time_us: 2000\"\n");
  const std::string cc = dir + "/cc.sh";
  write_script(cc, "#!/bin/sh\ncp " + payload + " \"$2\"\nchmod +x \"$2\"\n");

  SimExecutorOptions opt;
  opt.num_threads = 4;
  SimExecutor sim(profile_slice(0, 3), opt);
  std::vector<ImplementationSpec> impls = {{"stubcc", cc + " {src} {bin}", ""}};
  SubprocessOptions sub_opt;
  sub_opt.work_dir = dir + "/work";
  sub_opt.concurrent_runs = true;
  SubprocessExecutor sub(impls, sub_opt);

  CampaignConfig cfg = sim_config(4, 2);
  Campaign campaign(cfg, {{&sim, "sim"}, {&sub, "cc"}}, sched_config(2, true));
  const CampaignResult result = campaign.run();

  const std::vector<std::string> expected_names = {"gcc", "clang", "intel",
                                                   "stubcc"};
  EXPECT_EQ(result.impl_names, expected_names);
  EXPECT_EQ(result.total_runs,
            cfg.num_programs * cfg.inputs_per_program * 4);
  ASSERT_TRUE(result.per_impl.contains("stubcc"));
  for (const auto& outcome : result.outcomes) {
    ASSERT_EQ(outcome.runs.size(), 4u);
    EXPECT_EQ(outcome.runs[3].impl, "stubcc");
    EXPECT_EQ(outcome.runs[3].status, core::RunStatus::Ok);
    EXPECT_EQ(outcome.runs[3].output, 42.0);
  }
}

}  // namespace
}  // namespace ompfuzz::harness
