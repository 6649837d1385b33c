// Determinism tests for the sharded campaign engine: for a fixed seed, a
// campaign must produce bit-identical results for every thread count, steal
// schedule and kill point — also when idle workers take a straggler
// program's inputs — and the thread-pool substrate must behave (cover every
// index, propagate exceptions, resolve the 0 = hardware-concurrency knob).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"
#include "support/thread_pool.hpp"

namespace ompfuzz {
namespace {

using harness::Campaign;
using harness::CampaignResult;
using harness::Executor;
using harness::SimExecutor;
using harness::SimExecutorOptions;
using harness::TestOutcome;

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_thread_count(0), hw == 0 ? 1u : static_cast<std::size_t>(hw));
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr int kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, kN, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](int) { FAIL() << "must not be called"; });
  parallel_for(pool, -3, [](int) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      parallel_for(pool, 20,
                   [&](int i) {
                     if (i == 7) throw std::runtime_error("boom");
                     completed++;
                   }),
      std::runtime_error);
  // Every non-throwing iteration still ran.
  EXPECT_EQ(completed, 19);
}

// ------------------------------------------------------------- campaign ----

CampaignConfig small_config(int threads) {
  CampaignConfig cfg;
  cfg.generator.max_loop_trip_count = 40;  // keep interpretation fast
  cfg.num_programs = 10;
  cfg.inputs_per_program = 2;
  cfg.seed = 0xDEC0DE;
  cfg.threads = threads;
  return cfg;
}

CampaignResult run_campaign(int threads) {
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor exec(opt);
  Campaign campaign(small_config(threads), exec);
  return campaign.run();
}

/// Bitwise double equality that treats NaN as equal to itself (generated
/// programs legitimately compute NaN on extreme inputs).
void expect_bits_eq(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.impl_names, b.impl_names);
  EXPECT_EQ(a.total_runs, b.total_runs);
  EXPECT_EQ(a.total_tests, b.total_tests);
  EXPECT_EQ(a.analyzable_tests, b.analyzable_tests);
  EXPECT_EQ(a.skipped_runs, b.skipped_runs);
  EXPECT_EQ(a.regenerated_programs, b.regenerated_programs);

  ASSERT_EQ(a.per_impl.size(), b.per_impl.size());
  for (const auto& [name, counts] : a.per_impl) {
    const auto it = b.per_impl.find(name);
    ASSERT_NE(it, b.per_impl.end()) << name;
    EXPECT_EQ(counts.slow, it->second.slow) << name;
    EXPECT_EQ(counts.fast, it->second.fast) << name;
    EXPECT_EQ(counts.crash, it->second.crash) << name;
    EXPECT_EQ(counts.hang, it->second.hang) << name;
    EXPECT_EQ(counts.fast_with_divergence, it->second.fast_with_divergence) << name;
  }

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t t = 0; t < a.outcomes.size(); ++t) {
    const TestOutcome& oa = a.outcomes[t];
    const TestOutcome& ob = b.outcomes[t];
    EXPECT_EQ(oa.program_index, ob.program_index);
    EXPECT_EQ(oa.input_index, ob.input_index);
    EXPECT_EQ(oa.program_name, ob.program_name);
    EXPECT_EQ(oa.input_text, ob.input_text);

    ASSERT_EQ(oa.runs.size(), ob.runs.size());
    for (std::size_t r = 0; r < oa.runs.size(); ++r) {
      EXPECT_EQ(oa.runs[r].impl, ob.runs[r].impl);
      EXPECT_EQ(oa.runs[r].status, ob.runs[r].status);
      expect_bits_eq(oa.runs[r].time_us, ob.runs[r].time_us);
      expect_bits_eq(oa.runs[r].output, ob.runs[r].output);
    }

    EXPECT_EQ(oa.verdict.analyzable, ob.verdict.analyzable);
    EXPECT_EQ(oa.verdict.filter_reason, ob.verdict.filter_reason);
    expect_bits_eq(oa.verdict.midpoint_us, ob.verdict.midpoint_us);
    EXPECT_EQ(oa.verdict.comparable_group, ob.verdict.comparable_group);
    EXPECT_EQ(oa.verdict.per_run, ob.verdict.per_run);

    EXPECT_EQ(oa.divergence.all_equivalent, ob.divergence.all_equivalent);
    EXPECT_EQ(oa.divergence.majority_size, ob.divergence.majority_size);
    EXPECT_EQ(oa.divergence.diverges, ob.divergence.diverges);
  }

  // The static_analysis block (including the interval-precision counters) is
  // re-derived at merge time from the journaled regeneration counts, so it
  // must be a pure function of the config — identical for every split.
  EXPECT_EQ(a.analysis.programs_checked, b.analysis.programs_checked);
  EXPECT_EQ(a.analysis.programs_filtered, b.analysis.programs_filtered);
  EXPECT_EQ(a.analysis.findings_by_kind, b.analysis.findings_by_kind);
  EXPECT_EQ(a.analysis.interval_rescued_drafts,
            b.analysis.interval_rescued_drafts);
  EXPECT_EQ(a.analysis.interval_disjoint_pairs,
            b.analysis.interval_disjoint_pairs);
  EXPECT_EQ(a.analysis.interval_mod_rewrites, b.analysis.interval_mod_rewrites);
}

TEST(CampaignParallel, FourThreadsMatchSerialExactly) {
  const CampaignResult serial = run_campaign(1);
  const CampaignResult parallel = run_campaign(4);
  expect_identical(serial, parallel);
}

TEST(CampaignParallel, HardwareConcurrencyMatchesSerial) {
  // threads = 0 resolves to hardware concurrency; the result must still be
  // identical to a serial run.
  const CampaignResult serial = run_campaign(1);
  const CampaignResult hw = run_campaign(0);
  expect_identical(serial, hw);
}

TEST(CampaignParallel, RangeidxIntervalCountersFireAndSplitInvariantly) {
  // On a rangeidx stream the accepted drafts carry banked `tid + k*T` and
  // `iv % size` subscripts the affine baseline flags as racy; the interval
  // counters must actually fire there, and must stay identical across
  // thread counts (expect_identical now covers the analysis block).
  const auto run = [](int threads) {
    CampaignConfig cfg = small_config(threads);
    cfg.generator.array_size = 64;  // banks >= 2 under 32-thread regions
    cfg.generator.max_loop_trip_count = 12;
    cfg.generator.enable_features("rangeidx");
    SimExecutorOptions opt;
    opt.num_threads = 8;
    SimExecutor exec(opt);
    Campaign campaign(cfg, exec);
    return campaign.run();
  };
  const CampaignResult serial = run(1);
  const CampaignResult parallel = run(4);
  expect_identical(serial, parallel);

  EXPECT_GT(serial.analysis.interval_rescued_drafts, 0);
  EXPECT_GT(serial.analysis.interval_disjoint_pairs, 0u);
  EXPECT_GT(serial.analysis.interval_mod_rewrites, 0u);
  EXPECT_LE(serial.analysis.interval_rescued_drafts,
            serial.analysis.programs_checked);

  // The default stream draws nothing from the rangeidx feature, so its
  // precision counters stay zero — the delta is attributable to the gate.
  const CampaignResult plain = run_campaign(1);
  EXPECT_EQ(plain.analysis.interval_rescued_drafts, 0);
}

TEST(CampaignParallel, OutcomesStayInProgramOrder) {
  const CampaignResult result = run_campaign(4);
  const auto& cfg = small_config(4);
  ASSERT_EQ(result.outcomes.size(),
            static_cast<std::size_t>(cfg.num_programs * cfg.inputs_per_program));
  for (std::size_t t = 0; t < result.outcomes.size(); ++t) {
    EXPECT_EQ(result.outcomes[t].program_index,
              static_cast<int>(t) / cfg.inputs_per_program);
    EXPECT_EQ(result.outcomes[t].input_index,
              static_cast<int>(t) % cfg.inputs_per_program);
  }
}

TEST(CampaignParallel, ProgressReachesTotalAndStaysMonotonic) {
  SimExecutorOptions opt;
  opt.num_threads = 8;
  SimExecutor exec(opt);
  Campaign campaign(small_config(3), exec);
  std::mutex mutex;
  int last_done = 0;
  int calls = 0;
  const CampaignResult result = campaign.run([&](int done, int total) {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_GT(done, last_done);
    EXPECT_EQ(total, 10);
    last_done = done;
    ++calls;
  });
  EXPECT_EQ(last_done, 10);
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(result.total_tests, 20);
}

TEST(CampaignParallel, ThreadsKnobParsesAndValidates) {
  const ConfigFile file = ConfigFile::parse("[campaign]\nthreads = 4\n");
  EXPECT_EQ(CampaignConfig::from_config(file).threads, 4);

  CampaignConfig cfg;
  EXPECT_EQ(cfg.threads, 1);  // serial by default
  cfg.threads = 0;            // hardware concurrency: valid
  EXPECT_NO_THROW(cfg.validate());
  cfg.threads = -1;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// --------------------------------------------------- input-granular units --

/// Forwards to `inner`, sleeping `heavy_ms` in every run_batch call for
/// program "test_0": a straggler whose every input costs far more than the
/// whole rest of the campaign. Results are the inner executor's.
class StragglerExecutor final : public Executor {
 public:
  StragglerExecutor(Executor& inner, int heavy_ms)
      : inner_(inner), heavy_ms_(heavy_ms) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    if (test.program.name() == "test_0") {
      std::this_thread::sleep_for(std::chrono::milliseconds(heavy_ms_));
    }
    return inner_.run_batch(test, input_indices, impls);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(const std::string& name) const override {
    return inner_.impl_identity(name);
  }
  void reclaim_artifacts(std::uint64_t fingerprint) override {
    inner_.reclaim_artifacts(fingerprint);
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  Executor& inner_;
  int heavy_ms_;
};

TEST(CampaignParallel, IdleWorkersStealAStragglersInputsWithoutChangingTheReport) {
  // Program 0's inputs each outlast the rest of the campaign. Its owner runs
  // input 0 while the other workers drain programs 1..7; they then take
  // inputs 1 and 2 instead of idling behind the owner.
  const auto run = [](int threads, bool steal, std::uint64_t* stolen) {
    CampaignConfig cfg = small_config(threads);
    cfg.num_programs = 8;
    cfg.inputs_per_program = 3;
    SimExecutorOptions opt;
    opt.num_threads = 8;
    SimExecutor sim(opt);
    StragglerExecutor exec(sim, 300);
    SchedulerConfig sched;
    sched.steal = steal;
    Campaign campaign(cfg, {{&exec, "default"}}, sched);
    const std::string report = harness::to_json(campaign.run());
    if (stolen != nullptr) *stolen = campaign.scheduler_stats().stolen_units;
    return report;
  };
  std::uint64_t stolen = 0;
  const std::string parallel = run(4, true, &stolen);
  EXPECT_GT(stolen, 0u) << "no idle worker took a straggler input";
  EXPECT_EQ(parallel, run(1, true, nullptr));
  EXPECT_EQ(parallel, run(4, false, nullptr));
}

/// Thrown by KillingExecutor. Not a std::exception, so the campaign's retry
/// layer does not absorb it: the unit that receives it never completes.
struct Killed {};

/// Forwards to `inner` for the first `live_calls` run_batch calls and throws
/// Killed from then on — a campaign process killed mid-program.
class KillingExecutor final : public Executor {
 public:
  KillingExecutor(Executor& inner, int live_calls)
      : inner_(inner), live_calls_(live_calls) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
                                    std::size_t input_index,
                                    const std::string& impl_name) override {
    return inner_.run(test, input_index, impl_name);
  }
  [[nodiscard]] std::vector<core::RunResult> run_batch(
      const harness::TestCase& test, const std::vector<std::size_t>& input_indices,
      const std::vector<std::string>& impls) override {
    if (calls_++ >= live_calls_) throw Killed{};
    return inner_.run_batch(test, input_indices, impls);
  }
  [[nodiscard]] std::vector<std::string> implementations() const override {
    return inner_.implementations();
  }
  [[nodiscard]] std::string impl_identity(const std::string& name) const override {
    return inner_.impl_identity(name);
  }

 private:
  Executor& inner_;
  int live_calls_;
  int calls_ = 0;
};

TEST(CampaignParallel, KillBetweenAProgramsInputsResumesIdentically) {
  // 3 inputs per program, one run_batch call per input: 7 live calls finish
  // programs 0 and 1 and input 0 of program 2. Program 2 is therefore not
  // journaled, and the resumed campaign runs it again from its first input.
  CampaignConfig cfg = small_config(1);
  cfg.num_programs = 5;
  cfg.inputs_per_program = 3;
  SimExecutorOptions opt;
  opt.num_threads = 8;
  const std::string path = ::testing::TempDir() + "/ompfuzz_kill_input_" +
                           std::to_string(getpid()) + ".journal";
  std::remove(path.c_str());

  std::string expected;
  {
    SimExecutor sim(opt);
    Campaign reference(cfg, sim);
    expected = harness::to_json(reference.run());
  }
  {
    SimExecutor sim(opt);
    KillingExecutor dying(sim, 7);
    CheckpointJournal journal(path);
    Campaign campaign(cfg, dying);
    campaign.set_checkpoint(&journal, true);
    EXPECT_THROW((void)campaign.run(), Killed);
  }
  SimExecutor sim(opt);
  CheckpointJournal journal(path);
  Campaign resumed(cfg, sim);
  resumed.set_checkpoint(&journal, true);
  const std::string report = harness::to_json(resumed.run());
  EXPECT_EQ(resumed.resumed_programs(), 2);
  EXPECT_EQ(report, expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ompfuzz
