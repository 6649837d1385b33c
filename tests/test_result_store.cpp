// Tests for the persistent result store and checkpoint journal: cache-key
// collision-proofing (flags / input values / timeouts all key material),
// bit-exact round trips, warm-cache campaigns executing zero children,
// journal crash-safety (truncated final record), seeded mutation loops over
// journal and store records, and kill-and-resume producing a CampaignResult
// bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/sim_executor.hpp"
#include "harness/subprocess_executor.hpp"
#include "mutate.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/result_store.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz::harness {
namespace {

/// A fresh directory under the gtest TempDir, removed with everything in it
/// when it goes out of scope, so every test cleans up after itself.
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = ::testing::TempDir() + "/ompfuzz_store_" + std::to_string(getpid()) +
            "_" + std::to_string(counter++);
    // A recycled pid can name a directory an earlier run left behind.
    std::filesystem::remove_all(path_);
    std::filesystem::create_directory(path_);
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

void write_script(const std::string& path, const std::string& content) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << content;
  }
  ASSERT_EQ(chmod(path.c_str(), 0755), 0);
}

/// Stub "compiler" whose produced "binary" echoes its first input argument
/// back as the comp value (so results depend on the generated inputs, making
/// bit-identity assertions meaningful). Both stages log their pid to
/// `children.log`, which is how the tests count spawned children.
std::string make_logging_compiler(const std::string& dir,
                                  const std::string& name,
                                  const std::string& run_sleep = "") {
  const std::string log = dir + "/children.log";
  const std::string payload = dir + "/" + name + "_payload.sh";
  std::string body = "#!/bin/sh\necho run_$$ >> " + log + "\n";
  if (!run_sleep.empty()) body += "sleep " + run_sleep + "\n";
  body += "echo \"${1:-7}\"\necho \"time_us: 2000\"\n";
  write_script(payload, body);
  const std::string cc = dir + "/" + name + ".sh";
  write_script(cc, "#!/bin/sh\necho compile_$$ >> " + log + "\n"
                   "cp " + payload + " \"$2\"\nchmod +x \"$2\"\n");
  return cc;
}

int count_children(const std::string& dir) {
  std::ifstream in(dir + "/children.log");
  int n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++n;
  }
  return n;
}

CampaignConfig stub_campaign_config(int programs, int threads) {
  CampaignConfig cfg;
  cfg.num_programs = programs;
  cfg.inputs_per_program = 2;
  cfg.generator.num_threads = 4;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0x5109e;
  cfg.threads = threads;
  return cfg;
}

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
    EXPECT_EQ(counts.fast_with_divergence, it->second.fast_with_divergence)
        << name;
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
    EXPECT_EQ(oa.verdict.per_run, ob.verdict.per_run);
    EXPECT_EQ(oa.divergence.diverges, ob.divergence.diverges);
  }
}

StoreConfig store_config(const std::string& dir) {
  StoreConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  return cfg;
}

std::string record_path(const StoreConfig& cfg, const RunKey& key) {
  char hex[33];
  const auto d = key.digest();
  std::snprintf(hex, sizeof(hex), "%016llx%016llx",
                static_cast<unsigned long long>(d[0]),
                static_cast<unsigned long long>(d[1]));
  return cfg.dir + "/runs/" + std::string(hex, 2) + "/" + hex + ".run";
}

// ------------------------------------------------------------- RunKey ------

TEST(RunKeyTest, EveryFieldIsKeyMaterial) {
  const RunKey base{0x1234, "0x1.8p+3 100", "subprocess;cmd=g++ -O2;run_timeout_ms=1000"};

  RunKey other = base;
  other.program_fingerprint = 0x1235;
  EXPECT_NE(base.digest(), other.digest());

  // Changing a single input value must miss the cache.
  other = base;
  other.input_text = "0x1.8p+4 100";
  EXPECT_NE(base.canonical(), other.canonical());
  EXPECT_NE(base.digest(), other.digest());

  // Changing only the optimization level must miss the cache.
  other = base;
  other.impl_identity = "subprocess;cmd=g++ -O3;run_timeout_ms=1000";
  EXPECT_NE(base.canonical(), other.canonical());
  EXPECT_NE(base.digest(), other.digest());

  // Changing only a timeout must miss the cache (Hang classification).
  other = base;
  other.impl_identity = "subprocess;cmd=g++ -O2;run_timeout_ms=500";
  EXPECT_NE(base.digest(), other.digest());
}

TEST(RunKeyTest, SubprocessIdentityCoversCommandAndTimeouts) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const auto identity_for = [&](const std::string& flags,
                                std::int64_t run_timeout) {
    std::vector<ImplementationSpec> impls = {
        {"cc", "g++ " + flags + " {src} -o {bin}", ""}};
    SubprocessOptions opt;
    opt.work_dir = dir + "/w";
    opt.run_timeout_ms = run_timeout;
    SubprocessExecutor exec(impls, opt);
    return exec.impl_identity("cc");
  };
  const std::string o2 = identity_for("-fopenmp -O2", 1000);
  const std::string o3 = identity_for("-fopenmp -O3", 1000);
  const std::string o2_short = identity_for("-fopenmp -O2", 400);
  EXPECT_NE(o2, o3) << "optimization level not part of the impl identity";
  EXPECT_NE(o2, o2_short) << "run timeout not part of the impl identity";
  EXPECT_NE(o2.find("-O2"), std::string::npos);
}

// -------------------------------------------------------- ResultStore ------

TEST(ResultStoreTest, RoundTripsResultsBitExactly) {
  const TempDir tmp;
  ResultStore store(store_config(tmp.path() + "/store"));

  core::RunResult nan_result;
  nan_result.impl = "gcc";
  nan_result.status = core::RunStatus::Ok;
  nan_result.time_us = 1234.5;
  nan_result.output = std::nan("");
  const RunKey key{42, "0x1p+0", "sim;profile=gcc"};

  EXPECT_FALSE(store.lookup(key).has_value());
  store.put(key, nan_result);
  const auto cached = store.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->impl, "gcc");
  EXPECT_EQ(cached->status, core::RunStatus::Ok);
  expect_bits_eq(cached->time_us, nan_result.time_us);
  expect_bits_eq(cached->output, nan_result.output);

  // Statuses round trip too.
  core::RunResult hang;
  hang.impl = "clang";
  hang.status = core::RunStatus::Hang;
  const RunKey hang_key{43, "0x1p+0", "sim;profile=clang"};
  store.put(hang_key, hang);
  ASSERT_TRUE(store.lookup(hang_key).has_value());
  EXPECT_EQ(store.lookup(hang_key)->status, core::RunStatus::Hang);

  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_GE(stats.hits, 3u);
  EXPECT_GE(stats.misses, 1u);
}

// stats() reads the counters lock-free while workers hammer lookup/put.
// Before the counters moved to telemetry::Counter they were plain ints
// updated under the mutex but readable outside it; this test runs under the
// TSan build, where that old shape was a reportable data race — the real
// assertion here is TSan staying silent.
TEST(ResultStoreTest, StatsAreRaceFreeUnderConcurrentTraffic) {
  const TempDir tmp;
  ResultStore store(store_config(tmp.path() + "/store"));

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 100;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto stats = store.stats();
      // Counters are monotonic, so a snapshot can never exceed the totals
      // read after the writers join (checked below); here just keep the
      // loads live.
      EXPECT_LE(stats.puts, static_cast<std::uint64_t>(kWriters) *
                                static_cast<std::uint64_t>(kOpsPerWriter));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        core::RunResult r;
        r.impl = "gcc";
        r.status = core::RunStatus::Ok;
        r.time_us = i;
        const RunKey key{
            static_cast<std::uint64_t>(w * kOpsPerWriter + i) + 1,
            "0x1p+0", "sim;profile=gcc"};
        (void)store.lookup(key);  // cold: a miss
        store.put(key, r);
        (void)store.lookup(key);  // warm: a hit
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto stats = store.stats();
  const auto total =
      static_cast<std::uint64_t>(kWriters) * kOpsPerWriter;
  EXPECT_EQ(stats.puts, total);
  EXPECT_EQ(stats.hits, total);
  EXPECT_EQ(stats.misses, total);
}

TEST(ResultStoreTest, SurvivesReopenAcrossProcessesWorthOfState) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/store";
  const RunKey key{7, "100", "subprocess;cmd=cc -O1"};
  core::RunResult result;
  result.impl = "cc";
  result.output = 3.25;
  {
    ResultStore store(store_config(dir));
    store.put(key, result);
  }
  ResultStore fresh(store_config(dir));  // new instance: reads from disk
  const auto cached = fresh.lookup(key);
  ASSERT_TRUE(cached.has_value());
  expect_bits_eq(cached->output, 3.25);
}

TEST(ResultStoreTest, DigestCollisionIsAMissNotAStaleHit) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/store";
  const RunKey a{1, "i", "x"};
  const RunKey b{2, "j", "y"};
  core::RunResult result;
  result.impl = "cc";
  result.output = 9.0;
  {
    ResultStore store(store_config(dir));
    store.put(a, result);
  }
  // Simulate a digest collision: a's record sits where b's digest points.
  const auto hex = [](const RunKey& k) {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(k.digest()[0]),
                  static_cast<unsigned long long>(k.digest()[1]));
    return std::string(buf);
  };
  const std::string a_path =
      dir + "/runs/" + hex(a).substr(0, 2) + "/" + hex(a) + ".run";
  const std::string b_dir = dir + "/runs/" + hex(b).substr(0, 2);
  mkdir(b_dir.c_str(), 0755);
  ASSERT_EQ(::rename(a_path.c_str(), (b_dir + "/" + hex(b) + ".run").c_str()), 0);

  ResultStore store(store_config(dir));
  EXPECT_FALSE(store.lookup(b).has_value())
      << "record with a mismatched embedded key was returned as a hit";
}

TEST(ResultStoreTest, CorruptRecordIsAMiss) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/store";
  const RunKey key{5, "in", "impl"};
  {
    ResultStore store(store_config(dir));
    core::RunResult result;
    result.impl = "cc";
    store.put(key, result);
  }
  // Truncate the record mid-file.
  const auto d = key.digest();
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d[0]),
                static_cast<unsigned long long>(d[1]));
  const std::string path =
      dir + "/runs/" + std::string(buf).substr(0, 2) + "/" + buf + ".run";
  std::ofstream(path, std::ios::trunc) << "ompfuzz-run v1\nkey ";

  ResultStore store(store_config(dir));
  EXPECT_FALSE(store.lookup(key).has_value());
}

// ------------------------------------------- warm-cache campaign runs ------

TEST(WarmCache, SecondRunExecutesZeroChildrenAndIsBitIdentical) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {
      {"alpha", cc + " {src} {bin}", ""},
      {"beta", cc + " {src} {bin}", ""},
  };
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;
  opt.max_inflight = 8;

  ResultStore store(store_config(dir + "/store"));

  SubprocessExecutor cold_exec(impls, opt);
  Campaign cold(stub_campaign_config(4, 2), cold_exec);
  cold.set_result_store(&store);
  const CampaignResult cold_result = cold.run();
  const int cold_children = count_children(dir);
  // 4 programs x 2 impls compiles + 4 x 2 inputs x 2 impls runs.
  EXPECT_EQ(cold_children, 24);

  // Fresh executor (empty binary cache): every child the warm run spawns
  // would be counted. There must be none.
  SubprocessExecutor warm_exec(impls, opt);
  Campaign warm(stub_campaign_config(4, 2), warm_exec);
  warm.set_result_store(&store);
  const CampaignResult warm_result = warm.run();
  EXPECT_EQ(count_children(dir), cold_children)
      << "warm-cache campaign spawned children";
  expect_identical(cold_result, warm_result);
}

TEST(WarmCache, ChangingOnlyTheCompileFlagsMissesTheCache) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));

  // The stub compiler ignores trailing flags, so "-O2" vs "-O3" exercises
  // exactly the cache key, not the toolchain.
  std::vector<ImplementationSpec> o2 = {{"cc", cc + " {src} {bin} -O2", ""}};
  SubprocessExecutor exec_o2(o2, opt);
  Campaign first(stub_campaign_config(2, 1), exec_o2);
  first.set_result_store(&store);
  (void)first.run();
  const int after_first = count_children(dir);
  ASSERT_GT(after_first, 0);

  std::vector<ImplementationSpec> o3 = {{"cc", cc + " {src} {bin} -O3", ""}};
  SubprocessExecutor exec_o3(o3, opt);
  Campaign second(stub_campaign_config(2, 1), exec_o3);
  second.set_result_store(&store);
  (void)second.run();
  EXPECT_EQ(count_children(dir), 2 * after_first)
      << "a compile-flag change was served from the cache (stale results)";

  // And re-running the -O2 campaign is still fully cached.
  SubprocessExecutor exec_again(o2, opt);
  Campaign third(stub_campaign_config(2, 1), exec_again);
  third.set_result_store(&store);
  (void)third.run();
  EXPECT_EQ(count_children(dir), 2 * after_first);
}

TEST(WarmCache, PartialHitsOnlyExecuteTheMissingTriples) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));

  std::vector<ImplementationSpec> one = {{"alpha", cc + " {src} {bin}", ""}};
  SubprocessExecutor exec_one(one, opt);
  Campaign first(stub_campaign_config(3, 1), exec_one);
  first.set_result_store(&store);
  const auto first_result = first.run();
  const int after_first = count_children(dir);  // 3 compiles + 6 runs
  EXPECT_EQ(after_first, 9);

  // Adding an implementation re-executes only the new impl's triples.
  std::vector<ImplementationSpec> two = {{"alpha", cc + " {src} {bin}", ""},
                                         {"beta", cc + " {src} {bin}", ""}};
  SubprocessExecutor exec_two(two, opt);
  Campaign second(stub_campaign_config(3, 1), exec_two);
  second.set_result_store(&store);
  const auto second_result = second.run();
  EXPECT_EQ(count_children(dir), after_first + 9)
      << "cached alpha triples were re-executed";

  // The cached alpha runs are bit-identical inside the merged result.
  ASSERT_EQ(second_result.outcomes.size(), first_result.outcomes.size());
  for (std::size_t t = 0; t < first_result.outcomes.size(); ++t) {
    ASSERT_EQ(second_result.outcomes[t].runs.size(), 2u);
    expect_bits_eq(second_result.outcomes[t].runs[0].output,
                   first_result.outcomes[t].runs[0].output);
  }
}

TEST(WarmCache, HarnessFailuresAreNeverPersisted) {
  // A compile the harness cannot even spawn (missing compiler binary)
  // fabricates Crash results — those must not poison the store or the
  // journal: the next run has to try again, not replay the hiccup.
  const TempDir tmp;
  const std::string dir = tmp.path();
  std::vector<ImplementationSpec> impls = {
      {"ghost", dir + "/no_such_compiler.sh {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  ResultStore store(store_config(dir + "/store"));
  CheckpointJournal journal(dir + "/j.journal");
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(stub_campaign_config(2, 1), exec);
  campaign.set_result_store(&store);
  campaign.set_checkpoint(&journal, true);
  const auto result = campaign.run();
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.runs[0].status, core::RunStatus::Crash);
    EXPECT_TRUE(outcome.runs[0].harness_failure);
  }
  EXPECT_EQ(store.stats().puts, 0u) << "transient failure persisted to store";

  CheckpointJournal reread(dir + "/j.journal");
  SubprocessExecutor exec2(impls, opt);
  Campaign second(stub_campaign_config(2, 1), exec2);
  second.set_result_store(&store);
  second.set_checkpoint(&reread, true);
  (void)second.run();
  EXPECT_EQ(second.resumed_programs(), 0)
      << "transient failure replayed from the journal";

  // A compiler that *rejects* the program (diagnostic + nonzero exit) is a
  // genuine observation and is cached.
  const std::string reject = dir + "/reject.sh";
  write_script(reject, "#!/bin/sh\necho 'error: no thanks' >&2\n"
                       "echo diagnosed\nexit 1\n");
  std::vector<ImplementationSpec> reject_impls = {
      {"strict", reject + " {src} {bin}", ""}};
  SubprocessExecutor reject_exec(reject_impls, opt);
  Campaign third(stub_campaign_config(2, 1), reject_exec);
  third.set_result_store(&store);
  const auto rejected = third.run();
  for (const auto& outcome : rejected.outcomes) {
    EXPECT_EQ(outcome.runs[0].status, core::RunStatus::Crash);
    EXPECT_FALSE(outcome.runs[0].harness_failure);
  }
  EXPECT_GT(store.stats().puts, 0u) << "genuine compile rejection not cached";
}

TEST(WarmCache, SimBackendCampaignsShareTheStore) {
  const TempDir tmp;
  const std::string dir = tmp.path() + "/store";
  SimExecutorOptions opt;
  opt.num_threads = 4;

  ResultStore store(store_config(dir));
  SimExecutor exec_a(opt);
  Campaign a(stub_campaign_config(5, 2), exec_a);
  a.set_result_store(&store);
  const auto result_a = a.run();
  const auto stats_cold = store.stats();
  EXPECT_EQ(stats_cold.hits, 0u);
  EXPECT_GT(stats_cold.puts, 0u);

  SimExecutor exec_b(opt);
  Campaign b(stub_campaign_config(5, 1), exec_b);
  b.set_result_store(&store);
  const auto result_b = b.run();
  const auto stats_warm = store.stats();
  EXPECT_EQ(stats_warm.puts, stats_cold.puts) << "warm sim campaign re-executed";
  expect_identical(result_a, result_b);
}

// --------------------------------------------------- checkpoint journal ----

StoredShard make_shard(int p, int n_outcomes, int n_impls) {
  StoredShard shard;
  shard.program_index = p;
  shard.regeneration_attempts = p % 2;
  for (int i = 0; i < n_outcomes; ++i) {
    StoredOutcome outcome;
    outcome.input_index = i;
    outcome.program_name = "test_" + std::to_string(p);
    outcome.input_text = "0x1p+" + std::to_string(i) + " 10";
    for (int r = 0; r < n_impls; ++r) {
      core::RunResult run;
      run.impl = "impl" + std::to_string(r);
      run.status = core::RunStatus::Ok;
      run.time_us = 1000.0 + p * 10 + i;
      run.output = p + i * 0.5;
      outcome.runs.push_back(std::move(run));
    }
    shard.outcomes.push_back(std::move(outcome));
  }
  return shard;
}

TEST(Journal, AppendsAndResumes) {
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const std::vector<std::string> impls = {"impl0", "impl1"};
  {
    CheckpointJournal journal(path);
    EXPECT_TRUE(journal.open(0xABCD, impls, true).empty());
    journal.append(make_shard(0, 2, 2));
    journal.append(make_shard(1, 2, 2));
  }
  CheckpointJournal journal(path);
  const auto shards = journal.open(0xABCD, impls, true);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].program_index, 0);
  EXPECT_EQ(shards[1].program_index, 1);
  ASSERT_EQ(shards[1].outcomes.size(), 2u);
  EXPECT_EQ(shards[1].outcomes[1].program_name, "test_1");
  EXPECT_EQ(shards[1].outcomes[1].runs[1].impl, "impl1");
  expect_bits_eq(shards[1].outcomes[1].runs[1].output, 1.5);
}

TEST(Journal, MismatchedCampaignKeyStartsFresh) {
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const std::vector<std::string> impls = {"impl0"};
  {
    CheckpointJournal journal(path);
    (void)journal.open(1, impls, true);
    journal.append(make_shard(0, 1, 1));
  }
  {
    CheckpointJournal journal(path);
    EXPECT_TRUE(journal.open(2, impls, true).empty()) << "key mismatch resumed";
  }
  {
    // Different implementation list: also a different campaign.
    CheckpointJournal journal(path);
    (void)journal.open(3, impls, true);
    journal.append(make_shard(0, 1, 1));
    CheckpointJournal reread(path);
    EXPECT_TRUE(reread.open(3, {"impl0", "impl1"}, true).empty());
  }
}

TEST(Journal, ResumeFalseDiscardsPreviousRecords) {
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const std::vector<std::string> impls = {"impl0"};
  {
    CheckpointJournal journal(path);
    (void)journal.open(9, impls, true);
    journal.append(make_shard(0, 1, 1));
  }
  CheckpointJournal journal(path);
  EXPECT_TRUE(journal.open(9, impls, false).empty());
  CheckpointJournal reread(path);
  EXPECT_TRUE(reread.open(9, impls, true).empty());
}

TEST(Journal, TruncatedFinalRecordIsDropped) {
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const std::vector<std::string> impls = {"impl0", "impl1"};
  {
    CheckpointJournal journal(path);
    (void)journal.open(0xFEED, impls, true);
    journal.append(make_shard(0, 2, 2));
    journal.append(make_shard(1, 2, 2));
    journal.append(make_shard(2, 2, 2));
  }
  // Tear off the tail of the final record, as a SIGKILL mid-append would.
  struct stat st{};
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  ASSERT_EQ(truncate(path.c_str(), st.st_size - 25), 0);

  CheckpointJournal journal(path);
  const auto shards = journal.open(0xFEED, impls, true);
  ASSERT_EQ(shards.size(), 2u) << "torn final record not dropped";
  EXPECT_EQ(shards[1].program_index, 1);

  // Appends after the truncation must produce a well-formed journal again.
  journal.append(make_shard(2, 2, 2));
  CheckpointJournal reread(path);
  EXPECT_EQ(reread.open(0xFEED, impls, true).size(), 3u);
}

TEST(Journal, GarbageFileStartsFresh) {
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  std::ofstream(path) << "this is not a journal\n";
  CheckpointJournal journal(path);
  EXPECT_TRUE(journal.open(1, {"impl0"}, true).empty());
  journal.append(make_shard(0, 1, 1));
  CheckpointJournal reread(path);
  EXPECT_EQ(reread.open(1, {"impl0"}, true).size(), 1u);
}

// ------------------------------------------------- mutated records --------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The payloads of a journal file's `REC <bytes> <fnv1a64>` records,
/// header first.
std::vector<std::string> record_payloads(const std::string& file) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < file.size()) {
    const std::size_t nl = file.find('\n', pos);
    const std::size_t len = std::stoul(split(file.substr(pos + 4, nl - pos - 4), ' ')[0]);
    out.push_back(file.substr(nl + 1, len));
    pos = nl + 1 + len;
  }
  return out;
}

std::string frame(const std::string& payload) {
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return "REC " + std::to_string(payload.size()) + " " + sum + "\n" + payload;
}

bool same_run(const core::RunResult& a, const core::RunResult& b) {
  return a.impl == b.impl && a.status == b.status &&
         std::bit_cast<std::uint64_t>(a.time_us) ==
             std::bit_cast<std::uint64_t>(b.time_us) &&
         std::bit_cast<std::uint64_t>(a.output) ==
             std::bit_cast<std::uint64_t>(b.output);
}

bool same_shard(const StoredShard& a, const StoredShard& b) {
  if (a.program_index != b.program_index || a.backend_index != b.backend_index ||
      a.regeneration_attempts != b.regeneration_attempts ||
      a.program_fingerprint != b.program_fingerprint ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const StoredOutcome& oa = a.outcomes[i];
    const StoredOutcome& ob = b.outcomes[i];
    if (oa.input_index != ob.input_index || oa.program_name != ob.program_name ||
        oa.input_text != ob.input_text || oa.runs.size() != ob.runs.size()) {
      return false;
    }
    for (std::size_t r = 0; r < oa.runs.size(); ++r) {
      if (!same_run(oa.runs[r], ob.runs[r])) return false;
    }
  }
  return true;
}

/// A journal written by a real sim campaign, with the campaign key and
/// backend layout its header records (what open() needs to resume it) and
/// the shards it resumes.
struct RealJournal {
  std::string bytes;
  std::uint64_t campaign_key = 0;
  std::vector<JournalBackend> backends;
  std::vector<StoredShard> shards;
};

RealJournal write_real_journal(const std::string& path) {
  {
    SimExecutor exec{SimExecutorOptions{}};
    Campaign campaign(stub_campaign_config(4, 1), exec);
    CheckpointJournal journal(path);
    campaign.set_checkpoint(&journal, true);
    (void)campaign.run();
  }
  RealJournal real;
  real.bytes = read_file(path);
  for (const std::string& line : split(record_payloads(real.bytes).at(0), '\n')) {
    const auto fields = split(line, ' ');
    if (fields[0] == "campaign") real.campaign_key = std::stoull(fields[1], nullptr, 16);
    if (fields[0] == "backend") real.backends.push_back({fields[1], {}});
    if (fields[0] == "impl") real.backends.back().impl_names.push_back(fields[1]);
  }
  real.shards = CheckpointJournal(path).open(real.campaign_key, real.backends, true);
  return real;
}

TEST(JournalMutation, MutatedShardPayloadsResumeTheirPrefix) {
  // Every shard payload mutant is re-framed with a valid checksum, so the
  // shard parser itself sees it. The records before the mutant must come
  // back unchanged. The mutant either ends the resume there, or it reads as
  // a well-formed shard (its checksum was forged, so its values may differ)
  // and every later record comes back unchanged too.
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const RealJournal real = write_real_journal(path);
  const std::vector<StoredShard>& originals = real.shards;
  const std::vector<std::string> payloads = record_payloads(real.bytes);
  ASSERT_EQ(originals.size(), 4u);
  ASSERT_EQ(payloads.size(), originals.size() + 1);

  RandomEngine rng(0x10C3A1);
  int stopped = 0;
  int accepted = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::size_t m = rng.uniform_index(originals.size());  // shard index
    std::string file;
    for (std::size_t k = 0; k < payloads.size(); ++k) {
      file += frame(k == m + 1 ? mutate(payloads[k], rng) : payloads[k]);
    }
    write_file(path, file);
    const auto shards =
        CheckpointJournal(path).open(real.campaign_key, real.backends, true);
    ASSERT_TRUE(shards.size() == m || shards.size() == originals.size())
        << "mutant of shard " << m << " resumed " << shards.size() << " shards";
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (k != m) {
        ASSERT_TRUE(same_shard(shards[k], originals[k])) << "shard " << k;
      }
    }
    if (shards.size() == m) {
      ++stopped;
      continue;
    }
    ++accepted;
    const StoredShard& shard = shards[m];
    const auto impls = real.backends.at(static_cast<std::size_t>(shard.backend_index))
                           .impl_names.size();
    for (std::size_t k = 0; k < shard.outcomes.size(); ++k) {
      EXPECT_EQ(shard.outcomes[k].input_index, static_cast<int>(k));
      EXPECT_EQ(shard.outcomes[k].runs.size(), impls);
    }
  }
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(stopped, 300);
  EXPECT_GT(accepted, 100);
}

TEST(JournalMutation, CorruptedFileResumesAPrefix) {
  // Mutations of the file as stored (no re-framing) are what a crash or a
  // bad disk produces: every damaged record fails its checksum, so open()
  // returns a prefix of the original shards.
  const TempDir tmp;
  const std::string path = tmp.path() + "/j.journal";
  const RealJournal real = write_real_journal(path);
  const std::vector<StoredShard>& originals = real.shards;
  ASSERT_EQ(originals.size(), 4u);

  RandomEngine rng(0x70C3A1);
  int shorter = 0;
  for (int i = 0; i < 1000; ++i) {
    write_file(path, mutate(real.bytes, rng));
    const auto shards =
        CheckpointJournal(path).open(real.campaign_key, real.backends, true);
    ASSERT_LE(shards.size(), originals.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
      ASSERT_TRUE(same_shard(shards[k], originals[k])) << "shard " << k;
    }
    if (shards.size() < originals.size()) ++shorter;
  }
  EXPECT_GT(shorter, 500);
}

TEST(StoreMutation, MutatedRecordIsAMissOrTheOriginal) {
  // A record file is one framed record: whatever a mutation changes, lookup
  // returns a miss or the exact original result, never a different result.
  const TempDir tmp;
  const StoreConfig cfg = store_config(tmp.path() + "/store");
  const RunKey key{0x5109e0ddf00dULL, "0x1.8p+3 12",
                   store_impl_identity("gcc", "sim;profile=gcc")};
  core::RunResult original;
  original.impl = "gcc";
  original.status = core::RunStatus::Ok;
  original.time_us = 1234.5;
  original.output = 0.1;
  ResultStore(cfg).put(key, original);
  const std::string path = record_path(cfg, key);
  const std::string record = read_file(path);
  ASSERT_FALSE(record.empty());

  RandomEngine rng(0x5709E);
  int misses = 0;
  for (int i = 0; i < 2000; ++i) {
    write_file(path, mutate(record, rng));
    const auto cached = ResultStore(cfg).lookup(key);
    if (!cached) {
      ++misses;
      continue;
    }
    ASSERT_TRUE(same_run(*cached, original))
        << "mutated record returned output " << cached->output << ", time "
        << cached->time_us;
  }
  EXPECT_GT(misses, 1500);
}

// ------------------------------------------------- campaign + journal ------

TEST(CampaignCheckpoint, JournalResumeSkipsCompletedPrograms) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {{"cc", cc + " {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  const CampaignConfig cfg = stub_campaign_config(4, 1);
  CheckpointJournal journal(dir + "/j.journal");

  SubprocessExecutor cold_exec(impls, opt);
  Campaign cold(cfg, cold_exec);
  cold.set_checkpoint(&journal, true);
  const auto cold_result = cold.run();
  EXPECT_EQ(cold.resumed_programs(), 0);
  const int cold_children = count_children(dir);

  CheckpointJournal journal2(dir + "/j.journal");
  SubprocessExecutor warm_exec(impls, opt);
  Campaign warm(cfg, warm_exec);
  warm.set_checkpoint(&journal2, true);
  const auto warm_result = warm.run();
  EXPECT_EQ(warm.resumed_programs(), 4);
  EXPECT_EQ(count_children(dir), cold_children)
      << "fully-journaled campaign spawned children";
  expect_identical(cold_result, warm_result);
}

TEST(CampaignCheckpoint, TruncatedJournalReexecutesOnlyTheTornShard) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {{"cc", cc + " {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work";
  opt.concurrent_runs = true;

  const CampaignConfig cfg = stub_campaign_config(4, 1);
  const std::string path = dir + "/j.journal";
  {
    CheckpointJournal journal(path);
    SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    campaign.set_checkpoint(&journal, true);
    (void)campaign.run();
  }
  const int cold_children = count_children(dir);

  struct stat st{};
  ASSERT_EQ(stat(path.c_str(), &st), 0);
  ASSERT_EQ(truncate(path.c_str(), st.st_size - 10), 0);

  CheckpointJournal journal(path);
  SubprocessExecutor exec(impls, opt);
  Campaign campaign(cfg, exec);
  campaign.set_checkpoint(&journal, true);

  SubprocessExecutor reference_exec(impls, opt);
  Campaign reference(cfg, reference_exec);
  const auto expected = reference.run();
  const int reference_children = count_children(dir) - cold_children;

  const int before_resume = count_children(dir);
  const auto resumed = campaign.run();
  EXPECT_EQ(campaign.resumed_programs(), 3);
  // One shard re-executed: 1 compile + inputs_per_program runs.
  EXPECT_EQ(count_children(dir) - before_resume, 1 + cfg.inputs_per_program);
  EXPECT_GT(reference_children, 1 + cfg.inputs_per_program);
  expect_identical(expected, resumed);
}

// ------------------------------------------------------ size-bounded GC ----

RunKey gc_key(int i) {
  RunKey key;
  key.program_fingerprint = 0x6c0000 + static_cast<std::uint64_t>(i);
  key.input_text = "0x1p0";
  key.impl_identity = "name=cc;subprocess;cmd=cc";
  return key;
}

void set_atime(const std::string& path, std::time_t when) {
  timespec times[2] = {{when, 0}, {when, 0}};  // atime and mtime
  ASSERT_EQ(utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(StoreGc, EvictsLeastRecentlyUsedUntilUnderBudget) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  std::uint64_t record_bytes = 0;
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 6; ++i) {
      core::RunResult r;
      r.impl = "cc";
      r.output = i;
      r.time_us = 1000;
      writer.put(gc_key(i), r);
    }
    struct stat st = {};
    ASSERT_EQ(stat(record_path(cfg, gc_key(0)).c_str(), &st), 0);
    record_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  // Ascending atimes: record 0 is the coldest.
  const std::time_t base = 1'700'000'000;
  for (int i = 0; i < 6; ++i) {
    set_atime(record_path(cfg, gc_key(i)), base + i * 60);
  }

  // Budget for three records: the three oldest must go, in atime order.
  cfg.max_bytes = static_cast<std::int64_t>(record_bytes * 3);
  ResultStore store(cfg);
  const auto stats = store.gc();
  EXPECT_EQ(stats.scanned_files, 6u);
  EXPECT_EQ(stats.evicted_files, 3u);
  EXPECT_EQ(stats.pinned_files, 0u);
  EXPECT_EQ(stats.evicted_bytes, record_bytes * 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(store.lookup(gc_key(i)).has_value()) << i;
  }
  for (int i = 3; i < 6; ++i) {
    EXPECT_TRUE(store.lookup(gc_key(i)).has_value()) << i;
  }
}

TEST(StoreGc, EvictionForgetsTheInProcessMemo) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  cfg.max_bytes = 1;  // everything must go
  ResultStore store(cfg);
  core::RunResult r;
  r.impl = "cc";
  store.put(gc_key(0), r);
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  const auto stats = store.gc();
  EXPECT_EQ(stats.evicted_files, 1u);
  // Without the memo purge this would still "hit" the evicted record.
  EXPECT_FALSE(store.lookup(gc_key(0)).has_value());
}

TEST(StoreGc, PinnedRecordsSurviveEviction) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 4; ++i) {
      core::RunResult r;
      r.impl = "cc";
      writer.put(gc_key(i), r);
    }
  }
  const std::time_t base = 1'700'000'000;
  for (int i = 0; i < 4; ++i) {
    set_atime(record_path(cfg, gc_key(i)), base + i * 60);
  }

  cfg.max_bytes = 1;  // evict everything that is not pinned
  ResultStore store(cfg);
  const std::vector<std::array<std::uint64_t, 2>> pins = {gc_key(0).digest(),
                                                          gc_key(2).digest()};
  const auto stats = store.gc(pins);
  EXPECT_EQ(stats.evicted_files, 2u);
  EXPECT_EQ(stats.pinned_files, 2u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());   // coldest, but pinned
  EXPECT_FALSE(store.lookup(gc_key(1)).has_value());
  EXPECT_TRUE(store.lookup(gc_key(2)).has_value());
  EXPECT_FALSE(store.lookup(gc_key(3)).has_value());
}

TEST(StoreGc, UnboundedStoreNeverEvicts) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  ResultStore store(cfg);  // max_bytes = 0
  core::RunResult r;
  r.impl = "cc";
  store.put(gc_key(0), r);
  const auto stats = store.gc();
  EXPECT_EQ(stats.scanned_files, 0u);
  EXPECT_EQ(stats.evicted_files, 0u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());
}

TEST(StoreGc, LookupRefreshesAtimeSoWarmRecordsSurvive) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  std::uint64_t record_bytes = 0;
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 2; ++i) {
      core::RunResult r;
      r.impl = "cc";
      writer.put(gc_key(i), r);
    }
    struct stat st = {};
    ASSERT_EQ(stat(record_path(cfg, gc_key(0)).c_str(), &st), 0);
    record_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  const std::time_t base = 1'700'000'000;
  set_atime(record_path(cfg, gc_key(0)), base);
  set_atime(record_path(cfg, gc_key(1)), base + 60);

  // A fresh store (cold memo) reads record 0 from disk: that lookup must
  // refresh its timestamp, making record 1 the eviction victim.
  cfg.max_bytes = static_cast<std::int64_t>(record_bytes);
  ResultStore store(cfg);
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  const auto stats = store.gc();
  EXPECT_EQ(stats.evicted_files, 1u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());
  EXPECT_FALSE(store.lookup(gc_key(1)).has_value());
}

TEST(StoreGc, MemoWarmRecordsAreTreatedAsFresh) {
  const TempDir tmp;
  StoreConfig cfg = store_config(tmp.path());
  std::uint64_t record_bytes = 0;
  {
    ResultStore writer(cfg);
    for (int i = 0; i < 2; ++i) {
      core::RunResult r;
      r.impl = "cc";
      writer.put(gc_key(i), r);
    }
    struct stat st = {};
    ASSERT_EQ(stat(record_path(cfg, gc_key(0)).c_str(), &st), 0);
    record_bytes = static_cast<std::uint64_t>(st.st_size);
  }

  cfg.max_bytes = static_cast<std::int64_t>(record_bytes);
  ResultStore store(cfg);
  // Record 0 enters the memo via one disk read; every later hit would be
  // memory-only and never touch its atime...
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  ASSERT_TRUE(store.lookup(gc_key(0)).has_value());
  // ...so backdate both files to simulate the atimes GC would observe after
  // a long run: 0 older than 1 on disk, but 0 is the process's working set.
  const std::time_t base = 1'700'000'000;
  set_atime(record_path(cfg, gc_key(0)), base);
  set_atime(record_path(cfg, gc_key(1)), base + 60);
  const auto stats = store.gc();
  EXPECT_EQ(stats.evicted_files, 1u);
  EXPECT_TRUE(store.lookup(gc_key(0)).has_value());   // memo-warm: kept
  EXPECT_FALSE(store.lookup(gc_key(1)).has_value());  // cold: evicted
}

TEST(StoreGc, ConfigParsesAndValidatesMaxBytes) {
  const auto file = ConfigFile::parse("[store]\nenabled = true\n"
                                      "max_bytes = 4096\n");
  StoreConfig cfg = StoreConfig::from_config(file);
  EXPECT_EQ(cfg.max_bytes, 4096);
  const auto bad = ConfigFile::parse("[store]\nmax_bytes = -1\n");
  EXPECT_THROW((void)StoreConfig::from_config(bad), ConfigError);
}

/// The journal-pin rule end to end: with a journal attached every journaled
/// shard's triples are pinned, so even an absurdly small budget evicts
/// nothing and a resumed re-run still executes zero children. The same
/// campaign without a journal evicts freely.
TEST(StoreGc, CampaignPinsJournaledShards) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  const std::string cc = make_logging_compiler(dir, "cc");
  std::vector<ImplementationSpec> impls = {{"cc", cc + " {src} {bin}", ""}};
  CampaignConfig cfg = stub_campaign_config(3, 1);

  StoreConfig store_cfg = store_config(dir + "/store");
  store_cfg.max_bytes = 1;  // far below one record
  ResultStore store(store_cfg);
  CheckpointJournal journal(dir + "/j.journal");

  {
    SubprocessOptions opt;
    opt.work_dir = dir + "/work_cold";
    opt.concurrent_runs = true;
    SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    campaign.set_result_store(&store);
    campaign.set_checkpoint(&journal, false);
    (void)campaign.run();
  }
  const int cold_children = count_children(dir);
  ASSERT_GT(cold_children, 0);

  // Every record was journaled, hence pinned, hence survived the end-of-run
  // GC: a warm run (fresh journal-less campaign, same store) executes
  // nothing.
  {
    SubprocessOptions opt;
    opt.work_dir = dir + "/work_warm";
    opt.concurrent_runs = true;
    SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    campaign.set_result_store(&store);
    (void)campaign.run();
  }
  EXPECT_EQ(count_children(dir), cold_children);

  // Without a journal nothing is pinned: the same budget empties the cache
  // (the warm campaign above ran GC on exit), so a third run re-executes.
  {
    SubprocessOptions opt;
    opt.work_dir = dir + "/work_cold2";
    opt.concurrent_runs = true;
    SubprocessExecutor exec(impls, opt);
    Campaign campaign(cfg, exec);
    campaign.set_result_store(&store);
    (void)campaign.run();
  }
  EXPECT_GT(count_children(dir), cold_children);
}

// ---------------------------------------------------- kill and resume ------

constexpr int kKillCampaignPrograms = 8;

CampaignConfig kill_campaign_config() {
  CampaignConfig cfg = stub_campaign_config(kKillCampaignPrograms, 1);
  cfg.inputs_per_program = 1;
  return cfg;
}

/// Child mode of KillResume.SurvivesSigkillBitIdentically: runs the campaign
/// against the slow stub compiler until killed. Driven via env so the parent
/// can SIGKILL an honest separate process mid-flight.
TEST(KillResume, ChildCampaign) {
  const char* dir_env = std::getenv("OMPFUZZ_KILL_CHILD_DIR");
  if (dir_env == nullptr) {
    GTEST_SKIP() << "helper: only meaningful as the re-exec'd child";
  }
  const std::string dir = dir_env;
  std::vector<ImplementationSpec> impls = {
      {"cc", dir + "/cc.sh {src} {bin}", ""}};
  SubprocessOptions opt;
  opt.work_dir = dir + "/work_child";
  opt.concurrent_runs = true;
  SubprocessExecutor exec(impls, opt);
  CheckpointJournal journal(dir + "/j.journal");
  Campaign campaign(kill_campaign_config(), exec);
  campaign.set_checkpoint(&journal, true);
  (void)campaign.run();
  std::_Exit(0);  // completed without being killed (fast machine): fine too
}

int count_journal_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  int n = 0;
  std::size_t pos = 0;
  while ((pos = text.find("REC ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') ++n;
    pos += 4;
  }
  return n;  // includes the header record
}

TEST(KillResume, SurvivesSigkillBitIdentically) {
  const TempDir tmp;
  const std::string dir = tmp.path();
  // Slow stub (sleeps while "running") so the parent reliably catches the
  // child mid-campaign.
  (void)make_logging_compiler(dir, "cc", "0.15");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    setenv("OMPFUZZ_KILL_CHILD_DIR", dir.c_str(), 1);
    execl("/proc/self/exe", "/proc/self/exe",
          "--gtest_filter=KillResume.ChildCampaign",
          static_cast<char*>(nullptr));
    _exit(127);
  }

  // Wait until at least two shards are durably journaled, then SIGKILL the
  // campaign mid-flight.
  const std::string journal_path = dir + "/j.journal";
  for (int spin = 0; spin < 1000 && count_journal_records(journal_path) < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  const int records_after_kill = count_journal_records(journal_path);
  ASSERT_GE(records_after_kill, 3) << "child never journaled two shards";

  // Uninterrupted reference run (own journal + work dir).
  std::vector<ImplementationSpec> impls = {
      {"cc", dir + "/cc.sh {src} {bin}", ""}};
  SubprocessOptions ref_opt;
  ref_opt.work_dir = dir + "/work_ref";
  ref_opt.concurrent_runs = true;
  SubprocessExecutor ref_exec(impls, ref_opt);
  CheckpointJournal ref_journal(dir + "/ref.journal");
  Campaign reference(kill_campaign_config(), ref_exec);
  reference.set_checkpoint(&ref_journal, true);
  const auto expected = reference.run();

  // Resume from the killed child's journal.
  SubprocessOptions res_opt;
  res_opt.work_dir = dir + "/work_resume";
  res_opt.concurrent_runs = true;
  SubprocessExecutor res_exec(impls, res_opt);
  CheckpointJournal journal(journal_path);
  Campaign resumed_campaign(kill_campaign_config(), res_exec);
  resumed_campaign.set_checkpoint(&journal, true);
  const auto resumed = resumed_campaign.run();

  EXPECT_GE(resumed_campaign.resumed_programs(), 2);
  expect_identical(expected, resumed);

  // The same journal now holds the full campaign: a second resume restores
  // everything without executing a single child.
  CheckpointJournal journal2(journal_path);
  SubprocessExecutor again_exec(impls, res_opt);
  Campaign again(kill_campaign_config(), again_exec);
  again.set_checkpoint(&journal2, true);
  const int children_before = count_children(dir);
  const auto full = again.run();
  EXPECT_EQ(again.resumed_programs(), kKillCampaignPrograms);
  EXPECT_EQ(count_children(dir), children_before);
  expect_identical(expected, full);
}

}  // namespace
}  // namespace ompfuzz::harness
