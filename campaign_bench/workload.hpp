// Workload definitions of the end-to-end campaign benchmark, and the
// construction of one campaign call from its INI text.
//
// Every workload is an INI configuration (the format campaign_demo reads),
// and a campaign is built from it the way campaign_demo builds one, so the
// report of a benchmark call is byte-identical to campaign_demo's report for
// the same file (the self-test in run.py diffs the two).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/executor.hpp"
#include "support/config.hpp"
#include "support/result_store.hpp"

namespace campaign_bench {

enum class Kind {
  Sim,         ///< simulated executor
  Subprocess,  ///< real g++ -fopenmp compiles and runs
};

struct Workload {
  const char* name;
  Kind kind;
  int programs_per_call;  ///< campaign size of one measured call
  /// Runs recomputed outside the campaign per call as a spot check of the
  /// executor path (simulated kinds only).
  int spot_checks;
  /// Campaign size of the traced run's result-store passes; 0 = none.
  int store_programs;
  /// Most campaign worker threads: [campaign] threads is the smaller of this
  /// and the machine's cores (0 = all cores).
  int max_threads;
};

/// The workload named `name`; throws std::invalid_argument otherwise.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// The [campaign] threads of `workload`'s calls on this machine.
[[nodiscard]] std::size_t campaign_threads(const Workload& workload);

/// Campaign seed of call `call` of a run with workload seed `seed`: every
/// call of a run measures distinct programs, all derived from `seed`.
[[nodiscard]] std::uint64_t call_seed(std::uint64_t seed, int call);

/// INI text of one campaign call. With `store`, the result store and
/// checkpoint journal are on, under `work_dir`/store; a real-toolchain
/// workload compiles in `work_dir`/tests.
[[nodiscard]] std::string config_text(const Workload& workload,
                                      std::uint64_t campaign_seed, int programs,
                                      const std::string& work_dir, bool store = false);

/// Replaces the executor a campaign drives (the traced replay forwards to,
/// or re-implements, the real one); returns the executor to use.
using ExecutorWrap = std::function<std::unique_ptr<ompfuzz::harness::Executor>(
    ompfuzz::harness::Executor& inner)>;

/// One ready-to-run campaign call. Members are declared in dependency
/// order: the campaign refers to the executors and the store.
struct CampaignSetup {
  ompfuzz::CampaignConfig config;
  std::unique_ptr<ompfuzz::harness::Executor> executor;
  std::unique_ptr<ompfuzz::harness::Executor> wrapper;  ///< null unless wrapped
  std::unique_ptr<ompfuzz::ResultStore> store;
  std::unique_ptr<ompfuzz::CheckpointJournal> journal;
  std::unique_ptr<ompfuzz::harness::Campaign> campaign;

  /// The executor the campaign drives.
  [[nodiscard]] ompfuzz::harness::Executor& driven() const {
    return wrapper ? *wrapper : *executor;
  }
};

/// Parses `ini` and builds executor, campaign and (when `[store]` is
/// enabled) result store plus checkpoint journal, as campaign_demo does.
[[nodiscard]] CampaignSetup make_setup(const std::string& ini, bool resume,
                                       const ExecutorWrap& wrap = nullptr);

/// FNV-1a 64 of `bytes`, as 16 hex digits: the report digest.
[[nodiscard]] std::string digest_hex(const std::string& bytes);

}  // namespace campaign_bench
