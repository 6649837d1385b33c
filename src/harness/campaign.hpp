// Campaign orchestration: the full workflow of the paper's Figure 1.
//
//   (a) generate `num_programs` random programs (each validated race-free —
//       racy drafts are regenerated and counted, implementing the paper's
//       "filter out data race cases" as an automatic step) and
//       `inputs_per_program` random inputs each;
//   (b,c) execute every (program, input) under every implementation through
//       an Executor;
//   (d) classify each test's runs with the outlier detector and the output
//       differ; aggregate per-implementation counts (Table I).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/differ.hpp"
#include "core/generator.hpp"
#include "core/outlier.hpp"
#include "harness/executor.hpp"
#include "harness/scheduler.hpp"
#include "support/config.hpp"
#include "support/result_store.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

/// Result of one test (program + one input) across all implementations.
struct TestOutcome {
  int program_index = 0;
  int input_index = 0;
  std::string program_name;
  std::string input_text;
  std::vector<core::RunResult> runs;        ///< one per implementation
  core::OutlierVerdict verdict;
  core::OutputDivergence divergence;        ///< aligned with `runs`
};

struct ImplOutlierCounts {
  int slow = 0;
  int fast = 0;
  int crash = 0;
  int hang = 0;
  /// Fast outliers whose output diverged from the consensus (the paper's
  /// NaN/control-flow attribution, Section V-B).
  int fast_with_divergence = 0;

  [[nodiscard]] int total() const noexcept { return slow + fast + crash + hang; }
};

/// One divergent (program, input, implementation set) triple, retained with
/// everything a test-case reducer or a bug report needs: the AST (the
/// reducer's working representation), the parsed input values, and the
/// emitted source + argv text (the reportable artifact). Without this the
/// campaign would discard the program when its shard completes and the
/// reducer would have to re-generate it from the seed.
struct DivergentTriple {
  int program_index = 0;
  int input_index = 0;
  std::string program_name;
  ast::Program program;            ///< deep copy of the generated AST
  fp::InputSet input;              ///< the diverging input values
  std::string source;              ///< emitted translation unit
  std::string input_text;          ///< argv serialization of `input`
  core::VerdictClass verdict_class;  ///< the class a reduction must preserve
};

/// One (program, input, implementation) triple whose run could not be
/// obtained even after retry and failover: the merged result carries a
/// fabricated Crash run (harness_failure) in that column, and the report's
/// `robustness` block lists the triple. Content and order are deterministic
/// (programs in order, inputs in order, implementations in column order), so
/// the block is split-invariant like the rest of the JSON.
struct QuarantineRecord {
  int program_index = 0;
  int input_index = 0;
  std::string impl;
  std::string program_name;
};

/// Robustness accounting that is safe to keep in the report JSON. Under a
/// fault-free campaign — and equally under transient injected faults that
/// retries and failover fully absorb — both lists are empty, which is what
/// keeps a fault-injected report byte-identical to the clean baseline. Only
/// permanently lost work appears here.
struct RobustnessStats {
  std::vector<QuarantineRecord> quarantined;
  /// Backends marked dead with no compatible failover spare: their remaining
  /// columns are fabricated (and quarantined) from the death point on.
  std::vector<std::string> lost_backends;
};

/// Stdout-only robustness telemetry of the last run(). These counters vary
/// with fault timing and thread interleaving (how many retries fired, when a
/// backend was declared dead), so — like Campaign::analysis_seconds() — they
/// stay out of CampaignResult and the JSON; render_robustness_summary prints
/// them next to the deterministic RobustnessStats. The accumulators live in
/// the telemetry registry ("campaign.retried_triples", ...); this struct is
/// the per-run view (counter deltas since run() started).
struct RobustnessCounters {
  std::uint64_t retried_triples = 0;   ///< (input, impl) triples re-dispatched
  std::uint64_t retry_rounds = 0;      ///< backoff rounds slept before retrying
  std::uint64_t failover_units = 0;    ///< (program, input) units run by a spare
  std::uint64_t fabricated_units = 0;  ///< units fabricated without dispatch
  std::uint64_t journal_failures = 0;  ///< checkpoint appends that failed
};

struct CampaignResult {
  std::vector<std::string> impl_names;
  std::vector<TestOutcome> outcomes;
  /// Divergent triples in (program, input) order. ast::Program is move-only,
  /// so retaining them makes CampaignResult move-only too.
  std::vector<DivergentTriple> divergent;
  std::map<std::string, ImplOutlierCounts> per_impl;

  int total_runs = 0;
  int total_tests = 0;       ///< programs x inputs
  int analyzable_tests = 0;  ///< passed the minimum-time filter
  int skipped_runs = 0;      ///< interpreter budget exceeded
  int regenerated_programs = 0;  ///< racy drafts discarded during generation
  StaticAnalysisStats analysis;  ///< generation-phase race-filter accounting
  RobustnessStats robustness;    ///< quarantined triples + lost backends

  [[nodiscard]] int outlier_runs() const;
  [[nodiscard]] double outlier_rate() const;  ///< outlier runs / total runs
};

/// Progress callback: (programs done, total programs). With `config.threads`
/// > 1 the callback fires in completion order (counts stay monotonic) and
/// must tolerate being called from worker threads.
using ProgressFn = std::function<void(int, int)>;

class Campaign {
 public:
  /// Single-backend campaign: every implementation of `executor` runs under
  /// one backend named "default", with the default scheduler (batch_size 1).
  Campaign(CampaignConfig config, Executor& executor);

  /// Multi-backend campaign: each backend executes its executor's
  /// implementation subset for every program, and the per-backend runs merge
  /// — in backend order, implementations in executor order within each — into
  /// one CampaignResult. Implementation names must be unique across backends
  /// and backend names unique and non-empty. `scheduler` supplies batching
  /// and work-stealing (SchedulerConfig::backends is a config-file/demo
  /// concern and is ignored here — the split is whatever `backends` says).
  Campaign(CampaignConfig config, std::vector<CampaignBackend> backends,
           SchedulerConfig scheduler = {});

  /// Runs the whole campaign. Deterministic given the config seed and the
  /// executors (SimExecutor is fully deterministic): (program, input,
  /// backend) units are scheduled across `config.threads` workers in batches
  /// of programs (with idle workers stealing unstarted inputs from straggler
  /// batches) and aggregated in program order, so
  /// the result is bit-identical for every thread count, backend split,
  /// batch size, and steal schedule — and, with a result store or checkpoint
  /// attached, identical whether each run was executed, cached, or resumed
  /// (verdicts are recomputed from the raw runs).
  [[nodiscard]] CampaignResult run(const ProgressFn& progress = nullptr);

  /// Generates the i-th test case of this campaign (exposed so benches can
  /// re-create a specific test for case-study analysis).
  [[nodiscard]] TestCase make_test_case(int program_index) const;

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// Attaches a persistent run cache (not owned; may be shared between
  /// campaigns). Before dispatching a batch, every (program, input, impl)
  /// triple whose key is cached is satisfied from the store; executed
  /// triples are written back as batches complete. Implementations whose
  /// executor reports an empty impl_identity() are never cached.
  void set_result_store(ResultStore* store) noexcept { store_ = store; }

  /// Attaches a checkpoint journal (not owned). Completed program shards
  /// are streamed to it durably; with `resume` true, shards already in the
  /// journal (written by a previous — possibly killed — run with the same
  /// checkpoint_key()) are restored instead of re-executed — unless their
  /// program fingerprint, name or input serializations disagree with the
  /// program generated today, in which case the unit runs again. Resume
  /// additionally requires every implementation to report a non-empty
  /// impl_identity() — without it a reconfigured executor would be
  /// indistinguishable from the one that wrote the journal.
  void set_checkpoint(CheckpointJournal* journal, bool resume) noexcept {
    journal_ = journal;
    resume_ = resume;
  }

  /// Registers a failover spare (not owned; callable any time before run()).
  /// A spare stands in for the first backend that is declared dead (see
  /// RetryConfig::backend_death_threshold) whose executor it matches exactly:
  /// the same implementations() in the same order and the same
  /// impl_identity() per name. The match makes substitution invisible — the
  /// spare's runs carry identical RunKeys and merge into identical reports —
  /// so a campaign that loses a backend mid-run still completes
  /// byte-identically. Each spare replaces at most one backend; spares whose
  /// identities match no dead backend are never touched.
  void add_failover(Executor* spare);

  /// Stdout-only retry/failover telemetry of the last run(); see
  /// RobustnessCounters for why it stays out of CampaignResult.
  [[nodiscard]] RobustnessCounters robustness_counters() const noexcept;

  /// Every registered metric as a delta since the last run() started
  /// (counters/histograms subtract their run-start baseline, gauges stay
  /// instantaneous) — what the demo's summary renderers and the store stats
  /// line print. Before the first run(): deltas from construction.
  [[nodiscard]] telemetry::MetricsSnapshot run_metrics() const {
    return telemetry::Registry::global().snapshot().delta_from(metrics_base_);
  }

  /// Hash of everything that determines sub-shard contents and ownership:
  /// seed, per-program input count, the full generator config (bounds,
  /// block probabilities, feature gates and feature probabilities), and the
  /// backend split — each backend's name plus its implementations' names and
  /// cache identities. num_programs is deliberately excluded — program i
  /// does not depend on it, so a grown campaign resumes its prefix. A
  /// changed split is a different key: journaled sub-shards are pinned to
  /// the backend that owns their implementation columns. The key cannot see
  /// the generator algorithm itself, so restore additionally checks every
  /// record against the program generated today.
  [[nodiscard]] std::uint64_t checkpoint_key() const;

  /// Shards restored from the journal by the last run() (0 without resume;
  /// a program counts once all of its backends restored).
  [[nodiscard]] int resumed_programs() const noexcept { return resumed_programs_; }

  /// What the shard scheduler did during the last run() (batches formed,
  /// units stolen, ...). Bookkeeping only — results never depend on it.
  [[nodiscard]] const SchedulerStats& scheduler_stats() const noexcept {
    return scheduler_stats_;
  }

  /// Wall time spent in the race analysis of every draft this campaign
  /// generated (workers included). Timing bookkeeping only — kept out of
  /// CampaignResult and the JSON so reports stay deterministic.
  [[nodiscard]] double analysis_seconds() const noexcept {
    const std::uint64_t total = metrics_.analysis_nanos->value();
    const std::uint64_t nanos =
        total >= analysis_nanos_base_ ? total - analysis_nanos_base_ : 0;
    return static_cast<double>(nanos) * 1e-9;
  }

  [[nodiscard]] const std::vector<CampaignBackend>& backends() const noexcept {
    return backends_;
  }

 private:
  /// Everything one run() shares between its stages: the implementation
  /// layout, backend health and failover spares, and the (program, backend)
  /// grid of sub-shards. Defined in campaign.cpp.
  struct RunState;

  /// The four stages of run(). restore fills the grid from the checkpoint
  /// journal (every record checked against the regenerated program);
  /// execute schedules the remaining units and re-runs units lost to a dead
  /// backend on its spare; merge classifies and aggregates in program
  /// order; gc trims a size-bounded result store.
  void restore(RunState& state);
  void execute(RunState& state, const ProgressFn& progress);
  [[nodiscard]] CampaignResult merge(RunState& state) const;
  void gc(const RunState& state);

  /// Cached references into the process-wide telemetry registry. Registered
  /// once at construction so the hot paths (campaign workers, make_test_case)
  /// never pay a registry lookup; the names are the public metrics catalog
  /// entry points (see README "Observability").
  struct Metrics {
    telemetry::Counter* retried_triples;   ///< campaign.retried_triples
    telemetry::Counter* retry_rounds;      ///< campaign.retry_rounds
    telemetry::Counter* failover_units;    ///< campaign.failover_units
    telemetry::Counter* fabricated_units;  ///< campaign.fabricated_units
    telemetry::Counter* journal_failures;  ///< campaign.journal_failures
    telemetry::Counter* analysis_nanos;    ///< campaign.analysis_nanos
    telemetry::Gauge* units_total;         ///< campaign.units_total
    telemetry::Gauge* units_done;          ///< campaign.units_done
    telemetry::Gauge* live_backends;       ///< campaign.live_backends
    telemetry::Histogram* unit_micros;     ///< campaign.unit_micros
    Metrics();
  };

  CampaignConfig config_;
  std::vector<CampaignBackend> backends_;
  std::vector<Executor*> failover_;  ///< spares, in registration order
  SchedulerConfig scheduler_;
  core::ProgramGenerator generator_;
  ResultStore* store_ = nullptr;
  CheckpointJournal* journal_ = nullptr;
  bool resume_ = false;
  int resumed_programs_ = 0;
  SchedulerStats scheduler_stats_;
  Metrics metrics_;
  /// Registry values when the last run() started (construction before that):
  /// the process-wide counters are monotonic, so per-campaign accessors
  /// report deltas from these baselines.
  telemetry::MetricsSnapshot metrics_base_;
  RobustnessCounters counters_base_;
  std::uint64_t analysis_nanos_base_ = 0;
};

/// Finds the analyzable outcome where `impl` is flagged with `kind`,
/// preferring the most extreme time ratio. Returns nullptr if none.
[[nodiscard]] const TestOutcome* find_outcome(const CampaignResult& result,
                                              const std::string& impl,
                                              core::OutlierKind kind);

}  // namespace ompfuzz::harness
