#include "harness/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/race_analyzer.hpp"
#include "emit/codegen.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz::harness {

int CampaignResult::outlier_runs() const {
  int n = 0;
  for (const auto& [name, counts] : per_impl) n += counts.total();
  return n;
}

double CampaignResult::outlier_rate() const {
  return total_runs == 0 ? 0.0
                         : static_cast<double>(outlier_runs()) /
                               static_cast<double>(total_runs);
}

Campaign::Metrics::Metrics() {
  auto& registry = telemetry::Registry::global();
  retried_triples = &registry.counter("campaign.retried_triples");
  retry_rounds = &registry.counter("campaign.retry_rounds");
  failover_units = &registry.counter("campaign.failover_units");
  fabricated_units = &registry.counter("campaign.fabricated_units");
  journal_failures = &registry.counter("campaign.journal_failures");
  analysis_nanos = &registry.counter("campaign.analysis_nanos");
  units_total = &registry.gauge("campaign.units_total");
  units_done = &registry.gauge("campaign.units_done");
  live_backends = &registry.gauge("campaign.live_backends");
  unit_micros = &registry.histogram("campaign.unit_micros");
}

Campaign::Campaign(CampaignConfig config, Executor& executor)
    : Campaign(std::move(config),
               std::vector<CampaignBackend>{{&executor, "default"}}) {}

Campaign::Campaign(CampaignConfig config, std::vector<CampaignBackend> backends,
                   SchedulerConfig scheduler)
    : config_(std::move(config)), backends_(std::move(backends)),
      scheduler_(scheduler), generator_(config_.generator) {
  config_.validate();
  scheduler_.validate();
  OMPFUZZ_CHECK(!backends_.empty(), "campaign needs at least one backend");
  std::set<std::string> backend_names;
  std::set<std::string> impl_names;
  for (const auto& backend : backends_) {
    OMPFUZZ_CHECK(backend.executor != nullptr, "campaign backend needs an executor");
    OMPFUZZ_CHECK(!backend.name.empty(), "campaign backend needs a name");
    OMPFUZZ_CHECK(backend_names.insert(backend.name).second,
                  "duplicate backend name: " + backend.name);
    for (const auto& name : backend.executor->implementations()) {
      // Uniqueness across backends: the merged result is keyed by
      // implementation name, and a duplicate would make two backends' runs
      // indistinguishable in every report.
      OMPFUZZ_CHECK(impl_names.insert(name).second,
                    "implementation '" + name + "' appears in several backends");
    }
  }
  // Baselines from construction, so the per-campaign accessors read zero
  // until run() re-baselines them (the registry counters are process-wide
  // and monotonic across campaigns).
  metrics_base_ = telemetry::Registry::global().snapshot();
  analysis_nanos_base_ = metrics_.analysis_nanos->value();
}

TestCase Campaign::make_test_case(int program_index) const {
  telemetry::ScopedSpan span("generate", "make_test_case");
  if (span.active()) span.arg("program", program_index);
  RandomEngine campaign_rng(config_.seed);
  RandomEngine program_rng =
      campaign_rng.fork(static_cast<std::uint64_t>(program_index));

  TestCase test;
  test.seed = program_rng.next_u64();
  // Regenerate racy drafts: the paper filtered race cases manually
  // (Section III, Limitations); the automated pipeline regenerates instead
  // so every shipped test is race-free by the static checker. Each draft is
  // analyzed once, and its result is tallied into test.analysis — the
  // campaign's static-analysis accounting is the sum of these tallies.
  constexpr int kMaxAttempts = 16;
  analysis::AnalyzerStats interval_stats;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t seed = hash_combine(test.seed, attempt);
    ast::Program candidate = generator_.generate(
        "test_" + std::to_string(program_index), seed);
    telemetry::ScopedSpan check_span("analysis", "check_races");
    const auto t0 = std::chrono::steady_clock::now();
    const analysis::RaceReport report = analysis::analyze_races(
        candidate, analysis::AnalyzeOptions{}, &interval_stats);
    metrics_.analysis_nanos->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    const bool race_free = report.race_free();
    if (check_span.active()) {
      check_span.arg("fingerprint",
                     telemetry::hex_fingerprint(candidate.fingerprint()));
      check_span.arg("race_free", race_free ? "yes" : "no");
    }
    ++test.analysis.programs_checked;
    if (race_free) {
      test.program = std::move(candidate);
      test.regeneration_attempts = attempt;
      break;
    }
    ++test.analysis.programs_filtered;
    for (const auto& finding : report.findings) {
      ++test.analysis.findings_by_kind[static_cast<std::size_t>(finding.kind)];
    }
    OMPFUZZ_CHECK(attempt + 1 < kMaxAttempts,
                  "could not generate a race-free program in 16 attempts");
  }
  test.analysis.interval_disjoint_pairs = interval_stats.interval_disjoint_pairs;
  test.analysis.interval_mod_rewrites = interval_stats.mod_rewrites;
  // Interval-precision delta: the accepted draft is the only race-free one,
  // so it is the only draft the affine-only baseline can disagree on.
  analysis::AnalyzeOptions affine_only;
  affine_only.use_intervals = false;
  if (!analysis::analyze_races(test.program, affine_only).race_free()) {
    test.analysis.interval_rescued_drafts = 1;
  }
  test.features = ast::analyze(test.program);

  fp::InputGenOptions in_opt;
  in_opt.max_trip_count = config_.generator.max_loop_trip_count;
  // Same high bias as the generator's static bounds: tiny trip counts would
  // put most tests under the minimum-time analysis filter.
  in_opt.min_trip_count =
      std::max<std::int64_t>(1, config_.generator.max_loop_trip_count / 4);
  const fp::InputGenerator input_gen(in_opt);
  const auto signature = test.program.signature();
  RandomEngine input_rng = program_rng.fork(0x1457);
  for (int i = 0; i < config_.inputs_per_program; ++i) {
    test.inputs.push_back(input_gen.generate(signature, input_rng));
  }
  return test;
}

namespace {

/// Everything one (program, backend) unit produces: the raw runs of that
/// backend's implementation subset, input-major, plus the metadata of the
/// program they ran. Classification happens after ALL backends of a program
/// completed — the outlier analysis compares an implementation against the
/// whole team, which spans backends.
struct SubShard {
  bool done = false;
  /// Any run fabricated by a harness failure (compile/spawn infrastructure
  /// error): the sub-shard is merged like any other but never journaled —
  /// resuming must re-execute it rather than replay the transient failure.
  bool tainted = false;
  std::uint64_t fingerprint = 0;
  std::string program_name;
  std::vector<std::string> input_texts;  ///< one per input
  /// The program's draft-analysis tally, the same in every sub-shard of one
  /// program; the merge counts it once.
  StaticAnalysisStats analysis;
  std::vector<core::RunResult> runs;     ///< inputs x backend impls, input-major
};

/// A sub-shard describing `test` — program fingerprint, name, input
/// serializations and draft-analysis tally — with no runs yet. Executed,
/// fabricated and restored sub-shards all take their metadata from here, so
/// every sub-shard of a program describes the program generated today.
SubShard shard_for(const TestCase& test) {
  SubShard shard;
  shard.fingerprint = test.program.fingerprint();
  shard.program_name = test.program.name();
  shard.input_texts.reserve(test.inputs.size());
  for (const auto& input : test.inputs) {
    shard.input_texts.push_back(input.to_string());
  }
  shard.analysis = test.analysis;
  return shard;
}

/// Computes the verdict and output divergence of one outcome from its raw
/// runs. Deterministic, so outcomes restored from the checkpoint journal or
/// assembled from cached runs classify bit-identically to a cold run.
void classify_outcome(TestOutcome& outcome, const core::OutlierDetector& detector) {
  outcome.verdict = detector.analyze(outcome.runs);

  // Output divergence across the OK runs (NaN-aware majority vote);
  // non-OK runs are marked non-divergent placeholders. The paper's driver
  // compares the printed outputs, and %.17g round-trips doubles exactly —
  // so divergence is bitwise (exact tolerance). The reducer's oracle
  // classifies candidates through the same function, so "divergent" means
  // the same thing to the campaign and to a reduction.
  outcome.divergence =
      core::analyze_run_outputs(outcome.runs, core::exact_tolerance());
}

/// The outcome's time-independent verdict class, derived from the already
/// computed divergence so it cannot drift from what classify_outcome stored.
core::VerdictClass outcome_class(const TestOutcome& outcome) {
  return core::classify_runs(outcome.runs, outcome.divergence);
}

/// Retains every divergent (program, input) pair of one program — AST
/// clone, input values, emitted source — so the reducer and the reports can
/// work from the campaign's own artifacts instead of re-generating from the
/// seed.
void collect_divergent(const std::vector<TestOutcome>& outcomes,
                       const TestCase& test, int p,
                       std::vector<DivergentTriple>& out) {
  std::string source;  // emitted once, shared by all divergent inputs
  for (const TestOutcome& outcome : outcomes) {
    const core::VerdictClass cls = outcome_class(outcome);
    if (!cls.divergent()) continue;
    if (source.empty()) source = emit::emit_translation_unit(test.program);
    DivergentTriple triple;
    triple.program_index = p;
    triple.input_index = outcome.input_index;
    triple.program_name = outcome.program_name;
    triple.program = test.program.clone();
    triple.input = test.inputs[static_cast<std::size_t>(outcome.input_index)];
    triple.source = source;
    triple.input_text = outcome.input_text;
    triple.verdict_class = cls;
    out.push_back(std::move(triple));
  }
}

/// A fabricated "the harness could not run this triple" result: Crash with
/// harness_failure set, the shape every other infrastructure-failure path
/// (spawn failure, compile timeout) already produces. Analyzed like a Crash
/// within this campaign, never persisted, and — once retries are exhausted —
/// surfaced as a QuarantineRecord.
core::RunResult fabricated_run(const std::string& impl_name) {
  core::RunResult result;
  result.impl = impl_name;
  result.status = core::RunStatus::Crash;
  result.harness_failure = true;
  return result;
}

/// Sub-shard of a dead backend with no compatible spare: every run is a
/// fabricated harness failure, but the program metadata is still generated
/// for real so the merge sees the same program every healthy backend sees.
/// Always tainted — never journaled.
SubShard fabricate_shard_unit(const Campaign& campaign,
                              const std::vector<std::string>& impl_names,
                              int p) {
  SubShard shard = shard_for(campaign.make_test_case(p));
  shard.runs.reserve(shard.input_texts.size() * impl_names.size());
  for (std::size_t i = 0; i < shard.input_texts.size(); ++i) {
    for (const auto& name : impl_names) {
      shard.runs.push_back(fabricated_run(name));
    }
  }
  shard.tainted = true;
  shard.done = true;
  return shard;
}

/// Journal record of one completed sub-shard (raw runs only; verdicts are
/// recomputed on restore).
StoredShard to_stored(const SubShard& shard, int p, int backend_index) {
  StoredShard out;
  out.program_index = p;
  out.backend_index = backend_index;
  out.regeneration_attempts = shard.analysis.programs_filtered;
  out.program_fingerprint = shard.fingerprint;
  const std::size_t ni = shard.input_texts.size();
  const std::size_t nj = ni == 0 ? 0 : shard.runs.size() / ni;
  out.outcomes.reserve(ni);
  for (std::size_t i = 0; i < ni; ++i) {
    StoredOutcome stored;
    stored.input_index = static_cast<int>(i);
    stored.program_name = shard.program_name;
    stored.input_text = shard.input_texts[i];
    stored.runs.assign(shard.runs.begin() + static_cast<std::ptrdiff_t>(i * nj),
                       shard.runs.begin() + static_cast<std::ptrdiff_t>((i + 1) * nj));
    out.outcomes.push_back(std::move(stored));
  }
  return out;
}

/// True if a journal record was written for the program `current` describes:
/// same fingerprint, and the same name and serialization for every input.
/// The journal parse already checked that outcomes are slotted 0..n-1.
bool describes(const StoredShard& stored, const SubShard& current) {
  if (stored.program_fingerprint != current.fingerprint ||
      stored.outcomes.size() != current.input_texts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < stored.outcomes.size(); ++i) {
    if (stored.outcomes[i].program_name != current.program_name ||
        stored.outcomes[i].input_text != current.input_texts[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// Per-run state shared by the stages of Campaign::run.
struct Campaign::RunState {
  /// A backend whose units keep coming back fully exhausted (tainted even
  /// after run_on's retries) is declared dead after
  /// `retry.backend_death_threshold` consecutive tainted sub-shards. From
  /// then on its units go to a matching failover spare — or, with no spare,
  /// are fabricated without touching the executor and surface as
  /// quarantined triples plus a lost_backends entry.
  struct BackendHealth {
    std::atomic<int> consecutive{0};
    std::atomic<bool> dead{false};
  };

  explicit RunState(Campaign& owner);

  /// Executes unit (b, p) through whatever path backend b's health
  /// dictates, updating the health streak on the primary path.
  SubShard execute_unit(std::size_t b, int p);

  /// Runs unit (b, p) on `executor`; see the definition.
  SubShard run_on(Executor& executor, std::mutex* exec_mutex, std::size_t b,
                  int p, const std::atomic<bool>* backend_dead);

  /// Journals a completed sub-shard. Appends never abort the campaign: a
  /// failed append only means this unit re-executes on resume, which is
  /// strictly better than tearing the run down from a worker thread. A
  /// sub-shard tainted by a harness failure is not journaled: resuming must
  /// re-execute it rather than replay the transient failure as an
  /// observation.
  void journal_append(const SubShard& shard, int p, std::size_t b);

  Campaign& campaign;
  telemetry::ScopedSpan span{"campaign", "run"};
  std::size_t nb = 0;
  std::size_t np = 0;
  std::size_t ni = 0;
  /// Implementation layout: backends in order, implementations in executor
  /// order within each — the canonical column order of every merged
  /// outcome — with the store identity of each implementation alongside.
  std::vector<std::vector<std::string>> impls;
  std::vector<std::vector<std::string>> identities;
  bool identities_known = true;
  /// Per-backend serialization for executors that are not thread-safe;
  /// other backends' units keep running in parallel around them.
  std::vector<std::unique_ptr<std::mutex>> exec_mutexes;
  std::vector<BackendHealth> health;
  /// Failover spare index per backend (-1: none) and the spares' mutexes.
  std::vector<int> spare_for;
  std::vector<std::unique_ptr<std::mutex>> spare_mutexes;
  /// Sub-shards, indexed [program][backend].
  std::vector<std::vector<SubShard>> grid;
};

Campaign::RunState::RunState(Campaign& owner)
    : campaign(owner),
      nb(owner.backends_.size()),
      np(static_cast<std::size_t>(owner.config_.num_programs)),
      ni(static_cast<std::size_t>(owner.config_.inputs_per_program)),
      impls(nb), identities(nb), exec_mutexes(nb), health(nb),
      spare_for(nb, -1), spare_mutexes(owner.failover_.size()),
      grid(np, std::vector<SubShard>(nb)) {
  // Fresh telemetry baselines for this run: the registry counters are
  // process-wide and monotonic, so the per-run accessors
  // (robustness_counters, run_metrics) subtract the values captured here.
  // analysis_nanos keeps its construction-time baseline — analysis_seconds()
  // covers every draft this campaign generated, run() or not.
  const Metrics& metrics = owner.metrics_;
  owner.metrics_base_ = telemetry::Registry::global().snapshot();
  owner.counters_base_.retried_triples = metrics.retried_triples->value();
  owner.counters_base_.retry_rounds = metrics.retry_rounds->value();
  owner.counters_base_.failover_units = metrics.failover_units->value();
  owner.counters_base_.fabricated_units = metrics.fabricated_units->value();
  owner.counters_base_.journal_failures = metrics.journal_failures->value();
  metrics.live_backends->set(static_cast<std::int64_t>(nb));

  for (std::size_t b = 0; b < nb; ++b) {
    Executor& executor = *owner.backends_[b].executor;
    impls[b] = executor.implementations();
    for (const auto& name : impls[b]) {
      identities[b].push_back(
          store_impl_identity(name, executor.impl_identity(name)));
      if (identities[b].back().empty()) identities_known = false;
    }
    if (!executor.thread_safe()) exec_mutexes[b] = std::make_unique<std::mutex>();
  }

  // Spare assignment: each backend gets the first unclaimed spare whose
  // implementation list and per-name cache identities match it exactly —
  // the condition under which substitution is invisible in the merged
  // result (identical RunKeys, identical report columns).
  std::vector<char> spare_taken(owner.failover_.size(), 0);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t s = 0; s < owner.failover_.size(); ++s) {
      const Executor& spare = *owner.failover_[s];
      if (spare_taken[s] || spare.implementations() != impls[b]) continue;
      bool identical = true;
      for (std::size_t j = 0; j < impls[b].size() && identical; ++j) {
        identical = store_impl_identity(impls[b][j],
                                        spare.impl_identity(impls[b][j])) ==
                    identities[b][j];
      }
      if (!identical) continue;
      spare_taken[s] = 1;
      spare_for[b] = static_cast<int>(s);
      if (!spare.thread_safe()) spare_mutexes[s] = std::make_unique<std::mutex>();
      break;
    }
  }
}

SubShard Campaign::RunState::execute_unit(std::size_t b, int p) {
  if (health[b].dead.load(std::memory_order_acquire)) {
    if (spare_for[b] >= 0) {
      const auto s = static_cast<std::size_t>(spare_for[b]);
      campaign.metrics_.failover_units->add();
      return run_on(*campaign.failover_[s], spare_mutexes[s].get(), b, p, nullptr);
    }
    campaign.metrics_.fabricated_units->add();
    return fabricate_shard_unit(campaign, impls[b], p);
  }
  SubShard shard = run_on(*campaign.backends_[b].executor,
                          exec_mutexes[b].get(), b, p, &health[b].dead);
  if (shard.tainted) {
    const int streak =
        health[b].consecutive.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (streak >= campaign.config_.retry.backend_death_threshold &&
        !health[b].dead.exchange(true, std::memory_order_release)) {
      campaign.metrics_.live_backends->add(-1);
    }
  } else {
    health[b].consecutive.store(0, std::memory_order_relaxed);
  }
  return shard;
}

void Campaign::RunState::journal_append(const SubShard& shard, int p,
                                        std::size_t b) {
  if (campaign.journal_ == nullptr || shard.tainted) return;
  try {
    campaign.journal_->append(to_stored(shard, p, static_cast<int>(b)));
  } catch (const std::exception&) {
    campaign.metrics_.journal_failures->add();
  }
}

/// Generates program `p` and runs every (input, implementation) pair of
/// backend `b`'s implementation subset on `executor` (the backend's own or
/// its failover spare) that is not already in the result store.
/// Pure function of the campaign config, the backend's executor, and the
/// store contents (the store only ever holds what the executor would have
/// produced); `exec_mutex` serializes executor calls when the backend is not
/// thread-safe.
///
/// Fault tolerance: a batch the executor cannot deliver (it threw, returned
/// a short batch, or an injected dispatch fault fired) is fabricated as
/// harness failures instead of aborting the campaign, and every failed
/// (input, impl) triple is re-dispatched up to retry.max_attempts times with
/// bounded exponential backoff. Genuine observations are kept across
/// retries — only the failed triples go back to the executor — so a
/// transient fault leaves no trace in the merged result. Retrying stops
/// early when `backend_dead` flips: the campaign's failover/quarantine
/// machinery takes over from there.
///
/// Each unit regenerates its own TestCase, so an N-backend campaign runs the
/// generator N times per program. Deliberate: batches are backend-major, so
/// one program's units can be claimed arbitrarily far apart — sharing the
/// TestCase would hold up to num_programs ASTs live at once, and generation
/// is a bounded CPU cost per unit where the executed runs (compiles, test
/// children, interpretation) dominate.
SubShard Campaign::RunState::run_on(Executor& executor, std::mutex* exec_mutex,
                                    std::size_t b, int p,
                                    const std::atomic<bool>* backend_dead) {
  telemetry::ScopedSpan span("run-batch", "shard_unit");
  const TestCase test = campaign.make_test_case(p);
  SubShard shard = shard_for(test);
  if (span.active()) {
    span.arg("program", p);
    span.arg("backend", static_cast<int>(b));
    span.arg("fingerprint", telemetry::hex_fingerprint(shard.fingerprint));
  }

  ResultStore* const store = campaign.store_;
  const std::vector<std::string>& impl_names = impls[b];
  const std::vector<std::string>& impl_identities = identities[b];
  const std::size_t ni = shard.input_texts.size();
  const std::size_t nj = impl_names.size();
  const auto key_for = [&](std::size_t i, std::size_t j) {
    return RunKey{shard.fingerprint, shard.input_texts[i], impl_identities[j]};
  };

  // Consult the run cache triple-by-triple. An implementation with an empty
  // identity is never cached (the executor cannot vouch for reuse).
  std::vector<core::RunResult> runs(ni * nj);
  std::vector<char> have(ni * nj, 0);
  if (store != nullptr) {
    for (std::size_t j = 0; j < nj; ++j) {
      if (impl_identities[j].empty()) continue;
      for (std::size_t i = 0; i < ni; ++i) {
        if (auto hit = store->lookup(key_for(i, j))) {
          runs[i * nj + j] = std::move(*hit);
          have[i * nj + j] = 1;
        }
      }
    }
  }

  // `need` marks the triples the executor still owes after the cache
  // consult; dispatch_pending fills `runs` for exactly those and the retry
  // loop below narrows `need` to whatever came back as a harness failure.
  std::vector<char> need(ni * nj, 0);
  for (std::size_t idx = 0; idx < ni * nj; ++idx) need[idx] = !have[idx];

  // Batch the needed triples: implementations sharing the same missing
  // input set go to the executor in one run_batch call (the pipelined
  // backend overlaps all of its children), in implementation order. A cold
  // or store-less unit therefore degenerates to one batched call covering
  // every (input, impl) pair of this backend — and a fully warm unit
  // dispatches nothing at all. The input-major result order is part of the
  // run_batch contract.
  //
  // A batch the executor cannot deliver — it threw, returned the wrong
  // number of results, or an injected dispatch fault fired — is fabricated
  // as harness failures for its whole group. A short batch used to be a
  // fatal invariant violation; on a multi-backend campaign that let one
  // misbehaving backend abort everyone else's work, so it degrades to the
  // same quarantine path every other infrastructure failure takes.
  const auto dispatch_pending = [&] {
    struct BatchGroup {
      std::vector<std::size_t> missing_inputs;
      std::vector<std::size_t> impl_ids;
    };
    std::vector<BatchGroup> groups;
    for (std::size_t j = 0; j < nj; ++j) {
      std::vector<std::size_t> missing;
      for (std::size_t i = 0; i < ni; ++i) {
        if (need[i * nj + j]) missing.push_back(i);
      }
      if (missing.empty()) continue;
      auto it = std::find_if(groups.begin(), groups.end(), [&](const BatchGroup& g) {
        return g.missing_inputs == missing;
      });
      if (it == groups.end()) {
        groups.push_back({std::move(missing), {j}});
      } else {
        it->impl_ids.push_back(j);
      }
    }

    for (const auto& group : groups) {
      std::vector<std::string> group_impls;
      group_impls.reserve(group.impl_ids.size());
      for (const std::size_t j : group.impl_ids) group_impls.push_back(impl_names[j]);

      std::vector<core::RunResult> batch;
      bool delivered = !inject_fault(FaultSite::Dispatch);
      if (delivered) {
        try {
          std::unique_lock<std::mutex> lock;
          if (exec_mutex != nullptr) lock = std::unique_lock<std::mutex>(*exec_mutex);
          batch = executor.run_batch(test, group.missing_inputs, group_impls);
        } catch (const std::exception&) {
          delivered = false;
        }
        if (delivered &&
            batch.size() != group.missing_inputs.size() * group_impls.size()) {
          delivered = false;  // short batch — see the note above
        }
      }
      if (!delivered) {
        for (const std::size_t i : group.missing_inputs) {
          for (const std::size_t j : group.impl_ids) {
            runs[i * nj + j] = fabricated_run(impl_names[j]);
          }
        }
        continue;
      }

      for (std::size_t ii = 0; ii < group.missing_inputs.size(); ++ii) {
        for (std::size_t jj = 0; jj < group.impl_ids.size(); ++jj) {
          const std::size_t i = group.missing_inputs[ii];
          const std::size_t j = group.impl_ids[jj];
          core::RunResult& result = batch[ii * group.impl_ids.size() + jj];
          if (store != nullptr && !impl_identities[j].empty() &&
              !result.harness_failure) {
            store->put(key_for(i, j), result);
          }
          runs[i * nj + j] = std::move(result);
        }
      }
    }
  };

  dispatch_pending();

  // Retry only the failed triples, with bounded exponential backoff. The
  // re-dispatch is identical to the original (same TestCase, same RunKeys),
  // so a triple that succeeds on any attempt is indistinguishable from one
  // that succeeded immediately.
  const RetryConfig& retry = campaign.config().retry;
  std::int64_t delay_ms = std::min(retry.base_ms, retry.cap_ms);
  for (int attempt = 1; attempt < retry.max_attempts; ++attempt) {
    std::uint64_t failed = 0;
    for (std::size_t idx = 0; idx < ni * nj; ++idx) {
      need[idx] = need[idx] && runs[idx].harness_failure;
      if (need[idx]) ++failed;
    }
    if (failed == 0) break;
    if (backend_dead != nullptr && backend_dead->load(std::memory_order_acquire)) {
      break;  // the campaign's failover/quarantine path takes over
    }
    campaign.metrics_.retry_rounds->add();
    campaign.metrics_.retried_triples->add(failed);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    delay_ms = std::min(retry.cap_ms, delay_ms * 2);
    dispatch_pending();
  }

  shard.tainted = std::any_of(runs.begin(), runs.end(),
                              [](const core::RunResult& r) {
                                return r.harness_failure;
                              });
  shard.runs = std::move(runs);
  shard.done = true;
  return shard;
}

void Campaign::add_failover(Executor* spare) {
  OMPFUZZ_CHECK(spare != nullptr, "failover spare needs an executor");
  failover_.push_back(spare);
}

RobustnessCounters Campaign::robustness_counters() const noexcept {
  // The registry counters are process-wide and monotonic; the per-run view
  // subtracts the baseline captured when run() started.
  const auto delta = [](std::uint64_t current, std::uint64_t base) {
    return current >= base ? current - base : 0;
  };
  RobustnessCounters c;
  c.retried_triples =
      delta(metrics_.retried_triples->value(), counters_base_.retried_triples);
  c.retry_rounds =
      delta(metrics_.retry_rounds->value(), counters_base_.retry_rounds);
  c.failover_units =
      delta(metrics_.failover_units->value(), counters_base_.failover_units);
  c.fabricated_units = delta(metrics_.fabricated_units->value(),
                             counters_base_.fabricated_units);
  c.journal_failures = delta(metrics_.journal_failures->value(),
                             counters_base_.journal_failures);
  return c;
}

std::uint64_t Campaign::checkpoint_key() const {
  const auto& g = config_.generator;
  // v2 covers the backend split: sub-shard ownership is part of the journal
  // contract, so a re-split campaign starts a fresh journal instead of
  // restoring records to the wrong backend. v3 covers the feature gates and
  // feature probabilities, which change the program stream too.
  std::string material = "ompfuzz-campaign v3";
  material += ";seed=" + std::to_string(config_.seed);
  material += ";inputs_per_program=" + std::to_string(config_.inputs_per_program);
  const auto flag = [](bool on) { return on ? "1" : "0"; };
  material += ";gen=" + std::to_string(g.max_expression_size) + "," +
              std::to_string(g.max_nesting_levels) + "," +
              std::to_string(g.max_lines_in_block) + "," +
              std::to_string(g.array_size) + "," +
              std::to_string(g.max_same_level_blocks) + "," +
              flag(g.math_func_allowed) + "," +
              format_double(g.math_func_probability) + "," +
              std::to_string(g.num_threads) + "," +
              std::to_string(g.max_loop_trip_count) + "," +
              format_double(g.p_if_block) + "," + format_double(g.p_for_block) +
              "," + format_double(g.p_openmp_block) + "," +
              format_double(g.p_reduction) + "," + format_double(g.p_critical) +
              "," + format_double(g.p_parallel_in_loop);
  material += ";features=" + std::string(flag(g.enable_atomic)) +
              flag(g.enable_single) + flag(g.enable_master) +
              flag(g.enable_schedule) + flag(g.enable_rangeidx) + "," +
              format_double(g.p_atomic) + "," + format_double(g.p_single) +
              "," + format_double(g.p_master) + "," +
              format_double(g.p_schedule) + "," + format_double(g.p_rangeidx);
  for (const auto& backend : backends_) {
    material += ";backend=" + backend.name;
    for (const auto& name : backend.executor->implementations()) {
      material += ";impl=" + name + "=" + backend.executor->impl_identity(name);
    }
  }
  return fnv1a64(material);
}

CampaignResult Campaign::run(const ProgressFn& progress) {
  RunState state(*this);
  restore(state);
  execute(state, progress);
  CampaignResult result = merge(state);
  gc(state);
  return result;
}

void Campaign::restore(RunState& state) {
  resumed_programs_ = 0;
  if (journal_ == nullptr) return;
  telemetry::ScopedSpan span("campaign", "restore");
  // Resuming needs every implementation's cache identity: checkpoint_key()
  // cannot otherwise detect that an identity-less executor was reconfigured
  // between runs, and stale sub-shards would masquerade as results of the
  // new configuration. Such campaigns still journal (the records describe
  // this run faithfully) — they just never restore.
  std::vector<JournalBackend> journal_backends;
  journal_backends.reserve(state.nb);
  for (std::size_t b = 0; b < state.nb; ++b) {
    journal_backends.push_back({backends_[b].name, state.impls[b]});
  }
  const auto loaded = journal_->open(checkpoint_key(), journal_backends,
                                     resume_ && state.identities_known);
  // Later records win: a unit re-executed because its record was stale
  // appends a fresh record for the same unit.
  std::vector<std::vector<const StoredShard*>> records(
      state.np, std::vector<const StoredShard*>(state.nb, nullptr));
  for (const auto& stored : loaded) {
    const int p = stored.program_index;
    if (p < 0 || p >= config_.num_programs) continue;
    records[static_cast<std::size_t>(p)]
           [static_cast<std::size_t>(stored.backend_index)] = &stored;
  }

  // checkpoint_key() covers the configuration but not the generator or
  // input-generator algorithm, so every record is checked against the
  // program generated today — one make_test_case per program, which also
  // supplies the draft-analysis tally. A record that disagrees is dropped
  // and its unit joins the pending ones.
  for (std::size_t p = 0; p < state.np; ++p) {
    const auto& row = records[p];
    if (std::all_of(row.begin(), row.end(),
                    [](const StoredShard* r) { return r == nullptr; })) {
      continue;
    }
    const SubShard current = shard_for(make_test_case(static_cast<int>(p)));
    bool complete = true;
    for (std::size_t b = 0; b < state.nb; ++b) {
      if (row[b] == nullptr || !describes(*row[b], current)) {
        complete = false;
        continue;
      }
      SubShard& shard = state.grid[p][b];
      shard = current;
      for (const auto& outcome : row[b]->outcomes) {
        shard.runs.insert(shard.runs.end(), outcome.runs.begin(), outcome.runs.end());
      }
      shard.done = true;
    }
    if (complete) ++resumed_programs_;
  }
}

void Campaign::execute(RunState& state, const ProgressFn& progress) {
  // Schedule the remaining units — one per (program, backend),
  // deterministic in isolation thanks to the per-program RandomEngine::fork
  // streams in make_test_case. Each completed unit is journaled durably
  // before it counts as progress, so a kill can only lose in-flight units.
  std::vector<std::vector<int>> pending(state.nb);
  std::vector<std::atomic<int>> remaining(state.np);
  std::size_t scheduled_units = 0;
  for (std::size_t p = 0; p < state.np; ++p) {
    int left = 0;
    for (std::size_t b = 0; b < state.nb; ++b) {
      if (!state.grid[p][b].done) {
        pending[b].push_back(static_cast<int>(p));
        ++left;
      }
    }
    remaining[p].store(left, std::memory_order_relaxed);
    scheduled_units += static_cast<std::size_t>(left);
  }

  int completed = resumed_programs_;
  if (progress && completed > 0) progress(completed, config_.num_programs);
  std::mutex progress_mutex;

  // Live-progress gauges for the sampler/heartbeat: total units this run
  // must execute (resumed ones are already done) and units finished so far.
  metrics_.units_total->set(static_cast<std::int64_t>(scheduled_units));
  metrics_.units_done->set(0);

  const auto run_unit = [&](const ShardUnit& unit) {
    const auto p = static_cast<std::size_t>(unit.program_index);
    const std::size_t b = unit.backend;
    const std::uint64_t t0 = telemetry::Tracer::now_ns();
    SubShard shard = state.execute_unit(b, unit.program_index);
    metrics_.unit_micros->record((telemetry::Tracer::now_ns() - t0) / 1000);
    state.journal_append(shard, unit.program_index, b);
    state.grid[p][b] = std::move(shard);
    metrics_.units_done->add(1);
    if (remaining[p].fetch_sub(1, std::memory_order_acq_rel) == 1 && progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++completed, config_.num_programs);
    }
  };

  const ShardScheduler scheduler(state.nb, scheduler_,
                                 resolve_thread_count(config_.threads));
  {
    telemetry::ScopedSpan schedule_span("campaign", "schedule");
    if (schedule_span.active()) {
      schedule_span.arg("units", static_cast<std::uint64_t>(scheduled_units));
    }
    scheduler_stats_ = scheduler.run(pending, run_unit);
  }

  // Failover sweep: units of a dead backend that exhausted their retries
  // BEFORE the death was detected (the streak that killed it) are re-run on
  // its spare, restoring the exact runs a healthy campaign would have
  // produced — a backend lost mid-campaign with a compatible spare leaves no
  // trace in the merged result. Dead backends without a spare keep their
  // fabricated columns; the merge reports them as lost.
  for (std::size_t b = 0; b < state.nb; ++b) {
    if (!state.health[b].dead.load(std::memory_order_acquire) ||
        state.spare_for[b] < 0) {
      continue;
    }
    for (std::size_t p = 0; p < state.np; ++p) {
      if (!state.grid[p][b].tainted) continue;
      state.grid[p][b] = state.execute_unit(b, static_cast<int>(p));
      state.journal_append(state.grid[p][b], static_cast<int>(p), b);
    }
  }
}

CampaignResult Campaign::merge(RunState& state) const {
  // Ordered merge + aggregation. Every program's sub-shards are joined —
  // backend columns concatenated per input row — classified, and counted in
  // program order, so the result does not depend on the thread count, the
  // batch size, the steal schedule, or sub-shard completion order. Every
  // sub-shard of a row describes the same program (restore dropped any
  // record that did not), so the first one speaks for the row.
  telemetry::ScopedSpan span("campaign", "merge");
  CampaignResult result;
  for (std::size_t b = 0; b < state.nb; ++b) {
    result.impl_names.insert(result.impl_names.end(), state.impls[b].begin(),
                             state.impls[b].end());
    if (state.health[b].dead.load(std::memory_order_acquire) &&
        state.spare_for[b] < 0) {
      result.robustness.lost_backends.push_back(backends_[b].name);
    }
  }
  for (const auto& name : result.impl_names) result.per_impl[name];

  core::OutlierParams params;
  params.alpha = config_.alpha;
  params.beta = config_.beta;
  params.min_time_us = static_cast<double>(config_.min_time_us);
  const core::OutlierDetector detector(params);

  for (std::size_t p = 0; p < state.np; ++p) {
    auto& row = state.grid[p];
    const SubShard& head = row[0];
    std::vector<TestOutcome> outcomes(state.ni);
    for (std::size_t i = 0; i < state.ni; ++i) {
      TestOutcome& outcome = outcomes[i];
      outcome.program_index = static_cast<int>(p);
      outcome.input_index = static_cast<int>(i);
      outcome.program_name = head.program_name;
      outcome.input_text = head.input_texts[i];
      for (std::size_t b = 0; b < state.nb; ++b) {
        const std::size_t nj = state.impls[b].size();
        const auto begin =
            row[b].runs.begin() + static_cast<std::ptrdiff_t>(i * nj);
        outcome.runs.insert(outcome.runs.end(), std::make_move_iterator(begin),
                            std::make_move_iterator(
                                begin + static_cast<std::ptrdiff_t>(nj)));
      }
      classify_outcome(outcome, detector);
    }

    // Divergent triples need the AST, which no sub-shard retains — the merge
    // regenerates the test case, but only for divergent programs (the common
    // non-divergent program merges without touching the generator).
    if (std::any_of(outcomes.begin(), outcomes.end(), [](const TestOutcome& o) {
          return outcome_class(o).divergent();
        })) {
      collect_divergent(outcomes, make_test_case(static_cast<int>(p)),
                        static_cast<int>(p), result.divergent);
    }

    result.regenerated_programs += head.analysis.programs_filtered > 0 ? 1 : 0;
    result.analysis += head.analysis;
    for (auto& outcome : outcomes) {
      ++result.total_tests;
      if (outcome.verdict.analyzable) ++result.analyzable_tests;
      for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
        ++result.total_runs;
        if (outcome.runs[r].status == core::RunStatus::Skipped) {
          ++result.skipped_runs;
        }
        // A fabricated run surviving to the merge means retries and failover
        // were both exhausted for this triple — quarantine it. The ordered
        // merge makes the record list deterministic.
        if (outcome.runs[r].harness_failure) {
          result.robustness.quarantined.push_back(
              {static_cast<int>(p), outcome.input_index, outcome.runs[r].impl,
               outcome.program_name});
        }
        auto& counts = result.per_impl[outcome.runs[r].impl];
        switch (outcome.verdict.per_run[r]) {
          case core::OutlierKind::Slow: ++counts.slow; break;
          case core::OutlierKind::Fast:
            ++counts.fast;
            if (outcome.divergence.diverges[r]) ++counts.fast_with_divergence;
            break;
          case core::OutlierKind::Crash: ++counts.crash; break;
          case core::OutlierKind::Hang: ++counts.hang; break;
          case core::OutlierKind::None: break;
        }
      }
      result.outcomes.push_back(std::move(outcome));
    }
  }
  return result;
}

void Campaign::gc(const RunState& state) {
  // Size-bounded store GC. With a journal attached, every shard's RunKeys
  // are pinned — a resume must find its cached triples even after eviction
  // — then least-recently-used records are evicted until the cache fits
  // store.max_bytes.
  if (store_ == nullptr || store_->config().max_bytes <= 0) return;
  std::vector<std::array<std::uint64_t, 2>> pins;
  if (journal_ != nullptr) {
    for (const auto& row : state.grid) {
      const SubShard& head = row[0];
      for (const auto& input_text : head.input_texts) {
        for (const auto& backend_identities : state.identities) {
          for (const auto& identity : backend_identities) {
            if (identity.empty()) continue;
            pins.push_back(RunKey{head.fingerprint, input_text, identity}.digest());
          }
        }
      }
    }
  }
  store_->gc(pins);
}

const TestOutcome* find_outcome(const CampaignResult& result,
                                const std::string& impl,
                                core::OutlierKind kind) {
  const TestOutcome* best = nullptr;
  double best_ratio = 0.0;
  for (const auto& outcome : result.outcomes) {
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      if (outcome.runs[r].impl != impl) continue;
      if (outcome.verdict.per_run[r] != kind) continue;
      double ratio = 1.0;
      if (kind == core::OutlierKind::Slow && outcome.verdict.midpoint_us > 0) {
        ratio = outcome.runs[r].time_us / outcome.verdict.midpoint_us;
      } else if (kind == core::OutlierKind::Fast && outcome.runs[r].time_us > 0) {
        ratio = outcome.verdict.midpoint_us / outcome.runs[r].time_us;
      }
      if (best == nullptr || ratio > best_ratio) {
        best = &outcome;
        best_ratio = ratio;
      }
    }
  }
  return best;
}

}  // namespace ompfuzz::harness
