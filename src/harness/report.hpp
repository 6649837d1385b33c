// Campaign report rendering.
//
// Produces the paper's Table I ("Overview of the results using three OpenMP
// implementations") as a text table, a prose summary answering the paper's
// Q1 (outlier rates, divergence attribution), and a machine-readable JSON
// dump of every outcome.
#pragma once

#include <string>

#include "harness/campaign.hpp"
#include "support/telemetry.hpp"

namespace ompfuzz::harness {

/// Table I: rows = implementations, columns = Slow / Fast / Crash / Hang.
[[nodiscard]] std::string render_table1(const CampaignResult& result);

/// Prose summary: totals, filter and outlier rates, correctness-outlier
/// rate, and the share of fast outliers with diverging outputs.
[[nodiscard]] std::string render_summary(const CampaignResult& result);

/// One line per outlier test: which implementation, kind, ratio vs midpoint.
[[nodiscard]] std::string render_outlier_list(const CampaignResult& result,
                                              std::size_t max_rows = 20);

/// Full JSON dump (config-independent; every outcome with runs and verdict).
/// Deliberately free of backend/scheduler structure: the report of a
/// multi-backend campaign is byte-identical to its single-backend baseline,
/// which is how the CI equivalence check diffs them.
[[nodiscard]] std::string to_json(const CampaignResult& result);

/// One line per backend (name, implementations, units executed) plus the
/// batch/steal counters of the last run, read from the telemetry registry
/// (pass Campaign::run_metrics() so the scheduler.* counters are scoped to
/// the run being summarized). Throughput bookkeeping only — kept out of
/// to_json so backend splits stay report-invisible.
[[nodiscard]] std::string render_scheduler_summary(
    const std::vector<CampaignBackend>& backends,
    const telemetry::MetricsSnapshot& metrics);

/// Generation-phase race-filter summary: drafts checked/filtered, findings
/// histogram, and — wall time being nondeterministic — the analysis timing,
/// which therefore stays out of to_json (the counts themselves are in the
/// JSON's split-invariant `static_analysis` block). The timing comes from
/// the registry's campaign.analysis_nanos counter — pass
/// Campaign::run_metrics(); the timing line is omitted when the counter is
/// absent from the snapshot.
[[nodiscard]] std::string render_analysis_summary(
    const CampaignResult& result, const telemetry::MetricsSnapshot& metrics);

/// Retry/failover/fault-injection summary: the deterministic RobustnessStats
/// (quarantined triples, lost backends — also in the JSON's `robustness`
/// block) next to the wall-clock-style counters (retries fired, units
/// failed over, per-site fault-injection hits), which are nondeterministic
/// and therefore stdout-only, exactly like the analysis timing above. Pass
/// Campaign::robustness_counters() as `counters`.
[[nodiscard]] std::string render_robustness_summary(
    const CampaignResult& result, const RobustnessCounters& counters);

}  // namespace ompfuzz::harness
