// Golden digests of the interpreter's observable semantics.
//
// The simulated interpreter is the oracle every other layer is checked
// against, so a change that moves any of its outputs is a semantic change,
// not a refactor. These tests pin, across commits:
//
//   * every InterpResult field (ok, over_budget, comp bits, all EventCounts
//     fields, steps) over a fixed corpus: seeded programs of the default
//     stream, the atomic/single/master/schedule stream and the rangeidx
//     stream, each input run under the gcc, clang/intel and contract_fma
//     semantics at two team sizes and a step budget small enough that some
//     runs end over budget (whose partial counts are pinned too);
//   * the shared-access and value-range traces of the traced engine;
//   * the JSON report of campaign_demo's built-in configuration.
//
// NaN is canonicalized before digesting: the sign of a NaN produced by
// arithmetic on infinities depends on instruction selection, so two correct
// builds of one engine may disagree on it. Reports print every NaN as "nan"
// and the differ treats NaN == NaN, so the sign is not observable anyway.
//
// The digests are keyed by harness::kSimEngineVersion, which
// SimExecutor::impl_identity stamps into every store and journal key. A
// change that moves a digest must add a new entry under a bumped version;
// entries are never edited in place, so warm stores can never serve results
// computed by an older interpreter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "interp/interp.hpp"
#include "runtime/impl_profile.hpp"
#include "support/config.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ompfuzz {
namespace {

struct GoldenDigests {
  std::uint64_t interp;    ///< InterpResult corpus
  std::uint64_t traces;    ///< AccessTrace + ValueTrace corpus
  std::uint64_t campaign;  ///< campaign_demo default report
};

// Append-only: one entry per sim engine version.
const std::map<int, GoldenDigests>& golden_history() {
  static const std::map<int, GoldenDigests> history = {
      {1, {0x7a2fb91907cb4c0dULL, 0xf50823b303a4980eULL, 0x01f30f7b2c70545cULL}},
  };
  return history;
}

std::uint64_t fp_bits(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint64_t digest_result(std::uint64_t h, const interp::InterpResult& r) {
  const interp::EventCounts& e = r.events;
  for (const std::uint64_t v :
       {std::uint64_t{r.ok}, std::uint64_t{r.over_budget}, fp_bits(r.comp),
        r.steps, e.fp_add_sub, e.fp_mul, e.fp_div, e.math_calls, e.int_ops,
        e.subnormal_fp_ops, e.scalar_loads, e.scalar_stores, e.array_loads,
        e.array_stores, e.branches, e.loop_iterations, e.parallel_regions,
        e.thread_starts, e.omp_for_loops, e.barriers, e.critical_entries,
        e.critical_stmts, e.reduction_combines}) {
    h = hash_combine(h, v);
  }
  return h;
}

std::uint64_t digest_traces(std::uint64_t h, const interp::AccessTrace& access,
                            const interp::ValueTrace& values) {
  h = hash_combine(h, access.accesses.size());
  for (const interp::SharedAccess& a : access.accesses) {
    h = hash_combine(h, (std::uint64_t{a.region} << 32) | a.phase);
    h = hash_combine(h, (std::uint64_t{a.var} << 32) |
                            static_cast<std::uint32_t>(a.elem));
    h = hash_combine(h, (std::uint64_t{a.tid} << 8) |
                            (std::uint64_t{a.is_write} << 2) |
                            (std::uint64_t{a.in_critical} << 1) |
                            std::uint64_t{a.is_atomic});
  }
  for (const auto* ranges : {&values.scalars, &values.subscripts}) {
    h = hash_combine(h, ranges->size());
    for (const interp::ObservedRange& r : *ranges) {
      h = hash_combine(h, static_cast<std::uint64_t>(r.lo));
      h = hash_combine(h, static_cast<std::uint64_t>(r.hi));
    }
  }
  return h;
}

/// Marker folded into a digest when a run throws instead of returning.
constexpr std::uint64_t kThrew = 0xE77E77E77E77E77EULL;

struct CorpusStats {
  int runs = 0;
  int ok = 0;
  int over_budget = 0;
  int errors = 0;
  std::uint64_t interp = 0;
  std::uint64_t traces = 0;
};

/// Fixed seeds x inputs x {gcc, clang/intel, contract_fma} x team sizes over
/// three generator streams.
CorpusStats run_corpus() {
  struct Stream {
    const char* features;
    std::uint64_t salt;
  };
  const Stream streams[] = {
      {"", 0x601d0001},
      {"atomic,single,master,schedule", 0x601d0002},
      {"rangeidx", 0x601d0003},
  };
  interp::FpSemantics fma = rt::clang_profile().fp;
  fma.contract_fma = true;
  const interp::FpSemantics semantics[] = {rt::gcc_profile().fp,
                                           rt::clang_profile().fp, fma};
  constexpr int kProgramsPerStream = 24;
  constexpr int kInputsPerProgram = 2;
  constexpr std::uint64_t kMaxSteps = 150'000;

  CorpusStats stats;
  for (const Stream& stream : streams) {
    GeneratorConfig cfg;
    cfg.max_loop_trip_count = 100;
    if (*stream.features != '\0') cfg.enable_features(stream.features);
    const core::ProgramGenerator generator(cfg);
    fp::InputGenOptions igopt;
    igopt.max_trip_count = cfg.max_loop_trip_count;
    const fp::InputGenerator input_gen(igopt);
    for (int n = 0; n < kProgramsPerStream; ++n) {
      const ast::Program prog = generator.generate(
          "golden_" + std::to_string(n), hash_combine(stream.salt, n));
      RandomEngine rng(hash_combine(stream.salt ^ 0x5eed, n));
      for (int k = 0; k < kInputsPerProgram; ++k) {
        const fp::InputSet input = input_gen.generate(prog.signature(), rng);
        for (const interp::FpSemantics& fp : semantics) {
          for (const int team : {4, 7}) {
            interp::InterpOptions opt;
            opt.fp = fp;
            opt.num_threads_override = team;
            opt.max_steps = kMaxSteps;
            ++stats.runs;
            try {
              const interp::InterpResult r = interp::execute(prog, input, opt);
              stats.ok += r.ok ? 1 : 0;
              stats.over_budget += r.over_budget ? 1 : 0;
              stats.interp = digest_result(stats.interp, r);
            } catch (const Error&) {
              ++stats.errors;
              stats.interp = hash_combine(stats.interp, kThrew);
            }
          }
        }
        // The traced engine: same result, plus both traces.
        interp::AccessTrace access;
        interp::ValueTrace values;
        interp::InterpOptions traced;
        traced.num_threads_override = 4;
        traced.max_steps = kMaxSteps;
        traced.trace = &access;
        traced.values = &values;
        try {
          const interp::InterpResult r = interp::execute(prog, input, traced);
          stats.traces = digest_result(stats.traces, r);
        } catch (const Error&) {
          stats.traces = hash_combine(stats.traces, kThrew);
        }
        stats.traces = digest_traces(stats.traces, access, values);
      }
    }
  }
  return stats;
}

// campaign_demo's built-in configuration, verbatim.
constexpr const char* kDemoConfig = R"(
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

/// Digest of the JSON report campaign_demo writes with no arguments (run
/// here on four workers; the report is identical for every thread count).
std::uint64_t demo_report_digest() {
  CampaignConfig cfg = CampaignConfig::from_config(ConfigFile::parse(kDemoConfig));
  cfg.threads = 4;
  harness::SimExecutorOptions opt;
  opt.num_threads = cfg.generator.num_threads;
  std::vector<rt::OmpImplProfile> profiles;
  for (const auto& impl : cfg.implementations) {
    auto profile = rt::profile_by_name(impl.profile.empty() ? impl.name : impl.profile);
    profile.name = impl.name;
    profiles.push_back(std::move(profile));
  }
  harness::SimExecutor exec(std::move(profiles), opt);
  harness::Campaign campaign(cfg, exec);
  return fnv1a64(harness::to_json(campaign.run()));
}

const GoldenDigests& current_golden() {
  return golden_history().at(harness::kSimEngineVersion);
}

TEST(InterpGolden, ResultCorpusMatchesRecordedDigest) {
  const CorpusStats stats = run_corpus();
  std::printf("corpus: %d runs, %d ok, %d over budget, %d errors\n", stats.runs,
              stats.ok, stats.over_budget, stats.errors);
  // The corpus must exercise both completion and budget exhaustion.
  EXPECT_GE(stats.ok, stats.runs / 2);
  EXPECT_GE(stats.over_budget, 20);
  EXPECT_EQ(stats.interp, current_golden().interp)
      << std::hex << "interp digest 0x" << stats.interp;
  EXPECT_EQ(stats.traces, current_golden().traces)
      << std::hex << "trace digest 0x" << stats.traces;
}

TEST(InterpGolden, DemoCampaignReportMatchesRecordedDigest) {
  const std::uint64_t digest = demo_report_digest();
  EXPECT_EQ(digest, current_golden().campaign)
      << std::hex << "campaign digest 0x" << digest;
}

// A semantic change moves a digest; the fix is a new history entry under a
// bumped kSimEngineVersion, which also changes every store/journal key.
TEST(InterpGolden, DigestsAreKeyedByTheStampedEngineVersion) {
  ASSERT_FALSE(golden_history().empty());
  EXPECT_EQ(golden_history().rbegin()->first, harness::kSimEngineVersion)
      << "the newest golden entry must belong to the current engine version";
  const harness::SimExecutor exec{harness::SimExecutorOptions{}};
  for (const std::string& impl : exec.implementations()) {
    EXPECT_NE(exec.impl_identity(impl).find(
                  ";sim_engine_version=" +
                  std::to_string(harness::kSimEngineVersion)),
              std::string::npos)
        << exec.impl_identity(impl);
  }
}

TEST(InterpGolden, NanIsCanonicalizedBeforeDigesting) {
  const double positive = std::numeric_limits<double>::quiet_NaN();
  const double negative = -positive;
  ASSERT_TRUE(std::signbit(negative));
  EXPECT_EQ(fp_bits(positive), fp_bits(negative));
  EXPECT_NE(fp_bits(0.0), fp_bits(-0.0));  // only NaN is canonicalized
}

}  // namespace
}  // namespace ompfuzz
