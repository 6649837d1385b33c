// campaign_bench: the end-to-end campaign benchmark program.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--call-seeds S1,S2,...] [--programs N]
//                  [--max-calls N] [--report-out FILE]
//   campaign_bench --setup-only --t0 NS --workload NAME --seed N --work-dir DIR
//   campaign_bench --dump-config FILE --workload NAME --seed N --work-dir DIR
//   campaign_bench --count-steps --workload NAME --call-seeds S1,... --work-dir DIR
//   campaign_bench --info
//
// Runs the workload's campaign calls through harness::Campaign::run back to
// back for about S seconds (all of --call-seeds, when given) and prints one
// JSON line, prefixed "CAMPAIGN_BENCH ", with every call's tests, wall and
// CPU time, peak resident set and report digest, plus the correctness
// tallies. With --trace 1 each call is also replayed layer by layer
// (replay.cpp), and the line carries the per-layer metrics. run.py turns the
// line into the benchmark's named metrics; it is the intended entry point.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "harness/report.hpp"
#include "interp/interp.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace campaign_bench {

using namespace ompfuzz;
namespace fs = std::filesystem;

void Checks::problem(std::string what) {
  // The first few are enough to diagnose; the count is in `failed`.
  if (problems.size() < 20) problems.push_back(std::move(what));
}

void Checks::note(std::string what) {
  if (notes.size() < 20) notes.push_back(std::move(what));
}

double cpu_seconds() {
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;  // 5 resets VmHWM
  if (!clear_refs) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Structural checks every report must pass: all tests present, no run the
/// harness fabricated, and — on real toolchains — no compile failure or
/// timeout (both surface as a non-Ok status of a race-free program).
void check_result(const harness::CampaignResult& result,
                  const CampaignConfig& config, bool real_toolchain,
                  Checks& checks) {
  const int tests = config.num_programs * config.inputs_per_program;
  const int runs = tests * static_cast<int>(config.implementations.size());
  checks.attempted += runs;
  if (result.total_tests != tests || result.total_runs != runs) {
    checks.failed += runs;
    checks.problem("report has " + std::to_string(result.total_runs) +
                   " runs, expected " + std::to_string(runs));
    return;
  }
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) {
      const bool bad = run.harness_failure ||
                       (real_toolchain && run.status != core::RunStatus::Ok);
      if (!bad) continue;
      ++checks.failed;
      checks.problem(outcome.program_name + " input " +
                     std::to_string(outcome.input_index) + " " + run.impl +
                     (run.harness_failure ? ": harness failure" : ": not Ok"));
    }
  }
}

/// Recomputes `count` seed-chosen runs through a fresh executor, outside the
/// campaign, and compares status, time and output bit for bit.
void spot_check(const std::string& ini, const harness::CampaignResult& result,
                std::uint64_t campaign_seed, int count, Checks& checks) {
  if (count <= 0 || result.outcomes.empty()) return;
  const CampaignSetup fresh = make_setup(ini, false);
  RandomEngine rng(hash_combine(campaign_seed, 0x5707));
  for (int k = 0; k < count; ++k) {
    const auto& outcome = result.outcomes[rng.uniform_index(result.outcomes.size())];
    const std::size_t r = rng.uniform_index(outcome.runs.size());
    const auto& expected = outcome.runs[r];
    const harness::TestCase test =
        fresh.campaign->make_test_case(outcome.program_index);
    const core::RunResult got = fresh.executor->run(
        test, static_cast<std::size_t>(outcome.input_index), expected.impl);
    ++checks.checked;
    if (got.status != expected.status || !same_bits(got.time_us, expected.time_us) ||
        !same_bits(got.output, expected.output)) {
      ++checks.failed;
      checks.problem(outcome.program_name + " input " +
                     std::to_string(outcome.input_index) + " " + expected.impl +
                     ": campaign run differs from a direct recomputation");
    }
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Runs the campaign of `setup` and times Campaign::run + to_json, the way
/// a user of campaign_demo waits for a report.
harness::CampaignResult timed_run(const CampaignSetup& setup, CallRecord& record,
                                  std::string& report) {
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  harness::CampaignResult result = setup.campaign->run();
  report = harness::to_json(result);
  record.wall_s = seconds_since(t0);
  record.cpu_s = cpu_seconds() - cpu0;
  record.peak_rss_mb = peak_rss_mb();
  record.tests = result.total_tests;
  record.runs = result.total_runs;
  return result;
}

}  // namespace

std::string check_real_runs(const harness::Campaign& campaign,
                            const harness::CampaignResult& result, Checks& checks) {
  interp::InterpOptions options;
  options.max_steps = 20'000'000;
  const std::string where = "campaign seed " + std::to_string(campaign.config().seed) + " ";
  std::string material;
  std::vector<std::string> mismatches;
  int compared = 0;
  harness::TestCase test;
  for (const auto& outcome : result.outcomes) {
    material += outcome.program_name + " " + outcome.input_text + "\n";
    if (outcome.input_index == 0) test = campaign.make_test_case(outcome.program_index);
    const auto expected = interp::execute(
        test.program, test.inputs.at(static_cast<std::size_t>(outcome.input_index)),
        options);
    for (const auto& run : outcome.runs) {
      material += run.impl + " " + std::to_string(static_cast<int>(run.status)) + "\n";
      if (run.status != core::RunStatus::Ok) continue;  // a failure check_result counts
      if (!expected.ok) {
        ++checks.unchecked;
        continue;
      }
      ++compared;
      if ((std::isnan(run.output) && std::isnan(expected.comp)) ||
          same_bits(run.output, expected.comp)) {
        continue;
      }
      mismatches.push_back(where + outcome.program_name + " input " +
                           std::to_string(outcome.input_index) + " " + run.impl +
                           ": binary printed " + format_double(run.output) +
                           ", the interpreter " + format_double(expected.comp));
    }
  }
  checks.checked += compared;
  const auto differing = static_cast<int>(mismatches.size());
  if (2 * differing > compared) {
    checks.failed += differing;
    for (auto& what : mismatches) checks.problem(what + " (most runs of the call differ)");
  } else {
    checks.interp_mismatch += differing;
    for (auto& what : mismatches) checks.note(std::move(what));
  }
  return digest_hex(material);
}

std::uint64_t campaign_seed_of(const RunOptions& options, int call) {
  return options.call_seeds.empty()
             ? call_seed(options.seed, call)
             : options.call_seeds.at(static_cast<std::size_t>(call));
}

void for_each_call(const RunOptions& options, bool whole_list,
                   const std::function<void(int)>& body) {
  const auto start = Clock::now();
  double longest = 0;
  for (int call = 0; options.max_calls <= 0 || call < options.max_calls; ++call) {
    if (call > 0 && !whole_list && seconds_since(start) + longest > options.seconds) {
      break;  // the next call would overrun the time budget
    }
    const auto t0 = Clock::now();
    body(call);
    longest = std::max(longest, seconds_since(t0));
  }
}

CallRecord measure_call(const RunOptions& options, int call, Checks& checks) {
  const Workload& workload = *options.workload;
  CallRecord record;
  record.campaign_seed = campaign_seed_of(options, call);
  const std::string dir = options.work_dir + "/call" + std::to_string(call);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string ini =
      config_text(workload, record.campaign_seed, options.programs, dir);
  std::string report;

  const CampaignSetup setup = make_setup(ini, false);
  const auto result = timed_run(setup, record, report);
  const bool real = workload.kind == Kind::Subprocess;
  check_result(result, setup.config, real, checks);
  if (real) {
    record.digest = check_real_runs(*setup.campaign, result, checks);
  } else {
    record.digest = digest_hex(report);
    spot_check(ini, result, record.campaign_seed, workload.spot_checks, checks);
  }
  if (call == 0 && !options.report_out.empty()) write_file(options.report_out, report);
  fs::remove_all(dir);
  return record;
}

namespace {

void write_call(JsonWriter& json, const CallRecord& call) {
  json.begin_object();
  json.key("campaign_seed").value(call.campaign_seed);
  json.key("tests").value(call.tests);
  json.key("runs").value(call.runs);
  json.key("wall_s").value(call.wall_s);
  json.key("cpu_s").value(call.cpu_s);
  json.key("peak_rss_mb").value(call.peak_rss_mb);
  json.key("digest").value(call.digest);
  json.key("warmup").value(call.warmup);
  json.end_object();
}

struct Args {
  RunOptions run;
  std::string workload = "sim-paper";
  int trace = 0;
  bool info = false;
  bool setup_only = false;
  bool count_steps = false;
  long long t0_ns = 0;
  std::string dump_config;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    const auto next = [&]() -> std::string {
      if (a + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++a];
    };
    if (flag == "--workload") args.workload = next();
    else if (flag == "--seed") args.run.seed = std::stoull(next());
    else if (flag == "--seconds") args.run.seconds = std::stod(next());
    else if (flag == "--trace") args.trace = std::stoi(next());
    else if (flag == "--programs") args.run.programs = std::stoi(next());
    else if (flag == "--max-calls") args.run.max_calls = std::stoi(next());
    else if (flag == "--work-dir") args.run.work_dir = next();
    else if (flag == "--report-out") args.run.report_out = next();
    else if (flag == "--dump-config") args.dump_config = next();
    else if (flag == "--t0") args.t0_ns = std::stoll(next());
    else if (flag == "--call-seeds") {
      const std::string list = next();
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        args.run.call_seeds.push_back(std::stoull(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    }
    else if (flag == "--count-steps") args.count_steps = true;
    else if (flag == "--setup-only") args.setup_only = true;
    else if (flag == "--info") args.info = true;
    else throw std::invalid_argument("unknown argument: " + flag);
  }
  args.run.workload = &find_workload(args.workload);
  if (args.run.programs <= 0) args.run.programs = args.run.workload->programs_per_call;
  if (!args.run.call_seeds.empty()) {
    const auto n = static_cast<int>(args.run.call_seeds.size());
    args.run.max_calls = args.run.max_calls > 0 ? std::min(args.run.max_calls, n) : n;
  }
  if (args.run.work_dir.empty()) args.run.work_dir = ".bench_build/work";
  if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(args.run.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

void print_info() {
  JsonWriter json;
  json.begin_object();
  json.key("build_type").value(CAMPAIGN_BENCH_BUILD_TYPE);
  json.key("compiler").value(CAMPAIGN_BENCH_COMPILER);
#ifdef NDEBUG
  json.key("ndebug").value(true);
#else
  json.key("ndebug").value(false);
#endif
#ifdef __OPTIMIZE__
  json.key("optimized").value(true);
#else
  json.key("optimized").value(false);
#endif
  json.key("nproc").value(static_cast<std::uint64_t>(resolve_thread_count(0)));
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

/// Set-up time: from the moment the caller spawned this process (`t0_ns`,
/// CLOCK_MONOTONIC — the clock steady_clock reads) to a campaign ready to
/// run: config parsed, executor built, store and journal opened.
void print_setup(const Args& args) {
  const std::string dir = args.run.work_dir + "/setup";
  fs::create_directories(dir);
  {
    const CampaignSetup setup = make_setup(
        config_text(*args.run.workload, campaign_seed_of(args.run, 0),
                    args.run.programs, dir),
        false);
    const long long ready = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now().time_since_epoch())
                                .count();
    std::printf("CAMPAIGN_BENCH_SETUP %.9f\n",
                static_cast<double>(ready - args.t0_ns) * 1e-9);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  using namespace campaign_bench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.info) {
      print_info();
      return 0;
    }
    if (args.setup_only) {
      print_setup(args);
      return 0;
    }
    if (args.count_steps) {
      for (const std::uint64_t seed : args.run.call_seeds) {
        std::printf("CAMPAIGN_BENCH_STEPS %llu", static_cast<unsigned long long>(seed));
        for (const std::uint64_t steps : interp_steps(args.run, seed)) {
          std::printf(" %llu", static_cast<unsigned long long>(steps));
        }
        std::printf("\n");
        std::fflush(stdout);
      }
      return 0;
    }
    if (!args.dump_config.empty()) {
      std::ofstream(args.dump_config)
          << config_text(*args.run.workload, campaign_seed_of(args.run, 0),
                         args.run.programs, args.run.work_dir + "/call0");
      return 0;
    }

    Checks checks;
    std::vector<CallRecord> calls;
    std::vector<LayerMetric> layers;
    if (args.trace == 1) {
      layers = run_traced(args.run, calls, checks);
    } else {
      // A given list of call seeds is measured whole (see run.py, call_seeds).
      const bool fixed_calls = !args.run.call_seeds.empty();
      for_each_call(args.run, fixed_calls, [&](int call) {
        calls.push_back(measure_call(args.run, call, checks));
        calls.back().warmup = !fixed_calls && call == 0;
      });
    }

    ompfuzz::JsonWriter json;
    json.begin_object();
    json.key("workload").value(args.run.workload->name);
    json.key("seed").value(static_cast<std::uint64_t>(args.run.seed));
    json.key("trace").value(args.trace);
    json.key("fixed_calls").value(!args.run.call_seeds.empty());
    json.key("programs_per_call").value(args.run.programs);
    json.key("threads").value(
        static_cast<std::uint64_t>(campaign_threads(*args.run.workload)));
    json.key("attempted").value(checks.attempted);
    json.key("failed").value(checks.failed);
    json.key("checked").value(checks.checked);
    json.key("unchecked").value(checks.unchecked);
    json.key("problems").begin_array();
    for (const auto& p : checks.problems) json.value(p);
    json.end_array();
    json.key("interp_mismatch").value(checks.interp_mismatch);
    json.key("notes").begin_array();
    for (const auto& n : checks.notes) json.value(n);
    json.end_array();
    json.key("calls").begin_array();
    for (const auto& call : calls) write_call(json, call);
    json.end_array();
    json.key("layers").begin_object();
    for (const auto& m : layers) {
      json.key(m.name).begin_object();
      json.key("value").value(m.value);
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::printf("CAMPAIGN_BENCH %s\n", json.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
