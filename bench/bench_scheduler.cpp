// Work-stealing speedup of the multi-backend shard scheduler on skewed-cost
// workloads.
//
// Program skew models a hang-heavy campaign: one program costs 50x the
// others (a child parked in a hang timeout), and every program of the
// campaign sits in one scheduler batch (batching amortizes dispatch overhead
// when num_programs >> threads — and is exactly the setting where a static
// split strands a batch behind its most expensive program). With stealing
// off, the worker that claims the batch executes all of it serially; with
// stealing on, the idle workers drain the light programs while the owner
// sits in the heavy one, so wall-clock collapses towards the cost of the
// heavy program alone.
//
// Input skew models the paper's campaigns, where one program's inputs are
// all expensive: 3 inputs per program, every input of one program 50x the
// rest, one batch per program. The scheduler's unit is one (program, input):
// once the light programs are done, idle workers take the straggler's
// remaining inputs. The same work cut into whole-program units (one input
// costing as much as three) is the baseline it must beat: there the
// straggler's three inputs run back to back on one worker.
//
// Three properties are verified and recorded in BENCH_scheduler.json:
//   * >= 2x wall-clock improvement with stealing on vs off under program
//     skew (the gate);
//   * >= 1.5x wall-clock improvement of input units over whole-program units
//     under input skew;
//   * the merged CampaignResult is bit-identical across steal schedules and
//     backend splits — scheduling must never touch results.
//
//   $ ./bench_scheduler [num_programs] [light_ms]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/report.hpp"
#include "harness/sim_executor.hpp"
#include "runtime/impl_profile.hpp"
#include "support/json_writer.hpp"

namespace {

using namespace ompfuzz;

/// Deterministic sleeping executor: program "test_0" costs `heavy_ms` per
/// run, every other program `light_ms`. Results are a pure function of
/// (program, input, impl) — fixed self-reported time, output derived from
/// the test seed — so campaigns over it are bit-identical however units are
/// scheduled.
class SleepExecutor final : public harness::Executor {
 public:
  SleepExecutor(std::string impl, int heavy_ms, int light_ms)
      : impl_(std::move(impl)), heavy_ms_(heavy_ms), light_ms_(light_ms) {}

  [[nodiscard]] core::RunResult run(const harness::TestCase& test,
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
    return {impl_};
  }
  [[nodiscard]] bool thread_safe() const noexcept override { return true; }

 private:
  std::string impl_;
  int heavy_ms_;
  int light_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  const int num_programs = argc > 1 ? std::atoi(argv[1]) : 96;
  const int light_ms = argc > 2 ? std::atoi(argv[2]) : 4;
  const int heavy_ms = 50 * light_ms;

  CampaignConfig cfg;
  cfg.num_programs = num_programs;
  cfg.inputs_per_program = 1;
  cfg.generator.max_loop_trip_count = 20;
  cfg.min_time_us = 0;
  cfg.seed = 0xBEEF;
  cfg.threads = 4;

  std::printf("shard scheduler on a skewed-cost workload\n");
  std::printf("  %d programs, one 50x shard (%d ms vs %d ms), "
              "4 workers, batch_size = %d (one batch)\n\n",
              num_programs, heavy_ms, light_ms, num_programs);
  std::printf("  %-8s %10s %9s %14s\n", "steal", "wall_ms", "speedup",
              "stolen_units");

  struct Row {
    bool steal = false;
    double wall_ms = 0.0;
    std::uint64_t stolen = 0;
  };
  std::vector<Row> rows;
  std::vector<std::string> reports;

  for (const bool steal : {false, true}) {
    SleepExecutor exec("stub", heavy_ms, light_ms);
    SchedulerConfig sched;
    sched.batch_size = num_programs;
    sched.steal = steal;
    harness::Campaign campaign(cfg, {{&exec, "sleepy"}}, sched);

    const auto start = std::chrono::steady_clock::now();
    const harness::CampaignResult result = campaign.run();
    const double wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    reports.push_back(harness::to_json(result));

    Row row;
    row.steal = steal;
    row.wall_ms = wall_ms;
    row.stolen = campaign.scheduler_stats().stolen_units;
    rows.push_back(row);
    std::printf("  %-8s %10.1f %8.2fx %14llu\n", steal ? "on" : "off",
                row.wall_ms, rows.front().wall_ms / row.wall_ms,
                static_cast<unsigned long long>(row.stolen));
  }

  // Input skew: the same total work cut into input units and into
  // whole-program units (one input costing as much as three).
  constexpr int kInputs = 3;
  const int skew_programs = std::max(2, num_programs / 4);
  CampaignConfig skew_cfg = cfg;
  skew_cfg.num_programs = skew_programs;
  struct SkewRow {
    bool whole_program;
    bool steal;
    double wall_ms = 0.0;
    std::uint64_t stolen = 0;
  };
  std::vector<SkewRow> skew_rows = {{true, true}, {false, false}, {false, true}};
  const auto unit_name = [](const SkewRow& row) {
    return row.whole_program ? "program" : "input";
  };
  std::vector<std::string> skew_reports;
  std::printf("\n  input skew: %d programs x %d inputs, every input of one "
              "program 50x (%d ms vs %d ms), 4 workers, batch_size = 1\n\n",
              skew_programs, kInputs, heavy_ms, light_ms);
  std::printf("  %-8s %-8s %10s %14s\n", "unit", "steal", "wall_ms", "stolen_units");
  for (SkewRow& row : skew_rows) {
    const int scale = row.whole_program ? kInputs : 1;
    SleepExecutor exec("stub", heavy_ms * scale, light_ms * scale);
    CampaignConfig run_cfg = skew_cfg;
    run_cfg.inputs_per_program = row.whole_program ? 1 : kInputs;
    SchedulerConfig sched;
    sched.steal = row.steal;
    harness::Campaign campaign(run_cfg, {{&exec, "sleepy"}}, sched);
    const auto start = std::chrono::steady_clock::now();
    const harness::CampaignResult result = campaign.run();
    row.wall_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    row.stolen = campaign.scheduler_stats().stolen_units;
    if (!row.whole_program) skew_reports.push_back(harness::to_json(result));
    std::printf("  %-8s %-8s %10.1f %14llu\n", unit_name(row), row.steal ? "on" : "off",
                row.wall_ms, static_cast<unsigned long long>(row.stolen));
  }
  const double input_speedup = skew_rows[0].wall_ms / skew_rows[2].wall_ms;

  // A two-backend split of the same workload must merge to the same report
  // (modulo the impl column this stub campaign has only one of — so give
  // each backend its own stub impl and compare the split against itself
  // with different batch sizes and steal schedules).
  bool split_identical = true;
  {
    std::string expected;
    for (const auto& [batch, steal] :
         {std::pair<int, bool>{1, false}, {num_programs, true}, {4, true}}) {
      SleepExecutor a("stub_a", heavy_ms, light_ms);
      SleepExecutor b("stub_b", 0, 0);
      SchedulerConfig sched;
      sched.batch_size = batch;
      sched.steal = steal;
      harness::Campaign campaign(cfg, {{&a, "skewed"}, {&b, "flat"}}, sched);
      const std::string json = harness::to_json(campaign.run());
      if (expected.empty()) {
        expected = json;
      } else if (json != expected) {
        split_identical = false;
      }
    }
  }

  const bool identical = reports[0] == reports[1] && split_identical &&
                         skew_reports[0] == skew_reports[1];
  const double speedup = rows[0].wall_ms / rows[1].wall_ms;
  std::printf("\n  steal-on speedup: %.2fx (gate: >= 2x)\n", speedup);
  std::printf("  input units vs whole-program units: %.2fx (gate: >= 1.5x)\n",
              input_speedup);
  std::printf("  results bit-identical across steal/batch/split: %s\n",
              identical ? "yes" : "NO — scheduling changed results!");

  JsonWriter json;
  json.begin_object();
  json.key("workload").begin_object();
  json.key("num_programs").value(num_programs);
  json.key("inputs_per_program").value(1);
  json.key("light_ms").value(light_ms);
  json.key("heavy_ms").value(heavy_ms);
  json.key("campaign_threads").value(4);
  json.key("batch_size").value(num_programs);
  json.end_object();
  json.key("results_identical").value(identical);
  json.key("curve").begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.key("steal").value(row.steal);
    json.key("wall_ms").value(row.wall_ms);
    json.key("stolen_units").value(static_cast<std::int64_t>(row.stolen));
    json.key("speedup_vs_no_steal").value(rows.front().wall_ms / row.wall_ms);
    json.end_object();
  }
  json.end_array();
  json.key("input_skew").begin_object();
  json.key("num_programs").value(skew_programs);
  json.key("inputs_per_program").value(kInputs);
  json.key("light_ms").value(light_ms);
  json.key("heavy_ms").value(heavy_ms);
  json.key("campaign_threads").value(4);
  json.key("batch_size").value(1);
  json.key("rows").begin_array();
  for (const auto& row : skew_rows) {
    json.begin_object();
    json.key("unit").value(unit_name(row));
    json.key("steal").value(row.steal);
    json.key("wall_ms").value(row.wall_ms);
    json.key("stolen_units").value(static_cast<std::int64_t>(row.stolen));
    json.end_object();
  }
  json.end_array();
  json.key("speedup_input_vs_program_units").value(input_speedup);
  json.end_object();
  json.end_object();
  {
    std::ofstream out("BENCH_scheduler.json");
    out << json.str() << "\n";
  }
  std::printf("  wrote BENCH_scheduler.json\n");

  const bool fast_enough = speedup >= 2.0;
  if (!fast_enough) {
    std::printf("\n  WARNING: steal speedup %.2fx below the 2x gate\n", speedup);
  }
  const bool stole = rows[1].stolen > 0 && skew_rows[2].stolen > 0;
  if (!stole) std::printf("\n  WARNING: stealing moved no units\n");
  const bool inputs_win = input_speedup >= 1.5;
  if (!inputs_win) {
    std::printf("\n  WARNING: input units %.2fx over whole-program units, "
                "below the 1.5x gate\n", input_speedup);
  }
  return identical && fast_enough && stole && inputs_win ? 0 : 1;
}
