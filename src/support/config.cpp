#include "support/config.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "support/error.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

namespace {

/// Strips an unquoted trailing comment beginning with ';' or '#'.
std::string_view strip_comment(std::string_view line) noexcept {
  const std::size_t pos = line.find_first_of(";#");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile cfg;
  std::string section;
  int line_no = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("malformed section header at line " + std::to_string(line_no));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("expected 'key = value' at line " + std::to_string(line_no));
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw ConfigError("empty key at line " + std::to_string(line_no));
    }
    cfg.set(section.empty() ? key : section + "." + key, value);
  }
  return cfg;
}

ConfigFile ConfigFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool ConfigFile::has(const std::string& key) const {
  return entries_.contains(key);
}

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string ConfigFile::get_or(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t ConfigFile::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec == std::errc::result_out_of_range) {
    throw ConfigError("value of '" + key + "' is out of range: " + *v);
  }
  if (ec != std::errc() || ptr != v->data() + v->size()) {
    throw ConfigError("value of '" + key + "' is not an integer: " + *v);
  }
  return out;
}

std::int64_t ConfigFile::get_int(const std::string& key, std::int64_t fallback,
                                 std::int64_t min_value,
                                 std::int64_t max_value) const {
  const std::int64_t out = get_int(key, fallback);
  if (out < min_value || out > max_value) {
    throw ConfigError("value of '" + key + "' is out of range [" +
                      std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]: " + std::to_string(out));
  }
  return out;
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t consumed = 0;
    const double out = std::stod(*v, &consumed);
    // Reject trailing garbage ("1.5x"): truncating at the first bad
    // character would silently misread the config.
    if (consumed != v->size()) throw std::invalid_argument(*v);
    return out;
  } catch (const std::out_of_range&) {
    throw ConfigError("value of '" + key + "' is out of range: " + *v);
  } catch (const std::exception&) {
    throw ConfigError("value of '" + key + "' is not a number: " + *v);
  }
}

bool ConfigFile::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") return false;
  throw ConfigError("value of '" + key + "' is not a boolean: " + *v);
}

void ConfigFile::set(const std::string& key, const std::string& value) {
  entries_[key] = value;
}

namespace {

/// Reads an int-typed key with the narrowing range enforced at parse time:
/// a value that fits int64 but not int is a config error, not a silent wrap.
int get_config_int(const ConfigFile& file, const std::string& key, int fallback) {
  return static_cast<int>(
      file.get_int(key, fallback, std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
}

}  // namespace

GeneratorConfig GeneratorConfig::from_config(const ConfigFile& file) {
  GeneratorConfig g;
  const auto geti = [&](const char* k, int d) {
    return get_config_int(file, std::string("generator.") + k, d);
  };
  const auto getd = [&](const char* k, double d) {
    return file.get_double(std::string("generator.") + k, d);
  };
  g.max_expression_size = geti("max_expression_size", g.max_expression_size);
  g.max_nesting_levels = geti("max_nesting_levels", g.max_nesting_levels);
  g.max_lines_in_block = geti("max_lines_in_block", g.max_lines_in_block);
  g.array_size = geti("array_size", g.array_size);
  g.max_same_level_blocks = geti("max_same_level_blocks", g.max_same_level_blocks);
  g.math_func_allowed = file.get_bool("generator.math_func_allowed", g.math_func_allowed);
  g.math_func_probability = getd("math_func_probability", g.math_func_probability);
  g.num_threads = geti("num_threads", g.num_threads);
  g.max_loop_trip_count = geti("max_loop_trip_count", g.max_loop_trip_count);
  g.p_if_block = getd("p_if_block", g.p_if_block);
  g.p_for_block = getd("p_for_block", g.p_for_block);
  g.p_openmp_block = getd("p_openmp_block", g.p_openmp_block);
  g.p_reduction = getd("p_reduction", g.p_reduction);
  g.p_critical = getd("p_critical", g.p_critical);
  g.p_parallel_in_loop = getd("p_parallel_in_loop", g.p_parallel_in_loop);
  g.enable_atomic = file.get_bool("generator.enable_atomic", g.enable_atomic);
  g.enable_single = file.get_bool("generator.enable_single", g.enable_single);
  g.enable_master = file.get_bool("generator.enable_master", g.enable_master);
  g.enable_schedule =
      file.get_bool("generator.enable_schedule", g.enable_schedule);
  g.enable_rangeidx =
      file.get_bool("generator.enable_rangeidx", g.enable_rangeidx);
  if (const auto csv = file.get("generator.features")) g.enable_features(*csv);
  g.p_atomic = getd("p_atomic", g.p_atomic);
  g.p_single = getd("p_single", g.p_single);
  g.p_master = getd("p_master", g.p_master);
  g.p_schedule = getd("p_schedule", g.p_schedule);
  g.p_rangeidx = getd("p_rangeidx", g.p_rangeidx);
  g.validate();
  return g;
}

void GeneratorConfig::enable_features(const std::string& csv) {
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    std::string name = csv.substr(pos, end - pos);
    // Trim surrounding whitespace so "atomic, single" parses.
    while (!name.empty() && std::isspace(static_cast<unsigned char>(name.front()))) {
      name.erase(name.begin());
    }
    while (!name.empty() && std::isspace(static_cast<unsigned char>(name.back()))) {
      name.pop_back();
    }
    if (!name.empty()) {
      if (name == "atomic") {
        enable_atomic = true;
      } else if (name == "single") {
        enable_single = true;
      } else if (name == "master") {
        enable_master = true;
      } else if (name == "schedule") {
        enable_schedule = true;
      } else if (name == "rangeidx") {
        enable_rangeidx = true;
      } else {
        throw ConfigError("unknown generator feature: '" + name +
                          "' (expected atomic, single, master, schedule, or "
                          "rangeidx)");
      }
    }
    pos = end + 1;
  }
}

void GeneratorConfig::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw ConfigError(what);
  };
  require(max_expression_size >= 1, "max_expression_size must be >= 1");
  require(max_nesting_levels >= 1, "max_nesting_levels must be >= 1");
  require(max_lines_in_block >= 1, "max_lines_in_block must be >= 1");
  require(array_size >= 1, "array_size must be >= 1");
  require(max_same_level_blocks >= 1, "max_same_level_blocks must be >= 1");
  require(num_threads >= 1, "num_threads must be >= 1");
  require(max_loop_trip_count >= 1, "max_loop_trip_count must be >= 1");
  require(math_func_probability >= 0.0 && math_func_probability <= 1.0,
          "math_func_probability must be in [0,1]");
  for (double p : {p_if_block, p_for_block, p_openmp_block, p_reduction,
                   p_critical, p_parallel_in_loop}) {
    require(p >= 0.0 && p <= 1.0, "block probabilities must be in [0,1]");
  }
  for (double p : {p_atomic, p_single, p_master, p_schedule, p_rangeidx}) {
    require(p >= 0.0 && p <= 1.0, "feature probabilities must be in [0,1]");
  }
}

ExecutorConfig ExecutorConfig::from_config(const ConfigFile& file) {
  ExecutorConfig e;
  e.work_dir = file.get_or("executor.work_dir", e.work_dir);
  e.run_timeout_ms = file.get_int("executor.run_timeout_ms", e.run_timeout_ms);
  e.compile_timeout_ms =
      file.get_int("executor.compile_timeout_ms", e.compile_timeout_ms);
  e.concurrent_runs =
      file.get_bool("executor.concurrent_runs", e.concurrent_runs);
  e.max_inflight = get_config_int(file, "executor.max_inflight", e.max_inflight);
  e.validate();
  return e;
}

void ExecutorConfig::validate() const {
  if (work_dir.empty()) throw ConfigError("executor.work_dir must not be empty");
  if (run_timeout_ms <= 0) throw ConfigError("executor.run_timeout_ms must be > 0");
  if (compile_timeout_ms <= 0) {
    throw ConfigError("executor.compile_timeout_ms must be > 0");
  }
  if (max_inflight < 0) {
    throw ConfigError(
        "executor.max_inflight must be >= 0 (0 = 2x hardware concurrency)");
  }
}

SchedulerConfig SchedulerConfig::from_config(const ConfigFile& file) {
  SchedulerConfig s;
  s.backends = get_config_int(file, "scheduler.backends", s.backends);
  s.batch_size = get_config_int(file, "scheduler.batch_size", s.batch_size);
  s.steal = file.get_bool("scheduler.steal", s.steal);
  s.validate();
  return s;
}

void SchedulerConfig::validate() const {
  if (backends < 1) throw ConfigError("scheduler.backends must be >= 1");
  if (batch_size < 1) throw ConfigError("scheduler.batch_size must be >= 1");
}

RetryConfig RetryConfig::from_config(const ConfigFile& file) {
  RetryConfig r;
  r.max_attempts = get_config_int(file, "retry.max_attempts", r.max_attempts);
  r.base_ms = file.get_int("retry.base_ms", r.base_ms);
  r.cap_ms = file.get_int("retry.cap_ms", r.cap_ms);
  r.backend_death_threshold = get_config_int(
      file, "retry.backend_death_threshold", r.backend_death_threshold);
  r.validate();
  return r;
}

void RetryConfig::validate() const {
  if (max_attempts < 1) {
    throw ConfigError("retry.max_attempts must be >= 1 (1 = no retries)");
  }
  if (base_ms < 0) throw ConfigError("retry.base_ms must be >= 0");
  if (cap_ms < 0) throw ConfigError("retry.cap_ms must be >= 0");
  if (backend_death_threshold < 1) {
    throw ConfigError("retry.backend_death_threshold must be >= 1");
  }
}

StoreConfig StoreConfig::from_config(const ConfigFile& file) {
  StoreConfig s;
  s.enabled = file.get_bool("store.enabled", s.enabled);
  s.dir = file.get_or("store.dir", s.dir);
  s.max_bytes = file.get_int("store.max_bytes", s.max_bytes, 0,
                             std::numeric_limits<std::int64_t>::max());
  s.validate();
  return s;
}

void StoreConfig::validate() const {
  if (dir.empty()) throw ConfigError("store.dir must not be empty");
  if (max_bytes < 0) throw ConfigError("store.max_bytes must be >= 0");
}

TelemetryConfig TelemetryConfig::from_config(const ConfigFile& file) {
  TelemetryConfig t;
  t.trace_file = file.get_or("telemetry.trace_file", t.trace_file);
  t.metrics_file = file.get_or("telemetry.metrics_file", t.metrics_file);
  t.interval_ms = file.get_int("telemetry.interval_ms", t.interval_ms);
  t.heartbeat = file.get_bool("telemetry.heartbeat", t.heartbeat);
  t.validate();
  return t;
}

void TelemetryConfig::validate() const {
  if (interval_ms <= 0) {
    throw ConfigError("telemetry.interval_ms must be > 0");
  }
}

CampaignConfig CampaignConfig::from_config(const ConfigFile& file) {
  CampaignConfig c;
  c.generator = GeneratorConfig::from_config(file);
  c.retry = RetryConfig::from_config(file);
  c.num_programs = get_config_int(file, "campaign.num_programs", c.num_programs);
  c.inputs_per_program =
      get_config_int(file, "campaign.inputs_per_program", c.inputs_per_program);
  c.seed = static_cast<std::uint64_t>(file.get_int("campaign.seed",
                                                   static_cast<std::int64_t>(c.seed)));
  c.alpha = file.get_double("campaign.alpha", c.alpha);
  c.beta = file.get_double("campaign.beta", c.beta);
  c.min_time_us = file.get_int("campaign.min_time_us", c.min_time_us);
  c.threads = get_config_int(file, "campaign.threads", c.threads);

  // Implementations are listed as "implementations.NAME = profile_or_command".
  // A value starting with "profile:" selects a simulated runtime profile;
  // anything else is treated as a compile command template.
  for (const auto& [key, value] : file.entries()) {
    constexpr std::string_view prefix = "implementations.";
    if (!starts_with(key, prefix)) continue;
    ImplementationSpec spec;
    spec.name = key.substr(prefix.size());
    if (starts_with(value, "profile:")) {
      spec.profile = std::string(trim(std::string_view(value).substr(8)));
    } else {
      spec.compile_command = value;
    }
    c.implementations.push_back(std::move(spec));
  }
  c.validate();
  return c;
}

void CampaignConfig::validate() const {
  generator.validate();
  retry.validate();
  if (num_programs < 1) throw ConfigError("num_programs must be >= 1");
  if (inputs_per_program < 1) throw ConfigError("inputs_per_program must be >= 1");
  if (alpha <= 0.0) throw ConfigError("alpha must be > 0");
  if (beta <= 1.0) throw ConfigError("beta must be > 1");
  if (min_time_us < 0) throw ConfigError("min_time_us must be >= 0");
  if (threads < 0) throw ConfigError("threads must be >= 0 (0 = hardware concurrency)");
}

std::int64_t parse_int_arg(const std::string& name, const std::string& text,
                           std::int64_t min_value, std::int64_t max_value) {
  ConfigFile args;
  args.set(name, text);
  return args.get_int(name, 0, min_value, max_value);
}

double parse_double_arg(const std::string& name, const std::string& text) {
  ConfigFile args;
  args.set(name, text);
  return args.get_double(name, 0.0);
}

std::size_t hardware_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_thread_count(int requested) noexcept {
  return requested > 0 ? static_cast<std::size_t>(requested)
                       : hardware_thread_count();
}

}  // namespace ompfuzz
