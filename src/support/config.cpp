#include "support/config.hpp"

#include <charconv>
#include <concepts>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>

#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

namespace {

/// The one wording of a bound violation, whether parsing or validate() finds it.
std::string out_of_range(const std::string& key, const auto& lo, const auto& hi,
                         const auto& value) {
  std::ostringstream out;
  out << "value of '" << key << "' is out of range [" << lo << ", " << hi
      << "]: " << value;
  return out.str();
}

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// One schema per section: fields(config, v) calls v(key, member) for each
// boolean or string key and v(key, member, lo, hi) for each number, with its
// closed bound. The same rows read a section (Reader), bound-check it
// (BoundCheck) and list the keys a file may use (reject_unknown_keys); what a
// bound cannot say stays in the validate() bodies.
template <class S, class C>
concept SchemaOf = std::same_as<std::remove_cvref_t<S>, C>;

void fields(SchemaOf<GeneratorConfig> auto&& g, auto&& v) {
  v("generator.max_expression_size", g.max_expression_size, 1, kIntMax);
  v("generator.max_nesting_levels", g.max_nesting_levels, 1, kIntMax);
  v("generator.max_lines_in_block", g.max_lines_in_block, 1, kIntMax);
  v("generator.array_size", g.array_size, 1, kIntMax);
  v("generator.max_same_level_blocks", g.max_same_level_blocks, 1, kIntMax);
  v("generator.math_func_allowed", g.math_func_allowed);
  v("generator.math_func_probability", g.math_func_probability, 0.0, 1.0);
  v("generator.num_threads", g.num_threads, 1, kIntMax);
  v("generator.max_loop_trip_count", g.max_loop_trip_count, 1, kIntMax);
  v("generator.p_if_block", g.p_if_block, 0.0, 1.0);
  v("generator.p_for_block", g.p_for_block, 0.0, 1.0);
  v("generator.p_openmp_block", g.p_openmp_block, 0.0, 1.0);
  v("generator.p_reduction", g.p_reduction, 0.0, 1.0);
  v("generator.p_critical", g.p_critical, 0.0, 1.0);
  v("generator.p_parallel_in_loop", g.p_parallel_in_loop, 0.0, 1.0);
  v("generator.enable_atomic", g.enable_atomic);
  v("generator.enable_single", g.enable_single);
  v("generator.enable_master", g.enable_master);
  v("generator.enable_schedule", g.enable_schedule);
  v("generator.enable_rangeidx", g.enable_rangeidx);
  v("generator.p_atomic", g.p_atomic, 0.0, 1.0);
  v("generator.p_single", g.p_single, 0.0, 1.0);
  v("generator.p_master", g.p_master, 0.0, 1.0);
  v("generator.p_schedule", g.p_schedule, 0.0, 1.0);
  v("generator.p_rangeidx", g.p_rangeidx, 0.0, 1.0);
}

void fields(SchemaOf<ExecutorConfig> auto&& e, auto&& v) {
  v("executor.work_dir", e.work_dir);
  v("executor.run_timeout_ms", e.run_timeout_ms, 1, kInt64Max);
  v("executor.compile_timeout_ms", e.compile_timeout_ms, 1, kInt64Max);
  v("executor.concurrent_runs", e.concurrent_runs);
  v("executor.max_inflight", e.max_inflight, 0, kIntMax);  // 0 = 2x cores
}

void fields(SchemaOf<SchedulerConfig> auto&& s, auto&& v) {
  v("scheduler.backends", s.backends, 1, kIntMax);
  v("scheduler.batch_size", s.batch_size, 1, kIntMax);
  v("scheduler.steal", s.steal);
}

void fields(SchemaOf<RetryConfig> auto&& r, auto&& v) {
  v("retry.max_attempts", r.max_attempts, 1, kIntMax);  // 1 = no retries
  v("retry.base_ms", r.base_ms, 0, kInt64Max);
  v("retry.cap_ms", r.cap_ms, 0, kInt64Max);
  v("retry.backend_death_threshold", r.backend_death_threshold, 1, kIntMax);
}

void fields(SchemaOf<StoreConfig> auto&& s, auto&& v) {
  v("store.enabled", s.enabled);
  v("store.dir", s.dir);
  v("store.max_bytes", s.max_bytes, 0, kInt64Max);
}

void fields(SchemaOf<FaultConfig> auto&& f, auto&& v) {
  v("faults.enabled", f.enabled);
  v("faults.rate", f.rate, 0.0, 1.0);
  v("faults.seed", f.seed, 0, kInt64Max);
  v("faults.sites", f.sites);
}

void fields(SchemaOf<TelemetryConfig> auto&& t, auto&& v) {
  v("telemetry.trace_file", t.trace_file);
  v("telemetry.metrics_file", t.metrics_file);
  v("telemetry.interval_ms", t.interval_ms, 1, kInt64Max);
  v("telemetry.heartbeat", t.heartbeat);
}

/// The [generator] and [retry] sections are CampaignConfig members with
/// schemas of their own.
void fields(SchemaOf<CampaignConfig> auto&& c, auto&& v) {
  v("campaign.num_programs", c.num_programs, 1, kIntMax);
  v("campaign.inputs_per_program", c.inputs_per_program, 1, kIntMax);
  v("campaign.seed", c.seed, 0, kInt64Max);
  v("campaign.alpha", c.alpha);  // > 0, checked by validate()
  v("campaign.beta", c.beta);    // > 1, checked by validate()
  v("campaign.min_time_us", c.min_time_us, 0, kInt64Max);
  v("campaign.threads", c.threads, 0, kIntMax);  // 0 = hardware concurrency
}

/// Reads each row's key through the checked getters. An integer is
/// bound-checked as it is read, so it cannot wrap when narrowed to its member.
struct Reader {
  const ConfigFile& file;
  void operator()(const std::string& key, bool& m) const { m = file.get_bool(key, m); }
  void operator()(const std::string& key, std::string& m) const { m = file.get_or(key, m); }
  void operator()(const std::string& key, double& m, auto...) const {
    m = file.get_double(key, m);
  }
  template <std::integral T>
  void operator()(const std::string& key, T& m, std::int64_t lo, std::int64_t hi) const {
    m = static_cast<T>(file.get_int(key, static_cast<std::int64_t>(m), lo, hi));
  }
};

/// Throws ConfigError for a member outside its row's bound (NaN included).
struct BoundCheck {
  void operator()(const std::string& /*key*/, const auto& /*m*/) const {}
  template <class T>
  void operator()(const std::string& key, const T& m, auto lo, auto hi) const {
    if (!(m >= static_cast<T>(lo) && m <= static_cast<T>(hi))) {
      throw ConfigError(out_of_range(key, lo, hi, m));
    }
  }
};

/// Reads one section's rows from `file` and validates the result.
template <class C>
C read_section(const ConfigFile& file) {
  C config;
  fields(config, Reader{file});
  config.validate();
  return config;
}

/// Rejects the first section or key in the file that no schema names, naming
/// its line. [implementations] is free-form: its keys are implementation names.
void reject_unknown_keys(const ConfigFile& file) {
  std::set<std::string> known{"[implementations]", "generator.features"};
  const auto add = [&known](const std::string& key, auto&&...) {
    known.insert(key);
    known.insert('[' + key.substr(0, key.find('.')).append("]"));
  };
  fields(GeneratorConfig{}, add);
  fields(ExecutorConfig{}, add);
  fields(SchedulerConfig{}, add);
  fields(RetryConfig{}, add);
  fields(StoreConfig{}, add);
  fields(FaultConfig{}, add);
  fields(TelemetryConfig{}, add);
  fields(CampaignConfig{}, add);
  std::map<int, std::string> unknown;  // line -> name
  for (const auto& [name, line] : file.lines()) {
    if (!known.contains(name) && !starts_with(name, "implementations.")) {
      unknown.emplace(line, name);
    }
  }
  if (unknown.empty()) return;
  const auto& [line, name] = *unknown.begin();
  throw ConfigError((name.front() == '[' ? "unknown section " + name
                                         : "unknown key '" + name + "'") +
                    " at line " + std::to_string(line));
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
    // A trailing comment starts at the first ';' or '#'.
    const std::string_view line =
        trim(std::string_view(raw).substr(0, raw.find_first_of(";#")));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("malformed section header at line " + std::to_string(line_no));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      cfg.lines_.try_emplace("[" + section + "]", line_no);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("expected 'key = value' at line " + std::to_string(line_no));
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) throw ConfigError("empty key at line " + std::to_string(line_no));
    const std::string name = section.empty() ? key : section + "." + key;
    const auto [it, fresh] = cfg.lines_.try_emplace(name, line_no);
    if (!fresh) {
      throw ConfigError("duplicate key '" + name + "' at line " + std::to_string(line_no) +
                        " (first at line " + std::to_string(it->second) + ")");
    }
    cfg.entries_[name] = value;
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

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string ConfigFile::get_or(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t ConfigFile::get_int(const std::string& key, std::int64_t fallback,
                                 std::int64_t min_value,
                                 std::int64_t max_value) const {
  std::int64_t out = fallback;
  if (const auto v = get(key)) {
    const auto [ptr, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
    if (ec == std::errc::result_out_of_range) {
      throw ConfigError("value of '" + key + "' is out of range: " + *v);
    }
    if (ec != std::errc() || ptr != v->data() + v->size()) {
      throw ConfigError("value of '" + key + "' is not an integer: " + *v);
    }
  }
  if (out < min_value || out > max_value) {
    throw ConfigError(out_of_range(key, min_value, max_value, out));
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

GeneratorConfig GeneratorConfig::from_config(const ConfigFile& file) {
  GeneratorConfig g;
  fields(g, Reader{file});
  if (const auto csv = file.get("generator.features")) g.enable_features(*csv);
  g.validate();
  return g;
}

void GeneratorConfig::enable_features(const std::string& csv) {
  for (const auto& token : split(csv, ',')) {
    const std::string_view name = trim(token);
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
    } else if (!name.empty()) {
      throw ConfigError("unknown generator feature: '" + std::string(name) +
                        "' (expected atomic, single, master, schedule, or "
                        "rangeidx)");
    }
  }
}

void GeneratorConfig::validate() const { fields(*this, BoundCheck{}); }

ExecutorConfig ExecutorConfig::from_config(const ConfigFile& file) {
  return read_section<ExecutorConfig>(file);
}

void ExecutorConfig::validate() const {
  fields(*this, BoundCheck{});
  if (work_dir.empty()) throw ConfigError("executor.work_dir must not be empty");
}

SchedulerConfig SchedulerConfig::from_config(const ConfigFile& file) {
  return read_section<SchedulerConfig>(file);
}

void SchedulerConfig::validate() const { fields(*this, BoundCheck{}); }

RetryConfig RetryConfig::from_config(const ConfigFile& file) {
  return read_section<RetryConfig>(file);
}

void RetryConfig::validate() const { fields(*this, BoundCheck{}); }

StoreConfig StoreConfig::from_config(const ConfigFile& file) {
  return read_section<StoreConfig>(file);
}

void StoreConfig::validate() const {
  fields(*this, BoundCheck{});
  if (dir.empty()) throw ConfigError("store.dir must not be empty");
}

FaultConfig FaultConfig::from_config(const ConfigFile& file) {
  return read_section<FaultConfig>(file);
}

void FaultConfig::validate() const {
  fields(*this, BoundCheck{});
  for (const auto& token : split(sites, ',')) {
    const auto name = trim(token);
    if (!name.empty() && !fault_site_by_name(name)) {
      throw ConfigError("faults.sites names unknown site '" + std::string(name) + "'");
    }
  }
}

TelemetryConfig TelemetryConfig::from_config(const ConfigFile& file) {
  return read_section<TelemetryConfig>(file);
}

void TelemetryConfig::validate() const { fields(*this, BoundCheck{}); }

CampaignConfig CampaignConfig::from_config(const ConfigFile& file) {
  reject_unknown_keys(file);
  CampaignConfig c;
  c.generator = GeneratorConfig::from_config(file);
  c.retry = RetryConfig::from_config(file);
  fields(c, Reader{file});

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
  fields(*this, BoundCheck{});
  if (!(alpha > 0.0)) throw ConfigError("campaign.alpha must be > 0");
  if (!(beta > 1.0)) throw ConfigError("campaign.beta must be > 1");
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
