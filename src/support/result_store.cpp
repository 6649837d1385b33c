#include "support/result_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "support/error.hpp"
#include "support/fault_injection.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace ompfuzz {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out, 16);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Writes `content` to `path` atomically: temp file in the same directory,
/// fsync, rename, directory fsync. Crash at any point leaves either the old
/// record or the new one, never a torn file.
void write_file_atomic(const std::string& path, const std::string& content) {
  // pid distinguishes processes sharing a store; the counter distinguishes
  // threads of this process (callers do not hold a common lock).
  static std::atomic<unsigned long> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error("result store: cannot create " + tmp);
  if (inject_fault(FaultSite::StoreWrite)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("result store: injected write failure for " + tmp);
  }
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw Error("result store: write failed for " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (inject_fault(FaultSite::StoreFsync)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("result store: injected fsync failure for " + tmp);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw Error("result store: fsync failed for " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("result store: rename failed for " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error("result store: cannot create directory " + path);
  }
}

/// Sequential line reader over an in-memory payload.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Next line without its trailing '\n'; false at end of input.
  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    return true;
  }

  /// Next line, which must start with `prefix` (a tag plus one space);
  /// returns the remainder or nullopt.
  std::optional<std::string_view> tagged(std::string_view prefix) {
    std::string_view line;
    if (!next(line)) return std::nullopt;
    if (!line.starts_with(prefix)) return std::nullopt;
    return line.substr(prefix.size());
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Frames `payload` as `REC <payload-bytes> <fnv1a64-of-payload>\n` plus the
/// payload. Journal records and store record files share the framing, so a
/// torn or corrupted record fails its checksum instead of parsing.
std::string frame_record(const std::string& payload) {
  return "REC " + std::to_string(payload.size()) + " " + hex64(fnv1a64(payload)) +
         "\n" + payload;
}

/// Reads the next framed record starting at `pos`. Returns false when the
/// remaining bytes are not one complete, checksum-valid record (end of file
/// or the torn tail of a crashed append); `pos` is left at the record start.
bool read_record(std::string_view file, std::size_t& pos, std::string_view& payload) {
  const std::size_t start = pos;
  const std::size_t nl = file.find('\n', start);
  if (nl == std::string_view::npos) return false;
  const std::string_view header = file.substr(start, nl - start);
  if (!header.starts_with("REC ")) return false;
  const auto fields = split(header.substr(4), ' ');
  std::int64_t length = 0;
  std::uint64_t checksum = 0;
  if (fields.size() != 2 || !parse_i64(fields[0], length) || length < 0 ||
      !parse_hex64(fields[1], checksum)) {
    return false;
  }
  const std::size_t body_start = nl + 1;
  if (body_start + static_cast<std::size_t>(length) > file.size()) return false;
  payload = file.substr(body_start, static_cast<std::size_t>(length));
  if (fnv1a64(payload) != checksum) return false;
  pos = body_start + static_cast<std::size_t>(length);
  return true;
}

/// First payload line of a store record file. v2 frames the v1 payload
/// with frame_record; an unframed v1 file reads as a miss.
constexpr std::string_view kRunMagic = "ompfuzz-run v2";

std::string serialize_run(const core::RunResult& run) {
  std::string out;
  out += "impl " + run.impl + "\n";
  out += "status " + std::to_string(static_cast<int>(run.status)) + "\n";
  out += "time " + hex64(std::bit_cast<std::uint64_t>(run.time_us)) + "\n";
  out += "output " + hex64(std::bit_cast<std::uint64_t>(run.output)) + "\n";
  return out;
}

bool parse_status(std::string_view text, core::RunStatus& out) {
  std::int64_t v = 0;
  if (!parse_i64(text, v)) return false;
  if (v < 0 || v > static_cast<std::int64_t>(core::RunStatus::Skipped)) {
    return false;
  }
  out = static_cast<core::RunStatus>(v);
  return true;
}

/// Process-wide registry mirrors of the per-instance store tallies: one
/// registration shared by every ResultStore in the process, so the metrics
/// sampler sees aggregate store traffic.
struct StoreMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& puts;
  telemetry::Counter& write_failures;
};

StoreMetrics& store_metrics() {
  auto& registry = telemetry::Registry::global();
  static StoreMetrics metrics{
      registry.counter("store.hits"), registry.counter("store.misses"),
      registry.counter("store.puts"), registry.counter("store.write_failures")};
  return metrics;
}

}  // namespace

// ------------------------------------------------------------- RunKey ------

std::string RunKey::canonical() const {
  // Single line: the embedded fields contain no newlines (input_text is
  // argv-style, impl identities are command lines), and records compare the
  // whole line verbatim, so internal spaces are unambiguous.
  return "fp=" + hex64(program_fingerprint) + " input=" + input_text +
         " impl=" + impl_identity;
}

std::array<std::uint64_t, 2> RunKey::digest() const {
  const std::string text = canonical();
  const std::uint64_t lo = fnv1a64(text);
  // Second word: FNV-1a over the same bytes from a *different starting
  // state* (the salt prefix is absorbed first). A trailing salt would make
  // hi a pure function of lo — FNV is iterative — collapsing the digest to
  // 64 bits; a leading salt keeps the two passes independent.
  const std::uint64_t hi = fnv1a64("ompfuzz-run-key-hi|" + text);
  return {hi, lo};
}

std::string store_impl_identity(const std::string& impl_name,
                                const std::string& identity) {
  return identity.empty() ? std::string() : "name=" + impl_name + ";" + identity;
}

// -------------------------------------------------------- ResultStore ------

ResultStore::ResultStore(StoreConfig config) : config_(std::move(config)) {
  config_.validate();
  make_dir(config_.dir);
  make_dir(config_.dir + "/runs");
}

std::string ResultStore::object_path(const RunKey& key) const {
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  return config_.dir + "/runs/" + hex.substr(0, 2) + "/" + hex + ".run";
}

std::optional<core::RunResult> ResultStore::lookup(const RunKey& key) {
  telemetry::ScopedSpan span("store", "lookup");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(key.program_fingerprint));
  }
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  const std::string canonical = key.canonical();

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = memo_.find(hex); it != memo_.end()) {
      if (it->second.first == canonical) {
        hits_.add();
        store_metrics().hits.add();
        return it->second.second;
      }
      // Digest collision against an in-memory record.
      misses_.add();
      store_metrics().misses.add();
      return std::nullopt;
    }
  }

  // Disk I/O outside the lock: record files are immutable-once-renamed, so
  // concurrent readers (and writers of other keys) need no coordination.
  const std::string path = object_path(key);
  std::string text;
  {
    std::ifstream in(path);
    if (!in) {
      misses_.add();
      store_metrics().misses.add();
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Injected read faults degrade the record into shapes the parser must
  // reject as a miss: a short read loses trailing fields; a corrupt read
  // clobbers the frame's first byte.
  if (inject_fault(FaultSite::StoreReadShort)) text.resize(text.size() / 2);
  if (inject_fault(FaultSite::StoreReadCorrupt) && !text.empty()) {
    text[0] ^= 0x20;
  }

  // The file must be exactly one checksum-valid record: without the frame a
  // flipped hex digit in a value line would still parse, and a wrong cached
  // result is the one failure a cache must never produce.
  core::RunResult run;
  std::uint64_t time_bits = 0;
  std::uint64_t output_bits = 0;
  const bool ok = [&] {
    std::size_t end = 0;
    std::string_view payload;
    if (!read_record(text, end, payload) || end != text.size()) return false;
    LineCursor cursor(payload);
    std::string_view line;
    if (!cursor.next(line) || line != kRunMagic) return false;
    const auto rec_key = cursor.tagged("key ");
    // A mismatched embedded key is a digest collision (or a foreign file):
    // report a miss rather than a wrong cached result.
    if (!rec_key || *rec_key != canonical) return false;
    const auto impl = cursor.tagged("impl ");
    if (!impl) return false;
    run.impl = std::string(*impl);
    const auto status = cursor.tagged("status ");
    if (!status || !parse_status(*status, run.status)) return false;
    const auto time = cursor.tagged("time ");
    if (!time || !parse_hex64(*time, time_bits)) return false;
    const auto output = cursor.tagged("output ");
    if (!output || !parse_hex64(*output, output_bits)) return false;
    return true;
  }();
  if (ok) {
    // Refresh the record's timestamps so LRU eviction (gc) sees this read
    // even on noatime mounts. Best-effort: a failure only ages the record.
    (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
  }
  if (!ok) {
    misses_.add();
    store_metrics().misses.add();
    return std::nullopt;
  }
  run.time_us = std::bit_cast<double>(time_bits);
  run.output = std::bit_cast<double>(output_bits);
  const std::lock_guard<std::mutex> lock(mutex_);
  memo_[hex] = {canonical, run};
  hits_.add();
  store_metrics().hits.add();
  return run;
}

void ResultStore::put(const RunKey& key, const core::RunResult& result) {
  OMPFUZZ_CHECK(!result.harness_failure,
                "harness-failure results must not be persisted");
  telemetry::ScopedSpan span("store", "put");
  if (span.active()) {
    span.arg("fingerprint",
             telemetry::hex_fingerprint(key.program_fingerprint));
  }
  const auto d = key.digest();
  const std::string hex = hex64(d[0]) + hex64(d[1]);
  const std::string canonical = key.canonical();

  const std::string record = frame_record(std::string(kRunMagic) + "\nkey " +
                                           canonical + "\n" + serialize_run(result));

  // Disk I/O outside the lock: mkdir tolerates EEXIST, temp names are
  // unique per call, and the rename is atomic — concurrent same-key writers
  // are last-wins with identical content. Only memo_/stats_ need the mutex,
  // so campaign workers don't serialize behind each other's fsyncs.
  //
  // A failed write (ENOSPC, a dying disk, an injected fault) must NOT
  // propagate out of a campaign worker thread: the store is a cache, and a
  // cache that cannot persist merely forgets — the result is still correct
  // and still memoized in-process. Failures are counted; after a run of
  // consecutive failures (a full disk does not get better by retrying) disk
  // writes are disabled for the life of this store with one stderr warning.
  bool write_ok = false;
  if (!writes_disabled_.load(std::memory_order_relaxed)) {
    try {
      make_dir(config_.dir + "/runs/" + hex.substr(0, 2));
      write_file_atomic(object_path(key), record);
      write_ok = true;
    } catch (const Error&) {
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  memo_[hex] = {canonical, result};
  if (write_ok) {
    puts_.add();
    store_metrics().puts.add();
    consecutive_write_failures_ = 0;
  } else {
    write_failures_.add();
    store_metrics().write_failures.add();
    if (++consecutive_write_failures_ >= kWriteFailureLimit &&
        !writes_disabled_.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ompfuzz: result store disabled after %d consecutive "
                   "write failures (last: %s); campaign continues uncached\n",
                   kWriteFailureLimit, object_path(key).c_str());
    }
  }
}

ResultStore::Stats ResultStore::stats() const {
  // Lock-free: each field is a relaxed atomic, so this races nothing even
  // while workers are mid-lookup/put (the set of fields is not a snapshot
  // transaction, and no caller needs it to be).
  Stats stats;
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.puts = puts_.value();
  stats.write_failures = write_failures_.value();
  return stats;
}

namespace {

struct RecordFile {
  std::string hex;   ///< 32-hex digest (file stem)
  std::string path;
  std::uint64_t bytes = 0;
  struct timespec atime = {};
};

bool older(const RecordFile& a, const RecordFile& b) {
  if (a.atime.tv_sec != b.atime.tv_sec) return a.atime.tv_sec < b.atime.tv_sec;
  if (a.atime.tv_nsec != b.atime.tv_nsec) return a.atime.tv_nsec < b.atime.tv_nsec;
  return a.path < b.path;  // deterministic order under equal timestamps
}

}  // namespace

ResultStore::GcStats ResultStore::gc(
    std::span<const std::array<std::uint64_t, 2>> pinned) {
  GcStats out;
  if (config_.max_bytes <= 0) return out;

  std::set<std::string> pin_set;
  for (const auto& digest : pinned) {
    pin_set.insert(hex64(digest[0]) + hex64(digest[1]));
  }

  // Memo hits never touch the disk, so a record this process kept reading
  // from memory would look cold to the atime order. The memo is exactly the
  // process's working set (everything read or written here): refresh those
  // records now, before ordering, so eviction prefers records no live
  // campaign is using.
  std::set<std::string> warm;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [hex, entry] : memo_) warm.insert(hex);
  }

  // Scan runs/<dd>/*.run. Temp files of in-flight put()s are skipped: they
  // are renamed into place atomically, so deleting only finished records can
  // never tear a concurrent write.
  std::vector<RecordFile> records;
  const std::string runs_dir = config_.dir + "/runs";
  DIR* top = ::opendir(runs_dir.c_str());
  if (top == nullptr) return out;
  while (const dirent* fan = ::readdir(top)) {
    if (fan->d_name[0] == '.') continue;
    const std::string sub = runs_dir + "/" + fan->d_name;
    DIR* subdir = ::opendir(sub.c_str());
    if (subdir == nullptr) continue;
    while (const dirent* entry = ::readdir(subdir)) {
      const std::string name = entry->d_name;
      if (name.size() < 4 || !name.ends_with(".run") ||
          name.find(".tmp.") != std::string::npos) {
        continue;
      }
      RecordFile record;
      record.hex = name.substr(0, name.size() - 4);
      record.path = sub + "/" + name;
      if (warm.contains(record.hex)) {
        (void)::utimensat(AT_FDCWD, record.path.c_str(), nullptr, 0);
      }
      struct stat st = {};
      if (::stat(record.path.c_str(), &st) != 0) continue;
      record.bytes = static_cast<std::uint64_t>(st.st_size);
      record.atime = st.st_atim;
      records.push_back(std::move(record));
    }
    ::closedir(subdir);
  }
  ::closedir(top);

  std::uint64_t total = 0;
  for (const auto& record : records) {
    ++out.scanned_files;
    total += record.bytes;
  }
  out.scanned_bytes = total;
  if (total <= static_cast<std::uint64_t>(config_.max_bytes)) return out;

  std::sort(records.begin(), records.end(), older);
  for (const auto& record : records) {
    if (total <= static_cast<std::uint64_t>(config_.max_bytes)) break;
    if (pin_set.contains(record.hex)) {
      ++out.pinned_files;
      continue;
    }
    if (::unlink(record.path.c_str()) != 0) continue;
    total -= record.bytes;
    ++out.evicted_files;
    out.evicted_bytes += record.bytes;
    // The in-process memo must forget the record too, or this process would
    // keep "hitting" an entry it just evicted from disk.
    const std::lock_guard<std::mutex> lock(mutex_);
    memo_.erase(record.hex);
  }
  return out;
}

// --------------------------------------------------- CheckpointJournal -----

namespace {

std::string header_payload(std::uint64_t campaign_key,
                           const std::vector<JournalBackend>& backends) {
  // v3 splits the implementation list into per-backend groups and stamps
  // each shard record with its owning backend; v2 (and v1) headers no
  // longer match, so old journals start fresh instead of resuming. The
  // header is compared verbatim against the expected bytes — any layout
  // difference (backend order, names, implementation grouping) is a
  // different campaign.
  std::string out = "ompfuzz-journal v3\n";
  out += "campaign " + hex64(campaign_key) + "\n";
  out += "backends " + std::to_string(backends.size()) + "\n";
  for (const auto& backend : backends) {
    out += "backend " + backend.name + " " +
           std::to_string(backend.impl_names.size()) + "\n";
    for (const auto& name : backend.impl_names) out += "impl " + name + "\n";
  }
  return out;
}

std::string shard_payload(const StoredShard& shard,
                          const std::vector<JournalBackend>& backends) {
  const auto b = static_cast<std::size_t>(shard.backend_index);
  OMPFUZZ_CHECK(shard.backend_index >= 0 && b < backends.size(),
                "shard backend index out of range");
  const std::size_t num_impls = backends[b].impl_names.size();
  std::string out = "shard " + std::to_string(shard.program_index) + " " +
                    std::to_string(shard.backend_index) + " " +
                    std::to_string(shard.regeneration_attempts) + " " +
                    hex64(shard.program_fingerprint) + " " +
                    std::to_string(shard.outcomes.size()) + "\n";
  for (const auto& outcome : shard.outcomes) {
    OMPFUZZ_CHECK(outcome.runs.size() == num_impls,
                  "shard outcome has wrong run count");
    out += "name " + outcome.program_name + "\n";
    out += "index " + std::to_string(outcome.input_index) + "\n";
    out += "input " + outcome.input_text + "\n";
    for (std::size_t r = 0; r < outcome.runs.size(); ++r) {
      const auto& run = outcome.runs[r];
      out += "run " + std::to_string(r) + " " +
             std::to_string(static_cast<int>(run.status)) + " " +
             hex64(std::bit_cast<std::uint64_t>(run.time_us)) + " " +
             hex64(std::bit_cast<std::uint64_t>(run.output)) + "\n";
    }
  }
  return out;
}

/// Parses one sub-shard payload. Returns nullopt on any malformation (the
/// truncated / corrupt final record of a crashed campaign).
std::optional<StoredShard> parse_shard_payload(
    std::string_view payload, const std::vector<JournalBackend>& backends) {
  LineCursor cursor(payload);
  const auto head = cursor.tagged("shard ");
  if (!head) return std::nullopt;
  std::int64_t program_index = 0, backend_index = 0, regen = 0, n_outcomes = 0;
  std::uint64_t fingerprint = 0;
  {
    const auto fields = split(*head, ' ');
    if (fields.size() != 5 || !parse_i64(fields[0], program_index) ||
        !parse_i64(fields[1], backend_index) || !parse_i64(fields[2], regen) ||
        !parse_hex64(fields[3], fingerprint) ||
        !parse_i64(fields[4], n_outcomes)) {
      return std::nullopt;
    }
  }
  if (program_index < 0 || regen < 0 || n_outcomes < 0) return std::nullopt;
  // Bound the untrusted count before allocating for it: every outcome needs
  // at least a "name"/"index"/"input" line in the payload, so a count beyond
  // the payload size can only come from a corrupt record — reject it rather
  // than let resize() throw out of open().
  if (static_cast<std::uint64_t>(n_outcomes) > payload.size()) {
    return std::nullopt;
  }
  if (backend_index < 0 ||
      backend_index >= static_cast<std::int64_t>(backends.size())) {
    return std::nullopt;
  }
  const auto& impl_names =
      backends[static_cast<std::size_t>(backend_index)].impl_names;

  StoredShard shard;
  shard.program_index = static_cast<int>(program_index);
  shard.backend_index = static_cast<int>(backend_index);
  shard.regeneration_attempts = static_cast<int>(regen);
  shard.program_fingerprint = fingerprint;
  // One outcome per input, slotted by input_index: the indices must form a
  // permutation of 0..n-1, so the campaign can address restored runs by
  // input row when it merges backends. Anything else can only come from a
  // corrupt or hand-edited journal — reject the record.
  shard.outcomes.resize(static_cast<std::size_t>(n_outcomes));
  std::vector<char> seen(static_cast<std::size_t>(n_outcomes), 0);
  for (std::int64_t i = 0; i < n_outcomes; ++i) {
    StoredOutcome outcome;
    const auto name = cursor.tagged("name ");
    if (!name) return std::nullopt;
    outcome.program_name = std::string(*name);
    const auto index = cursor.tagged("index ");
    std::int64_t input_index = 0;
    if (!index || !parse_i64(*index, input_index)) return std::nullopt;
    if (input_index < 0 || input_index >= n_outcomes ||
        seen[static_cast<std::size_t>(input_index)]) {
      return std::nullopt;
    }
    seen[static_cast<std::size_t>(input_index)] = 1;
    outcome.input_index = static_cast<int>(input_index);
    const auto input = cursor.tagged("input ");
    if (!input) return std::nullopt;
    outcome.input_text = std::string(*input);
    for (std::size_t r = 0; r < impl_names.size(); ++r) {
      const auto rec = cursor.tagged("run ");
      if (!rec) return std::nullopt;
      const auto fields = split(*rec, ' ');
      std::int64_t impl_index = 0;
      std::uint64_t time_bits = 0, output_bits = 0;
      core::RunResult run;
      if (fields.size() != 4 || !parse_i64(fields[0], impl_index) ||
          impl_index != static_cast<std::int64_t>(r) ||
          !parse_status(fields[1], run.status) ||
          !parse_hex64(fields[2], time_bits) ||
          !parse_hex64(fields[3], output_bits)) {
        return std::nullopt;
      }
      run.impl = impl_names[r];
      run.time_us = std::bit_cast<double>(time_bits);
      run.output = std::bit_cast<double>(output_bits);
      outcome.runs.push_back(std::move(run));
    }
    shard.outcomes[static_cast<std::size_t>(input_index)] = std::move(outcome);
  }
  return shard;
}

}  // namespace

CheckpointJournal::CheckpointJournal(std::string path) : path_(std::move(path)) {
  OMPFUZZ_CHECK(!path_.empty(), "checkpoint journal needs a path");
}

CheckpointJournal::~CheckpointJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CheckpointJournal::start_fresh(std::uint64_t campaign_key) {
  write_file_atomic(path_, frame_record(header_payload(campaign_key, backends_)));
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) throw Error("checkpoint journal: cannot open " + path_);
}

std::vector<StoredShard> CheckpointJournal::open(
    std::uint64_t campaign_key, const std::vector<std::string>& impl_names,
    bool resume) {
  const std::vector<JournalBackend> backends = {{"default", impl_names}};
  return open(campaign_key, backends, resume);
}

std::vector<StoredShard> CheckpointJournal::open(
    std::uint64_t campaign_key, std::span<const JournalBackend> backends,
    bool resume) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  backends_.assign(backends.begin(), backends.end());

  std::vector<StoredShard> shards;
  std::string file;
  if (resume) {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      file = buf.str();
    }
  }

  std::size_t pos = 0;
  bool header_ok = false;
  if (!file.empty()) {
    std::string_view payload;
    if (read_record(file, pos, payload) &&
        payload == header_payload(campaign_key, backends_)) {
      header_ok = true;
    }
  }
  if (!header_ok) {
    // Fresh start: no file, resume declined, or the journal belongs to a
    // different campaign configuration / backend layout.
    start_fresh(campaign_key);
    return shards;
  }

  std::size_t good_end = pos;  // end of the last well-formed record
  std::string_view payload;
  while (read_record(file, pos, payload)) {
    auto shard = parse_shard_payload(payload, backends_);
    if (!shard) break;  // corrupt record: stop at the last good shard
    shards.push_back(std::move(*shard));
    good_end = pos;
  }

  // Drop the torn/corrupt tail (if any) so appends extend a valid record
  // sequence, then continue appending after the last good record.
  fd_ = ::open(path_.c_str(), O_WRONLY);
  if (fd_ < 0) throw Error("checkpoint journal: cannot reopen " + path_);
  if (::ftruncate(fd_, static_cast<off_t>(good_end)) != 0 ||
      ::lseek(fd_, 0, SEEK_END) < 0) {
    throw Error("checkpoint journal: cannot truncate " + path_);
  }
  return shards;
}

void CheckpointJournal::append_record(const std::string& payload) {
  OMPFUZZ_CHECK(fd_ >= 0, "checkpoint journal not opened");
  const std::string framed = frame_record(payload);
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("checkpoint journal: append failed for " + path_);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw Error("checkpoint journal: fsync failed for " + path_);
  }
}

void CheckpointJournal::append(const StoredShard& shard) {
  telemetry::ScopedSpan span("journal", "append");
  if (span.active()) {
    span.arg("program", shard.program_index);
    span.arg("backend", shard.backend_index);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  append_record(shard_payload(shard, backends_));
}

}  // namespace ompfuzz
