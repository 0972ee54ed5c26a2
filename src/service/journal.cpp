#include "service/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/crc32.h"
#include "core/error.h"
#include "core/json.h"
#include "core/json_value.h"

namespace msbist::service {

namespace {

constexpr const char* kSegmentPrefix = "journal-";
constexpr const char* kSegmentSuffix = ".wal";

std::string segment_path(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "journal-%06llu.wal",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

/// Segment files in `dir`, ordered by sequence number.
struct SegmentFile {
  std::uint64_t seq;
  std::string path;
};

std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const std::size_t prefix_len = std::strlen(kSegmentPrefix);
    const std::size_t suffix_len = std::strlen(kSegmentSuffix);
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kSegmentPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
        0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    std::uint64_t seq = 0;
    bool numeric = !digits.empty();
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    out.push_back({seq, dir + "/" + name});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  return out;
}

/// Best-effort directory fsync: makes segment creation/deletion itself
/// durable. Failure here is not worth degrading over.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Apply one verified payload to the replay table. Returns false when
/// the payload is structurally not a journal record (counted as skipped
/// by the caller). `clean` tracks whether the *latest* applied record is
/// the shutdown marker.
bool apply_payload(const std::string& payload,
                   std::map<std::uint64_t, RecoveredJob>& table, bool* clean,
                   std::uint64_t* last_result) {
  core::JsonValue doc;
  try {
    doc = core::parse_json(payload);
  } catch (const core::JsonParseError&) {
    return false;
  }
  // Every conversion below is checked first, except that an integer can
  // still be negative: as_u64 then throws, and the record is skipped.
  if (!doc.is_object()) return false;
  const core::JsonValue* type = doc.find("type");
  if (type == nullptr || !type->is_string()) return false;
  const std::string& kind = type->as_string();

  if (kind == "clean_shutdown") {
    if (clean != nullptr) *clean = true;
    return true;
  }
  if (clean != nullptr) *clean = false;

  const core::JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_integer()) return false;
  const std::uint64_t job_id = id->as_u64();

  if (kind == "admit") {
    const core::JsonValue* request = doc.find("request");
    if (request == nullptr || !request->is_object()) return false;
    table[job_id].request_json = request->dump();
    return true;
  }
  if (kind == "state") return true;  // an earlier daemon's job start: no-op
  if (kind == "checkpoint") {
    const core::JsonValue* total = doc.find("total");
    const core::JsonValue* units = doc.find("units");
    if (total == nullptr || !total->is_integer() || units == nullptr ||
        !units->is_array()) {
      return false;
    }
    // Validate the whole slot before applying any of it.
    const auto slot_total = static_cast<std::size_t>(total->as_u64());
    std::vector<std::pair<std::size_t, const core::JsonValue*>> slot;
    for (const core::JsonValue& u : units->items()) {
      if (!u.is_array() || u.items().size() != 2 || !u.items()[0].is_integer()) {
        return false;
      }
      slot.emplace_back(static_cast<std::size_t>(u.items()[0].as_u64()),
                        &u.items()[1]);
    }
    RecoveredJob& job = table[job_id];
    for (const auto& [unit, data] : slot) job.checkpoints[unit] = data->dump();
    job.checkpoint_total = slot_total;
    return true;
  }
  if (kind == "result") {
    const core::JsonValue* state = doc.find("state");
    const core::JsonValue* outcome = doc.find("outcome");
    const core::JsonValue* report_kind = doc.find("report_kind");
    const core::JsonValue* report = doc.find("report");
    if (state == nullptr || !state->is_string() || outcome == nullptr ||
        report_kind == nullptr || !report_kind->is_string() ||
        report == nullptr) {
      return false;
    }
    RecoveredJob& job = table[job_id];
    job.has_result = true;
    job.result_state = state->as_string();
    job.outcome_json = outcome->dump();
    job.report_kind = report_kind->as_string();
    // Packed as the line is applied: a replay holds at most one report
    // as text.
    job.report_json = report->is_null() ? nullptr : pack_report(report->dump());
    if (const core::JsonValue* failure = doc.find("failure")) {
      job.failure_json = failure->dump();
    }
    // A finished job needs no resume state; drop the bulk now.
    job.checkpoints.clear();
    *last_result = job_id;
    return true;
  }
  return false;  // unknown record type: a newer schema — skip, don't die
}

/// Verify one framed line and apply it. Returns false on any framing,
/// checksum, or structure problem.
bool replay_line(const std::string& line,
                 std::map<std::uint64_t, RecoveredJob>& table, bool* clean,
                 std::uint64_t* last_result) {
  // "<8 hex> <payload>" — anything shorter cannot hold both halves.
  if (line.size() < 10 || line[8] != ' ') return false;
  const std::string_view stored(line.data(), 8);
  const std::string_view payload(line.data() + 9, line.size() - 9);
  if (core::crc32_hex(core::crc32(payload)) != stored) return false;
  try {
    return apply_payload(std::string(payload), table, clean, last_result);
  } catch (const std::logic_error&) {
    return false;  // a negative id or unit index
  }
}

struct ReplayOutcome {
  std::map<std::uint64_t, RecoveredJob> table;
  bool clean_shutdown = false;
  std::size_t skipped = 0;
  std::uint64_t max_seq = 0;
  std::uint64_t last_result = 0;  ///< job of the last result record
  std::vector<SegmentFile> segments;
};

ReplayOutcome replay_dir(const std::string& dir) {
  ReplayOutcome out;
  out.segments = list_segments(dir);
  for (const SegmentFile& seg : out.segments) {
    out.max_seq = std::max(out.max_seq, seg.seq);
    std::ifstream in(seg.path, std::ios::binary);
    if (!in) {
      ++out.skipped;
      continue;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (!replay_line(line, out.table, &out.clean_shutdown, &out.last_result)) {
        ++out.skipped;
      }
    }
  }
  return out;
}

std::string admit_payload(std::uint64_t id, std::string_view request_json) {
  core::JsonWriter w;
  w.begin_object().member("type", "admit").member("id", id);
  w.key("request").raw_value(request_json);
  w.end_object();
  return w.str();
}

/// `units`: (unit index, checkpoint document) pairs — one executor slot
/// on the append path, all of a job's live checkpoints at compaction.
template <typename Units>
std::string checkpoint_payload(std::uint64_t id, std::size_t total,
                               const Units& units) {
  core::JsonWriter w;
  w.begin_object()
      .member("type", "checkpoint")
      .member("id", id)
      .member("total", static_cast<std::uint64_t>(total));
  w.key("units").begin_array();
  for (const auto& [unit, data] : units) {
    w.begin_array().value(static_cast<std::uint64_t>(unit)).raw_value(data);
    w.end_array();
  }
  w.end_array().end_object();
  return w.str();
}

/// `report_json`: the report document, "" for none (journaled as null).
std::string result_payload(std::uint64_t id, std::string_view state,
                           std::string_view outcome_json,
                           std::string_view failure_json,
                           std::string_view report_kind,
                           std::string_view report_json) {
  core::JsonWriter w;
  w.begin_object()
      .member("type", "result")
      .member("id", id)
      .member("state", state);
  w.key("outcome").raw_value(outcome_json);
  if (!failure_json.empty()) w.key("failure").raw_value(failure_json);
  w.member("report_kind", report_kind);
  w.key("report").raw_value(report_json.empty() ? "null" : report_json);
  w.end_object();
  return w.str();
}

}  // namespace

std::string Journal::frame(std::string_view payload) {
  std::string out = core::crc32_hex(core::crc32(payload));
  out += ' ';
  out += payload;
  out += '\n';
  return out;
}

RecoveredState Journal::replay(const std::string& state_dir) {
  ReplayOutcome rep = replay_dir(state_dir);
  RecoveredState out;
  out.jobs = std::move(rep.table);
  out.clean_shutdown = rep.clean_shutdown;
  out.first_boot = rep.segments.empty();
  out.skipped_records = rep.skipped;
  out.last_completed = rep.last_result;
  return out;
}

Journal::Journal(JournalOptions options) : options_(std::move(options)) {
  if (::mkdir(options_.state_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    core::Failure f;
    f.code = core::ErrorCode::kInternal;
    f.analysis = "service/journal";
    f.detail = "cannot create state dir " + options_.state_dir + ": " +
               std::strerror(errno);
    core::throw_failure(std::move(f));
  }

  ReplayOutcome rep = replay_dir(options_.state_dir);
  recovered_.jobs = rep.table;
  recovered_.clean_shutdown = rep.clean_shutdown;
  recovered_.first_boot = rep.segments.empty();
  recovered_.skipped_records = rep.skipped;
  recovered_.last_completed = rep.last_result;
  last_result_ = rep.last_result;
  table_ = std::move(rep.table);
  next_seq_ = rep.max_seq + 1;

  std::lock_guard<std::mutex> lock(mu_);
  if (!open_segment_locked(next_seq_++)) {
    core::Failure f;
    f.code = core::ErrorCode::kInternal;
    f.analysis = "service/journal";
    f.detail = "cannot open journal segment in " + options_.state_dir + ": " +
               std::strerror(errno);
    core::throw_failure(std::move(f));
  }
  segment_count_ = 1;
  // Boot compaction: rewrite the replayed state minimally into the fresh
  // segment, then drop the history — only once the rewrite is durable, so
  // a journal that degrades here leaves the previous life's segments for
  // the next boot. A torn tail in the old segments has already been
  // skipped, so what lands here is wholly valid.
  if (write_table_locked() && fsync_locked()) {
    for (const SegmentFile& seg : rep.segments) ::unlink(seg.path.c_str());
    sync_dir(options_.state_dir);
  }
  compacted_bytes_ = live_bytes_;
  appended_since_compact_ = 0;
}

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

std::map<std::uint64_t, RecoveredJob> Journal::take_recovered_jobs() {
  return std::exchange(recovered_.jobs, {});
}

bool Journal::open_segment_locked(std::uint64_t seq) {
  const std::string path = segment_path(options_.state_dir, seq);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  live_segment_ = path;
  live_bytes_ = 0;
  unsynced_records_ = 0;
  return true;
}

void Journal::degrade_locked(const char* what) {
  if (!degraded_) {
    std::fprintf(stderr,
                 "msbistd: journal degraded (%s failed: %s); continuing "
                 "in-memory without durability\n",
                 what, std::strerror(errno));
  }
  degraded_ = true;
  ++degraded_events_;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  segment_count_ = 0;
}

bool Journal::write_all_locked(std::string_view data) {
  if (degraded_ || fd_ < 0) return false;
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = options_.write_override
                          ? options_.write_override(fd_, p, left)
                          : ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      degrade_locked("write");
      return false;
    }
    if (n == 0) {
      degrade_locked("write");
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  live_bytes_ += data.size();
  return true;
}

bool Journal::fsync_locked() {
  if (degraded_ || fd_ < 0) return false;
  if (::fsync(fd_) != 0) {
    degrade_locked("fsync");
    return false;
  }
  ++fsyncs_;
  unsynced_records_ = 0;
  return true;
}

void Journal::append_locked(std::string_view payload, bool always_sync) {
  if (degraded_) return;
  const std::string line = frame(payload);
  if (!write_all_locked(line)) return;
  appended_since_compact_ += line.size();
  ++unsynced_records_;
  if ((always_sync || unsynced_records_ >= options_.fsync_every_records) &&
      !fsync_locked()) {
    return;
  }
  // Amortized: a rewrite of C bytes waits for more than C appended bytes.
  if (appended_since_compact_ >
      std::max<std::uint64_t>(options_.max_segment_bytes, compacted_bytes_)) {
    compact_locked();
  }
}

bool Journal::write_table_locked() {
  // Reports are unpacked one at a time, into one reused buffer.
  std::string report_text;
  const auto write_job = [this, &report_text](std::uint64_t id,
                                              const RecoveredJob& job) {
    if (!job.request_json.empty() &&
        !write_all_locked(frame(admit_payload(id, job.request_json)))) {
      return false;
    }
    if (!job.checkpoints.empty() &&
        !write_all_locked(frame(
            checkpoint_payload(id, job.checkpoint_total, job.checkpoints)))) {
      return false;
    }
    if (!job.has_result) return true;
    report_text.clear();
    if (job.report_json) job.report_json->append_text(report_text);
    return write_all_locked(frame(
        result_payload(id, job.result_state, job.outcome_json,
                       job.failure_json, job.report_kind, report_text)));
  };
  // Id order, but the newest result goes last, so a replay of the
  // rewrite still knows which job completed most recently.
  for (const auto& [id, job] : table_) {
    if (id != last_result_ && !write_job(id, job)) return false;
  }
  const auto last = table_.find(last_result_);
  return last == table_.end() || write_job(last->first, last->second);
}

void Journal::compact_locked() {
  const std::string old_segment = live_segment_;
  if (!open_segment_locked(next_seq_++)) {
    degrade_locked("open");
    return;
  }
  if (!write_table_locked() || !fsync_locked()) return;
  if (!old_segment.empty()) ::unlink(old_segment.c_str());
  sync_dir(options_.state_dir);
  compacted_bytes_ = live_bytes_;
  appended_since_compact_ = 0;
  ++compactions_;
}

// Each append folds its record into the compaction table first (under the
// same lock), so a compaction the append triggers already includes it; a
// failed write degrades the journal anyway, so a table ahead of disk is
// harmless.

void Journal::append_admit(std::uint64_t id, std::string_view request_json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_) return;
  table_[id].request_json = request_json;
  append_locked(admit_payload(id, request_json), /*always_sync=*/true);
}

void Journal::append_checkpoints(
    std::uint64_t id, std::size_t total,
    std::vector<std::pair<std::size_t, std::string>> units) {
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_) return;
  const std::string payload = checkpoint_payload(id, total, units);
  RecoveredJob& job = table_[id];
  for (auto& [unit, data] : units) job.checkpoints[unit] = std::move(data);
  job.checkpoint_total = total;
  append_locked(payload, /*always_sync=*/false);
}

ReportBuffer Journal::append_result(std::uint64_t id, std::string_view state,
                                    std::string_view outcome_json,
                                    std::string_view failure_json,
                                    std::string_view report_kind,
                                    std::string_view report_json) {
  ReportBuffer report = pack_report(report_json);
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_) return report;
  const std::string payload = result_payload(
      id, state, outcome_json, failure_json, report_kind, report_json);
  RecoveredJob& job = table_[id];
  job.has_result = true;
  job.result_state = state;
  job.outcome_json = outcome_json;
  if (!failure_json.empty()) job.failure_json = failure_json;
  job.report_kind = report_kind;
  job.report_json = report;
  // A finished job needs no resume state; drop the bulk now.
  job.checkpoints.clear();
  last_result_ = id;
  append_locked(payload, /*always_sync=*/true);
  return report;
}

void Journal::append_clean_shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  core::JsonWriter w;
  w.begin_object().member("type", "clean_shutdown").end_object();
  append_locked(w.str(), /*always_sync=*/true);
}

void Journal::forget(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.erase(id);
}

void Journal::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!degraded_) compact_locked();
}

void Journal::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  fsync_locked();
}

bool Journal::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

std::uint64_t Journal::degraded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_events_;
}

std::uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_bytes_;
}

std::size_t Journal::segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_count_;
}

std::uint64_t Journal::fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

std::uint64_t Journal::compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

}  // namespace msbist::service
