#include "service/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
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

/// Bytes before a record's payload: its checksum and a space.
constexpr std::size_t kCrcField = 9;

/// A writer for one journal line: the payload renders after room for the
/// checksum, which seal() fills in, so a line is built in one buffer.
core::JsonWriter line_writer() {
  return core::JsonWriter(std::string(kCrcField, ' '));
}

/// The finished line of a line_writer(): checksummed and ended.
std::string seal(core::JsonWriter&& w) {
  std::string line = std::move(w).str();
  line.replace(0, kCrcField - 1, core::crc32_hex(core::crc32(
                                     std::string_view(line).substr(kCrcField))));
  line += '\n';
  return line;
}

std::string admit_line(std::uint64_t id, std::string_view request_json) {
  core::JsonWriter w = line_writer();
  w.begin_object().member("type", "admit").member("id", id);
  w.key("request").raw_value(request_json);
  w.end_object();
  return seal(std::move(w));
}

/// `units`: (unit index, checkpoint document) pairs — one executor slot
/// on the append path, all of a job's live checkpoints at compaction.
template <typename Units>
std::string checkpoint_line(std::uint64_t id, std::size_t total,
                            const Units& units) {
  core::JsonWriter w = line_writer();
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
  return seal(std::move(w));
}

/// The report is `packed` unpacked in place when given, else
/// `report_json` ("" for none, journaled as null).
std::string result_line(std::uint64_t id, std::string_view state,
                        std::string_view outcome_json,
                        std::string_view failure_json,
                        std::string_view report_kind,
                        std::string_view report_json,
                        const core::PackedText* packed) {
  core::JsonWriter w = line_writer();
  w.begin_object()
      .member("type", "result")
      .member("id", id)
      .member("state", state);
  w.key("outcome").raw_value(outcome_json);
  if (!failure_json.empty()) w.key("failure").raw_value(failure_json);
  w.member("report_kind", report_kind);
  w.key("report");
  if (packed != nullptr) {
    w.raw_value_from([packed](std::string& out) { packed->append_text(out); });
  } else {
    w.raw_value(report_json.empty() ? "null" : report_json);
  }
  w.end_object();
  return seal(std::move(w));
}

std::uint64_t nanoseconds_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

/// One queued append. Records are written; commands only act on the
/// writer's state.
struct Journal::Record {
  enum class Kind : std::uint8_t {
    kAdmit, kCheckpoint, kResult, kShutdown,  // records
    kForget, kSync, kCompact,                 // commands
  };
  explicit Record(Kind k) : kind(k) {}
  Kind kind;
  Ticket ticket = 0;
  std::uint64_t id = 0;
  /// Documents held, charged against kMaxBacklogBytes.
  std::size_t bytes = 0;
  // kAdmit and kResult: views of the documents of the caller, which
  // waits until the record is written.
  std::string_view request_json;
  std::string_view state, outcome_json, failure_json, report_kind;
  /// kResult: the framed line, rendered by the caller, which waits for
  /// it anyway, so the writer goes on with the records queued before it
  /// meanwhile and never allocates a report-sized line itself.
  std::string line;
  ReportBuffer report;  ///< kResult: moved into the table when written
  // kCheckpoint.
  std::size_t total = 0;
  std::vector<std::pair<std::size_t, std::string>> units;
  std::function<void()> written;
};

std::string Journal::frame(std::string_view payload) {
  core::JsonWriter w = line_writer();
  w.raw_value(payload);
  return seal(std::move(w));
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

  if (!open_segment(next_seq_++)) {
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
  if (write_table() && fsync_segment()) {
    for (const SegmentFile& seg : rep.segments) ::unlink(seg.path.c_str());
    sync_dir(options_.state_dir);
  }
  compacted_bytes_ = live_bytes_;
  appended_since_compact_ = 0;
  writer_ = std::thread([this] { writer_loop(); });
}

Journal::~Journal() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queued_cv_.notify_one();
  writer_.join();
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

std::map<std::uint64_t, RecoveredJob> Journal::take_recovered_jobs() {
  return std::exchange(recovered_.jobs, {});
}

// --- Appenders ---------------------------------------------------------

Journal::Ticket Journal::enqueue(Record rec) {
  std::unique_lock<std::mutex> lock(mu_);
  // Only checkpoints and results wait for room: an admit is queued under
  // the JobManager's lock, and commands hold no documents.
  const bool may_wait = rec.kind == Record::Kind::kCheckpoint ||
                        rec.kind == Record::Kind::kResult;
  const auto has_room = [this, &rec, may_wait] {
    return !may_wait || degraded_.load(std::memory_order_relaxed) ||
           queued_bytes_ == 0 || queued_bytes_ + rec.bytes <= kMaxBacklogBytes;
  };
  if (!has_room()) {
    backlog_waits_.fetch_add(1, std::memory_order_relaxed);
    released_cv_.wait(lock, has_room);
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    lock.unlock();
    if (rec.written) rec.written();  // dropped: nothing will be written
    return 0;
  }
  rec.ticket = ++last_ticket_;
  const Ticket ticket = rec.ticket;
  queued_bytes_ += rec.bytes;
  backlog_bytes_.store(queued_bytes_, std::memory_order_relaxed);
  queue_.push_back(std::move(rec));
  lock.unlock();
  queued_cv_.notify_one();
  return ticket;
}

void Journal::wait(Ticket ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  released_cv_.wait(lock, [this, ticket] { return released_ >= ticket; });
}

Journal::Ticket Journal::queue_admit(std::uint64_t id,
                                     std::string_view request_json) {
  Record rec(Record::Kind::kAdmit);
  rec.id = id;
  rec.request_json = request_json;
  rec.bytes = request_json.size();
  return enqueue(std::move(rec));
}

void Journal::append_checkpoints(
    std::uint64_t id, std::size_t total,
    std::vector<std::pair<std::size_t, std::string>> units,
    std::function<void()> written) {
  Record rec(Record::Kind::kCheckpoint);
  rec.id = id;
  rec.total = total;
  for (const auto& unit : units) rec.bytes += unit.second.size();
  rec.units = std::move(units);
  rec.written = std::move(written);
  enqueue(std::move(rec));
}

ReportBuffer Journal::append_result(std::uint64_t id, std::string_view state,
                                    std::string_view outcome_json,
                                    std::string_view failure_json,
                                    std::string_view report_kind,
                                    std::string_view report_json) {
  ReportBuffer report = pack_report(report_json);
  if (degraded_.load(std::memory_order_relaxed)) return report;
  Record rec(Record::Kind::kResult);
  rec.id = id;
  rec.state = state;
  rec.outcome_json = outcome_json;
  rec.failure_json = failure_json;
  rec.report_kind = report_kind;
  rec.line = result_line(id, state, outcome_json, failure_json, report_kind,
                         report_json, nullptr);
  rec.report = report;
  rec.bytes = rec.line.size();
  wait(enqueue(std::move(rec)));
  return report;
}

void Journal::append_clean_shutdown() {
  wait(enqueue(Record(Record::Kind::kShutdown)));
}

void Journal::forget(std::uint64_t id) {
  {
    const std::lock_guard<std::mutex> lock(table_mu_);
    table_.erase(id);
  }
  // Again on the writer, after any record of the job still queued.
  Record rec(Record::Kind::kForget);
  rec.id = id;
  enqueue(std::move(rec));
}

void Journal::compact() { wait(enqueue(Record(Record::Kind::kCompact))); }

void Journal::sync() { wait(enqueue(Record(Record::Kind::kSync))); }

// --- The writer --------------------------------------------------------

void Journal::writer_loop() {
  std::vector<Record> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      queued_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and every record is written
      batch.swap(queue_);
    }
    run_batch(batch);
    batch.clear();
  }
}

void Journal::run_batch(std::vector<Record>& batch) {
  bool sync_due = false;  // a record whose caller waits for its fsync
  Ticket done = 0;        // last record handled
  std::size_t bytes = 0;  // of the records handled since the last release
  // Group commit: one fsync covers every record written before it, and
  // only then are their callers released.
  const auto commit = [&] {
    if (sync_due || (unsynced_records_ > 0 &&
                     unsynced_records_ >= options_.fsync_every_records)) {
      fsync_segment();
    }
    sync_due = false;
    release(done, bytes);
    bytes = 0;
  };
  // Amortized: a rewrite of C bytes waits for more than C appended bytes.
  const auto compaction_due = [this] {
    return !degraded_.load(std::memory_order_relaxed) &&
           appended_since_compact_ > std::max<std::uint64_t>(
                                         options_.max_segment_bytes,
                                         compacted_bytes_);
  };
  for (Record& rec : batch) {
    switch (rec.kind) {
      case Record::Kind::kForget: {
        const std::lock_guard<std::mutex> lock(table_mu_);
        table_.erase(rec.id);
        break;
      }
      case Record::Kind::kSync:
      case Record::Kind::kCompact:
        // The records before it are committed and released first; its
        // own caller also waits for a compaction: the one it asked for,
        // or one they made due.
        sync_due = sync_due || rec.kind == Record::Kind::kSync;
        commit();
        if (rec.kind == Record::Kind::kCompact
                ? !degraded_.load(std::memory_order_relaxed)
                : compaction_due()) {
          compact_now();
        }
        break;
      case Record::Kind::kCheckpoint:
        write_record(rec);
        break;
      default:
        write_record(rec);
        sync_due = true;
        break;
    }
    done = rec.ticket;
    bytes += rec.bytes;
  }
  commit();
  // Only now that every caller of the batch is released.
  if (compaction_due()) compact_now();
}

void Journal::release(Ticket ticket, std::size_t bytes) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = std::max(released_, ticket);
    queued_bytes_ -= bytes;
    backlog_bytes_.store(queued_bytes_, std::memory_order_relaxed);
  }
  released_cv_.notify_all();
}

// Each record is folded into the compaction table before its write, so a
// compaction already includes it; a failed write degrades the journal
// anyway, so a table ahead of disk is harmless.
void Journal::write_record(Record& rec) {
  if (!degraded_.load(std::memory_order_relaxed)) {
    // Nothing may escape the writer thread: running out of memory here
    // degrades the journal like a failed write.
    try {
      const std::string line = fold_record(rec);
      if (write_line(line)) {
        appended_since_compact_ += line.size();
        ++unsynced_records_;
      }
    } catch (const std::exception& e) {
      degrade("record", e.what());
    }
  }
  rec.report.reset();
  if (rec.written) rec.written();
}

std::string Journal::fold_record(Record& rec) {
  switch (rec.kind) {
    case Record::Kind::kAdmit: {
      std::string line = admit_line(rec.id, rec.request_json);
      const std::lock_guard<std::mutex> lock(table_mu_);
      table_[rec.id].request_json = rec.request_json;
      return line;
    }
    case Record::Kind::kCheckpoint: {
      std::string line = checkpoint_line(rec.id, rec.total, rec.units);
      const std::lock_guard<std::mutex> lock(table_mu_);
      RecoveredJob& job = table_[rec.id];
      for (auto& [unit, data] : rec.units) {
        job.checkpoints[unit] = std::move(data);
      }
      job.checkpoint_total = rec.total;
      return line;
    }
    case Record::Kind::kResult: {
      std::string line = std::move(rec.line);
      const std::lock_guard<std::mutex> lock(table_mu_);
      RecoveredJob& job = table_[rec.id];
      job.has_result = true;
      job.result_state = rec.state;
      job.outcome_json = rec.outcome_json;
      if (!rec.failure_json.empty()) job.failure_json = rec.failure_json;
      job.report_kind = rec.report_kind;
      // Moved, not shared: the caller gets back the only other owner.
      job.report_json = std::move(rec.report);
      // A finished job needs no resume state; drop the bulk now.
      job.checkpoints.clear();
      last_result_ = rec.id;
      return line;
    }
    default:
      return frame(R"({"type":"clean_shutdown"})");
  }
}

void Journal::degrade(const char* what, const char* reason) {
  if (!degraded_.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "msbistd: journal degraded (%s failed: %s); continuing "
                 "in-memory without durability\n",
                 what, reason);
  }
  degraded_events_.fetch_add(1, std::memory_order_relaxed);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  segment_count_ = 0;
  {
    // Under mu_, so an appender waiting for room cannot miss it.
    const std::lock_guard<std::mutex> lock(mu_);
    degraded_.store(true, std::memory_order_relaxed);
  }
  released_cv_.notify_all();
}

bool Journal::open_segment(std::uint64_t seq) {
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

bool Journal::write_line(std::string_view line) {
  if (degraded_.load(std::memory_order_relaxed) || fd_ < 0) return false;
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = options_.write_override
                          ? options_.write_override(fd_, p, left)
                          : ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      degrade("write", std::strerror(errno));
      return false;
    }
    if (n == 0) {
      degrade("write", std::strerror(errno));
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  live_bytes_.fetch_add(line.size(), std::memory_order_relaxed);
  return true;
}

bool Journal::fsync_segment() {
  if (degraded_.load(std::memory_order_relaxed) || fd_ < 0) return false;
  const auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    degrade("fsync", std::strerror(errno));
    return false;
  }
  fsync_ns_.fetch_add(nanoseconds_since(start), std::memory_order_relaxed);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  unsynced_records_ = 0;
  return true;
}

bool Journal::write_table() {
  // Id order, but the newest result goes last, so a replay of the
  // rewrite still knows which job completed most recently.
  std::vector<std::uint64_t> ids;
  {
    const std::lock_guard<std::mutex> lock(table_mu_);
    ids.reserve(table_.size() + 1);
    for (const auto& entry : table_) {
      if (entry.first != last_result_) ids.push_back(entry.first);
    }
  }
  ids.push_back(last_result_);
  // One job at a time under table_mu_, so forget() waits for at most one
  // job's rendering; each report unpacks straight into its record, and
  // the lines are written outside the lock.
  std::vector<std::string> lines;
  for (const std::uint64_t id : ids) {
    {
      const std::lock_guard<std::mutex> lock(table_mu_);
      const auto it = table_.find(id);
      if (it == table_.end()) continue;  // forgotten meanwhile, or no result
      const RecoveredJob& job = it->second;
      if (!job.request_json.empty()) {
        lines.push_back(admit_line(id, job.request_json));
      }
      if (!job.checkpoints.empty()) {
        lines.push_back(
            checkpoint_line(id, job.checkpoint_total, job.checkpoints));
      }
      if (job.has_result) {
        lines.push_back(result_line(id, job.result_state, job.outcome_json,
                                    job.failure_json, job.report_kind, "",
                                    job.report_json.get()));
      }
    }
    for (const std::string& line : lines) {
      if (!write_line(line)) return false;
    }
    lines.clear();
  }
  return true;
}

void Journal::compact_now() {
  const auto start = std::chrono::steady_clock::now();
  const std::string old_segment = live_segment_;
  if (!open_segment(next_seq_++)) {
    degrade("open", std::strerror(errno));
    return;
  }
  bool written = false;
  try {
    written = write_table();
  } catch (const std::exception& e) {
    degrade("compaction", e.what());  // as in write_record
  }
  if (!written || !fsync_segment()) return;
  if (!old_segment.empty()) ::unlink(old_segment.c_str());
  sync_dir(options_.state_dir);
  compacted_bytes_ = live_bytes_;
  appended_since_compact_ = 0;
  compactions_.fetch_add(1, std::memory_order_relaxed);
  compaction_ns_.fetch_add(nanoseconds_since(start), std::memory_order_relaxed);
}

// --- Status: atomics the writer publishes ------------------------------

bool Journal::degraded() const {
  return degraded_.load(std::memory_order_relaxed);
}

std::uint64_t Journal::degraded_events() const {
  return degraded_events_.load(std::memory_order_relaxed);
}

std::uint64_t Journal::bytes() const {
  return live_bytes_.load(std::memory_order_relaxed);
}

std::size_t Journal::segments() const {
  return segment_count_.load(std::memory_order_relaxed);
}

std::uint64_t Journal::fsyncs() const {
  return fsyncs_.load(std::memory_order_relaxed);
}

double Journal::fsync_seconds() const {
  return 1e-9 * static_cast<double>(fsync_ns_.load(std::memory_order_relaxed));
}

std::uint64_t Journal::compactions() const {
  return compactions_.load(std::memory_order_relaxed);
}

double Journal::compaction_seconds() const {
  return 1e-9 *
         static_cast<double>(compaction_ns_.load(std::memory_order_relaxed));
}

std::uint64_t Journal::backlog_bytes() const {
  return backlog_bytes_.load(std::memory_order_relaxed);
}

std::uint64_t Journal::backlog_waits() const {
  return backlog_waits_.load(std::memory_order_relaxed);
}

}  // namespace msbist::service
