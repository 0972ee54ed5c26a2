// Write-ahead job journal: the daemon's durable state layer.
//
// msbistd holds every job in memory (service/job_manager.h), so before
// this layer a crash — OOM kill, power cut, operator SIGKILL — forgot
// every queued job, every running lot, and every finished report. The
// journal makes the executor's state survive: each job event is appended
// to a CRC-framed JSON-lines log under --state-dir *before* it takes
// effect in memory, and a restarted daemon replays the log to re-admit
// interrupted jobs and resume lot-scale work from its last checkpoint.
//
// Record framing. One record per line:
//
//   <crc32-hex> <payload-json>\n
//
// where crc32-hex is core::crc32 of exactly the payload bytes, rendered
// as 8 lowercase hex digits. Recovery verifies the checksum before ever
// parsing the payload, so a torn final record (crash mid-write), a
// bit-rotted line, or stray garbage is *skipped and counted* — never a
// reason to refuse startup. Payload types:
//
//   {"type":"admit","id":N,"request":{...}}          full JobRequest envelope
//   {"type":"checkpoint","id":N,"total":T,"units":[[i,{...}],...]}
//                                                    one executor slot's units
//   {"type":"result","id":N,"state":"succeeded","outcome":{...},
//    "failure":{...}?,"report_kind":"...","report":{...}}
//   {"type":"clean_shutdown"}                        drain marker
//
// A checkpoint record carries the units of one executor slot — one
// batch die, one lockstep block of up to kLockstepBlockDies dies, or
// one campaign fault — each as [unit index, engine checkpoint document].
// Replay reads only this shape: a record in any other shape (such as
// the per-unit records of earlier daemons) is skipped and counted, so
// its unit re-runs.
//
// Earlier daemons also journaled {"type":"state","id":N,"state":"running"}
// when a job started. Nothing needs it: boot re-admits every job without
// a result. Replay still reads such a record (a negative id is skipped
// and counted, as for any record) and applies nothing.
//
// fsync policy. Admissions, results, and the shutdown marker are rare
// and valuable: they fsync immediately. Checkpoints are frequent and
// individually cheap to lose (a lost checkpoint re-tests one slot): they
// batch, fsyncing every fsync_every_records records. A SIGKILL loses
// only data never write()n — the page cache survives process death — so
// batching only risks loss on power/kernel failure, bounded to the batch
// window.
//
// Segments and compaction. Records append to journal-NNNNNN.wal. At
// open, the journal replays every segment and rewrites the *compacted*
// state (per job: admit, its live checkpoints as one record, result)
// into a fresh segment, deleting the old ones once that
// rewrite is durable — so the log never accumulates history across
// restarts. The same compaction
// runs online once the bytes appended since the last compaction exceed
// max(max_segment_bytes, bytes that compaction wrote): each rewrite is
// paid for by at least as many appended bytes, so online compaction
// writes less than twice what was appended, however many reports are
// retained.
//
// Retention. The journal has no policy of its own: the JobManager alone
// decides which jobs are kept (its byte budget, service/job_manager.h)
// and calls forget(id) for every job it evicts or, at boot, does not
// adopt. forget drops the job from the compaction table at once, which
// releases its report buffer; the job leaves the log at the next
// compaction. Compaction writes the job whose result was journaled last
// at the end, so a replay still recovers it as last_completed.
//
// Failure posture. The journal is an availability feature and must
// never become an outage: any append-path failure (ENOSPC, EIO, short
// write) flips the journal into degraded mode — one warning on stderr,
// a counter for /metrics, and every later append a silent no-op. The
// daemon keeps serving from memory exactly as it did before this layer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace msbist::service {

struct JournalOptions {
  /// Directory holding the segments; created if absent.
  std::string state_dir;
  /// Batched-class records (checkpoints) appended between fsyncs.
  /// 1 = sync every record (the crash-test setting).
  std::size_t fsync_every_records = 8;
  /// Online compaction threshold: once more than max(this, bytes the
  /// last compaction wrote) bytes have been appended since it, the
  /// journal rewrites its compacted state into a fresh segment.
  std::size_t max_segment_bytes = 4u << 20;
  /// Test seam: substitute for ::write on the append path (failure
  /// injection — ENOSPC, short writes). Null = real write.
  std::function<ssize_t(int fd, const void* buf, std::size_t count)>
      write_override;
};

/// A terminal job's report document, retained once: the JobManager's job,
/// the journal's compaction table and, until recovery adopts it, the
/// boot-time recovered() snapshot share one buffer. Null when the job has
/// no report.
using ReportBuffer = std::shared_ptr<const std::string>;

/// Everything the replay learned about one job.
struct RecoveredJob {
  std::string request_json;  ///< admit envelope (JobRequest::to_json text)
  /// unit index -> checkpoint document (engine-specific).
  std::map<std::size_t, std::string> checkpoints;
  std::size_t checkpoint_total = 0;  ///< "total" of the latest checkpoint
  bool has_result = false;
  std::string result_state;   ///< terminal state of the result record
  std::string outcome_json;   ///< Outcome document
  std::string failure_json;   ///< Failure document; empty = none
  std::string report_kind;
  ReportBuffer report_json;   ///< full engine report document; null = none
};

struct RecoveredState {
  /// Job id -> replayed job, admission order (ids are monotone). Emptied
  /// by Journal::take_recovered_jobs once recovery has adopted them.
  std::map<std::uint64_t, RecoveredJob> jobs;
  /// True when the previous process drained and wrote the marker as its
  /// last record: nothing was interrupted.
  bool clean_shutdown = false;
  /// Lines whose checksum or JSON failed verification (torn tail, rot).
  std::size_t skipped_records = 0;
  /// Id of the job whose result record replayed last (0 = none): the
  /// most recently completed job, which the JobManager never evicts.
  std::uint64_t last_completed = 0;
};

class Journal {
 public:
  /// Opens the journal: creates state_dir if needed, replays every
  /// existing segment into recovered(), rewrites the compacted state as
  /// a fresh segment, and deletes the old ones. Throws
  /// core::SolverError(kInternal) only when the directory itself cannot
  /// be created or a first segment cannot be opened — segment *content*
  /// problems are skipped and counted, never fatal.
  explicit Journal(JournalOptions options);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// State replayed at open: a snapshot of the previous life, before
  /// recovery adopts or forgets any of its jobs.
  const RecoveredState& recovered() const { return recovered_; }
  /// Hand the snapshot's jobs to their new owner and drop them here, so
  /// the snapshot stops pinning restored reports and checkpoint maps for
  /// the life of the process; clean_shutdown and skipped_records stay.
  std::map<std::uint64_t, RecoveredJob> take_recovered_jobs();

  // Append one record. All appends are thread-safe and never throw: a
  // failing append degrades the journal (see degraded()) and returns.
  // Each append also updates the compaction table from its arguments
  // (never by parsing the record back); the documents passed in are
  // stored as given, so they must be the canonical JSON that replay's
  // parse-and-dump reproduces (what core::JsonWriter emits).
  void append_admit(std::uint64_t id, std::string_view request_json);
  /// One executor slot's units — (unit index, checkpoint document)
  /// pairs — as one record: one write(2), at most one fsync.
  void append_checkpoints(
      std::uint64_t id, std::size_t total,
      std::vector<std::pair<std::size_t, std::string>> units);
  /// A one-unit slot.
  void append_checkpoint(std::uint64_t id, std::size_t unit,
                         std::size_t total, std::string_view data_json) {
    append_checkpoints(id, total, {{unit, std::string(data_json)}});
  }
  /// The table keeps `report` itself, not a copy (null = no report,
  /// journaled as JSON null).
  void append_result(std::uint64_t id, std::string_view state,
                     std::string_view outcome_json,
                     std::string_view failure_json,  // "" = no failure
                     std::string_view report_kind, ReportBuffer report);
  void append_clean_shutdown();

  /// Drop a job from the compaction table and release its report
  /// buffer; the next compaction leaves it out of the log. Called by the
  /// JobManager for every job it stops holding.
  void forget(std::uint64_t id);
  /// Rewrite the compaction table into a fresh segment now (a no-op once
  /// degraded).
  void compact();

  /// Force any batched records to disk now.
  void sync();

  /// True once an append-path failure switched the journal off; the
  /// daemon keeps running from memory.
  bool degraded() const;
  /// Append-path failures observed (normally 0, or 1 once degraded —
  /// appends after the switch are no-ops, not repeated failures).
  std::uint64_t degraded_events() const;
  /// Bytes in the live segment (compacted snapshot + appends).
  std::uint64_t bytes() const;
  /// Live segment files on disk.
  std::size_t segments() const;
  /// fsync(2) calls on segments since open (the boot compaction's
  /// included).
  std::uint64_t fsyncs() const;
  /// Compactions since open, online and compact() alike (the boot
  /// rewrite is not counted).
  std::uint64_t compactions() const;

  /// Frame one payload as a journal line: "<crc32-hex> <payload>\n".
  /// Exposed for tests and for hand-building recovery corpora.
  static std::string frame(std::string_view payload);

  /// Replay a state directory without opening it for append (no
  /// compaction, no mutation): the read-only half of the constructor,
  /// exposed for tests and offline inspection. A missing directory is an
  /// empty state.
  static RecoveredState replay(const std::string& state_dir);

 private:
  void degrade_locked(const char* what);
  bool write_all_locked(std::string_view data);
  bool fsync_locked();
  void append_locked(std::string_view payload, bool always_sync);
  bool write_table_locked();
  void compact_locked();
  bool open_segment_locked(std::uint64_t seq);

  JournalOptions options_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;           ///< seq of the NEXT segment to create
  std::string live_segment_;             ///< path of the open segment
  std::uint64_t live_bytes_ = 0;         ///< bytes written to the open segment
  std::uint64_t appended_since_compact_ = 0;
  std::uint64_t compacted_bytes_ = 0;    ///< bytes the last compaction wrote
  std::size_t unsynced_records_ = 0;
  bool degraded_ = false;
  std::uint64_t degraded_events_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t segment_count_ = 0;
  RecoveredState recovered_;             ///< snapshot at open
  /// Compaction tail table: everything the journal has recovered *and*
  /// appended, less what the JobManager forgot, kept up to date by the
  /// typed appends, so it can rewrite minimal state by itself.
  std::map<std::uint64_t, RecoveredJob> table_;
  std::uint64_t last_result_ = 0;        ///< newest result's job: written last
};

}  // namespace msbist::service
