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
// Threading. One writer thread, started once the boot compaction is
// done, owns the live segment, the compaction table and every write,
// fsync and compaction; every append is queued for it in call order and
// written in that order. append_checkpoints returns at once and runs its
// `written` callback on the writer once the record has been write()n.
// append_admit, append_result, append_clean_shutdown, compact and sync
// return only once the writer has written and fsynced their record (or
// finished the compaction). The queue holds at most kMaxBacklogBytes of
// documents: a checkpoint or result appender blocks while it is full,
// never once the journal is degraded; an admit, which the JobManager
// queues under its own lock, never blocks.
//
// fsync policy. Admissions, results, and the shutdown marker are rare
// and valuable: they fsync before their caller returns. Checkpoints are
// frequent and individually cheap to lose (a lost checkpoint re-tests
// one slot): they batch, fsyncing once fsync_every_records have been
// written since the last fsync. The writer commits in groups: it writes
// every record queued so far, then makes at most one fsync, which covers
// them all, so grouping never adds an fsync. The JobManager counts a unit
// done only once its checkpoint record is written, and a SIGKILL loses
// only data never write()n — the page cache survives process death — so
// a SIGKILL can lose queued checkpoints (at most kMaxBacklogBytes of
// them) but never one of a unit the daemon reported done; batching only
// risks loss on power/kernel failure, bounded to the batch window.
//
// Segments and compaction. Records append to journal-NNNNNN.wal. At
// open, the journal replays every segment and rewrites the *compacted*
// state (per job: admit, its live checkpoints as one record, result)
// into a fresh segment, deleting the old ones once that
// rewrite is durable — so the log never accumulates history across
// restarts. The same compaction
// runs online, on the writer, once the bytes appended since the last
// compaction exceed max(max_segment_bytes, bytes that compaction wrote):
// each rewrite is paid for by at least as many appended bytes, so online
// compaction writes less than twice what was appended, however many
// reports are retained. The writer starts it only after it has released
// the caller whose record crossed the threshold (often a job's result),
// so no caller waits for a compaction its own record started; records
// queued meanwhile wait for it.
//
// Retention. The journal has no policy of its own: the JobManager alone
// decides which jobs are kept (its byte budget, service/job_manager.h)
// and calls forget(id) for every job it evicts or, at boot, does not
// adopt. forget drops the job from the compaction table at once, which
// releases its report buffer, and never waits for the writer; the job
// leaves the log at the next compaction. Compaction writes the job whose
// result was journaled last at the end, so a replay still recovers it as
// last_completed.
//
// Report buffers. The table holds each report packed (core::PackedText,
// shared with the JobManager), never as text: append_result journals the
// caller's text, packs it once and returns that buffer for the caller to
// retain, compaction unpacks one report at a time straight into its
// record, and replay packs each report as its line is applied, so a boot
// holds at most one report unpacked. The bytes on disk are the same JSON
// either way.
//
// Failure posture. The journal is an availability feature and must
// never become an outage: any append-path failure (ENOSPC, EIO, short
// write) flips the journal into degraded mode — one warning on stderr,
// a counter for /metrics, and every later append a silent no-op that
// returns at once (records still queued are dropped). The daemon keeps
// serving from memory exactly as it did before this layer.
//
// Status reads (degraded(), bytes(), fsyncs(), ...) are atomics the
// writer publishes: /metrics and /healthz never wait on the disk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/pack.h"

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
  /// injection — ENOSPC, short writes — and stalls). Called with one
  /// whole record line, from the writer thread once the journal is open.
  /// Null = real write.
  std::function<ssize_t(int fd, const void* buf, std::size_t count)>
      write_override;
};

/// A terminal job's report document, retained once and packed: the
/// JobManager's job, the journal's compaction table and, until recovery
/// adopts it, the boot-time recovered() snapshot share one buffer. Null
/// when the job has no report.
using ReportBuffer = std::shared_ptr<const core::PackedText>;

/// The buffer of a report document ("" = no report: null).
inline ReportBuffer pack_report(std::string_view report_json) {
  if (report_json.empty()) return nullptr;
  return std::make_shared<const core::PackedText>(report_json);
}

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
  /// True when the state directory held no segment: no previous process
  /// journaled here, so nothing can have been interrupted either.
  bool first_boot = false;
  /// Lines whose checksum or JSON failed verification (torn tail, rot).
  std::size_t skipped_records = 0;
  /// Id of the job whose result record replayed last (0 = none): the
  /// most recently completed job, which the JobManager never evicts.
  std::uint64_t last_completed = 0;
};

class Journal {
 public:
  /// Documents the append queue may hold before checkpoint and result
  /// appenders block: what a SIGKILL can lose on top of the work in
  /// flight, all of it records of units not yet counted done. A record
  /// larger than this still goes through once the queue is empty.
  static constexpr std::size_t kMaxBacklogBytes = 1u << 20;

  /// Names one queued record, in queue order (see wait()).
  using Ticket = std::uint64_t;

  /// Opens the journal: creates state_dir if needed, replays every
  /// existing segment into recovered(), rewrites the compacted state as
  /// a fresh segment, deletes the old ones, and starts the writer.
  /// Throws core::SolverError(kInternal) only when the directory itself
  /// cannot be created or a first segment cannot be opened — segment
  /// *content* problems are skipped and counted, never fatal.
  explicit Journal(JournalOptions options);
  /// Writes every queued record, fsyncs and stops the writer.
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// State replayed at open: a snapshot of the previous life, before
  /// recovery adopts or forgets any of its jobs.
  const RecoveredState& recovered() const { return recovered_; }
  /// Hand the snapshot's jobs to their new owner and drop them here, so
  /// the snapshot stops pinning restored reports and checkpoint maps for
  /// the life of the process; clean_shutdown, first_boot and
  /// skipped_records stay.
  std::map<std::uint64_t, RecoveredJob> take_recovered_jobs();

  // Append one record. All appends are thread-safe and never throw: a
  // failing write degrades the journal (see degraded()). The writer
  // also folds each record into the compaction table from the typed
  // arguments (never by parsing the record back); the documents passed
  // in are stored as given, so they must be the canonical JSON that
  // replay's parse-and-dump reproduces (what core::JsonWriter emits).
  // Returns once the record is written and fsynced.
  void append_admit(std::uint64_t id, std::string_view request_json) {
    wait(queue_admit(id, request_json));
  }
  /// append_admit's first half, for a caller that orders the admission
  /// under a lock of its own and waits for the disk outside it: queues
  /// the record and returns its ticket at once, even past
  /// kMaxBacklogBytes (0 once degraded). `request_json` must stay alive
  /// until wait(ticket) returns.
  Ticket queue_admit(std::uint64_t id, std::string_view request_json);
  /// Returns once the ticket's record is written and fsynced, or was
  /// dropped by a degraded journal.
  void wait(Ticket ticket);
  /// One executor slot's units — (unit index, checkpoint document)
  /// pairs — as one record: one write(2), at most one fsync. Returns
  /// once the record is queued; the writer calls `written` (which must
  /// not throw) right after the record's write(2), or when a degraded
  /// journal drops it (then possibly before this returns).
  void append_checkpoints(
      std::uint64_t id, std::size_t total,
      std::vector<std::pair<std::size_t, std::string>> units,
      std::function<void()> written = {});
  /// A one-unit slot.
  void append_checkpoint(std::uint64_t id, std::size_t unit,
                         std::size_t total, std::string_view data_json) {
    append_checkpoints(id, total, {{unit, std::string(data_json)}});
  }
  /// `report_json` is journaled as given ("" = no report, journaled as
  /// JSON null) and packed once; the table keeps that buffer, and it is
  /// returned for the caller to retain rather than pack again. A degraded
  /// journal still packs and returns it. Returns once the record is
  /// written and fsynced.
  ReportBuffer append_result(std::uint64_t id, std::string_view state,
                             std::string_view outcome_json,
                             std::string_view failure_json,  // "" = no failure
                             std::string_view report_kind = "",
                             std::string_view report_json = "");
  /// Returns once the marker is written and fsynced.
  void append_clean_shutdown();

  /// Drop a job from the compaction table and release its report
  /// buffer; the next compaction leaves it out of the log. Called by the
  /// JobManager for every job it stops holding. Never waits for the
  /// writer.
  void forget(std::uint64_t id);
  /// Rewrite the compaction table into a fresh segment, after every
  /// record queued so far; returns once it is done (a no-op once
  /// degraded).
  void compact();

  /// Write every queued record and fsync; returns once that is done and
  /// a compaction they made due has run.
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
  /// included), and the seconds the writer spent in them.
  std::uint64_t fsyncs() const;
  double fsync_seconds() const;
  /// Compactions since open, online and compact() alike (the boot
  /// rewrite is not counted), and the seconds they took, their fsyncs
  /// included.
  std::uint64_t compactions() const;
  double compaction_seconds() const;
  /// Documents queued and not yet written (at most about
  /// kMaxBacklogBytes).
  std::uint64_t backlog_bytes() const;
  /// Appends that had to wait for the writer to drain a full queue.
  std::uint64_t backlog_waits() const;

  /// Frame one payload as a journal line: "<crc32-hex> <payload>\n".
  /// Exposed for tests and for hand-building recovery corpora.
  static std::string frame(std::string_view payload);

  /// Replay a state directory without opening it for append (no
  /// compaction, no mutation): the read-only half of the constructor,
  /// exposed for tests and offline inspection. A missing directory is an
  /// empty state.
  static RecoveredState replay(const std::string& state_dir);

 private:
  struct Record;  // one queued append (journal.cpp)

  /// Queue `rec` (blocking while the queue is full) and return its
  /// ticket; 0, with nothing queued, once degraded.
  Ticket enqueue(Record rec);
  /// Mark every record up to `ticket` done and free `bytes` of queue.
  void release(Ticket ticket, std::size_t bytes);

  // Writer-thread side (the constructor's boot compaction aside, only
  // the writer runs these).
  void writer_loop();
  void run_batch(std::vector<Record>& batch);
  /// Fold one record into the table and write it (a degraded journal
  /// drops it), then run its `written` callback.
  void write_record(Record& rec);
  /// Fold `rec` into the table and return its framed line.
  std::string fold_record(Record& rec);
  void degrade(const char* what, const char* reason);
  bool write_line(std::string_view line);
  bool fsync_segment();
  bool write_table();
  void compact_now();
  bool open_segment(std::uint64_t seq);

  JournalOptions options_;

  // The queue, under mu_.
  std::mutex mu_;
  std::condition_variable queued_cv_;    ///< the writer: records, or stop
  std::condition_variable released_cv_;  ///< appenders: done, or room
  std::vector<Record> queue_;
  Ticket last_ticket_ = 0;               ///< last ticket handed out
  Ticket released_ = 0;                  ///< every ticket <= this is done
  std::size_t queued_bytes_ = 0;         ///< queued and not yet written
  bool stopping_ = false;

  // The writer's own state.
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;           ///< seq of the NEXT segment to create
  std::string live_segment_;             ///< path of the open segment
  std::uint64_t appended_since_compact_ = 0;
  std::uint64_t compacted_bytes_ = 0;    ///< bytes the last compaction wrote
  std::size_t unsynced_records_ = 0;
  std::uint64_t last_result_ = 0;        ///< newest result's job: written last

  /// Compaction tail table: everything the journal has recovered *and*
  /// written, less what the JobManager forgot, kept up to date by the
  /// writer from the typed appends, so it can rewrite minimal state by
  /// itself. Under table_mu_, which forget() and the writer take for one
  /// job at a time (a compaction holds it while it renders one job).
  std::mutex table_mu_;
  std::map<std::uint64_t, RecoveredJob> table_;

  // Published by the writer for lock-free status reads.
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> degraded_events_{0};
  std::atomic<std::uint64_t> live_bytes_{0};  ///< bytes in the open segment
  std::atomic<std::size_t> segment_count_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> fsync_ns_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> compaction_ns_{0};
  std::atomic<std::uint64_t> backlog_bytes_{0};
  std::atomic<std::uint64_t> backlog_waits_{0};

  RecoveredState recovered_;             ///< snapshot at open
  std::thread writer_;                   ///< last: started once all is set
};

}  // namespace msbist::service
