// The daemon's heart: an asynchronous job executor on a fixed set of job
// slots, with bounded admission, priority dispatch, a device-population
// registry, and service metrics.
//
// Lifecycle state machine (terminal states marked *):
//
//   submit()            slot takes it             dispatch returns
//   ───────▶ queued ──────────────────▶ running ──┬──▶ succeeded*
//       │        │                         │      ├──▶ failed*     (Failure)
//  429 ─┘        │ cancel()                │      ├──▶ cancelled*  (cancel())
//  (queue full)  └──────────▶ cancelled*   │      └──▶ timed_out*  (limits)
//                                          │
//                          cancel()/deadline sets the stop flag; the
//                          engines poll it between dies/faults and
//                          wind down cooperatively.
//
// Admission: submit() rejects with a structured kOverloaded Failure
// (the daemon answers 429 + Retry-After) once the dispatch queue holds
// max_queue_depth jobs, and optionally once any one client_tag exceeds
// its queue share — backpressure instead of unbounded memory growth.
//
// Dispatch: accepted jobs enter a priority queue, not a FIFO. A slot
// coming free takes the queued job with the highest *effective*
// priority — the requested low/normal/high level plus one level per
// aging_seconds spent queued (anti-starvation: a saturated high lane
// cannot park the low lane forever). Ties prefer the client tag with
// the fewest running jobs (fairness), then submission order.
//
// Concurrency model: the manager owns `workers` slot threads and one
// queue, pending_. A free slot waits under the manager's mutex until
// pending_ holds a job, then takes the best one itself. Each job occupies
// one slot for its whole run and fans out further on its *own* engine
// threads (request.threads, clamped by the per-job and manager caps).
// Status snapshots are taken under the same mutex; progress counters are
// atomics so engine worker threads never contend with pollers. Nothing
// holds the mutex while it waits on the journal's disk: a submit queues
// its admit record under it and waits outside, and engine threads queue
// checkpoints that the journal's own writer thread writes. Only a cancel
// of a queued job journals its result under the mutex (a rare path).
//
// drain() flips the manager into shutdown: new submissions are rejected
// (the daemon answers 503), queued and running jobs get their stop flag
// set when `hard` draining, and the call blocks until pending_ is empty
// and every slot is idle. A soft drain — msbistd's SIGTERM path — thus
// runs every queued job to completion; a hard one still hands each
// queued job to a slot, which resolves it cancelled and journals that.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/job.h"
#include "core/outcome.h"
#include "production/batch.h"
#include "service/journal.h"
#include "service/metrics.h"

namespace msbist::service {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kSucceeded,
  kFailed,
  kCancelled,
  kTimedOut,
};

const char* to_string(JobState s);
inline bool is_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Point-in-time snapshot of one job (returned by value: safe to hold
/// while the job keeps running).
struct JobSnapshot {
  std::uint64_t id = 0;
  core::JobRequest request;
  JobState state = JobState::kQueued;
  std::size_t progress_done = 0;
  std::size_t progress_total = 0;
  /// Engine verdict; meaningful in kSucceeded only.
  core::Outcome outcome;
  /// Structured error; meaningful in kFailed/kTimedOut.
  core::Failure failure;
  /// Full report JSON, packed (text() unpacks it); set in kSucceeded
  /// only. The job's own buffer, shared rather than copied into every
  /// snapshot.
  ReportBuffer report_json;
  std::string report_kind;
  double queued_seconds = 0.0;   ///< since service start
  double started_seconds = 0.0;  ///< 0 while queued
  double finished_seconds = 0.0; ///< 0 until terminal
  /// True for jobs rebuilt from the journal after a restart (both
  /// re-admitted interrupted jobs and restored terminal ones).
  bool recovered = false;
  /// Work units spliced from journal checkpoints instead of re-executed
  /// (set once the job completes; 0 for from-scratch runs).
  std::size_t resumed_units = 0;

  /// The status document served by GET /jobs/{id}. Recovery fields are
  /// emitted only for recovered jobs, so pre-durability documents are
  /// byte-identical.
  void to_json(core::JsonWriter& w) const;
};

struct PopulationInfo {
  std::string name;
  std::size_t device_count = 0;
};

struct JobManagerOptions {
  /// Concurrent job slots.
  std::size_t workers = 2;
  /// Hard cap on any job's engine threads (0 = uncapped). Applied after
  /// the job's own limits.max_threads.
  std::size_t max_threads_per_job = 0;
  /// Byte budget of retained jobs: every job charges its request text
  /// (JobRequest::to_json) and a terminal job also its report's text
  /// (held packed, charged at its unpacked size). Past the
  /// budget the oldest terminal jobs are evicted from status/result
  /// queries; live jobs never are, nor is the most recently completed
  /// job, so a report larger than the whole budget stays fetchable until
  /// a newer job completes (the overshoot is at most that one job's
  /// charge). This is the only retention policy (msbistd --retain-mb):
  /// the journal keeps exactly the jobs the manager holds, because the
  /// manager makes it forget every job it evicts.
  std::size_t retain_bytes = 32u << 20;
  /// Bounded admission: submissions arriving while this many jobs are
  /// already queued (not yet running) are rejected with a kOverloaded
  /// Failure. 0 = unbounded (the PR-8 behavior).
  std::size_t max_queue_depth = 0;
  /// Per-client-tag queue share: one tag may hold at most this many
  /// queued jobs (0 = no per-tag cap). Keeps one chatty client from
  /// monopolizing a bounded queue.
  std::size_t max_queued_per_tag = 0;
  /// Retry hint carried in kOverloaded failures (the daemon's
  /// Retry-After header, rounded up to whole seconds on the wire).
  double retry_after_s = 1.0;
  /// Anti-starvation aging: each full interval a job spends queued
  /// raises its effective priority one level (low -> normal -> high).
  /// 0 disables aging.
  double aging_seconds = 5.0;
  /// Durable state directory (see service/journal.h). Empty = run
  /// in-memory only, the pre-durability behavior.
  std::string state_dir;
  /// Journal fsync batching for checkpoint-class records — one per
  /// executor slot (1 = every record; see
  /// JournalOptions::fsync_every_records).
  std::size_t journal_fsync_every = 8;
};

/// What submit() resolved to: a fresh job, or — when the request carried
/// an idempotency_key the executor has already accepted — the id of the
/// existing job, so a client retrying a dropped 202 never runs the lot
/// twice.
struct SubmitResult {
  std::uint64_t id = 0;
  bool deduplicated = false;
};

/// Durability/recovery status for /healthz and /metrics.
struct JournalStatus {
  bool enabled = false;         ///< a --state-dir journal is attached
  bool clean_shutdown = false;  ///< previous process drained cleanly
  bool first_boot = false;      ///< the state dir held no journal segment
  bool degraded = false;        ///< journal switched off by a write failure
  std::uint64_t recovered_jobs = 0;
  std::uint64_t resumed_jobs = 0;
  JournalGauges gauges;
};

class JobManager {
 public:
  explicit JobManager(JobManagerOptions options = {});
  ~JobManager();  ///< drain(hard=true), then joins the slots

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validate and enqueue. Returns the job id; throws
  /// core::SolverError(kBadInput) for an invalid request (unknown
  /// population, bad tier name caught later at dispatch),
  /// core::SolverError(kOverloaded) when bounded admission rejects the
  /// job (queue full / tag over its share), and std::runtime_error when
  /// draining.
  std::uint64_t submit(core::JobRequest request) {
    return submit_request(std::move(request)).id;
  }

  /// submit() plus idempotency: a request whose idempotency_key matches
  /// a still-retained job short-circuits to that job's id with
  /// deduplicated = true (no admission checks, nothing enqueued).
  SubmitResult submit_request(core::JobRequest request);

  /// Re-admit the non-terminal jobs replayed from the journal (terminal
  /// ones are restored in the constructor so /jobs/{id}/result works
  /// immediately). Called by the daemon *after* register_population so
  /// recovered jobs can resolve their populations; a no-op without a
  /// journal and on second call. The journal forgets every replayed job
  /// that boot does not hold — one without an admit record, with a
  /// request this daemon rejects, or past the byte budget — and when
  /// there was any, this compacts the journal once, so a restart never
  /// replays a job the manager dropped.
  void recover_jobs();

  /// Durability status snapshot for /healthz and /metrics, the journal's
  /// own counters included (all-zeros when running without state_dir).
  /// Takes no lock and never waits on the disk.
  JournalStatus journal_status() const;

  std::optional<JobSnapshot> get(std::uint64_t id) const;
  std::vector<JobSnapshot> list() const;

  /// Request cancellation. Queued jobs cancel immediately; running jobs
  /// get their stop flag set and reach kCancelled when the engine winds
  /// down. Returns false for unknown ids and already-terminal jobs.
  bool cancel(std::uint64_t id);

  /// Register (or replace) a named device population.
  void register_population(const std::string& name,
                           std::vector<production::DieSpec> dies);
  std::vector<PopulationInfo> populations() const;

  /// Jobs currently waiting in the dispatch queue (the /metrics
  /// queue_depth gauge and the admission-control input).
  std::size_t queue_depth() const;

  /// Per-client-tag fairness accounting, sorted by tag.
  std::vector<ClientStats> client_stats() const;

  /// Bytes the retained jobs charge against options().retain_bytes.
  std::size_t retained_bytes() const;

  const JobManagerOptions& options() const { return options_; }

  /// Stop accepting submissions and wait until the dispatch queue is
  /// empty and every slot is idle. hard = also set every queued and
  /// running job's stop flag (cooperative cancellation): a running job
  /// stops after its work unit in flight, and a queued one resolves
  /// cancelled when a slot takes it.
  void drain(bool hard = false);
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  ServiceMetrics& metrics() { return metrics_; }
  const ServiceMetrics& metrics() const { return metrics_; }

  /// Monotonic seconds since this manager was constructed (the clock
  /// all job timestamps are expressed in).
  double now_seconds() const;

 private:
  struct Job;

  void slot_loop();
  /// Pop the best job off pending_ (which must not be empty) and mark it
  /// running.
  std::shared_ptr<Job> take_next_locked();
  void admit_locked(const core::JobRequest& request);
  void execute(const std::shared_ptr<Job>& job);
  JobSnapshot snapshot_locked(const Job& job) const;
  void evict_terminal_locked();
  void forget_locked(std::uint64_t id);
  void restore_terminal_jobs();

  JobManagerOptions options_;
  ServiceMetrics metrics_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  /// The dispatch queue, the only one: queued (never cancelled) jobs in
  /// submission order; a slot takes the job take_next_locked() selects
  /// by effective priority.
  std::vector<std::shared_ptr<Job>> pending_;
  std::condition_variable work_cv_;  ///< pending_ gained a job, or stop_
  /// A slot finished a job, or a queued job was cancelled (drain waits).
  std::condition_variable idle_cv_;
  std::size_t running_ = 0;  ///< jobs the slots are executing
  bool stop_ = false;        ///< destructor: slots exit once pending_ is empty
  /// client_tag -> its counts; client_stats() fills in each row's tag.
  std::map<std::string, ClientStats> tags_;
  std::map<std::string, std::vector<production::DieSpec>> populations_;
  /// idempotency_key -> job id, maintained alongside jobs_ (entries die
  /// with their job at eviction; rebuilt from the journal at boot).
  std::map<std::string, std::uint64_t> idempotency_;
  /// What jobs_ charges against retain_bytes.
  std::size_t retained_bytes_ = 0;
  /// The job that became terminal last (0 = none): never evicted.
  std::uint64_t last_completed_ = 0;
  std::uint64_t next_id_ = 1;
  /// Durable state layer; null without state_dir.
  std::unique_ptr<Journal> journal_;
  bool recovery_done_ = false;      ///< recover_jobs() already ran
  /// The journal was told to forget a job; recover_jobs() then compacts
  /// once, dropping what the boot compaction rewrote.
  bool journal_forgot_ = false;
  std::atomic<bool> draining_{false};
  // Last: slots touch everything above; the destructor joins them.
  std::vector<std::thread> slots_;
};

}  // namespace msbist::service
