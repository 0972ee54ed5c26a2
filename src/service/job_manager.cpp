#include "service/job_manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/error.h"
#include "core/failure_json.h"
#include "core/json_value.h"
#include "service/dispatch.h"

namespace msbist::service {

namespace {

/// Map a journaled terminal-state name back onto JobState. Unknown names
/// (a newer schema, a corrupted-but-CRC-valid record) degrade to kFailed
/// rather than resurrecting the job as runnable.
JobState parse_terminal_state(std::string_view name) {
  if (name == "succeeded") return JobState::kSucceeded;
  if (name == "cancelled") return JobState::kCancelled;
  if (name == "timed_out") return JobState::kTimedOut;
  return JobState::kFailed;
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed_out";
  }
  return "?";
}

void JobSnapshot::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "job_status");
  w.member("id", id).member("state", to_string(state));
  w.key("request");
  request.to_json(w);
  w.key("progress")
      .begin_object()
      .member("done", progress_done)
      .member("total", progress_total)
      .end_object();
  if (state == JobState::kSucceeded) {
    w.key("outcome");
    outcome.to_json(w);
    w.member("report_kind", report_kind);
  }
  if (failure.code != core::ErrorCode::kNone) {
    w.key("failure");
    failure.to_json(w);
  }
  if (recovered) {
    w.key("recovery")
        .begin_object()
        .member("recovered", true)
        .member("resumed_from_checkpoint", resumed_units > 0)
        .member("resumed_units", resumed_units)
        .end_object();
  }
  w.key("times")
      .begin_object()
      .member("queued_seconds", queued_seconds);
  if (started_seconds > 0.0) w.member("started_seconds", started_seconds);
  if (finished_seconds > 0.0) w.member("finished_seconds", finished_seconds);
  w.end_object();
  w.end_object();
}

/// Everything the manager tracks per job. Mutable fields are written
/// under JobManager::mu_; the atomics are the lock-free lane shared with
/// engine worker threads (progress) and pollers (stop flags).
struct JobManager::Job {
  std::uint64_t id = 0;
  core::JobRequest request;
  /// Resolved at submit() so a later register_population() replacing the
  /// name cannot change a job already in flight.
  std::optional<std::vector<production::DieSpec>> population;

  JobState state = JobState::kQueued;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> total{0};
  std::atomic<bool> stop{false};            ///< cooperative stop flag
  std::atomic<bool> deadline_hit{false};

  core::Outcome outcome;
  core::Failure failure;
  /// Shared with the journal's table (and, for a restored job, with the
  /// journal's recovered() snapshot until recover_jobs()): the one
  /// retained copy, packed.
  ReportBuffer report_json;
  std::string report_kind;
  /// Size of the request's JSON text (the journaled admit envelope).
  std::size_t request_bytes = 0;
  double queued_seconds = 0.0;
  double started_seconds = 0.0;
  double finished_seconds = 0.0;

  // Durability (see service/journal.h).
  /// Checkpoints replayed from the journal, spliced into the dispatch
  /// via DispatchHooks::resume. Stable from recover_jobs() until the
  /// dispatch returns, so the pointer handed to dispatch is safe.
  std::map<std::size_t, std::string> resume_data;
  bool recovered = false;        ///< rebuilt from the journal at boot
  std::size_t resumed_units = 0; ///< units spliced instead of re-run

  /// What this job charges against JobManagerOptions::retain_bytes: its
  /// request text and, once terminal, its report's text (not its packed
  /// size, so packing changes no job's retention).
  std::size_t retained_charge() const {
    return request_bytes + (report_json ? report_json->raw_size() : 0);
  }
};

JobManager::JobManager(JobManagerOptions options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {
  if (!options_.state_dir.empty()) {
    JournalOptions jopts;
    jopts.state_dir = options_.state_dir;
    jopts.fsync_every_records =
        std::max<std::size_t>(1, options_.journal_fsync_every);
    journal_ = std::make_unique<Journal>(std::move(jopts));
    restore_terminal_jobs();
  }
  const std::size_t slots = std::max<std::size_t>(1, options_.workers);
  slots_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    slots_.emplace_back([this] { slot_loop(); });
  }
}

/// Constructor half of recovery: put every journaled *terminal* job
/// straight back into the table so /jobs/{id} and /jobs/{id}/result
/// answer across a restart, and advance next_id_ past everything the
/// previous life issued. Interrupted jobs wait for recover_jobs() —
/// they need the population registry, which the daemon fills after
/// construction.
void JobManager::restore_terminal_jobs() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, rec] : journal_->recovered().jobs) {
    next_id_ = std::max(next_id_, id + 1);
    if (!rec.has_result) continue;

    auto job = std::make_shared<Job>();
    try {
      job->request = core::JobRequest::from_json_text(rec.request_json);
    } catch (const std::exception&) {
      // No admit record, or an envelope this daemon rejects: the job
      // cannot be served, so the journal drops it too.
      forget_locked(id);
      continue;
    }
    job->id = id;
    job->state = parse_terminal_state(rec.result_state);
    try {
      const core::JsonValue v = core::parse_json(rec.outcome_json);
      if (!v.is_null()) {
        if (const core::JsonValue* pass = v.find("pass")) {
          job->outcome.pass = pass->as_bool();
        }
        if (const core::JsonValue* detail = v.find("detail")) {
          job->outcome.detail = detail->as_string();
        }
      }
    } catch (const std::exception&) {
    }
    if (!rec.failure_json.empty()) {
      try {
        job->failure = core::failure_from_json(core::parse_json(rec.failure_json));
      } catch (const std::exception&) {
      }
    }
    job->report_kind = rec.report_kind;
    job->report_json = rec.report_json;
    job->request_bytes = rec.request_json.size();
    job->recovered = true;
    // Timestamps belong to the previous process' clock: zeroed, and
    // to_json omits started/finished when 0.
    jobs_.emplace(id, job);
    retained_bytes_ += job->retained_charge();
    if (!job->request.idempotency_key.empty()) {
      idempotency_[job->request.idempotency_key] = id;
    }
    ++recovered_jobs_;
    metrics_.jobs_recovered.fetch_add(1, std::memory_order_relaxed);
  }
  last_completed_ = journal_->recovered().last_completed;
  evict_terminal_locked();
}

void JobManager::recover_jobs() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!journal_ || recovery_done_) return;
    recovery_done_ = true;
    // Terminal jobs were restored by the constructor; adopting the rest
    // releases the boot snapshot, which would otherwise pin every
    // restored report past its eviction.
    for (auto& [id, rec] : journal_->take_recovered_jobs()) {
      if (rec.has_result) continue;  // the constructor restored or forgot it

      auto job = std::make_shared<Job>();
      try {
        job->request = core::JobRequest::from_json_text(rec.request_json);
      } catch (const std::exception&) {
        forget_locked(id);  // checkpoints without an admit record, or a
        continue;           // request this daemon rejects
      }
      job->id = id;
      job->request_bytes = rec.request_json.size();
      job->recovered = true;
      ++recovered_jobs_;
      metrics_.jobs_recovered.fetch_add(1, std::memory_order_relaxed);

      if (!job->request.population.empty()) {
        const auto it = populations_.find(job->request.population);
        if (it == populations_.end()) {
          // The population was not re-registered after the restart: the
          // job cannot run again. Resolve it failed — and journal that
          // verdict so the next restart does not retry either.
          job->state = JobState::kFailed;
          job->failure.code = core::ErrorCode::kBadInput;
          job->failure.analysis = "recovery";
          job->failure.detail = "recovered job references unknown population \"" +
                                job->request.population + "\"";
          job->finished_seconds = now_seconds();
          jobs_.emplace(id, job);
          retained_bytes_ += job->retained_charge();
          last_completed_ = id;
          journal_->append_result(id, "failed", "null",
                                  core::to_json(job->failure));
          metrics_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        job->population = it->second;
      }

      job->resume_data = std::move(rec.checkpoints);
      job->state = JobState::kQueued;
      job->queued_seconds = now_seconds();
      job->done.store(job->resume_data.size(), std::memory_order_relaxed);
      job->total.store(rec.checkpoint_total, std::memory_order_relaxed);
      jobs_.emplace(id, job);
      retained_bytes_ += job->retained_charge();
      pending_.push_back(job);
      ++tags_[job->request.client_tag].queued;
      if (!job->request.idempotency_key.empty()) {
        idempotency_[job->request.idempotency_key] = id;
      }
      if (!job->resume_data.empty()) {
        ++resumed_jobs_;
        metrics_.jobs_resumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    evict_terminal_locked();
    // The boot compaction rewrote every replayed job; drop the forgotten
    // ones from disk before a slot takes a re-admitted job and appends.
    if (journal_forgot_) journal_->compact();
  }
  work_cv_.notify_all();
}

JournalStatus JobManager::journal_status() {
  JournalStatus st;
  if (!journal_) return st;
  st.enabled = true;
  st.clean_shutdown = journal_->recovered().clean_shutdown;
  st.first_boot = journal_->recovered().first_boot;
  st.degraded = journal_->degraded();
  st.gauges.journal_bytes = journal_->bytes();
  st.gauges.journal_segments = journal_->segments();
  st.gauges.skipped_records = journal_->recovered().skipped_records;
  // These counters live in the journal; mirror them into the atomics the
  // /metrics document reads.
  metrics_.journal_degraded.store(journal_->degraded_events(),
                                  std::memory_order_relaxed);
  metrics_.journal_fsyncs.store(journal_->fsyncs(), std::memory_order_relaxed);
  metrics_.journal_compactions.store(journal_->compactions(),
                                     std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  st.recovered_jobs = recovered_jobs_;
  st.resumed_jobs = resumed_jobs_;
  return st;
}

JobManager::~JobManager() {
  drain(/*hard=*/true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& slot : slots_) slot.join();
}

double JobManager::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SubmitResult JobManager::submit_request(core::JobRequest request) {
  if (draining_.load(std::memory_order_relaxed)) {
    throw std::runtime_error("job manager is draining");
  }
  // Reject what dispatch would reject anyway, but at submit time so the
  // client gets a 400 instead of a failed job. Tier and circuit names
  // resolve through the same helpers dispatch uses.
  if (request.kind == core::JobKind::kBatch) {
    (void)parse_tiers(request.tiers);
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  const std::string request_json = core::to_json(job->request);
  job->request_bytes = request_json.size();

  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Idempotent resubmit: a key the executor already accepted answers
    // with the existing job — before admission control, because a retry
    // of an accepted job must not bounce off a full queue.
    if (!job->request.idempotency_key.empty()) {
      const auto it = idempotency_.find(job->request.idempotency_key);
      if (it != idempotency_.end() && jobs_.count(it->second) != 0) {
        metrics_.jobs_deduplicated.fetch_add(1, std::memory_order_relaxed);
        return {it->second, true};
      }
    }
    if (!job->request.population.empty()) {
      const auto it = populations_.find(job->request.population);
      if (it == populations_.end()) {
        core::Failure f;
        f.code = core::ErrorCode::kBadInput;
        f.analysis = "job_request";
        f.detail = "unknown population \"" + job->request.population + "\"";
        throw core::SolverError(std::move(f));
      }
      job->population = it->second;
    }
    admit_locked(job->request);
    id = next_id_++;
    job->id = id;
    job->queued_seconds = now_seconds();
    jobs_.emplace(id, job);
    pending_.push_back(job);
    ClientStats& tag = tags_[job->request.client_tag];
    ++tag.submitted;
    ++tag.queued;
    if (!job->request.idempotency_key.empty()) {
      idempotency_[job->request.idempotency_key] = id;
    }
    retained_bytes_ += job->retained_charge();
    evict_terminal_locked();
    // Journal the admission before the 202 leaves the process: a crash
    // after this point re-admits the job instead of forgetting it. The
    // journal has its own lock and never throws (it degrades).
    if (journal_) journal_->append_admit(id, request_json);
  }
  metrics_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return {id, false};
}

void JobManager::admit_locked(const core::JobRequest& request) {
  const bool queue_full = options_.max_queue_depth > 0 &&
                          pending_.size() >= options_.max_queue_depth;
  bool tag_over_share = false;
  if (!queue_full && options_.max_queued_per_tag > 0) {
    const auto it = tags_.find(request.client_tag);
    tag_over_share =
        it != tags_.end() && it->second.queued >= options_.max_queued_per_tag;
  }
  if (!queue_full && !tag_over_share) return;

  ++tags_[request.client_tag].rejected;
  metrics_.jobs_rejected.fetch_add(1, std::memory_order_relaxed);
  metrics_.jobs_rejected_overload.fetch_add(1, std::memory_order_relaxed);

  core::Failure f;
  f.code = core::ErrorCode::kOverloaded;
  f.analysis = "admission";
  if (queue_full) {
    f.detail = "dispatch queue full (" + std::to_string(pending_.size()) +
               "/" + std::to_string(options_.max_queue_depth) + " queued)";
  } else {
    f.detail = "client tag \"" + request.client_tag + "\" holds its queue share (" +
               std::to_string(options_.max_queued_per_tag) + " queued)";
  }
  f.detail += "; retry after " + std::to_string(options_.retry_after_s) + " s";
  throw core::SolverError(std::move(f));
}

std::shared_ptr<JobManager::Job> JobManager::take_next_locked() {
  const double now = now_seconds();

  const auto effective_priority = [&](const Job& job) {
    int level = static_cast<int>(job.request.priority);
    if (options_.aging_seconds > 0.0) {
      level += static_cast<int>((now - job.queued_seconds) /
                                options_.aging_seconds);
    }
    return std::min(level, static_cast<int>(core::JobPriority::kHigh));
  };
  const auto running_for = [&](const Job& job) {
    const auto it = tags_.find(job.request.client_tag);
    return it == tags_.end() ? std::size_t{0} : it->second.running;
  };

  // pending_ is in submission order, so strict "better than" keeps the
  // FIFO tie-break for free.
  std::size_t best = 0;
  int best_level = effective_priority(*pending_[0]);
  std::size_t best_running = running_for(*pending_[0]);
  for (std::size_t i = 1; i < pending_.size(); ++i) {
    const int level = effective_priority(*pending_[i]);
    const std::size_t running = running_for(*pending_[i]);
    if (level > best_level ||
        (level == best_level && running < best_running)) {
      best = i;
      best_level = level;
      best_running = running;
    }
  }

  std::shared_ptr<Job> job = pending_[best];
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
  job->state = JobState::kRunning;
  job->started_seconds = now;
  ClientStats& tag = tags_[job->request.client_tag];
  --tag.queued;
  ++tag.running;
  return job;
}

void JobManager::slot_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping, and nothing left to run
      job = take_next_locked();
      ++running_;
    }
    metrics_.job_queue_seconds.observe(job->started_seconds -
                                       job->queued_seconds);
    execute(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

void JobManager::execute(const std::shared_ptr<Job>& job) {
  // Per-job resource limits: the manager-wide thread cap folds into the
  // request's own cap (dispatch clamps engine threads by it), and the
  // wall timeout folds into the stop flag the engines already poll.
  core::JobRequest request = job->request;
  if (options_.max_threads_per_job > 0) {
    request.limits.max_threads =
        request.limits.max_threads == 0
            ? options_.max_threads_per_job
            : std::min(request.limits.max_threads,
                       options_.max_threads_per_job);
  }
  const double deadline =
      request.limits.wall_timeout_s > 0.0
          ? job->started_seconds + request.limits.wall_timeout_s
          : 0.0;

  DispatchHooks hooks;
  hooks.should_stop = [this, job, deadline] {
    if (job->stop.load(std::memory_order_relaxed)) return true;
    if (deadline > 0.0 && now_seconds() > deadline) {
      job->deadline_hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  hooks.progress = [job](std::size_t done, std::size_t total) {
    job->total.store(total, std::memory_order_relaxed);
    job->done.store(done, std::memory_order_relaxed);
  };
  if (journal_) {
    Journal* journal = journal_.get();
    hooks.unit_complete = [journal, job](std::size_t total,
                                         SlotCheckpoints units) {
      journal->append_checkpoints(job->id, total, std::move(units));
    };
  }
  // resume_data is only ever filled by recover_jobs() before the job is
  // queued and cleared once the dispatch returns, so handing dispatch a
  // pointer into the job is safe.
  if (!job->resume_data.empty()) hooks.resume = &job->resume_data;

  JobState final_state = JobState::kSucceeded;
  core::Outcome outcome;
  core::Failure failure;
  std::string report_text;  // journaled, then dropped: the job keeps it packed
  std::string report_kind;
  std::size_t resumed_units = 0;
  try {
    DispatchResult result = job->population
                                ? dispatch(request, *job->population, hooks)
                                : dispatch(request, hooks);
    resumed_units = result.resumed_units;
    if (result.stopped) {
      if (job->deadline_hit.load(std::memory_order_relaxed)) {
        final_state = JobState::kTimedOut;
        failure.code = core::ErrorCode::kTimeout;
        failure.analysis = "job";
        failure.detail = "wall timeout of " +
                         std::to_string(request.limits.wall_timeout_s) +
                         " s exceeded";
      } else {
        final_state = JobState::kCancelled;
      }
    } else {
      outcome = std::move(result.outcome);
      report_text = std::move(result.report_json);
      report_kind = std::move(result.report_kind);
    }
  } catch (const core::SolverError& e) {
    final_state = JobState::kFailed;
    failure = e.failure();
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    failure.code = core::ErrorCode::kInternal;
    failure.analysis = "job";
    failure.detail = e.what();
  }

  // WAL ordering: the terminal record hits the journal before memory —
  // a crash between the two re-runs nothing (the journal already knows
  // the verdict). The result fsyncs immediately. The report is packed
  // once, by the journal when there is one.
  ReportBuffer report_json =
      journal_ ? journal_->append_result(
                     job->id, to_string(final_state), core::to_json(outcome),
                     failure.code != core::ErrorCode::kNone ? core::to_json(failure)
                                                            : "",
                     report_kind, report_text)
               : pack_report(report_text);
  report_text = std::string();

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = final_state;
    job->outcome = std::move(outcome);
    job->failure = std::move(failure);
    job->report_json = std::move(report_json);
    job->report_kind = std::move(report_kind);
    job->resumed_units = resumed_units;
    job->resume_data.clear();
    job->finished_seconds = now_seconds();
    ClientStats& tag = tags_[job->request.client_tag];
    --tag.running;
    ++tag.completed;
    if (job->report_json) retained_bytes_ += job->report_json->raw_size();
    last_completed_ = job->id;
    evict_terminal_locked();
  }
  if (resumed_units > 0) {
    metrics_.units_resumed.fetch_add(resumed_units, std::memory_order_relaxed);
  }
  metrics_.job_seconds.observe(job->finished_seconds - job->started_seconds);
  switch (final_state) {
    case JobState::kSucceeded:
      metrics_.jobs_succeeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kFailed:
      metrics_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kCancelled:
      metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kTimedOut:
      metrics_.jobs_timed_out.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
}

JobSnapshot JobManager::snapshot_locked(const Job& job) const {
  JobSnapshot s;
  s.id = job.id;
  s.request = job.request;
  s.state = job.state;
  s.progress_done = job.done.load(std::memory_order_relaxed);
  s.progress_total = job.total.load(std::memory_order_relaxed);
  s.outcome = job.outcome;
  s.failure = job.failure;
  s.report_json = job.report_json;
  s.report_kind = job.report_kind;
  s.queued_seconds = job.queued_seconds;
  s.started_seconds = job.started_seconds;
  s.finished_seconds = job.finished_seconds;
  s.recovered = job.recovered;
  s.resumed_units = job.resumed_units;
  return s;
}

std::optional<JobSnapshot> JobManager::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::vector<JobSnapshot> JobManager::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

bool JobManager::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (is_terminal(job.state)) return false;
  job.stop.store(true, std::memory_order_relaxed);
  if (job.state == JobState::kQueued) {
    // Never started: resolve immediately instead of waiting for a slot,
    // and free its place in the dispatch queue.
    const auto pending = std::find_if(
        pending_.begin(), pending_.end(),
        [&job](const std::shared_ptr<Job>& p) { return p->id == job.id; });
    if (pending != pending_.end()) pending_.erase(pending);
    job.state = JobState::kCancelled;
    job.finished_seconds = now_seconds();
    ClientStats& tag = tags_[job.request.client_tag];
    --tag.queued;
    ++tag.completed;
    metrics_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
    last_completed_ = job.id;
    if (journal_) {
      journal_->append_result(job.id, "cancelled", "null", "");
    }
    idle_cv_.notify_all();  // a drain may be waiting for pending_ to empty
  }
  return true;
}

void JobManager::register_population(const std::string& name,
                                     std::vector<production::DieSpec> dies) {
  std::lock_guard<std::mutex> lock(mu_);
  populations_[name] = std::move(dies);
}

std::vector<PopulationInfo> JobManager::populations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PopulationInfo> out;
  out.reserve(populations_.size());
  for (const auto& [name, dies] : populations_) {
    out.push_back({name, dies.size()});
  }
  return out;
}

std::size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::vector<ClientStats> JobManager::client_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ClientStats> out;
  out.reserve(tags_.size());
  for (const auto& [tag, counts] : tags_) {
    out.push_back(counts);
    out.back().tag = tag;
  }
  return out;
}

void JobManager::drain(bool hard) {
  draining_.store(true, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (hard) {
      for (auto& [id, job] : jobs_) {
        if (!is_terminal(job->state)) {
          job->stop.store(true, std::memory_order_relaxed);
        }
      }
    }
    idle_cv_.wait(lock, [this] { return pending_.empty() && running_ == 0; });
  }
  // Queue empty, every slot idle and nothing can be admitted any more:
  // the journal's final record is the clean-shutdown marker, so the next
  // boot knows nothing was interrupted.
  if (journal_) journal_->append_clean_shutdown();
}

std::size_t JobManager::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_bytes_;
}

void JobManager::evict_terminal_locked() {
  // std::map iterates in id order: oldest terminal first. Live jobs stay,
  // and so does the last job to complete, however large its report. The
  // journal forgets each evicted job, so it keeps what the manager keeps.
  for (auto it = jobs_.begin();
       it != jobs_.end() && retained_bytes_ > options_.retain_bytes;) {
    const Job& job = *it->second;
    if (!is_terminal(job.state) || it->first == last_completed_) {
      ++it;
      continue;
    }
    const std::string& key = job.request.idempotency_key;
    if (!key.empty()) {
      const auto idem = idempotency_.find(key);
      if (idem != idempotency_.end() && idem->second == it->first) {
        idempotency_.erase(idem);
      }
    }
    retained_bytes_ -= job.retained_charge();
    forget_locked(it->first);
    it = jobs_.erase(it);
  }
}

void JobManager::forget_locked(std::uint64_t id) {
  if (!journal_) return;
  journal_->forget(id);
  journal_forgot_ = true;
}

}  // namespace msbist::service
