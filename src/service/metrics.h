// Service observability: monotonic counters and latency histograms for
// the /metrics endpoint.
//
// Everything is lock-free atomics — request workers and job slots bump
// counters concurrently; a /metrics scrape reads them without stalling
// traffic. The histogram is fixed-bucket log-scale (100 us .. 100 s),
// which covers both a sub-millisecond status poll and a multi-minute
// fault campaign in 13 buckets; `sum` and `count` ride along so clients
// can derive rates and means exactly like a Prometheus histogram.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"

namespace msbist::service {

/// Log-scale latency histogram. Bucket i counts observations with
/// seconds <= kBounds[i]; the last bucket is the +Inf catch-all.
class LatencyHistogram {
 public:
  static constexpr std::array<double, 12> kBounds = {
      1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0};
  static constexpr std::size_t kBuckets = kBounds.size() + 1;

  void observe(double seconds) {
    std::size_t i = 0;
    while (i < kBounds.size() && seconds > kBounds[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Atomic double sum via CAS on the bit pattern.
    std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
    std::uint64_t desired;
    do {
      double current;
      static_assert(sizeof(current) == sizeof(expected));
      __builtin_memcpy(&current, &expected, sizeof(current));
      const double next = current + seconds;
      __builtin_memcpy(&desired, &next, sizeof(desired));
    } while (!sum_bits_.compare_exchange_weak(expected, desired,
                                              std::memory_order_relaxed));
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  double sum() const {
    const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
    double d;
    __builtin_memcpy(&d, &bits, sizeof(d));
    return d;
  }

  /// {"count":N,"sum":S,"buckets":[{"le":1e-4,"count":..},...,
  ///  {"le":null,"count":..}]} — le=null is the +Inf bucket.
  void to_json(core::JsonWriter& w) const {
    w.begin_object()
        .member("count", count())
        .member("sum", sum());
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < kBuckets; ++i) {
      w.begin_object();
      if (i < kBounds.size()) {
        w.member("le", kBounds[i]);
      } else {
        w.key("le").value(nullptr);
      }
      w.member("count", buckets_[i].load(std::memory_order_relaxed));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Fairness accounting for one client_tag ("" aggregates untagged
/// submissions): the JobManager's tag table, and the /metrics "clients"
/// section it supplies at scrape time.
struct ClientStats {
  std::string tag;
  std::uint64_t submitted = 0;   ///< accepted submissions
  std::uint64_t rejected = 0;    ///< bounced by admission control (429)
  std::uint64_t completed = 0;   ///< reached any terminal state
  std::uint64_t queued = 0;      ///< currently in the dispatch queue
  std::uint64_t running = 0;     ///< currently occupying a slot
};

/// Point-in-time gauges the JobManager supplies at scrape time.
struct ServiceGauges {
  std::uint64_t jobs_running = 0;
  std::uint64_t jobs_queued = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t populations = 0;
  /// What retained jobs charge against the retention budget, and the
  /// budget itself (--retain-mb, in bytes).
  std::uint64_t retained_bytes = 0;
  std::uint64_t retain_budget_bytes = 0;
};

/// What /metrics reads from the journal at scrape time: its gauges and
/// its own counters since boot (zeros when the daemon runs without
/// --state-dir).
struct JournalGauges {
  std::uint64_t journal_bytes = 0;       ///< live segment size
  std::uint64_t journal_segments = 0;    ///< segment files on disk
  std::uint64_t skipped_records = 0;     ///< corrupt lines skipped at boot
  /// Documents queued for the journal's writer and not yet written.
  std::uint64_t backlog_bytes = 0;
  /// Append-path failures that flipped durability off.
  std::uint64_t degraded_events = 0;
  /// fsync(2) calls and compactions, and the seconds the journal's writer
  /// spent in each (Journal::fsyncs, Journal::compactions and their
  /// _seconds): with backlog_bytes they show whether the disk keeps up.
  std::uint64_t fsyncs = 0;
  double fsync_seconds = 0.0;
  std::uint64_t compactions = 0;
  double compaction_seconds = 0.0;
  /// Appends that waited for the writer to drain a full queue
  /// (Journal::backlog_waits).
  std::uint64_t backlog_waits = 0;
};

/// All counters the daemon exports. Field names are the wire names.
struct ServiceMetrics {
  // HTTP surface.
  std::atomic<std::uint64_t> http_requests_total{0};
  std::atomic<std::uint64_t> http_responses_2xx{0};
  std::atomic<std::uint64_t> http_responses_4xx{0};
  std::atomic<std::uint64_t> http_responses_5xx{0};
  /// Connections that served at least one request / at least two
  /// requests (keep-alive reuse), and requests beyond each connection's
  /// first — the server-side connection-reuse picture.
  std::atomic<std::uint64_t> http_connections{0};
  std::atomic<std::uint64_t> reused_connections{0};
  std::atomic<std::uint64_t> keepalive_requests{0};
  LatencyHistogram request_seconds;

  // Job engine.
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_rejected{0};
  /// Subset of jobs_rejected bounced by bounded admission (HTTP 429).
  std::atomic<std::uint64_t> jobs_rejected_overload{0};
  std::atomic<std::uint64_t> jobs_succeeded{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};
  std::atomic<std::uint64_t> jobs_timed_out{0};
  LatencyHistogram job_seconds;       ///< running -> terminal
  LatencyHistogram job_queue_seconds; ///< submit -> running

  // Durability layer (see service/journal.h).
  /// Jobs rebuilt from the journal at boot (terminal + re-admitted).
  std::atomic<std::uint64_t> jobs_recovered{0};
  /// Interrupted jobs re-admitted with at least one usable checkpoint.
  std::atomic<std::uint64_t> jobs_resumed{0};
  /// Work units (dies / faults) restored from checkpoints instead of
  /// re-simulated across all resumed jobs.
  std::atomic<std::uint64_t> units_resumed{0};
  /// Duplicate submissions answered from the idempotency index.
  std::atomic<std::uint64_t> jobs_deduplicated{0};

  void count_response(int status) {
    if (status >= 500) {
      http_responses_5xx.fetch_add(1, std::memory_order_relaxed);
    } else if (status >= 400) {
      http_responses_4xx.fetch_add(1, std::memory_order_relaxed);
    } else {
      http_responses_2xx.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// The /metrics document (gauges and the per-client rows are supplied
  /// by the caller, which owns the job table; the journal_* counters come
  /// from `journal`, which owns them).
  void to_json(core::JsonWriter& w, const ServiceGauges& gauges,
               double uptime_seconds,
               const std::vector<ClientStats>& clients,
               const JournalGauges& journal = {}) const {
    w.begin_object()
        .member("kind", "service_metrics")
        .member("schema_version", 2)
        .member("uptime_seconds", uptime_seconds);
    w.key("counters")
        .begin_object()
        .member("http_requests_total",
                http_requests_total.load(std::memory_order_relaxed))
        .member("http_responses_2xx",
                http_responses_2xx.load(std::memory_order_relaxed))
        .member("http_responses_4xx",
                http_responses_4xx.load(std::memory_order_relaxed))
        .member("http_responses_5xx",
                http_responses_5xx.load(std::memory_order_relaxed))
        .member("http_connections",
                http_connections.load(std::memory_order_relaxed))
        .member("reused_connections",
                reused_connections.load(std::memory_order_relaxed))
        .member("keepalive_requests",
                keepalive_requests.load(std::memory_order_relaxed))
        .member("jobs_submitted", jobs_submitted.load(std::memory_order_relaxed))
        .member("jobs_rejected", jobs_rejected.load(std::memory_order_relaxed))
        .member("rejected_overload",
                jobs_rejected_overload.load(std::memory_order_relaxed))
        .member("jobs_succeeded", jobs_succeeded.load(std::memory_order_relaxed))
        .member("jobs_failed", jobs_failed.load(std::memory_order_relaxed))
        .member("jobs_cancelled", jobs_cancelled.load(std::memory_order_relaxed))
        .member("jobs_timed_out", jobs_timed_out.load(std::memory_order_relaxed))
        .member("jobs_recovered", jobs_recovered.load(std::memory_order_relaxed))
        .member("jobs_resumed", jobs_resumed.load(std::memory_order_relaxed))
        .member("units_resumed", units_resumed.load(std::memory_order_relaxed))
        .member("journal_degraded", journal.degraded_events)
        .member("journal_fsyncs", journal.fsyncs)
        .member("journal_fsync_seconds", journal.fsync_seconds)
        .member("journal_compactions", journal.compactions)
        .member("journal_compaction_seconds", journal.compaction_seconds)
        .member("journal_backlog_waits", journal.backlog_waits)
        .member("jobs_deduplicated",
                jobs_deduplicated.load(std::memory_order_relaxed))
        .end_object();
    w.key("gauges")
        .begin_object()
        .member("jobs_running", gauges.jobs_running)
        .member("jobs_queued", gauges.jobs_queued)
        .member("queue_depth", gauges.queue_depth)
        .member("populations", gauges.populations)
        .member("retained_bytes", gauges.retained_bytes)
        .member("retain_budget_bytes", gauges.retain_budget_bytes)
        .member("journal_bytes", journal.journal_bytes)
        .member("journal_segments", journal.journal_segments)
        .member("journal_skipped_records", journal.skipped_records)
        .member("journal_backlog_bytes", journal.backlog_bytes)
        .end_object();
    w.key("clients").begin_object();
    for (const ClientStats& row : clients) {
      w.key(row.tag.empty() ? "(untagged)" : row.tag)
          .begin_object()
          .member("submitted", row.submitted)
          .member("rejected", row.rejected)
          .member("completed", row.completed)
          .member("queued", row.queued)
          .member("running", row.running)
          .end_object();
    }
    w.end_object();
    w.key("histograms").begin_object();
    w.key("request_seconds");
    request_seconds.to_json(w);
    w.key("job_seconds");
    job_seconds.to_json(w);
    w.key("job_queue_seconds");
    job_queue_seconds.to_json(w);
    w.end_object();
    w.end_object();
  }
};

}  // namespace msbist::service
