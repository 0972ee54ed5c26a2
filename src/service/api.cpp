#include "service/api.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "core/error.h"
#include "core/job.h"
#include "core/json.h"
#include "core/json_value.h"
#include "service/dispatch.h"

namespace msbist::service {

namespace {

/// {"kind":"error","schema_version":N,"failure":{...}} — the one error
/// shape every endpoint emits, so clients parse a single schema.
HttpResponse failure_response(int status, const core::Failure& failure) {
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "error");
  w.key("failure");
  failure.to_json(w);
  w.end_object();
  return HttpResponse::json(status, w.str());
}

HttpResponse error_response(int status, core::ErrorCode code,
                            std::string analysis, std::string detail) {
  core::Failure f;
  f.code = code;
  f.analysis = std::move(analysis);
  f.detail = std::move(detail);
  return failure_response(status, f);
}

HttpResponse not_found(const std::string& what) {
  return error_response(404, core::ErrorCode::kBadInput, "http",
                        "no such " + what);
}

/// Parse "{id}" or "{id}/suffix" out of the path after "/jobs/".
/// Returns false when the id is not a plain decimal number.
bool parse_job_path(std::string_view rest, std::uint64_t& id,
                    std::string_view& suffix) {
  const std::size_t slash = rest.find('/');
  const std::string_view id_text =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  suffix = slash == std::string_view::npos ? std::string_view{}
                                           : rest.substr(slash);
  if (id_text.empty()) return false;
  const auto res =
      std::from_chars(id_text.data(), id_text.data() + id_text.size(), id);
  return res.ec == std::errc{} && res.ptr == id_text.data() + id_text.size();
}

/// The structured 429: the kOverloaded Failure as body plus a
/// Retry-After header (whole seconds, rounded up, floor 1 — RFC 9110
/// wants an integer) carrying the manager's configured retry hint.
HttpResponse overloaded_response(JobManager& manager,
                                 const core::Failure& failure) {
  HttpResponse resp = failure_response(429, failure);
  const double hint = manager.options().retry_after_s;
  const long long seconds =
      std::max(1LL, static_cast<long long>(std::ceil(hint)));
  resp.headers["Retry-After"] = std::to_string(seconds);
  return resp;
}

HttpResponse submit_job(JobManager& manager, const HttpRequest& req) {
  if (manager.draining()) {
    return error_response(503, core::ErrorCode::kInternal, "job_manager",
                          "service is draining; not accepting jobs");
  }
  core::JobRequest request;
  try {
    request = core::JobRequest::from_json_text(req.body);
  } catch (const core::SolverError& e) {
    return failure_response(400, e.failure());
  }
  SubmitResult result;
  try {
    result = manager.submit_request(std::move(request));
  } catch (const core::SolverError& e) {
    if (e.code() == core::ErrorCode::kOverloaded) {
      return overloaded_response(manager, e.failure());
    }
    return failure_response(400, e.failure());
  } catch (const std::runtime_error& e) {
    // submit_request() only throws runtime_error for the drain race.
    return error_response(503, core::ErrorCode::kInternal, "job_manager",
                          e.what());
  }
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "job_accepted");
  w.member("id", result.id);
  // A duplicate idempotency_key answers 200 with the existing job (it
  // may be in any state by now); a fresh admission answers the usual
  // 202 queued.
  if (result.deduplicated) {
    w.member("deduplicated", true);
  } else {
    w.member("state", "queued");
  }
  w.member("status_url", "/jobs/" + std::to_string(result.id)).end_object();
  return HttpResponse::json(result.deduplicated ? 200 : 202, w.str());
}

HttpResponse job_status(const JobSnapshot& snap) {
  core::JsonWriter w;
  snap.to_json(w);
  return HttpResponse::json(200, w.str());
}

HttpResponse job_result(const JobSnapshot& snap) {
  if (!is_terminal(snap.state)) {
    return error_response(
        409, core::ErrorCode::kBadInput, "http",
        "job " + std::to_string(snap.id) + " is still " +
            to_string(snap.state) + "; poll /jobs/" +
            std::to_string(snap.id) + " until it is terminal");
  }
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "job_result");
  w.member("id", snap.id).member("state", to_string(snap.state));
  if (snap.state == JobState::kSucceeded) {
    w.key("outcome");
    snap.outcome.to_json(w);
    w.member("report_kind", snap.report_kind);
    w.key("report");
    if (snap.report_json) {
      // Unpacked straight into the response, which is moved, not copied.
      w.raw_value_from([&](std::string& out) { snap.report_json->append_text(out); });
    } else {
      w.raw_value("null");
    }
  } else if (snap.failure.code != core::ErrorCode::kNone) {
    w.key("failure");
    snap.failure.to_json(w);
  }
  w.end_object();
  return HttpResponse::json(200, std::move(w).str());
}

HttpResponse cancel_job(JobManager& manager, std::uint64_t id) {
  const auto snap = manager.get(id);
  if (!snap) return not_found("job " + std::to_string(id));
  const bool accepted = manager.cancel(id);
  if (!accepted) {
    return error_response(409, core::ErrorCode::kBadInput, "http",
                          "job " + std::to_string(id) + " is already " +
                              to_string(snap->state));
  }
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "job_cancel");
  w.member("id", id).member("cancel_requested", true).end_object();
  return HttpResponse::json(200, w.str());
}

HttpResponse list_jobs(JobManager& manager) {
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "job_list");
  w.key("jobs").begin_array();
  for (const auto& snap : manager.list()) snap.to_json(w);
  w.end_array().end_object();
  return HttpResponse::json(200, w.str());
}

/// POST /populations body:
///   {"name": "...", "device_count": N, "batch_seed": S}
/// builds the canonical lockstep-screen population under that name
/// (N in [1, core::kMaxDeviceCount], as for a job's device_count).
HttpResponse register_population(JobManager& manager,
                                 const HttpRequest& req) {
  core::Failure bad;
  bad.code = core::ErrorCode::kBadInput;
  bad.analysis = "population_request";

  core::JsonValue doc;
  try {
    doc = core::parse_json(req.body);
  } catch (const core::JsonParseError& e) {
    bad.detail = e.what();
    return failure_response(400, bad);
  }
  if (!doc.is_object()) {
    bad.detail = "population request must be a JSON object";
    return failure_response(400, bad);
  }
  const core::JsonValue* name = doc.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    bad.detail = "\"name\" must be a non-empty string";
    return failure_response(400, bad);
  }
  std::size_t device_count = 32;
  if (const core::JsonValue* v = doc.find("device_count")) {
    // as_double first: as_u64 throws on a negative integer.
    if (!v->is_integer() || v->as_double() < 1 || v->as_u64() > core::kMaxDeviceCount) {
      bad.detail = "\"device_count\" must be an integer in [1, " +
                   std::to_string(core::kMaxDeviceCount) + "]";
      return failure_response(400, bad);
    }
    device_count = static_cast<std::size_t>(v->as_u64());
  }
  std::uint64_t batch_seed = 1995;
  if (const core::JsonValue* v = doc.find("batch_seed")) {
    // JobRequest's rule for the same field: any exact integer >= 0 that
    // fits 64 bits, read unsigned.
    if (!v->is_integer() || v->as_double() < 0) {
      bad.detail = "\"batch_seed\" must be a non-negative integer";
      return failure_response(400, bad);
    }
    batch_seed = v->as_u64();
  }

  manager.register_population(
      name->as_string(), lockstep_screen_population(device_count, batch_seed));

  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "population_registered");
  w.member("name", name->as_string())
      .member("device_count", device_count)
      .member("batch_seed", batch_seed)
      .end_object();
  return HttpResponse::json(201, w.str());
}

HttpResponse list_populations(JobManager& manager) {
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "population_list");
  w.key("populations").begin_array();
  for (const auto& info : manager.populations()) {
    w.begin_object()
        .member("name", info.name)
        .member("device_count", info.device_count)
        .end_object();
  }
  w.end_array().end_object();
  return HttpResponse::json(200, w.str());
}

HttpResponse metrics(JobManager& manager) {
  ServiceGauges gauges;
  const std::vector<ClientStats> clients = manager.client_stats();
  for (const ClientStats& c : clients) {
    gauges.jobs_running += c.running;
    gauges.jobs_queued += c.queued;
  }
  gauges.queue_depth = manager.queue_depth();
  gauges.populations = manager.populations().size();
  gauges.retained_bytes = manager.retained_bytes();
  gauges.retain_budget_bytes = manager.options().retain_bytes;
  const JournalStatus journal = manager.journal_status();
  core::JsonWriter w;
  manager.metrics().to_json(w, gauges, manager.now_seconds(), clients,
                            journal.gauges);
  return HttpResponse::json(200, w.str());
}

HttpResponse healthz(JobManager& manager) {
  const JournalStatus journal = manager.journal_status();
  core::JsonWriter w;
  w.begin_object();
  core::write_report_envelope(w, "health");
  w.member("status", manager.draining() ? "draining" : "ok")
      .member("draining", manager.draining());
  if (journal.enabled) {
    w.key("recovery")
        .begin_object()
        .member("clean_shutdown", journal.clean_shutdown)
        .member("first_boot", journal.first_boot)
        .member("recovered_jobs", journal.recovered_jobs)
        .member("resumed_jobs", journal.resumed_jobs)
        .member("skipped_records", journal.gauges.skipped_records)
        .member("degraded", journal.degraded)
        .end_object();
  }
  w.end_object();
  return HttpResponse::json(200, w.str());
}

HttpResponse route(JobManager& manager, const HttpRequest& req) {
  const std::string_view target = req.target;

  if (target == "/jobs") {
    if (req.method == "POST") return submit_job(manager, req);
    if (req.method == "GET") return list_jobs(manager);
    return error_response(405, core::ErrorCode::kBadInput, "http",
                          "method " + req.method + " not allowed on /jobs");
  }

  if (target.rfind("/jobs/", 0) == 0) {
    std::uint64_t id = 0;
    std::string_view suffix;
    if (!parse_job_path(target.substr(6), id, suffix)) {
      return not_found("route " + req.target);
    }
    if (suffix.empty()) {
      if (req.method == "GET") {
        const auto snap = manager.get(id);
        if (!snap) return not_found("job " + std::to_string(id));
        return job_status(*snap);
      }
      if (req.method == "DELETE") return cancel_job(manager, id);
    } else if (suffix == "/result" && req.method == "GET") {
      const auto snap = manager.get(id);
      if (!snap) return not_found("job " + std::to_string(id));
      return job_result(*snap);
    } else if (suffix == "/cancel" && req.method == "POST") {
      return cancel_job(manager, id);
    }
    return not_found("route " + req.target);
  }

  if (target == "/populations") {
    if (req.method == "POST") return register_population(manager, req);
    if (req.method == "GET") return list_populations(manager);
    return error_response(405, core::ErrorCode::kBadInput, "http",
                          "method " + req.method +
                              " not allowed on /populations");
  }

  if (target == "/metrics" && req.method == "GET") return metrics(manager);
  if (target == "/healthz" && req.method == "GET") return healthz(manager);

  return not_found("route " + req.target);
}

}  // namespace

HttpResponse handle_api_request(JobManager& manager, const HttpRequest& req) {
  try {
    return route(manager, req);
  } catch (const core::SolverError& e) {
    return failure_response(
        e.code() == core::ErrorCode::kBadInput ? 400 : 500, e.failure());
  } catch (const std::exception& e) {
    return error_response(500, core::ErrorCode::kInternal, "http", e.what());
  }
}

HttpHandler make_api_handler(JobManager& manager) {
  return [&manager](const HttpRequest& req) {
    ServiceMetrics& m = manager.metrics();
    m.http_requests_total.fetch_add(1, std::memory_order_relaxed);
    // Connection-reuse picture from the request's serial number on its
    // connection: 1 = fresh connection, 2 = the moment a connection
    // proves reused, >1 = a request that saved a TCP handshake.
    if (req.serial == 1) {
      m.http_connections.fetch_add(1, std::memory_order_relaxed);
    } else {
      m.keepalive_requests.fetch_add(1, std::memory_order_relaxed);
      if (req.serial == 2) {
        m.reused_connections.fetch_add(1, std::memory_order_relaxed);
      }
    }
    const double start = manager.now_seconds();
    HttpResponse resp = handle_api_request(manager, req);
    m.request_seconds.observe(manager.now_seconds() - start);
    m.count_response(resp.status);
    return resp;
  };
}

std::function<void(int, double)> make_internal_response_observer(
    JobManager& manager) {
  return [&manager](int status, double seconds) {
    ServiceMetrics& m = manager.metrics();
    m.http_requests_total.fetch_add(1, std::memory_order_relaxed);
    m.request_seconds.observe(seconds);
    m.count_response(status);
  };
}

}  // namespace msbist::service
