#include "core/job.h"

#include <limits>
#include <utility>

#include "core/error.h"

namespace msbist::core {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kBatch: return "batch";
    case JobKind::kLockstepBatch: return "lockstep_batch";
    case JobKind::kFaultCampaign: return "fault_campaign";
    case JobKind::kTestability: return "testability";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_request(std::string detail) {
  Failure f;
  f.code = ErrorCode::kBadInput;
  f.analysis = "job_request";
  f.detail = std::move(detail);
  throw_failure(std::move(f));
}

std::uint64_t require_u64(const JsonValue& v, const char* field) {
  if (!v.is_integer()) bad_request(std::string(field) + " must be an integer");
  if (v.as_double() < 0) bad_request(std::string(field) + " must be >= 0");
  return v.as_u64();
}

std::size_t require_size(const JsonValue& v, const char* field) {
  const std::uint64_t u = require_u64(v, field);
  if (u > std::numeric_limits<std::size_t>::max()) {
    bad_request(std::string(field) + " out of range");
  }
  return static_cast<std::size_t>(u);
}

double require_number(const JsonValue& v, const char* field) {
  if (!v.is_number()) bad_request(std::string(field) + " must be a number");
  return v.as_double();
}

bool require_bool(const JsonValue& v, const char* field) {
  if (!v.is_bool()) bad_request(std::string(field) + " must be a boolean");
  return v.as_bool();
}

std::string require_string(const JsonValue& v, const char* field) {
  if (!v.is_string()) bad_request(std::string(field) + " must be a string");
  return v.as_string();
}

}  // namespace

JobKind parse_job_kind(const std::string& name) {
  if (name == "batch") return JobKind::kBatch;
  if (name == "lockstep_batch") return JobKind::kLockstepBatch;
  if (name == "fault_campaign") return JobKind::kFaultCampaign;
  if (name == "testability") return JobKind::kTestability;
  bad_request("unknown job kind \"" + name + "\"");
}

const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::kLow: return "low";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kHigh: return "high";
  }
  return "?";
}

JobPriority parse_job_priority(const std::string& name) {
  if (name == "low") return JobPriority::kLow;
  if (name == "normal") return JobPriority::kNormal;
  if (name == "high") return JobPriority::kHigh;
  bad_request("unknown priority \"" + name +
              "\" (expected low, normal, or high)");
}

void JobLimits::to_json(JsonWriter& w) const {
  w.begin_object()
      .member("wall_timeout_s", wall_timeout_s)
      .member("max_threads", static_cast<std::uint64_t>(max_threads))
      .end_object();
}

JobRequest JobRequest::from_json(const JsonValue& v) {
  if (!v.is_object()) bad_request("request body must be a JSON object");

  JobRequest req;
  bool have_kind = false;
  for (const auto& [key, val] : v.members()) {
    if (key == "kind") {
      req.kind = parse_job_kind(require_string(val, "kind"));
      have_kind = true;
    } else if (key == "schema_version") {
      const std::uint64_t ver = require_u64(val, "schema_version");
      if (ver == 0 || ver > kSchemaVersion) {
        bad_request("unsupported schema_version " + std::to_string(ver) +
                    " (server speaks " + std::to_string(kSchemaVersion) + ")");
      }
    } else if (key == "label") {
      req.label = require_string(val, "label");
    } else if (key == "priority") {
      req.priority = parse_job_priority(require_string(val, "priority"));
    } else if (key == "client_tag") {
      req.client_tag = require_string(val, "client_tag");
    } else if (key == "idempotency_key") {
      req.idempotency_key = require_string(val, "idempotency_key");
    } else if (key == "device_count") {
      req.device_count = require_size(val, "device_count");
      if (req.device_count == 0 || req.device_count > kMaxDeviceCount) {
        bad_request("device_count must be in [1, " + std::to_string(kMaxDeviceCount) +
                    "]");
      }
    } else if (key == "batch_seed") {
      req.batch_seed = require_u64(val, "batch_seed");
    } else if (key == "population") {
      req.population = require_string(val, "population");
    } else if (key == "tiers") {
      if (!val.is_array()) bad_request("tiers must be an array of strings");
      req.tiers.clear();
      for (const JsonValue& t : val.items()) {
        req.tiers.push_back(require_string(t, "tiers[]"));
      }
    } else if (key == "full_spec") {
      req.full_spec = require_bool(val, "full_spec");
    } else if (key == "fault_spot_check") {
      req.fault_spot_check = require_bool(val, "fault_spot_check");
    } else if (key == "circuit") {
      req.circuit = require_string(val, "circuit");
    } else if (key == "collapse") {
      req.collapse = require_bool(val, "collapse");
    } else if (key == "max_faults") {
      req.max_faults = require_size(val, "max_faults");
    } else if (key == "threads") {
      req.threads = require_size(val, "threads");
    } else if (key == "limits") {
      if (!val.is_object()) bad_request("limits must be an object");
      for (const auto& [lk, lv] : val.members()) {
        if (lk == "wall_timeout_s") {
          req.limits.wall_timeout_s = require_number(lv, "limits.wall_timeout_s");
          if (req.limits.wall_timeout_s < 0) {
            bad_request("limits.wall_timeout_s must be >= 0");
          }
        } else if (lk == "max_threads") {
          req.limits.max_threads = require_size(lv, "limits.max_threads");
        } else {
          bad_request("unknown limits field \"" + lk + "\"");
        }
      }
    } else {
      bad_request("unknown request field \"" + key + "\"");
    }
  }
  if (!have_kind) bad_request("missing required field \"kind\"");
  return req;
}

JobRequest JobRequest::from_json_text(std::string_view text) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const JsonParseError& e) {
    bad_request(std::string("malformed JSON: ") + e.what());
  }
  return from_json(doc);
}

void JobRequest::to_json(JsonWriter& w) const {
  w.begin_object()
      .member("kind", to_string(kind))
      .member("schema_version", kSchemaVersion)
      .member("label", label);
  switch (kind) {
    case JobKind::kBatch:
      w.member("device_count", static_cast<std::uint64_t>(device_count))
          .member("batch_seed", batch_seed)
          .member("population", population);
      w.key("tiers").begin_array();
      for (const std::string& t : tiers) w.value(t);
      w.end_array();
      w.member("full_spec", full_spec)
          .member("fault_spot_check", fault_spot_check);
      break;
    case JobKind::kLockstepBatch:
      w.member("device_count", static_cast<std::uint64_t>(device_count))
          .member("batch_seed", batch_seed)
          .member("population", population);
      break;
    case JobKind::kFaultCampaign:
      w.member("circuit", circuit)
          .member("collapse", collapse)
          .member("max_faults", static_cast<std::uint64_t>(max_faults));
      break;
    case JobKind::kTestability:
      w.member("circuit", circuit);
      break;
  }
  w.member("threads", static_cast<std::uint64_t>(threads))
      .member("priority", to_string(priority))
      .member("client_tag", client_tag);
  if (!idempotency_key.empty()) w.member("idempotency_key", idempotency_key);
  w.key("limits");
  limits.to_json(w);
  w.end_object();
}

}  // namespace msbist::core
