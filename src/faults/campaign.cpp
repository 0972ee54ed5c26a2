#include "faults/campaign.h"

#include <chrono>
#include <sstream>
#include <utility>

#include <stdexcept>

#include "analysis/diagnostic.h"
#include "core/failure_json.h"
#include "core/job.h"
#include "core/thread_pool.h"
#include "faults/collapse.h"

namespace msbist::faults {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run the test with exception isolation: a throw becomes a per-fault
/// result instead of unwinding through the campaign. Taxonomy errors
/// (solver failures, ERC rejections) classify as detected_by_failure;
/// anything else is an engine error.
FaultResult guarded_call(const FaultTestFn& test, const FaultSpec& fault) {
  try {
    return test(fault);
  } catch (const core::SolverError& e) {
    FaultResult r;
    r.fault = fault;
    r.detected = true;
    r.detected_by_failure = true;
    r.has_failure = true;
    r.failure = e.failure();
    r.detail = e.what();
    return r;
  } catch (const analysis::ErcError& e) {
    FaultResult r;
    r.fault = fault;
    r.detected = true;
    r.detected_by_failure = true;
    r.has_failure = true;
    r.failure.code = core::ErrorCode::kErcViolation;
    r.failure.analysis = "erc";
    r.failure.detail = e.what();
    r.detail = e.what();
    return r;
  } catch (const std::exception& e) {
    FaultResult r;
    r.fault = fault;
    r.detected = false;
    r.errored = true;
    r.detail = e.what();
    return r;
  } catch (...) {
    FaultResult r;
    r.fault = fault;
    r.detected = false;
    r.errored = true;
    r.detail = "non-standard exception";
    return r;
  }
}

/// Run one fault inline on the calling thread and time it.
FaultResult run_one(const FaultTestFn& test, const FaultSpec& fault) {
  const auto t0 = Clock::now();
  FaultResult r = guarded_call(test, fault);
  r.elapsed_seconds = seconds_since(t0);
  return r;
}

void tally(CampaignReport& report, const FaultResult& r) {
  if (r.detected) ++report.detected_count;
  if (r.detected_by_failure) ++report.detected_by_failure_count;
  if (r.errored) ++report.errored_count;
  if (r.timed_out) ++report.timed_out_count;
  // A timed-out fault's elapsed time (only a restored checkpoint can
  // carry one) was a wait, not compute.
  if (!r.timed_out) report.cpu_seconds += r.elapsed_seconds;
}

/// Validate CampaignOptions::collapse against the universe actually
/// submitted: same size, same fault labels.
const CollapsedUniverse* checked_collapse(const std::vector<FaultSpec>& universe,
                                          const CampaignOptions& options) {
  const CollapsedUniverse* cu = options.collapse;
  if (cu == nullptr) return nullptr;
  if (cu->universe.size() != universe.size()) {
    throw std::invalid_argument(
        "campaign: collapse describes a different universe (size mismatch)");
  }
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (cu->universe[i].label != universe[i].label) {
      throw std::invalid_argument(
          "campaign: collapse describes a different universe (fault '" +
          universe[i].label + "' vs '" + cu->universe[i].label + "')");
    }
  }
  return cu;
}

}  // namespace

const char* to_string(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kDetected: return "detected";
    case FaultOutcome::kDetectedByFailure: return "detected_by_failure";
    case FaultOutcome::kUndetected: return "undetected";
    case FaultOutcome::kErrored: return "errored";
    case FaultOutcome::kTimedOut: return "timed_out";
  }
  return "?";
}

FaultOutcome FaultResult::classify() const {
  if (timed_out) return FaultOutcome::kTimedOut;
  if (errored) return FaultOutcome::kErrored;
  if (detected_by_failure) return FaultOutcome::kDetectedByFailure;
  if (detected) return FaultOutcome::kDetected;
  return FaultOutcome::kUndetected;
}

core::Outcome FaultResult::outcome() const {
  const FaultOutcome kind = classify();
  if (kind == FaultOutcome::kDetected || kind == FaultOutcome::kDetectedByFailure) {
    return core::Outcome::ok(std::string(to_string(kind)) + " " + fault.label);
  }
  return core::Outcome::fail(std::string(to_string(kind)) + ": " + fault.label +
                             (detail.empty() ? "" : " (" + detail + ")"));
}

void FaultResult::to_json(core::JsonWriter& w) const {
  w.begin_object()
      .member("label", fault.label)
      .member("outcome", to_string(classify()))
      .member("detected", detected)
      .member("detected_by_failure", detected_by_failure)
      .member("score", score)
      .member("errored", errored)
      .member("timed_out", timed_out)
      .member("elapsed_seconds", elapsed_seconds)
      .member("detail", detail);
  if (has_failure) {
    w.key("failure");
    failure.to_json(w);
  }
  w.end_object();
}

std::string encode_fault_checkpoint(const FaultResult& result) {
  core::JsonWriter w;
  w.begin_object();
  w.key("fault").begin_object()
      .member("kind", static_cast<std::uint64_t>(result.fault.kind))
      .member("node_a", result.fault.node_a)
      .member("node_b", result.fault.node_b)
      .member("stuck_high", result.fault.stuck_high)
      .member("label", result.fault.label)
      .end_object();
  w.member("detected", result.detected)
      .member("score", result.score)
      .member("detail", result.detail)
      .member("errored", result.errored)
      .member("timed_out", result.timed_out)
      .member("detected_by_failure", result.detected_by_failure)
      .member("elapsed_seconds", result.elapsed_seconds);
  if (result.has_failure) {
    w.key("failure");
    result.failure.to_json(w);
  }
  w.end_object();
  return w.str();
}

FaultResult decode_fault_checkpoint(const core::JsonValue& v) {
  try {
    const auto req = [](const core::JsonValue& obj,
                        const char* key) -> const core::JsonValue& {
      const core::JsonValue* m = obj.find(key);
      if (m == nullptr) {
        throw std::logic_error(std::string("missing checkpoint member \"") +
                               key + "\"");
      }
      return *m;
    };
    if (!v.is_object()) throw std::logic_error("checkpoint must be an object");
    const core::JsonValue& fault = req(v, "fault");
    if (!fault.is_object()) {
      throw std::logic_error("checkpoint fault must be an object");
    }

    FaultResult r;
    const std::uint64_t kind = req(fault, "kind").as_u64();
    if (kind > static_cast<std::uint64_t>(FaultKind::kBridge)) {
      throw std::logic_error("unknown fault kind in checkpoint");
    }
    r.fault.kind = static_cast<FaultKind>(kind);
    r.fault.node_a = static_cast<int>(req(fault, "node_a").as_i64());
    r.fault.node_b = static_cast<int>(req(fault, "node_b").as_i64());
    r.fault.stuck_high = req(fault, "stuck_high").as_bool();
    r.fault.label = req(fault, "label").as_string();
    r.detected = req(v, "detected").as_bool();
    r.score = req(v, "score").as_double();
    r.detail = req(v, "detail").as_string();
    r.errored = req(v, "errored").as_bool();
    r.timed_out = req(v, "timed_out").as_bool();
    r.detected_by_failure = req(v, "detected_by_failure").as_bool();
    r.elapsed_seconds = req(v, "elapsed_seconds").as_double();
    if (const core::JsonValue* failure = v.find("failure")) {
      r.has_failure = true;
      r.failure = core::failure_from_json(*failure);
    }
    return r;
  } catch (const std::logic_error& e) {
    core::Failure f;
    f.code = core::ErrorCode::kBadInput;
    f.analysis = "faults/fault_checkpoint";
    f.detail = e.what();
    core::throw_failure(std::move(f));
  }
}

core::Outcome CampaignReport::outcome() const {
  std::ostringstream os;
  os.precision(4);
  os << detected_count << "/" << results.size() << " detected ("
     << coverage() * 100.0 << " %), " << errored_count << " errors, "
     << timed_out_count << " timeouts";
  const bool pass = detected_count == results.size() && errored_count == 0 &&
                    timed_out_count == 0;
  return {pass, os.str()};
}

void CampaignReport::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "campaign_report");
  w.member("faults", static_cast<std::uint64_t>(results.size()))
      .member("detected_count", static_cast<std::uint64_t>(detected_count))
      .member("detected_by_failure_count",
              static_cast<std::uint64_t>(detected_by_failure_count))
      .member("errored_count", static_cast<std::uint64_t>(errored_count))
      .member("timed_out_count", static_cast<std::uint64_t>(timed_out_count))
      .member("coverage", coverage())
      .member("threads_used", static_cast<std::uint64_t>(threads_used))
      .member("simulated_count", static_cast<std::uint64_t>(simulated_count))
      .member("solves_saved", static_cast<std::uint64_t>(solves_saved))
      .member("statically_undetectable_count",
              static_cast<std::uint64_t>(statically_undetectable_count))
      .member("wall_seconds", wall_seconds)
      .member("cpu_seconds", cpu_seconds);
  w.key("results").begin_array();
  for (const FaultResult& r : results) r.to_json(w);
  w.end_array();
  w.end_object();
}

double CampaignReport::coverage() const {
  if (results.empty()) return 0.0;
  return static_cast<double>(detected_count) / static_cast<double>(results.size());
}

double CampaignReport::faults_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(results.size()) / wall_seconds;
}

std::string CampaignReport::throughput_summary() const {
  std::ostringstream os;
  os.precision(4);
  os << results.size() << " faults, " << detected_count << " detected ("
     << coverage() * 100.0 << " %), " << errored_count << " errors, "
     << timed_out_count << " timeouts; " << threads_used << " thread(s), "
     << wall_seconds << " s wall, " << cpu_seconds << " s cpu, "
     << faults_per_second() << " faults/s";
  if (solves_saved > 0) {
    os << "; collapse: " << simulated_count << " simulated, " << solves_saved
       << " saved (" << statically_undetectable_count
       << " statically undetectable)";
  }
  return os.str();
}

std::string CampaignReport::canonical_outcomes() const {
  std::ostringstream os;
  os.precision(17);
  for (const FaultResult& r : results) {
    os << r.fault.label << '|' << r.detected << '|' << r.score << '|'
       << r.errored << '|' << r.timed_out << '|'
       << to_string(r.classify()) << '|'
       << (r.has_failure ? core::to_string(r.failure.code) : "-") << '|'
       << r.detail << '\n';
  }
  os << "detected=" << detected_count
     << " by_failure=" << detected_by_failure_count
     << " errors=" << errored_count << " timeouts=" << timed_out_count << '\n';
  return os.str();
}

CampaignReport run_campaign(const std::vector<FaultSpec>& universe,
                            const FaultTestFn& test) {
  return run_campaign(universe, test, CampaignOptions{});
}

CampaignReport run_campaign(const std::vector<FaultSpec>& universe,
                            const FaultTestFn& test,
                            const CampaignOptions& options) {
  CampaignOptions serial = options;
  serial.threads = 1;
  return run_campaign_parallel(universe, test, serial);
}

CampaignReport run_campaign_parallel(const std::vector<FaultSpec>& universe,
                                     const FaultTestFn& test,
                                     const CampaignOptions& options) {
  const auto t0 = Clock::now();
  const CollapsedUniverse* cu = checked_collapse(universe, options);
  // Work item k tests universe[k], or the k-th class representative.
  const std::size_t n = cu != nullptr ? cu->map.simulated_count() : universe.size();
  std::size_t threads =
      options.threads != 0 ? options.threads : core::default_thread_count();
  if (n > 0 && threads > n) threads = n;

  // Determinism: item k owns slot [k] and only its own slot is written;
  // for_each_slot returns after every body has finished.
  std::vector<FaultResult> slots(n);
  const std::vector<char> restored =
      core::splice_restored(options.resume, slots);
  core::for_each_slot(n, threads, options.stop, [&](std::size_t k) {
    if (restored[k] != 0) return;
    const std::size_t fault = cu != nullptr ? cu->map.representatives()[k] : k;
    slots[k] = run_one(test, universe[fault]);
    if (options.on_fault_complete) options.on_fault_complete(k, n, slots[k]);
  });

  CampaignReport report;
  report.threads_used = threads;
  if (cu != nullptr) {
    report.results = cu->expand(slots);
    report.simulated_count = cu->map.simulated_count();
    report.solves_saved = cu->map.solves_saved();
    report.statically_undetectable_count = cu->map.undetectable_count();
  } else {
    report.results = std::move(slots);
    report.simulated_count = report.results.size();
  }
  for (const FaultResult& r : report.results) tally(report, r);
  report.wall_seconds = seconds_since(t0);
  return report;
}

}  // namespace msbist::faults
