// Checkpointed resume of the lot-scale engines: device/fault checkpoint
// encode/decode round-trips, run_batch / run_batch_lockstep /
// run_campaign resume bit-identity against uninterrupted runs, and the
// dispatch-layer wiring (DispatchHooks::unit_complete / resume).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/transient.h"
#include "core/error.h"
#include "core/job.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "faults/universe.h"
#include "production/batch.h"
#include "service/dispatch.h"

namespace {

using namespace msbist;
using core::JsonValue;
using core::parse_json;

/// Strip the per-run timing fields a resumed report legitimately differs
/// in: batch wall clock, and elapsed_seconds on the dies actually
/// RE-tested (restored dies splice the original run's document verbatim,
/// original timing included).
JsonValue strip_batch_timing(JsonValue report) {
  report.erase("wall_seconds");
  report.erase("cpu_seconds");
  report.erase("devices_per_second");
  if (const JsonValue* devices = report.find("devices")) {
    JsonValue cleaned = JsonValue::array();
    for (JsonValue d : devices->items()) {
      d.erase("elapsed_seconds");
      cleaned.push_back(std::move(d));
    }
    report.set("devices", std::move(cleaned));
  }
  return report;
}

/// The engines report a whole executor slot at once; feed its dies to a
/// per-die callback in slot order.
production::DeviceCompleteFn each_die(
    std::function<void(std::size_t index, const production::DeviceOutcome&)> fn) {
  return [fn = std::move(fn)](std::span<const production::DeviceOutcome> slot) {
    for (const production::DeviceOutcome& die : slot) fn(die.index, die);
  };
}

/// Likewise for DispatchHooks::unit_complete: one call per unit of the
/// slot.
auto each_unit(std::function<void(std::size_t unit, std::size_t total,
                                  const std::string& checkpoint_json)>
                   fn) {
  return [fn = std::move(fn)](std::size_t total,
                              const service::SlotCheckpoints& units,
                              const service::SlotWritten& written) {
    for (const auto& [unit, checkpoint_json] : units) {
      fn(unit, total, checkpoint_json);
    }
    written();
  };
}

faults::FaultTestFn deterministic_probe() {
  return [](const faults::FaultSpec& f) {
    faults::FaultResult r;
    r.fault = f;
    r.detected = f.kind != faults::FaultKind::kBridge;
    r.score = static_cast<double>(f.node_a) * 0.25;
    r.detail = "probe " + f.label;
    return r;
  };
}

TEST(Resume, DeviceCheckpointRoundTripsByteIdentical) {
  const auto population = production::paper_population();
  // Beside a full-spec die: two lockstep dies, the second degraded by an
  // evaluation that threw, so it carries a failure record.
  production::LockstepPlan plan = service::lockstep_screen_plan();
  plan.evaluate = [judge = plan.evaluate](const production::DieSpec& spec,
                                          const circuit::LaneWaveforms& r) {
    if (spec.label == "die 2") throw std::runtime_error("probe contact lost");
    return judge(spec, r);
  };
  const production::BatchReport screen = production::run_batch_lockstep(
      service::lockstep_screen_population(2, 5), plan);
  ASSERT_TRUE(screen.devices[1].degraded);
  ASSERT_FALSE(screen.devices[1].failures.empty());

  for (const production::DeviceOutcome& original :
       {production::test_device(population.front(), production::TestPlan::full()),
        screen.devices[0], screen.devices[1]}) {
    const std::string checkpoint = production::encode_device_checkpoint(original);
    const production::DeviceOutcome restored =
        production::decode_device_checkpoint(parse_json(checkpoint));

    // The restored outcome serializes byte-identically (verbatim splice)…
    EXPECT_EQ(core::to_json(restored), core::to_json(original));
    // …and its typed fields carry what aggregation needs.
    EXPECT_EQ(restored.seed, original.seed);
    EXPECT_EQ(restored.label, original.label);
    EXPECT_EQ(restored.outcome.pass, original.outcome.pass);
    EXPECT_EQ(restored.tiers_run, original.tiers_run);
    EXPECT_EQ(restored.has_metrics, original.has_metrics);
    EXPECT_EQ(restored.spot_check_run, original.spot_check_run);
    EXPECT_DOUBLE_EQ(restored.elapsed_seconds, original.elapsed_seconds);
    EXPECT_EQ(restored.degraded, original.degraded);
    ASSERT_EQ(restored.failures.size(), original.failures.size());
    for (std::size_t i = 0; i < original.failures.size(); ++i) {
      EXPECT_EQ(restored.failures[i].code, original.failures[i].code);
      EXPECT_EQ(restored.failures[i].analysis, original.failures[i].analysis);
    }
  }
}

TEST(Resume, FaultCheckpointRoundTripsIncludingFailure) {
  faults::FaultResult original;
  original.fault = {faults::FaultKind::kBridge, 3, 5, false, "R3||R5"};
  original.detected = true;
  original.detected_by_failure = true;
  original.score = 0.625;
  original.detail = "solver rejected the bridged macro";
  original.has_failure = true;
  original.failure.code = core::ErrorCode::kSingularMatrix;
  original.failure.analysis = "campaign";
  original.failure.detail = "singular matrix";
  original.elapsed_seconds = 0.0125;

  const faults::FaultResult restored = faults::decode_fault_checkpoint(
      parse_json(faults::encode_fault_checkpoint(original)));
  EXPECT_EQ(core::to_json(restored), core::to_json(original));
  EXPECT_EQ(restored.fault.kind, original.fault.kind);
  EXPECT_EQ(restored.fault.label, original.fault.label);
  EXPECT_TRUE(restored.has_failure);
  EXPECT_EQ(restored.failure.code, core::ErrorCode::kSingularMatrix);
}

TEST(Resume, MalformedCheckpointsThrowBadInput) {
  // The last entry is the two-part shape earlier daemons journaled: a
  // die checkpointed by one of them re-runs.
  for (const char* bad :
       {"{}", "[1,2]", R"({"canon":{}})",
        R"({"canon":{"seed":7,"label":"die 1","pass":true,"detail":"pass",)"
        R"("tiers_run":[],"failed_tiers":[],"tier_pass":{},"bist_pass":true,)"
        R"("degraded":false,"elapsed_seconds":0.001},"data":{"index":0,)"
        R"("seed":7,"label":"die 1","pass":true,"detail":"pass","tiers_run":[],)"
        R"("failed_tiers":[],"degraded":false,"elapsed_seconds":0.001}})"}) {
    try {
      (void)production::decode_device_checkpoint(parse_json(bad));
      FAIL() << "device checkpoint " << bad << " should not decode";
    } catch (const core::SolverError& e) {
      EXPECT_EQ(e.code(), core::ErrorCode::kBadInput);
    }
  }
  try {
    (void)faults::decode_fault_checkpoint(parse_json("{}"));
    FAIL() << "fault checkpoint should not decode";
  } catch (const core::SolverError& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kBadInput);
  }
}

TEST(Resume, BatchResumeMatchesUninterruptedRun) {
  const auto population = production::paper_population();
  const production::TestPlan plan = production::TestPlan::bist_only();

  // Uninterrupted control run, capturing every die's checkpoint — the
  // exact stream a daemon would have journaled before the "crash".
  std::map<std::size_t, std::string> checkpoints;
  const production::BatchReport control = production::run_batch(
      population, plan, 1, {}, nullptr,
      each_die([&checkpoints](std::size_t index,
                              const production::DeviceOutcome& outcome) {
        checkpoints[index] = production::encode_device_checkpoint(outcome);
      }));
  ASSERT_EQ(checkpoints.size(), population.size());

  // "Crash" after the first half: decode those checkpoints back and
  // resume. The resumed report must match the control bit-for-bit on
  // everything but batch-level wall clock.
  production::BatchResume resume;
  for (std::size_t i = 0; i < population.size() / 2; ++i) {
    resume.completed.emplace(
        i, production::decode_device_checkpoint(parse_json(checkpoints[i])));
  }
  std::size_t retested = 0;
  const production::BatchReport resumed = production::run_batch(
      population, plan, 1, {}, &resume,
      each_die([&retested](std::size_t, const production::DeviceOutcome&) {
        ++retested;
      }));

  EXPECT_EQ(retested, population.size() - resume.completed.size());
  EXPECT_EQ(resumed.canonical_outcomes(), control.canonical_outcomes());
  EXPECT_EQ(strip_batch_timing(parse_json(core::to_json(resumed))).dump(),
            strip_batch_timing(parse_json(core::to_json(control))).dump());
}

TEST(Resume, LockstepResumeMarchesOnlyLiveLanes) {
  const auto population = service::lockstep_screen_population(8, 20260808);
  const production::LockstepPlan plan = service::lockstep_screen_plan();

  std::map<std::size_t, std::string> checkpoints;
  const production::BatchReport control = production::run_batch_lockstep(
      population, plan, nullptr,
      each_die([&checkpoints](std::size_t index,
                              const production::DeviceOutcome& outcome) {
        checkpoints[index] = production::encode_device_checkpoint(outcome);
      }));
  ASSERT_EQ(checkpoints.size(), population.size());

  // Restore a non-contiguous subset (lanes 0, 2, 5) so the live-lane
  // index remap is actually exercised.
  production::BatchResume resume;
  for (const std::size_t lane : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    resume.completed.emplace(lane, production::decode_device_checkpoint(
                                       parse_json(checkpoints[lane])));
  }
  std::size_t retested = 0;
  const production::BatchReport resumed = production::run_batch_lockstep(
      population, plan, &resume,
      each_die([&retested](std::size_t, const production::DeviceOutcome&) {
        ++retested;
      }));

  EXPECT_EQ(retested, population.size() - resume.completed.size());
  EXPECT_EQ(resumed.canonical_outcomes(), control.canonical_outcomes());
  EXPECT_EQ(strip_batch_timing(parse_json(core::to_json(resumed))).dump(),
            strip_batch_timing(parse_json(core::to_json(control))).dump());
}

TEST(Resume, LockstepResumeStraddlingBlockBoundariesMatchesControl) {
  constexpr std::size_t kBlock = production::kLockstepBlockDies;
  const auto population =
      service::lockstep_screen_population(5 * kBlock + 3, 7);
  const production::LockstepPlan plan = service::lockstep_screen_plan();

  for (const std::size_t threads : {1u, 2u}) {
    std::mutex mu;  // on_complete fires from engine worker threads
    std::map<std::size_t, std::string> checkpoints;
    const production::BatchReport control = production::run_batch_lockstep(
        population, plan, nullptr,
        each_die([&](std::size_t index, const production::DeviceOutcome& outcome) {
          std::string checkpoint = production::encode_device_checkpoint(outcome);
          const std::lock_guard<std::mutex> lock(mu);
          checkpoints[index] = std::move(checkpoint);
        }),
        threads);
    ASSERT_EQ(checkpoints.size(), population.size());

    // Restored dies on both sides of the first block boundary and deep
    // in a later block: every block of the resumed march is re-formed
    // from the live dies, led by live die 1.
    production::BatchResume resume;
    for (const std::size_t die : {std::size_t{0}, kBlock - 1, kBlock,
                                  4 * kBlock + 2}) {
      resume.completed.emplace(die, production::decode_device_checkpoint(
                                        parse_json(checkpoints[die])));
    }
    std::atomic<std::size_t> retested{0};
    const production::BatchReport resumed = production::run_batch_lockstep(
        population, plan, &resume,
        each_die([&retested](std::size_t, const production::DeviceOutcome&) {
          retested.fetch_add(1);
        }),
        threads);

    EXPECT_EQ(retested.load(), population.size() - resume.completed.size());
    EXPECT_EQ(resumed.canonical_outcomes(), control.canonical_outcomes());
    EXPECT_EQ(strip_batch_timing(parse_json(core::to_json(resumed))).dump(),
              strip_batch_timing(parse_json(core::to_json(control))).dump())
        << "threads " << threads;
  }
}

TEST(Resume, CampaignResumeSerialAndParallel) {
  const auto universe = faults::op1_fault_universe();
  const auto probe = deterministic_probe();

  std::map<std::size_t, std::string> checkpoints;
  faults::CampaignOptions record;
  record.on_fault_complete = [&checkpoints](std::size_t index, std::size_t,
                                            const faults::FaultResult& r) {
    checkpoints[index] = faults::encode_fault_checkpoint(r);
  };
  const faults::CampaignReport control =
      faults::run_campaign(universe, probe, record);
  ASSERT_EQ(checkpoints.size(), universe.size());

  faults::CampaignResume resume;
  for (std::size_t i = 0; i < universe.size() / 2; ++i) {
    resume.completed.emplace(
        i, faults::decode_fault_checkpoint(parse_json(checkpoints[i])));
  }

  for (const bool parallel : {false, true}) {
    faults::CampaignOptions opts;
    opts.threads = parallel ? 4 : 0;
    opts.resume = &resume;
    // Fired from engine worker threads when parallel.
    std::atomic<std::size_t> resimulated{0};
    opts.on_fault_complete = [&resimulated](std::size_t, std::size_t,
                                            const faults::FaultResult&) {
      ++resimulated;
    };
    const faults::CampaignReport resumed =
        parallel ? faults::run_campaign_parallel(universe, probe, opts)
                 : faults::run_campaign(universe, probe, opts);
    EXPECT_EQ(resimulated.load(), universe.size() - resume.completed.size());
    EXPECT_EQ(resumed.canonical_outcomes(), control.canonical_outcomes());
    EXPECT_EQ(resumed.detected_count, control.detected_count);
    EXPECT_EQ(resumed.simulated_count, control.simulated_count);
    ASSERT_EQ(resumed.results.size(), universe.size());
    for (std::size_t i = 0; i < universe.size(); ++i) {
      EXPECT_EQ(resumed.results[i].fault.label, universe[i].label);
    }
  }
}

// A stop never drops restored items: they are in their slots before the
// first claim. Resuming every fault but the first and stopping once that
// one has run leaves no fault unaccounted for, so the report is the
// control's. (Restored items once entered their slots only when claimed,
// so this stop left all of them as blank default results.)
TEST(Resume, StoppedCampaignKeepsRestoredItems) {
  const auto universe = faults::op1_fault_universe();
  const auto probe = deterministic_probe();

  std::map<std::size_t, std::string> checkpoints;
  faults::CampaignOptions record;
  record.on_fault_complete = [&checkpoints](std::size_t index, std::size_t,
                                            const faults::FaultResult& r) {
    checkpoints[index] = faults::encode_fault_checkpoint(r);
  };
  const faults::CampaignReport control =
      faults::run_campaign(universe, probe, record);
  ASSERT_EQ(checkpoints.size(), universe.size());

  faults::CampaignResume resume;
  for (std::size_t i = 1; i < universe.size(); ++i) {
    resume.completed.emplace(
        i, faults::decode_fault_checkpoint(parse_json(checkpoints[i])));
  }
  for (const std::size_t threads : {1u, 2u}) {
    faults::CampaignOptions opts;
    opts.threads = threads;
    opts.resume = &resume;
    std::atomic<std::size_t> ran{0};
    opts.on_fault_complete = [&ran](std::size_t, std::size_t,
                                    const faults::FaultResult&) { ++ran; };
    opts.stop = [&ran] { return ran.load() >= 1; };
    const faults::CampaignReport resumed =
        faults::run_campaign_parallel(universe, probe, opts);
    EXPECT_EQ(ran.load(), 1u) << "threads " << threads;
    EXPECT_EQ(resumed.canonical_outcomes(), control.canonical_outcomes())
        << "threads " << threads;
  }
}

// --- Dispatch-layer wiring: the path the daemon actually takes --------

core::JobRequest small_batch_request() {
  core::JobRequest req;
  req.kind = core::JobKind::kBatch;
  req.device_count = 6;
  req.batch_seed = 777;
  req.threads = 1;
  return req;
}

TEST(Resume, DispatchBatchResumesFromJournaledCheckpoints) {
  const core::JobRequest req = small_batch_request();

  std::map<std::size_t, std::string> checkpoints;
  service::DispatchHooks record;
  record.unit_complete = each_unit([&checkpoints](std::size_t unit, std::size_t,
                                                  const std::string& checkpoint_json) {
    checkpoints[unit] = checkpoint_json;
  });
  const service::DispatchResult control = service::dispatch(req, record);
  ASSERT_EQ(checkpoints.size(), req.device_count);
  EXPECT_EQ(control.resumed_units, 0u);

  std::map<std::size_t, std::string> half(checkpoints.begin(),
                                          std::next(checkpoints.begin(), 3));
  service::DispatchHooks hooks;
  hooks.resume = &half;
  std::size_t retested = 0;
  hooks.unit_complete = each_unit([&retested](std::size_t, std::size_t,
                                              const std::string&) { ++retested; });
  const service::DispatchResult resumed = service::dispatch(req, hooks);

  EXPECT_EQ(resumed.resumed_units, 3u);
  EXPECT_EQ(retested, req.device_count - 3);
  EXPECT_EQ(strip_batch_timing(parse_json(resumed.report_json)).dump(),
            strip_batch_timing(parse_json(control.report_json)).dump());
}

TEST(Resume, DispatchDropsUndecodableCheckpointsAndRetests) {
  const core::JobRequest req = small_batch_request();
  const service::DispatchResult control = service::dispatch(req);

  // A journal can replay a checkpoint whose payload no longer decodes
  // (schema drift, partial corruption under a valid CRC). The dispatch
  // drops it and re-tests that unit rather than failing the job.
  std::map<std::size_t, std::string> resume;
  resume[0] = R"({"definitely":"not a checkpoint"})";
  resume[99] = R"({"canon":{},"data":{}})";  // out of range: ignored
  service::DispatchHooks hooks;
  hooks.resume = &resume;
  const service::DispatchResult resumed = service::dispatch(req, hooks);

  EXPECT_EQ(resumed.resumed_units, 0u);
  EXPECT_TRUE(resumed.outcome.pass == control.outcome.pass);
  EXPECT_EQ(strip_batch_timing(parse_json(resumed.report_json)).dump(),
            strip_batch_timing(parse_json(control.report_json)).dump());
}

TEST(Resume, DispatchCampaignResumeWithCollapse) {
  core::JobRequest req;
  req.kind = core::JobKind::kFaultCampaign;
  req.circuit = "op1_follower";
  req.collapse = true;
  req.threads = 1;

  std::map<std::size_t, std::string> checkpoints;
  std::size_t total_units = 0;
  service::DispatchHooks record;
  record.unit_complete = each_unit([&](std::size_t unit, std::size_t total,
                                       const std::string& checkpoint_json) {
    checkpoints[unit] = checkpoint_json;
    total_units = total;
  });
  const service::DispatchResult control = service::dispatch(req, record);
  ASSERT_GT(checkpoints.size(), 2u);
  // Under collapse the work items are class representatives: fewer than
  // the full universe.
  ASSERT_EQ(checkpoints.size(), total_units);

  std::map<std::size_t, std::string> half(checkpoints.begin(),
                                          std::next(checkpoints.begin(), 2));
  service::DispatchHooks hooks;
  hooks.resume = &half;
  const service::DispatchResult resumed = service::dispatch(req, hooks);

  EXPECT_EQ(resumed.resumed_units, 2u);
  JsonValue control_report = parse_json(control.report_json);
  JsonValue resumed_report = parse_json(resumed.report_json);
  control_report.erase("wall_seconds");
  control_report.erase("cpu_seconds");
  resumed_report.erase("wall_seconds");
  resumed_report.erase("cpu_seconds");
  // Per-fault elapsed times differ between runs; the engine-level
  // canonical text (which excludes timing) must not.
  EXPECT_EQ(control.campaign->canonical_outcomes(),
            resumed.campaign->canonical_outcomes());
  EXPECT_EQ(resumed_report.find("detected_count")->as_u64(),
            control_report.find("detected_count")->as_u64());
  EXPECT_EQ(resumed_report.find("simulated_count")->as_u64(),
            control_report.find("simulated_count")->as_u64());
}

/// A campaign request for dispatch().
core::JobRequest campaign_request(const std::string& circuit,
                                  std::size_t threads, bool collapse) {
  core::JobRequest req;
  req.kind = core::JobKind::kFaultCampaign;
  req.circuit = circuit;
  req.threads = threads;
  req.collapse = collapse;
  return req;
}

/// Strip the per-run timing members of a campaign report: its wall and
/// cpu seconds, and each re-run fault's elapsed seconds.
JsonValue strip_campaign_timing(JsonValue report) {
  report.erase("wall_seconds");
  report.erase("cpu_seconds");
  if (const JsonValue* results = report.find("results")) {
    JsonValue cleaned = JsonValue::array();
    for (JsonValue r : results->items()) {
      r.erase("elapsed_seconds");
      cleaned.push_back(std::move(r));
    }
    report.set("results", std::move(cleaned));
  }
  return report;
}

/// Records the last progress tick and counts ticks past their total.
struct ProgressLog {
  std::mutex mu;
  std::size_t last_done = 0;
  std::size_t last_total = 0;
  std::size_t overshoots = 0;

  void attach(service::DispatchHooks& hooks) {
    hooks.progress = [this](std::size_t done, std::size_t total) {
      std::lock_guard<std::mutex> lock(mu);
      last_done = done;
      last_total = total;
      if (done > total) ++overshoots;
    };
  }
};

// A stopped campaign journals only the faults that actually ran, and a
// resume from those checkpoints lands on the uninterrupted control. The
// stop path once recorded a fabricated "skipped: job stopping" result
// (and checkpoint) for every fault it skipped, so the resume "restored"
// every fault and reported the skipped ones as escapes.
TEST(Resume, DispatchCampaignStopResumesToControl) {
  for (const bool collapse : {false, true}) {
    const service::DispatchResult control =
        service::dispatch(campaign_request("op1_follower", 2, collapse));
    ASSERT_TRUE(control.campaign.has_value());
    for (const std::size_t threads : {1u, 2u}) {
      const core::JobRequest req =
          campaign_request("op1_follower", threads, collapse);
      std::mutex mu;
      std::map<std::size_t, std::string> checkpoints;
      std::size_t total_units = 0;
      service::DispatchHooks stopping;
      stopping.unit_complete = each_unit([&](std::size_t unit, std::size_t total,
                                             const std::string& checkpoint_json) {
        std::lock_guard<std::mutex> lock(mu);
        checkpoints[unit] = checkpoint_json;
        total_units = total;
      });
      stopping.should_stop = [&] {
        std::lock_guard<std::mutex> lock(mu);
        return checkpoints.size() >= 2;
      };
      const service::DispatchResult stopped = service::dispatch(req, stopping);
      const std::string where = "threads " + std::to_string(threads) +
                                ", collapse " + std::to_string(collapse);
      EXPECT_TRUE(stopped.stopped) << where;
      EXPECT_FALSE(stopped.campaign.has_value()) << where;
      EXPECT_TRUE(stopped.report_json.empty()) << where;
      EXPECT_GE(checkpoints.size(), 2u) << where;
      EXPECT_LT(checkpoints.size(), total_units) << where;

      service::DispatchHooks hooks;
      hooks.resume = &checkpoints;
      const service::DispatchResult resumed = service::dispatch(req, hooks);
      EXPECT_FALSE(resumed.stopped) << where;
      EXPECT_EQ(resumed.resumed_units, checkpoints.size()) << where;
      ASSERT_TRUE(resumed.campaign.has_value()) << where;
      EXPECT_EQ(resumed.campaign->canonical_outcomes(),
                control.campaign->canonical_outcomes())
          << where;
      JsonValue resumed_report = strip_campaign_timing(parse_json(resumed.report_json));
      JsonValue control_report = strip_campaign_timing(parse_json(control.report_json));
      resumed_report.erase("threads_used");
      control_report.erase("threads_used");
      EXPECT_EQ(resumed_report.dump(), control_report.dump()) << where;
    }
  }
}

// Progress of a resumed campaign counts on from the restored faults and
// ends at the work-item count, never past it.
TEST(Resume, DispatchCampaignProgressNeverExceedsTotal) {
  const core::JobRequest req = campaign_request("op1_follower", 1, false);
  std::map<std::size_t, std::string> checkpoints;
  service::DispatchHooks record;
  record.unit_complete = each_unit([&checkpoints](std::size_t unit, std::size_t,
                                                  const std::string& checkpoint_json) {
    checkpoints[unit] = checkpoint_json;
  });
  const service::DispatchResult control = service::dispatch(req, record);
  ASSERT_EQ(checkpoints.size(), 16u);

  std::map<std::size_t, std::string> half(checkpoints.begin(),
                                          std::next(checkpoints.begin(), 8));
  service::DispatchHooks hooks;
  hooks.resume = &half;
  ProgressLog progress;
  progress.attach(hooks);
  const service::DispatchResult resumed = service::dispatch(req, hooks);

  EXPECT_EQ(resumed.resumed_units, 8u);
  EXPECT_EQ(progress.overshoots, 0u);
  EXPECT_EQ(progress.last_done, 16u);
  EXPECT_EQ(progress.last_total, 16u);
  EXPECT_EQ(resumed.campaign->canonical_outcomes(),
            control.campaign->canonical_outcomes());
}

// A checkpoint for a unit past the work list (a journal of a different
// universe, or corruption under a valid CRC) is ignored: it neither
// counts as resumed nor advances progress.
TEST(Resume, DispatchCampaignIgnoresOutOfRangeCheckpoints) {
  const core::JobRequest req = campaign_request("op1_follower", 1, false);
  std::map<std::size_t, std::string> checkpoints;
  service::DispatchHooks record;
  record.unit_complete = each_unit([&checkpoints](std::size_t unit, std::size_t,
                                                  const std::string& checkpoint_json) {
    checkpoints[unit] = checkpoint_json;
  });
  const service::DispatchResult control = service::dispatch(req, record);
  ASSERT_EQ(checkpoints.count(0), 1u);

  // Decodable, but unit 99 of a 16-fault campaign does not exist.
  std::map<std::size_t, std::string> resume;
  resume[99] = checkpoints[0];
  service::DispatchHooks hooks;
  hooks.resume = &resume;
  ProgressLog progress;
  progress.attach(hooks);
  const service::DispatchResult resumed = service::dispatch(req, hooks);

  EXPECT_EQ(resumed.resumed_units, 0u);
  EXPECT_EQ(progress.overshoots, 0u);
  EXPECT_EQ(progress.last_done, 16u);
  EXPECT_EQ(progress.last_total, 16u);
  EXPECT_EQ(resumed.campaign->canonical_outcomes(),
            control.campaign->canonical_outcomes());
  EXPECT_EQ(strip_campaign_timing(parse_json(resumed.report_json)).dump(),
            strip_campaign_timing(parse_json(control.report_json)).dump());
}

// A campaign resumed from checkpoints that are not a prefix (written at
// more threads than it now runs on) and stopped during its first live
// fault reports only real results. With faults 1..N-1 restored, the one
// live fault completes the work list, so the report is the control's;
// with faults 2..N-1 restored, fault 1 never runs and the job returns
// the stopped non-answer. (Restored faults once entered the report only
// when claimed: the first case came back "succeeded" with N-1 blank
// results.)
TEST(Resume, DispatchCampaignStoppedAfterResumeReportsOnlyRealResults) {
  for (const bool collapse : {false, true}) {
    const core::JobRequest req = campaign_request("op1_follower", 1, collapse);
    std::map<std::size_t, std::string> checkpoints;
    service::DispatchHooks record;
    record.unit_complete = each_unit([&checkpoints](std::size_t unit, std::size_t,
                                                    const std::string& checkpoint_json) {
      checkpoints[unit] = checkpoint_json;
    });
    const service::DispatchResult control = service::dispatch(req, record);
    ASSERT_TRUE(control.campaign.has_value());
    ASSERT_GT(checkpoints.size(), 2u);

    for (const std::size_t first_restored : {1u, 2u}) {
      const std::map<std::size_t, std::string> resume(
          std::next(checkpoints.begin(), static_cast<std::ptrdiff_t>(first_restored)),
          checkpoints.end());
      std::size_t ran = 0;
      service::DispatchHooks hooks;
      hooks.resume = &resume;
      hooks.unit_complete = each_unit([&ran](std::size_t, std::size_t,
                                             const std::string&) { ++ran; });
      hooks.should_stop = [&ran] { return ran >= 1; };
      const service::DispatchResult res = service::dispatch(req, hooks);
      const std::string where = "collapse " + std::to_string(collapse) +
                                ", first restored " +
                                std::to_string(first_restored);
      EXPECT_EQ(ran, 1u) << where;
      EXPECT_EQ(res.resumed_units, resume.size()) << where;
      if (first_restored == 1) {
        EXPECT_FALSE(res.stopped) << where;
        ASSERT_TRUE(res.campaign.has_value()) << where;
        EXPECT_EQ(res.campaign->canonical_outcomes(),
                  control.campaign->canonical_outcomes())
            << where;
        EXPECT_EQ(strip_campaign_timing(parse_json(res.report_json)).dump(),
                  strip_campaign_timing(parse_json(control.report_json)).dump())
            << where;
      } else {
        EXPECT_TRUE(res.stopped) << where;
        EXPECT_FALSE(res.campaign.has_value()) << where;
        EXPECT_TRUE(res.report_json.empty()) << where;
      }
    }
  }
}

}  // namespace
