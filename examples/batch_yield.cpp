// Batch yield: the paper's fabricated batch of 10 devices, then a
// 1000-device Monte-Carlo extrapolation of the same production flow.
//
//   $ ./example_batch_yield [extrapolation_count] [--json] [--chaos]
//
// Part 1 reproduces the paper's result ("All devices passed the
// analogue, digital and compressed tests") on 10 process-varied dies
// with the full plan: every BIST tier, the full-spec metrics sweep, and
// the fault-injection spot check.
//
// Part 2 runs the same screen over a 1000-die lot on all hardware
// threads and prints the yield plus the parametric distributions a
// process engineer would read off the lot (offset, gain, INL, DNL,
// conversion time).
//
// --chaos seeds the extrapolation lot with dies whose test procedure
// hits hard solver failures (every 7th die aborts with a typed
// core::SolverError). It demonstrates graceful degradation: the batch
// still completes with exit 0, the affected dies are reported as
// degraded fails with structured Failure records, and the report's
// degraded_count tallies them. CI's chaos gate asserts exactly this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/msbist.h"
#include "service/dispatch.h"

namespace {

using namespace msbist;

const char* mark(bool ok) { return ok ? "+" : "X"; }

void print_paper_batch(const production::BatchReport& rep) {
  core::Table table({"die", "a", "r", "d", "c", "offset", "gain", "INL",
                     "DNL", "spot", "verdict"});
  for (const production::DeviceOutcome& d : rep.devices) {
    table.add_row(
        {std::to_string(d.index + 1), mark(d.bist.analog.pass),
         mark(d.bist.ramp.pass), mark(d.bist.digital.pass),
         mark(d.bist.compressed.pass), core::Table::num(d.metrics.offset_lsb),
         core::Table::num(d.metrics.gain_error_lsb),
         core::Table::num(d.metrics.max_abs_inl),
         core::Table::num(d.metrics.max_abs_dnl),
         std::to_string(d.spot_check.detected) + "/" +
             std::to_string(d.spot_check.injected),
         d.outcome.pass ? "PASS" : "FAIL"});
  }
  std::printf("== the paper's batch: 10 fabricated devices ==\n\n%s\n%s\n\n",
              table.to_string().c_str(), rep.summary().c_str());
}

void print_stats_row(core::Table& t, const char* name,
                     const production::ParamStats& s, const char* unit) {
  t.add_row({name, core::Table::num(s.mean), core::Table::num(s.sigma),
             core::Table::num(s.p05), core::Table::num(s.p50),
             core::Table::num(s.p95), core::Table::num(s.min),
             core::Table::num(s.max), unit});
}

void print_extrapolation(const production::BatchReport& rep) {
  std::printf("== %zu-device Monte-Carlo extrapolation ==\n\n",
              rep.devices.size());
  core::Table stats({"parameter", "mean", "sigma", "p05", "p50", "p95", "min",
                     "max", "unit"});
  print_stats_row(stats, "offset", rep.offset_lsb, "LSB");
  print_stats_row(stats, "gain error", rep.gain_error_lsb, "LSB");
  print_stats_row(stats, "max |INL|", rep.max_abs_inl, "LSB");
  print_stats_row(stats, "max |DNL|", rep.max_abs_dnl, "LSB");
  print_stats_row(stats, "conversion time", rep.conversion_time_s, "s");
  print_stats_row(stats, "fall time (0 V step)", rep.first_step_fall_time_s,
                  "s");
  std::printf("%s\n", stats.to_string().c_str());

  core::Table tiers({"tier", "failing devices"});
  for (bist::Tier t : bist::kAllTiers) {
    tiers.add_row(
        {bist::to_string(t),
         std::to_string(
             rep.tier_failures[static_cast<std::size_t>(t)].size())});
  }
  std::printf("%s\n%s\n", tiers.to_string().c_str(), rep.summary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t extrapolation = 1000;
  bool json = false;
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      extrapolation = static_cast<std::size_t>(std::atol(argv[i]));
    }
  }

  // Part 1: the fabricated lot (production::paper_population(), the
  // paper's 10 dies), under the full plan, through the unified
  // job-request entry point the msbistd daemon also uses. Thread count
  // never changes the report.
  core::JobRequest paper_job;
  paper_job.kind = core::JobKind::kBatch;
  paper_job.label = "paper batch";
  paper_job.full_spec = true;
  paper_job.fault_spot_check = true;
  paper_job.threads = 0;  // hardware concurrency
  const service::DispatchResult paper_res =
      service::dispatch(paper_job, production::paper_population(), {});
  const production::BatchReport& paper_rep = *paper_res.batch;

  // Part 2: a fresh Monte-Carlo lot from one batch seed.
  core::JobRequest lot_job;
  lot_job.kind = core::JobKind::kBatch;
  lot_job.label = "extrapolation lot";
  lot_job.device_count = extrapolation;
  lot_job.batch_seed = 1995;
  lot_job.full_spec = true;
  lot_job.fault_spot_check = false;  // testability already proven on 10
  lot_job.threads = 0;

  production::BatchReport lot_rep;
  if (chaos) {
    production::BatchConfig lot;
    lot.device_count = extrapolation;
    lot.batch_seed = 1995;
    lot.plan.tiers = service::parse_tiers(lot_job.tiers);
    lot.plan.full_spec = lot_job.full_spec;
    lot.plan.fault_spot_check = lot_job.fault_spot_check;
    // Deterministic fault seeding: every 7th die's tester hits a hard
    // solver failure mid-procedure. run_batch must isolate each one into
    // a degraded failing outcome instead of aborting the lot.
    const production::DeviceTestFn chaotic =
        [](const production::DieSpec& spec, const production::TestPlan& plan) {
          // Labels are "die 1".."die N": key off the position so the
          // seeded set is identical for any batch seed or thread count.
          const int position = std::atoi(spec.label.c_str() + 4);
          if (position % 7 == 0) {
            core::Failure f;
            f.code = core::ErrorCode::kNonConvergent;
            f.analysis = "transient";
            f.detail = "chaos-injected convergence failure";
            core::throw_failure(std::move(f));
          }
          return production::test_device(spec, plan);
        };
    lot_rep = production::run_batch(production::make_population(lot),
                                    lot.plan, /*threads=*/0, chaotic);
  } else {
    // The clean path goes through the same dispatcher as the daemon.
    lot_rep = *service::dispatch(lot_job).batch;
  }

  if (json) {
    core::JsonWriter w;
    w.begin_object();
    w.key("paper_batch");
    paper_rep.to_json(w);
    w.key("extrapolation");
    lot_rep.to_json(w);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  } else {
    print_paper_batch(paper_rep);
    print_extrapolation(lot_rep);
  }

  // The paper's headline: all 10 fabricated devices passed.
  return paper_rep.outcome().pass ? 0 : 1;
}
