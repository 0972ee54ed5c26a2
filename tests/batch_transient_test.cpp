// circuit::BatchTransient + production::run_batch_lockstep: lockstep
// waveforms must match one-die-at-a-time sparse transients (bitwise for
// the pivot-defining variant, < 1e-9 relative for the rest), per-lane
// failures must stay in their lane, topology-contract violations and
// malformed value rows must be rejected, a lane netlist rewritten with a
// die's row must march exactly like that die built afresh, and the
// lane-block march must report exactly what one march over the whole lot
// would.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/batch_transient.h"
#include "circuit/elements.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "core/error.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "production/batch.h"
#include "service/dispatch.h"

namespace msbist::circuit {
namespace {

constexpr std::size_t kCells = 12;

/// The sparse-solver test's bus-fed RC macro array, parameterized the
/// Monte-Carlo way: same topology every time, element values scaled by a
/// per-variant factor.
void build_macro_array(Netlist& n, double r_scale, double c_scale,
                       double amp_scale) {
  const NodeId stim = n.node("stim");
  const NodeId bus = n.node("bus");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(
      stim, kGround, std::make_shared<SineWave>(2.5, 2.5 * amp_scale, 50e3));
  n.name_last("VSTIM");
  n.add<Resistor>(stim, bus, 100.0 * r_scale);
  n.add<Resistor>(bus, out, 1e3 * r_scale);
  n.add<Resistor>(out, kGround, 10e3 * r_scale);
  n.add<Capacitor>(out, kGround, 10e-9 * c_scale);
  for (std::size_t i = 0; i < kCells; ++i) {
    const NodeId cell = n.node("cell" + std::to_string(i));
    n.add<Resistor>(bus, cell,
                    (1e3 + 10.0 * static_cast<double>(i)) * r_scale);
    n.add<Capacitor>(cell, kGround,
                     (1e-9 + 1e-11 * static_cast<double>(i)) * c_scale);
  }
}

double variant_scale(std::size_t v, double step) {
  return 1.0 + step * static_cast<double>(v);
}

BatchTransientOptions array_options() {
  BatchTransientOptions opts;
  opts.dt = 100e-9;
  opts.t_stop = 10e-6;
  return opts;
}

double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(BatchTransient, LockstepMatchesScalarSparseTransients) {
  constexpr std::size_t kVariants = 5;
  std::vector<std::unique_ptr<Netlist>> nets;
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), variant_scale(v, 0.03),
                      variant_scale(v, 0.02), variant_scale(v, 0.01));
    variants.push_back(nets.back().get());
  }
  const BatchTransientOptions opts = array_options();
  const BatchTransientReport report = BatchTransient(opts).run(variants);

  ASSERT_EQ(report.variants.size(), kVariants);
  EXPECT_EQ(report.stats.symbolic_analyses, 1u);
  EXPECT_EQ(report.stats.failed_variants, 0u);
  EXPECT_EQ(report.stats.variants, kVariants);

  for (std::size_t v = 0; v < kVariants; ++v) {
    ASSERT_TRUE(report.variants[v].ok()) << "variant " << v;
    Netlist scalar_net;
    build_macro_array(scalar_net, variant_scale(v, 0.03),
                      variant_scale(v, 0.02), variant_scale(v, 0.01));
    TransientOptions scalar_opts;
    scalar_opts.dt = opts.dt;
    scalar_opts.t_stop = opts.t_stop;
    const TransientResult scalar = transient(scalar_net, scalar_opts);
    const LaneWaveforms& lane = *report.variants[v].result;
    if (v == 0) {
      // Variant 0 defines the shared pivot sequence, so its lane replays
      // the exact arithmetic of its own scalar factorization: bitwise.
      EXPECT_EQ(lane.voltage("out"), scalar.voltage("out"));
      EXPECT_EQ(lane.voltage("bus"), scalar.voltage("bus"));
      EXPECT_EQ(lane.current("VSTIM"), scalar.current("VSTIM"));
    } else {
      // Other lanes reuse variant 0's pivot order where their own scalar
      // factorization may pivot differently: the documented < 1e-9
      // relative gate for a change of elimination order.
      EXPECT_LT(max_rel_diff(lane.voltage("out"), scalar.voltage("out")),
                1e-9)
          << "variant " << v;
      EXPECT_LT(max_rel_diff(lane.current("VSTIM"), scalar.current("VSTIM")),
                1e-9)
          << "variant " << v;
    }
  }
}

TEST(BatchTransient, SeedFailureStaysInItsLane) {
  // Lane 2's source amplitude is pushed to the edge of double range, so
  // its DC seed solve overflows; the other lanes must finish untouched.
  constexpr std::size_t kVariants = 4;
  std::vector<std::unique_ptr<Netlist>> nets;
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < kVariants; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), 1.0, 1.0, 1.0);
    variants.push_back(nets.back().get());
  }
  // Rebuild lane 2 with the same topology but pathological values: a
  // near-double-range DC offset into a micro-ohm feed resistor drives
  // the source branch current past double range in the seed solve.
  nets[2] = std::make_unique<Netlist>();
  {
    Netlist& n = *nets[2];
    const NodeId stim = n.node("stim");
    const NodeId bus = n.node("bus");
    const NodeId out = n.node("out");
    n.add<VoltageSource>(stim, kGround,
                         std::make_shared<SineWave>(1e308, 1.0, 50e3));
    n.name_last("VSTIM");
    n.add<Resistor>(stim, bus, 1e-4);
    n.add<Resistor>(bus, out, 1e3);
    n.add<Resistor>(out, kGround, 10e3);
    n.add<Capacitor>(out, kGround, 10e-9);
    for (std::size_t i = 0; i < kCells; ++i) {
      const NodeId cell = n.node("cell" + std::to_string(i));
      n.add<Resistor>(bus, cell, 1e3 + 10.0 * static_cast<double>(i));
      n.add<Capacitor>(cell, kGround, 1e-9 + 1e-11 * static_cast<double>(i));
    }
    variants[2] = nets[2].get();
  }
  BatchTransientOptions opts = array_options();
  opts.newton.damping_retries = 0;
  const BatchTransientReport report = BatchTransient(opts).run(variants);
  ASSERT_EQ(report.variants.size(), kVariants);
  EXPECT_EQ(report.stats.failed_variants, 1u);
  for (std::size_t v = 0; v < kVariants; ++v) {
    if (v == 2) {
      ASSERT_FALSE(report.variants[v].ok());
      EXPECT_EQ(report.variants[v].failure->analysis, "batch_transient/seed");
    } else {
      ASSERT_TRUE(report.variants[v].ok()) << "variant " << v;
      // Healthy lanes produce finite waveforms end to end.
      for (double x : report.variants[v].result->voltage("out")) {
        ASSERT_TRUE(std::isfinite(x));
      }
    }
  }
}

TEST(BatchTransient, MismatchedTopologyIsRejected) {
  Netlist a;
  Netlist b;
  build_macro_array(a, 1.0, 1.0, 1.0);
  build_macro_array(b, 1.1, 1.0, 1.0);
  b.add<Resistor>(b.find_node("bus"), kGround, 1e6);  // extra element
  std::vector<Netlist*> variants{&a, &b};
  EXPECT_THROW(BatchTransient(array_options()).run(variants),
               std::invalid_argument);
}

TEST(BatchTransient, NonlinearVariantIsRejected) {
  Netlist a;
  build_macro_array(a, 1.0, 1.0, 1.0);
  a.add<VoltageSwitch>(a.find_node("out"), kGround, a.find_node("out"),
                       kGround, /*threshold=*/2.5, /*r_on=*/1.0,
                       /*r_off=*/1e9);
  std::vector<Netlist*> variants{&a};
  EXPECT_THROW(BatchTransient(array_options()).run(variants),
               std::invalid_argument);
}

TEST(BatchTransient, SingularPopulationIsBatchLevelTypedError) {
  // Two sources fighting over one node in every lane: singular even under
  // private re-pivoting, so the shared factorization raises the same
  // typed error the scalar solver would.
  auto build = [](Netlist& n, double v) {
    const NodeId a = n.node("a");
    n.add<VoltageSource>(a, kGround, 1.0 * v);
    n.add<VoltageSource>(a, kGround, 2.0 * v);
    n.add<Resistor>(a, kGround, 1e3);
  };
  Netlist n0;
  Netlist n1;
  build(n0, 1.0);
  build(n1, 1.5);
  std::vector<Netlist*> variants{&n0, &n1};
  BatchTransientOptions opts = array_options();
  opts.erc = false;
  EXPECT_THROW(BatchTransient(opts).run(variants), core::SingularMatrixError);
}

TEST(BatchTransient, MismatchedBranchNamesAreRejected) {
  // The shared waveform slab holds one branch table: variant 0's.
  Netlist a;
  build_macro_array(a, 1.0, 1.0, 1.0);
  Netlist renamed;
  build_macro_array(renamed, 1.1, 1.0, 1.0);
  renamed.elements()[0]->set_name("VDRIVE");
  Netlist unnamed;
  build_macro_array(unnamed, 1.1, 1.0, 1.0);
  unnamed.elements()[0]->set_name("");
  for (Netlist* other : {&renamed, &unnamed}) {
    std::vector<Netlist*> variants{&a, other};
    EXPECT_THROW(BatchTransient(array_options()).run(variants),
                 std::invalid_argument);
  }
}

/// Three lanes of the macro array, marched together.
BatchTransientReport three_lane_march(std::vector<std::unique_ptr<Netlist>>& nets) {
  std::vector<Netlist*> variants;
  for (std::size_t v = 0; v < 3; ++v) {
    nets.push_back(std::make_unique<Netlist>());
    build_macro_array(*nets.back(), variant_scale(v, 0.03),
                      variant_scale(v, 0.02), variant_scale(v, 0.01));
    variants.push_back(nets.back().get());
  }
  return BatchTransient(array_options()).run(variants);
}

TEST(LaneWaveforms, UnknownNamesThrowAndGroundReadsZero) {
  std::vector<std::unique_ptr<Netlist>> nets;
  const BatchTransientReport report = three_lane_march(nets);
  ASSERT_TRUE(report.variants[1].ok());
  const LaneWaveforms& lane = *report.variants[1].result;
  EXPECT_THROW((void)lane.voltage("no_such_node"), std::out_of_range);
  EXPECT_THROW((void)lane.current("no_such_source"), std::out_of_range);
  // A node name is not a branch name, nor the other way round.
  EXPECT_THROW((void)lane.current("out"), std::out_of_range);
  EXPECT_THROW((void)lane.voltage("VSTIM"), std::out_of_range);
  const std::vector<double> zeros(lane.time().size(), 0.0);
  for (const char* ground : {"0", "gnd", "GND"}) {
    EXPECT_EQ(lane.voltage(ground), zeros) << ground;
  }
}

TEST(LaneWaveforms, CopiedViewOutlivesItsReport) {
  std::optional<LaneWaveforms> kept;
  std::vector<double> out;
  std::vector<double> source;
  {
    std::vector<std::unique_ptr<Netlist>> nets;
    const BatchTransientReport report = three_lane_march(nets);
    ASSERT_TRUE(report.variants[2].ok());
    kept = *report.variants[2].result;
    out = report.variants[2].result->voltage("out");
    source = report.variants[2].result->current("VSTIM");
  }
  // The report and its netlists are gone; the copy still holds the slab.
  EXPECT_EQ(kept->voltage("out"), out);
  EXPECT_EQ(kept->current("VSTIM"), source);
  EXPECT_EQ(kept->time().size(), out.size());
}

std::vector<std::uint64_t> bits(const std::vector<double>& w) {
  std::vector<std::uint64_t> out;
  for (const double x : w) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(LaneWaveforms, ScalarCopyReproducesEveryWaveformBitForBit) {
  Netlist n;
  build_macro_array(n, 1.02, 0.98, 1.01);
  TransientOptions opts;
  opts.dt = 100e-9;
  opts.t_stop = 10e-6;
  const TransientResult scalar = transient(n, opts);
  const LaneWaveforms view(scalar);
  EXPECT_EQ(bits(view.time()), bits(scalar.time()));
  EXPECT_EQ(view.node_names(), scalar.node_names());
  ASSERT_FALSE(scalar.branch_names().empty());
  for (const std::string& node : scalar.node_names()) {
    EXPECT_EQ(bits(view.voltage(node)), bits(scalar.voltage(node))) << node;
  }
  for (const std::string& branch : scalar.branch_names()) {
    EXPECT_EQ(bits(view.current(branch)), bits(scalar.current(branch)))
        << branch;
  }
}

/// The netlist's transient matrix and right-hand side at one instant,
/// flattened: what every element's values stamp.
std::vector<double> stamps(Netlist& n) {
  const std::size_t unknowns = n.assign_unknowns();
  dsp::Matrix g(unknowns, unknowns);
  std::vector<double> rhs(unknowns, 0.0);
  StampContext ctx;
  ctx.mode = StampContext::Mode::kTransient;
  ctx.dt = 100e-9;
  ctx.t = 1e-6;
  Stamper s(g, rhs);
  for (const auto& el : n.elements()) el->stamp(s, ctx);
  std::vector<double> out(g.data(), g.data() + unknowns * unknowns);
  out.insert(out.end(), rhs.begin(), rhs.end());
  return out;
}

TEST(BatchTransient, SetValuesRejectsBadRowsBeforeWritingAny) {
  Netlist n;
  build_macro_array(n, 1.0, 1.0, 1.0);
  const std::vector<double> before = stamps(n);
  // Four sine slots, three resistors and a capacitor, then a resistor
  // and a capacitor per cell.
  const std::size_t slots = value_count(n);
  ASSERT_EQ(slots, 8 + 2 * kCells);
  // A row that moves every value, spoiled only in its last slot: a
  // writer that checked as it went would already have changed the rest.
  const std::vector<double> good(slots, 2.0);
  std::vector<std::vector<double>> bad_rows;
  bad_rows.emplace_back(good.begin(), good.end() - 1);
  bad_rows.push_back(good);
  bad_rows.back().push_back(2.0);
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    bad_rows.push_back(good);
    bad_rows.back().back() = x;
  }
  for (const std::vector<double>& row : bad_rows) {
    EXPECT_THROW(set_values(n, row), std::invalid_argument)
        << row.size() << " values, last " << row.back();
    EXPECT_EQ(stamps(n), before)
        << row.size() << " values, last " << row.back();
  }
  // The same row unspoiled is written: the stamp probe sees values move.
  set_values(n, good);
  EXPECT_NE(stamps(n), before);
}

}  // namespace
}  // namespace msbist::circuit

namespace msbist::production {
namespace {

using circuit::Capacitor;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;

/// The engines report a whole executor slot at once; feed its dies to a
/// per-die callback in slot order.
DeviceCompleteFn each_die(
    std::function<void(std::size_t index, const DeviceOutcome&)> fn) {
  return [fn = std::move(fn)](std::span<const DeviceOutcome> slot) {
    for (const DeviceOutcome& die : slot) fn(die.index, die);
  };
}

/// Seed-derived RC time constant: every die charges the same node through
/// a slightly different resistor.
void die_topology(Netlist& n) {
  const NodeId in = n.node("in");
  const NodeId out = n.node("out");
  n.add<VoltageSource>(in, kGround, 5.0);
  n.name_last("VDD");
  n.add<Resistor>(in, out, 1.0);
  n.add<Capacitor>(out, kGround, 1.0);
}

void die_values(const DieSpec& spec, std::span<double> row) {
  // Map the seed into a +/-10% spread around 1 kOhm.
  const double unit =
      static_cast<double>(spec.seed % 1000u) / 999.0;  // [0, 1]
  row[0] = 1e3 * (0.9 + 0.2 * unit);
  row[1] = 100e-9;
}

TEST(RunBatchLockstep, ScreensAPopulationLikeRunBatch) {
  std::vector<DieSpec> population;
  for (std::size_t i = 0; i < 6; ++i) {
    DieSpec d;
    d.seed = device_seed(2026, i);
    d.label = "die " + std::to_string(i + 1);
    population.push_back(d);
  }

  LockstepPlan plan;
  plan.topology = die_topology;
  plan.values = die_values;
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 1e-3;
  plan.evaluate = [](const DieSpec&, const circuit::LaneWaveforms& tr) {
    // After ~2 time constants every healthy die sits well above 4 V.
    const double final_v = tr.voltage("out").back();
    return final_v > 4.0
               ? core::Outcome::ok()
               : core::Outcome::fail("out only reached " +
                                     std::to_string(final_v) + " V");
  };

  const BatchReport report = run_batch_lockstep(population, plan);
  ASSERT_EQ(report.devices.size(), population.size());
  EXPECT_EQ(report.passed, population.size());
  EXPECT_EQ(report.degraded_count, 0u);
  // Slot order and identity follow the population, like run_batch.
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_EQ(report.devices[i].index, i);
    EXPECT_EQ(report.devices[i].seed, population[i].seed);
    EXPECT_EQ(report.devices[i].label, population[i].label);
  }
}

TEST(RunBatchLockstep, EvaluateExceptionDegradesOnlyThatDie) {
  std::vector<DieSpec> population;
  for (std::size_t i = 0; i < 3; ++i) {
    DieSpec d;
    d.seed = device_seed(7, i);
    d.label = "die " + std::to_string(i + 1);
    population.push_back(d);
  }
  LockstepPlan plan;
  plan.topology = die_topology;
  plan.values = die_values;
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 200e-6;
  plan.evaluate = [&](const DieSpec& spec,
                      const circuit::LaneWaveforms&) -> core::Outcome {
    if (spec.seed == population[1].seed) {
      throw std::runtime_error("tester glitch");
    }
    return core::Outcome::ok();
  };
  const BatchReport report = run_batch_lockstep(population, plan);
  ASSERT_EQ(report.devices.size(), 3u);
  EXPECT_EQ(report.passed, 2u);
  EXPECT_EQ(report.degraded_count, 1u);
  EXPECT_TRUE(report.devices[1].degraded);
  ASSERT_EQ(report.devices[1].failures.size(), 1u);
  EXPECT_EQ(report.devices[1].failures[0].code, core::ErrorCode::kInternal);
  EXPECT_EQ(report.devices[1].failures[0].analysis,
            "production/lockstep_evaluate");
}

/// Seed-derived resistance spread over six decades (1 mOhm .. 1 kOhm).
double decade_spread(std::uint64_t seed, std::uint64_t salt) {
  const std::uint64_t h = (seed ^ salt) * 0x9E3779B97F4A7C15ull;
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
  return std::pow(10.0, 6.0 * u - 3.0);
}

/// An RC ladder whose resistors each spread over six decades, so dies
/// disagree on the partial-pivoting sequence. Lanes replay lane 0's
/// pivots, so a die's low-order waveform bits depend on which die leads
/// its march — what the block march's leader lane has to pin down.
void pivot_sensitive_topology(Netlist& n) {
  NodeId prev = n.node("in");
  n.add<VoltageSource>(prev, kGround,
                       std::make_shared<circuit::SineWave>(0.0, 0.0, 0.0));
  for (std::uint64_t i = 0; i < 6; ++i) {
    const NodeId node = n.node("n" + std::to_string(i));
    n.add<Resistor>(prev, node, 1.0);
    n.add<Resistor>(node, kGround, 1.0);
    n.add<Capacitor>(node, kGround, 1.0);
    if (i >= 2) {
      n.add<Resistor>(node, n.node("n" + std::to_string(i - 2)), 1.0);
    }
    prev = node;
  }
  const NodeId out = n.node("out");
  n.add<Resistor>(prev, out, 1.0);
  n.add<Resistor>(out, kGround, 1.0);
  n.add<Capacitor>(out, kGround, 1.0);
}

void pivot_sensitive_values(const DieSpec& spec, std::span<double> row) {
  std::size_t k = 0;
  // The drive: SineWave(2.5, 2.0, 50e3), delay 0.
  for (const double v : {2.5, 2.0, 50e3, 0.0}) row[k++] = v;
  for (std::uint64_t i = 0; i < 6; ++i) {
    row[k++] = decade_spread(spec.seed, 10 + i);
    row[k++] = decade_spread(spec.seed, 20 + i);
    row[k++] = 1e-6;
    if (i >= 2) row[k++] = decade_spread(spec.seed, 30 + i);
  }
  row[k++] = decade_spread(spec.seed, 40);
  row[k++] = 10.0;
  row[k++] = 1e-6;
}

/// A verdict carrying the exact bits of the die's waveform (hex-float
/// sum), so any arithmetic difference shows up in the report.
core::Outcome judge_bits(const DieSpec&, const circuit::LaneWaveforms& tr) {
  double sum = 0.0;
  for (const double v : tr.voltage("out")) sum += v;
  char bits[48];
  std::snprintf(bits, sizeof bits, "%a", sum);
  return core::Outcome::ok(bits);
}

LockstepPlan pivot_sensitive_plan() {
  LockstepPlan plan;
  plan.topology = pivot_sensitive_topology;
  plan.values = pivot_sensitive_values;
  plan.transient.dt = 1e-6;
  plan.transient.t_stop = 20e-6;
  plan.evaluate = judge_bits;
  return plan;
}

std::vector<DieSpec> lot(std::size_t n, std::uint64_t batch_seed) {
  std::vector<DieSpec> population(n);
  for (std::size_t i = 0; i < n; ++i) {
    population[i].seed = device_seed(batch_seed, i);
    population[i].label = "die " + std::to_string(i + 1);
  }
  return population;
}

/// What the block march must reproduce: every die in ONE
/// BatchTransient::run (die 0 leading), lane i scored into slot i.
BatchReport one_pass_reference(const std::vector<DieSpec>& population,
                               const LockstepPlan& plan) {
  std::vector<Netlist> nets(population.size());
  std::vector<Netlist*> lanes;
  for (std::size_t i = 0; i < population.size(); ++i) {
    plan.build(population[i], nets[i]);
    lanes.push_back(&nets[i]);
  }
  const circuit::BatchTransientReport sim =
      circuit::BatchTransient(plan.transient).run(lanes);
  BatchReport ref;
  for (std::size_t i = 0; i < population.size(); ++i) {
    EXPECT_TRUE(sim.variants[i].ok()) << "die " << i;
    DeviceOutcome d;
    d.index = i;
    d.seed = population[i].seed;
    d.label = population[i].label;
    d.outcome = plan.evaluate(population[i], *sim.variants[i].result);
    if (d.outcome.pass) ++ref.passed;
    ref.devices.push_back(std::move(d));
  }
  return ref;
}

/// The report document minus wall-clock members.
std::string without_timing(const BatchReport& report) {
  core::JsonValue doc = core::parse_json(core::to_json(report));
  doc.erase("wall_seconds");
  doc.erase("cpu_seconds");
  doc.erase("devices_per_second");
  core::JsonValue devices = core::JsonValue::array();
  for (core::JsonValue d : doc.find("devices")->items()) {
    d.erase("elapsed_seconds");
    devices.push_back(std::move(d));
  }
  doc.set("devices", std::move(devices));
  return doc.dump();
}

TEST(RunBatchLockstep, BlockMarchEqualsOnePassMarchAtAnyThreadCount) {
  // Six full blocks plus a partial tail.
  const std::size_t n = 6 * kLockstepBlockDies + kLockstepBlockDies / 4;
  const std::vector<DieSpec> population = lot(n, 20260808);
  const LockstepPlan plan = pivot_sensitive_plan();
  BatchReport ref = one_pass_reference(population, plan);

  // The premise: some die leads a march to different bits for die 0
  // than die 0 leading its own, so a block without the leader lane would
  // not reproduce the one-pass march.
  bool leader_matters = false;
  for (std::size_t j = 1; j < n && !leader_matters; ++j) {
    Netlist lead;
    Netlist die0;
    plan.build(population[j], lead);
    plan.build(population[0], die0);
    const circuit::BatchTransientReport sim =
        circuit::BatchTransient(plan.transient).run({&lead, &die0});
    leader_matters = plan.evaluate(population[0], *sim.variants[1].result)
                         .detail != ref.devices[0].outcome.detail;
  }
  ASSERT_TRUE(leader_matters);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const BatchReport report =
        run_batch_lockstep(population, plan, nullptr, {}, threads);
    EXPECT_EQ(report.threads_used, threads);
    ref.threads_used = threads;
    EXPECT_EQ(report.canonical_outcomes(), ref.canonical_outcomes())
        << "threads " << threads;
    EXPECT_EQ(without_timing(report), without_timing(ref))
        << "threads " << threads;
  }
}

TEST(RunBatchLockstep, UnsetSlotInTheLastDieThrows) {
  const std::vector<DieSpec> population = lot(3 * kLockstepBlockDies + 5, 9);
  LockstepPlan plan;
  plan.topology = die_topology;
  // The population's last die leaves its last slot (the capacitance)
  // unwritten; every other die writes its full row.
  plan.values = [&population](const DieSpec& spec, std::span<double> row) {
    std::vector<double> full(row.size());
    die_values(spec, full);
    const std::size_t written =
        spec.seed == population.back().seed ? row.size() - 1 : row.size();
    std::copy_n(full.begin(), written, row.begin());
  };
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 50e-6;
  plan.evaluate = [](const DieSpec&, const circuit::LaneWaveforms&) {
    return core::Outcome::ok();
  };
  for (const std::size_t threads : {1u, 2u}) {
    EXPECT_THROW(run_batch_lockstep(population, plan, nullptr, {}, threads),
                 std::invalid_argument)
        << "threads " << threads;
  }
}

/// Every waveform of a scalar transient of `n` under the plan's march
/// options, time axis first, as exact bits.
std::vector<std::vector<std::uint64_t>> scalar_bits(Netlist& n,
                                                    const LockstepPlan& plan) {
  circuit::TransientOptions t;
  t.dt = plan.transient.dt;
  t.t_stop = plan.transient.t_stop;
  t.newton = plan.transient.newton;
  const circuit::TransientResult r = circuit::transient(n, t);
  std::vector<std::vector<std::uint64_t>> out{circuit::bits(r.time())};
  for (const std::string& node : r.node_names()) {
    out.push_back(circuit::bits(r.voltage(node)));
  }
  for (const std::string& branch : r.branch_names()) {
    out.push_back(circuit::bits(r.current(branch)));
  }
  return out;
}

TEST(RunBatchLockstep, RewrittenLaneEqualsAFreshBuild) {
  const std::vector<DieSpec> population = lot(2, 31);
  const DieSpec& die_i = population[0];
  const DieSpec& die_j = population[1];
  for (const LockstepPlan& plan :
       {service::lockstep_screen_plan(), pivot_sensitive_plan()}) {
    // A lane that last held die j, marched (capacitor history and all).
    Netlist lane;
    plan.topology(lane);
    std::vector<double> row(circuit::value_count(lane));
    plan.values(die_j, row);
    circuit::set_values(lane, row);
    const auto held_j = scalar_bits(lane, plan);
    // Rewritten with die i's row, it marches exactly like die i built
    // afresh.
    plan.values(die_i, row);
    circuit::set_values(lane, row);
    Netlist fresh;
    plan.build(die_i, fresh);
    const auto fresh_i = scalar_bits(fresh, plan);
    EXPECT_NE(held_j, fresh_i);  // the rewrite has something to undo
    EXPECT_EQ(scalar_bits(lane, plan), fresh_i);
  }
}

TEST(RunBatchLockstep, NoLaneSetOutlivesItsCall) {
  // Two plans with different circuits, back to back: a lane set kept past
  // its call would march the second plan's rows on the first's circuit.
  const std::vector<DieSpec> population = lot(2 * kLockstepBlockDies + 3, 77);
  LockstepPlan rc;
  rc.topology = die_topology;
  rc.values = die_values;
  rc.transient.dt = 5e-6;
  rc.transient.t_stop = 50e-6;
  rc.evaluate = judge_bits;
  LockstepPlan pivot = pivot_sensitive_plan();
  for (const std::size_t threads : {1u, 2u}) {
    for (const LockstepPlan* plan : {&pivot, &rc}) {
      BatchReport ref = one_pass_reference(population, *plan);
      ref.threads_used = threads;
      EXPECT_EQ(without_timing(
                    run_batch_lockstep(population, *plan, nullptr, {}, threads)),
                without_timing(ref))
          << "threads " << threads;
    }
  }
}

TEST(RunBatchLockstep, StopBetweenBlocksCompletesOnlyWholeBlocks) {
  const std::vector<DieSpec> population = lot(5 * kLockstepBlockDies, 4);
  LockstepPlan plan;
  plan.topology = die_topology;
  plan.values = die_values;
  plan.transient.dt = 5e-6;
  plan.transient.t_stop = 50e-6;
  plan.evaluate = [](const DieSpec&, const circuit::LaneWaveforms&) {
    return core::Outcome::ok();
  };
  std::vector<std::size_t> completed;
  (void)run_batch_lockstep(
      population, plan, nullptr,
      each_die([&completed](std::size_t index, const DeviceOutcome& out) {
        EXPECT_EQ(out.index, index);
        completed.push_back(index);
      }),
      1, [&completed] { return !completed.empty(); });
  // The stop lands after the first block: its dies, and nothing else.
  ASSERT_EQ(completed.size(), kLockstepBlockDies);
  for (std::size_t i = 0; i < completed.size(); ++i) EXPECT_EQ(completed[i], i);
}

}  // namespace
}  // namespace msbist::production
