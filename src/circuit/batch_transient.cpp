#include "circuit/batch_transient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "analysis/runner.h"
#include "circuit/workspace.h"
#include "dsp/sparse.h"

namespace msbist::circuit {

struct WaveformSlab {
  std::size_t lanes = 0;
  std::size_t unknowns = 0;
  std::vector<double> time;
  std::vector<std::string> node_names;  ///< node n is unknown row n
  // Name -> unknown row, built once per slab so lookups are O(1).
  std::unordered_map<std::string, std::size_t> node_rows;
  std::unordered_map<std::string, std::size_t> branch_rows;
  std::unique_ptr<double[]> values;  ///< [sample][unknown][lane]
};

LaneWaveforms::LaneWaveforms(const TransientResult& scalar) {
  auto slab = std::make_shared<WaveformSlab>();
  const std::vector<std::string>& nodes = scalar.node_names();
  const std::vector<std::string>& branches = scalar.branch_names();
  slab->lanes = 1;
  slab->unknowns = nodes.size() + branches.size();
  slab->time = scalar.time();
  slab->node_names = nodes;
  slab->values = std::make_unique<double[]>(slab->time.size() * slab->unknowns);
  const auto copy_row = [&slab](std::size_t row, const std::vector<double>& w) {
    for (std::size_t k = 0; k < w.size(); ++k) {
      slab->values[k * slab->unknowns + row] = w[k];
    }
  };
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    slab->node_rows.emplace(nodes[n], n);
    copy_row(n, scalar.voltage(nodes[n]));
  }
  for (std::size_t b = 0; b < branches.size(); ++b) {
    slab->branch_rows.emplace(branches[b], nodes.size() + b);
    copy_row(nodes.size() + b, scalar.current(branches[b]));
  }
  slab_ = std::move(slab);
}

const std::vector<double>& LaneWaveforms::time() const { return slab_->time; }

const std::vector<std::string>& LaneWaveforms::node_names() const {
  return slab_->node_names;
}

std::vector<double> LaneWaveforms::voltage(const std::string& node_name) const {
  if (node_name == "0" || node_name == "gnd" || node_name == "GND") {
    return std::vector<double>(slab_->time.size(), 0.0);
  }
  const auto it = slab_->node_rows.find(node_name);
  if (it == slab_->node_rows.end()) {
    throw std::out_of_range("LaneWaveforms: unknown node " + node_name);
  }
  return gather(it->second);
}

std::vector<double> LaneWaveforms::current(const std::string& element_name) const {
  const auto it = slab_->branch_rows.find(element_name);
  if (it == slab_->branch_rows.end()) {
    throw std::out_of_range("LaneWaveforms: unknown branch element " +
                            element_name);
  }
  return gather(it->second);
}

std::vector<double> LaneWaveforms::gather(std::size_t row) const {
  const WaveformSlab& s = *slab_;
  const std::size_t sample_stride = s.unknowns * s.lanes;
  const double* src = s.values.get() + row * s.lanes + lane_;
  std::vector<double> out(s.time.size());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = src[k * sample_stride];
  return out;
}

namespace {

/// Per-variant working set the step loop touches.
struct Lane {
  Netlist* netlist = nullptr;
  bool alive = true;
  core::Failure failure;
  std::vector<double> state;
  std::vector<double> rhs;
  std::vector<const Element*> rhs_elements;  ///< elements with RHS writes
  std::vector<Element*> stateful;            ///< elements with history
};

core::Failure lane_failure(core::ErrorCode code, std::string analysis,
                           std::string detail) {
  core::Failure f;
  f.code = code;
  f.analysis = std::move(analysis);
  f.detail = std::move(detail);
  return f;
}

/// Elements whose branch current a result can name.
bool has_named_branch(const Element& el) {
  return el.branch_count() > 0 && !el.name().empty();
}

/// A sparse pattern every lane shares — variant 0's stamp coordinates
/// through mna_pattern, exactly as the scalar workspace builds it — and
/// the lanes' values over it. Each lane is assembled densely in a scratch
/// matrix (the scalar workspace's accumulation) and then taken: its
/// pattern entries, the only ones a stamp can touch, are moved into the
/// entry-major SoA slab and zeroed for the next lane.
struct SharedPattern {
  MnaPattern mna;
  std::vector<double> soa;  ///< soa[p * lanes + v]

  void build(std::vector<std::pair<int, int>> coords, std::size_t unknowns,
             std::size_t nodes, std::size_t lanes) {
    mna = mna_pattern(std::move(coords), unknowns, nodes);
    soa.assign(mna.matrix.nnz() * lanes, 0.0);
  }

  void take(dsp::Matrix& scratch, std::size_t v, std::size_t lanes) {
    double* d = scratch.data();
    for (std::size_t p = 0; p < mna.dense.size(); ++p) {
      soa[p * lanes + v] = d[mna.dense[p]];
      d[mna.dense[p]] = 0.0;
    }
  }

  /// Factor lane 0 with pivoting into `shared` and refactor every lane
  /// against its pivot sequence in one batch pass.
  void factor(dsp::SparseLu& shared, dsp::BatchSparseLu& batch,
              std::size_t lanes) {
    double* pv = mna.matrix.values();
    for (std::size_t p = 0; p < mna.dense.size(); ++p) pv[p] = soa[p * lanes];
    shared.factor(mna.matrix);
    batch.bind(shared, lanes);
    batch.refactor_batch(soa.data());
  }
};

}  // namespace

BatchTransientReport BatchTransient::run(
    const std::vector<Netlist*>& variants) const {
  if (variants.empty()) {
    throw std::invalid_argument("batch_transient: empty variant list");
  }
  for (Netlist* v : variants) {
    if (v == nullptr) {
      throw std::invalid_argument("batch_transient: null variant netlist");
    }
  }
  if (opts_.dt <= 0) {
    throw std::invalid_argument("batch_transient: dt must be > 0");
  }
  if (opts_.t_stop <= opts_.t_start) {
    throw std::invalid_argument("batch_transient: t_stop must exceed t_start");
  }
  const std::size_t nvar = variants.size();
  // All variants share variant 0's topology, so one ERC covers the lot.
  if (opts_.erc) analysis::enforce(*variants[0], "batch_transient");

  const std::size_t unknowns = variants[0]->assign_unknowns();
  const std::size_t nodes = variants[0]->node_count();
  const std::size_t nelem = variants[0]->elements().size();
  for (std::size_t v = 1; v < nvar; ++v) {
    if (variants[v]->assign_unknowns() != unknowns ||
        variants[v]->node_names() != variants[0]->node_names() ||
        variants[v]->elements().size() != nelem) {
      throw std::invalid_argument(
          "batch_transient: variant " + std::to_string(v) +
          " does not share variant 0's topology (nodes/elements/unknowns)");
    }
  }

  // Discovery: log every element's stamp footprint while stamping each
  // variant's (static) matrix, once. Variant 0's matrix coordinates define
  // the shared sparse pattern; every other variant must reproduce the
  // same per-element footprint and named branch elements (same topology,
  // only values differ), and every element must keep a static linear
  // matrix.
  StampContext discovery;
  discovery.mode = StampContext::Mode::kTransient;
  discovery.dt = opts_.dt;
  discovery.method = opts_.method;
  discovery.t = opts_.t_start;
  discovery.guess = nullptr;

  dsp::Matrix scratch_g(unknowns, unknowns);
  std::vector<double> scratch_rhs(unknowns, 0.0);
  std::vector<std::vector<std::pair<int, int>>> footprint0(nelem);
  std::vector<std::vector<int>> rhs_footprint0(nelem);
  std::vector<std::pair<int, int>> pattern_coords;
  SharedPattern march;
  std::vector<std::pair<int, int>> matrix_log;
  std::vector<int> rhs_log;
  for (std::size_t v = 0; v < nvar; ++v) {
    for (std::size_t i = 0; i < nelem; ++i) {
      const Element* el = variants[v]->elements()[i].get();
      if (el->nonlinear() || !el->time_invariant_stamp()) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) +
            " has a nonlinear or time-varying matrix stamp; the lockstep "
            "engine requires fully static variant matrices");
      }
      const Element& el0 = *variants[0]->elements()[i];
      if (v > 0 && (has_named_branch(*el) != has_named_branch(el0) ||
                    (has_named_branch(el0) && el->name() != el0.name()))) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) +
            " names its branch differently than variant 0");
      }
      matrix_log.clear();
      rhs_log.clear();
      Stamper s(scratch_g, scratch_rhs);
      s.set_write_log(&matrix_log, &rhs_log);
      el->stamp(s, discovery);
      if (v == 0) {
        footprint0[i] = matrix_log;
        rhs_footprint0[i] = rhs_log;
        pattern_coords.insert(pattern_coords.end(), matrix_log.begin(),
                              matrix_log.end());
      } else if (matrix_log != footprint0[i] || rhs_log != rhs_footprint0[i]) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) + " stamps a different footprint than variant 0");
      }
    }
    // gmin lands on every node diagonal, exactly as in the scalar solver.
    for (std::size_t node = 0; node < nodes; ++node) {
      scratch_g(node, node) += opts_.newton.gmin;
    }
    if (v == 0) march.build(std::move(pattern_coords), unknowns, nodes, nvar);
    march.take(scratch_g, v, nvar);
  }

  // The rows any RHS stamp writes, ascending: the march stamps, clears
  // and transposes only these.
  std::vector<std::size_t> rhs_rows;
  for (const std::vector<int>& log : rhs_footprint0) {
    rhs_rows.insert(rhs_rows.end(), log.begin(), log.end());
  }
  std::sort(rhs_rows.begin(), rhs_rows.end());
  rhs_rows.erase(std::unique(rhs_rows.begin(), rhs_rows.end()), rhs_rows.end());

  std::vector<Lane> lanes(nvar);
  for (std::size_t v = 0; v < nvar; ++v) {
    Lane& lane = lanes[v];
    lane.netlist = variants[v];
    lane.state.assign(unknowns, 0.0);
    lane.rhs.assign(unknowns, 0.0);
    for (std::size_t i = 0; i < nelem; ++i) {
      Element* el = lane.netlist->elements()[i].get();
      if (!rhs_footprint0[i].empty()) lane.rhs_elements.push_back(el);
      if (el->has_transient_state()) lane.stateful.push_back(el);
    }
  }

  // Seed states. The DC operating points run through the same batched
  // machinery as the march: one shared symbolic analysis of the DC
  // pattern, per-lane numeric refactorization, one batched solve. For a
  // linear circuit the scalar solver's converged Newton iterate IS
  // solve(A_dc, b_dc) — the iteration recomputes the identical direct
  // solve until the delta vanishes — and the assembly here accumulates
  // entries in the same element order with the same gmin placement, so
  // the pivot-defining lane's seed is bit-identical to a scalar
  // dc_operating_point. A lane whose seed comes out non-finite is marked
  // failed and sits the march out; a lane whose matrix is singular even
  // under private re-pivoting fails the batch (shared factorization
  // cannot route around it).
  StampContext dc_ctx;
  dc_ctx.mode = StampContext::Mode::kDc;
  dc_ctx.t = 0.0;
  dc_ctx.guess = nullptr;
  // DC footprints differ from the transient ones (capacitors vanish),
  // so the DC system gets its own pattern, from variant 0's DC write
  // logs. The scratch matrix is all zeros again after the transient
  // assembly, so each lane accumulates onto zeros here too.
  SharedPattern dc;
  std::vector<double> dc_x(unknowns * nvar, 0.0);
  for (std::size_t v = 0; v < nvar; ++v) {
    std::fill(scratch_rhs.begin(), scratch_rhs.end(), 0.0);
    if (v == 0) {
      std::vector<std::pair<int, int>> dc_coords;
      for (const auto& el : variants[0]->elements()) {
        matrix_log.clear();
        rhs_log.clear();
        Stamper s(scratch_g, scratch_rhs);
        s.set_write_log(&matrix_log, &rhs_log);
        el->stamp(s, dc_ctx);
        dc_coords.insert(dc_coords.end(), matrix_log.begin(),
                         matrix_log.end());
      }
      dc.build(std::move(dc_coords), unknowns, nodes, nvar);
    } else {
      Stamper s(scratch_g, scratch_rhs);
      for (const auto& el : variants[v]->elements()) el->stamp(s, dc_ctx);
    }
    for (std::size_t node = 0; node < nodes; ++node) {
      scratch_g(node, node) += opts_.newton.gmin;
    }
    dc.take(scratch_g, v, nvar);
    for (std::size_t row = 0; row < unknowns; ++row) {
      dc_x[row * nvar + v] = scratch_rhs[row];
    }
  }
  dsp::SparseLu dc_shared;
  dsp::BatchSparseLu dc_batch;
  try {
    dc.factor(dc_shared, dc_batch, nvar);
  } catch (const std::runtime_error& e) {
    throw core::SingularMatrixError(
        lane_failure(core::ErrorCode::kSingularMatrix,
                     "batch_transient/seed", e.what()));
  }
  dc_batch.solve_batch(dc_x.data());
  for (std::size_t v = 0; v < nvar; ++v) {
    Lane& lane = lanes[v];
    bool finite = true;
    for (std::size_t row = 0; row < unknowns; ++row) {
      lane.state[row] = dc_x[row * nvar + v];
      if (!std::isfinite(lane.state[row])) finite = false;
    }
    if (!finite) {
      lane.alive = false;
      lane.failure = lane_failure(
          core::ErrorCode::kNumericOverflow, "batch_transient/seed",
          "DC operating point is not finite");
      lane.state.assign(unknowns, 0.0);
    }
  }
  for (std::size_t v = 0; v < nvar; ++v) {
    for (auto& el : lanes[v].netlist->elements()) {
      el->transient_begin(lanes[v].state, /*use_initial_conditions=*/false);
    }
  }

  // Shared numerics: the march matrix, factored once for every lane.
  dsp::SparseLu shared;
  dsp::BatchSparseLu batch;
  try {
    march.factor(shared, batch, nvar);
  } catch (const std::runtime_error& e) {
    // A lane's matrix is singular even under private re-pivoting: the
    // shared factorization cannot route around it, so the batch fails
    // with the same typed error the scalar solver would raise.
    throw core::SingularMatrixError(lane_failure(
        core::ErrorCode::kSingularMatrix, "batch_transient", e.what()));
  }

  const auto steps = static_cast<std::size_t>(
      std::llround((opts_.t_stop - opts_.t_start) / opts_.dt));
  // The waveform slab every lane's view reads: [sample][unknown][lane],
  // so sample k's block is exactly the SoA vector solve_batch works on.
  // Each step clears its block just before filling and solving it in
  // place, so the block is cache-hot for the solve and the accepts that
  // follow; rows no RHS stamp writes, and dead lanes' columns, stay zero.
  auto slab = std::make_shared<WaveformSlab>();
  slab->lanes = nvar;
  slab->unknowns = unknowns;
  slab->time.resize(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    slab->time[k] = opts_.t_start + static_cast<double>(k) * opts_.dt;
  }
  slab->node_names = variants[0]->node_names();
  for (std::size_t n = 0; n < nodes; ++n) {
    slab->node_rows.emplace(slab->node_names[n], n);
  }
  for (const auto& el : variants[0]->elements()) {
    if (has_named_branch(*el)) {
      slab->branch_rows.emplace(el->name(),
                                static_cast<std::size_t>(el->branch_base()));
    }
  }
  const std::size_t block = unknowns * nvar;
  slab->values = std::make_unique_for_overwrite<double[]>((steps + 1) * block);
  for (std::size_t v = 0; v < nvar; ++v) {
    for (std::size_t row = 0; row < unknowns; ++row) {
      slab->values[row * nvar + v] = lanes[v].state[row];
    }
  }

  // The march: per-lane RHS stamps transposed into the step's block, one
  // vectorized solve across all lanes in place, per-lane accept. Lanes
  // are arithmetically independent inside solve_batch, so a dead lane's
  // zero column never perturbs the others.
  StampContext ctx = discovery;
  for (std::size_t k = 1; k <= steps; ++k) {
    ctx.t = opts_.t_start + static_cast<double>(k) * opts_.dt;
    double* const x_soa = slab->values.get() + k * block;
    std::fill(x_soa, x_soa + block, 0.0);
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      if (!lane.alive) continue;
      for (const std::size_t row : rhs_rows) lane.rhs[row] = 0.0;
      Stamper s(scratch_g, lane.rhs, Stamper::RhsOnly{});
      for (const Element* el : lane.rhs_elements) el->stamp(s, ctx);
      for (const std::size_t row : rhs_rows) {
        x_soa[row * nvar + v] = lane.rhs[row];
      }
    }
    batch.solve_batch(x_soa);
    // Cheap whole-block finiteness probe: a NaN/Inf anywhere poisons the
    // accumulator (Inf - Inf = NaN), so the per-lane scan only runs on the
    // rare step where some lane actually blew up.
    double probe = 0.0;
    for (std::size_t i = 0; i < block; ++i) probe += x_soa[i];
    if (!std::isfinite(probe)) {
      for (std::size_t v = 0; v < nvar; ++v) {
        Lane& lane = lanes[v];
        if (!lane.alive) continue;
        bool finite = true;
        for (std::size_t row = 0; row < unknowns; ++row) {
          if (!std::isfinite(x_soa[row * nvar + v])) finite = false;
        }
        if (!finite) {
          lane.alive = false;
          lane.failure = lane_failure(core::ErrorCode::kNumericOverflow,
                                      "batch_transient",
                                      "lockstep solve produced NaN/Inf");
          lane.failure.has_time = true;
          lane.failure.time_s = ctx.t;
          // Zero the column so the dead lane's values never reach the
          // waveform slab.
          for (std::size_t row = 0; row < unknowns; ++row) {
            x_soa[row * nvar + v] = 0.0;
          }
        }
      }
    }
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      if (!lane.alive) continue;
      for (std::size_t row = 0; row < unknowns; ++row) {
        lane.state[row] = x_soa[row * nvar + v];
      }
      for (Element* el : lane.stateful) el->transient_accept(lane.state, ctx);
    }
  }

  BatchTransientReport report;
  report.stats.variants = nvar;
  report.stats.unknowns = unknowns;
  report.stats.pattern_nnz = march.mna.matrix.nnz();
  report.stats.steps = steps;
  report.stats.symbolic_analyses = shared.stats().analyses;
  report.stats.pivot_fallbacks = batch.fallback_count();
  report.variants.reserve(nvar);
  const std::shared_ptr<const WaveformSlab> waveforms = std::move(slab);
  for (std::size_t v = 0; v < nvar; ++v) {
    Lane& lane = lanes[v];
    BatchVariantOutcome out;
    if (lane.alive) {
      out.result = LaneWaveforms(waveforms, v);
    } else {
      out.failure = std::move(lane.failure);
      ++report.stats.failed_variants;
    }
    report.variants.push_back(std::move(out));
  }
  return report;
}

}  // namespace msbist::circuit
