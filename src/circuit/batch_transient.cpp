#include "circuit/batch_transient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/runner.h"
#include "dsp/sparse.h"

namespace msbist::circuit {

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
  std::vector<std::string> branch_names;
  std::vector<int> branch_rows;
};

core::Failure lane_failure(core::ErrorCode code, std::string analysis,
                           std::string detail) {
  core::Failure f;
  f.code = code;
  f.analysis = std::move(analysis);
  f.detail = std::move(detail);
  return f;
}

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

  // Discovery: log every element's stamp footprint. Variant 0's matrix
  // coordinates define the shared sparse pattern; every other variant
  // must reproduce the same per-element footprint (same topology, only
  // values differ), and every element must keep a static linear matrix.
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
  for (std::size_t v = 0; v < nvar; ++v) {
    std::vector<std::pair<int, int>> matrix_log;
    std::vector<int> rhs_log;
    for (std::size_t i = 0; i < nelem; ++i) {
      const Element* el = variants[v]->elements()[i].get();
      if (el->nonlinear() || !el->time_invariant_stamp()) {
        throw std::invalid_argument(
            "batch_transient: variant " + std::to_string(v) + " element " +
            std::to_string(i) +
            " has a nonlinear or time-varying matrix stamp; the lockstep "
            "engine requires fully static variant matrices");
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
  }
  // gmin lands on every node diagonal, exactly as in the scalar solver.
  for (std::size_t node = 0; node < nodes; ++node) {
    pattern_coords.emplace_back(static_cast<int>(node),
                                static_cast<int>(node));
  }
  dsp::SparseMatrix pattern = dsp::SparseMatrix::from_pattern(
      unknowns, unknowns, std::move(pattern_coords));
  // gather_src[p]: row-major dense offset of pattern entry p.
  std::vector<std::size_t> gather_src(pattern.nnz());
  {
    std::size_t p = 0;
    for (std::size_t r = 0; r < unknowns; ++r) {
      for (int q = pattern.row_ptr()[r]; q < pattern.row_ptr()[r + 1];
           ++q, ++p) {
        gather_src[p] = r * unknowns + static_cast<std::size_t>(pattern.col_idx()[q]);
      }
    }
  }

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
      if (el->branch_count() > 0 && !el->name().empty()) {
        lane.branch_names.push_back(el->name());
        lane.branch_rows.push_back(el->branch_base());
      }
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
  if (!opts_.use_initial_conditions) {
    StampContext dc_ctx;
    dc_ctx.mode = StampContext::Mode::kDc;
    dc_ctx.t = 0.0;
    dc_ctx.guess = nullptr;
    // DC footprints differ from the transient ones (capacitors vanish),
    // so the DC system gets its own pattern, harvested exactly as the
    // scalar workspace does: element write-logs in order, then the gmin
    // node diagonals.
    std::vector<std::pair<int, int>> dc_coords;
    {
      std::vector<std::pair<int, int>> matrix_log;
      std::vector<int> rhs_log;
      for (std::size_t i = 0; i < nelem; ++i) {
        matrix_log.clear();
        rhs_log.clear();
        Stamper s(scratch_g, scratch_rhs);
        s.set_write_log(&matrix_log, &rhs_log);
        variants[0]->elements()[i]->stamp(s, dc_ctx);
        dc_coords.insert(dc_coords.end(), matrix_log.begin(), matrix_log.end());
      }
      std::fill(scratch_rhs.begin(), scratch_rhs.end(), 0.0);
    }
    for (std::size_t node = 0; node < nodes; ++node) {
      dc_coords.emplace_back(static_cast<int>(node), static_cast<int>(node));
    }
    dsp::SparseMatrix dc_pattern = dsp::SparseMatrix::from_pattern(
        unknowns, unknowns, std::move(dc_coords));
    std::vector<std::size_t> dc_gather(dc_pattern.nnz());
    {
      std::size_t p = 0;
      for (std::size_t r = 0; r < unknowns; ++r) {
        for (int q = dc_pattern.row_ptr()[r]; q < dc_pattern.row_ptr()[r + 1];
             ++q, ++p) {
          dc_gather[p] =
              r * unknowns + static_cast<std::size_t>(dc_pattern.col_idx()[q]);
        }
      }
    }
    std::vector<double> dc_soa(dc_pattern.nnz() * nvar, 0.0);
    std::vector<double> dc_x(unknowns * nvar, 0.0);
    for (std::size_t v = 0; v < nvar; ++v) {
      scratch_g.set_zero();
      std::fill(scratch_rhs.begin(), scratch_rhs.end(), 0.0);
      Stamper s(scratch_g, scratch_rhs);
      for (const auto& el : variants[v]->elements()) el->stamp(s, dc_ctx);
      for (std::size_t node = 0; node < nodes; ++node) {
        scratch_g(node, node) += opts_.newton.gmin;
      }
      const double* d = scratch_g.data();
      for (std::size_t p = 0; p < dc_pattern.nnz(); ++p) {
        dc_soa[p * nvar + v] = d[dc_gather[p]];
      }
      for (std::size_t row = 0; row < unknowns; ++row) {
        dc_x[row * nvar + v] = scratch_rhs[row];
      }
    }
    dsp::SparseLu dc_shared;
    dsp::BatchSparseLu dc_batch;
    try {
      double* pv = dc_pattern.values();
      for (std::size_t p = 0; p < dc_pattern.nnz(); ++p) {
        pv[p] = dc_soa[p * nvar];
      }
      dc_shared.factor(dc_pattern);
      dc_batch.bind(dc_shared, nvar);
      dc_batch.refactor_batch(dc_soa.data());
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
  }
  for (std::size_t v = 0; v < nvar; ++v) {
    for (auto& el : lanes[v].netlist->elements()) {
      el->transient_begin(lanes[v].state, opts_.use_initial_conditions);
    }
  }

  // Shared numerics: assemble each lane's (static) matrix densely — the
  // same accumulation the scalar workspace performs — gather the nonzeros
  // into the entry-major SoA slab, factor variant 0 with pivoting, and
  // refactor every lane against its pivot sequence in one batch pass.
  std::vector<double> a_soa(pattern.nnz() * nvar, 0.0);
  for (std::size_t v = 0; v < nvar; ++v) {
    scratch_g.set_zero();
    std::fill(scratch_rhs.begin(), scratch_rhs.end(), 0.0);
    Stamper s(scratch_g, scratch_rhs);
    for (const auto& el : variants[v]->elements()) el->stamp(s, discovery);
    for (std::size_t node = 0; node < nodes; ++node) {
      scratch_g(node, node) += opts_.newton.gmin;
    }
    const double* d = scratch_g.data();
    for (std::size_t p = 0; p < pattern.nnz(); ++p) {
      a_soa[p * nvar + v] = d[gather_src[p]];
    }
  }

  dsp::SparseLu shared;
  dsp::BatchSparseLu batch;
  try {
    double* pv = pattern.values();
    for (std::size_t p = 0; p < pattern.nnz(); ++p) pv[p] = a_soa[p * nvar];
    shared.factor(pattern);
    batch.bind(shared, nvar);
    batch.refactor_batch(a_soa.data());
  } catch (const std::runtime_error& e) {
    // A lane's matrix is singular even under private re-pivoting: the
    // shared factorization cannot route around it, so the batch fails
    // with the same typed error the scalar solver would raise.
    throw core::SingularMatrixError(lane_failure(
        core::ErrorCode::kSingularMatrix, "batch_transient", e.what()));
  }

  if (opts_.use_initial_conditions) {
    // Consistent initial point through the companion models, exactly as
    // transient() computes sample 0 under initial conditions: one solve of
    // the (already factored) march matrix against the t_start RHS, not
    // accepted as a step. Batched across lanes through the march
    // factorization — the same solve the scalar workspace would perform.
    std::vector<double> x0(unknowns * nvar, 0.0);
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      std::fill(lane.rhs.begin(), lane.rhs.end(), 0.0);
      Stamper s(scratch_g, lane.rhs, Stamper::RhsOnly{});
      for (const Element* el : lane.rhs_elements) el->stamp(s, discovery);
      for (std::size_t row = 0; row < unknowns; ++row) {
        x0[row * nvar + v] = lane.rhs[row];
      }
    }
    batch.solve_batch(x0.data());
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      bool finite = true;
      for (std::size_t row = 0; row < unknowns; ++row) {
        lane.state[row] = x0[row * nvar + v];
        if (!std::isfinite(lane.state[row])) finite = false;
      }
      if (!finite) {
        lane.alive = false;
        lane.failure = lane_failure(
            core::ErrorCode::kNumericOverflow, "batch_transient/seed",
            "initial-condition solve is not finite");
        lane.state.assign(unknowns, 0.0);
      }
    }
  }

  const auto steps = static_cast<std::size_t>(
      std::llround((opts_.t_stop - opts_.t_start) / opts_.dt));
  // Waveform history as one contiguous [sample][unknown] block per lane,
  // appended with a single memcpy per step from the lane's freshly
  // gathered state. The per-node vectors TransientResult wants are
  // transposed out once after the march — keeping scattered writes out of
  // the hot loop, and keeping both sides of the final transpose
  // cache-resident (contiguous reads, ~nodes hot destination lines).
  const std::size_t lane_stride = (steps + 1) * unknowns;
  std::vector<double> history(lane_stride * nvar, 0.0);
  for (std::size_t v = 0; v < nvar; ++v) {
    if (!lanes[v].alive) continue;
    std::copy(lanes[v].state.begin(), lanes[v].state.end(),
              history.begin() + v * lane_stride);
  }

  // The march: per-lane RHS stamps transposed into the SoA slab, one
  // vectorized solve across all lanes, per-lane accept + record. Lanes
  // are arithmetically independent inside solve_batch, so a dead lane's
  // zeroed column never perturbs the others.
  std::vector<double> x_soa(unknowns * nvar, 0.0);
  StampContext ctx = discovery;
  for (std::size_t k = 1; k <= steps; ++k) {
    ctx.t = opts_.t_start + static_cast<double>(k) * opts_.dt;
    for (std::size_t v = 0; v < nvar; ++v) {
      Lane& lane = lanes[v];
      if (!lane.alive) {
        for (std::size_t row = 0; row < unknowns; ++row) {
          x_soa[row * nvar + v] = 0.0;
        }
        continue;
      }
      std::fill(lane.rhs.begin(), lane.rhs.end(), 0.0);
      Stamper s(scratch_g, lane.rhs, Stamper::RhsOnly{});
      for (const Element* el : lane.rhs_elements) el->stamp(s, ctx);
      for (std::size_t row = 0; row < unknowns; ++row) {
        x_soa[row * nvar + v] = lane.rhs[row];
      }
    }
    batch.solve_batch(x_soa.data());
    // Cheap whole-slab finiteness probe: a NaN/Inf anywhere poisons the
    // accumulator (Inf - Inf = NaN), so the per-lane scan only runs on the
    // rare step where some lane actually blew up.
    double probe = 0.0;
    for (const double x : x_soa) probe += x;
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
          // history slab or perturb the finite probe of later steps.
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
      std::copy(lane.state.begin(), lane.state.end(),
                history.begin() + v * lane_stride + k * unknowns);
      for (Element* el : lane.stateful) el->transient_accept(lane.state, ctx);
    }
  }

  BatchTransientReport report;
  report.stats.variants = nvar;
  report.stats.unknowns = unknowns;
  report.stats.pattern_nnz = pattern.nnz();
  report.stats.steps = steps;
  report.stats.symbolic_analyses = shared.stats().analyses;
  report.stats.pivot_fallbacks = batch.fallback_count();
  report.variants.reserve(nvar);
  std::vector<double> time(steps + 1);
  for (std::size_t k = 0; k <= steps; ++k) {
    time[k] = opts_.t_start + static_cast<double>(k) * opts_.dt;
  }
  for (std::size_t v = 0; v < nvar; ++v) {
    Lane& lane = lanes[v];
    BatchVariantOutcome out;
    if (lane.alive) {
      std::vector<std::vector<double>> volts(
          nodes, std::vector<double>(steps + 1, 0.0));
      std::vector<std::vector<double>> currents(
          lane.branch_rows.size(), std::vector<double>(steps + 1, 0.0));
      const double* lh = history.data() + v * lane_stride;
      for (std::size_t k = 0; k <= steps; ++k) {
        const double* sample = lh + k * unknowns;
        for (std::size_t n = 0; n < nodes; ++n) {
          volts[n][k] = sample[n];
        }
        for (std::size_t b = 0; b < lane.branch_rows.size(); ++b) {
          currents[b][k] =
              sample[static_cast<std::size_t>(lane.branch_rows[b])];
        }
      }
      out.result.emplace(time,
                         std::vector<std::string>(lane.netlist->node_names()),
                         std::move(volts), std::move(lane.branch_names),
                         std::move(currents));
    } else {
      out.failure = std::move(lane.failure);
      ++report.stats.failed_variants;
    }
    report.variants.push_back(std::move(out));
  }
  return report;
}

}  // namespace msbist::circuit
