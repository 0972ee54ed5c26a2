// msbist — mixed-signal macro BIST library.
//
// Umbrella header: pulls in the public API of every module. Reproduction
// of R. A. Cobley, "Approaches to On-chip Testing of Mixed Signal Macros
// in ASICs", ED&TC/DATE 1996.
//
// Layering (bottom-up):
//   dsp      — signal processing: FFT, convolution/correlation, PRBS,
//              state-space models, dense and sparse matrices
//   circuit  — MNA circuit simulator: MOS level-1, DC, AC + transient
//   analysis — netlist ERC: static pass pipeline run before any solve
//   analog   — behavioural macro library + transistor-level OP1 / SC cells
//   digital  — counter, latch, control FSM, MISR
//   faults   — stuck-at / bridging fault models, universes, campaigns
//   adc      — dual-slope ADC macro, spec metrics (INL/DNL/offset/gain),
//              sigma-delta extension
//   bist     — on-chip test macros: step/ramp generators, level sensor,
//              signature compression, BIST controller, overhead model
//   tsrt     — transient-response testing: example circuits 1-3,
//              correlation and impulse-response detection
//   core     — Device fabrication model, report tables, slot executor,
//              unified Outcome/to_json report contract
//   production — Monte-Carlo batch-test engine: populations, test
//              plans, yield and parametric-distribution reports
#pragma once

#include "adc/dac.h"
#include "analysis/diagnostic.h"
#include "analysis/pass.h"
#include "analysis/passes.h"
#include "analysis/runner.h"
#include "analysis/testability.h"
#include "analysis/topology.h"
#include "adc/dual_slope.h"
#include "adc/metrics.h"
#include "adc/sigma_delta.h"
#include "analog/comparator.h"
#include "analog/macro.h"
#include "analog/opamp.h"
#include "analog/sc_integrator.h"
#include "bist/controller.h"
#include "bist/level_sensor.h"
#include "bist/overhead.h"
#include "bist/ramp_generator.h"
#include "bist/signature_compressor.h"
#include "bist/step_generator.h"
#include "circuit/ac.h"
#include "circuit/dc.h"
#include "circuit/elements.h"
#include "circuit/mos.h"
#include "circuit/netlist.h"
#include "circuit/rescue.h"
#include "circuit/solver.h"
#include "circuit/transient.h"
#include "circuit/waveform.h"
#include "core/device.h"
#include "core/error.h"
#include "core/job.h"
#include "core/json.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "core/report.h"
#include "core/thread_pool.h"
#include "digital/counter.h"
#include "digital/fsm.h"
#include "digital/latch.h"
#include "digital/signature.h"
#include "dsp/convolution.h"
#include "dsp/correlation.h"
#include "dsp/fft.h"
#include "dsp/matrix.h"
#include "dsp/noise.h"
#include "dsp/prbs.h"
#include "dsp/spectrum.h"
#include "dsp/state_space.h"
#include "dsp/vec.h"
#include "dsp/window.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "faults/parametric.h"
#include "faults/fault.h"
#include "faults/universe.h"
#include "production/batch.h"
#include "production/plan.h"
#include "production/stats.h"
#include "tsrt/detector.h"
#include "tsrt/example_circuits.h"
#include "tsrt/impulse_compare.h"
#include "tsrt/pole_compare.h"
#include "tsrt/transient_test.h"
