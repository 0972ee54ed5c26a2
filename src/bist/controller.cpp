#include "bist/controller.h"

#include "core/job.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace msbist::bist {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// Convert a tier's inputs, all known up front, in one lane-batched call.
std::vector<adc::ConversionResult> convert_all(adc::DualSlopeAdc& adc,
                                               const std::vector<double>& vin) {
  std::vector<adc::ConversionResult> out(vin.size());
  adc.convert_n(vin.data(), vin.size(), out.data());
  return out;
}

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kAnalog: return "analog";
    case Tier::kRamp: return "ramp";
    case Tier::kDigital: return "digital";
    case Tier::kCompressed: return "compressed";
  }
  return "?";
}

core::Outcome AnalogTestResult::outcome() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < fall_times_s.size(); ++i) {
    worst = std::max(worst,
                     std::abs(fall_times_s[i] - expected_fall_times_s[i]));
  }
  std::string detail = std::to_string(fall_times_s.size()) +
                       " steps, worst fall-time error " + fmt(worst * 1e6) +
                       " us";
  return {pass, std::move(detail)};
}

void AnalogTestResult::to_json(core::JsonWriter& w) const {
  w.begin_object().member("tier", "analog").member("pass", pass);
  w.key("step_levels_v").begin_array();
  for (double v : step_levels) w.value(v);
  w.end_array();
  w.key("fall_times_s").begin_array();
  for (double v : fall_times_s) w.value(v);
  w.end_array();
  w.key("expected_fall_times_s").begin_array();
  for (double v : expected_fall_times_s) w.value(v);
  w.end_array();
  w.end_object();
}

core::Outcome RampTestResult::outcome() const {
  std::string detail = std::to_string(codes.size()) + " ramp samples, codes " +
                       (codes_monotonic ? "monotonic" : "NON-monotonic");
  return {pass, std::move(detail)};
}

void RampTestResult::to_json(core::JsonWriter& w) const {
  w.begin_object().member("tier", "ramp").member("pass", pass).member(
      "codes_monotonic", codes_monotonic);
  w.key("sample_times_s").begin_array();
  for (double v : sample_times_s) w.value(v);
  w.end_array();
  w.key("sample_voltages").begin_array();
  for (double v : sample_voltages) w.value(v);
  w.end_array();
  w.key("codes").begin_array();
  for (std::uint32_t c : codes) w.value(c);
  w.end_array();
  w.end_object();
}

core::Outcome DigitalTestResult::outcome() const {
  std::string detail = "worst conversion " + fmt(max_conversion_time_s * 1e3) +
                       " ms (spec " + fmt(conversion_time_spec_s * 1e3) +
                       " ms), " + fmt(fall_time_per_code_s * 1e6) +
                       " us/code";
  return {pass, std::move(detail)};
}

void DigitalTestResult::to_json(core::JsonWriter& w) const {
  w.begin_object()
      .member("tier", "digital")
      .member("pass", pass)
      .member("max_conversion_time_s", max_conversion_time_s)
      .member("conversion_time_spec_s", conversion_time_spec_s)
      .member("fall_time_per_code_s", fall_time_per_code_s)
      .member("volts_per_code", volts_per_code)
      .end_object();
}

core::Outcome CompressedTestResult::outcome() const {
  std::string detail = "digital signature " + std::to_string(digital_signature) +
                       (digital_signature == expected_signature ? " == " : " != ") +
                       std::to_string(expected_signature) + ", analog " +
                       std::to_string(analog_signature) +
                       (analog_signature == expected_analog ? " == " : " != ") +
                       std::to_string(expected_analog);
  return {pass, std::move(detail)};
}

void CompressedTestResult::to_json(core::JsonWriter& w) const {
  w.begin_object()
      .member("tier", "compressed")
      .member("pass", pass)
      .member("digital_signature", digital_signature)
      .member("expected_signature", expected_signature)
      .member("analog_signature", analog_signature)
      .member("expected_analog", expected_analog)
      .end_object();
}

bool BistReport::tier_pass(Tier t) const {
  switch (t) {
    case Tier::kAnalog: return analog.pass;
    case Tier::kRamp: return ramp.pass;
    case Tier::kDigital: return digital.pass;
    case Tier::kCompressed: return compressed.pass;
  }
  return false;
}

std::vector<Tier> BistReport::failed_tiers() const {
  std::vector<Tier> out;
  for (Tier t : kAllTiers) {
    if (!tier_pass(t)) out.push_back(t);
  }
  return out;
}

core::Outcome BistReport::outcome() const {
  if (pass) return core::Outcome::ok("all tiers pass");
  std::string detail = "failing tiers:";
  for (Tier t : failed_tiers()) {
    detail += ' ';
    detail += to_string(t);
  }
  return core::Outcome::fail(std::move(detail));
}

void BistReport::to_json(core::JsonWriter& w) const {
  w.begin_object();
  core::write_report_envelope(w, "bist_report");
  w.member("pass", pass);
  w.key("analog");
  analog.to_json(w);
  w.key("ramp");
  ramp.to_json(w);
  w.key("digital");
  digital.to_json(w);
  w.key("compressed");
  compressed.to_json(w);
  if (!failures.empty()) {
    w.key("failures").begin_array();
    for (const core::Failure& f : failures) f.to_json(w);
    w.end_array();
  }
  w.end_object();
}

BistController::BistController(StepGenerator steps, RampGenerator ramp,
                               DcLevelSensor sensor, BistTolerances tol)
    : steps_(std::move(steps)), ramp_(std::move(ramp)), sensor_(std::move(sensor)),
      tol_(tol) {}

BistController BistController::typical() {
  return BistController(StepGenerator::typical(), RampGenerator::typical(),
                        DcLevelSensor::typical());
}

ToleranceCompressor BistController::make_compressor(
    const adc::DualSlopeAdc& adc) const {
  // Nominal codes come from the nominal transfer at the nominal tap
  // levels — this table is what the chip designer burns into the BIST ROM.
  std::vector<std::uint32_t> nominal;
  nominal.reserve(paper_step_levels().size());
  for (double v : paper_step_levels()) nominal.push_back(adc.ideal_code(v));
  return ToleranceCompressor(std::move(nominal), tol_.code_tolerance);
}

AnalogTestResult BistController::analog_test(adc::DualSlopeAdc& adc) const {
  AnalogTestResult res;
  res.step_levels = steps_.levels();
  const double vref = adc.config().vref;
  const std::vector<adc::ConversionResult> conv = convert_all(adc, res.step_levels);
  for (std::size_t i = 0; i < conv.size(); ++i) {
    const double v = res.step_levels[i];
    res.fall_times_s.push_back(conv[i].fall_time_s);
    // Expected law: T2 = (Vref - Vin) * (T1/Vref) + pedestal time.
    const double t1 = static_cast<double>(adc.config().integrate_counts) /
                      adc.config().clock_hz;
    const double pedestal = static_cast<double>(adc.pedestal_counts()) /
                            adc.config().clock_hz;
    res.expected_fall_times_s.push_back((vref - std::min(v, vref)) * t1 / vref +
                                        pedestal);
  }
  res.pass = true;
  for (std::size_t i = 0; i < res.fall_times_s.size(); ++i) {
    if (std::abs(res.fall_times_s[i] - res.expected_fall_times_s[i]) >
        tol_.fall_time_tol_s) {
      res.pass = false;
    }
  }
  return res;
}

RampTestResult BistController::ramp_test(adc::DualSlopeAdc& adc) const {
  RampTestResult res;
  res.sample_times_s = ramp_.measurement_times();
  for (double t : res.sample_times_s) res.sample_voltages.push_back(ramp_.value(t));
  bool all_complete = true;
  for (const adc::ConversionResult& conv : convert_all(adc, res.sample_voltages)) {
    res.codes.push_back(conv.code);
    all_complete = all_complete && conv.completed && !conv.timed_out;
  }
  // The dual-slope code counts down the remaining de-integration time, so
  // a rising ramp must give strictly decreasing codes (within noise).
  res.codes_monotonic = true;
  for (std::size_t i = 1; i < res.codes.size(); ++i) {
    if (res.codes[i] > res.codes[i - 1] + 2) res.codes_monotonic = false;
  }
  res.pass = all_complete && res.codes_monotonic;
  return res;
}

DigitalTestResult BistController::digital_test(adc::DualSlopeAdc& adc) const {
  DigitalTestResult res;
  // Worst-case conversion time occurs at zero input (longest run-down).
  // Fall-time step per code: one-LSB input change. Conversion noise on a
  // single difference is ~0.8 counts RMS, so the estimate averages enough
  // repeats to push its sigma well inside the half-count pass window.
  const double lsb = adc.lsb_volts();
  const int reps = 32;
  std::vector<double> vin{0.0};
  for (int r = 0; r < reps; ++r) {
    vin.push_back(1.0);
    vin.push_back(1.0 + lsb);
  }
  const std::vector<adc::ConversionResult> conv = convert_all(adc, vin);
  const adc::ConversionResult& worst = conv[0];
  res.max_conversion_time_s = worst.conversion_time_s;
  double acc = 0.0;
  for (std::size_t i = 1; i < conv.size(); i += 2) {
    acc += conv[i].fall_time_s - conv[i + 1].fall_time_s;
  }
  res.fall_time_per_code_s = acc / static_cast<double>(reps);
  res.volts_per_code = lsb;

  const double t_clk = 1.0 / adc.config().clock_hz;
  res.pass = worst.completed && !worst.timed_out &&
             res.max_conversion_time_s <= res.conversion_time_spec_s &&
             std::abs(res.fall_time_per_code_s - t_clk) < 0.5 * t_clk;
  return res;
}

CompressedTestResult BistController::compressed_test(
    adc::DualSlopeAdc& adc) const {
  CompressedTestResult res;
  const ToleranceCompressor comp = make_compressor(adc);

  // Inputs: the consecutive steps (digital signature), then the ramp
  // samples and the zero-input conversion, the true maximum excursion
  // (analogue signature).
  const std::size_t steps = steps_.levels().size();
  std::vector<double> vin = steps_.levels();
  for (double t : ramp_.measurement_times()) vin.push_back(ramp_.value(t));
  vin.push_back(0.0);
  const std::vector<adc::ConversionResult> conv = convert_all(adc, vin);

  // Digital signature from the consecutive step inputs.
  std::vector<std::uint32_t> codes;
  for (std::size_t i = 0; i < steps; ++i) codes.push_back(conv[i].code);
  res.digital_signature = comp.signature(codes);
  res.expected_signature = comp.golden_signature();

  // Analogue signature: ramp the input and compress the maximum
  // integrator voltage through the DC level sensor.
  double peak = 0.0;
  for (std::size_t i = steps; i < conv.size(); ++i) {
    peak = std::max(peak, conv[i].integrator_peak_v);
  }
  res.analog_signature = sensor_.classify(peak);

  res.pass = res.digital_signature == res.expected_signature &&
             res.analog_signature == res.expected_analog;
  return res;
}

core::Outcome BistController::run_tier(Tier t, adc::DualSlopeAdc& adc,
                                       BistReport& report) const {
  try {
    switch (t) {
      case Tier::kAnalog:
        report.analog = analog_test(adc);
        return report.analog.outcome();
      case Tier::kRamp:
        report.ramp = ramp_test(adc);
        return report.ramp.outcome();
      case Tier::kDigital:
        report.digital = digital_test(adc);
        return report.digital.outcome();
      case Tier::kCompressed:
        report.compressed = compressed_test(adc);
        return report.compressed.outcome();
    }
  } catch (const core::SolverError& e) {
    // The macro under test could not even be simulated: a failing verdict
    // with diagnostics, never an escaped exception. The tier's result
    // slot stays defaulted (pass = false), so tier_pass agrees.
    core::Failure f = e.failure();
    f.analysis = std::string("bist/") + to_string(t);
    report.failures.push_back(std::move(f));
    return core::Outcome::fail(std::string(to_string(t)) +
                               " tier aborted by solver failure: " + e.what());
  } catch (const std::exception& e) {
    core::Failure f;
    f.code = core::ErrorCode::kInternal;
    f.analysis = std::string("bist/") + to_string(t);
    f.detail = e.what();
    report.failures.push_back(std::move(f));
    return core::Outcome::fail(std::string(to_string(t)) +
                               " tier aborted: " + std::string(e.what()));
  }
  core::Failure f;
  f.code = core::ErrorCode::kBadInput;
  f.analysis = "bist";
  f.detail = "unknown tier " + std::to_string(static_cast<int>(t));
  report.failures.push_back(std::move(f));
  return core::Outcome::fail("unknown tier");
}

core::Outcome BistController::run_tier(Tier t, adc::DualSlopeAdc& adc) const {
  BistReport scratch;
  return run_tier(t, adc, scratch);
}

BistReport BistController::run_all(adc::DualSlopeAdc& adc) const {
  BistReport rep;
  rep.pass = true;
  for (Tier t : kAllTiers) {
    rep.pass = run_tier(t, adc, rep).pass && rep.pass;
  }
  return rep;
}

}  // namespace msbist::bist
