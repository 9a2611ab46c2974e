#include "sync/nlos_sync.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/correlate.hpp"
#include "phy/frame.hpp"
#include "phy/manchester.hpp"

namespace densevlc::sync {
namespace {

/// Leader DAC oversampling of the pilot [samples per chip].
constexpr std::size_t kTxSamplesPerChip = 40;
/// Normalized correlation floor of the follower's pilot detector.
constexpr double kDetectThreshold = 0.55;

}  // namespace

NlosSynchronizer::NlosSynchronizer(const NlosSyncConfig& cfg) : cfg_{cfg} {
  // The reflected pilot is very weak; restrict the anti-aliasing corner
  // to ~2x the pilot chip rate so the chain passes the pilot but sheds
  // the out-of-band noise the data path tolerates. (The real RX does the
  // equivalent: its AC amplifier stage is tuned for the pilot band.)
  cfg_.frontend.butterworth_corner_hz =
      std::min(cfg_.frontend.butterworth_corner_hz,
               2.0 * cfg_.pilot_chip_rate_hz);
  gain_ = optics::nlos_floor_gain(cfg_.emitter, cfg_.pd, cfg_.leader_pose,
                                  cfg_.follower_pose, cfg_.floor,
                                  cfg_.occluders);

  // Calibrate the constant front-end group delay with a noiseless run so
  // measured start errors reflect only grid quantization and noise.
  NlosSyncConfig quiet = cfg_;
  quiet.frontend.noise_psd_a2_per_hz = 0.0;
  const double lead_in = 8.0;
  const dsp::Waveform wf = pilot_waveform(lead_in, 0.0);
  phy::ReceiverFrontEnd fe{quiet.frontend, Rng{1}};
  dsp::Waveform optical = wf;
  for (double& s : optical.samples) s *= gain_;
  const dsp::Waveform digitized = fe.process(optical);
  const auto tpl =
      phy::OokDemodulator{cfg_.pilot_chip_rate_hz,
                          cfg_.frontend.adc.sample_rate_hz}
          .pattern_template(phy::pilot_pattern());
  const auto peak = dsp::detect_pattern(digitized.samples, tpl, 0.2);
  const double true_start =
      lead_in / cfg_.pilot_chip_rate_hz;
  if (peak) {
    const double detected =
        static_cast<double>(peak->index) / quiet.frontend.adc.sample_rate_hz;
    group_delay_s_ = detected - true_start;
  }
}

dsp::Waveform NlosSynchronizer::pilot_waveform(double lead_in_chips,
                                               double frac) const {
  phy::OokParams params;
  params.chip_rate_hz = cfg_.pilot_chip_rate_hz;
  params.samples_per_chip = kTxSamplesPerChip;
  params.bias_current_a = cfg_.led.operating_point().bias_current_a;
  params.swing_current_a = cfg_.swing_current_a;
  const phy::OokModulator mod{params};

  const auto chips = phy::leader_chips(cfg_.leader_id);
  const dsp::Waveform data = mod.modulate(chips);

  dsp::Waveform wf;
  wf.sample_rate_hz = params.sample_rate_hz();
  const auto lead_samples = static_cast<std::size_t>(
      std::llround((lead_in_chips + frac) *
                   static_cast<double>(kTxSamplesPerChip)));
  const double bias = params.bias_current_a;
  wf.samples.assign(lead_samples, bias);
  wf.samples.insert(wf.samples.end(), data.samples.begin(),
                    data.samples.end());
  // Bias tail so AC-coupling transients settle inside the capture.
  wf.samples.insert(wf.samples.end(),
                    8 * kTxSamplesPerChip, bias);

  // Convert LED current to emitted optical power. Around the bias the
  // electro-optical transfer is locally linear; use the exact LED curve.
  for (double& s : wf.samples) {
    s = cfg_.led.electrical().wall_plug_efficiency *
        cfg_.led.power_at_current(Amperes{s}).value();
  }
  return wf;
}

NlosDetection NlosSynchronizer::simulate_once(Rng& rng) {
  NlosDetection out;

  // Random lead-in with sub-chip fraction: the pilot lands at an arbitrary
  // phase of the follower's sampling grid, which is exactly what bounds
  // the achievable sync accuracy.
  const double lead_in = 6.0 + 4.0 * rng.uniform();
  const double frac = rng.uniform();
  const dsp::Waveform wf = pilot_waveform(lead_in, frac);

  dsp::Waveform optical = wf;
  for (double& s : optical.samples) s *= gain_;

  phy::ReceiverFrontEnd fe{cfg_.frontend, rng.fork()};
  const dsp::Waveform digitized = fe.process(optical);

  const double frx = cfg_.frontend.adc.sample_rate_hz;
  const phy::OokDemodulator demod{cfg_.pilot_chip_rate_hz, frx};
  const auto tpl = demod.pattern_template(phy::pilot_pattern());
  const auto peak =
      dsp::detect_pattern(digitized.samples, tpl, kDetectThreshold);
  if (!peak) return out;
  out.detected = true;
  out.correlation = peak->score;

  // Verify the leader ID: slice the 16 Manchester chips after the pilot.
  const auto id_chips = demod.slice_chips(
      digitized.samples,
      static_cast<double>(peak->index) +
          static_cast<double>(phy::kPilotChips) * demod.samples_per_chip(),
      16);
  std::uint8_t id_byte[1] = {};
  phy::manchester_decode_bytes_lenient(id_chips, id_byte);
  out.id_matches = id_byte[0] == cfg_.leader_id;

  const double true_start =
      (lead_in + frac) / cfg_.pilot_chip_rate_hz;
  const double detected = static_cast<double>(peak->index) / frx;
  out.start_error_s = detected - true_start - group_delay_s_;
  return out;
}

std::vector<double> NlosSynchronizer::measure_errors(std::size_t trials,
                                                     Rng& rng) {
  std::vector<double> errors;
  errors.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    const NlosDetection d = simulate_once(rng);
    if (d.detected && d.id_matches) {
      errors.push_back(std::fabs(d.start_error_s));
    }
  }
  return errors;
}

}  // namespace densevlc::sync
