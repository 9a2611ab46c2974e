#include "core/prober.hpp"

#include <algorithm>
#include <vector>

#include "common/arena.hpp"

namespace densevlc::core {
namespace {

constexpr std::size_t kProbeChips = 64;

/// Deterministic, DC-balanced probe pattern (maximal-length LFSR bits,
/// then forced balance by pairing).
const std::vector<phy::Chip>& probe_pattern() {
  static const std::vector<phy::Chip> pattern = [] {
    std::vector<phy::Chip> chips;
    chips.reserve(kProbeChips);
    unsigned lfsr = 0xACE1u;
    for (std::size_t i = 0; i < kProbeChips / 2; ++i) {
      const unsigned bit =
          ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1u;
      lfsr = (lfsr >> 1) | (bit << 15);
      // Emit the bit and its complement: guaranteed DC-free.
      chips.push_back(bit ? phy::Chip::kHigh : phy::Chip::kLow);
      chips.push_back(bit ? phy::Chip::kLow : phy::Chip::kHigh);
    }
    return chips;
  }();
  return pattern;
}

}  // namespace

ChannelProber::ChannelProber(const optics::LedModel& led,
                             const phy::OokParams& ook,
                             const phy::FrontEndConfig& frontend,
                             double max_swing_a)
    : frontend_{frontend}, eta_{led.electrical().wall_plug_efficiency} {
  // Calibration: optical swing amplitude at full probe swing, times the
  // receive chain's small-signal gain, gives volts of slicer amplitude
  // per unit channel gain.
  const double ib = led.operating_point().bias_current_a;
  const double optical_amplitude =
      eta_ *
      (led.power_at_current(Amperes{ib + max_swing_a / 2.0}) -
       led.power_at_current(Amperes{ib - max_swing_a / 2.0}))
          .value() /
      2.0;
  volts_per_gain_ = frontend_.responsivity_a_per_w * frontend_.tia_gain_ohm *
                    frontend_.ac_gain * optical_amplitude;

  // The probe burst is the same for every link: bias lead-in, probe at
  // full swing, bias tail for filter settling, as LED optical power.
  phy::OokParams params = ook;
  params.swing_current_a = max_swing_a;
  const phy::OokModulator mod{params};
  const dsp::Waveform lead = mod.idle(8);
  const dsp::Waveform body = mod.modulate(probe_pattern());
  burst_power_.sample_rate_hz = lead.sample_rate_hz;
  for (const dsp::Waveform* part : {&lead, &body, &lead}) {
    for (const double current : part->samples) {
      burst_power_.samples.push_back(
          led.power_at_current(Amperes{current}).value());
    }
  }

  const phy::OokDemodulator demod{ook.chip_rate_hz,
                                  frontend.adc.sample_rate_hz};
  probe_template_ = demod.pattern_template(probe_pattern());
  samples_per_chip_ = demod.samples_per_chip();
}

void ChannelProber::load_lane(std::size_t lane, double h, Rng& rng) {
  // The channel scales the burst; the RX captures it through its chain.
  dsp::Waveform& optical = optical_[lane];
  optical.sample_rate_hz = burst_power_.sample_rate_hz;
  arena_resize(optical.samples, burst_power_.samples.size());
  for (std::size_t i = 0; i < optical.samples.size(); ++i) {
    optical.samples[i] = h * eta_ * burst_power_.samples[i];
  }
  std::optional<phy::ReceiverFrontEnd>& fe = fes_[lane];
  if (fe) {
    fe->restart(rng.fork());
  } else {
    fe.emplace(frontend_, rng.fork());
  }
}

void ChannelProber::run_lanes(std::size_t count, std::span<ProbeResult> out) {
  phy::ReceiverFrontEnd* fes[kLanes];
  const dsp::Waveform* in[kLanes];
  dsp::Waveform* rx[kLanes];
  for (std::size_t l = 0; l < count; ++l) {
    fes[l] = &*fes_[l];
    in[l] = &optical_[l];
    rx[l] = &rx_[l];
  }
  phy::ReceiverFrontEnd::process_batch_into(
      {fes, count}, {in, count}, {rx, count}, batch_);
  for (std::size_t l = 0; l < count; ++l) out[l] = estimate(rx_[l].samples);
}

ProbeResult ChannelProber::estimate(std::span<const double> rx) {
  ProbeResult out;
  // Locate the probe.
  const auto peak =
      dsp::detect_pattern_into(rx, probe_template_, 0.5, correlate_);
  if (!peak) return out;
  out.detected = true;

  // Slice with the known pattern and average sign-corrected amplitudes.
  const auto& pattern = probe_pattern();
  const double spc = samples_per_chip_;
  std::vector<double>& chip_values = arena_clear(chip_values_);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const double start =
        static_cast<double>(peak->index) + static_cast<double>(i) * spc;
    if (const auto mean = phy::central_chip_mean(rx, start, spc)) {
      chip_values.push_back(*mean);
    }
  }
  double amplitude = 0.0;
  for (std::size_t i = 0; i < chip_values.size(); ++i) {
    const double sign = pattern[i] == phy::Chip::kHigh ? 1.0 : -1.0;
    amplitude += sign * chip_values[i];
  }
  amplitude /= static_cast<double>(chip_values.size());
  out.gain_estimate = std::max(0.0, amplitude) / volts_per_gain_;

  if (const auto snr = dsp::m2m4_snr(chip_values)) {
    out.snr_db = snr->snr_db;
  }
  return out;
}

ProbeResult ChannelProber::probe_link(double h, Rng& rng) {
  ProbeResult out;
  if (h <= 0.0) return out;
  load_lane(0, h, rng);
  run_lanes(1, {&out, 1});
  return out;
}

channel::ChannelMatrix ChannelProber::probe_matrix(
    const channel::ChannelMatrix& truth, Rng& rng) {
  // The full sweep is the incremental one with nothing to keep.
  return probe_matrix_incremental(truth, rng, {}, {});
}

channel::ChannelMatrix ChannelProber::probe_matrix_incremental(
    const channel::ChannelMatrix& truth, Rng& rng,
    const std::vector<bool>& dirty_rx,
    const channel::ChannelMatrix& previous) {
  // One fork anchors the whole sweep to the caller's stream position, however
  // many links are skipped, so everything drawn after the sweep (report
  // loss, TX offsets, ...) is unaffected by the mode. Each link then gets
  // its own split() sub-stream keyed by its global index, so a link probed
  // by an incremental sweep draws exactly the noise a full sweep draws for
  // it, whichever other links are skipped.
  const Rng sweep = rng.fork();
  const std::size_t n = truth.num_tx();
  const std::size_t m = truth.num_rx();
  const bool shape_ok = previous.num_tx() == n && previous.num_rx() == m &&
                        dirty_rx.size() == m;
  channel::ChannelMatrix measured = shape_ok ? previous : truth;

  // Links that need airtime are probed in quads; the front ends are
  // independent, so grouping changes no draw and no result.
  std::size_t pending[kLanes];
  ProbeResult results[kLanes];
  std::size_t filled = 0;
  const auto flush = [&] {
    run_lanes(filled, {results, filled});
    for (std::size_t l = 0; l < filled; ++l) {
      measured.set_gain(pending[l] / m, pending[l] % m,
                        results[l].gain_estimate);
    }
    filled = 0;
  };
  for (std::size_t idx = 0; idx < n * m; ++idx) {
    const std::size_t j = idx / m;
    const std::size_t k = idx % m;
    if (shape_ok && !dirty_rx[k]) continue;
    const double h = truth.gain(j, k);
    if (h <= 0.0) {  // probe_link's early out: nothing to receive
      measured.set_gain(j, k, 0.0);
      continue;
    }
    Rng link_rng = sweep.split(idx);
    load_lane(filled, h, link_rng);
    pending[filled++] = idx;
    if (filled == kLanes) flush();
  }
  if (filled > 0) flush();
  return measured;
}

}  // namespace densevlc::core
