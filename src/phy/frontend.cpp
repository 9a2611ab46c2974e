// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "dsp/butterworth.hpp"
#include "dsp/dsp_kernels.hpp"

namespace densevlc::phy {

ReceiverFrontEnd::ReceiverFrontEnd(const FrontEndConfig& cfg, Rng rng)
    : cfg_{cfg}, rng_{rng}, adc_{cfg.adc} {
  // Snap the mid-rail reference to the ADC grid so a zero input maps to a
  // representable code and back to exactly zero (no systematic offset).
  const double nominal_mid = (cfg.adc.min_volts + cfg.adc.max_volts) / 2.0;
  mid_rail_ = adc_.code_to_volts(adc_.quantize(nominal_mid));
  // Filters are designed at the ADC rate; process() runs the whole chain
  // at that rate (the optical input is zero-order-hold resampled first).
  const double fs = cfg_.adc.sample_rate_hz;
  ac_stage_ = dsp::BiquadCascade{
      {dsp::design_ac_coupling_highpass(cfg_.ac_corner_hz, fs)}};
  lowpass_ = dsp::BiquadCascade{dsp::design_butterworth_lowpass(
      cfg_.butterworth_order, cfg_.butterworth_corner_hz, fs)};
}

Amperes ReceiverFrontEnd::noise_current_sigma(Hertz sample_rate) const {
  DVLC_ASSERT(sample_rate.value() > 0.0, "sample rate must be positive");
  const AmpsSquaredPerHertz n0{cfg_.noise_psd_a2_per_hz};
  return densevlc::sqrt(n0 * sample_rate / 2.0);
}

dsp::Waveform ReceiverFrontEnd::process(const dsp::Waveform& optical) {
  ReceiverFrontEnd* const fe[] = {this};
  const dsp::Waveform* const in[] = {&optical};
  dsp::Waveform out;
  dsp::Waveform* const out_ptr[] = {&out};
  BatchScratch scratch;
  process_batch_into(fe, in, out_ptr, scratch);
  return out;
}

void ReceiverFrontEnd::front_half_into(const dsp::Waveform& optical,
                                       dsp::Waveform& out) {
  const double fs = cfg_.adc.sample_rate_hz;
  out.sample_rate_hz = fs;
  arena_clear(out.samples);
  if (optical.samples.empty() || optical.sample_rate_hz <= 0.0) return;
  const auto n_out =
      static_cast<std::size_t>(optical.duration() * fs);
  arena_resize(out.samples, n_out);

  // Pass 1: the photocurrent noise, one draw per sample in stream order,
  // then zero-order-hold resample, photodiode responsivity and TIA.
  const double noise_sigma = noise_current_sigma(Hertz{fs}).value();
  rng_.fill_gaussian(out.samples, 0.0, noise_sigma);
  if (simd::use_vector_kernels()) {
    dsp::detail::zoh_tia_vec(optical.samples.data(), optical.samples.size(),
                             optical.sample_rate_hz, fs,
                             cfg_.responsivity_a_per_w, cfg_.tia_gain_ohm,
                             out.samples.data(), n_out);
  } else {
    dsp::detail::zoh_tia_kernel<simd::ScalarBackend>(
        optical.samples.data(), optical.samples.size(),
        optical.sample_rate_hz, fs, cfg_.responsivity_a_per_w,
        cfg_.tia_gain_ohm, out.samples.data(), n_out);
  }
}

void ReceiverFrontEnd::filters_into(dsp::Waveform& out) {
  // Pass 2: AC-coupled gain stage. Scaling the filter output afterwards
  // commutes bitwise with scaling inside the per-sample loop.
  ac_stage_.process_block(out.samples);
  for (double& v : out.samples) v = cfg_.ac_gain * v;

  // Pass 3: anti-aliasing low-pass.
  lowpass_.process_block(out.samples);
}

void ReceiverFrontEnd::process_batch_into(
    std::span<ReceiverFrontEnd* const> fes,
    std::span<const dsp::Waveform* const> optical,
    std::span<dsp::Waveform* const> out, BatchScratch& scratch) {
  analog_batch_into(fes, optical, out, scratch);
  // Model the ADC around mid-rail, then remove the offset again so
  // downstream DSP sees a zero-referenced signal with quantization applied.
  for (std::size_t i = 0; i < fes.size(); ++i) {
    fes[i]->adc_.round_trip_into(out[i]->samples, fes[i]->mid_rail_);
  }
}

void ReceiverFrontEnd::analog_batch_into(
    std::span<ReceiverFrontEnd* const> fes,
    std::span<const dsp::Waveform* const> optical,
    std::span<dsp::Waveform* const> out, BatchScratch& scratch) {
  const std::size_t n = fes.size();
  DVLC_EXPECT(optical.size() == n && out.size() == n,
              "process_batch_into: span sizes must match");
  // Noise first, per lane in order: each front-end owns its Rng, so a
  // lane's draws do not depend on the other lanes.
  for (std::size_t i = 0; i < n; ++i) {
    fes[i]->front_half_into(*optical[i], *out[i]);
  }

  const auto run_quad = [&](const std::size_t lane[4]) {
    ReceiverFrontEnd* fe[4];
    std::size_t min_len = SIZE_MAX;
    // Cascades deeper than the x4 kernel's staging take the scalar path.
    bool same_shape =
        fes[lane[0]]->ac_stage_.section_count() <= dsp::kMaxBiquadSections &&
        fes[lane[0]]->lowpass_.section_count() <= dsp::kMaxBiquadSections;
    for (std::size_t l = 0; l < 4; ++l) {
      fe[l] = fes[lane[l]];
      min_len = std::min(min_len, out[lane[l]]->samples.size());
      same_shape = same_shape &&
                   fe[l]->ac_stage_.section_count() ==
                       fe[0]->ac_stage_.section_count() &&
                   fe[l]->lowpass_.section_count() ==
                       fe[0]->lowpass_.section_count();
    }
    if (!same_shape) {
      for (std::size_t l = 0; l < 4; ++l) fe[l]->filters_into(*out[lane[l]]);
      return;
    }
    // Shared prefix through the 4-lane kernel; ragged tails finish on the
    // scalar cascades, whose delay lines continue from the written-back
    // kernel state.
    arena_resize(scratch.lanes, min_len * 4);
    for (std::size_t l = 0; l < 4; ++l) {
      const std::vector<double>& src = out[lane[l]]->samples;
      for (std::size_t t = 0; t < min_len; ++t) {
        scratch.lanes[t * 4 + l] = src[t];
      }
    }
    const std::span<double> block{scratch.lanes.data(), min_len * 4};
    dsp::BiquadCascade* ac[4] = {&fe[0]->ac_stage_, &fe[1]->ac_stage_,
                                 &fe[2]->ac_stage_, &fe[3]->ac_stage_};
    dsp::process_cascades_x4(ac, block);
    for (std::size_t l = 0; l < 4; ++l) {
      const double gain = fe[l]->cfg_.ac_gain;
      for (std::size_t t = 0; t < min_len; ++t) {
        scratch.lanes[t * 4 + l] = gain * scratch.lanes[t * 4 + l];
      }
    }
    dsp::BiquadCascade* lp[4] = {&fe[0]->lowpass_, &fe[1]->lowpass_,
                                 &fe[2]->lowpass_, &fe[3]->lowpass_};
    dsp::process_cascades_x4(lp, block);
    for (std::size_t l = 0; l < 4; ++l) {
      std::vector<double>& dst = out[lane[l]]->samples;
      for (std::size_t t = 0; t < min_len; ++t) {
        dst[t] = scratch.lanes[t * 4 + l];
      }
      const std::span<double> tail =
          std::span<double>{dst}.subspan(min_len);
      fe[l]->ac_stage_.process_block(tail);
      for (double& v : tail) v = fe[l]->cfg_.ac_gain * v;
      fe[l]->lowpass_.process_block(tail);
    }
  };

  std::size_t group[4];
  std::size_t filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i]->samples.empty()) continue;
    group[filled++] = i;
    if (filled == 4) {
      run_quad(group);
      filled = 0;
    }
  }
  for (std::size_t j = 0; j < filled; ++j) {
    fes[group[j]]->filters_into(*out[group[j]]);
  }
}

void ReceiverFrontEnd::reset() {
  ac_stage_.reset();
  lowpass_.reset();
}

void ReceiverFrontEnd::restart(Rng rng) {
  rng_ = rng;
  reset();
}

}  // namespace densevlc::phy
