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

void ReceiverFrontEnd::filters_into(std::span<double> x) {
  // Passes 2 and 3 in one: the AC-coupled gain stage (the filter, then
  // the gain), then the anti-aliasing low-pass.
  dsp::process_gain_chain(ac_stage_, cfg_.ac_gain, lowpass_, x);
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
    std::span<dsp::Waveform* const> out, BatchScratch& /*scratch*/) {
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
    double* x[4];
    double gains[4];
    std::size_t min_len = SIZE_MAX;
    const std::size_t ac = fes[lane[0]]->ac_stage_.section_count();
    const std::size_t sections = ac + fes[lane[0]]->lowpass_.section_count();
    // Chains deeper than the quad kernel stages take the scalar path.
    bool same_shape = sections >= 1 && sections <= dsp::kMaxBiquadSections;
    for (std::size_t l = 0; l < 4; ++l) {
      fe[l] = fes[lane[l]];
      x[l] = out[lane[l]]->samples.data();
      gains[l] = fe[l]->cfg_.ac_gain;
      min_len = std::min(min_len, out[lane[l]]->samples.size());
      same_shape = same_shape && fe[l]->ac_stage_.section_count() == ac &&
                   fe[l]->lowpass_.section_count() == sections - ac;
    }
    if (!same_shape) {
      for (std::size_t l = 0; l < 4; ++l) {
        fe[l]->filters_into(out[lane[l]]->samples);
      }
      return;
    }
    // Stage the lanes' AC and low-pass sections, in chain order, into
    // the kernel's lane-major groups of 4.
    double coeffs[dsp::kMaxBiquadSections * 20];
    double states[dsp::kMaxBiquadSections * 8];
    const auto section = [&](std::size_t l, std::size_t s) -> dsp::Biquad& {
      return s < ac ? fe[l]->ac_stage_.section(s)
                    : fe[l]->lowpass_.section(s - ac);
    };
    for (std::size_t s = 0; s < sections; ++s) {
      for (std::size_t l = 0; l < 4; ++l) {
        const dsp::Biquad& sec = section(l, s);
        const dsp::BiquadCoeffs& c = sec.coeffs();
        coeffs[s * 20 + 0 + l] = c.b0;
        coeffs[s * 20 + 4 + l] = c.b1;
        coeffs[s * 20 + 8 + l] = c.b2;
        coeffs[s * 20 + 12 + l] = c.a1;
        coeffs[s * 20 + 16 + l] = c.a2;
        states[s * 8 + 0 + l] = sec.state_s1();
        states[s * 8 + 4 + l] = sec.state_s2();
      }
    }
    // The shared prefix runs in place through the quad kernel.
    if (simd::use_vector_kernels()) {
      dsp::detail::filter_quad_vec(x, min_len, coeffs, states, sections, ac,
                                   gains);
    } else {
      dsp::detail::filter_quad_kernel<simd::ScalarBackend>(
          x, min_len, coeffs, states, sections, ac, gains);
    }
    for (std::size_t s = 0; s < sections; ++s) {
      for (std::size_t l = 0; l < 4; ++l) {
        section(l, s).set_state(states[s * 8 + 0 + l], states[s * 8 + 4 + l]);
      }
    }
    // Ragged tails finish on the one-lane pass, whose delay lines continue
    // from the written-back kernel state.
    for (std::size_t l = 0; l < 4; ++l) {
      fe[l]->filters_into(
          std::span<double>{out[lane[l]]->samples}.subspan(min_len));
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
    fes[group[j]]->filters_into(out[group[j]]->samples);
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
