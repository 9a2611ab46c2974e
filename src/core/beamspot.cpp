#include "core/beamspot.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "dsp/snr_estimator.hpp"

namespace densevlc::core {

JointTransmission::JointTransmission(const optics::LedModel& led,
                                     const phy::OokParams& ook,
                                     const phy::FrontEndConfig& frontend)
    : led_{led}, ook_{ook}, frontend_{frontend} {}

namespace {

// On-air chips of a frame (preamble + Manchester-coded serialized bytes),
// counted without building them.
std::size_t frame_chip_count(const phy::MacFrame& frame) {
  return phy::kPreambleChips +
         16 * phy::serialized_frame_bytes(frame.payload.size());
}

}  // namespace

double JointTransmission::frame_airtime_s(const phy::MacFrame& frame) const {
  return static_cast<double>(frame_chip_count(frame)) / ook_.chip_rate_hz;
}

void JointTransmission::render_optical_into(
    std::span<const ServingTx> servers, const phy::MacFrame& frame,
    std::span<const InterfererGroup> interferers, double ambient_optical_w,
    dsp::Waveform& optical, RenderScratch& scratch) const {
  const std::size_t spc = ook_.samples_per_chip;
  const double tx_rate = ook_.sample_rate_hz();

  // Every participating chip stream shares one timeline.
  std::size_t longest_chips = frame_chip_count(frame);
  double max_offset = 0.0;
  for (const auto& s : servers) {
    max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
  }
  for (const auto& group : interferers) {
    longest_chips = std::max(longest_chips, frame_chip_count(group.frame));
    for (const auto& s : group.txs) {
      max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
    }
  }

  const std::size_t guard_samples = 16 * spc;
  const auto offset_samples_max =
      static_cast<std::size_t>(std::ceil(max_offset * tx_rate));
  const std::size_t total = longest_chips * spc + 2 * guard_samples +
                            2 * offset_samples_max;

  optical.sample_rate_hz = tx_rate;
  arena_resize(optical.samples, total);

  const double eta = led_.electrical().wall_plug_efficiency;
  const double bias = led_.operating_point().bias_current_a;
  const double p_bias = eta * led_.power_at_current(Amperes{bias}).value();
  const auto base_start =
      static_cast<double>(guard_samples + offset_samples_max);

  // One stream per TX with positive gain, in addition order (servers,
  // then interferer groups). Its three levels are the products gain *
  // power every sample used to form.
  arena_clear(scratch.chips);
  arena_clear(scratch.streams);
  const auto stage_frame = [&](const phy::MacFrame& f) {
    phy::frame_to_chips_into(f, scratch.frame_chips, scratch.wire);
    const std::size_t at = scratch.chips.size();
    arena_resize(scratch.chips, at + scratch.frame_chips.size());
    std::copy(scratch.frame_chips.begin(), scratch.frame_chips.end(),
              scratch.chips.begin() + static_cast<std::ptrdiff_t>(at));
    return at;
  };
  const auto add_stream = [&](const ServingTx& server, std::size_t chip_at,
                              std::size_t chip_count) {
    if (server.gain <= 0.0) return;
    const double half = server.swing_a / 2.0;
    const double p_high =
        eta * led_.power_at_current(Amperes{bias + half}).value();
    const double p_low =
        eta * led_.power_at_current(Amperes{bias - half}).value();
    RenderStream& st =
        arena_resize(scratch.streams, scratch.streams.size() + 1).back();
    st.start = static_cast<std::ptrdiff_t>(
        base_start +
        static_cast<double>(std::llround(server.start_offset_s * tx_rate)));
    st.chip_at = chip_at;
    st.chip_count = chip_count;
    st.idle = server.gain * p_bias;
    st.high = server.gain * p_high;
    st.low = server.gain * p_low;
  };
  const std::size_t own_at = stage_frame(frame);
  const std::size_t own_count = scratch.chips.size();
  for (const auto& server : servers) add_stream(server, own_at, own_count);
  for (const auto& group : interferers) {
    const std::size_t at = stage_frame(group.frame);
    const std::size_t count = scratch.chips.size() - at;
    for (const auto& itx : group.txs) add_stream(itx, at, count);
  }

  // Each stream covers the timeline in three parts: idle illumination
  // before the frame, one run of samples_per_chip per chip, idle after.
  // The timeline is rendered tile by tile, every stream added to a tile
  // in stream order, so each sample still sees ambient followed by the
  // same sequence of additions. Within a tile only a stream's first and
  // last chip runs can cross the tile's edges; the runs between them are
  // whole.
  double* const out = optical.samples.data();
  const auto add_level = [out](std::ptrdiff_t from, std::ptrdiff_t to,
                               double level) {
    for (std::ptrdiff_t s = from; s < to; ++s) out[s] += level;
  };
  const auto end = static_cast<std::ptrdiff_t>(total);
  const auto run = static_cast<std::ptrdiff_t>(spc);
  const auto tile = static_cast<std::ptrdiff_t>(kRenderTileSamples);
  for (std::ptrdiff_t lo = 0; lo < end; lo += tile) {
    const std::ptrdiff_t hi = std::min(end, lo + tile);
    std::fill(out + lo, out + hi, ambient_optical_w);
    for (const RenderStream& st : scratch.streams) {
      const phy::Chip* chips = scratch.chips.data() + st.chip_at;
      const double levels[2] = {st.low, st.high};
      const auto level = [&](std::size_t k) {
        return levels[chips[k] == phy::Chip::kHigh ? 1 : 0];
      };
      const std::ptrdiff_t frame_end =
          st.start + static_cast<std::ptrdiff_t>(st.chip_count) * run;
      add_level(lo, std::min(hi, st.start), st.idle);
      const std::ptrdiff_t a = std::max(lo, st.start);
      const std::ptrdiff_t b = std::min(hi, frame_end);
      if (a < b) {
        auto k = static_cast<std::size_t>((a - st.start) / run);
        const auto k_last = static_cast<std::size_t>((b - 1 - st.start) / run);
        std::ptrdiff_t at = st.start + static_cast<std::ptrdiff_t>(k) * run;
        add_level(a, std::min(b, at + run), level(k));
        if (k < k_last) {
          for (++k, at += run; k < k_last; ++k, at += run) {
            double* const p = out + at;
            const double v = level(k);
            for (std::ptrdiff_t s = 0; s < run; ++s) p[s] += v;
          }
          add_level(at, b, level(k_last));
        }
      }
      add_level(std::max(lo, frame_end), hi, st.idle);
    }
  }
}

TransmissionOutcome JointTransmission::transmit(
    std::span<const ServingTx> servers, const phy::MacFrame& frame,
    Rng& rng, std::span<const InterfererGroup> interferers,
    double ambient_optical_w) const {
  const TransmitJob job[] = {{servers, &frame, interferers, ambient_optical_w}};
  TransmissionOutcome out;
  TransmitBatchScratch scratch;
  transmit_batch(job, rng, {&out, 1}, scratch);
  return out;
}

void JointTransmission::transmit_batch(std::span<const TransmitJob> jobs,
                                       Rng& rng,
                                       std::span<TransmissionOutcome> outcomes,
                                       TransmitBatchScratch& scratch) const {
  // Rendering draws nothing from `rng`, so forking every lane's noise
  // substream first, in job order, yields the exact per-lane streams of
  // one-lane calls in sequence. Lanes with no servers fork nothing.
  const std::size_t n = jobs.size();
  if (scratch.noise.size() < n) scratch.noise.resize(n, Rng{0});
  for (std::size_t i = 0; i < n; ++i) {
    if (!jobs[i].servers.empty()) scratch.noise[i] = rng.fork();
  }
  transmit_batch(jobs, std::span<const Rng>{scratch.noise}.first(n), outcomes,
                 scratch);
}

void JointTransmission::transmit_batch(std::span<const TransmitJob> jobs,
                                       std::span<const Rng> noise,
                                       std::span<TransmissionOutcome> outcomes,
                                       TransmitBatchScratch& scratch) const {
  const std::size_t n = jobs.size();
  DVLC_EXPECT(outcomes.size() == n && noise.size() == n,
              "transmit_batch: one outcome and one noise stream per job");
  arena_grow(scratch.optical, n);
  arena_grow(scratch.rx, n);
  scratch.active.clear();
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i] = TransmissionOutcome{};
    if (jobs[i].servers.empty()) continue;  // no stream, no noise
    render_optical_into(jobs[i].servers, *jobs[i].frame, jobs[i].interferers,
                        jobs[i].ambient_optical_w, scratch.optical[i],
                        scratch.render);
    scratch.active.push_back(i);
  }
  const std::size_t m = scratch.active.size();

  // A kept front-end of the same configuration restarts on its stream
  // exactly as a new one would.
  scratch.fe_ptrs.resize(m);
  scratch.optical_ptrs.resize(m);
  scratch.rx_ptrs.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t lane = scratch.active[j];
    if (j == scratch.fes.size()) {
      scratch.fes.emplace_back(frontend_, noise[lane]);
    } else if (scratch.fes[j].config() == frontend_) {
      scratch.fes[j].restart(noise[lane]);
    } else {
      scratch.fes[j] = phy::ReceiverFrontEnd{frontend_, noise[lane]};
    }
    scratch.optical_ptrs[j] = &scratch.optical[lane];
    scratch.rx_ptrs[j] = &scratch.rx[lane];
  }
  for (std::size_t j = 0; j < m; ++j) scratch.fe_ptrs[j] = &scratch.fes[j];
  phy::ReceiverFrontEnd::process_batch_into(scratch.fe_ptrs,
                                            scratch.optical_ptrs,
                                            scratch.rx_ptrs,
                                            scratch.fe_scratch);

  const phy::OokDemodulator demod{ook_.chip_rate_hz,
                                  frontend_.adc.sample_rate_hz};
  scratch.signals.resize(m);
  arena_grow(scratch.results, m);
  scratch.ok.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    scratch.signals[j] = scratch.rx_ptrs[j]->samples;
  }
  demod.receive_batch_into(scratch.signals,
                           std::span{scratch.results}.first(m), scratch.ok,
                           scratch.rx_scratch);

  for (std::size_t j = 0; j < m; ++j) {
    if (scratch.ok[j] == 0) continue;  // undecoded: the default outcome
    const std::size_t lane = scratch.active[j];
    const phy::OokDemodulator::RxResult& r = scratch.results[j];
    TransmissionOutcome& out = outcomes[lane];
    out.preamble_found = true;
    out.correlation = r.correlation;
    out.corrected_bytes = r.parsed.corrected_bytes;
    out.delivered = r.parsed.frame == *jobs[lane].frame;
    if (const auto snr = dsp::m2m4_snr(scratch.signals[j])) {
      out.snr_estimate_db = snr->snr_db;
    }
  }
}

}  // namespace densevlc::core
