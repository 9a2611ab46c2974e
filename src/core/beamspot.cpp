#include "core/beamspot.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "dsp/dsp_kernels.hpp"
#include "dsp/snr_estimator.hpp"

namespace densevlc::core {

JointTransmission::JointTransmission(const optics::LedModel& led,
                                     const phy::OokParams& ook,
                                     const phy::FrontEndConfig& frontend)
    : led_{led}, ook_{ook}, frontend_{frontend} {}

namespace {

// Floor division and its non-negative remainder, for b > 0.
std::ptrdiff_t floor_div(std::ptrdiff_t a, std::ptrdiff_t b) {
  return a / b - (a % b < 0 ? 1 : 0);
}

std::ptrdiff_t floor_mod(std::ptrdiff_t a, std::ptrdiff_t b) {
  return a - floor_div(a, b) * b;
}

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

  const auto end = static_cast<std::ptrdiff_t>(total);
  const auto run = static_cast<std::ptrdiff_t>(spc);
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
    // A frame wholly off the timeline (a NaN offset's start is far
    // before it) leaves the stream idle throughout, with no phase.
    if (st.start >= end ||
        st.start + static_cast<std::ptrdiff_t>(chip_count) * run <= 0) {
      st.start = 0;
      st.chip_count = 0;
    }
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

  // Phase render. Each stream covers the timeline with idle light
  // before its frame, one run of samples_per_chip per chip, and idle
  // light after, so its level changes only on its phase: its start
  // modulo samples_per_chip. With the distinct phases q_0 < ... <
  // q_{m-1}, the timeline splits into chip periods of samples_per_chip
  // samples, the first starting at q_0 - samples_per_chip (or at 0 when
  // q_0 is 0), and each period into m segments from q_i to q_{i+1}
  // (q_m = q_0 + samples_per_chip) on which every stream holds one
  // level. A segment's sum is formed once, ambient then each stream's
  // level in stream order, which are the additions a per-sample render
  // makes for each of its samples. With every phase distinct each
  // segment is one sample, and the adds are as many as per sample.
  auto& offsets = arena_clear(scratch.offsets);
  for (const RenderStream& st : scratch.streams) {
    if (st.chip_count > 0) offsets.push_back(floor_mod(st.start, run));
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  if (offsets.empty()) offsets.push_back(0);
  const std::ptrdiff_t q0 = offsets.front();
  for (std::ptrdiff_t& q : offsets) q -= q0;
  offsets.push_back(run);
  const std::size_t segments = offsets.size() - 1;
  const std::ptrdiff_t origin = q0 == 0 ? 0 : q0 - run;
  const auto periods = static_cast<std::size_t>((end - origin + run - 1) / run);

  // Block row x of a stream holds its level in the block's period x in
  // segment 0; a later segment of the same period reads row x, or row
  // x + 1 where the stream has passed its own boundary (hence one level
  // more per row than periods per block).
  constexpr std::size_t kBlock = kRenderBlockPeriods;
  constexpr std::size_t kRow = kBlock + 1;
  const std::size_t n = scratch.streams.size();
  arena_resize(scratch.levels, n * kRow);
  arena_resize(scratch.sums, segments * kBlock);
  arena_resize(scratch.segment_rows, segments * n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::ptrdiff_t lead = origin - scratch.streams[s].start;
    const std::ptrdiff_t first = floor_div(lead, run);
    for (std::size_t i = 0; i < segments; ++i) {
      const std::ptrdiff_t shift = floor_div(lead + offsets[i], run) - first;
      scratch.segment_rows[i * n + s] =
          scratch.levels.data() + s * kRow + static_cast<std::size_t>(shift);
    }
  }

  const bool vector = simd::use_vector_kernels();
  double* const out = optical.samples.data();
  for (std::size_t block = 0; block < periods; block += kBlock) {
    const std::size_t count = std::min(kBlock, periods - block);
    const auto at = static_cast<std::ptrdiff_t>(block);
    for (std::size_t s = 0; s < n; ++s) {
      // Row x is chip k0 + x of the stream, idle off its frame.
      const RenderStream& st = scratch.streams[s];
      const std::ptrdiff_t k0 = floor_div(origin - st.start, run) + at;
      const auto row_len = static_cast<std::ptrdiff_t>(count + 1);
      const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-k0, 0, row_len);
      const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(
          static_cast<std::ptrdiff_t>(st.chip_count) - k0, lo, row_len);
      double* const row = scratch.levels.data() + s * kRow;
      const phy::Chip* const chips = scratch.chips.data() + st.chip_at;
      std::fill(row, row + lo, st.idle);
      for (std::ptrdiff_t x = lo; x < hi; ++x) {
        row[x] = chips[k0 + x] == phy::Chip::kHigh ? st.high : st.low;
      }
      std::fill(row + hi, row + row_len, st.idle);
    }
    for (std::size_t i = 0; i < segments; ++i) {
      const double* const* rows = scratch.segment_rows.data() + i * n;
      double* const sums = scratch.sums.data() + i * kBlock;
      if (vector) {
        dsp::detail::sum_rows_vec(rows, n, ambient_optical_w, sums, count);
      } else {
        dsp::detail::sum_rows_kernel<simd::ScalarBackend>(
            rows, n, ambient_optical_w, sums, count);
      }
    }
    std::ptrdiff_t period = origin + at * run;
    for (std::size_t x = 0; x < count; ++x, period += run) {
      for (std::size_t i = 0; i < segments; ++i) {
        const double sum = scratch.sums[i * kBlock + x];
        const std::ptrdiff_t from = std::max<std::ptrdiff_t>(
            0, period + offsets[i]);
        const std::ptrdiff_t to = std::min(end, period + offsets[i + 1]);
        for (std::ptrdiff_t t = from; t < to; ++t) out[t] = sum;
      }
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
