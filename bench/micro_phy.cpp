// PHY fast-path microbenchmark: the zero-allocation sample path's
// perf-trajectory datapoint.
//
// Times the LUT/arena rework against the frozen scalar baselines in
// phy_reference.{hpp,cpp} and checks two contracts on every run:
//
//   frame_codec      headline: serialize + interleave + Manchester chips
//                    and back, old scalar path vs the per-frame fast path
//                    (one-lane encode_frames_batch / decode_frames_batch
//                    on a kept FrameBatch; frames/s; the >= 3x figure)
//   frame_codec_batch  the same pipeline with every frame in one batch
//                    (phy/frame_batch.hpp) with native SIMD dispatch,
//                    against the per-frame path pinned onto the LUT
//                    kernels (simd::set_force_scalar) — the >= 2x
//                    past-the-plateau figure. `--threads N` shards the
//                    lanes into N independent batch pipelines; a
//                    batch-size sweep reports scaling in full mode.
//   rs_codec         RS(216, 200) encode + 4-error decode (bytes/s)
//   manchester       byte round trip, bit loops vs 256-entry LUTs
//   frontend_filter  TIA + AC + Butterworth + ADC chain (samples/s),
//                    allocating process() vs a warm one-lane
//                    process_batch_into
//   frame_wave       the per-frame joint transmission the ARQ loop runs:
//                    a warm one-lane JointTransmission::transmit_batch
//                    (render -> front end -> demodulate -> parse), fast
//                    path only, asserting every frame is delivered and
//                    zero steady-state heap allocations via alloc_hook
//   preamble_search  the pruned detect_pattern_into against the frozen
//                    full scan, on frames received through the real
//                    front end at strong, marginal and sub-threshold
//                    gains (searches/s); also reports how many positions
//                    per call were scored exactly
//   probe_sweep      ChannelProber::probe_matrix over the Fig. 7 36x4
//                    channel (links/s), against one probe_link per link
//                    on the same split() sub-streams; a warm sweep may
//                    allocate only the matrix it returns
//   gaussian_fill    the front end's noise draw: Rng::fill_gaussian on a
//                    kept buffer against a per-draw gaussian() loop on
//                    the same stream (draws/s), every bit compared
//
// Fast-path outputs are bit-compared against the scalar baselines; any
// drift prints MISMATCH and a steady-state allocation prints
// HOT-PATH-ALLOC (both treated as failure by the ctest smoke wrapper).
// Results go to stdout as tables and to BENCH_phy.json (path
// overridable via argv) for CI artifacts.
//
// Usage: micro_phy [--quick] [--threads N] [output.json]
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_json.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/beamspot.hpp"
#include "core/prober.hpp"
#include "core/testbed.hpp"
#include "dsp/correlate.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frame_batch.hpp"
#include "phy/frame_codec.hpp"
#include "phy/frontend.hpp"
#include "phy/manchester.hpp"
#include "phy/ook.hpp"
#include "phy/reed_solomon.hpp"
#include "phy_reference.hpp"
#include "scenario/scenarios.hpp"

namespace {

using namespace densevlc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One measured path (scalar baseline or fast path) of a workload.
struct PathOutcome {
  double wall_time_s = 0.0;
  double work_items = 0.0;
};

/// Everything the report needs about one workload.
struct WorkloadResult {
  std::string name;
  std::string items_unit;
  std::optional<PathOutcome> scalar;  ///< absent for fast-only workloads
  PathOutcome fast;
  bool identical = true;
  std::uint64_t steady_allocs = 0;
  std::string scalar_label = "scalar";  ///< baseline row name in the table
  std::optional<double> rescored_per_call = std::nullopt;  ///< preamble_search
};

/// Test corpus: deterministic random frames shared by the workloads.
std::vector<phy::MacFrame> make_frames(std::size_t count,
                                       std::size_t payload_bytes) {
  Rng rng{0xD3A5EU};
  std::vector<phy::MacFrame> frames(count);
  for (std::size_t i = 0; i < count; ++i) {
    frames[i].dst = static_cast<std::uint16_t>(0x0100 + i);
    frames[i].src = 0x00FE;
    frames[i].payload.resize(payload_bytes);
    for (auto& b : frames[i].payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  return frames;
}

std::vector<std::uint8_t> make_bytes(std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> bytes(count);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t threads = 1;
  std::string out_path = "BENCH_phy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long n = std::strtol(argv[++i], nullptr, 10);
      threads = n > 0 ? static_cast<std::size_t>(n) : 1;
    } else {
      out_path = argv[i];
    }
  }

  constexpr std::size_t kPayloadBytes = 600;
  const std::size_t depth = phy::FrameCodec::matched_depth(kPayloadBytes);
  const auto frames = make_frames(quick ? 4 : 8, kPayloadBytes);

  std::cout << "micro_phy - PHY fast-path benchmark (payload "
            << kPayloadBytes << " B, interleave depth " << depth
            << (quick ? ", quick mode" : "") << ")\n\n";

  std::vector<WorkloadResult> results;
  bool all_identical = true;
  bool zero_alloc_ok = true;

  // The per-frame codec round trip: one-lane encode_frames_batch, chips,
  // lenient decode back to bytes, one-lane decode_frames_batch, all on
  // kept buffers. True when the frame decodes.
  const phy::FrameCodec codec{depth};
  phy::FrameBatch lane_batch;
  std::vector<phy::Chip> chips;
  std::vector<std::uint8_t> bytes;
  phy::ParsedFrame parsed;
  const auto per_frame_round_trip = [&](const phy::MacFrame& f) {
    const phy::MacFrame* const lane[] = {&f};
    phy::encode_frames_batch(codec, lane, lane_batch);
    const auto wire = lane_batch.lane_wire(0);
    arena_resize(chips, wire.size() * 16);
    phy::manchester_encode_bytes(wire, chips);
    arena_resize(bytes, chips.size() / 16);
    phy::manchester_decode_bytes_lenient(chips, bytes);
    const std::span<const std::uint8_t> in[] = {bytes};
    std::uint8_t ok = 0;
    return phy::decode_frames_batch(codec, in, {&parsed, 1}, {&ok, 1},
                                    lane_batch) == 1;
  };

  // --- frame_codec: the headline scalar-vs-LUT comparison ----------------
  {
    WorkloadResult r{"frame_codec", "frames", {}, {}, true, 0};
    const std::size_t reps = quick ? 3 : 60;

    // Correctness pass: fast chips and decode must match the frozen
    // scalar pipeline bit for bit on every frame.
    for (const auto& f : frames) {
      const auto ref_chips = bench::ref::codec_encode_chips(f, depth);
      const auto ref_parsed = bench::ref::codec_decode_chips(ref_chips, depth);
      const bool ok = per_frame_round_trip(f);
      if (chips != ref_chips || !ref_parsed || !ok ||
          parsed.frame != ref_parsed->frame ||
          parsed.frame.payload != f.payload) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : frames) {
          const auto c = bench::ref::codec_encode_chips(f, depth);
          const auto p = bench::ref::codec_decode_chips(c, depth);
          if (!p) r.identical = false;
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (warm from the correctness pass), zero allocations
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : frames) {
          if (!per_frame_round_trip(f)) r.identical = false;
          r.fast.work_items += 1.0;
        }
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frame_codec_batch: batch API + SIMD vs the per-frame LUT plateau --
  bench::Json batch_sweep = bench::Json::array();
  {
    WorkloadResult r{"frame_codec_batch", "frames", {}, {}, true, 0};
    r.scalar_label = "lut";
    const std::size_t reps = quick ? 4 : 40;
    const std::size_t batch_size = quick ? 8 : 32;
    const auto bframes = make_frames(batch_size, kPayloadBytes);

    // One independent batch pipeline per shard; `--threads N` runs the
    // shards on a pool. Shard boundaries depend only on the lane count,
    // and every shard owns its scratch, so the outputs are bit-identical
    // at any thread count.
    struct Shard {
      std::vector<const phy::MacFrame*> ptrs;
      phy::FrameBatch batch;
      AlignedVector<phy::Chip> chips;
      AlignedVector<std::uint8_t> back;
      std::vector<std::span<const std::uint8_t>> views;
      std::vector<phy::ParsedFrame> out;
      std::vector<std::uint8_t> ok;
      bool match = true;
    };
    const auto run_shard = [&codec](Shard& s) {
      phy::encode_frames_batch(codec, s.ptrs, s.batch);
      std::size_t total_bytes = 0;
      for (std::size_t i = 0; i < s.ptrs.size(); ++i) {
        total_bytes += s.batch.lanes[i].len;
      }
      arena_resize(s.chips, total_bytes * 16);
      arena_resize(s.back, total_bytes);
      arena_resize(s.views, s.ptrs.size());
      std::size_t off = 0;
      for (std::size_t i = 0; i < s.ptrs.size(); ++i) {
        const auto wire = s.batch.lane_wire(i);
        const std::span<phy::Chip> lane_chips{s.chips.data() + off * 16,
                                              wire.size() * 16};
        phy::manchester_encode_bytes(wire, lane_chips);
        const std::span<std::uint8_t> lane_bytes{s.back.data() + off,
                                                 wire.size()};
        phy::manchester_decode_bytes_lenient(lane_chips, lane_bytes);
        s.views[i] = lane_bytes;
        off += wire.size();
      }
      arena_resize(s.out, s.ptrs.size());
      arena_resize(s.ok, s.ptrs.size());
      if (phy::decode_frames_batch(codec, s.views, s.out, s.ok, s.batch) !=
          s.ptrs.size()) {
        s.match = false;
      }
      for (std::size_t i = 0; i < s.ptrs.size(); ++i) {
        if (s.out[i].frame.payload != s.ptrs[i]->payload) s.match = false;
      }
    };

    std::vector<Shard> shards(threads);
    for (std::size_t s = 0; s < threads; ++s) {
      const std::size_t lo = s * batch_size / threads;
      const std::size_t hi = (s + 1) * batch_size / threads;
      for (std::size_t i = lo; i < hi; ++i) {
        shards[s].ptrs.push_back(&bframes[i]);
      }
    }

    // Correctness pass: batch wire bytes and decodes must equal the
    // per-frame (one-lane) path lane for lane.
    {
      for (auto& s : shards) {
        // Compare wire bytes right after the encode: the decode half of
        // run_shard reuses the FrameBatch staging and overwrites lanes.
        phy::encode_frames_batch(codec, s.ptrs, s.batch);
        for (std::size_t i = 0; i < s.ptrs.size(); ++i) {
          const auto wire = codec.encode(*s.ptrs[i]);
          const auto got = s.batch.lane_wire(i);
          if (got.size() != wire.size() ||
              !std::equal(got.begin(), got.end(), wire.begin())) {
            r.identical = false;
          }
        }
        run_shard(s);  // full pipeline, round-trip checked via s.match
        r.identical = r.identical && s.match;
      }
    }

    {  // LUT baseline: the per-frame path pinned onto the scalar kernels
      simd::set_force_scalar(true);
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : bframes) {
          if (!per_frame_round_trip(f)) r.identical = false;
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
      simd::set_force_scalar(false);
    }

    {  // batch timing (shards already warm from the correctness pass)
      std::optional<ThreadPool> pool;
      if (threads > 1) pool.emplace(threads);
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        if (pool) {
          pool->run_chunks(shards.size(),
                           [&](std::size_t c) { run_shard(shards[c]); });
        } else {
          for (auto& s : shards) run_shard(s);
        }
        r.fast.work_items += static_cast<double>(batch_size);
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
      for (const auto& s : shards) r.identical = r.identical && s.match;
    }

    // Batch-size sweep (full mode, single shard): how the batch kernels
    // fill up as lanes are added.
    if (!quick) {
      std::cout << "frame_codec_batch sweep (1 thread):";
      for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, std::size_t{32}}) {
        const auto sweep_frames = make_frames(n, kPayloadBytes);
        Shard s;
        for (const auto& f : sweep_frames) s.ptrs.push_back(&f);
        run_shard(s);  // warm-up
        const std::size_t sweep_reps = 20;
        const auto t0 = Clock::now();
        for (std::size_t rep = 0; rep < sweep_reps; ++rep) run_shard(s);
        const double dt = seconds_since(t0);
        const double rate =
            dt > 0.0 ? static_cast<double>(n * sweep_reps) / dt : 0.0;
        std::cout << "  " << n << ": " << fmt_si(rate) << "/s";
        bench::Json row = bench::Json::object();
        row.set("batch_size", n);
        row.set("frames_per_s", rate);
        batch_sweep.push(std::move(row));
      }
      std::cout << "\n\n";
    }
    results.push_back(std::move(r));
  }

  // --- rs_codec: encode + 4-error decode throughput ----------------------
  {
    WorkloadResult r{"rs_codec", "message_bytes", {}, {}, true, 0};
    const std::size_t reps = quick ? 8 : 200;
    constexpr std::size_t kMsgBytes = 200;
    const std::size_t n_msgs = quick ? 4 : 16;
    const bench::ref::ReedSolomon ref_rs{phy::kRsBlockParity};
    const phy::ReedSolomon rs{phy::kRsBlockParity};
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::size_t i = 0; i < n_msgs; ++i) {
      msgs.push_back(make_bytes(kMsgBytes, 0x55000 + i));
    }
    // Deterministic 4-byte error burst per codeword.
    const auto corrupt = [](std::vector<std::uint8_t>& cw, std::size_t i) {
      for (std::size_t e = 0; e < 4; ++e) {
        const std::size_t pos = (i * 37 + e * 53 + 11) % cw.size();
        cw[pos] = static_cast<std::uint8_t>(cw[pos] ^ (0x5A + e));
      }
    };

    std::vector<std::uint8_t> cw;
    std::vector<std::uint8_t> bad;
    phy::RsDecodeResult dec;
    phy::RsScratch rscr;

    // Correctness pass.
    for (std::size_t i = 0; i < n_msgs; ++i) {
      auto ref_cw = ref_rs.encode(msgs[i]);
      rs.encode_into(msgs[i], cw);
      if (cw != ref_cw) r.identical = false;
      corrupt(ref_cw, i);
      bad = cw;
      corrupt(bad, i);
      const auto ref_dec = ref_rs.decode(ref_cw);
      const bool ok = rs.decode_into(bad, dec, rscr);
      if (!ref_dec || !ok || dec.data != ref_dec->data ||
          dec.corrected_errors != ref_dec->corrected_errors ||
          dec.data != msgs[i]) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < n_msgs; ++i) {
          auto c = ref_rs.encode(msgs[i]);
          corrupt(c, i);
          if (!ref_rs.decode(c)) r.identical = false;
          r.scalar->work_items += kMsgBytes;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (already warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < n_msgs; ++i) {
          rs.encode_into(msgs[i], cw);
          bad = cw;
          corrupt(bad, i);
          if (!rs.decode_into(bad, dec, rscr)) r.identical = false;
          r.fast.work_items += kMsgBytes;
        }
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- manchester: byte round trip, bit loops vs LUTs --------------------
  {
    WorkloadResult r{"manchester", "bytes", {}, {}, true, 0};
    const std::size_t reps = quick ? 8 : 400;
    const auto data = make_bytes(quick ? 256 : 1125, 0xABCDEF);

    std::vector<phy::Chip> chips;
    std::vector<std::uint8_t> back;

    // Correctness pass.
    {
      const auto ref_bits = bench::ref::bytes_to_bits(data);
      const auto ref_chips = bench::ref::manchester_encode(ref_bits);
      const auto ref_dec = bench::ref::manchester_decode_lenient(ref_chips);
      const auto ref_back = bench::ref::bits_to_bytes(ref_dec.bits);

      arena_resize(chips, 16 * data.size());
      phy::manchester_encode_bytes(data, chips);
      arena_resize(back, data.size());
      const std::size_t violations =
          phy::manchester_decode_bytes_lenient(chips, back);
      if (chips != ref_chips || !ref_back || back != *ref_back ||
          back != data || violations != ref_dec.violations) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto bits = bench::ref::bytes_to_bits(data);
        const auto c = bench::ref::manchester_encode(bits);
        const auto dec = bench::ref::manchester_decode_lenient(c);
        if (!bench::ref::bits_to_bytes(dec.bits)) r.identical = false;
        r.scalar->work_items += static_cast<double>(data.size());
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        arena_resize(chips, 16 * data.size());
        phy::manchester_encode_bytes(data, chips);
        arena_resize(back, data.size());
        phy::manchester_decode_bytes_lenient(chips, back);
        r.fast.work_items += static_cast<double>(data.size());
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frontend_filter: analog chain throughput --------------------------
  {
    WorkloadResult r{"frontend_filter", "samples", {}, {}, true, 0};
    const std::size_t reps = quick ? 2 : 40;
    const std::size_t n = quick ? 5000 : 50000;

    dsp::Waveform optical;
    optical.sample_rate_hz = 1e6;
    optical.samples.resize(n);
    Rng pattern_rng{0xF00D};
    for (std::size_t i = 0; i < n; ++i) {
      // OOK-like optical power: 0 or ~2.5 uW, new chip every 10 samples.
      if (i % 10 == 0) {
        optical.samples[i] = pattern_rng.bernoulli(0.5) ? 2.5e-6 : 0.0;
      } else {
        optical.samples[i] = optical.samples[i - 1];
      }
    }

    const phy::FrontEndConfig cfg{};  // default noisy front end
    // One lane through process_batch_into on kept buffers: the front end,
    // its input and output, and the batch scratch.
    phy::ReceiverFrontEnd fe{cfg, Rng{42}};
    dsp::Waveform out;
    phy::ReceiverFrontEnd::BatchScratch scratch;
    phy::ReceiverFrontEnd* const fe_lane[] = {&fe};
    const dsp::Waveform* const in_lane[] = {&optical};
    dsp::Waveform* const out_lane[] = {&out};
    // process() and the kept one-lane batch from identically seeded front
    // ends must agree bit for bit over back-to-back calls (same noise
    // stream, same filter states).
    {
      phy::ReceiverFrontEnd fe_a{cfg, Rng{42}};
      for (int pass = 0; pass < 2; ++pass) {
        const auto out_a = fe_a.process(optical);
        phy::ReceiverFrontEnd::process_batch_into(fe_lane, in_lane, out_lane,
                                                  scratch);
        if (out_a.samples != out.samples) r.identical = false;
      }
    }

    {  // scalar timing (allocating process())
      r.scalar.emplace();
      phy::ReceiverFrontEnd value_fe{cfg, Rng{42}};
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto rx = value_fe.process(optical);
        r.scalar->work_items += static_cast<double>(rx.samples.size());
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        phy::ReceiverFrontEnd::process_batch_into(fe_lane, in_lane, out_lane,
                                                  scratch);
        r.fast.work_items += static_cast<double>(out.samples.size());
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frame_wave: one-lane joint transmission, fast path only ----------
  {
    WorkloadResult r{"frame_wave", "frames", {}, {}, true, 0};
    const std::size_t reps = quick ? 3 : 20;

    // One serving TX on a strong link through the default noisy front end:
    // every frame must be delivered.
    const auto tb = core::make_experimental_testbed();
    const core::JointTransmission jt{tb.led, phy::OokParams{},
                                     phy::FrontEndConfig{}};
    const std::vector<core::ServingTx> servers{{7, 8e-7, 0.9, 0.0}};
    core::JointTransmission::TransmitBatchScratch scratch;
    core::TransmissionOutcome outcome;
    Rng rng{7};

    const auto run_one = [&](const phy::MacFrame& f) {
      const core::JointTransmission::TransmitJob job[] = {
          {servers, &f, {}, 0.0}};
      jt.transmit_batch(job, rng, {&outcome, 1}, scratch);
      return outcome.delivered;
    };

    for (std::size_t i = 0; i < 2; ++i) {  // warm-up: scratch settles
      if (!run_one(frames[i % frames.size()])) r.identical = false;
    }
    const std::uint64_t allocs0 = bench::alloc_count();
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      if (!run_one(frames[rep % frames.size()])) r.identical = false;
      r.fast.work_items += 1.0;
    }
    r.fast.wall_time_s = seconds_since(t0);
    r.steady_allocs = bench::alloc_count() - allocs0;
    results.push_back(std::move(r));
  }

  // --- preamble_search: pruned search vs the full scan -------------------
  {
    WorkloadResult r{"preamble_search", "searches", {}, {}, true, 0};
    r.scalar_label = "full scan";
    const std::size_t reps = quick ? 1 : 10;

    const phy::OokParams params{};
    const phy::OokModulator mod{params};
    const phy::FrontEndConfig fcfg{};  // default noisy front end
    const phy::OokDemodulator demod{params.chip_rate_hz,
                                    fcfg.adc.sample_rate_hz};
    const std::vector<double> tpl = demod.preamble_template();
    constexpr double kMinCorrelation = 0.6;  // the receiver's threshold

    // Received frames: LED current [A] scaled to optical power [W] at a
    // strong, a marginal and a sub-threshold link, each through its own
    // noisy front end.
    std::vector<std::vector<double>> signals;
    std::uint64_t fe_seed = 1;
    for (const double watts_per_amp : {2.78e-6, 2e-8, 4e-9}) {
      for (std::size_t i = 0; i < (quick ? 2u : frames.size()); ++i) {
        dsp::Waveform wf = mod.modulate_frame(frames[i], false, 0, 64);
        for (double& v : wf.samples) v *= watts_per_amp;
        phy::ReceiverFrontEnd fe{fcfg, Rng{fe_seed++}};
        signals.push_back(fe.process(wf).samples);
      }
    }

    std::vector<std::optional<dsp::PeakDetection>> expect;
    {  // full-scan timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        expect.clear();
        for (const auto& sig : signals) {
          expect.push_back(bench::ref::detect_pattern(sig, tpl,
                                                      kMinCorrelation));
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // pruned timing; every call checked against the full scan
      dsp::CorrelateScratch scratch;
      (void)dsp::detect_pattern_into(signals[0], tpl, kMinCorrelation,
                                     scratch);  // warm-up
      std::size_t rescored = 0;
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < signals.size(); ++i) {
          const auto got = dsp::detect_pattern_into(signals[i], tpl,
                                                    kMinCorrelation, scratch);
          const auto& ref = expect[i];
          if (got.has_value() != ref.has_value() ||
              (got && (got->index != ref->index ||
                       std::bit_cast<std::uint64_t>(got->score) !=
                           std::bit_cast<std::uint64_t>(ref->score)))) {
            r.identical = false;
          }
          rescored += scratch.rescored;
          r.fast.work_items += 1.0;
        }
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
      r.rescored_per_call =
          static_cast<double>(rescored) / r.fast.work_items;
    }
    results.push_back(std::move(r));
  }

  // --- probe_sweep: batched channel sweep vs per-link probes -------------
  {
    WorkloadResult r{"probe_sweep", "links", {}, {}, true, 0};
    r.scalar_label = "per-link";
    const std::size_t reps = quick ? 1 : 20;
    const auto tb = core::make_simulation_testbed();
    const auto truth = tb.channel_for(scenario::fig7_rx_positions());
    const std::size_t n = truth.num_tx();
    const std::size_t m = truth.num_rx();
    core::ChannelProber prober{tb.led, phy::OokParams{},
                               phy::FrontEndConfig{}, 0.9};
    Rng rng{0x9B0BE};

    {  // per-link timing: the sweep's draws, one probe_link at a time
      r.scalar.emplace();
      Rng ref_rng = rng;
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const Rng fork = ref_rng.fork();
        for (std::size_t idx = 0; idx < n * m; ++idx) {
          Rng link = fork.split(idx);
          (void)prober.probe_link(truth.gain(idx / m, idx % m), link);
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    // Correctness pass: every entry against its per-link probe.
    {
      Rng ref_rng = rng;
      const Rng fork = ref_rng.fork();
      const auto measured = prober.probe_matrix(truth, rng);
      for (std::size_t idx = 0; idx < n * m; ++idx) {
        Rng link = fork.split(idx);
        const double expect =
            prober.probe_link(truth.gain(idx / m, idx % m), link)
                .gain_estimate;
        if (std::bit_cast<std::uint64_t>(measured.gain(idx / m, idx % m)) !=
            std::bit_cast<std::uint64_t>(expect)) {
          r.identical = false;
        }
      }
    }

    {  // sweep timing (warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        (void)prober.probe_matrix(truth, rng);
        r.fast.work_items += static_cast<double>(n * m);
      }
      r.fast.wall_time_s = seconds_since(t0);
      // Each sweep allocates the matrix it returns, and nothing else.
      r.steady_allocs = bench::alloc_count() - allocs0 - reps;
    }
    results.push_back(std::move(r));
  }

  // --- gaussian_fill: block normal fill vs per-draw gaussian() -----------
  {
    WorkloadResult r{"gaussian_fill", "draws", {}, {}, true, 0};
    r.scalar_label = "per-draw";
    const std::size_t reps = quick ? 50 : 20000;
    // Odd, so every other block enters with a cached half; about one
    // probe's worth of samples.
    constexpr std::size_t kDraws = 801;
    constexpr double kSigma = 5.9e-9;  // the default front end's, [A]
    std::vector<double> expect(kDraws);
    std::vector<double> got(kDraws);
    const auto same_bits = [&](std::size_t len) {
      return std::memcmp(expect.data(), got.data(), len * sizeof(double)) == 0;
    };
    Rng per_draw{0x6A055};
    Rng block = per_draw;

    {  // per-draw timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (double& v : expect) v = per_draw.gaussian(0.0, kSigma);
        r.scalar->work_items += static_cast<double>(kDraws);
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // block timing on the same stream, then the last blocks compared
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        block.fill_gaussian(got, 0.0, kSigma);
        r.fast.work_items += static_cast<double>(kDraws);
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
      if (!same_bits(kDraws)) r.identical = false;
    }

    // Correctness pass: block by block, odd and even lengths, cached half
    // or not on entry.
    for (const std::size_t len : {0, 1, 2, 3, 312, 313, 801}) {
      for (std::size_t i = 0; i < len; ++i) {
        expect[i] = per_draw.gaussian(0.0, kSigma);
      }
      block.fill_gaussian({got.data(), len}, 0.0, kSigma);
      if (!same_bits(len)) r.identical = false;
    }
    results.push_back(std::move(r));
  }

  // --- Report -------------------------------------------------------------
  bench::Json doc = bench::Json::object();
  doc.set("bench", "micro_phy");
  doc.set("quick", quick);
  doc.set("payload_bytes", kPayloadBytes);
  doc.set("interleave_depth", depth);
  doc.set("threads", threads);
  doc.set("simd_backend", std::string{simd::active_backend_name()});
  bench::Json workload_array = bench::Json::array();

  double headline_speedup = 0.0;
  double batch_speedup = 0.0;
  for (const auto& r : results) {
    TablePrinter table{{"path", "wall [s]", r.items_unit + "/s"}};
    const auto rate = [](const PathOutcome& p) {
      return p.wall_time_s > 0.0 ? p.work_items / p.wall_time_s : 0.0;
    };
    bench::Json wj = bench::Json::object();
    wj.set("name", r.name);
    wj.set("unit", r.items_unit);
    if (r.scalar) {
      table.add_row({r.scalar_label, fmt(r.scalar->wall_time_s, 4),
                     fmt_si(rate(*r.scalar))});
      bench::Json sj = bench::Json::object();
      sj.set("wall_time_s", r.scalar->wall_time_s);
      sj.set(r.items_unit + "_per_s", rate(*r.scalar));
      wj.set("scalar", std::move(sj));
    }
    table.add_row({"fast", fmt(r.fast.wall_time_s, 4), fmt_si(rate(r.fast))});
    bench::Json fj = bench::Json::object();
    fj.set("wall_time_s", r.fast.wall_time_s);
    fj.set(r.items_unit + "_per_s", rate(r.fast));
    wj.set("fast", std::move(fj));

    std::cout << r.name << ":\n";
    table.print(std::cout);
    if (r.scalar) {
      const double speedup =
          rate(r.fast) > 0.0 && rate(*r.scalar) > 0.0
              ? rate(r.fast) / rate(*r.scalar)
              : 0.0;
      std::cout << "  speedup fast vs " << r.scalar_label << ": "
                << fmt(speedup, 2) << "x\n";
      wj.set("speedup_fast_vs_scalar", speedup);
      wj.set("baseline", r.scalar_label);
      if (r.name == "frame_codec") headline_speedup = speedup;
      if (r.name == "frame_codec_batch") batch_speedup = speedup;
    }
    if (r.rescored_per_call) {
      std::cout << "  exact rescores per call: "
                << fmt(*r.rescored_per_call, 2) << "\n";
      wj.set("rescored_per_call", *r.rescored_per_call);
    }
    std::cout << "  outputs vs scalar baseline: "
              << (r.identical ? "bit-identical" : "MISMATCH") << "\n"
              << "  steady-state heap allocations: " << r.steady_allocs
              << (r.steady_allocs == 0 ? "" : "  HOT-PATH-ALLOC") << "\n\n";
    wj.set("bit_identical", r.identical);
    wj.set("steady_state_allocs", r.steady_allocs);
    workload_array.push(std::move(wj));

    all_identical = all_identical && r.identical;
    zero_alloc_ok = zero_alloc_ok && (r.steady_allocs == 0);
  }

  doc.set("workloads", std::move(workload_array));
  doc.set("frame_codec_speedup", headline_speedup);
  doc.set("frame_codec_batch_speedup", batch_speedup);
  doc.set("batch_sweep", std::move(batch_sweep));
  doc.set("bit_identical", all_identical);
  doc.set("zero_alloc", zero_alloc_ok);
  if (!bench::write_json_file(out_path, doc)) {
    std::cerr << "failed to write " << out_path << '\n';
    return 1;
  }

  std::cout << (all_identical ? "correctness: all fast paths bit-identical"
                              : "correctness MISMATCH: see tables")
            << '\n'
            << (zero_alloc_ok
                    ? "allocations: zero in steady state"
                    : "HOT-PATH-ALLOC: steady-state allocation detected")
            << '\n'
            << "frame_codec speedup: " << fmt(headline_speedup, 2)
            << "x (target >= 3x)\n"
            << "frame_codec_batch speedup vs LUT: " << fmt(batch_speedup, 2)
            << "x (target >= 2x, " << threads << " thread"
            << (threads == 1 ? "" : "s") << ")\nwrote " << out_path << '\n';
  return (all_identical && zero_alloc_ok) ? 0 : 1;
}
