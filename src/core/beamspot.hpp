// Joint multi-TX transmission emulation (the beamspot data path).
//
// All TXs of a beamspot radiate the same Manchester frame; the receiver
// sees the superposition of their optical signals, each scaled by its
// channel gain and shifted by its residual start-time error. This class
// renders that superposition at waveform level and runs it through the RX
// front-end and demodulator — the code path behind Table 5's iperf rows,
// where misaligned frames from unsynchronized BBBs destroy each other and
// NLOS-synchronized ones decode cleanly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "optics/led_model.hpp"
#include "phy/frame.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"

namespace densevlc::core {

/// One transmitter participating in a beamspot transmission.
struct ServingTx {
  std::size_t tx_id = 0;
  double gain = 0.0;            ///< channel gain H to the target RX
  double swing_a = 0.9;         ///< assigned swing
  double start_offset_s = 0.0;  ///< residual sync error vs. nominal start
};

/// Result of one frame transmission attempt.
struct TransmissionOutcome {
  bool delivered = false;        ///< decoded and payload matches
  bool preamble_found = false;
  std::size_t corrected_bytes = 0;
  double correlation = 0.0;
  double snr_estimate_db = 0.0;  ///< M2M4 over the frame (0 if unfound)
};

/// Another beamspot radiating a different frame concurrently — its TXs
/// appear at this RX as structured interference.
struct InterfererGroup {
  std::vector<ServingTx> txs;  ///< gains are toward the *victim* RX
  phy::MacFrame frame;
};

/// Renders and receives joint transmissions.
class JointTransmission {
 public:
  JointTransmission(const optics::LedModel& led, const phy::OokParams& ook,
                    const phy::FrontEndConfig& frontend);

  /// Transmits `frame` from every serving TX simultaneously (up to their
  /// start offsets) and attempts reception: a one-lane transmit_batch on
  /// a fresh scratch. `interferers` radiate their own frames on the same
  /// timeline. `ambient_optical_w` adds a constant ambient-light term
  /// (stripped by AC coupling but consuming ADC headroom).
  TransmissionOutcome transmit(std::span<const ServingTx> servers,
                               const phy::MacFrame& frame, Rng& rng,
                               std::span<const InterfererGroup> interferers = {},
                               double ambient_optical_w = 0.0) const;

  /// On-air duration of a frame [s] (chips / chip rate), excluding guards.
  double frame_airtime_s(const phy::MacFrame& frame) const;

  // --- Batch transmission path ------------------------------------------

  /// One lane of transmit_batch: the arguments of one transmit() call.
  /// Referenced spans/frames must stay alive for the call.
  struct TransmitJob {
    std::span<const ServingTx> servers;
    const phy::MacFrame* frame = nullptr;
    std::span<const InterfererGroup> interferers;
    double ambient_optical_w = 0.0;
  };

  /// One TX stream of the optical render: its first chip's timeline
  /// sample, its chips in RenderScratch::chips (none when its frame lies
  /// wholly off the timeline, so it is idle on all of it), and the
  /// optical power it adds while idle and per HIGH / LOW chip.
  struct RenderStream {
    std::ptrdiff_t start = 0;
    std::size_t chip_at = 0;
    std::size_t chip_count = 0;
    double idle = 0.0;
    double high = 0.0;
    double low = 0.0;
  };

  /// Render staging: every participating frame's on-air chips, one copy
  /// per frame, and the streams that radiate them, in addition order;
  /// then the phase render's workspace for one block of chip periods.
  struct RenderScratch {
    std::vector<phy::Chip> chips;
    std::vector<phy::Chip> frame_chips;  ///< one frame, before appending
    std::vector<std::uint8_t> wire;      ///< that frame's serialized bytes
    std::vector<RenderStream> streams;
    std::vector<std::ptrdiff_t> offsets;  ///< segment starts in a period
    std::vector<double> levels;  ///< per stream, one level per period
    std::vector<const double*> segment_rows;  ///< per segment and stream
    std::vector<double> sums;    ///< per segment, one sum per period
  };

  /// Chip periods per render block: each stream's level row for a block
  /// is built once and every segment sums across the rows, so the rows
  /// of the Fig. 7 scene's 22 streams stay in L1.
  static constexpr std::size_t kRenderBlockPeriods = 128;

  /// Batch workspace: per-lane waveforms, render staging, the noise
  /// streams forked for the lanes, the lanes' front-ends (restarted on
  /// those streams each call), and the front-end and demodulator batch
  /// scratch. Reuse across slots; after the first call with a given lane
  /// count, a call allocates nothing.
  struct TransmitBatchScratch {
    RenderScratch render;
    std::vector<Rng> noise;
    std::vector<dsp::Waveform> optical;
    std::vector<dsp::Waveform> rx;
    std::vector<std::size_t> active;
    std::vector<phy::ReceiverFrontEnd> fes;
    std::vector<phy::ReceiverFrontEnd*> fe_ptrs;
    std::vector<const dsp::Waveform*> optical_ptrs;
    std::vector<dsp::Waveform*> rx_ptrs;
    std::vector<std::span<const double>> signals;
    std::vector<phy::OokDemodulator::RxResult> results;
    std::vector<std::uint8_t> ok;
    phy::ReceiverFrontEnd::BatchScratch fe_scratch;
    phy::OokDemodulator::BatchRxScratch rx_scratch;
  };

  /// Transmits every job and fills outcomes[i] exactly as the equivalent
  /// sequence of one-lane calls would — bit-identical outcomes and Rng
  /// stream: one noise substream forks from `rng` per lane in job order,
  /// skipping lanes with no servers (their outcome stays the default),
  /// and rendering draws nothing. The receive side runs the batch
  /// front-end and demodulator paths.
  void transmit_batch(std::span<const TransmitJob> jobs, Rng& rng,
                      std::span<TransmissionOutcome> outcomes,
                      TransmitBatchScratch& scratch) const;

  /// transmit_batch on given noise streams: lane i's front end draws its
  /// noise from a copy of noise[i], where the overload above forks lane
  /// i's stream from `rng`. Lanes with no servers ignore theirs. The
  /// overload above is this one on the streams it forks.
  void transmit_batch(std::span<const TransmitJob> jobs,
                      std::span<const Rng> noise,
                      std::span<TransmissionOutcome> outcomes,
                      TransmitBatchScratch& scratch) const;

 private:
  void render_optical_into(std::span<const ServingTx> servers,
                           const phy::MacFrame& frame,
                           std::span<const InterfererGroup> interferers,
                           double ambient_optical_w, dsp::Waveform& optical,
                           RenderScratch& scratch) const;

  optics::LedModel led_;
  phy::OokParams ook_;
  phy::FrontEndConfig frontend_;
};

}  // namespace densevlc::core
