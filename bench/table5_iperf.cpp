// Reproduces paper Table 5: iperf-style goodput and packet error rate for
// one RX placed at the center of TX2/TX3/TX8/TX9, under three scenarios:
//   1. 2 TXs (TX2+TX8, same BBB — inherently aligned): ~33.9 Kbit/s,
//      PER 0.19%;
//   2. 4 TXs without synchronization (TX3+TX9 hang off another BBB whose
//      multicast delivery skews by tens of microseconds): 0 Kbit/s,
//      PER 100%;
//   3. 4 TXs with the NLOS VLC synchronization: ~33.8 Kbit/s, PER 0.55%.
// Every frame is rendered, superimposed, filtered, digitized and decoded.
#include <iostream>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/beamspot.hpp"
#include "core/testbed.hpp"
#include "sync/nlos_sync.hpp"
#include "sync/timesync.hpp"

namespace {

using namespace densevlc;

struct ScenarioResult {
  double goodput_kbps = 0.0;
  double per_percent = 0.0;
};

ScenarioResult run_scenario(const core::Testbed& tb,
                            const std::vector<std::size_t>& txs,
                            bool second_bbb_synced, bool second_bbb_used,
                            const std::vector<double>& nlos_errors,
                            std::size_t frames, Rng& rng) {
  core::JointTransmission jt{tb.led, phy::OokParams{},
                             phy::FrontEndConfig{}};
  const auto h = tb.channel_for({{1.0, 0.5, 0.0}});
  const sync::TimeSyncConfig ts;

  phy::MacFrame frame;
  frame.dst = 0;
  frame.src = 0xC0;
  frame.payload.resize(100);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const double airtime = jt.frame_airtime_s(frame);
  const double mac_gap_s = 3e-3;  // guard + multicast + ACK turnaround

  std::size_t delivered = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    // BBB A (TX2, TX8) anchors the timeline; BBB B (TX3, TX9) is offset
    // per the scenario.
    double bbb_b_offset = 0.0;
    if (second_bbb_used && !second_bbb_synced) {
      bbb_b_offset = sync::streaming_start_offset_s(ts, rng);
    } else if (second_bbb_used && second_bbb_synced) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nlos_errors.size()) - 1));
      bbb_b_offset = nlos_errors[idx];
    }

    std::vector<core::ServingTx> servers;
    for (std::size_t tx : txs) {
      const bool on_bbb_a = tx == 1 || tx == 7;  // TX2, TX8
      servers.push_back(
          {tx, h.gain(tx, 0), 0.9, on_bbb_a ? 0.0 : bbb_b_offset});
    }
    delivered += jt.transmit(servers, frame, rng).delivered ? 1 : 0;
  }

  ScenarioResult out;
  const double elapsed =
      static_cast<double>(frames) * (airtime + mac_gap_s);
  out.goodput_kbps = static_cast<double>(delivered) *
                     static_cast<double>(frame.payload.size()) * 8.0 /
                     elapsed / 1e3;
  out.per_percent = 100.0 * (1.0 - static_cast<double>(delivered) /
                                       static_cast<double>(frames));
  return out;
}

}  // namespace

int main() {
  const auto tb = core::make_experimental_testbed();
  Rng rng{0x7AB'5};

  // Characterize the NLOS sync error for TX2 leading TX3 once.
  sync::NlosSyncConfig nc;
  nc.leader_pose = geom::ceiling_pose(0.75, 0.25, 2.0);
  nc.follower_pose = geom::ceiling_pose(1.25, 0.25, 2.0);
  sync::NlosSynchronizer nlos{nc};
  std::vector<double> nlos_errors;
  for (int t = 0; t < 40; ++t) {
    const auto d = nlos.simulate_once(rng);
    if (d.detected && d.id_matches) nlos_errors.push_back(d.start_error_s);
  }
  if (nlos_errors.empty()) nlos_errors.push_back(1e-6);

  const std::size_t frames = 80;
  std::cout << "Table 5 - iperf over the waveform data path (" << frames
            << " frames per scenario, 100 B payload, 100 Kchip/s)\n\n";

  const auto two_tx = run_scenario(tb, {1, 7}, false, false, nlos_errors,
                                   frames, rng);
  const auto four_nosync = run_scenario(tb, {1, 2, 7, 8}, false, true,
                                        nlos_errors, frames, rng);
  const auto four_sync = run_scenario(tb, {1, 2, 7, 8}, true, true,
                                      nlos_errors, frames, rng);

  TablePrinter table{{"scenario", "paper tput [Kbit/s]", "paper PER [%]",
                      "measured tput [Kbit/s]", "measured PER [%]"}};
  table.add_row({"2 TXs (same BBB)", "33.9", "0.19",
                 fmt(two_tx.goodput_kbps, 1), fmt(two_tx.per_percent, 2)});
  table.add_row({"4 TXs (no sync)", "0", "100",
                 fmt(four_nosync.goodput_kbps, 1),
                 fmt(four_nosync.per_percent, 2)});
  table.add_row({"4 TXs (NLOS VLC sync)", "33.8", "0.55",
                 fmt(four_sync.goodput_kbps, 1),
                 fmt(four_sync.per_percent, 2)});
  table.print(std::cout);
  table.print_csv(std::cout, "table5");

  const bool shape = four_nosync.per_percent > 90.0 &&
                     two_tx.per_percent < 5.0 &&
                     four_sync.per_percent < 5.0 &&
                     four_sync.goodput_kbps > 0.9 * two_tx.goodput_kbps;
  std::cout << "\nShape " << (shape ? "reproduced" : "MISMATCH")
            << ": sync restores the 4-TX beamspot to 2-TX goodput while "
               "no-sync loses every frame.\n";
  return 0;
}
