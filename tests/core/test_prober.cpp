// Tests for waveform-level channel measurement.
#include "core/prober.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "scenario/compile.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

struct Fixture {
  core::Testbed tb = core::make_simulation_testbed();
  phy::OokParams ook{};
  phy::FrontEndConfig frontend{};
  ChannelProber prober{tb.led, ook, frontend, 0.9};
};

TEST(Prober, RecoversStrongLinkGain) {
  Fixture f;
  Rng rng{1};
  const double h = 8e-7;  // typical best-TX gain in the testbed
  const auto res = f.prober.probe_link(h, rng);
  ASSERT_TRUE(res.detected);
  EXPECT_NEAR(res.gain_estimate, h, h * 0.10);
  EXPECT_GT(res.snr_db, 5.0);
}

TEST(Prober, ZeroGainNotDetected) {
  Fixture f;
  Rng rng{2};
  const auto res = f.prober.probe_link(0.0, rng);
  EXPECT_FALSE(res.detected);
  EXPECT_DOUBLE_EQ(res.gain_estimate, 0.0);
}

TEST(Prober, TinyGainBelowNoiseFloorRejected) {
  Fixture f;
  Rng rng{3};
  const auto res = f.prober.probe_link(1e-12, rng);
  // Either undetected or estimated as essentially zero; never a wild
  // overestimate.
  if (res.detected) {
    EXPECT_LT(res.gain_estimate, 1e-9);
  }
}

TEST(Prober, EstimateScalesLinearlyWithGain) {
  Fixture f;
  Rng rng{4};
  const auto weak = f.prober.probe_link(2e-7, rng);
  const auto strong = f.prober.probe_link(8e-7, rng);
  ASSERT_TRUE(weak.detected);
  ASSERT_TRUE(strong.detected);
  EXPECT_NEAR(strong.gain_estimate / weak.gain_estimate, 4.0, 0.6);
}

TEST(Prober, MatrixMeasurementPreservesOrdering) {
  Fixture f;
  Rng rng{5};
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  const auto measured = f.prober.probe_matrix(truth, rng);
  ASSERT_EQ(measured.num_tx(), truth.num_tx());
  // The strongest TX per RX must survive measurement noise.
  for (std::size_t k = 0; k < truth.num_rx(); ++k) {
    EXPECT_EQ(measured.best_tx_for(k), truth.best_tx_for(k)) << "RX " << k;
  }
}

TEST(Prober, CalibrationConstantPositive) {
  Fixture f;
  EXPECT_GT(f.prober.volts_per_gain(), 0.0);
}

TEST(Prober, IncrementalAllDirtyMatchesFullSweep) {
  Fixture f;
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  Rng rng_full{7};
  Rng rng_inc{7};
  const auto full = f.prober.probe_matrix(truth, rng_full);
  const channel::ChannelMatrix previous{
      truth.num_tx(), truth.num_rx(),
      std::vector<double>(truth.num_tx() * truth.num_rx(), 0.0)};
  const std::vector<bool> all_dirty(truth.num_rx(), true);
  const auto inc =
      f.prober.probe_matrix_incremental(truth, rng_inc, all_dirty, previous);
  for (std::size_t j = 0; j < truth.num_tx(); ++j) {
    for (std::size_t k = 0; k < truth.num_rx(); ++k) {
      EXPECT_EQ(inc.gain(j, k), full.gain(j, k)) << "j=" << j << " k=" << k;
    }
  }
  // Both sweeps must consume exactly one fork of the caller's stream.
  EXPECT_DOUBLE_EQ(rng_full.uniform(), rng_inc.uniform());
}

TEST(Prober, IncrementalCleanColumnsKeepPreviousMeasurement) {
  Fixture f;
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  Rng rng{8};
  const auto previous = f.prober.probe_matrix(truth, rng);
  std::vector<bool> dirty(truth.num_rx(), false);
  dirty[2] = true;
  const auto inc =
      f.prober.probe_matrix_incremental(truth, rng, dirty, previous);
  for (std::size_t j = 0; j < truth.num_tx(); ++j) {
    for (std::size_t k = 0; k < truth.num_rx(); ++k) {
      if (k != 2) {
        // Clean columns: no airtime spent, previous values verbatim.
        EXPECT_EQ(inc.gain(j, k), previous.gain(j, k))
            << "j=" << j << " k=" << k;
      }
    }
  }
  // The re-probed column is a fresh noisy measurement of the same truth:
  // plausible (ordering preserved) but drawn from a different stream.
  EXPECT_EQ(inc.best_tx_for(2), truth.best_tx_for(2));
}

TEST(Prober, IncrementalShapeMismatchFallsBackToFullSweep) {
  Fixture f;
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  Rng rng_full{9};
  Rng rng_inc{9};
  const auto full = f.prober.probe_matrix(truth, rng_full);
  const channel::ChannelMatrix wrong_shape{
      2, 2, std::vector<double>(4, 0.0)};  // stale cache
  const std::vector<bool> none_dirty(truth.num_rx(), false);
  const auto inc = f.prober.probe_matrix_incremental(truth, rng_inc,
                                                     none_dirty, wrong_shape);
  for (std::size_t j = 0; j < truth.num_tx(); ++j) {
    for (std::size_t k = 0; k < truth.num_rx(); ++k) {
      EXPECT_EQ(inc.gain(j, k), full.gain(j, k)) << "j=" << j << " k=" << k;
    }
  }
}

TEST(Prober, SnrDropsWithGain) {
  Fixture f;
  Rng rng{6};
  const auto strong = f.prober.probe_link(8e-7, rng);
  const auto weak = f.prober.probe_link(1e-7, rng);
  ASSERT_TRUE(strong.detected);
  if (weak.detected) {
    EXPECT_GT(strong.snr_db, weak.snr_db);
  }
}

/// A channel of `n` TXs by `m` RXs with every fifth link dark (zero gain)
/// and every seventh negative, interleaved with plausible gains.
channel::ChannelMatrix mixed_channel(std::size_t n, std::size_t m, Rng& rng) {
  std::vector<double> gains(n * m);
  for (std::size_t i = 0; i < gains.size(); ++i) {
    gains[i] = i % 5 == 2   ? 0.0
               : i % 7 == 3 ? -rng.uniform(1e-8, 1e-6)
                            : rng.uniform(1e-8, 1e-6);
  }
  return {n, m, std::move(gains)};
}

TEST(Prober, BatchedSweepMatchesPerLinkProbes) {
  // The quad sweep against one probe_link per link on that link's split()
  // sub-stream, for link counts that leave partial quads, with full and
  // incremental masks.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Fixture f;
  Rng gains_rng{13};
  const std::pair<std::size_t, std::size_t> shapes[] = {{5, 3}, {7, 1},
                                                         {36, 4}};
  for (const auto& [n, m] : shapes) {
    const auto truth = mixed_channel(n, m, gains_rng);
    const channel::ChannelMatrix previous{n, m,
                                          std::vector<double>(n * m, 42.0)};
    std::vector<bool> alternate(m);
    for (std::size_t k = 0; k < m; ++k) alternate[k] = k % 2 == 0;
    for (const bool incremental : {false, true}) {
      Rng rng{n * 100 + m};
      const Rng fork = Rng{rng}.fork();
      const auto measured =
          incremental ? f.prober.probe_matrix_incremental(truth, rng,
                                                          alternate, previous)
                      : f.prober.probe_matrix(truth, rng);
      for (std::size_t idx = 0; idx < n * m; ++idx) {
        const std::size_t j = idx / m;
        const std::size_t k = idx % m;
        double expect = previous.gain(j, k);
        if (!incremental || alternate[k]) {
          Rng link = fork.split(idx);
          expect = f.prober.probe_link(truth.gain(j, k), link).gain_estimate;
        }
        EXPECT_EQ(bits(measured.gain(j, k)), bits(expect))
            << n << "x" << m << (incremental ? " incremental" : " full")
            << " j=" << j << " k=" << k;
      }
    }
  }
}

TEST(Prober, WarmSweepAllocatesOnlyItsResult) {
  Fixture f;
  Rng rng{14};
  const auto warm = mixed_channel(36, 4, rng);
  (void)f.prober.probe_matrix(warm, rng);  // scratch reaches steady state
  const std::pair<std::size_t, std::size_t> shapes[] = {{36, 4}, {5, 3},
                                                         {7, 1}};
  for (const auto& [n, m] : shapes) {
    const auto truth = mixed_channel(n, m, rng);
    const std::vector<bool> dirty(m, true);
    std::uint64_t before = bench::alloc_count();
    const auto full = f.prober.probe_matrix(truth, rng);
    EXPECT_EQ(bench::alloc_count() - before, 1u) << n << "x" << m;
    before = bench::alloc_count();
    const auto inc = f.prober.probe_matrix_incremental(truth, rng, dirty, full);
    EXPECT_EQ(bench::alloc_count() - before, 1u) << n << "x" << m;
  }
}

TEST(Prober, MatrixGainsArePinned) {
  // FNV-1a over the bit patterns of one full sweep of the Fig. 7 channel.
  // Any change to the probe burst, its template or the order of its Rng
  // draws moves it.
  Fixture f;
  const auto truth = f.tb.channel_for(scenario::fig7_rx_positions());
  Rng rng{11};
  const auto measured = f.prober.probe_matrix(truth, rng);
  std::vector<double> gains;
  for (std::size_t j = 0; j < measured.num_tx(); ++j) {
    for (std::size_t k = 0; k < measured.num_rx(); ++k) {
      gains.push_back(measured.gain(j, k));
    }
  }
  EXPECT_EQ(scenario::hash_doubles(gains), 9537709972146468226ULL);
}

}  // namespace
}  // namespace densevlc::core
