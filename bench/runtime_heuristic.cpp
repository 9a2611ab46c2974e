// Reproduces the paper's Sec. 5 complexity claim: solving the swing
// optimization takes 165 s in Matlab while the ranking heuristic takes
// 0.07 s — a 99.96% reduction. Our C++ projected-gradient solver is much
// faster than fmincon, but the *relative* gap between the optimal solver
// and the heuristic is the reproducible quantity. Built on
// google-benchmark; run with --benchmark_min_time=... to tighten.
#include <benchmark/benchmark.h>

#include <vector>

#include "alloc/assignment.hpp"
#include "alloc/optimal.hpp"
#include "common/rng.hpp"
#include "scenario/scenarios.hpp"

namespace {

using namespace densevlc;

const core::Testbed& testbed() {
  static const core::Testbed tb = core::make_simulation_testbed();
  return tb;
}

const channel::ChannelMatrix& fig7_channel() {
  static const channel::ChannelMatrix h =
      testbed().channel_for(scenario::fig7_rx_positions());
  return h;
}

void BM_OptimalSolver(benchmark::State& state) {
  const auto& tb = testbed();
  const auto& h = fig7_channel();
  alloc::OptimalSolverConfig cfg;
  cfg.max_iterations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::solve_optimal(h, Watts{1.2}, tb.budget, cfg));
  }
}
BENCHMARK(BM_OptimalSolver)->Arg(100)->Arg(250)->Arg(400);

void BM_SjrRanking(benchmark::State& state) {
  const auto& h = fig7_channel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc::rank_transmitters(h, 1.3));
  }
}
BENCHMARK(BM_SjrRanking);

void BM_HeuristicEndToEnd(benchmark::State& state) {
  const auto& tb = testbed();
  const auto& h = fig7_channel();
  alloc::AssignmentOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::heuristic_allocate(h, 1.3, Watts{1.2}, tb.budget, opts));
  }
}
BENCHMARK(BM_HeuristicEndToEnd);

void BM_SinrEvaluation(benchmark::State& state) {
  const auto& tb = testbed();
  const auto& h = fig7_channel();
  alloc::AssignmentOptions opts;
  const auto res = alloc::heuristic_allocate(h, 1.3, Watts{1.2}, tb.budget, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel::sinr(h, res.allocation, tb.budget));
  }
}
BENCHMARK(BM_SinrEvaluation);

// One analytic-sweep instance at the quick campaign's largest point: an
// 8 x 8 grid at 0.375 m pitch and 10 uniformly dropped RXs.
const core::Testbed& grid_testbed() {
  static const core::Testbed tb = [] {
    core::Testbed t = core::make_simulation_testbed();
    t.grid.rows = 8;
    t.grid.cols = 8;
    t.grid.pitch = 0.375;
    return t;
  }();
  return tb;
}

const std::vector<geom::Vec3>& grid_rx_positions() {
  static const std::vector<geom::Vec3> xy = [] {
    Rng rng{1};
    std::vector<geom::Vec3> out;
    for (int k = 0; k < 10; ++k) {
      const double x = rng.uniform(0.4, 2.6);
      out.push_back({x, rng.uniform(0.4, 2.6), 0.0});
    }
    return out;
  }();
  return xy;
}

void BM_ChannelFor(benchmark::State& state) {
  const auto& tb = grid_testbed();
  const auto& xy = grid_rx_positions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.channel_for(xy));
  }
}
BENCHMARK(BM_ChannelFor);

void BM_AnalyticInstance(benchmark::State& state) {
  const auto& tb = grid_testbed();
  const auto& xy = grid_rx_positions();
  alloc::AssignmentOptions opts;
  for (auto _ : state) {
    const auto h = tb.channel_for(xy);
    const auto res =
        alloc::heuristic_allocate(h, 1.3, Watts{1.2}, tb.budget, opts);
    benchmark::DoNotOptimize(
        channel::throughput_bps(h, res.allocation, tb.budget));
  }
}
BENCHMARK(BM_AnalyticInstance);

}  // namespace

BENCHMARK_MAIN();
