// Death tests for the runtime-contract layer (common/contracts.hpp).
//
// Each test drives a real API into a contract violation and checks that
// the process aborts with the expected message. When contracts are
// compiled out (DENSEVLC_CONTRACTS=OFF) the whole suite is skipped —
// violations are then undefined behavior by design.
#include "common/contracts.hpp"

#include <gtest/gtest.h>

#include "core/trace.hpp"
#include "phy/gf256.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"

namespace densevlc {
namespace {

#if defined(DVLC_NO_CONTRACTS)

TEST(Contracts, CompiledOut) {
  GTEST_SKIP() << "contracts disabled (DVLC_NO_CONTRACTS)";
}

#else

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, TraceRecorderRejectsOutOfRangeRxInMeanThroughput) {
  core::TraceRecorder trace;
  trace.record_epoch(Seconds{0.0}, {1e6, 2e6}, {}, Watts{0.1});
  EXPECT_DEATH(static_cast<void>(trace.mean_throughput(9)),
               "RX index out of range in mean_throughput");
}

TEST(ContractsDeathTest, TraceRecorderRejectsOutOfRangeRxInLeaderChanges) {
  core::TraceRecorder trace;
  trace.record_epoch(Seconds{0.0}, {1e6}, {}, Watts{0.1});
  EXPECT_DEATH(static_cast<void>(trace.leader_changes(3)),
               "RX index out of range in leader_changes");
}

TEST(ContractsDeathTest, TraceRecorderRejectsRxCountChange) {
  core::TraceRecorder trace;
  trace.record_epoch(Seconds{0.0}, {1e6, 2e6}, {}, Watts{0.1});
  EXPECT_DEATH(trace.record_epoch(Seconds{1.0}, {1e6}, {}, Watts{0.1}),
               "RX count changed between epochs");
}

TEST(ContractsDeathTest, TraceRecorderRejectsOutOfRangeBeamspotRx) {
  core::TraceRecorder trace;
  core::Beamspot spot;
  spot.rx = 5;  // only 2 RXs in this epoch
  EXPECT_DEATH(trace.record_epoch(Seconds{0.0}, {1e6, 2e6}, {spot}, Watts{0.1}),
               "beamspot RX index out of range");
}

TEST(ContractsDeathTest, EventQueueRejectsEmptyCallback) {
  Simulator simulator;
  EXPECT_DEATH(simulator.schedule_in(SimTime::from_ms(1), nullptr),
               "scheduled callback must not be empty");
}

TEST(ContractsDeathTest, Gf256RejectsDivisionByZero) {
  EXPECT_DEATH(static_cast<void>(phy::gf256::div(17, 0)),
               "GF\\(256\\) division by zero");
}

TEST(ContractsDeathTest, Gf256RejectsInverseOfZero) {
  EXPECT_DEATH(static_cast<void>(phy::gf256::inverse(0)),
               "GF\\(256\\) inverse of zero");
}

TEST(ContractsDeathTest, RngRejectsEmptyIntRange) {
  Rng rng{1};
  EXPECT_DEATH(static_cast<void>(rng.uniform_int(5, 4)),
               "uniform_int: empty range");
}

TEST(ContractsDeathTest, MessageNamesExpressionAndLocation) {
  // The diagnostic must carry enough context to debug without a core dump:
  // macro kind, failing expression, and file:line.
  EXPECT_DEATH(static_cast<void>(phy::gf256::div(1, 0)),
               "DVLC_EXPECT.*b != 0.*gf256\\.cpp");
}

#endif  // DVLC_NO_CONTRACTS

}  // namespace
}  // namespace densevlc
