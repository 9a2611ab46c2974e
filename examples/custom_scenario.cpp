// Custom scenario runner: describe a deployment in an INI file and
// evaluate it without recompiling.
//
//   $ ./custom_scenario myroom.ini
//
// The file is a scenario spec (docs/scenarios.md, "Spec schema"), read
// and compiled by the same scenario::load_spec_file + compile that the
// campaign runner uses. Every key is optional except the receivers;
// defaults are the paper's testbed:
//
//   [room]    width, depth, height          (meters)
//   [grid]    rows, cols, pitch, mount_height
//   [led]     bias_ma, max_swing_ma, half_angle_deg
//   [system]  kappa, power_budget_w, bandwidth_mhz
//   [rx]      count, and then x1,y1 .. x<count>,y<count>
//
// A malformed file prints the spec's typed errors and exits 1. With no
// argument, a documented sample file is written to ./sample_scenario.ini
// and evaluated.
#include <fstream>
#include <iostream>
#include <string>

#include "alloc/assignment.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/testbed.hpp"
#include "illum/illuminance_map.hpp"
#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace {

constexpr const char* kSample = R"(; DenseVLC custom scenario (values = paper defaults)
[room]
width = 3.0
depth = 3.0
height = 2.8

[grid]
rows = 6
cols = 6
pitch = 0.5
mount_height = 2.8

[led]
bias_ma = 450
max_swing_ma = 900
half_angle_deg = 15

[system]
kappa = 1.3
power_budget_w = 1.2
bandwidth_mhz = 1.0

[rx]
count = 4
x1 = 0.92
y1 = 0.92
x2 = 1.65
y2 = 0.65
x3 = 0.72
y3 = 1.93
x4 = 1.99
y4 = 1.69
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace densevlc;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "sample_scenario.ini";
    std::ofstream out{path};
    out << kSample;
    std::cout << "(no scenario given; wrote and using " << path << ")\n\n";
  }

  const auto parsed = scenario::load_spec_file(path);
  if (!parsed.ok()) {
    std::cerr << "scenario file problems:\n" << parsed.error_text();
    return 1;
  }
  const scenario::CompiledScenario compiled = scenario::compile(*parsed.spec);
  const core::Testbed& tb = compiled.system.testbed;
  const auto rx_xy =
      scenario::instance_rx_positions(compiled, parsed.spec->seed);
  const double kappa = compiled.kappa;
  const double budget_w = compiled.power_budget_w;

  std::cout << "Scenario: " << tb.room.width << " x " << tb.room.depth
            << " m room, " << tb.grid.count() << " TXs, " << rx_xy.size()
            << " RXs, kappa " << kappa << ", budget " << budget_w
            << " W\n\n";

  // Illumination report.
  const illum::IlluminanceMap map{tb.room,     tb.tx_poses(), tb.emitter,
                                  tb.led,      Meters{0.8},   41,
                                  kWhiteLedEfficacy};
  const auto aoi = map.area_of_interest_stats(
      Meters{std::min(tb.room.width, tb.room.depth) - 0.8});
  std::cout << "Illumination: " << fmt(aoi.average_lux, 0)
            << " lux avg, uniformity " << fmt(aoi.uniformity, 2) << " — ISO "
            << (aoi.average_lux >= 500.0 && aoi.uniformity >= 0.70
                    ? "PASS"
                    : "FAIL")
            << "\n\n";

  // Allocation + throughput report.
  const auto h = tb.channel_for(rx_xy);
  const auto res = alloc::heuristic_allocate(h, kappa, Watts{budget_w},
                                             tb.budget, compiled.alloc_options);
  const auto tput = channel::throughput_bps(h, res.allocation, tb.budget);

  TablePrinter table{{"RX", "position", "throughput [Mbit/s]",
                      "serving TXs"}};
  double total = 0.0;
  for (std::size_t k = 0; k < rx_xy.size(); ++k) {
    std::size_t servers = 0;
    for (std::size_t j = 0; j < h.num_tx(); ++j) {
      servers += res.allocation.swing(j, k) > 0.0 ? 1 : 0;
    }
    table.add_row({"RX" + std::to_string(k + 1),
                   "(" + fmt(rx_xy[k].x, 2) + ", " + fmt(rx_xy[k].y, 2) +
                       ")",
                   fmt(tput[k] / 1e6, 2), std::to_string(servers)});
    total += tput[k];
  }
  table.print(std::cout);
  std::cout << "\nSystem throughput " << fmt(total / 1e6, 2)
            << " Mbit/s with " << res.txs_assigned << " TXs at "
            << fmt(res.power_used_w, 3) << " W\n";
  return 0;
}
