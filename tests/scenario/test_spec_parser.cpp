// Scenario spec parser: round-trip identity, typed rejection, fuzz.
//
// The contract under test: parse_spec() either returns a validated spec
// or a list of typed errors naming the offending keys — malformed or
// out-of-range values are never silently defaulted — and
// serialize_spec() is a canonical form, so parse(serialize(s))
// reproduces s exactly. The bad-spec corpus under bad_specs/ pins one
// rejection case per file via `; expect-error: <key>` annotations.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.hpp"

namespace densevlc::scenario {
namespace {

/// Canonical-form equality: serialize -> parse -> serialize fixpoint.
void expect_round_trip(const ScenarioSpec& spec) {
  const std::string text = serialize_spec(spec);
  const SpecParseResult reparsed = parse_spec(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error_text() << "\n" << text;
  EXPECT_EQ(serialize_spec(*reparsed.spec), text);
}

/// The parse must fail, and some error must name `key`.
void expect_rejected(const std::string& text, const std::string& key) {
  const SpecParseResult result = parse_spec(text);
  ASSERT_FALSE(result.ok()) << "accepted despite bad " << key;
  bool found = false;
  for (const SpecError& e : result.errors) found = found || e.key == key;
  EXPECT_TRUE(found) << "no error names '" << key << "'; got:\n"
                     << result.error_text();
}

/// A minimal valid scenario to mutate in rejection tests.
std::string valid_text(const std::string& extra = {}) {
  return "[scenario]\nname = t\nkind = analytic\n"
         "[rx]\nplacement = uniform\ncount = 2\nmargin = 0.4\n" +
         extra;
}

TEST(SpecParser, SampleScenarioDefaultsRoundTrip) {
  ScenarioSpec spec = spec_defaults(TestbedKind::kSimulation);
  spec.rx_count = 4;
  spec.rx_fixed = {{0.92, 0.92, 0.0},
                   {1.65, 0.65, 0.0},
                   {0.72, 1.93, 0.0},
                   {1.99, 1.69, 0.0}};
  expect_round_trip(spec);
}

/// Every section populated, every value off its default.
ScenarioSpec kitchen_sink_spec() {
  ScenarioSpec spec = spec_defaults(TestbedKind::kExperimental);
  spec.name = "kitchen-sink";
  spec.kind = EvalKind::kSoak;
  spec.seed = 0xDEADBEEF;
  spec.epochs = 17;
  spec.kappa = 2.25;
  spec.power_budget_w = 0.8;
  spec.bandwidth_mhz = 2.5;
  spec.room_width_m = 4.5;
  spec.room_depth_m = 3.25;
  spec.room_height_m = 3.0;
  spec.grid_rows = 5;
  spec.grid_cols = 7;
  spec.grid_pitch_m = 0.4375;
  spec.grid_mount_height_m = 2.5;
  spec.led_bias_ma = 387.5;
  spec.led_max_swing_ma = 775.0;
  spec.led_half_angle_deg = 22.5;
  spec.placement = RxPlacement::kUniform;
  spec.rx_count = 3;
  spec.rx_height_m = 0.75;
  spec.rx_margin_m = 0.5;
  spec.dimming_enabled = true;
  spec.target_lux = 425.0;
  spec.leds_per_tx = 2;
  spec.blockers = {{1.0, 1.5, 0.25, 1.7}, {2.0, 2.0, 0.3, 1.8}};
  spec.faults_enabled = true;
  spec.led_fail_fraction = 0.125;
  spec.fault_time_s = 4.5;
  spec.fault_seed = 0xFA17;
  return spec;
}

TEST(SpecParser, AllSectionsRoundTrip) {
  expect_round_trip(kitchen_sink_spec());
}

TEST(SpecParser, SerializedLayoutIsPinned) {
  // The exact canonical text: section order, key order, and one
  // spelling per value (hex seeds, shortest round-trip doubles).
  EXPECT_EQ(serialize_spec(kitchen_sink_spec()),
            "[scenario]\n"
            "name = kitchen-sink\n"
            "kind = soak\n"
            "seed = 0xdeadbeef\n"
            "epochs = 17\n"
            "\n[system]\n"
            "testbed = experimental\n"
            "kappa = 2.25\n"
            "power_budget_w = 0.8\n"
            "bandwidth_mhz = 2.5\n"
            "\n[room]\n"
            "width = 4.5\n"
            "depth = 3.25\n"
            "height = 3\n"
            "\n[grid]\n"
            "rows = 5\n"
            "cols = 7\n"
            "pitch = 0.4375\n"
            "mount_height = 2.5\n"
            "\n[led]\n"
            "bias_ma = 387.5\n"
            "max_swing_ma = 775\n"
            "half_angle_deg = 22.5\n"
            "\n[rx]\n"
            "placement = uniform\n"
            "count = 3\n"
            "height = 0.75\n"
            "margin = 0.5\n"
            "\n[illum]\n"
            "target_lux = 425\n"
            "leds_per_tx = 2\n"
            "\n[blockage]\n"
            "x1 = 1\n"
            "y1 = 1.5\n"
            "radius1 = 0.25\n"
            "height1 = 1.7\n"
            "x2 = 2\n"
            "y2 = 2\n"
            "radius2 = 0.3\n"
            "height2 = 1.8\n"
            "\n[faults]\n"
            "led_fail_fraction = 0.125\n"
            "time_s = 4.5\n"
            "seed = 0xfa17\n");

  // Fixed receivers follow the [rx] scalars, x before y per receiver.
  ScenarioSpec fixed = spec_defaults(TestbedKind::kSimulation);
  fixed.rx_count = 2;
  fixed.rx_fixed = {{0.92, 0.5, 0.0}, {1.65, 2.0, 0.0}};
  const std::string text = serialize_spec(fixed);
  EXPECT_NE(text.find("\n[rx]\nplacement = fixed\ncount = 2\nheight = 0.8\n"
                      "margin = 0.4\nx1 = 0.92\ny1 = 0.5\nx2 = 1.65\n"
                      "y2 = 2\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("[illum]"), std::string::npos) << text;
  EXPECT_EQ(text.find("[blockage]"), std::string::npos) << text;
  EXPECT_EQ(text.find("[faults]"), std::string::npos) << text;
}

TEST(SpecParser, FuzzRandomSpecsRoundTrip) {
  Rng rng{0x5EED50 + 7};  // arbitrary fixed seed
  for (int iter = 0; iter < 200; ++iter) {
    ScenarioSpec spec = spec_defaults(rng.uniform(0.0, 1.0) < 0.5
                                          ? TestbedKind::kSimulation
                                          : TestbedKind::kExperimental);
    spec.name = "fuzz" + std::to_string(iter);
    spec.kind = rng.uniform(0.0, 1.0) < 0.5 ? EvalKind::kAnalytic
                                            : EvalKind::kSoak;
    spec.seed = static_cast<std::uint64_t>(rng.uniform(0.0, 1e18));
    spec.epochs = 1 + static_cast<std::size_t>(rng.uniform(0.0, 99.0));
    spec.kappa = rng.uniform(0.1, 5.0);
    spec.power_budget_w = rng.uniform(0.1, 3.0);
    spec.bandwidth_mhz = rng.uniform(0.5, 10.0);
    spec.room_width_m = rng.uniform(2.0, 8.0);
    spec.room_depth_m = rng.uniform(2.0, 8.0);
    spec.room_height_m = rng.uniform(2.5, 4.0);
    spec.grid_rows = 1 + static_cast<std::size_t>(rng.uniform(0.0, 7.0));
    spec.grid_cols = 1 + static_cast<std::size_t>(rng.uniform(0.0, 7.0));
    // Pitch small enough for any grid in the smallest room dimension.
    spec.grid_pitch_m = rng.uniform(0.05, 2.0 / 8.0);
    spec.grid_mount_height_m = rng.uniform(1.8, spec.room_height_m);
    spec.led_bias_ma = rng.uniform(100.0, 700.0);
    spec.led_max_swing_ma = rng.uniform(100.0, 1400.0);
    spec.led_half_angle_deg = rng.uniform(5.0, 90.0);
    spec.placement = RxPlacement::kUniform;
    spec.rx_count = 1 + static_cast<std::size_t>(rng.uniform(0.0, 7.0));
    spec.rx_height_m = rng.uniform(0.0, spec.grid_mount_height_m - 0.1);
    spec.rx_margin_m = rng.uniform(0.0, 0.9);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      spec.dimming_enabled = true;
      spec.target_lux = rng.uniform(50.0, 900.0);
      spec.leds_per_tx = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
    }
    if (rng.uniform(0.0, 1.0) < 0.3) {
      spec.blockers.push_back({rng.uniform(0.0, spec.room_width_m),
                               rng.uniform(0.0, spec.room_depth_m),
                               rng.uniform(0.05, 0.5),
                               rng.uniform(0.5, 2.0)});
    }
    if (spec.kind == EvalKind::kSoak && rng.uniform(0.0, 1.0) < 0.3) {
      spec.faults_enabled = true;
      spec.led_fail_fraction = rng.uniform(0.0, 1.0);
      spec.fault_time_s = rng.uniform(0.0, 20.0);
      spec.fault_seed = static_cast<std::uint64_t>(rng.uniform(0.0, 1e18));
    }
    ASSERT_TRUE(validate_spec(spec).empty());
    expect_round_trip(spec);
  }
}

TEST(SpecParser, RejectsUnknownKey) {
  expect_rejected(valid_text("[grid]\nrowz = 6\n"), "grid.rowz");
}

TEST(SpecParser, RejectsMalformedNumberInsteadOfDefaulting) {
  expect_rejected(valid_text("[grid]\npitch = fast\n"), "grid.pitch");
  expect_rejected(valid_text("[led]\nbias_ma = 45O\n"), "led.bias_ma");
  expect_rejected(valid_text("[system]\nkappa = \n"), "system.kappa");
}

TEST(SpecParser, CountsAndSeedsAreDecimalOrHex) {
  EXPECT_EQ(parse_u64("10"), 10u);
  EXPECT_EQ(parse_u64("010"), 10u);  // a leading zero is not octal
  EXPECT_EQ(parse_u64("0x10"), 16u);
  EXPECT_EQ(parse_u64("0xDE45"), 0xDE45u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x", "0x-1", "0x+1",
                          "1e3", "18446744073709551616",
                          "0x10000000000000000"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SpecParser, RejectsOutOfRangeValues) {
  expect_rejected(valid_text("[grid]\nrows = 0\n"), "grid.rows");
  expect_rejected(valid_text("[grid]\nrows = 65\n"), "grid.rows");
  expect_rejected(valid_text("[led]\nhalf_angle_deg = 120\n"),
                  "led.half_angle_deg");
  expect_rejected(valid_text("[scenario]\nepochs = 0\n"), "scenario.epochs");
  expect_rejected(valid_text("[faults]\nled_fail_fraction = 1.5\n"),
                  "faults.led_fail_fraction");
}

TEST(SpecParser, RejectsMalformedEnum) {
  expect_rejected(valid_text("[scenario]\nkind = quantum\n"),
                  "scenario.kind");
  expect_rejected(valid_text("[system]\ntestbed = lab\n"), "system.testbed");
  expect_rejected(valid_text("[rx]\nplacement = grid\n"), "rx.placement");
}

TEST(SpecParser, CrossFieldValidation) {
  // Fixed placement with a coordinate-count mismatch.
  expect_rejected(
      "[scenario]\nname = t\n[rx]\nplacement = fixed\ncount = 2\n"
      "x1 = 1.0\ny1 = 1.0\n",
      "rx.count");
  // Receiver outside the room.
  expect_rejected(
      "[scenario]\nname = t\n[rx]\nplacement = fixed\ncount = 1\n"
      "x1 = 9.0\ny1 = 1.0\n",
      "rx.x1");
  // Uniform placement must not list coordinates.
  expect_rejected(valid_text("[rx]\nx1 = 1.0\ny1 = 1.0\n"), "rx.x1");
  // Margin eats the whole floor.
  expect_rejected(valid_text("[rx]\nmargin = 1.5\n"), "rx.margin");
  // Luminaires above the ceiling.
  expect_rejected(valid_text("[grid]\nmount_height = 3.5\n"),
                  "grid.mount_height");
  // Grid footprint wider than the room.
  expect_rejected(valid_text("[grid]\npitch = 0.7\n"), "grid.pitch");
  // Faults demand a soak.
  expect_rejected(valid_text("[faults]\nled_fail_fraction = 0.1\n"),
                  "faults.led_fail_fraction");
  // Receivers at/above the luminaire plane.
  expect_rejected(valid_text("[rx]\nheight = 2.8\n"), "rx.height");
}

TEST(SpecParser, MissingReceiverCountIsAnError) {
  expect_rejected("[scenario]\nname = t\n", "rx.count");
}

TEST(SpecParser, TestbedRebasesDefaultsRegardlessOfKeyOrder) {
  // system.testbed appears *after* [grid] in map order; the parser must
  // still re-base the defaults before applying any key.
  const auto result = parse_spec(
      "[system]\ntestbed = experimental\n" + valid_text());
  ASSERT_TRUE(result.ok()) << result.error_text();
  EXPECT_DOUBLE_EQ(result.spec->grid_mount_height_m, 2.0);
  EXPECT_DOUBLE_EQ(result.spec->rx_height_m, 0.0);
}

TEST(SpecParser, ApplyOverrideRejectsUnknownAndMalformed) {
  ScenarioSpec spec = spec_defaults(TestbedKind::kSimulation);
  EXPECT_TRUE(apply_override(spec, "grid.rowz", "6").has_value());
  EXPECT_TRUE(apply_override(spec, "grid.rows", "six").has_value());
  EXPECT_FALSE(apply_override(spec, "grid.rows", "6").has_value());
  EXPECT_EQ(spec.grid_rows, 6u);
}

TEST(SpecParser, ErrorsCarryTheOffendingKey) {
  const auto result = parse_spec(valid_text("[grid]\nrows = 0\npitch = x\n"));
  ASSERT_FALSE(result.ok());
  EXPECT_GE(result.errors.size(), 2u);
  for (const SpecError& e : result.errors) {
    EXPECT_FALSE(e.key.empty());
    EXPECT_FALSE(e.message.empty());
  }
}

TEST(SpecParser, BadSpecCorpusRejectsWithAnnotatedKey) {
  namespace fs = std::filesystem;
  const fs::path dir{DVLC_BAD_SPEC_DIR};
  ASSERT_TRUE(fs::exists(dir)) << dir;
  std::size_t cases = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    ++cases;
    std::ifstream in{entry.path()};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // First line: "; expect-error: <key>".
    const std::string marker = "; expect-error:";
    ASSERT_EQ(text.rfind(marker, 0), 0u)
        << entry.path() << " lacks an expect-error annotation";
    const auto eol = text.find('\n');
    std::string key = text.substr(marker.size(), eol - marker.size());
    key.erase(0, key.find_first_not_of(' '));
    SCOPED_TRACE(entry.path().filename().string());
    expect_rejected(text, key);
  }
  EXPECT_GE(cases, 8u) << "bad-spec corpus went missing";
}

TEST(SpecParser, EveryScalarKeyRejectionIsPinned) {
  // A malformed and an out-of-range value for every scalar key, with
  // the exact message; a rejected value leaves the spec untouched.
  struct Case {
    const char* key;
    const char* value;
    const char* error;
  };
  const Case cases[] = {
      {"scenario.name", "", "scenario.name: scenario name must not be empty"},
      {"scenario.kind", "quantum",
       "scenario.kind: expected 'analytic' or 'soak' (got 'quantum')"},
      {"scenario.seed", "-1",
       "scenario.seed: expected an unsigned integer seed"},
      {"scenario.epochs", "ten",
       "scenario.epochs: expected an unsigned integer (got 'ten')"},
      {"scenario.epochs", "0",
       "scenario.epochs: expected an epoch count in [1, 100000]"},
      {"scenario.epochs", "100001",
       "scenario.epochs: expected an epoch count in [1, 100000]"},
      {"system.testbed", "lab",
       "system.testbed: expected 'simulation' or 'experimental' (got 'lab')"},
      {"system.kappa", "1.3x", "system.kappa: expected a number (got '1.3x')"},
      {"system.kappa", "0", "system.kappa: kappa must be a positive number"},
      {"system.power_budget_w", "w",
       "system.power_budget_w: expected a number (got 'w')"},
      {"system.power_budget_w", "-1",
       "system.power_budget_w: power budget must be a positive number of "
       "watts"},
      {"system.bandwidth_mhz", "inf",
       "system.bandwidth_mhz: expected a number (got 'inf')"},
      {"system.bandwidth_mhz", "0",
       "system.bandwidth_mhz: bandwidth must be a positive number of MHz"},
      {"room.width", "wide", "room.width: expected a number (got 'wide')"},
      {"room.width", "0",
       "room.width: room dimensions must be in (0, 1000] meters"},
      {"room.depth", "nan", "room.depth: expected a number (got 'nan')"},
      {"room.depth", "1000.5",
       "room.depth: room dimensions must be in (0, 1000] meters"},
      {"room.height", "", "room.height: expected a number (got '')"},
      {"room.height", "-2.8",
       "room.height: room dimensions must be in (0, 1000] meters"},
      {"grid.rows", "six",
       "grid.rows: expected an unsigned integer (got 'six')"},
      {"grid.rows", "65", "grid.rows: grid dimensions must be in [1, 64]"},
      {"grid.cols", "4.0",
       "grid.cols: expected an unsigned integer (got '4.0')"},
      {"grid.cols", "0", "grid.cols: grid dimensions must be in [1, 64]"},
      {"grid.pitch", "fast", "grid.pitch: expected a number (got 'fast')"},
      {"grid.pitch", "0", "grid.pitch: grid pitch must be positive"},
      {"grid.mount_height", "high",
       "grid.mount_height: expected a number (got 'high')"},
      {"grid.mount_height", "-0",
       "grid.mount_height: mount height must be a positive number of "
       "meters"},
      {"led.bias_ma", "45O", "led.bias_ma: expected a number (got '45O')"},
      {"led.bias_ma", "0", "led.bias_ma: LED bias must be positive mA"},
      {"led.max_swing_ma", "1e",
       "led.max_swing_ma: expected a number (got '1e')"},
      {"led.max_swing_ma", "-900",
       "led.max_swing_ma: max swing must be positive mA"},
      {"led.half_angle_deg", "15deg",
       "led.half_angle_deg: expected a number (got '15deg')"},
      {"led.half_angle_deg", "0",
       "led.half_angle_deg: half angle must be in (0, 90] degrees"},
      {"led.half_angle_deg", "90.5",
       "led.half_angle_deg: half angle must be in (0, 90] degrees"},
      {"rx.placement", "grid",
       "rx.placement: expected 'fixed' or 'uniform' (got 'grid')"},
      {"rx.count", "-3", "rx.count: expected an unsigned integer (got '-3')"},
      {"rx.count", "65", "rx.count: receiver count must be in [1, 64]"},
      {"rx.height", "low", "rx.height: expected a number (got 'low')"},
      {"rx.height", "-0.1", "rx.height: rx height must be >= 0 meters"},
      {"rx.margin", "m", "rx.margin: expected a number (got 'm')"},
      {"rx.margin", "-0.4", "rx.margin: rx margin must be >= 0 meters"},
      {"illum.target_lux", "bright",
       "illum.target_lux: expected a number (got 'bright')"},
      {"illum.target_lux", "0", "illum.target_lux: target must be positive lux"},
      {"illum.leds_per_tx", "0x",
       "illum.leds_per_tx: expected an unsigned integer (got '0x')"},
      {"illum.leds_per_tx", "101",
       "illum.leds_per_tx: LEDs per TX must be in [1, 100]"},
      {"faults.led_fail_fraction", "10%",
       "faults.led_fail_fraction: expected a number (got '10%')"},
      {"faults.led_fail_fraction", "-0.1",
       "faults.led_fail_fraction: LED fail fraction must be in [0, 1]"},
      {"faults.led_fail_fraction", "1.5",
       "faults.led_fail_fraction: LED fail fraction must be in [0, 1]"},
      {"faults.time_s", "soon", "faults.time_s: expected a number (got 'soon')"},
      {"faults.time_s", "-1", "faults.time_s: fault time must be >= 0 seconds"},
      {"faults.seed", "0xG", "faults.seed: expected an unsigned integer seed"},
  };
  const ScenarioSpec defaults = spec_defaults(TestbedKind::kSimulation);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{c.key} + " = '" + c.value + "'");
    ScenarioSpec spec = defaults;
    const auto error = apply_override(spec, c.key, c.value);
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->to_string(), c.error);
    EXPECT_EQ(serialize_spec(spec), serialize_spec(defaults));
  }

  // The closed ends of each range are accepted.
  const std::pair<const char*, const char*> edges[] = {
      {"scenario.seed", "18446744073709551615"},
      {"scenario.epochs", "1"},
      {"scenario.epochs", "100000"},
      {"room.width", "1000"},
      {"grid.rows", "1"},
      {"grid.cols", "64"},
      {"led.half_angle_deg", "90"},
      {"rx.count", "64"},
      {"rx.height", "0"},
      {"rx.margin", "0"},
      {"illum.leds_per_tx", "100"},
      {"faults.led_fail_fraction", "0"},
      {"faults.led_fail_fraction", "1"},
      {"faults.time_s", "0"},
      {"faults.seed", "0"},
  };
  for (const auto& [key, value] : edges) {
    ScenarioSpec spec = defaults;
    EXPECT_FALSE(apply_override(spec, key, value).has_value())
        << key << " = " << value;
  }
}

TEST(SpecParser, UnparsedNumberIsNotARangeError) {
  // A numeric value that does not parse says so; one that parses but
  // falls outside the key's range keeps the range message.
  const std::string dir = DVLC_BAD_SPEC_DIR;
  const SpecParseResult malformed =
      load_spec_file(dir + "/malformed_number.ini");
  ASSERT_EQ(malformed.errors.size(), 1u) << malformed.error_text();
  EXPECT_EQ(malformed.errors[0].to_string(),
            "grid.pitch: expected a number (got 'fast')");
  const SpecParseResult zero_rows = load_spec_file(dir + "/zero_grid_rows.ini");
  ASSERT_EQ(zero_rows.errors.size(), 1u) << zero_rows.error_text();
  EXPECT_EQ(zero_rows.errors[0].to_string(),
            "grid.rows: grid dimensions must be in [1, 64]");
  const SpecParseResult signed_rows =
      parse_spec(valid_text("[grid]\nrows = -3\n"));
  ASSERT_EQ(signed_rows.errors.size(), 1u) << signed_rows.error_text();
  EXPECT_EQ(signed_rows.errors[0].to_string(),
            "grid.rows: expected an unsigned integer (got '-3')");
}

TEST(SpecParser, LoadSpecFileMissingPathIsTypedError) {
  const std::string path = "/nonexistent_dvlc_dir/missing_scenario.ini";
  const SpecParseResult result = load_spec_file(path);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  // The error must carry the offending path, not a generic message.
  EXPECT_EQ(result.errors[0].key, path);
  EXPECT_NE(result.errors[0].message.find("missing or unreadable"),
            std::string::npos)
      << result.error_text();
}

TEST(SpecParser, LoadSpecFileDirectoryIsTypedError) {
  // A directory opens but cannot be read; that is the same typed error.
  const std::string path = DVLC_SCENARIO_DIR;
  const SpecParseResult result = load_spec_file(path);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].key, path);
  EXPECT_NE(result.errors[0].message.find("cannot read"), std::string::npos)
      << result.error_text();
}

TEST(SpecParser, LoadSpecFileRoundTripsSerializedSpec) {
  const SpecParseResult parsed = parse_spec(valid_text());
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dvlc_load_spec_file.ini";
  {
    std::ofstream out{path};
    out << serialize_spec(*parsed.spec);
    ASSERT_TRUE(out.good());
  }
  const SpecParseResult result = load_spec_file(path.string());
  ASSERT_TRUE(result.ok()) << result.error_text();
  EXPECT_EQ(serialize_spec(*result.spec), serialize_spec(*parsed.spec));
}

}  // namespace
}  // namespace densevlc::scenario
