// Declarative scenario specification.
//
// Every hand-wired `bench/ext_*` setup is a point in the same small
// space: a room, a ceiling grid, an LED operating point, a receiver
// placement, and optional dimming / blockage / fault axes, evaluated
// either as a one-shot analytic allocation or as a multi-epoch soak.
// This module names that space: a ScenarioSpec is parsed from an INI
// scenario file (the schema extends sample_scenario.ini), validated with
// typed per-key errors (malformed or out-of-range values are rejected —
// never silently defaulted), serialized back to canonical INI for
// round-trip tests, and compiled into a runnable system configuration by
// scenario/compile.hpp. Sweep grids over the same keys live in
// scenario/campaign.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "channel/blockage.hpp"
#include "common/ini.hpp"
#include "geom/vec3.hpp"

namespace densevlc::scenario {

/// How a compiled scenario is evaluated.
enum class EvalKind {
  kAnalytic,  ///< one-shot allocate + Shannon throughput (Fig. 8 path)
  kSoak,      ///< multi-epoch DenseVlcSystem run (chaos-soak path)
};

/// Which Table 1 testbed supplies the defaults.
enum class TestbedKind {
  kSimulation,    ///< Sec. 4: 2.8 m ceiling, RXs on a 0.8 m table
  kExperimental,  ///< Sec. 8: 2.0 m mounting, RXs on the floor
};

/// How receiver positions are produced per instance.
enum class RxPlacement {
  kFixed,    ///< the listed x<i>/y<i> coordinates, every instance
  kUniform,  ///< seeded uniform draws inside the room minus a margin
};

/// One typed validation problem: which key, and what is wrong with it.
struct SpecError {
  std::string key;      ///< INI key ("grid.rows") or "<syntax>"
  std::string message;  ///< human-readable reason

  /// "key: message" for logs and test assertions.
  std::string to_string() const { return key + ": " + message; }
};

/// Every error's to_string(), one per line (for CLI diagnostics).
std::string error_text(std::span<const SpecError> errors);

/// The declarative scenario description. Field defaults are the
/// simulation testbed of paper Table 1; `spec_defaults(kExperimental)`
/// re-bases them on the Sec. 8 hardware. All lengths are meters, currents
/// milliamps, angles degrees — matching the INI schema.
struct ScenarioSpec {
  // [scenario]
  std::string name = "unnamed";
  EvalKind kind = EvalKind::kAnalytic;
  std::uint64_t seed = 0xD5EED;
  std::size_t epochs = 10;  ///< soak only

  // [system]
  TestbedKind testbed = TestbedKind::kSimulation;
  double kappa = 1.3;
  double power_budget_w = 1.2;
  double bandwidth_mhz = 1.0;

  // [room]
  double room_width_m = 3.0;
  double room_depth_m = 3.0;
  double room_height_m = 2.8;

  // [grid]
  std::size_t grid_rows = 6;
  std::size_t grid_cols = 6;
  double grid_pitch_m = 0.5;
  double grid_mount_height_m = 2.8;

  // [led]
  double led_bias_ma = 450.0;
  double led_max_swing_ma = 900.0;
  double led_half_angle_deg = 15.0;

  // [rx]
  RxPlacement placement = RxPlacement::kFixed;
  std::size_t rx_count = 0;
  double rx_height_m = 0.8;
  double rx_margin_m = 0.4;          ///< uniform placement wall margin
  std::vector<geom::Vec3> rx_fixed;  ///< fixed placement coordinates

  // [illum] — present only when the section appears: the luminaire
  // planner then re-derives the LED bias and swing ceiling from the
  // illumination target before the communication layer is evaluated.
  bool dimming_enabled = false;
  double target_lux = 500.0;
  std::size_t leds_per_tx = 1;

  // [blockage]
  std::vector<channel::CylinderBlocker> blockers;

  // [faults] — present only when the section appears; requires kSoak.
  bool faults_enabled = false;
  double led_fail_fraction = 0.0;
  double fault_time_s = 3.5;
  std::uint64_t fault_seed = 0xFA17;
};

/// Spec with every field at the named testbed's defaults.
ScenarioSpec spec_defaults(TestbedKind testbed);

/// Outcome of parsing: either a validated spec or the full error list
/// (never both; a spec is only returned when `errors` is empty).
struct SpecParseResult {
  std::optional<ScenarioSpec> spec;
  std::vector<SpecError> errors;

  bool ok() const { return spec.has_value(); }
  std::string error_text() const { return scenario::error_text(errors); }
};

/// Parses scenario INI text. Unknown keys, malformed values and
/// out-of-range fields are typed errors; nothing is silently defaulted.
[[nodiscard]] SpecParseResult parse_spec(const std::string& text);

/// parse_spec after the text is split: types INI entries against the
/// scenario schema. parse_campaign hands it every entry outside its own
/// [campaign] and [sweep] sections.
[[nodiscard]] SpecParseResult parse_spec_entries(
    std::span<const IniEntry> entries);

/// The reader's syntax errors as typed errors: a repeated key names
/// itself, any other problem is keyed "<syntax>".
[[nodiscard]] std::vector<SpecError> syntax_errors(const IniConfig& ini);

/// Reads the whole file at `path` into `text` with one open and one read
/// pass. A missing or unreadable path, a directory included, returns the
/// typed "cannot read" SpecError whose key carries the path. Every
/// scenario and campaign file reader goes through this.
[[nodiscard]] std::optional<SpecError> read_spec_text(const std::string& path,
                                                      std::string& text);

/// Reads and parses a scenario file. A missing or unreadable path is a
/// typed SpecError whose key carries the path — never an empty parse.
[[nodiscard]] SpecParseResult load_spec_file(const std::string& path);

/// Applies one "key = value" override to an already-parsed spec (sweep
/// axes and CLI overrides use this). Returns the error when the key is
/// unknown or the value malformed; the caller re-validates the whole
/// spec afterwards via validate_spec.
[[nodiscard]] std::optional<SpecError> apply_override(
    ScenarioSpec& spec, const std::string& key, const std::string& value);

/// Range and cross-field checks over a fully-assembled spec.
std::vector<SpecError> validate_spec(const ScenarioSpec& spec);

/// The one parser for counts and seeds in scenario and campaign files:
/// decimal digits, or `0x` followed by hex digits, and nothing else. A
/// sign, whitespace or overflow is rejected, and a leading zero never
/// means octal (`010` is ten).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Canonical INI serialization: parse(serialize(s)) reproduces `s`
/// exactly (doubles are printed with shortest-round-trip precision).
std::string serialize_spec(const ScenarioSpec& spec);

const char* to_string(EvalKind kind);
const char* to_string(TestbedKind testbed);
const char* to_string(RxPlacement placement);

}  // namespace densevlc::scenario
