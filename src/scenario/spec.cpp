#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/ini.hpp"

namespace densevlc::scenario {
namespace {

// ---------------------------------------------------------------------------
// Strict value parsing: a malformed value is an error, never a fallback.

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "true" || text == "yes" || text == "on" || text == "1") {
    return true;
  }
  if (text == "false" || text == "no" || text == "off" || text == "0") {
    return false;
  }
  return std::nullopt;
}

/// Shortest round-trip decimal form of a double ("0.5", not "0.500000").
std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string format_hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// Splits a trailing 1-based index off a dynamic key stem:
/// "x12" -> ("x", 12). Returns 0 when there is no valid index.
std::size_t split_index(const std::string& leaf, std::string& stem) {
  std::size_t digits = 0;
  while (digits < leaf.size() &&
         std::isdigit(static_cast<unsigned char>(leaf[leaf.size() - 1 - digits]))) {
    ++digits;
  }
  if (digits == 0 || digits == leaf.size()) return 0;
  stem = leaf.substr(0, leaf.size() - digits);
  const auto idx = parse_u64(leaf.substr(leaf.size() - digits));
  return idx ? static_cast<std::size_t>(*idx) : 0;
}

// ---------------------------------------------------------------------------
// Key dispatch. One function handles one "key = value" pair against a
// spec; the INI parse, sweep overrides, and CLI overrides all funnel
// through it so every entry point rejects the same malformed inputs.

struct KeyOutcome {
  bool known = false;                ///< key belongs to the schema
  std::optional<SpecError> error;    ///< set when the value is rejected
};

KeyOutcome reject(const std::string& key, const std::string& message) {
  return {true, SpecError{key, message}};
}

KeyOutcome accept() { return {true, std::nullopt}; }

/// A numeric key's value that does not parse: reported as such, so the
/// key's range message is kept for values that parse.
KeyOutcome reject_unparsed(const std::string& key, const std::string& value,
                           bool integer) {
  return reject(key, std::string{integer ? "expected an unsigned integer"
                                         : "expected a number"} +
                         " (got '" + value + "')");
}

/// Ensures `v` has at least `n` elements, appending defaults.
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

KeyOutcome apply_key(ScenarioSpec& spec, const std::string& key,
                     const std::string& value) {
  const auto num = [&]() { return parse_double(value); };

  // --- [scenario] ---------------------------------------------------------
  if (key == "scenario.name") {
    if (value.empty()) return reject(key, "scenario name must not be empty");
    spec.name = value;
    return accept();
  }
  if (key == "scenario.kind") {
    if (value == "analytic") {
      spec.kind = EvalKind::kAnalytic;
    } else if (value == "soak") {
      spec.kind = EvalKind::kSoak;
    } else {
      return reject(key, "expected 'analytic' or 'soak' (got '" + value + "')");
    }
    return accept();
  }
  if (key == "scenario.seed") {
    const auto v = parse_u64(value);
    if (!v) return reject(key, "expected an unsigned integer seed");
    spec.seed = *v;
    return accept();
  }
  if (key == "scenario.epochs") {
    const auto v = parse_u64(value);
    if (!v) return reject_unparsed(key, value, true);
    if (*v < 1 || *v > 100000) {
      return reject(key, "expected an epoch count in [1, 100000]");
    }
    spec.epochs = static_cast<std::size_t>(*v);
    return accept();
  }

  // --- [system] -----------------------------------------------------------
  if (key == "system.testbed") {
    if (value == "simulation") {
      spec.testbed = TestbedKind::kSimulation;
    } else if (value == "experimental") {
      spec.testbed = TestbedKind::kExperimental;
    } else {
      return reject(key,
                    "expected 'simulation' or 'experimental' (got '" + value +
                        "')");
    }
    return accept();
  }
  if (key == "system.kappa") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) return reject(key, "kappa must be a positive number");
    spec.kappa = *v;
    return accept();
  }
  if (key == "system.power_budget_w") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) {
      return reject(key, "power budget must be a positive number of watts");
    }
    spec.power_budget_w = *v;
    return accept();
  }
  if (key == "system.bandwidth_mhz") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) {
      return reject(key, "bandwidth must be a positive number of MHz");
    }
    spec.bandwidth_mhz = *v;
    return accept();
  }
  if (key == "system.incremental_probing") {
    const auto v = parse_bool(value);
    if (!v) return reject(key, "expected a boolean (true/false)");
    spec.incremental_probing = *v;
    return accept();
  }

  // --- [room] -------------------------------------------------------------
  if (key == "room.width" || key == "room.depth" || key == "room.height") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0 || *v > 1000.0) {
      return reject(key, "room dimensions must be in (0, 1000] meters");
    }
    if (key == "room.width") spec.room_width_m = *v;
    if (key == "room.depth") spec.room_depth_m = *v;
    if (key == "room.height") spec.room_height_m = *v;
    return accept();
  }

  // --- [grid] -------------------------------------------------------------
  if (key == "grid.rows" || key == "grid.cols") {
    const auto v = parse_u64(value);
    if (!v) return reject_unparsed(key, value, true);
    if (*v < 1 || *v > 64) {
      return reject(key, "grid dimensions must be in [1, 64]");
    }
    if (key == "grid.rows") spec.grid_rows = static_cast<std::size_t>(*v);
    if (key == "grid.cols") spec.grid_cols = static_cast<std::size_t>(*v);
    return accept();
  }
  if (key == "grid.pitch") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) return reject(key, "grid pitch must be positive");
    spec.grid_pitch_m = *v;
    return accept();
  }
  if (key == "grid.mount_height") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) {
      return reject(key, "mount height must be a positive number of meters");
    }
    spec.grid_mount_height_m = *v;
    return accept();
  }

  // --- [led] --------------------------------------------------------------
  if (key == "led.bias_ma") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) return reject(key, "LED bias must be positive mA");
    spec.led_bias_ma = *v;
    return accept();
  }
  if (key == "led.max_swing_ma") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) return reject(key, "max swing must be positive mA");
    spec.led_max_swing_ma = *v;
    return accept();
  }
  if (key == "led.half_angle_deg") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0 || *v > 90.0) {
      return reject(key, "half angle must be in (0, 90] degrees");
    }
    spec.led_half_angle_deg = *v;
    return accept();
  }

  // --- [rx] ---------------------------------------------------------------
  if (key == "rx.placement") {
    if (value == "fixed") {
      spec.placement = RxPlacement::kFixed;
    } else if (value == "uniform") {
      spec.placement = RxPlacement::kUniform;
    } else {
      return reject(key, "expected 'fixed' or 'uniform' (got '" + value + "')");
    }
    return accept();
  }
  if (key == "rx.count") {
    const auto v = parse_u64(value);
    if (!v) return reject_unparsed(key, value, true);
    if (*v < 1 || *v > 64) {
      return reject(key, "receiver count must be in [1, 64]");
    }
    spec.rx_count = static_cast<std::size_t>(*v);
    return accept();
  }
  if (key == "rx.height") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v < 0.0) return reject(key, "rx height must be >= 0 meters");
    spec.rx_height_m = *v;
    return accept();
  }
  if (key == "rx.margin") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v < 0.0) return reject(key, "rx margin must be >= 0 meters");
    spec.rx_margin_m = *v;
    return accept();
  }
  if (key.rfind("rx.", 0) == 0) {
    std::string stem;
    const std::size_t idx = split_index(key.substr(3), stem);
    if (idx >= 1 && idx <= 64 && (stem == "x" || stem == "y")) {
      const auto v = num();
      if (!v) return reject(key, "expected a coordinate in meters");
      grow_to(spec.rx_fixed, idx);
      if (stem == "x") spec.rx_fixed[idx - 1].x = *v;
      if (stem == "y") spec.rx_fixed[idx - 1].y = *v;
      return accept();
    }
    return {false, std::nullopt};
  }

  // --- [illum] ------------------------------------------------------------
  if (key == "illum.target_lux") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v <= 0.0) return reject(key, "target must be positive lux");
    spec.dimming_enabled = true;
    spec.target_lux = *v;
    return accept();
  }
  if (key == "illum.leds_per_tx") {
    const auto v = parse_u64(value);
    if (!v) return reject_unparsed(key, value, true);
    if (*v < 1 || *v > 100) {
      return reject(key, "LEDs per TX must be in [1, 100]");
    }
    spec.dimming_enabled = true;
    spec.leds_per_tx = static_cast<std::size_t>(*v);
    return accept();
  }

  // --- [blockage] ---------------------------------------------------------
  if (key.rfind("blockage.", 0) == 0) {
    std::string stem;
    const std::size_t idx = split_index(key.substr(9), stem);
    if (idx >= 1 && idx <= 16 &&
        (stem == "x" || stem == "y" || stem == "radius" || stem == "height")) {
      const auto v = num();
      if (!v) return reject(key, "expected a number (meters)");
      if ((stem == "radius" || stem == "height") && *v <= 0.0) {
        return reject(key, "blocker " + stem + " must be positive");
      }
      grow_to(spec.blockers, idx);
      if (stem == "x") spec.blockers[idx - 1].x = *v;
      if (stem == "y") spec.blockers[idx - 1].y = *v;
      if (stem == "radius") spec.blockers[idx - 1].radius = *v;
      if (stem == "height") spec.blockers[idx - 1].height_m = *v;
      return accept();
    }
    return {false, std::nullopt};
  }

  // --- [faults] -----------------------------------------------------------
  if (key == "faults.led_fail_fraction") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v < 0.0 || *v > 1.0) {
      return reject(key, "LED fail fraction must be in [0, 1]");
    }
    spec.faults_enabled = true;
    spec.led_fail_fraction = *v;
    return accept();
  }
  if (key == "faults.time_s") {
    const auto v = num();
    if (!v) return reject_unparsed(key, value, false);
    if (*v < 0.0) return reject(key, "fault time must be >= 0 seconds");
    spec.faults_enabled = true;
    spec.fault_time_s = *v;
    return accept();
  }
  if (key == "faults.seed") {
    const auto v = parse_u64(value);
    if (!v) return reject(key, "expected an unsigned integer seed");
    spec.faults_enabled = true;
    spec.fault_seed = *v;
    return accept();
  }

  return {false, std::nullopt};
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  int base = 10;
  if (text.starts_with("0x")) {
    text.remove_prefix(2);
    base = 16;
  }
  // from_chars takes no sign, prefix or whitespace, and reports overflow.
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

ScenarioSpec spec_defaults(TestbedKind testbed) {
  ScenarioSpec spec;  // simulation defaults
  spec.testbed = testbed;
  if (testbed == TestbedKind::kExperimental) {
    spec.grid_mount_height_m = 2.0;
    spec.rx_height_m = 0.0;
  }
  return spec;
}

std::string SpecParseResult::error_text() const {
  std::string out;
  for (const SpecError& e : errors) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

std::optional<SpecError> apply_override(ScenarioSpec& spec,
                                        const std::string& key,
                                        const std::string& value) {
  const KeyOutcome out = apply_key(spec, key, value);
  if (!out.known) {
    return SpecError{key, "unknown scenario key"};
  }
  return out.error;
}

std::vector<SpecError> validate_spec(const ScenarioSpec& spec) {
  std::vector<SpecError> errors;
  const auto fail = [&](const std::string& key, const std::string& msg) {
    errors.push_back({key, msg});
  };

  if (spec.rx_count == 0) {
    fail("rx.count", "scenario has no receivers (rx.count is required)");
  }
  if (spec.placement == RxPlacement::kFixed) {
    if (spec.rx_fixed.size() != spec.rx_count) {
      fail("rx.count",
           "fixed placement lists " + std::to_string(spec.rx_fixed.size()) +
               " coordinate pairs but rx.count = " +
               std::to_string(spec.rx_count));
    }
    for (std::size_t i = 0; i < spec.rx_fixed.size(); ++i) {
      const auto& p = spec.rx_fixed[i];
      if (p.x < 0.0 || p.x > spec.room_width_m || p.y < 0.0 ||
          p.y > spec.room_depth_m) {
        fail("rx.x" + std::to_string(i + 1),
             "receiver " + std::to_string(i + 1) + " at (" +
                 format_double(p.x) + ", " + format_double(p.y) +
                 ") lies outside the room");
      }
    }
  } else {
    if (!spec.rx_fixed.empty()) {
      fail("rx.x1", "uniform placement must not list fixed coordinates");
    }
    if (2.0 * spec.rx_margin_m >=
        std::min(spec.room_width_m, spec.room_depth_m)) {
      fail("rx.margin", "margin leaves no floor area to place receivers in");
    }
  }

  if (spec.grid_mount_height_m > spec.room_height_m) {
    fail("grid.mount_height", "luminaires would mount above the ceiling");
  }
  if (spec.grid_pitch_m * static_cast<double>(spec.grid_cols - 1) >
          spec.room_width_m ||
      spec.grid_pitch_m * static_cast<double>(spec.grid_rows - 1) >
          spec.room_depth_m) {
    fail("grid.pitch", "grid footprint exceeds the room");
  }

  if (spec.rx_height_m >= spec.grid_mount_height_m) {
    fail("rx.height", "receivers must sit below the luminaire plane");
  }

  for (std::size_t i = 0; i < spec.blockers.size(); ++i) {
    const auto& b = spec.blockers[i];
    if (b.radius <= 0.0) {
      fail("blockage.radius" + std::to_string(i + 1),
           "blocker radius must be positive");
    }
    if (b.height_m <= 0.0) {
      fail("blockage.height" + std::to_string(i + 1),
           "blocker height must be positive");
    }
    if (b.x < 0.0 || b.x > spec.room_width_m || b.y < 0.0 ||
        b.y > spec.room_depth_m) {
      fail("blockage.x" + std::to_string(i + 1),
           "blocker center lies outside the room");
    }
  }

  if (spec.faults_enabled && spec.kind != EvalKind::kSoak) {
    fail("faults.led_fail_fraction",
         "fault schedules require scenario.kind = soak (the analytic "
         "one-shot never evaluates them)");
  }
  return errors;
}

SpecParseResult parse_spec(const std::string& text) {
  SpecParseResult result;
  const IniConfig ini = IniConfig::parse(text);
  if (!ini.errors().empty()) {
    std::istringstream lines{ini.errors()};
    std::string line;
    while (std::getline(lines, line)) {
      result.errors.push_back({"<syntax>", line});
    }
    return result;
  }

  // The testbed choice re-bases every default, so resolve it first —
  // std::map iteration would otherwise hand us [system] after [grid].
  TestbedKind testbed = TestbedKind::kSimulation;
  if (const auto declared = ini.get("system.testbed")) {
    ScenarioSpec probe;
    const KeyOutcome out = apply_key(probe, "system.testbed", *declared);
    if (out.error) {
      result.errors.push_back(*out.error);
      return result;
    }
    testbed = probe.testbed;
  }

  ScenarioSpec spec = spec_defaults(testbed);
  for (const auto& [key, value] : ini.items()) {
    const KeyOutcome out = apply_key(spec, key, value);
    if (!out.known) {
      result.errors.push_back({key, "unknown scenario key"});
    } else if (out.error) {
      result.errors.push_back(*out.error);
    }
  }

  for (SpecError& e : validate_spec(spec)) {
    result.errors.push_back(std::move(e));
  }
  if (result.errors.empty()) result.spec = std::move(spec);
  return result;
}

std::optional<SpecError> read_spec_text(const std::string& path,
                                        std::string& text) {
  text.clear();
  std::ifstream in{path, std::ios::binary};
  // istream::read turns a failed read (EISDIR on a directory) into
  // badbit instead of letting the streambuf's exception escape.
  char chunk[4096];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.eof() && !in.bad()) return std::nullopt;
  text.clear();
  return SpecError{path, "cannot read file (missing or unreadable, or a "
                         "directory)"};
}

SpecParseResult load_spec_file(const std::string& path) {
  std::string text;
  if (auto error = read_spec_text(path, text)) {
    SpecParseResult result;
    result.errors.push_back(std::move(*error));
    return result;
  }
  return parse_spec(text);
}

std::string serialize_spec(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "[scenario]\n";
  out << "name = " << spec.name << '\n';
  out << "kind = " << to_string(spec.kind) << '\n';
  out << "seed = " << format_hex(spec.seed) << '\n';
  out << "epochs = " << spec.epochs << '\n';

  out << "\n[system]\n";
  out << "testbed = " << to_string(spec.testbed) << '\n';
  out << "kappa = " << format_double(spec.kappa) << '\n';
  out << "power_budget_w = " << format_double(spec.power_budget_w) << '\n';
  out << "bandwidth_mhz = " << format_double(spec.bandwidth_mhz) << '\n';
  out << "incremental_probing = "
      << (spec.incremental_probing ? "true" : "false") << '\n';

  out << "\n[room]\n";
  out << "width = " << format_double(spec.room_width_m) << '\n';
  out << "depth = " << format_double(spec.room_depth_m) << '\n';
  out << "height = " << format_double(spec.room_height_m) << '\n';

  out << "\n[grid]\n";
  out << "rows = " << spec.grid_rows << '\n';
  out << "cols = " << spec.grid_cols << '\n';
  out << "pitch = " << format_double(spec.grid_pitch_m) << '\n';
  out << "mount_height = " << format_double(spec.grid_mount_height_m) << '\n';

  out << "\n[led]\n";
  out << "bias_ma = " << format_double(spec.led_bias_ma) << '\n';
  out << "max_swing_ma = " << format_double(spec.led_max_swing_ma) << '\n';
  out << "half_angle_deg = " << format_double(spec.led_half_angle_deg)
      << '\n';

  out << "\n[rx]\n";
  out << "placement = " << to_string(spec.placement) << '\n';
  out << "count = " << spec.rx_count << '\n';
  out << "height = " << format_double(spec.rx_height_m) << '\n';
  out << "margin = " << format_double(spec.rx_margin_m) << '\n';
  for (std::size_t i = 0; i < spec.rx_fixed.size(); ++i) {
    out << "x" << (i + 1) << " = " << format_double(spec.rx_fixed[i].x)
        << '\n';
    out << "y" << (i + 1) << " = " << format_double(spec.rx_fixed[i].y)
        << '\n';
  }

  if (spec.dimming_enabled) {
    out << "\n[illum]\n";
    out << "target_lux = " << format_double(spec.target_lux) << '\n';
    out << "leds_per_tx = " << spec.leds_per_tx << '\n';
  }

  if (!spec.blockers.empty()) {
    out << "\n[blockage]\n";
    for (std::size_t i = 0; i < spec.blockers.size(); ++i) {
      const auto& b = spec.blockers[i];
      out << "x" << (i + 1) << " = " << format_double(b.x) << '\n';
      out << "y" << (i + 1) << " = " << format_double(b.y) << '\n';
      out << "radius" << (i + 1) << " = " << format_double(b.radius) << '\n';
      out << "height" << (i + 1) << " = " << format_double(b.height_m)
          << '\n';
    }
  }

  if (spec.faults_enabled) {
    out << "\n[faults]\n";
    out << "led_fail_fraction = " << format_double(spec.led_fail_fraction)
        << '\n';
    out << "time_s = " << format_double(spec.fault_time_s) << '\n';
    out << "seed = " << format_hex(spec.fault_seed) << '\n';
  }
  return out.str();
}

const char* to_string(EvalKind kind) {
  return kind == EvalKind::kAnalytic ? "analytic" : "soak";
}

const char* to_string(TestbedKind testbed) {
  return testbed == TestbedKind::kSimulation ? "simulation" : "experimental";
}

const char* to_string(RxPlacement placement) {
  return placement == RxPlacement::kFixed ? "fixed" : "uniform";
}

}  // namespace densevlc::scenario
