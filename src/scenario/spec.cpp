#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <variant>

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
// The scalar keys, one row each: the ScenarioSpec member a key sets, the
// range its value must fall in with the message a value outside it
// gets, and the optional section it switches on. apply_override parses
// through the rows and serialize_spec writes them back in row order, so
// a new scalar key is one new row.

/// A seed member: parsed like a count, written in hex, never range-checked.
struct SeedMember {
  std::uint64_t ScenarioSpec::*member = nullptr;
};

using Member =
    std::variant<std::string ScenarioSpec::*, EvalKind ScenarioSpec::*,
                 TestbedKind ScenarioSpec::*, RxPlacement ScenarioSpec::*,
                 SeedMember, std::size_t ScenarioSpec::*,
                 double ScenarioSpec::*>;

/// [lo, hi], or (lo, hi] when `lo_open`; applies to counts and numbers.
struct Range {
  double lo = 0.0;
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();

  bool contains(double v) const {
    return v >= lo && !(lo_open && v == lo) && v <= hi;
  }
};

constexpr Range kPositive{0.0, true};
constexpr Range kNonNegative{};

struct ScalarKey {
  std::string_view key;  ///< "section.key"
  Member member;
  Range range;
  /// Rejects a parsed value outside `range`, an empty name, or a seed
  /// that does not parse.
  std::string_view message;
  bool ScenarioSpec::*section_flag = nullptr;  ///< set by every value
};

constexpr ScalarKey kScalarKeys[] = {
    {"scenario.name", &ScenarioSpec::name, {},
     "scenario name must not be empty"},
    {"scenario.kind", &ScenarioSpec::kind, {}, {}},
    {"scenario.seed", SeedMember{&ScenarioSpec::seed}, {},
     "expected an unsigned integer seed"},
    {"scenario.epochs", &ScenarioSpec::epochs, {1, false, 100000},
     "expected an epoch count in [1, 100000]"},
    {"system.testbed", &ScenarioSpec::testbed, {}, {}},
    {"system.kappa", &ScenarioSpec::kappa, kPositive,
     "kappa must be a positive number"},
    {"system.power_budget_w", &ScenarioSpec::power_budget_w, kPositive,
     "power budget must be a positive number of watts"},
    {"system.bandwidth_mhz", &ScenarioSpec::bandwidth_mhz, kPositive,
     "bandwidth must be a positive number of MHz"},
    {"room.width", &ScenarioSpec::room_width_m, {0, true, 1000},
     "room dimensions must be in (0, 1000] meters"},
    {"room.depth", &ScenarioSpec::room_depth_m, {0, true, 1000},
     "room dimensions must be in (0, 1000] meters"},
    {"room.height", &ScenarioSpec::room_height_m, {0, true, 1000},
     "room dimensions must be in (0, 1000] meters"},
    {"grid.rows", &ScenarioSpec::grid_rows, {1, false, 64},
     "grid dimensions must be in [1, 64]"},
    {"grid.cols", &ScenarioSpec::grid_cols, {1, false, 64},
     "grid dimensions must be in [1, 64]"},
    {"grid.pitch", &ScenarioSpec::grid_pitch_m, kPositive,
     "grid pitch must be positive"},
    {"grid.mount_height", &ScenarioSpec::grid_mount_height_m, kPositive,
     "mount height must be a positive number of meters"},
    {"led.bias_ma", &ScenarioSpec::led_bias_ma, kPositive,
     "LED bias must be positive mA"},
    {"led.max_swing_ma", &ScenarioSpec::led_max_swing_ma, kPositive,
     "max swing must be positive mA"},
    {"led.half_angle_deg", &ScenarioSpec::led_half_angle_deg, {0, true, 90},
     "half angle must be in (0, 90] degrees"},
    {"rx.placement", &ScenarioSpec::placement, {}, {}},
    {"rx.count", &ScenarioSpec::rx_count, {1, false, 64},
     "receiver count must be in [1, 64]"},
    {"rx.height", &ScenarioSpec::rx_height_m, kNonNegative,
     "rx height must be >= 0 meters"},
    {"rx.margin", &ScenarioSpec::rx_margin_m, kNonNegative,
     "rx margin must be >= 0 meters"},
    {"illum.target_lux", &ScenarioSpec::target_lux, kPositive,
     "target must be positive lux", &ScenarioSpec::dimming_enabled},
    {"illum.leds_per_tx", &ScenarioSpec::leds_per_tx, {1, false, 100},
     "LEDs per TX must be in [1, 100]", &ScenarioSpec::dimming_enabled},
    {"faults.led_fail_fraction", &ScenarioSpec::led_fail_fraction,
     {0, false, 1}, "LED fail fraction must be in [0, 1]",
     &ScenarioSpec::faults_enabled},
    {"faults.time_s", &ScenarioSpec::fault_time_s, kNonNegative,
     "fault time must be >= 0 seconds", &ScenarioSpec::faults_enabled},
    {"faults.seed", SeedMember{&ScenarioSpec::fault_seed}, {},
     "expected an unsigned integer seed", &ScenarioSpec::faults_enabled},
};

/// Parses `value` into the row's member; a rejected value leaves the
/// spec untouched.
std::optional<SpecError> apply_scalar(ScenarioSpec& spec,
                                      const ScalarKey& row,
                                      const std::string& value) {
  const auto reject = [&](std::string_view message) {
    return std::optional<SpecError>{
        SpecError{std::string{row.key}, std::string{message}}};
  };
  std::optional<SpecError> error = std::visit(
      [&](auto member) -> std::optional<SpecError> {
        if constexpr (std::is_same_v<decltype(member), SeedMember>) {
          const auto v = parse_u64(value);
          if (!v) return reject(row.message);
          spec.*(member.member) = *v;
        } else {
          auto& field = spec.*member;
          using T = std::remove_reference_t<decltype(field)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (value.empty()) return reject(row.message);
            field = value;
          } else if constexpr (std::is_enum_v<T>) {
            // Every scenario enum has exactly two values.
            const T first{};
            const auto second = static_cast<T>(1);
            if (value == to_string(first)) {
              field = first;
            } else if (value == to_string(second)) {
              field = second;
            } else {
              return reject(std::string{"expected '"} + to_string(first) +
                            "' or '" + to_string(second) + "' (got '" +
                            value + "')");
            }
          } else if constexpr (std::is_same_v<T, double>) {
            const auto v = parse_double(value);
            if (!v) return reject("expected a number (got '" + value + "')");
            if (!row.range.contains(*v)) return reject(row.message);
            field = *v;
          } else {
            const auto v = parse_u64(value);
            if (!v) {
              return reject("expected an unsigned integer (got '" + value +
                            "')");
            }
            if (!row.range.contains(static_cast<double>(*v))) {
              return reject(row.message);
            }
            field = static_cast<std::size_t>(*v);
          }
        }
        return std::nullopt;
      },
      row.member);
  if (!error && row.section_flag != nullptr) spec.*row.section_flag = true;
  return error;
}

/// The row's member in its canonical spelling.
std::string value_text(const ScenarioSpec& spec, const ScalarKey& row) {
  return std::visit(
      [&](auto member) -> std::string {
        if constexpr (std::is_same_v<decltype(member), SeedMember>) {
          return format_hex(spec.*(member.member));
        } else {
          const auto& field = spec.*member;
          using T = std::remove_cvref_t<decltype(field)>;
          if constexpr (std::is_same_v<T, std::string>) {
            return field;
          } else if constexpr (std::is_enum_v<T>) {
            return to_string(field);
          } else if constexpr (std::is_same_v<T, double>) {
            return format_double(field);
          } else {
            return std::to_string(field);
          }
        }
      },
      row.member);
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

std::string error_text(std::span<const SpecError> errors) {
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
  for (const ScalarKey& row : kScalarKeys) {
    if (row.key == key) return apply_scalar(spec, row, value);
  }
  std::string stem;
  if (key.starts_with("rx.")) {
    const std::size_t idx = split_index(key.substr(3), stem);
    if (idx >= 1 && idx <= 64 && (stem == "x" || stem == "y")) {
      const auto v = parse_double(value);
      if (!v) return SpecError{key, "expected a coordinate in meters"};
      if (spec.rx_fixed.size() < idx) spec.rx_fixed.resize(idx);
      if (stem == "x") spec.rx_fixed[idx - 1].x = *v;
      if (stem == "y") spec.rx_fixed[idx - 1].y = *v;
      return std::nullopt;
    }
  } else if (key.starts_with("blockage.")) {
    const std::size_t idx = split_index(key.substr(9), stem);
    if (idx >= 1 && idx <= 16 &&
        (stem == "x" || stem == "y" || stem == "radius" || stem == "height")) {
      const auto v = parse_double(value);
      if (!v) return SpecError{key, "expected a number (meters)"};
      if ((stem == "radius" || stem == "height") && *v <= 0.0) {
        return SpecError{key, "blocker " + stem + " must be positive"};
      }
      if (spec.blockers.size() < idx) spec.blockers.resize(idx);
      if (stem == "x") spec.blockers[idx - 1].x = *v;
      if (stem == "y") spec.blockers[idx - 1].y = *v;
      if (stem == "radius") spec.blockers[idx - 1].radius = *v;
      if (stem == "height") spec.blockers[idx - 1].height_m = *v;
      return std::nullopt;
    }
  }
  return SpecError{key, "unknown scenario key"};
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

std::vector<SpecError> syntax_errors(const IniConfig& ini) {
  std::vector<SpecError> errors;
  for (const IniError& e : ini.errors()) {
    errors.push_back({e.key.empty() ? "<syntax>" : e.key, e.message});
  }
  return errors;
}

SpecParseResult parse_spec(const std::string& text) {
  const IniConfig ini = IniConfig::parse(text);
  if (!ini.errors().empty()) return {std::nullopt, syntax_errors(ini)};
  return parse_spec_entries(ini.items());
}

SpecParseResult parse_spec_entries(std::span<const IniEntry> entries) {
  SpecParseResult result;
  // The testbed choice re-bases every default, so resolve it before
  // applying any key, wherever the file declares it.
  ScenarioSpec spec;
  for (const IniEntry& entry : entries) {
    if (entry.key != "system.testbed") continue;
    if (auto error = apply_override(spec, entry.key, entry.value)) {
      result.errors.push_back(std::move(*error));
      return result;
    }
  }
  spec = spec_defaults(spec.testbed);
  for (const IniEntry& entry : entries) {
    if (auto error = apply_override(spec, entry.key, entry.value)) {
      result.errors.push_back(std::move(*error));
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
  const auto header = [&](std::string_view section) {
    if (out.tellp() > 0) out << '\n';
    out << '[' << section << "]\n";
  };
  const auto scalars = [&](std::string_view section) {
    header(section);
    for (const ScalarKey& row : kScalarKeys) {
      const auto dot = row.key.find('.');
      if (row.key.substr(0, dot) != section) continue;
      out << row.key.substr(dot + 1) << " = " << value_text(spec, row)
          << '\n';
    }
  };

  for (const std::string_view section :
       {"scenario", "system", "room", "grid", "led", "rx"}) {
    scalars(section);
  }
  for (std::size_t i = 0; i < spec.rx_fixed.size(); ++i) {
    out << "x" << (i + 1) << " = " << format_double(spec.rx_fixed[i].x)
        << '\n';
    out << "y" << (i + 1) << " = " << format_double(spec.rx_fixed[i].y)
        << '\n';
  }
  if (spec.dimming_enabled) scalars("illum");
  if (!spec.blockers.empty()) {
    header("blockage");
    for (std::size_t i = 0; i < spec.blockers.size(); ++i) {
      const auto& b = spec.blockers[i];
      out << "x" << (i + 1) << " = " << format_double(b.x) << '\n';
      out << "y" << (i + 1) << " = " << format_double(b.y) << '\n';
      out << "radius" << (i + 1) << " = " << format_double(b.radius) << '\n';
      out << "height" << (i + 1) << " = " << format_double(b.height_m)
          << '\n';
    }
  }
  if (spec.faults_enabled) scalars("faults");
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
