#include "scenario/campaign.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace densevlc::scenario {
namespace {

/// Splits an axis value on '|' into trimmed legs.
std::vector<std::string> split_legs(std::string_view value) {
  std::vector<std::string> legs;
  std::size_t start = 0;
  while (true) {
    const auto bar = value.find('|', start);
    legs.emplace_back(trim(value.substr(
        start, bar == std::string::npos ? std::string::npos : bar - start)));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return legs;
}

/// Applies one axis leg to a spec. A leg containing '=' is a
/// whitespace-separated list of absolute `key=value` overrides; any
/// other leg is the value of the axis key itself.
std::optional<SpecError> apply_leg(ScenarioSpec& spec,
                                   const std::string& axis_key,
                                   const std::string& leg) {
  if (leg.find('=') == std::string::npos) {
    return apply_override(spec, axis_key, leg);
  }
  std::istringstream tokens{leg};
  std::string token;
  while (tokens >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 > token.size()) {
      return SpecError{"sweep." + axis_key,
                       "expected key=value overrides (got '" + token + "')"};
    }
    if (auto err = apply_override(spec, token.substr(0, eq),
                                  token.substr(eq + 1))) {
      err->key = "sweep." + axis_key + " -> " + err->key;
      return err;
    }
  }
  return std::nullopt;
}

/// FNV-1a over a sequence of 64-bit hashes (hash of hashes).
std::uint64_t hash_u64s(std::span<const std::uint64_t> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// One aggregation row: an instance record plus its sweep-point
/// identity. run_campaign() and summarize_records() both reduce through
/// aggregate_rows so a live run and a record replay cannot diverge.
struct RecordRow {
  std::size_t point = 0;
  const std::vector<std::pair<std::string, std::string>>* axis_values =
      nullptr;
  InstanceRecord record;
};

CampaignSummary aggregate_rows(std::size_t num_points,
                               std::vector<RecordRow> rows) {
  // Index order is the canonical reduction order: it is what every
  // submission order and thread count reassembles to.
  std::sort(rows.begin(), rows.end(),
            [](const RecordRow& a, const RecordRow& b) {
              return a.record.index < b.record.index;
            });

  CampaignSummary out;
  out.instance_count = rows.size();
  out.points.resize(num_points);
  std::vector<std::vector<double>> mbps(num_points);
  std::vector<std::vector<std::uint64_t>> hashes(num_points);
  std::vector<std::uint64_t> all_hashes;
  all_hashes.reserve(rows.size());
  for (const RecordRow& row : rows) {
    if (row.point >= num_points) continue;
    PointAggregate& agg = out.points[row.point];
    if (agg.instance_count == 0 && row.axis_values != nullptr) {
      agg.axis_values = *row.axis_values;
    }
    ++agg.instance_count;
    mbps[row.point].push_back(row.record.system_mbps);
    hashes[row.point].push_back(row.record.fingerprint_hash);
    all_hashes.push_back(row.record.fingerprint_hash);
    agg.mean_jain += row.record.jain;
    agg.mean_power_w += row.record.power_used_w;
    agg.mean_txs += row.record.txs_assigned;
  }
  for (std::size_t p = 0; p < num_points; ++p) {
    PointAggregate& agg = out.points[p];
    if (agg.instance_count == 0) continue;
    const double n = static_cast<double>(agg.instance_count);
    agg.mean_jain /= n;
    agg.mean_power_w /= n;
    agg.mean_txs /= n;
    agg.system_mbps = stats::summarize(mbps[p]);
    agg.p50_mbps = stats::quantile(mbps[p], 0.50);
    agg.p99_mbps = stats::quantile(mbps[p], 0.99);
    agg.p999_mbps = stats::quantile(mbps[p], 0.999);
    agg.point_hash = hash_u64s(hashes[p]);
  }
  out.campaign_hash = hash_u64s(all_hashes);
  return out;
}

}  // namespace

std::size_t CampaignSpec::num_points() const {
  std::size_t points = 1;
  for (const CampaignAxis& axis : axes) points *= axis.values.size();
  return points;
}

std::size_t CampaignSpec::num_instances() const {
  return num_points() * instances_per_point;
}

CampaignParseResult parse_campaign(const std::string& text) {
  CampaignParseResult result;
  const IniConfig ini = IniConfig::parse(text);
  if (!ini.errors().empty()) {
    result.errors = syntax_errors(ini);
    return result;
  }

  // [campaign] and [sweep] entries are read here (in file order: axis
  // declaration order IS the sweep-point enumeration order); every other
  // entry is scenario schema and goes to the spec parser.
  CampaignSpec campaign;
  std::vector<IniEntry> scenario_entries;
  bool quick_set = false;
  for (const IniEntry& entry : ini.items()) {
    if (entry.section == "sweep") {
      CampaignAxis axis{entry.key.substr(6), split_legs(entry.value)};
      for (const std::string& leg : axis.values) {
        if (leg.empty()) {
          result.errors.push_back(
              {entry.key, "empty sweep value (check stray '|')"});
        }
      }
      campaign.axes.push_back(std::move(axis));
    } else if (entry.section != "campaign") {
      scenario_entries.push_back(entry);
    } else if (entry.key == "campaign.instances" ||
               entry.key == "campaign.quick_instances") {
      const bool quick = entry.key == "campaign.quick_instances";
      const auto v = parse_u64(entry.value);
      if (!v || *v < 1 || *v > 1000000) {
        result.errors.push_back(
            {entry.key, std::string{quick ? "quick instances" : "instances"} +
                            " per point must be in [1, 1000000]"});
      } else if (quick) {
        campaign.quick_instances_per_point = static_cast<std::size_t>(*v);
        quick_set = true;
      } else {
        campaign.instances_per_point = static_cast<std::size_t>(*v);
      }
    } else {
      result.errors.push_back({entry.key, "unknown campaign key"});
    }
  }

  SpecParseResult base = parse_spec_entries(scenario_entries);
  for (SpecError& e : base.errors) result.errors.push_back(std::move(e));
  if (!result.errors.empty()) return result;
  campaign.base = std::move(*base.spec);
  if (!quick_set) {
    campaign.quick_instances_per_point =
        std::min<std::size_t>(campaign.instances_per_point, 2);
  }

  // Every sweep point must expand to a valid spec; probing the full grid
  // here (specs only, nothing runs) means a campaign file is either
  // rejected with a typed error or guaranteed runnable.
  std::vector<CampaignInstance> probe;
  std::vector<SpecError> expand_errors =
      expand_campaign(campaign, 1, probe);
  for (SpecError& e : expand_errors) result.errors.push_back(std::move(e));
  if (result.errors.empty()) result.campaign = std::move(campaign);
  return result;
}

CampaignParseResult load_campaign_file(const std::string& path) {
  std::string text;
  if (auto error = read_spec_text(path, text)) {
    CampaignParseResult result;
    result.errors.push_back(std::move(*error));
    return result;
  }
  return parse_campaign(text);
}

std::vector<SpecError> expand_campaign(const CampaignSpec& campaign,
                                       std::size_t instances_per_point,
                                       std::vector<CampaignInstance>& out) {
  std::vector<SpecError> errors;
  std::vector<CampaignInstance> instances;
  const std::size_t points = campaign.num_points();
  for (std::size_t p = 0; p < points; ++p) {
    // Decode the point index into one leg per axis, first axis outermost.
    std::vector<std::size_t> leg(campaign.axes.size(), 0);
    std::size_t rem = p;
    for (std::size_t a = campaign.axes.size(); a-- > 0;) {
      leg[a] = rem % campaign.axes[a].values.size();
      rem /= campaign.axes[a].values.size();
    }

    ScenarioSpec spec = campaign.base;
    std::vector<std::pair<std::string, std::string>> axis_values;
    bool point_ok = true;
    for (std::size_t a = 0; a < campaign.axes.size(); ++a) {
      const std::string& value = campaign.axes[a].values[leg[a]];
      axis_values.emplace_back(campaign.axes[a].key, value);
      if (auto err = apply_leg(spec, campaign.axes[a].key, value)) {
        err->message = "sweep point " + std::to_string(p) + ": " +
                       err->message;
        errors.push_back(std::move(*err));
        point_ok = false;
      }
    }
    if (point_ok) {
      for (SpecError& e : validate_spec(spec)) {
        e.message = "sweep point " + std::to_string(p) + ": " + e.message;
        errors.push_back(std::move(e));
        point_ok = false;
      }
    }
    if (!point_ok) continue;

    for (std::size_t r = 0; r < instances_per_point; ++r) {
      CampaignInstance inst;
      inst.index = p * instances_per_point + r;
      inst.point = p;
      inst.rep = r;
      inst.seed = Rng::derive_stream_seed(campaign.base.seed, inst.index);
      inst.spec = spec;
      inst.axis_values = axis_values;
      instances.push_back(std::move(inst));
    }
  }
  if (errors.empty()) out = std::move(instances);
  return errors;
}

InstanceRecord make_record(const CampaignInstance& instance,
                           const InstanceResult& result) {
  InstanceRecord record;
  record.index = instance.index;
  record.seed = instance.seed;
  record.fingerprint_hash = result.fingerprint_hash();
  record.system_mbps = result.system_mbps;
  record.jain = result.jain;
  record.power_used_w = result.power_used_w;
  record.txs_assigned = result.txs_assigned;
  return record;
}

CampaignSummary summarize_records(const CampaignSpec& campaign,
                                  std::size_t instances_per_point,
                                  std::vector<InstanceRecord> records) {
  // One probe instance per sweep point rebuilds the axis labels without
  // rerunning anything; campaigns are validated at parse time, so the
  // probe expansion cannot fail here.
  std::vector<CampaignInstance> probe;
  const std::vector<SpecError> errors = expand_campaign(campaign, 1, probe);
  const std::size_t num_points = campaign.num_points();
  std::vector<RecordRow> rows;
  rows.reserve(records.size());
  const std::size_t per_point = instances_per_point == 0
                                    ? 1
                                    : instances_per_point;
  for (InstanceRecord& record : records) {
    RecordRow row;
    row.point = static_cast<std::size_t>(record.index) / per_point;
    if (errors.empty() && row.point < probe.size()) {
      row.axis_values = &probe[row.point].axis_values;
    }
    row.record = record;
    rows.push_back(std::move(row));
  }
  return aggregate_rows(num_points, std::move(rows));
}

CampaignRun run_campaign(const CampaignSpec& campaign,
                         std::span<const CampaignInstance> instances) {
  CampaignRun run;
  run.instances.resize(instances.size());
  // One instance per index slot: results land in expansion order no
  // matter which worker ran them, so aggregation below (and the campaign
  // hash) cannot observe scheduling.
  parallel_for(0, instances.size(), [&](std::size_t i) {
    run.instances[i] =
        run_instance(compile(instances[i].spec), instances[i].seed);
  });

  std::vector<RecordRow> rows;
  rows.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    RecordRow row;
    row.point = instances[i].point;
    row.axis_values = &instances[i].axis_values;
    row.record = make_record(instances[i], run.instances[i]);
    rows.push_back(std::move(row));
  }
  CampaignSummary summary =
      aggregate_rows(campaign.num_points(), std::move(rows));
  run.points = std::move(summary.points);
  run.campaign_hash = summary.campaign_hash;
  return run;
}

}  // namespace densevlc::scenario
