#include "scenario/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace densevlc::scenario {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return v;
}

/// Splits an axis value on '|' into trimmed legs.
std::vector<std::string> split_legs(const std::string& value) {
  std::vector<std::string> legs;
  std::size_t start = 0;
  while (true) {
    const auto bar = value.find('|', start);
    legs.push_back(trim(value.substr(
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

namespace fs = std::filesystem;

/// FNV-1a continuation over a byte string (for campaign_identity).
std::uint64_t fnv1a_text(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Journal payload tags. The header is always the first record of a
// shard journal and binds the file to one campaign; instance records
// follow in completion order.
constexpr std::uint8_t kTagHeader = 0x01;
constexpr std::uint8_t kTagInstance = 0x02;

/// "DVLCCAMP" read back as a little-endian u64.
constexpr std::uint64_t kJournalMagic = 0x504D414343564C44ULL;
constexpr std::uint64_t kJournalVersion = 1;

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * byte)) & 0xffU));
  }
}

std::uint64_t get_u64le(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int byte = 0; byte < 8; ++byte) {
    v |= static_cast<std::uint64_t>(in[byte]) << (8 * byte);
  }
  return v;
}

struct JournalHeader {
  std::uint64_t campaign_id = 0;
  std::uint64_t num_instances = 0;
};

std::vector<std::uint8_t> encode_header(std::uint64_t campaign_id,
                                        std::uint64_t num_instances) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 4 * 8);
  out.push_back(kTagHeader);
  put_u64le(out, kJournalMagic);
  put_u64le(out, kJournalVersion);
  put_u64le(out, campaign_id);
  put_u64le(out, num_instances);
  return out;
}

std::optional<JournalHeader> decode_header(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != 1 + 4 * 8 || payload[0] != kTagHeader) {
    return std::nullopt;
  }
  if (get_u64le(payload.data() + 1) != kJournalMagic) return std::nullopt;
  if (get_u64le(payload.data() + 9) != kJournalVersion) return std::nullopt;
  JournalHeader header;
  header.campaign_id = get_u64le(payload.data() + 17);
  header.num_instances = get_u64le(payload.data() + 25);
  return header;
}

/// One aggregation row: a durable record plus its sweep-point identity.
/// run_campaign() and summarize_records() both reduce through
/// aggregate_rows so a live run and a journal replay cannot diverge.
struct RecordRow {
  std::size_t point = 0;
  const std::vector<std::pair<std::string, std::string>>* axis_values =
      nullptr;
  InstanceRecord record;
};

CampaignSummary aggregate_rows(std::size_t num_points,
                               std::vector<RecordRow> rows) {
  // Index order is the canonical reduction order: it is what every
  // shard split, thread count, and crash/resume history reassembles to.
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

std::string CampaignParseResult::error_text() const {
  std::string out;
  for (const SpecError& e : errors) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

CampaignParseResult parse_campaign(const std::string& text) {
  CampaignParseResult result;
  CampaignSpec campaign;

  // Split the file by section: [campaign] and [sweep] are consumed here
  // (line order preserved — axis declaration order IS the sweep-point
  // enumeration order); everything else is scenario schema and goes to
  // parse_spec verbatim. The line handling mirrors IniConfig::parse.
  std::string spec_text;
  std::istringstream in{text};
  std::string raw;
  std::string section;
  bool quick_set = false;
  while (std::getline(in, raw)) {
    std::string line = raw;
    const auto comment = line.find_first_of(";#");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (!line.empty() && line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
    }
    if (section != "campaign" && section != "sweep") {
      spec_text += raw;
      spec_text += '\n';
      continue;
    }
    if (line.empty() || line.front() == '[') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      result.errors.push_back(
          {"<syntax>", "[" + section + "] line without '=': " + line});
      continue;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      result.errors.push_back({"<syntax>", "[" + section + "] empty key"});
      continue;
    }

    if (section == "campaign") {
      const auto v = parse_u64(value);
      if (key == "instances") {
        if (!v || *v < 1 || *v > 1000000) {
          result.errors.push_back(
              {"campaign.instances",
               "instances per point must be in [1, 1000000]"});
        } else {
          campaign.instances_per_point = static_cast<std::size_t>(*v);
        }
      } else if (key == "quick_instances") {
        if (!v || *v < 1 || *v > 1000000) {
          result.errors.push_back(
              {"campaign.quick_instances",
               "quick instances per point must be in [1, 1000000]"});
        } else {
          campaign.quick_instances_per_point = static_cast<std::size_t>(*v);
          quick_set = true;
        }
      } else {
        result.errors.push_back(
            {"campaign." + key, "unknown campaign key"});
      }
      continue;
    }

    // [sweep]
    const auto dup =
        std::find_if(campaign.axes.begin(), campaign.axes.end(),
                     [&](const CampaignAxis& a) { return a.key == key; });
    if (dup != campaign.axes.end()) {
      result.errors.push_back({"sweep." + key, "duplicate sweep axis"});
      continue;
    }
    CampaignAxis axis;
    axis.key = key;
    axis.values = split_legs(value);
    for (const std::string& leg : axis.values) {
      if (leg.empty()) {
        result.errors.push_back(
            {"sweep." + key, "empty sweep value (check stray '|')"});
      }
    }
    campaign.axes.push_back(std::move(axis));
  }

  SpecParseResult base = parse_spec(spec_text);
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
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    CampaignParseResult result;
    result.errors.push_back(
        {path, "cannot open campaign file (missing or unreadable)"});
    return result;
  }
  std::string text{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  if (in.bad()) {
    CampaignParseResult result;
    result.errors.push_back({path, "read error while loading campaign file"});
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

std::vector<std::uint8_t> encode_instance_record(const InstanceRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + 7 * 8);
  out.push_back(kTagInstance);
  put_u64le(out, record.index);
  put_u64le(out, record.seed);
  put_u64le(out, record.fingerprint_hash);
  put_u64le(out, std::bit_cast<std::uint64_t>(record.system_mbps));
  put_u64le(out, std::bit_cast<std::uint64_t>(record.jain));
  put_u64le(out, std::bit_cast<std::uint64_t>(record.power_used_w));
  put_u64le(out, std::bit_cast<std::uint64_t>(record.txs_assigned));
  return out;
}

std::optional<InstanceRecord> decode_instance_record(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != 1 + 7 * 8 || payload[0] != kTagInstance) {
    return std::nullopt;
  }
  InstanceRecord record;
  record.index = get_u64le(payload.data() + 1);
  record.seed = get_u64le(payload.data() + 9);
  record.fingerprint_hash = get_u64le(payload.data() + 17);
  record.system_mbps = std::bit_cast<double>(get_u64le(payload.data() + 25));
  record.jain = std::bit_cast<double>(get_u64le(payload.data() + 33));
  record.power_used_w = std::bit_cast<double>(get_u64le(payload.data() + 41));
  record.txs_assigned = std::bit_cast<double>(get_u64le(payload.data() + 49));
  return record;
}

std::uint64_t campaign_identity(const CampaignSpec& campaign,
                                std::size_t instances_per_point) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a_text(h, serialize_spec(campaign.base));
  for (const CampaignAxis& axis : campaign.axes) {
    h = fnv1a_text(h, "\naxis=" + axis.key);
    for (const std::string& value : axis.values) {
      h = fnv1a_text(h, "|" + value);
    }
  }
  h = fnv1a_text(h, "\nper_point=" + std::to_string(instances_per_point));
  return h;
}

std::string shard_journal_path(const std::string& dir, std::size_t shard) {
  return (fs::path{dir} / ("journal-" + std::to_string(shard) + ".dvlcj"))
      .string();
}

std::uint64_t campaign_backoff_ms(std::size_t attempt) {
  constexpr std::uint64_t kBaseMs = 100;
  constexpr std::uint64_t kCapMs = 5000;
  std::uint64_t ms = kBaseMs;
  for (std::size_t i = 0; i < attempt && ms < kCapMs; ++i) ms *= 2;
  return std::min(ms, kCapMs);
}

CampaignJournal::CampaignJournal(journal::JournalWriter writer)
    : writer_{std::move(writer)} {}

CampaignJournal::Open CampaignJournal::open(const std::string& dir,
                                            std::size_t shard,
                                            std::uint64_t campaign_id,
                                            std::uint64_t num_instances,
                                            bool resume,
                                            std::size_t fsync_every) {
  Open out;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    out.error = "cannot create campaign directory " + dir + ": " +
                ec.message();
    return out;
  }
  const std::string path = shard_journal_path(dir, shard);

  // Recover whatever a previous process left: intact records survive, a
  // corrupt or torn tail is measured here and physically truncated away
  // when the writer reopens at the valid prefix length below.
  journal::JournalRecovery recovery = journal::read_journal(path);
  out.dropped_bytes = recovery.dropped_bytes;
  bool need_header = true;
  if (!recovery.records.empty()) {
    const auto header = decode_header(recovery.records.front());
    if (!header) {
      out.error = path + ": first record is not a campaign journal header";
      return out;
    }
    if (header->campaign_id != campaign_id ||
        header->num_instances != num_instances) {
      out.error = path + ": journal belongs to a different campaign "
                         "(identity mismatch — wrong file, or a --quick "
                         "journal resumed without --quick?)";
      return out;
    }
    need_header = false;
    for (std::size_t i = 1; i < recovery.records.size(); ++i) {
      const auto record = decode_instance_record(recovery.records[i]);
      if (!record || record->index >= num_instances) {
        out.error = path + ": intact record " + std::to_string(i) +
                    " is not a valid instance record";
        return out;
      }
      out.recovered.push_back(*record);
    }
    if (!resume && !out.recovered.empty()) {
      out.error = path + ": journal already holds " +
                  std::to_string(out.recovered.size()) +
                  " instance records; resume it explicitly instead of "
                  "overwriting finished work";
      return out;
    }
  }

  auto writer =
      journal::JournalWriter::open(path, recovery.valid_bytes, fsync_every);
  if (!writer) {
    out.error = path + ": cannot open journal for append";
    return out;
  }
  std::unique_ptr<CampaignJournal> sink{
      new CampaignJournal{std::move(*writer)}};
  if (need_header) {
    const std::vector<std::uint8_t> header =
        encode_header(campaign_id, num_instances);
    if (!sink->writer_.append(header) || !sink->writer_.flush()) {
      out.error = path + ": cannot write journal header";
      return out;
    }
  }
  out.campaign_journal = std::move(sink);
  return out;
}

void CampaignJournal::set_crash_after(std::size_t count) {
  std::lock_guard<std::mutex> lock{mu_};
  crash_after_ = count;
}

void CampaignJournal::on_result(const CampaignInstance& instance,
                                const InstanceResult& result) {
  const std::vector<std::uint8_t> payload =
      encode_instance_record(make_record(instance, result));
  std::lock_guard<std::mutex> lock{mu_};
  if (!writer_.append(payload)) {
    ok_ = false;
    return;
  }
  ++written_;
  if (crash_after_ != 0) {
    // Crash injection wants an exact, durable crash point: sync every
    // record, then die without unwinding — exactly like a real SIGKILL.
    if (!writer_.flush()) ok_ = false;
    if (written_ >= crash_after_) {
#ifdef SIGKILL
      (void)std::raise(SIGKILL);
#endif
      std::_Exit(137);
    }
  }
}

bool CampaignJournal::flush() {
  std::lock_guard<std::mutex> lock{mu_};
  return writer_.flush();
}

CampaignRecovery recover_campaign_dir(const std::string& dir,
                                      std::uint64_t campaign_id,
                                      std::uint64_t num_instances) {
  CampaignRecovery out;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    out.errors.push_back("campaign directory not found: " + dir);
    return out;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 && name.size() > 6 &&
        name.substr(name.size() - 6) == ".dvlcj") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    out.errors.push_back("cannot scan campaign directory " + dir + ": " +
                         ec.message());
    return out;
  }
  std::sort(paths.begin(), paths.end());

  std::map<std::uint64_t, InstanceRecord> by_index;
  for (const std::string& path : paths) {
    journal::JournalRecovery recovery = journal::read_journal(path);
    ++out.journal_files;
    out.dropped_bytes += recovery.dropped_bytes;
    if (recovery.records.empty()) continue;
    const auto header = decode_header(recovery.records.front());
    if (!header) {
      out.errors.push_back(path + ": first record is not a campaign "
                                  "journal header");
      continue;
    }
    if (header->campaign_id != campaign_id ||
        header->num_instances != num_instances) {
      out.errors.push_back(path +
                           ": journal belongs to a different campaign "
                           "(identity mismatch)");
      continue;
    }
    for (std::size_t i = 1; i < recovery.records.size(); ++i) {
      const auto record = decode_instance_record(recovery.records[i]);
      if (!record || record->index >= num_instances) {
        out.errors.push_back(path + ": intact record " + std::to_string(i) +
                             " is not a valid instance record");
        continue;
      }
      const auto [it, inserted] = by_index.emplace(record->index, *record);
      // Byte-equal duplicates are legal: a requeued shard re-runs the
      // tail its dead predecessor had already journaled, and the PR 7
      // seed contract makes the rerun bit-identical. A *different*
      // record under the same index means mixed campaigns — fatal.
      if (!inserted && encode_instance_record(it->second) !=
                           encode_instance_record(*record)) {
        out.errors.push_back(path +
                             ": conflicting duplicate record for instance " +
                             std::to_string(record->index));
      }
    }
  }
  out.records.reserve(by_index.size());
  for (const auto& [index, record] : by_index) out.records.push_back(record);
  return out;
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
  return run_campaign(campaign, instances, CampaignRunOptions{});
}

CampaignRun run_campaign(const CampaignSpec& campaign,
                         std::span<const CampaignInstance> instances,
                         const CampaignRunOptions& options) {
  CampaignRun run;
  run.instances.resize(instances.size());
  // One instance per index slot: results land in expansion order no
  // matter which worker ran them, so aggregation below (and the campaign
  // hash) cannot observe scheduling. The journal sink serialises
  // appends internally; completion *order* on disk is
  // scheduling-dependent, which is fine — records are keyed by expansion
  // index and reduced in index order.
  parallel_for(0, instances.size(), [&](std::size_t i) {
    run.instances[i] =
        run_instance(compile(instances[i].spec), instances[i].seed);
    if (options.campaign_journal != nullptr) {
      options.campaign_journal->on_result(instances[i], run.instances[i]);
    }
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
