// Monte-Carlo campaign runner.
//
// Loads a campaign file (scenario schema + [campaign]/[sweep] sections),
// expands the sweep grid into seeded instances, shards them across the
// deterministic thread pool and streams per-point aggregates (mean, 95%
// CI, p50/p99/p999 tails) into BENCH_campaign.json.
//
// Determinism gates, enforced by the ctest campaign wrappers:
//   - the whole campaign re-runs at every thread count in the sweep list
//     and the per-instance fingerprints must agree bit for bit
//     (MISMATCH otherwise);
//   - the instance list re-runs in reverse submission order and each
//     instance must reproduce its fingerprint exactly — results are a
//     pure function of (campaign file, instance index), never of
//     submission order (MISMATCH otherwise).
//
// Usage:
//   campaign [--quick] [--threads n[,n...]] <campaign.ini> [out.json]
//
// --threads takes a comma-separated list of positive thread counts
// (default: 1, 4 and the hardware thread count); the first is the
// reference run.
#include <algorithm>
#include <charconv>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "scenario/campaign.hpp"

namespace {

using namespace densevlc;

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

/// "rx.count=4 grid=..." — the sweep point's coordinates, for humans.
std::string axis_label(
    const std::vector<std::pair<std::string, std::string>>& axis_values) {
  if (axis_values.empty()) return "-";
  std::string out;
  for (const auto& [key, value] : axis_values) {
    if (!out.empty()) out += "  ";
    // Multi-key legs already spell out key=value pairs.
    if (value.find('=') != std::string::npos) {
      out += value;
    } else {
      out += key + "=" + value;
    }
  }
  return out;
}

/// Fingerprint hashes keyed by expansion index, whatever order ran.
std::vector<std::uint64_t> hashes_by_index(
    std::span<const scenario::CampaignInstance> instances,
    const scenario::CampaignRun& run) {
  std::vector<std::uint64_t> hashes(instances.size(), 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    hashes[instances[i].index] = run.instances[i].fingerprint_hash();
  }
  return hashes;
}

void print_points_table(std::span<const scenario::PointAggregate> points) {
  TablePrinter table{{"sweep point", "n", "mean [Mbit/s]", "ci95", "p50",
                      "p99", "p999", "Jain", "TXs"}};
  for (const auto& point : points) {
    table.add_row({axis_label(point.axis_values),
                   std::to_string(point.instance_count),
                   fmt(point.system_mbps.mean, 2),
                   fmt(point.system_mbps.ci95, 2), fmt(point.p50_mbps, 2),
                   fmt(point.p99_mbps, 2), fmt(point.p999_mbps, 2),
                   fmt(point.mean_jain, 3), fmt(point.mean_txs, 1)});
  }
  table.print(std::cout);
  table.print_csv(std::cout, "campaign");
}

/// The BENCH_campaign.json document for one finished campaign.
bench::Json build_doc(const scenario::CampaignSpec& campaign, bool quick,
                      std::size_t per_point, std::size_t num_instances,
                      std::uint64_t campaign_hash,
                      std::span<const scenario::PointAggregate> points) {
  bench::Json doc = bench::Json::object();
  doc.set("bench", "campaign");
  doc.set("name", campaign.base.name);
  doc.set("quick", quick);
  doc.set("instances_per_point", per_point);
  doc.set("num_instances", num_instances);
  doc.set("campaign_hash", hex64(campaign_hash));
  bench::Json points_json = bench::Json::array();
  for (const auto& point : points) {
    bench::Json entry = bench::Json::object();
    bench::Json axes = bench::Json::object();
    for (const auto& [key, value] : point.axis_values) {
      axes.set(key, value);
    }
    entry.set("axes", std::move(axes));
    entry.set("n", point.instance_count);
    entry.set("mean_mbps", point.system_mbps.mean);
    entry.set("stddev_mbps", point.system_mbps.stddev);
    entry.set("ci95_mbps", point.system_mbps.ci95);
    entry.set("min_mbps", point.system_mbps.min);
    entry.set("max_mbps", point.system_mbps.max);
    entry.set("p50_mbps", point.p50_mbps);
    entry.set("p99_mbps", point.p99_mbps);
    entry.set("p999_mbps", point.p999_mbps);
    entry.set("mean_jain", point.mean_jain);
    entry.set("mean_power_w", point.mean_power_w);
    entry.set("mean_txs", point.mean_txs);
    entry.set("point_hash", hex64(point.point_hash));
    points_json.push(std::move(entry));
  }
  doc.set("points", std::move(points_json));
  return doc;
}

struct Options {
  bool quick = false;
  std::vector<std::size_t> thread_counts;
  std::string spec_path;
  std::string out_path = "BENCH_campaign.json";
  bool bad = false;
};

/// Parses "n[,n...]": every entry must be a whole positive decimal
/// number. An empty entry, a sign, a non-digit or 0 is rejected — a
/// silent 0 would mean "hardware threads" to set_global_threads().
bool parse_thread_list(const std::string& text,
                       std::vector<std::size_t>& out) {
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    std::size_t value = 0;
    const char* first = text.data() + start;
    const char* last = text.data() + end;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (first == last || ec != std::errc{} || ptr != last || value == 0) {
      return false;
    }
    out.push_back(value);
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc || !parse_thread_list(argv[++i], opt.thread_counts)) {
        opt.bad = true;
      }
    } else if (arg.rfind("--", 0) == 0) {
      opt.bad = true;  // unknown option
    } else if (positional == 0) {
      opt.spec_path = arg;
      ++positional;
    } else if (positional == 1) {
      opt.out_path = arg;
      ++positional;
    } else {
      opt.bad = true;  // at most <campaign.ini> [out.json]
    }
  }
  if (opt.spec_path.empty()) opt.bad = true;
  return opt;
}

int usage() {
  std::cerr << "usage: campaign [--quick] [--threads n[,n...]] "
               "<campaign.ini> [out.json]\n"
               "  --threads: comma-separated positive thread counts\n";
  return 2;
}

/// Thread-count sweep + reversed-submission check, exactly as the
/// determinism gates expect.
int run_sweep(const Options& opt, const scenario::CampaignSpec& campaign,
              std::size_t per_point,
              std::span<const scenario::CampaignInstance> instances) {
  std::vector<std::size_t> thread_counts = opt.thread_counts;
  if (thread_counts.empty()) {
    thread_counts = {1, 4};
    if (std::find(thread_counts.begin(), thread_counts.end(),
                  hardware_threads()) == thread_counts.end()) {
      thread_counts.push_back(hardware_threads());
    }
  }

  // Run at every thread count; the first run is the reference.
  scenario::CampaignRun run;
  std::vector<std::uint64_t> reference_hashes;
  bool bit_identical = true;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    set_global_threads(thread_counts[t]);
    scenario::CampaignRun r = scenario::run_campaign(campaign, instances);
    const auto hashes = hashes_by_index(instances, r);
    if (t == 0) {
      reference_hashes = hashes;
      run = std::move(r);
    } else if (hashes != reference_hashes) {
      bit_identical = false;
    }
  }

  // Submission-order independence: resubmit the same instances in reverse
  // order; every instance must reproduce its fingerprint.
  std::vector<scenario::CampaignInstance> reversed{instances.rbegin(),
                                                   instances.rend()};
  set_global_threads(thread_counts.back());
  const scenario::CampaignRun reversed_run =
      scenario::run_campaign(campaign, reversed);
  const bool order_independent =
      hashes_by_index(reversed, reversed_run) == reference_hashes;
  set_global_threads(0);  // restore the default

  print_points_table(run.points);

  std::cout << "\ncampaign hash: " << hex64(run.campaign_hash)
            << "\ndeterminism: "
            << (bit_identical
                    ? "fingerprints bit-identical at all thread counts"
                    : "MISMATCH across thread counts")
            << "\nshard order: "
            << (order_independent ? "results independent of submission order"
                                  : "MISMATCH under reversed submission")
            << '\n';

  const bench::Json doc =
      build_doc(campaign, opt.quick, per_point, instances.size(),
                run.campaign_hash, run.points);
  if (!bench::write_json_file(opt.out_path, doc)) {
    std::cerr << "failed to write " << opt.out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << opt.out_path << '\n';
  return bit_identical && order_independent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (opt.bad) return usage();

  const auto parsed = scenario::load_campaign_file(opt.spec_path);
  if (!parsed.ok()) {
    std::cerr << "invalid campaign " << opt.spec_path << ":\n"
              << parsed.error_text();
    return 2;
  }
  const scenario::CampaignSpec& campaign = *parsed.campaign;
  const std::size_t per_point = opt.quick
                                    ? campaign.quick_instances_per_point
                                    : campaign.instances_per_point;

  std::vector<scenario::CampaignInstance> instances;
  const auto expand_errors =
      scenario::expand_campaign(campaign, per_point, instances);
  if (!expand_errors.empty()) {
    for (const auto& e : expand_errors) std::cerr << e.to_string() << '\n';
    return 2;
  }

  std::cout << "Campaign " << campaign.base.name << ": "
            << campaign.num_points() << " sweep points x " << per_point
            << " instances = " << instances.size() << " runs"
            << (opt.quick ? " (quick mode)" : "") << "\n\n";

  return run_sweep(opt, campaign, per_point, instances);
}
