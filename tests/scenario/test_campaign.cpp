// Campaign expansion and determinism.
//
// The contracts under test:
//   - expansion is point-major with instance seeds derived as
//     Rng::derive_stream_seed(base seed, expansion index);
//   - run_campaign() is bit-identical at thread counts {1, 4, hw}, for an
//     analytic campaign and the committed fault soak (fingerprints
//     compared double-for-double, not via hashes);
//   - results are independent of shard/submission order — reversed and
//     shuffled instance lists reproduce every fingerprint, the campaign
//     hash and every point aggregate exactly;
//   - summarize_records() over make_record() of a run reduces to the
//     live run's aggregates bit for bit (the benchmark replay relies on
//     this);
//   - parse_campaign() rejects malformed [campaign]/[sweep] input and
//     sweep legs that expand into invalid specs, with typed errors.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace densevlc::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A small self-contained campaign: 2 x 2 sweep, uniform drops.
const char* kSmallCampaign = R"(
[scenario]
name = unit
kind = analytic
seed = 0xBEEF

[rx]
placement = uniform
count = 2
margin = 0.4

[campaign]
instances = 3

[sweep]
rx.count = 2 | 3
grid = grid.rows=4 grid.cols=4 grid.pitch=0.6 | grid.rows=5 grid.cols=5 grid.pitch=0.5
)";

/// Bit-pattern equality (covers NaN, -0.0 and every finite value).
void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_same_points(const std::vector<PointAggregate>& got,
                        const std::vector<PointAggregate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    EXPECT_EQ(got[p].axis_values, want[p].axis_values);
    EXPECT_EQ(got[p].instance_count, want[p].instance_count);
    // Exact bits: the determinism contract is bit-identity, not tolerance.
    EXPECT_EQ(got[p].system_mbps.n, want[p].system_mbps.n);
    expect_bits_equal(got[p].system_mbps.mean, want[p].system_mbps.mean);
    expect_bits_equal(got[p].system_mbps.stddev, want[p].system_mbps.stddev);
    expect_bits_equal(got[p].system_mbps.median, want[p].system_mbps.median);
    expect_bits_equal(got[p].system_mbps.min, want[p].system_mbps.min);
    expect_bits_equal(got[p].system_mbps.max, want[p].system_mbps.max);
    expect_bits_equal(got[p].system_mbps.ci95, want[p].system_mbps.ci95);
    expect_bits_equal(got[p].p50_mbps, want[p].p50_mbps);
    expect_bits_equal(got[p].p99_mbps, want[p].p99_mbps);
    expect_bits_equal(got[p].p999_mbps, want[p].p999_mbps);
    expect_bits_equal(got[p].mean_jain, want[p].mean_jain);
    expect_bits_equal(got[p].mean_power_w, want[p].mean_power_w);
    expect_bits_equal(got[p].mean_txs, want[p].mean_txs);
    EXPECT_EQ(got[p].point_hash, want[p].point_hash);
  }
}

/// The instances in a deterministically shuffled submission order.
std::vector<CampaignInstance> shuffled(
    const std::vector<CampaignInstance>& instances) {
  std::vector<CampaignInstance> out = instances;
  Rng rng{42};
  for (std::size_t i = out.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(i)));
    std::swap(out[i - 1], out[std::min(j, i - 1)]);
  }
  return out;
}

TEST(Campaign, ExpansionIsPointMajorWithStreamSeeds) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  const CampaignSpec& campaign = *parsed.campaign;
  EXPECT_EQ(campaign.num_points(), 4u);
  EXPECT_EQ(campaign.num_instances(), 12u);

  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(campaign, 3, instances).empty());
  ASSERT_EQ(instances.size(), 12u);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i].index, i);
    EXPECT_EQ(instances[i].point, i / 3);
    EXPECT_EQ(instances[i].rep, i % 3);
    EXPECT_EQ(instances[i].seed, Rng::derive_stream_seed(0xBEEF, i));
  }
  // First axis (rx.count) outermost, second axis (grid) innermost.
  EXPECT_EQ(instances[0].spec.rx_count, 2u);
  EXPECT_EQ(instances[0].spec.grid_rows, 4u);
  EXPECT_EQ(instances[3].spec.rx_count, 2u);
  EXPECT_EQ(instances[3].spec.grid_rows, 5u);
  EXPECT_EQ(instances[6].spec.rx_count, 3u);
  EXPECT_EQ(instances[6].spec.grid_rows, 4u);
  EXPECT_EQ(instances[9].spec.rx_count, 3u);
  EXPECT_EQ(instances[9].spec.grid_rows, 5u);
}

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  // The small analytic campaign, plus the committed fault soak at one
  // instance per point, whose per-link probe_matrix noise streams must
  // not depend on which worker runs the instance.
  const struct {
    CampaignParseResult parsed;
    std::size_t per_point;
  } inputs[] = {
      {parse_campaign(kSmallCampaign), 3},
      {load_campaign_file(std::string{DVLC_SCENARIO_DIR} + "/ext_faults.ini"),
       1},
  };
  std::vector<std::size_t> thread_counts{1, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(),
                hardware_threads()) == thread_counts.end()) {
    thread_counts.push_back(hardware_threads());
  }
  for (const auto& input : inputs) {
    ASSERT_TRUE(input.parsed.ok()) << input.parsed.error_text();
    const CampaignSpec& campaign = *input.parsed.campaign;
    SCOPED_TRACE("campaign " + campaign.base.name);
    std::vector<CampaignInstance> instances;
    ASSERT_TRUE(expand_campaign(campaign, input.per_point, instances).empty());

    CampaignRun reference;
    for (std::size_t threads : thread_counts) {
      set_global_threads(threads);
      CampaignRun run = run_campaign(campaign, instances);
      if (threads == thread_counts.front()) {
        reference = std::move(run);
        continue;
      }
      SCOPED_TRACE("threads = " + std::to_string(threads));
      ASSERT_EQ(run.instances.size(), reference.instances.size());
      for (std::size_t i = 0; i < run.instances.size(); ++i) {
        // Exact doubles, not hashes: any drift must be visible here.
        EXPECT_EQ(run.instances[i].fingerprint,
                  reference.instances[i].fingerprint)
            << "instance " << i;
      }
      EXPECT_EQ(run.campaign_hash, reference.campaign_hash);
      ASSERT_EQ(run.points.size(), reference.points.size());
      for (std::size_t p = 0; p < run.points.size(); ++p) {
        EXPECT_EQ(run.points[p].point_hash, reference.points[p].point_hash);
        EXPECT_EQ(run.points[p].system_mbps.mean,
                  reference.points[p].system_mbps.mean);
        EXPECT_EQ(run.points[p].p99_mbps, reference.points[p].p99_mbps);
      }
    }
  }
  set_global_threads(0);
}

TEST(Campaign, ShardOrderIndependent) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());

  const CampaignRun forward = run_campaign(*parsed.campaign, instances);

  // Reversed submission order.
  std::vector<CampaignInstance> reversed{instances.rbegin(),
                                         instances.rend()};
  const CampaignRun rev_run = run_campaign(*parsed.campaign, reversed);
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    EXPECT_EQ(rev_run.instances[i].fingerprint,
              forward.instances[reversed[i].index].fingerprint);
  }
  // The aggregates are reduced in expansion-index order, so they must not
  // see the submission order either.
  EXPECT_EQ(rev_run.campaign_hash, forward.campaign_hash);
  expect_same_points(rev_run.points, forward.points);

  // Deterministically shuffled submission order.
  const std::vector<CampaignInstance> shuf = shuffled(instances);
  const CampaignRun shuf_run = run_campaign(*parsed.campaign, shuf);
  for (std::size_t i = 0; i < shuf.size(); ++i) {
    EXPECT_EQ(shuf_run.instances[i].fingerprint,
              forward.instances[shuf[i].index].fingerprint);
  }
  EXPECT_EQ(shuf_run.campaign_hash, forward.campaign_hash);
  expect_same_points(shuf_run.points, forward.points);
}

TEST(Campaign, SummaryFromRecordsMatchesLiveRun) {
  // The benchmark replay rebuilds its campaign hash through make_record
  // and summarize_records; that reduction must agree with run_campaign
  // bit for bit, whatever order the records arrive in.
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const CampaignRun forward = run_campaign(*parsed.campaign, instances);

  const std::vector<CampaignInstance> shuf = shuffled(instances);
  const CampaignRun shuf_run = run_campaign(*parsed.campaign, shuf);
  std::vector<InstanceRecord> records;
  for (std::size_t i = 0; i < shuf.size(); ++i) {
    records.push_back(make_record(shuf[i], shuf_run.instances[i]));
    EXPECT_EQ(records.back().index, shuf[i].index);
    EXPECT_EQ(records.back().seed, shuf[i].seed);
  }

  const CampaignSummary summary =
      summarize_records(*parsed.campaign, 3, std::move(records));
  EXPECT_EQ(summary.campaign_hash, forward.campaign_hash);
  EXPECT_EQ(summary.instance_count, instances.size());
  expect_same_points(summary.points, forward.points);
}

TEST(Campaign, QuickFlagshipCampaignParsesAndScales) {
  const std::string text =
      read_file(std::string{DVLC_SCENARIO_DIR} + "/campaign_quick.ini");
  const auto parsed = parse_campaign(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  // The acceptance shape: 10 sweep points x 100 = 1000 full instances.
  EXPECT_EQ(parsed.campaign->num_points(), 10u);
  EXPECT_EQ(parsed.campaign->instances_per_point, 100u);
  EXPECT_EQ(parsed.campaign->num_instances(), 1000u);
  EXPECT_EQ(parsed.campaign->quick_instances_per_point, 4u);

  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 1, instances).empty());
  EXPECT_EQ(instances.size(), 10u);
}

TEST(Campaign, QuickAnalyticHashIsPinned) {
  // The flagship analytic campaign at its quick size, bit for bit: the
  // channel geometry, the SJR ranking, the assignment and the throughput
  // all feed this hash.
  const auto parsed = parse_campaign(
      read_file(std::string{DVLC_SCENARIO_DIR} + "/campaign_quick.ini"));
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign,
                              parsed.campaign->quick_instances_per_point,
                              instances)
                  .empty());
  const CampaignRun run = run_campaign(*parsed.campaign, instances);
  EXPECT_EQ(run.campaign_hash, 9958461735707640358ULL);
}

TEST(Campaign, AggregatesMatchInstanceResults) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const CampaignRun run = run_campaign(*parsed.campaign, instances);
  ASSERT_EQ(run.points.size(), 4u);
  for (std::size_t p = 0; p < run.points.size(); ++p) {
    EXPECT_EQ(run.points[p].instance_count, 3u);
    double sum = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].point == p) sum += run.instances[i].system_mbps;
    }
    EXPECT_DOUBLE_EQ(run.points[p].system_mbps.mean, sum / 3.0);
    EXPECT_GT(run.points[p].system_mbps.mean, 0.0);
  }
}

TEST(Campaign, RejectsUnknownCampaignKey) {
  const auto parsed = parse_campaign(
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[campaign]\nrepeats = 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_text().find("campaign.repeats"), std::string::npos);
}

TEST(Campaign, LeadingZeroInstanceCountIsDecimal) {
  const std::string head =
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[campaign]\ninstances = ";
  const auto parsed = parse_campaign(head + "010\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign,
                              parsed.campaign->instances_per_point, instances)
                  .empty());
  EXPECT_EQ(instances.size(), 10u);

  for (const char* bad : {"-1", "+10", "1e1"}) {
    const auto rejected = parse_campaign(head + bad + "\n");
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.error_text().find("campaign.instances"),
              std::string::npos);
  }
}

TEST(Campaign, RejectsBadSweepLeg) {
  // Second leg sweeps the grid beyond the room: typed sweep-point error.
  const auto parsed = parse_campaign(
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[sweep]\ngrid.rows = 4 | 99\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_text().find("grid.rows"), std::string::npos);
}

TEST(Campaign, RejectsDuplicateAxisAndEmptyLeg) {
  const auto dup = parse_campaign(
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[sweep]\nrx.count = 2 | 3\nrx.count = 4\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.error_text().find("duplicate"), std::string::npos);

  const auto empty = parse_campaign(
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[sweep]\nrx.count = 2 | | 3\n");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error_text().find("empty sweep value"), std::string::npos);
}

TEST(Campaign, SyntaxErrorsNameTheFileLine) {
  // A malformed line reports the line it sits on in the file, whether
  // it follows [campaign]/[sweep] inside them or in a scenario section.
  const std::string head =
      "[scenario]\n"           // 1
      "name = t\n"             // 2
      "[rx]\n"                 // 3
      "placement = uniform\n"  // 4
      "count = 2\n"            // 5
      "[campaign]\n"           // 6
      "instances = 2\n"        // 7
      "[sweep]\n"              // 8
      "rx.count = 2 | 3\n";    // 9
  const auto in_sweep = parse_campaign(head + "grid.rows 4\n");
  ASSERT_EQ(in_sweep.errors.size(), 1u) << in_sweep.error_text();
  EXPECT_EQ(in_sweep.errors[0].to_string(),
            "<syntax>: line 10: expected key = value");
  const auto in_scenario = parse_campaign(head + "[grid]\nrows 4\n");
  ASSERT_EQ(in_scenario.errors.size(), 1u) << in_scenario.error_text();
  EXPECT_EQ(in_scenario.errors[0].to_string(),
            "<syntax>: line 11: expected key = value");
}

TEST(Campaign, OnlyItsOwnSectionsHoldCampaignKeys) {
  // A dotted key before any header is a scenario key, even when it reads
  // like a sweep axis, so parse_campaign and spec_diff agree on what a
  // campaign file is: one with a [campaign] or [sweep] section.
  const auto parsed = parse_campaign(
      "sweep.system.kappa = 1.0 | 2.0\n"
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n");
  ASSERT_EQ(parsed.errors.size(), 1u) << parsed.error_text();
  EXPECT_EQ(parsed.errors[0].to_string(),
            "sweep.system.kappa: unknown scenario key");
}

TEST(Campaign, LoadCampaignFileMissingPathIsTypedError) {
  const std::string path = "/nonexistent_dvlc_dir/missing_campaign.ini";
  const auto result = load_campaign_file(path);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].key, path);
  EXPECT_NE(result.errors[0].message.find("missing or unreadable"),
            std::string::npos)
      << result.error_text();
}

TEST(Campaign, LoadCampaignFileDirectoryIsTypedError) {
  const std::string path = DVLC_SCENARIO_DIR;
  const auto result = load_campaign_file(path);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].key, path);
  EXPECT_NE(result.errors[0].message.find("cannot read"), std::string::npos)
      << result.error_text();
}

TEST(Campaign, LoadCampaignFileReadsCommittedCampaign) {
  const auto result = load_campaign_file(
      std::string{DVLC_SCENARIO_DIR} + "/campaign_quick.ini");
  ASSERT_TRUE(result.ok()) << result.error_text();
  EXPECT_EQ(result.campaign->num_points(), 10u);
}

TEST(Campaign, RejectsSweepPointThatExpandsInvalid) {
  // Each leg is fine syntactically, but mounting at 0.5 m puts the
  // luminaires below the default 0.8 m receiver plane.
  const auto parsed = parse_campaign(
      "[scenario]\nname = t\n[rx]\nplacement = uniform\ncount = 2\n"
      "[sweep]\ngrid.mount_height = 2.8 | 0.5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error_text().find("sweep point 1"), std::string::npos);
}

}  // namespace
}  // namespace densevlc::scenario
