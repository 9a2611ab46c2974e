// Campaign expansion and determinism.
//
// The contracts under test:
//   - expansion is point-major with instance seeds derived as
//     Rng::derive_stream_seed(base seed, expansion index);
//   - run_campaign() is bit-identical at thread counts {1, 4, hw}, for an
//     analytic campaign and the committed fault soak (fingerprints
//     compared double-for-double, not via hashes);
//   - results are independent of shard/submission order — reversed and
//     shuffled instance lists reproduce every fingerprint exactly;
//   - parse_campaign() rejects malformed [campaign]/[sweep] input and
//     sweep legs that expand into invalid specs, with typed errors.
#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/journal.hpp"
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

  // Deterministically shuffled submission order.
  std::vector<CampaignInstance> shuffled = instances;
  Rng rng{42};
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(i)));
    std::swap(shuffled[i - 1], shuffled[std::min(j, i - 1)]);
  }
  const CampaignRun shuf_run = run_campaign(*parsed.campaign, shuffled);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    EXPECT_EQ(shuf_run.instances[i].fingerprint,
              forward.instances[shuffled[i].index].fingerprint);
  }
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

TEST(Campaign, LoadCampaignFileReadsCommittedCampaign) {
  const auto result = load_campaign_file(
      std::string{DVLC_SCENARIO_DIR} + "/campaign_quick.ini");
  ASSERT_TRUE(result.ok()) << result.error_text();
  EXPECT_EQ(result.campaign->num_points(), 10u);
}

// --- durable journal layer -------------------------------------------------

namespace fs = std::filesystem;

/// Fresh campaign directory per use (wiped up front so a failing test
/// leaves its journals behind for inspection).
std::string scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("dvlc_campaign_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::string& contents) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

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
    // Exact doubles: the resume contract is bit-identity, not tolerance.
    EXPECT_EQ(got[p].system_mbps.mean, want[p].system_mbps.mean);
    EXPECT_EQ(got[p].system_mbps.ci95, want[p].system_mbps.ci95);
    EXPECT_EQ(got[p].p50_mbps, want[p].p50_mbps);
    EXPECT_EQ(got[p].p99_mbps, want[p].p99_mbps);
    EXPECT_EQ(got[p].p999_mbps, want[p].p999_mbps);
    EXPECT_EQ(got[p].mean_jain, want[p].mean_jain);
    EXPECT_EQ(got[p].mean_power_w, want[p].mean_power_w);
    EXPECT_EQ(got[p].mean_txs, want[p].mean_txs);
    EXPECT_EQ(got[p].point_hash, want[p].point_hash);
  }
}

TEST(CampaignDurable, InstanceRecordRoundTripIsExact) {
  InstanceRecord record;
  record.index = 0xDEADBEEFCAFEULL;
  record.seed = 0x0123456789ABCDEFULL;
  record.fingerprint_hash = ~0ULL;
  record.system_mbps = -0.0;
  record.jain = std::numeric_limits<double>::quiet_NaN();
  record.power_used_w = std::numeric_limits<double>::denorm_min();
  record.txs_assigned = std::numeric_limits<double>::infinity();

  const std::vector<std::uint8_t> payload = encode_instance_record(record);
  const auto decoded = decode_instance_record(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, record.index);
  EXPECT_EQ(decoded->seed, record.seed);
  EXPECT_EQ(decoded->fingerprint_hash, record.fingerprint_hash);
  expect_bits_equal(decoded->system_mbps, record.system_mbps);
  expect_bits_equal(decoded->jain, record.jain);
  expect_bits_equal(decoded->power_used_w, record.power_used_w);
  expect_bits_equal(decoded->txs_assigned, record.txs_assigned);

  // Wrong tag or size must not decode.
  std::vector<std::uint8_t> wrong_tag = payload;
  wrong_tag[0] = 0x7F;
  EXPECT_FALSE(decode_instance_record(wrong_tag).has_value());
  std::vector<std::uint8_t> short_payload = payload;
  short_payload.pop_back();
  EXPECT_FALSE(decode_instance_record(short_payload).has_value());
}

TEST(CampaignDurable, IdentityCoversSpecAxesAndPerPoint) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  const CampaignSpec& campaign = *parsed.campaign;

  const std::uint64_t id = campaign_identity(campaign, 3);
  EXPECT_EQ(campaign_identity(campaign, 3), id);  // stable
  // A --quick run (fewer reps) is a *different* campaign.
  EXPECT_NE(campaign_identity(campaign, 2), id);

  CampaignSpec different_base = campaign;
  different_base.base.seed ^= 1;
  EXPECT_NE(campaign_identity(different_base, 3), id);

  CampaignSpec different_axis = campaign;
  different_axis.axes[0].values.push_back("4");
  EXPECT_NE(campaign_identity(different_axis, 3), id);
}

TEST(CampaignDurable, BackoffIsCappedExponential) {
  EXPECT_EQ(campaign_backoff_ms(0), 100u);
  EXPECT_EQ(campaign_backoff_ms(1), 200u);
  EXPECT_EQ(campaign_backoff_ms(2), 400u);
  EXPECT_EQ(campaign_backoff_ms(5), 3200u);
  EXPECT_EQ(campaign_backoff_ms(6), 5000u);
  EXPECT_EQ(campaign_backoff_ms(63), 5000u);  // capped, no overflow
  for (std::size_t a = 1; a < 16; ++a) {
    EXPECT_GE(campaign_backoff_ms(a), campaign_backoff_ms(a - 1));
  }
}

TEST(CampaignDurable, OpenRefusesOverwriteAndForeignIdentity) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const std::uint64_t id = campaign_identity(*parsed.campaign, 3);
  const std::string dir = scratch_dir("refuse");

  {
    auto open = CampaignJournal::open(dir, 0, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    EXPECT_TRUE(open.recovered.empty());
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    (void)run_campaign(*parsed.campaign, instances, options);
    EXPECT_TRUE(open.campaign_journal->flush());
    EXPECT_EQ(open.campaign_journal->records_written(), instances.size());
  }

  // A journal with finished work must not be silently overwritten.
  auto fresh = CampaignJournal::open(dir, 0, id, instances.size(),
                                     /*resume=*/false);
  EXPECT_EQ(fresh.campaign_journal, nullptr);
  EXPECT_NE(fresh.error.find("resume"), std::string::npos) << fresh.error;

  // A journal from a different campaign must not be resumed.
  auto foreign = CampaignJournal::open(dir, 0, id ^ 1, instances.size(),
                                       /*resume=*/true);
  EXPECT_EQ(foreign.campaign_journal, nullptr);
  EXPECT_NE(foreign.error.find("identity mismatch"), std::string::npos)
      << foreign.error;

  // The honest resume recovers every record.
  auto resume = CampaignJournal::open(dir, 0, id, instances.size(),
                                      /*resume=*/true);
  ASSERT_NE(resume.campaign_journal, nullptr) << resume.error;
  EXPECT_EQ(resume.recovered.size(), instances.size());
  EXPECT_EQ(resume.dropped_bytes, 0u);
}

TEST(CampaignDurable, SummaryFromRecordsMatchesLiveRun) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const std::uint64_t id = campaign_identity(*parsed.campaign, 3);
  const std::string dir = scratch_dir("summary");

  CampaignRun live;
  {
    auto open = CampaignJournal::open(dir, 0, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    live = run_campaign(*parsed.campaign, instances, options);
    EXPECT_TRUE(open.campaign_journal->flush());
  }

  const CampaignRecovery recovery =
      recover_campaign_dir(dir, id, instances.size());
  ASSERT_TRUE(recovery.errors.empty()) << recovery.errors.front();
  EXPECT_EQ(recovery.journal_files, 1u);
  ASSERT_EQ(recovery.records.size(), instances.size());
  // Records carry the identity the seed contract promises.
  for (std::size_t i = 0; i < recovery.records.size(); ++i) {
    EXPECT_EQ(recovery.records[i].index, i);
    EXPECT_EQ(recovery.records[i].seed, instances[i].seed);
  }

  const CampaignSummary summary =
      summarize_records(*parsed.campaign, 3, recovery.records);
  EXPECT_EQ(summary.campaign_hash, live.campaign_hash);
  EXPECT_EQ(summary.instance_count, instances.size());
  expect_same_points(summary.points, live.points);
}

/// The tentpole acceptance property: SIGKILL the worker at ANY byte of
/// the journal — frame boundaries, mid-record, mid-header — and the
/// resumed campaign reduces to the exact hash and point doubles of an
/// uninterrupted run.
TEST(CampaignDurable, ResumeIsBitIdenticalAtEveryCrashPoint) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const std::uint64_t id = campaign_identity(*parsed.campaign, 3);

  const CampaignRun reference = run_campaign(*parsed.campaign, instances);

  // One uninterrupted journaled run provides the byte stream to cut.
  const std::string full_dir = scratch_dir("crash_full");
  {
    auto open = CampaignJournal::open(full_dir, 0, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    (void)run_campaign(*parsed.campaign, instances, options);
    ASSERT_TRUE(open.campaign_journal->flush());
  }
  const std::string full = read_bytes(shard_journal_path(full_dir, 0));
  ASSERT_FALSE(full.empty());

  // Crash points: a coarse stride for coverage plus every frame
  // boundary and its neighbours (the off-by-one hot spots).
  std::set<std::size_t> cuts;
  for (std::size_t len = 0; len <= full.size(); len += 13) cuts.insert(len);
  const std::size_t header_frame = 8 + 33;
  const std::size_t record_frame = 8 + (1 + 7 * 8);
  for (std::size_t b = header_frame; b <= full.size(); b += record_frame) {
    cuts.insert(b);
    if (b > 0) cuts.insert(b - 1);
    if (b + 1 <= full.size()) cuts.insert(b + 1);
  }
  cuts.insert(full.size());

  const std::string dir = scratch_dir("crash_cut");
  for (const std::size_t len : cuts) {
    SCOPED_TRACE("crash at byte " + std::to_string(len));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    write_bytes(shard_journal_path(dir, 0), full.substr(0, len));

    auto open = CampaignJournal::open(dir, 0, id, instances.size(),
                                      /*resume=*/true);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;

    std::set<std::size_t> done;
    for (const InstanceRecord& record : open.recovered) {
      done.insert(static_cast<std::size_t>(record.index));
    }
    std::vector<CampaignInstance> todo;
    for (const CampaignInstance& inst : instances) {
      if (done.count(inst.index) == 0) todo.push_back(inst);
    }
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    (void)run_campaign(*parsed.campaign, todo, options);
    ASSERT_TRUE(open.campaign_journal->flush());
    open.campaign_journal.reset();

    const CampaignRecovery recovery =
        recover_campaign_dir(dir, id, instances.size());
    ASSERT_TRUE(recovery.errors.empty()) << recovery.errors.front();
    ASSERT_EQ(recovery.records.size(), instances.size());
    const CampaignSummary summary =
        summarize_records(*parsed.campaign, 3, recovery.records);
    EXPECT_EQ(summary.campaign_hash, reference.campaign_hash);
    expect_same_points(summary.points, reference.points);
  }
}

TEST(CampaignDurable, DisjointShardsMergeToTheFullCampaign) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const std::uint64_t id = campaign_identity(*parsed.campaign, 3);
  const CampaignRun reference = run_campaign(*parsed.campaign, instances);

  const std::string dir = scratch_dir("shards");
  for (std::size_t shard = 0; shard < 2; ++shard) {
    std::vector<CampaignInstance> mine;
    for (const CampaignInstance& inst : instances) {
      if (inst.index % 2 == shard) mine.push_back(inst);
    }
    auto open = CampaignJournal::open(dir, shard, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    (void)run_campaign(*parsed.campaign, mine, options);
    ASSERT_TRUE(open.campaign_journal->flush());
  }

  const CampaignRecovery recovery =
      recover_campaign_dir(dir, id, instances.size());
  ASSERT_TRUE(recovery.errors.empty()) << recovery.errors.front();
  EXPECT_EQ(recovery.journal_files, 2u);
  ASSERT_EQ(recovery.records.size(), instances.size());
  const CampaignSummary summary =
      summarize_records(*parsed.campaign, 3, recovery.records);
  EXPECT_EQ(summary.campaign_hash, reference.campaign_hash);
  expect_same_points(summary.points, reference.points);
}

TEST(CampaignDurable, DuplicatesToleratedConflictsFatal) {
  const auto parsed = parse_campaign(kSmallCampaign);
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  std::vector<CampaignInstance> instances;
  ASSERT_TRUE(expand_campaign(*parsed.campaign, 3, instances).empty());
  const std::uint64_t id = campaign_identity(*parsed.campaign, 3);

  // Two shards journal the WHOLE campaign each — the requeued-shard
  // overlap case. Byte-equal duplicates merge cleanly.
  const std::string dir = scratch_dir("dups");
  for (std::size_t shard = 0; shard < 2; ++shard) {
    auto open = CampaignJournal::open(dir, shard, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    CampaignRunOptions options;
    options.campaign_journal = open.campaign_journal.get();
    (void)run_campaign(*parsed.campaign, instances, options);
    ASSERT_TRUE(open.campaign_journal->flush());
  }
  CampaignRecovery recovery = recover_campaign_dir(dir, id, instances.size());
  EXPECT_TRUE(recovery.errors.empty());
  EXPECT_EQ(recovery.records.size(), instances.size());

  // A shard journaling a *different* result under an existing index is
  // corruption (or a mixed-campaign accident) and must be fatal.
  {
    auto open = CampaignJournal::open(dir, 2, id, instances.size(),
                                      /*resume=*/false);
    ASSERT_NE(open.campaign_journal, nullptr) << open.error;
    InstanceResult forged;
    forged.fingerprint = {1.0, 2.0, 3.0};
    forged.system_mbps = 999.0;
    open.campaign_journal->on_result(instances[0], forged);
    ASSERT_TRUE(open.campaign_journal->flush());
  }
  recovery = recover_campaign_dir(dir, id, instances.size());
  ASSERT_FALSE(recovery.errors.empty());
  EXPECT_NE(recovery.errors.front().find("conflicting duplicate"),
            std::string::npos)
      << recovery.errors.front();
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
