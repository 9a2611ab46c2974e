// Monte-Carlo campaign expansion and execution.
//
// A campaign file is a scenario file plus two extra sections:
//
//   [campaign]
//   instances = 20          ; seeded instances per sweep point
//   quick_instances = 2     ; optional --quick override
//
//   [sweep]
//   rx.count = 2 | 4 | 6 | 8
//   grid = grid.rows=4 grid.cols=4 grid.pitch=0.75 | grid.rows=6 ...
//
// Every [sweep] key is one axis; the cartesian product of all axes forms
// the sweep grid. An axis value is either a bare scalar (applied to the
// axis key itself) or a space-separated list of `key=value` overrides
// (for axes whose legs must move several spec fields together, like a
// grid that densifies at matching pitch). Each point is instantiated
// `instances` times; instance i of the whole campaign draws its seed as
// Rng::derive_stream_seed(base seed, i), so a result is a pure function
// of the campaign file — independent of submission order and thread
// count.
//
// run_campaign() shards instances across the deterministic thread pool
// and reduces per-point aggregates (mean, 95% CI, p50/p99/p999 tails).
// Cross-thread-count bit-identity is asserted by bench/campaign and the
// tests/scenario determinism suite.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "scenario/compile.hpp"
#include "scenario/spec.hpp"

namespace densevlc::scenario {

/// One sweep axis: a label (the INI key under [sweep]) and its values.
struct CampaignAxis {
  std::string key;                  ///< axis label / target spec key
  std::vector<std::string> values;  ///< one entry per leg
};

/// A parsed campaign: the base scenario plus the sweep grid.
struct CampaignSpec {
  ScenarioSpec base;
  std::vector<CampaignAxis> axes;        ///< cartesian product
  std::size_t instances_per_point = 1;
  std::size_t quick_instances_per_point = 2;

  /// Sweep points (1 when there are no axes).
  std::size_t num_points() const;
  /// num_points() * instances_per_point.
  std::size_t num_instances() const;
};

/// Outcome of parsing a campaign file (spec iff `errors` is empty).
struct CampaignParseResult {
  std::optional<CampaignSpec> campaign;
  std::vector<SpecError> errors;

  bool ok() const { return campaign.has_value(); }
  std::string error_text() const { return scenario::error_text(errors); }
};

/// Parses campaign INI text ([campaign] and [sweep] on top of the
/// scenario schema). Same contract as parse_spec: typed errors, no
/// silent defaulting.
[[nodiscard]] CampaignParseResult parse_campaign(const std::string& text);

/// Reads and parses a campaign file. A missing or unreadable path is a
/// typed SpecError whose key carries the path — never an empty parse.
[[nodiscard]] CampaignParseResult load_campaign_file(const std::string& path);

/// One expanded instance: the fully-overridden spec plus its identity.
struct CampaignInstance {
  std::size_t index = 0;  ///< global expansion index (seed stream id)
  std::size_t point = 0;  ///< sweep-point index
  std::size_t rep = 0;    ///< repetition within the point
  std::uint64_t seed = 0;
  ScenarioSpec spec;
  /// (axis key, value) of this instance's sweep point, in axis order.
  std::vector<std::pair<std::string, std::string>> axis_values;
};

/// Expands the sweep grid into seeded instances (point-major, reps
/// inner). Axis overrides that fail to apply or produce an invalid spec
/// become typed errors; instances are only returned when clean.
[[nodiscard]] std::vector<SpecError> expand_campaign(
    const CampaignSpec& campaign, std::size_t instances_per_point,
    std::vector<CampaignInstance>& out);

/// Aggregate statistics over one sweep point's instances.
struct PointAggregate {
  std::vector<std::pair<std::string, std::string>> axis_values;
  std::size_t instance_count = 0;
  stats::Summary system_mbps;  ///< mean/stddev/median/min/max/ci95
  double p50_mbps = 0.0;
  double p99_mbps = 0.0;
  double p999_mbps = 0.0;
  double mean_jain = 0.0;
  double mean_power_w = 0.0;
  double mean_txs = 0.0;
  std::uint64_t point_hash = 0;  ///< FNV over instance fingerprint hashes
};

/// Everything a campaign run produces.
struct CampaignRun {
  std::vector<InstanceResult> instances;  ///< submitted-span order
  std::vector<PointAggregate> points;     ///< sweep-point order
  std::uint64_t campaign_hash = 0;        ///< FNV over instance hashes
};

/// The per-instance values the aggregates consume: the instance's
/// identity plus exactly the bits aggregate_rows() reduces. Records are
/// order-free — the expansion index keys everything — so any submission
/// order reduces to the same campaign.
struct InstanceRecord {
  std::uint64_t index = 0;             ///< expansion index (seed stream id)
  std::uint64_t seed = 0;              ///< derived instance seed (sanity)
  std::uint64_t fingerprint_hash = 0;  ///< InstanceResult::fingerprint_hash
  double system_mbps = 0.0;
  double jain = 0.0;
  double power_used_w = 0.0;
  double txs_assigned = 0.0;
};

/// The record of one instance's result.
InstanceRecord make_record(const CampaignInstance& instance,
                           const InstanceResult& result);

/// Per-point aggregates + campaign hash rebuilt from records alone
/// (sorted by expansion index, so the result is independent of
/// submission order and thread count). run_campaign() reduces through
/// the same code, so the two cannot diverge.
struct CampaignSummary {
  std::vector<PointAggregate> points;
  std::uint64_t campaign_hash = 0;
  std::size_t instance_count = 0;
};

// DVLC_LINT_WAIVE(dead-public-api): perfbench's replay calls it
CampaignSummary summarize_records(const CampaignSpec& campaign,
                                  std::size_t instances_per_point,
                                  std::vector<InstanceRecord> records);

/// Runs every instance (sharded over the global thread pool; results
/// are bit-identical at any thread count) and reduces the aggregates.
CampaignRun run_campaign(const CampaignSpec& campaign,
                         std::span<const CampaignInstance> instances);

}  // namespace densevlc::scenario
