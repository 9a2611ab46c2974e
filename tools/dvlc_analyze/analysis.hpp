// Pass framework for dvlc_analyze.
//
// A pass has two halves. The *file* half sees one file at a time — its
// token stream plus the structural scope tree (parse.hpp). The *project*
// half sees only the FileSummary records (index.hpp) of every file, so
// a file's tokens and scope tree can be dropped once it is summarized.
// Findings funnel through a Sink that applies inline waivers;
// baselining happens after all passes ran (baseline.hpp).
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index.hpp"
#include "parse.hpp"
#include "source.hpp"

namespace densevlc::analyze {

/// One diagnostic. `symbol` is the stable anchor used for baseline
/// matching (an identifier, module name, or rule-specific tag) so
/// baselines survive unrelated line drift.
struct Finding {
  std::string rule;
  std::string file;  // root-relative path
  std::size_t line = 0;
  std::string symbol;
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Everything the project-level pass halves can look at.
struct AnalysisContext {
  std::filesystem::path root;
  ProjectIndex index;

  /// Layering rank per module; lower = more fundamental. A file may only
  /// include modules of strictly lower rank (or its own module), unless
  /// the edge is in `extra_edges`.
  std::map<std::string, int> module_rank;

  /// Declared same-tier exceptions, as (from, to) module pairs.
  std::vector<std::pair<std::string, std::string>> extra_edges;
};

/// Collects findings, dropping waived ones at report time.
class Sink {
 public:
  /// Waived findings are counted but not stored.
  void report(const SourceFile& file, std::size_t line,
              const std::string& rule, const std::string& symbol,
              const std::string& message);

  /// Summary-based overload for project passes (same waiver semantics —
  /// summaries carry the waiver map).
  void report(const FileSummary& file, std::size_t line,
              const std::string& rule, const std::string& symbol,
              const std::string& message);

  /// Reports that bypass waiver lookup (used for waiver-syntax errors —
  /// a broken waiver must not be able to waive itself).
  void report_unwaivable(const SourceFile& file, std::size_t line,
                         const std::string& rule, const std::string& symbol,
                         const std::string& message);

  std::size_t waived_count() const { return waived_; }
  std::vector<Finding> take_findings();

 private:
  void report_impl(const WaiverMap& waivers, const std::string& rel,
                   std::size_t line, const std::string& rule,
                   const std::string& symbol, const std::string& message);

  std::vector<Finding> findings_;
  std::size_t waived_ = 0;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual std::vector<RuleInfo> rules() const = 0;

  /// File half: findings depend only on this file's content.
  virtual void run_file(const SourceFile& file, const ScopeTree& scope,
                        Sink& sink) const {
    (void)file;
    (void)scope;
    (void)sink;
  }

  /// Project half: cross-TU findings over the collected summaries.
  virtual void run_project(const AnalysisContext& ctx, Sink& sink) const {
    (void)ctx;
    (void)sink;
  }
};

/// The pass registry, in canonical execution order.
std::vector<std::unique_ptr<Pass>> make_all_passes();

// Pass factories (one per translation unit).
std::unique_ptr<Pass> make_conventions_pass();
std::unique_ptr<Pass> make_layering_pass();
std::unique_ptr<Pass> make_api_pass();
std::unique_ptr<Pass> make_nondet_pass();
std::unique_ptr<Pass> make_unitdim_pass();
std::unique_ptr<Pass> make_deadapi_pass();

/// The declared module DAG of this repository (see docs/static_analysis.md).
void default_layering(AnalysisContext& ctx);

/// End-to-end: index `paths` under `root`, run every pass, return
/// sorted deduplicated findings. Used by main() and the self-test suite.
struct AnalysisResult {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t waived = 0;
};
AnalysisResult analyze_paths(const std::vector<std::filesystem::path>& paths,
                             const std::filesystem::path& root);

}  // namespace densevlc::analyze
