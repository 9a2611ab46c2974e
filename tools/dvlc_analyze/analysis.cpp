#include "analysis.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace densevlc::analyze {

namespace fs = std::filesystem;

void Sink::report_impl(const WaiverMap& waivers, const std::string& rel,
                       std::size_t line, const std::string& rule,
                       const std::string& symbol, const std::string& message) {
  auto it = waivers.find(rule);
  if (it != waivers.end() &&
      (it->second.count(line) != 0 ||
       (line > 0 && it->second.count(line - 1) != 0))) {
    ++waived_;
    return;
  }
  findings_.push_back(Finding{rule, rel, line, symbol, message});
}

void Sink::report(const SourceFile& file, std::size_t line,
                  const std::string& rule, const std::string& symbol,
                  const std::string& message) {
  report_impl(file.waivers, file.rel, line, rule, symbol, message);
}

void Sink::report(const FileSummary& file, std::size_t line,
                  const std::string& rule, const std::string& symbol,
                  const std::string& message) {
  report_impl(file.waivers, file.rel, line, rule, symbol, message);
}

void Sink::report_unwaivable(const SourceFile& file, std::size_t line,
                             const std::string& rule,
                             const std::string& symbol,
                             const std::string& message) {
  findings_.push_back(Finding{rule, file.rel, line, symbol, message});
}

std::vector<Finding> Sink::take_findings() { return std::move(findings_); }

std::vector<std::unique_ptr<Pass>> make_all_passes() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(make_conventions_pass());
  passes.push_back(make_layering_pass());
  passes.push_back(make_api_pass());
  passes.push_back(make_nondet_pass());
  passes.push_back(make_unitdim_pass());
  passes.push_back(make_deadapi_pass());
  return passes;
}

void default_layering(AnalysisContext& ctx) {
  // The declared module DAG:
  //   common -> {dsp, geom} -> optics -> {channel, phy, sync}
  //          -> {alloc, fault, illum, mac, net} -> core -> scenario -> bench
  // tools and tests sit on top and may include anything.
  ctx.module_rank = {
      {"common", 0}, {"dsp", 1},   {"geom", 1},  {"optics", 2},
      {"channel", 3}, {"phy", 3},  {"sync", 3},  {"alloc", 4},
      {"fault", 4},  {"illum", 4}, {"mac", 4},   {"net", 4},
      {"core", 5},   {"scenario", 6}, {"bench", 7}, {"tools", 7},
      {"tests", 8},
  };
  // sync consumes the PHY frontend (pilot correlation) by design.
  ctx.extra_edges = {{"sync", "phy"}};
}

namespace {

bool is_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx" || ext == ".hxx";
}

bool skip_directory(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "build" || name == ".git" || name.rfind("build-", 0) == 0 ||
         name == "fixtures";
}

void collect_files(const fs::path& p, std::vector<fs::path>& out) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    for (fs::directory_iterator it(p, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (fs::is_directory(it->path())) {
        if (!skip_directory(it->path())) collect_files(it->path(), out);
      } else if (is_source_extension(it->path())) {
        out.push_back(it->path());
      }
    }
  } else if (fs::is_regular_file(p, ec) && is_source_extension(p)) {
    out.push_back(p);
  }
}

}  // namespace

AnalysisResult analyze_paths(const std::vector<fs::path>& paths,
                             const fs::path& root) {
  AnalysisContext ctx;
  ctx.root = root;
  default_layering(ctx);

  const auto passes = make_all_passes();
  std::set<std::string> rule_ids;
  for (const auto& pass : passes) {
    for (const RuleInfo& r : pass->rules()) rule_ids.insert(r.id);
  }

  std::vector<fs::path> files;
  for (const auto& p : paths) collect_files(p, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  AnalysisResult result;
  Sink sink;
  for (const auto& path : files) {
    std::ifstream in{path};
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();

    SourceFile sf;
    index_source(buf.str(), path, root, sf);
    const ScopeTree scope = build_scope_tree(sf.tokens);
    // A malformed waiver, or one naming no rule (a typo, a deleted
    // rule), silently waives nothing, which must be loud.
    for (const auto& wp : sf.waiver_problems) {
      sink.report_unwaivable(sf, wp.line, "waiver-syntax", "waiver",
                             wp.detail);
    }
    for (const auto& [rule, lines] : sf.waivers) {
      if (rule_ids.count(rule) != 0) continue;
      for (const std::size_t line : lines) {
        sink.report_unwaivable(sf, line, "waiver-syntax", "waiver",
                               "DVLC_LINT_WAIVE(" + rule +
                                   ") names no rule of --list-rules, so it "
                                   "waives nothing");
      }
    }
    for (const auto& pass : passes) pass->run_file(sf, scope, sink);
    ctx.index.files.push_back(summarize(sf, scope));
    ++result.files_scanned;
  }

  for (const auto& pass : passes) pass->run_project(ctx, sink);
  result.waived = sink.waived_count();
  result.findings = sink.take_findings();

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.symbol, a.message) <
                     std::tie(b.file, b.line, b.rule, b.symbol, b.message);
            });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return std::tie(a.file, a.line, a.rule, a.symbol,
                                    a.message) ==
                           std::tie(b.file, b.line, b.rule, b.symbol,
                                    b.message);
                  }),
      result.findings.end());
  return result;
}

}  // namespace densevlc::analyze
