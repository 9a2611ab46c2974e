// dvlc_analyze: multi-pass static analyzer for the DenseVLC repo.
//
// Usage:
//   dvlc_analyze [options] <dir-or-file> [more...]
//
// Options:
//   --root <dir>            paths in reports are relative to this (default:
//                           current directory)
//   --baseline <file>       suppress findings recorded in the baseline;
//                           NOTE: only conventions/api findings belong
//                           there — layering baselines must stay empty
//                           (see docs/static_analysis.md)
//   --write-baseline <file> write the current findings as the new
//                           baseline and exit 0
//   --sarif <file>          also write SARIF 2.1.0 to <file>
//   --list-rules            print every pass and rule id, then exit
//
// Exit status: 0 clean (modulo baseline), 1 findings, 2 usage error.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "baseline.hpp"
#include "common/atomic_file.hpp"
#include "output.hpp"

namespace {

namespace fs = std::filesystem;
using namespace densevlc::analyze;

bool write_file(const fs::path& path, const std::string& body) {
  // SARIF and baseline artifacts are consumed by CI; a crash mid-write
  // must never leave a truncated document under the real name.
  return densevlc::write_file_atomic(path.string(), body);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dvlc_analyze [--root <dir>] [--baseline <f>]\n"
      "                    [--write-baseline <f>] [--sarif <f>]\n"
      "                    [--list-rules] <dir-or-file> [more...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path baseline_path;
  fs::path write_baseline_path;
  fs::path sarif_path;
  std::vector<fs::path> paths;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](fs::path& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(root)) return usage();
    } else if (arg == "--baseline") {
      if (!value(baseline_path)) return usage();
    } else if (arg == "--write-baseline") {
      if (!value(write_baseline_path)) return usage();
    } else if (arg == "--sarif") {
      if (!value(sarif_path)) return usage();
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dvlc_analyze: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      paths.emplace_back(arg);
    }
  }

  if (list_rules) {
    for (const auto& pass : make_all_passes()) {
      std::printf("pass %s\n", pass->name());
      for (const RuleInfo& r : pass->rules()) {
        std::printf("  %-24s %s\n", r.id.c_str(), r.summary.c_str());
      }
    }
    return 0;
  }
  if (paths.empty()) return usage();
  for (const fs::path& p : paths) {
    if (!fs::exists(p)) {
      std::fprintf(stderr, "dvlc_analyze: no such path: %s\n",
                   p.string().c_str());
      return 2;
    }
  }

  const AnalysisResult result = analyze_paths(paths, root);

  if (!write_baseline_path.empty()) {
    if (!write_file(write_baseline_path, render_baseline(result.findings))) {
      std::fprintf(stderr, "dvlc_analyze: cannot write %s\n",
                   write_baseline_path.string().c_str());
      return 2;
    }
    std::printf("dvlc_analyze: wrote %zu finding(s) to %s\n",
                result.findings.size(),
                write_baseline_path.string().c_str());
    return 0;
  }

  Baseline baseline;
  if (!baseline_path.empty()) {
    BaselineLoad load = load_baseline(baseline_path);
    if (!load.ok) {
      std::fprintf(stderr, "dvlc_analyze: %s\n", load.error.c_str());
      return 2;
    }
    baseline = std::move(load.baseline);
  }
  const BaselineApplication applied =
      apply_baseline(baseline, result.findings);
  for (const std::string& stale : applied.stale) {
    std::fprintf(stderr, "dvlc_analyze: stale baseline entry: %s\n",
                 stale.c_str());
  }

  std::vector<RuleInfo> all_rules;
  for (const auto& pass : make_all_passes()) {
    for (RuleInfo& r : pass->rules()) all_rules.push_back(std::move(r));
  }
  if (!sarif_path.empty() &&
      !write_file(sarif_path, render_sarif(applied.fresh, all_rules))) {
    std::fprintf(stderr, "dvlc_analyze: cannot write %s\n",
                 sarif_path.string().c_str());
    return 2;
  }

  std::fputs(render_human(applied.fresh).c_str(), stdout);
  std::printf(
      "dvlc_analyze: %zu file(s), %zu finding(s), %zu waived, "
      "%zu baselined\n",
      result.files_scanned, applied.fresh.size(), result.waived,
      applied.suppressed);
  return applied.fresh.empty() ? 0 : 1;
}
