// Layering pass: enforces the declared module DAG over the quoted
// #include graph.
//
//   layer-back-edge   a file includes a module of equal or higher rank
//                     (same-module includes and declared extra edges such
//                     as sync -> phy are allowed). Back-edges are how
//                     "sim depends on core depends on sim" creep starts.
//   layer-cycle       the file-level include graph contains a cycle; the
//                     full cycle path is reported once, at its
//                     lexicographically smallest member.
//
// Only quoted includes are considered — system includes (<vector>) carry
// no layering information. Include targets are resolved the way the build
// does: relative to src/ for module headers, and relative to the
// including file's directory as a fallback. The whole pass is
// project-scoped and runs off FileSummary records only.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis.hpp"

namespace densevlc::analyze {
namespace {

/// Module of an include target as written (`channel/model.hpp` ->
/// "channel"). Targets without a directory ("analysis.hpp") resolve to
/// the includer's own module.
std::string target_module(const std::string& target,
                          const std::string& includer_module) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return includer_module;
  return target.substr(0, slash);
}

class LayeringPass final : public Pass {
 public:
  const char* name() const override { return "layering"; }

  std::vector<RuleInfo> rules() const override {
    return {
        {"layer-back-edge",
         "includes must point strictly down the declared module DAG"},
        {"layer-cycle", "the file-level include graph must be acyclic"},
    };
  }

  void run_project(const AnalysisContext& ctx, Sink& sink) const override {
    check_back_edges(ctx, sink);
    check_cycles(ctx, sink);
  }

 private:
  void check_back_edges(const AnalysisContext& ctx, Sink& sink) const {
    for (const FileSummary& f : ctx.index.files) {
      if (f.module.empty()) continue;
      const auto own = ctx.module_rank.find(f.module);
      if (own == ctx.module_rank.end()) continue;
      for (const Include& inc : f.includes) {
        const std::string to = target_module(inc.target, f.module);
        if (to == f.module) continue;
        const auto to_rank = ctx.module_rank.find(to);
        if (to_rank == ctx.module_rank.end()) continue;  // external header
        if (to_rank->second < own->second) continue;     // strictly down: ok
        const bool declared =
            std::find(ctx.extra_edges.begin(), ctx.extra_edges.end(),
                      std::make_pair(f.module, to)) != ctx.extra_edges.end();
        if (declared) continue;
        sink.report(f, inc.line, "layer-back-edge", f.module + "->" + to,
                    "module '" + f.module + "' (rank " +
                        std::to_string(own->second) + ") includes '" +
                        inc.target + "' from module '" + to + "' (rank " +
                        std::to_string(to_rank->second) +
                        "); the declared DAG only allows includes of "
                        "strictly lower-ranked modules");
      }
    }
  }

  void check_cycles(const AnalysisContext& ctx, Sink& sink) const {
    // Graph keyed by the include-path spelling of each file: a file
    // src/channel/model.hpp is the node "channel/model.hpp".
    std::map<std::string, const FileSummary*> by_spelling;
    for (const FileSummary& f : ctx.index.files) {
      by_spelling[ProjectIndex::include_spelling(f.rel)] = &f;
    }
    const auto edges = ctx.index.build_edges();

    // Iterative DFS with colors; report each cycle once.
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    for (const auto& [start, _] : edges) {
      if (color[start] != 0) continue;
      dfs(start, edges, color, stack, by_spelling, reported, sink);
    }
  }

  void dfs(const std::string& node,
           const std::map<std::string, std::vector<std::string>>& edges,
           std::map<std::string, int>& color, std::vector<std::string>& stack,
           const std::map<std::string, const FileSummary*>& by_spelling,
           std::set<std::string>& reported, Sink& sink) const {
    color[node] = 1;
    stack.push_back(node);
    const auto it = edges.find(node);
    if (it != edges.end()) {
      for (const std::string& next : it->second) {
        if (color[next] == 1) {
          // Found a cycle: stack from `next` to the top, closed by `node`.
          const auto from = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(from, stack.end());
          const std::string anchor =
              *std::min_element(cycle.begin(), cycle.end());
          if (reported.insert(anchor).second) {
            std::string path;
            for (const std::string& hop : cycle) path += hop + " -> ";
            path += next;
            const FileSummary* f = by_spelling.at(anchor);
            sink.report(*f, 1, "layer-cycle", anchor,
                        "include cycle: " + path);
          }
        } else if (color[next] == 0) {
          dfs(next, edges, color, stack, by_spelling, reported, sink);
        }
      }
    }
    stack.pop_back();
    color[node] = 2;
  }
};

}  // namespace

std::unique_ptr<Pass> make_layering_pass() {
  return std::make_unique<LayeringPass>();
}

}  // namespace densevlc::analyze
