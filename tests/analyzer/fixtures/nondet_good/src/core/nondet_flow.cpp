// Fixture: near misses of every nondet-flow rule. Each looks like a
// flagged pattern but is reproducible. Must produce zero findings.
#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace densevlc {

// Unordered iteration whose order cannot escape: per-key indexed stores.
void copy_by_key(const std::unordered_map<int, double>& weights,
                 std::vector<double>& by_id) {
  for (const auto& [id, w] : weights) {
    by_id[static_cast<std::size_t>(id)] = w;
  }
}

// The same sum as the bad fixture, over a sorted copy of the keys.
double total_weight(const std::unordered_map<int, double>& weights) {
  std::vector<int> ids;
  ids.reserve(weights.size());
  std::transform(weights.begin(), weights.end(), std::back_inserter(ids),
                 [](const auto& kv) { return kv.first; });
  std::sort(ids.begin(), ids.end());
  double total = 0.0;
  for (int id : ids) total += weights.at(id);
  return total;
}

// An ordered container iterates in key order.
std::vector<int> listed(const std::set<int>& ids) {
  std::vector<int> out;
  for (int id : ids) out.push_back(id);
  return out;
}

// Variables and members named like clocks are not clock reads.
struct Sample {
  double time = 0.0;
  double clock(double t_s) const { return t_s * 2.0; }
};

double sample_time(const Sample& s, const std::vector<double>& time) {
  return s.time + s.clock(time.front());
}

// Ordered containers keyed by a stable id, or holding pointers as values.
struct Node {
  int id = 0;
};

std::size_t distinct(const std::vector<Node*>& nodes) {
  std::set<int> seen;
  std::map<int, Node*> by_id;
  for (Node* n : nodes) {
    seen.insert(n->id);
    by_id[n->id] = n;
  }
  return seen.size() + by_id.size();
}

}  // namespace densevlc
