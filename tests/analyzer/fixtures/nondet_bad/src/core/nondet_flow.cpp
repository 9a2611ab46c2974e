// Fixture: each nondet-flow rule, fired by the pattern it exists to
// catch. Every flagged line carries its EXPECT-FINDING annotation.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace densevlc {

// nondet-unordered-iter: the element order escapes into a float sum...
double total_weight(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& [id, w] : weights) {  // EXPECT-FINDING: nondet-unordered-iter
    total += w * static_cast<double>(id);
  }
  return total;
}

// ...or into the order of a container's elements.
std::vector<int> listed(const std::unordered_set<int>& ids) {
  std::vector<int> out;
  for (int id : ids) out.push_back(id);  // EXPECT-FINDING: nondet-unordered-iter
  return out;
}

// nondet-wallclock: wall clocks and entropy sources in simulation code.
std::uint64_t seed_from_clock() {
  return static_cast<std::uint64_t>(time(nullptr));  // EXPECT-FINDING: nondet-wallclock
}

std::int64_t stamp_ns() {
  const auto now = std::chrono::system_clock::now();  // EXPECT-FINDING: nondet-wallclock
  return now.time_since_epoch().count();
}

unsigned entropy_seed() {
  return std::random_device()();  // EXPECT-FINDING: nondet-wallclock
}

// nondet-pointer-key: ordered containers keyed by allocation address.
struct Node {
  int id = 0;
};

std::size_t distinct(const std::vector<Node*>& nodes) {
  const std::set<const Node*> seen(nodes.begin(), nodes.end());  // EXPECT-FINDING: nondet-pointer-key
  return seen.size();
}

int first_rank(const std::vector<Node*>& nodes) {
  std::map<Node*, int> rank;  // EXPECT-FINDING: nondet-pointer-key
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    rank[nodes[i]] = static_cast<int>(i);
  }
  return rank.empty() ? -1 : rank.begin()->second;
}

}  // namespace densevlc
