#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace densevlc {

namespace {

// The one Box-Muller transform: two uniforms -> two independent standard
// normals, radius * cos(angle) first. gaussian() and fill_gaussian() both
// run it, so they agree bit for bit.
struct NormalPair {
  double first;
  double second;
};

NormalPair box_muller(double u1, double u2) {
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * kPi * u2;
  return {radius * std::cos(angle), radius * std::sin(angle)};
}

}  // namespace

void Rng::seed_engine(std::uint64_t seed) {
  // The standard's seeding: x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i.
  std::uint64_t x = seed;
  state_[0] = x;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    x = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    state_[i] = x;
  }
  pos_ = kStateWords;
}

void Rng::twist() {
  // The standard's twist, in its three segments. Within each segment no
  // word reads a word written earlier in that segment, so the loops carry
  // no dependence.
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  const auto mix = [&](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    // Branch-free select of kMatrix on the low bit: a branch mispredicts
    // on every other word.
    return far ^ (y >> 1) ^ ((0 - (y & 1U)) & kMatrix);
  };
  constexpr std::size_t n = kStateWords;
  constexpr std::size_t m = kShift;
  for (std::size_t k = 0; k < n - m; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + m]);
  }
  for (std::size_t k = n - m; k < n - 1; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + m - n]);
  }
  state_[n - 1] = mix(state_[n - 1], state_[0], state_[m - 1]);
  pos_ = 0;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DVLC_EXPECT(lo <= hi, "uniform_int: empty range");
  // Rejection sampling for an unbiased integer in [lo, hi], in uint64 so
  // no span overflows; the result converts back once (two's complement).
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<std::int64_t>(next());
  }
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t draw;
  do {
    draw = next();
  } while (draw >= limit);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   draw % span);
}

double Rng::nonzero_uniform() {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return u;
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  const double u1 = nonzero_uniform();
  const NormalPair g = box_muller(u1, uniform());
  cached_gaussian_ = g.second;
  has_cached_gaussian_ = true;
  return g.first;
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

void Rng::fill_gaussian(std::span<double> out, double mean, double stddev) {
  std::size_t i = 0;
  if (has_cached_gaussian_ && !out.empty()) out[i++] = gaussian(mean, stddev);
  // Whole pairs, a block at a time: the uniforms in draw order, then the
  // transforms, which no longer wait on the engine or on each other. The
  // transforms run grouped by the octant of their angle (a counting
  // sort): each is a pure function of its pair, so the order changes no
  // bit, but libm's sin/cos range branches then predict.
  constexpr std::size_t kBlockPairs = 128;
  constexpr std::size_t kOctants = 8;
  double u1[kBlockPairs];
  double u2[kBlockPairs];
  std::uint8_t order[kBlockPairs];
  const auto octant = [](double u) {  // u < 1, so this is below kOctants
    return static_cast<std::size_t>(u * static_cast<double>(kOctants));
  };
  while (out.size() - i >= 2) {
    const std::size_t pairs = std::min(kBlockPairs, (out.size() - i) / 2);
    std::size_t start[kOctants + 1] = {};
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = nonzero_uniform();
      u2[p] = uniform();
      ++start[octant(u2[p]) + 1];
    }
    for (std::size_t o = 0; o < kOctants; ++o) start[o + 1] += start[o];
    for (std::size_t p = 0; p < pairs; ++p) {
      order[start[octant(u2[p])]++] = static_cast<std::uint8_t>(p);
    }
    for (std::size_t j = 0; j < pairs; ++j) {
      const std::size_t p = order[j];
      const NormalPair g = box_muller(u1[p], u2[p]);
      out[i + 2 * p] = mean + stddev * g.first;
      out[i + 2 * p + 1] = mean + stddev * g.second;
    }
    i += 2 * pairs;
  }
  // An odd tail draws one more pair and leaves its second half cached.
  if (i < out.size()) out[i] = gaussian(mean, stddev);
}

double Rng::exponential() {
  const double u = nonzero_uniform();
  return -std::log(u);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() {
  // Mix two draws so sibling forks do not share prefixes.
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  return Rng{a ^ (b * 0x9E3779B97F4A7C15ULL)};
}

std::uint64_t Rng::derive_stream_seed(std::uint64_t seed,
                                      std::uint64_t stream_id) {
  // SplitMix64 finalizer over seed advanced by (stream_id + 1) strides of
  // the golden-ratio increment; the +1 keeps stream 0 distinct from the
  // parent seed itself.
  std::uint64_t z = seed + (stream_id + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace densevlc
