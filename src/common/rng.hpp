// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the simulator (AWGN, clock jitter, packet
// loss, mobility, instance generation) draws from an Rng that is seeded
// explicitly. Benches seed from fixed constants so a given figure is
// reproduced bit-for-bit across runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace densevlc {

/// A seedable pseudo-random source: MT19937-64 plus fixed distributions.
///
/// The engine is an in-house MT19937-64 that yields exactly the sequence
/// of std::mt19937_64 (same seeding recurrence, twist and tempering), so
/// every stream is fixed by the C++ standard. The distributions are
/// fixed here too: the standard leaves the algorithms of
/// std::normal_distribution and friends to each library, so gaussian()
/// is Box-Muller over the raw engine and uniform() takes its top 53 bits.
class Rng {
 public:
  /// Constructs with an explicit seed. Equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed) : seed_{seed} { seed_engine(seed); }

  /// Constructs sub-stream `stream_id` of `seed`: shorthand for
  /// Rng{derive_stream_seed(seed, stream_id)}.
  Rng(std::uint64_t seed, std::uint64_t stream_id)
      : Rng{derive_stream_seed(seed, stream_id)} {}

  /// Mixes (seed, stream_id) into the seed of an independent sub-stream
  /// (SplitMix64 finalizer). Pure function: parallel workers can derive
  /// their streams without touching shared state, and stream i of a given
  /// seed is the same no matter which thread asks, in what order.
  static std::uint64_t derive_stream_seed(std::uint64_t seed,
                                          std::uint64_t stream_id);

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 random bits -> double in [0, 1), the standard bit-exact recipe.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive; requires lo <= hi). Any
  /// range is allowed, the full int64 one included.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate via Box-Muller (fully deterministic given the
  /// engine state; pairs are cached so consecutive calls cost one transform
  /// per two samples).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Fills `out` with normal deviates: out[i] = gaussian(mean, stddev)
  /// for each i in order, bit for bit, including the cached half on
  /// entry and exit. Draws a block's uniforms first and then transforms
  /// the block, so the libm calls of different pairs overlap.
  void fill_gaussian(std::span<double> out, double mean, double stddev);

  /// Unit-mean exponential deviate -log(u), with u drawn by uniform()
  /// until it is nonzero (usually one draw). Scale it for other means.
  /// The draws are part of the determinism contract: every caller's
  /// stream depends on this exact sequence.
  double exponential();

  /// Bernoulli trial: true with probability p (p clamped to [0,1]).
  bool bernoulli(double p);

  /// Returns a fresh child RNG whose seed is derived from this stream.
  /// Used to give independent substreams to simulator components.
  /// Stateful: consumes two draws, so consecutive forks differ.
  Rng fork();

  /// Returns child stream `stream_id` WITHOUT consuming any state: the
  /// result depends only on this Rng's construction seed. This is the
  /// splitting primitive for deterministic parallelism — give item i the
  /// stream split(i) and the draws are reproducible at any thread count.
  Rng split(std::uint64_t stream_id) const {
    return Rng{derive_stream_seed(seed_, stream_id)};
  }

  /// The seed this stream was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Fisher-Yates shuffle of a vector, using this stream.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  // MT19937-64 parameters (C++ [rand.predef]: mt19937_64).
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::size_t kShift = 156;

  void seed_engine(std::uint64_t seed);
  void twist();
  double nonzero_uniform();

  /// Next raw 64-bit engine output, tempered.
  std::uint64_t next() {
    if (pos_ == kStateWords) twist();
    std::uint64_t x = state_[pos_++];
    x ^= (x >> 29) & 0x5555555555555555ULL;
    x ^= (x << 17) & 0x71D67FFFEDA60000ULL;
    x ^= (x << 37) & 0xFFF7EEE000000000ULL;
    return x ^ (x >> 43);
  }

  std::uint64_t seed_ = 0;
  std::size_t pos_ = kStateWords;
  std::array<std::uint64_t, kStateWords> state_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace densevlc
