// Tests for the deterministic RNG wrapper.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace densevlc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng{8};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng{9};
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng{11};
  std::vector<double> samples(50000);
  for (double& s : samples) s = rng.gaussian();
  EXPECT_NEAR(stats::mean(samples), 0.0, 0.02);
  EXPECT_NEAR(stats::stddev(samples), 1.0, 0.02);
}

TEST(Rng, GaussianScalesMeanAndSigma) {
  Rng rng{12};
  std::vector<double> samples(50000);
  for (double& s : samples) s = rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(stats::mean(samples), 5.0, 0.05);
  EXPECT_NEAR(stats::stddev(samples), 2.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
  Rng rng{13};
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{14};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{21};
  Rng child = parent.fork();
  // The child stream must not replay the parent's continuation.
  Rng parent_copy{21};
  (void)parent_copy.fork();
  double max_diff = 0.0;
  for (int i = 0; i < 100; ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(child.uniform() - parent.uniform()));
  }
  EXPECT_GT(max_diff, 0.01);
}

TEST(Rng, SplitIsPureFunctionOfSeedAndStream) {
  Rng a{77};
  // Advancing the parent must not move its split streams: split() keys
  // off the construction seed, not the engine state.
  for (int i = 0; i < 50; ++i) (void)a.uniform();
  Rng fresh{77};
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    Rng from_advanced = a.split(stream);
    Rng from_fresh = fresh.split(stream);
    for (int i = 0; i < 20; ++i) {
      EXPECT_DOUBLE_EQ(from_advanced.uniform(), from_fresh.uniform());
    }
  }
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng parent{123};
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.uniform() == s1.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
  // And stream 0 is not the parent stream replayed.
  Rng parent_copy{123};
  Rng s0_copy = parent_copy.split(0);
  equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0_copy.uniform() == parent_copy.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SeedStreamConstructorMatchesSplit) {
  Rng parent{0xABCD};
  Rng via_split = parent.split(9);
  Rng via_ctor{0xABCD, 9};
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(via_split.uniform(), via_ctor.uniform());
  }
}

TEST(Rng, SplitStreamsReproduceAcrossThreadCounts) {
  // The parallel-use pattern: item i draws from split(i). The drawn
  // values are a function of (seed, i) alone, so any scheduling of items
  // over threads yields the same per-item sequences.
  const Rng base{0x5EED};
  std::vector<double> serial(64);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    Rng stream = base.split(i);
    serial[i] = stream.gaussian() + stream.uniform();
  }
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    set_global_threads(threads);
    std::vector<double> parallel(serial.size());
    parallel_for(0, parallel.size(), [&](std::size_t i) {
      Rng stream = base.split(i);
      parallel[i] = stream.gaussian() + stream.uniform();
    });
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
  set_global_threads(0);
}

// FNV-1a over the bytes of 64-bit words: one number per stream.
struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

// Every public draw of one stream, ~1,500 engine outputs in all, so the
// run crosses at least three 312-word twist boundaries.
std::uint64_t stream_hash(std::uint64_t seed) {
  Rng rng{seed};
  Fnv1a h;
  for (int i = 0; i < 400; ++i) h.add(rng.uniform());
  for (int i = 0; i < 50; ++i) h.add(rng.uniform(-2.0, 3.0));
  for (int i = 0; i < 401; ++i) h.add(rng.gaussian());  // leaves a half
  for (int i = 0; i < 200; ++i) h.add(rng.gaussian(1.5, 0.25));
  for (int i = 0; i < 9; ++i) h.add(rng.gaussian(0.0, 2.0));
  for (int i = 0; i < 200; ++i) {
    h.add(static_cast<std::uint64_t>(rng.uniform_int(-7, 1000)));
  }
  for (int i = 0; i < 20; ++i) {
    h.add(static_cast<std::uint64_t>(
        rng.uniform_int(5, (std::int64_t{1} << 62) + 12345)));
  }
  for (int i = 0; i < 200; ++i) h.add(std::uint64_t{rng.bernoulli(0.3)});
  std::vector<int> perm{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(perm);
  for (int v : perm) h.add(static_cast<std::uint64_t>(v));
  Rng child = rng.fork();
  for (int i = 0; i < 50; ++i) {
    h.add(child.uniform());
    h.add(child.gaussian());
  }
  Rng sub = rng.split(3);
  for (int i = 0; i < 50; ++i) {
    h.add(sub.gaussian(0.0, 1e-6));
    h.add(sub.uniform());
  }
  for (int i = 0; i < 100; ++i) h.add(rng.uniform());
  return h.h;
}

TEST(Rng, StreamIsPinned) {
  // The hashes of the std::mt19937_64-backed Rng: any change to the
  // engine, the distributions, fork() or split() changes them.
  const std::uint64_t seeds[] = {0, 1, 42, ~std::uint64_t{0},
                                 Rng::derive_stream_seed(0x5EED, 7)};
  const std::uint64_t pinned[] = {
      1875694742952143037ULL, 4533169192739676077ULL, 2447329475450684436ULL,
      12322858167488748154ULL, 17526694213633848008ULL};
  for (std::size_t i = 0; i < std::size(seeds); ++i) {
    EXPECT_EQ(stream_hash(seeds[i]), pinned[i]) << "seed " << seeds[i];
  }
}

TEST(Rng, ExponentialIsMinusLogOfNonzeroUniform) {
  // exponential() draws u by the reject-zero loop and returns -log u:
  // bit for bit the hand loop on a copy of the stream.
  Rng rng{0xE4};
  Rng hand = rng;
  for (int i = 0; i < 4000; ++i) {
    double u;
    do {
      u = hand.uniform();
    } while (u <= 0.0);
    EXPECT_EQ(rng.exponential(), -std::log(u)) << "draw " << i;
  }
  EXPECT_EQ(rng.uniform(), hand.uniform());
}

// The raw engine output: the full-range uniform_int returns it unchanged.
std::uint64_t raw_draw(Rng& rng) {
  return static_cast<std::uint64_t>(
      rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max()));
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // std::mt19937_64 is the reference: the in-house engine must give its
  // exact stream, through many twists.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{0x5EED}, ~std::uint64_t{0},
        Rng::derive_stream_seed(42, 3)}) {
    Rng rng{seed};
    std::mt19937_64 reference{seed};
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(raw_draw(rng), reference()) << "seed " << seed << " draw " << i;
    }
  }
  // The standard fixes the 10000th output of a default-seeded engine.
  Rng default_seeded{5489};
  for (int i = 0; i < 9999; ++i) (void)raw_draw(default_seeded);
  EXPECT_EQ(raw_draw(default_seeded), 9981545732273789042ULL);
}

TEST(Rng, FillGaussianMatchesSequential) {
  struct Moments {
    double mean;
    double stddev;
  };
  for (const std::size_t len :
       {0, 1, 2, 3, 311, 312, 313, 624, 625, 10000}) {
    for (const bool cached_on_entry : {false, true}) {
      // The front end's zero mean, and a general one.
      for (const Moments mo : {Moments{0.0, 5.9e-9}, Moments{0.5, 2.0}}) {
        Rng block{0xF111 + len};
        if (cached_on_entry) (void)block.gaussian();
        Rng sequential = block;
        std::vector<double> got(len);
        block.fill_gaussian(got, mo.mean, mo.stddev);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(
                        sequential.gaussian(mo.mean, mo.stddev)))
              << "len " << len << " cached " << cached_on_entry << " i " << i;
        }
        // The cached half (left by an odd count of fresh draws), the
        // engine position and fork() all continue as after sequential
        // draws.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(block.gaussian()),
                  std::bit_cast<std::uint64_t>(sequential.gaussian()))
            << "len " << len << " cached " << cached_on_entry;
        for (int i = 0; i < 5; ++i) {
          EXPECT_EQ(block.uniform(), sequential.uniform());
        }
        Rng block_child = block.fork();
        Rng sequential_child = sequential.fork();
        EXPECT_EQ(raw_draw(block_child), raw_draw(sequential_child));
      }
    }
  }
  // Zero mean maps -0 to +0, as gaussian(0.0, s) does.
  Rng rng{3};
  double one = -1.0;
  rng.fill_gaussian({&one, 1}, 0.0, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(one), std::uint64_t{0});
}

TEST(Rng, UniformIntFullRangeIsDefined) {
  // Spans of 2^64 and above 2^63 must not overflow int64 (checked under
  // the debug-ubsan preset); the full range returns raw engine output.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng{99};
  std::mt19937_64 reference{99};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(rng.uniform_int(kMin, kMax)),
              reference());
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.uniform_int(-10, kMax), -10);
    EXPECT_LE(rng.uniform_int(kMin, 5), 5);
  }
  EXPECT_EQ(rng.uniform_int(kMax, kMax), kMax);
  EXPECT_EQ(rng.uniform_int(kMin, kMin), kMin);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{31};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

}  // namespace
}  // namespace densevlc
