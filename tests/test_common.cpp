// Unit tests for common/: rng, math helpers, stats, scaling-law fitting,
// durable file replacement.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>

#include "common/file.hpp"
#include "common/fit.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace elect {
namespace {

// ---------------------------------------------------------------- rng --

TEST(Rng, SameSeedSameSequence) {
  rng_stream a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  rng_stream a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a.next_u64() != b.next_u64();
  EXPECT_GT(differing, 60);
}

TEST(Rng, LabelledStreamsAreIndependent) {
  rng_stream a(7, {1}), b(7, {2}), c(7, {1});
  EXPECT_EQ(a.next_u64(), c.next_u64());
  rng_stream a2(7, {1});
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a2.next_u64() != b.next_u64();
  EXPECT_GT(differing, 60);
}

TEST(Rng, DeriveDoesNotDisturbParent) {
  rng_stream a(99), b(99);
  (void)a.derive(5);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DerivedStreamsDifferByLabel) {
  rng_stream parent(42);
  rng_stream d1 = parent.derive(1);
  rng_stream d2 = parent.derive(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += d1.next_u64() != d2.next_u64();
  EXPECT_GT(differing, 60);
}

TEST(Rng, NextDoubleInUnitInterval) {
  rng_stream rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  rng_stream rng(6);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  rng_stream rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliFrequency) {
  rng_stream rng(8);
  const int trials = 100000;
  int heads = 0;
  for (int i = 0; i < trials; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  rng_stream rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BetweenInclusive) {
  rng_stream rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

// --------------------------------------------------------------- math --

TEST(Math, LogStar) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_EQ(log_star(std::pow(2.0, 65536.0 > 1e300 ? 100.0 : 100.0)), 5);
}

TEST(Math, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(5), 3);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Math, PoisonPillBias) {
  EXPECT_DOUBLE_EQ(poison_pill_bias(1), 1.0);
  EXPECT_DOUBLE_EQ(poison_pill_bias(4), 0.5);
  EXPECT_DOUBLE_EQ(poison_pill_bias(100), 0.1);
}

TEST(Math, HetPoisonPillBias) {
  EXPECT_DOUBLE_EQ(het_poison_pill_bias(1), 1.0);
  EXPECT_NEAR(het_poison_pill_bias(2), std::log(2.0) / 2.0, 1e-12);
  EXPECT_NEAR(het_poison_pill_bias(100), std::log(100.0) / 100.0, 1e-12);
  // The bias never exceeds 1 and decays monotonically past |l| = 3.
  double previous = het_poison_pill_bias(3);
  for (std::size_t l = 4; l < 100; ++l) {
    const double bias = het_poison_pill_bias(l);
    EXPECT_LT(bias, previous);
    EXPECT_LE(bias, 1.0);
    previous = bias;
  }
}

TEST(Math, QuorumProperties) {
  for (int n = 1; n <= 200; ++n) {
    // Two quorums always intersect.
    EXPECT_GT(2 * quorum_size(n), n) << n;
    // A quorum survives the maximum number of crashes.
    EXPECT_LE(quorum_size(n), n - max_crash_faults(n)) << n;
    EXPECT_GE(max_crash_faults(n), 0) << n;
  }
}

// -------------------------------------------------------------- stats --

TEST(Stats, MeanStddev) {
  sample_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Quantiles) {
  sample_stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.95), 95.0, 1.0);
}

TEST(Stats, EmptyAndSingle) {
  sample_stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

// ---------------------------------------------------------------- fit --

TEST(Fit, RecoversLinearLaw) {
  std::vector<double> xs, ys;
  for (double n = 8; n <= 1024; n *= 2) {
    xs.push_back(n);
    ys.push_back(3.0 * n + 7.0);
  }
  const auto ranked = rank_growth_laws(xs, ys);
  EXPECT_EQ(ranked.front().law, "n");
  EXPECT_NEAR(ranked.front().a, 3.0, 1e-6);
  EXPECT_NEAR(ranked.front().b, 7.0, 1e-6);
  EXPECT_NEAR(ranked.front().r_squared, 1.0, 1e-9);
}

TEST(Fit, RecoversLogLaw) {
  std::vector<double> xs, ys;
  for (double n = 8; n <= 65536; n *= 2) {
    xs.push_back(n);
    ys.push_back(5.0 * std::log2(n) + 1.0);
  }
  const auto ranked = rank_growth_laws(xs, ys);
  EXPECT_EQ(ranked.front().law, "log n");
  EXPECT_NEAR(ranked.front().r_squared, 1.0, 1e-9);
}

TEST(Fit, RecoversQuadraticLaw) {
  std::vector<double> xs, ys;
  for (double n = 4; n <= 512; n *= 2) {
    xs.push_back(n);
    ys.push_back(0.5 * n * n);
  }
  const auto ranked = rank_growth_laws(xs, ys);
  EXPECT_EQ(ranked.front().law, "n^2");
}

TEST(Fit, SqrtBeatsLinearForSqrtData) {
  std::vector<double> xs, ys;
  for (double n = 4; n <= 4096; n *= 2) {
    xs.push_back(n);
    ys.push_back(2.0 * std::sqrt(n));
  }
  const auto sqrt_fit = fit_law(growth_law{"sqrt n", [](double n) {
                                             return std::sqrt(n);
                                           }},
                                xs, ys);
  const auto lin_fit =
      fit_law(growth_law{"n", [](double n) { return n; }}, xs, ys);
  EXPECT_GT(sqrt_fit.r_squared, lin_fit.r_squared);
}

TEST(Fit, ConstantData) {
  std::vector<double> xs = {1, 2, 4, 8}, ys = {5, 5, 5, 5};
  const auto fit = fit_law(
      growth_law{"const", [](double) { return 1.0; }}, xs, ys);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

// --------------------------------------------------------------- file --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::span<const std::uint8_t> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// A fresh scratch directory under the system temp dir.
std::string scratch_dir() {
  std::string pattern =
      (std::filesystem::temp_directory_path() / "elect_file_XXXXXX").string();
  const char* made = ::mkdtemp(pattern.data());
  EXPECT_NE(made, nullptr);
  return pattern;
}

TEST(DurableFile, ReplacesContentWhole) {
  const std::string dir = scratch_dir();
  const std::string path = dir + "/state";
  ASSERT_TRUE(replace_file_durably(path, as_bytes("first, longer content")));
  EXPECT_EQ(read_file(path), "first, longer content");
  ASSERT_TRUE(replace_file_durably(path, as_bytes("second")));
  EXPECT_EQ(read_file(path), "second");
  ASSERT_TRUE(replace_file_durably(path, {}));
  EXPECT_EQ(read_file(path), "");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(DurableFile, FailureLeavesTheOldFileAndNoTempFile) {
  const std::string dir = scratch_dir();
  // A path under a regular file: the temp file cannot be created
  // (ENOTDIR), and the regular file is untouched.
  const std::string plain = dir + "/plain";
  ASSERT_TRUE(replace_file_durably(plain, as_bytes("old")));
  EXPECT_FALSE(replace_file_durably(plain + "/state", as_bytes("new")));
  EXPECT_EQ(read_file(plain), "old");
  // The temp file is written but the rename fails (the target is a
  // non-empty directory): the temp file is removed, the target stays.
  const std::string target = dir + "/target";
  std::filesystem::create_directory(target);
  ASSERT_TRUE(replace_file_durably(target + "/inside", as_bytes("kept")));
  EXPECT_FALSE(replace_file_durably(target, as_bytes("new")));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  EXPECT_EQ(read_file(target + "/inside"), "kept");
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);  // plain and target: nothing left behind
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace elect
