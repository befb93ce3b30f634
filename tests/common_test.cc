#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/zipf.h"

namespace cafe {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    CAFE_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    min = std::min(min, u);
    max = std::max(max, u);
  }
  EXPECT_LT(min, 0.01);  // covers the range
  EXPECT_GT(max, 0.99);
}

TEST(RngTest, UniformIsApproximatelyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.Uniform(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(RngTest, NormalHasUnitMoments) {
  Rng rng(13);
  constexpr int kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, SplitMixAvalanche) {
  // Flipping one input bit flips ~half the output bits.
  int total_flips = 0;
  constexpr int kTrials = 64;
  for (int bit = 0; bit < kTrials; ++bit) {
    const uint64_t a = SplitMix64(0x12345678ULL);
    const uint64_t b = SplitMix64(0x12345678ULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / kTrials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, SeededHashDeterministic) {
  SeededHash h(5);
  EXPECT_EQ(h(42), h(42));
}

TEST(HashTest, DifferentSeedsGiveDifferentFunctions) {
  SeededHash h1(1), h2(2);
  int differing = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (h1(k) != h2(k)) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(HashTest, BoundedStaysInRange) {
  SeededHash h(3);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_LT(h.Bounded(k, 100), 100u);
  }
}

TEST(HashTest, BoundedIsApproximatelyUniform) {
  SeededHash h(7);
  constexpr uint64_t kBuckets = 16;
  constexpr uint64_t kKeys = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < kKeys; ++k) ++counts[h.Bounded(k, kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, static_cast<int>(kKeys / kBuckets), 700);
  }
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(1000, 1.05);
  double sum = 0.0;
  for (uint64_t i = 1; i <= 1000; ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfIsMonotonicallyDecreasing) {
  ZipfDistribution zipf(100, 1.2);
  for (uint64_t i = 1; i < 100; ++i) {
    EXPECT_GT(zipf.Pmf(i), zipf.Pmf(i + 1));
  }
}

TEST(ZipfTest, SamplesInRange) {
  ZipfDistribution zipf(50, 0.8);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 50u);
  }
}

TEST(ZipfTest, SingleItemAlwaysRankOne) {
  ZipfDistribution zipf(1, 1.5);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 1u);
}

// Property sweep: empirical frequencies track the analytic PMF across
// skews, including z == 1 (log-form antiderivative) and z > 1.
class ZipfDistributionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfDistributionSweep, EmpiricalMatchesPmf) {
  const double z = GetParam();
  constexpr uint64_t kN = 200;
  constexpr int kDraws = 300000;
  ZipfDistribution zipf(kN, z);
  Rng rng(42);
  std::vector<int> counts(kN + 1, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t rank : {uint64_t{1}, uint64_t{2}, uint64_t{5}, uint64_t{20}}) {
    const double expected = zipf.Pmf(rank);
    const double observed = static_cast<double>(counts[rank]) / kDraws;
    EXPECT_NEAR(observed, expected, 5 * std::sqrt(expected / kDraws) + 1e-4)
        << "rank " << rank << " z " << z;
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfDistributionSweep,
                         ::testing::Values(0.6, 0.9, 1.0, 1.05, 1.1, 1.4,
                                           2.0));

TEST(ZipfTest, FitRecoversExponent) {
  // Noise-free scores: s_i = i^-1.1 exactly.
  std::vector<double> scores;
  for (int i = 1; i <= 2000; ++i) scores.push_back(std::pow(i, -1.1));
  EXPECT_NEAR(FitZipfExponent(scores), 1.1, 1e-6);
}

TEST(ZipfTest, FitIgnoresNonPositiveScores) {
  std::vector<double> scores;
  for (int i = 1; i <= 500; ++i) scores.push_back(std::pow(i, -0.9));
  scores.push_back(0.0);
  scores.push_back(-1.0);
  EXPECT_NEAR(FitZipfExponent(scores), 0.9, 1e-3);
}

TEST(ZipfTest, FitDegenerateInputsReturnZero) {
  EXPECT_EQ(FitZipfExponent({}), 0.0);
  EXPECT_EQ(FitZipfExponent({1.0}), 0.0);
  EXPECT_EQ(FitZipfExponent({0.0, -2.0}), 0.0);
}


// -------------------------------------------------------------------- SIMD --

// The exactness contract: every kernel reproduces the longhand scalar loop
// bit for bit, including vector tails and non-power-of-two coefficients
// (which expose any FMA contraction), with clipping on and off, and with NaN
// and +-inf gradients (which expose a clamp that is not std::clamp).
TEST(SimdTierTest, ExactKernelsAreBitIdenticalToScalarReference) {
  Rng rng(7);
  const float lr = 0.037f;  // not a power of two
  const float kInf = std::numeric_limits<float>::infinity();
  const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                             -kInf};
  for (const float bound : {0.75f, kInf}) {
    for (const bool specials : {false, true}) {
      for (uint32_t d : {1u, 5u, 8u, 13u, 16u, 17u, 32u, 33u, 64u, 100u}) {
        std::vector<float> row(d), g(d), a(d), b(d);
        for (auto& x : row) x = rng.UniformFloat(-2.0f, 2.0f);
        for (auto& x : g) x = rng.UniformFloat(-2.0f, 2.0f);
        for (auto& x : a) x = rng.UniformFloat(-2.0f, 2.0f);
        for (auto& x : b) x = rng.UniformFloat(-2.0f, 2.0f);
        if (specials) {
          // Spread NaN/+inf/-inf over both vector bodies and tails.
          for (uint32_t k = 0; k < d; k += 3) {
            g[k] = kSpecials[(k / 3) % 3];
            a[k] = kSpecials[(k / 3 + 1) % 3];
          }
        }

        // Scalar references, computed longhand.
        std::vector<float> want_axpy(row), want_clip(row), want_acc(row),
            want_scaled(row), want_add(d), want_mul(d);
        for (uint32_t k = 0; k < d; ++k) {
          want_axpy[k] -= lr * g[k];
          const float cg = std::clamp(g[k], -bound, bound);
          want_clip[k] -= lr * cg;
          want_acc[k] += cg;
          want_scaled[k] += lr * g[k];
          want_add[k] = a[k] + b[k];
          want_mul[k] = a[k] * b[k];
        }
        const std::string where = " d=" + std::to_string(d) +
                                  " bound=" + std::to_string(bound) +
                                  " specials=" + std::to_string(specials);

        std::vector<float> out(row);
        simd::AxpyNeg(out.data(), g.data(), d, lr);
        EXPECT_EQ(0, std::memcmp(out.data(), want_axpy.data(), d * 4))
            << "axpy_neg" << where;

        out = row;
        simd::AxpyClipNeg(out.data(), g.data(), d, lr, bound);
        EXPECT_EQ(0, std::memcmp(out.data(), want_clip.data(), d * 4))
            << "axpy_clip_neg" << where;

        out = row;
        simd::AccumClip(out.data(), g.data(), d, bound);
        EXPECT_EQ(0, std::memcmp(out.data(), want_acc.data(), d * 4))
            << "accum_clip" << where;

        out = row;
        simd::AddScaled(out.data(), g.data(), d, lr);
        EXPECT_EQ(0, std::memcmp(out.data(), want_scaled.data(), d * 4))
            << "add_scaled" << where;

        out.assign(d, 0.0f);
        simd::AddRows(out.data(), a.data(), b.data(), d);
        EXPECT_EQ(0, std::memcmp(out.data(), want_add.data(), d * 4))
            << "add_rows" << where;

        out.assign(d, 0.0f);
        simd::MulRows(out.data(), a.data(), b.data(), d);
        EXPECT_EQ(0, std::memcmp(out.data(), want_mul.data(), d * 4))
            << "mul_rows" << where;

        out.assign(d, 0.0f);
        simd::CopyRow(out.data(), g.data(), d);
        EXPECT_EQ(0, std::memcmp(out.data(), g.data(), d * 4))
            << "copy_row" << where;
      }
    }
  }
}

}  // namespace
}  // namespace cafe
