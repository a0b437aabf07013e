// Unit and property tests for the numerical kernels (util/math.hpp).
#include "util/math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pac {
namespace {

TEST(LogSumExp, EmptyIsMinusInfinity) {
  EXPECT_EQ(logsumexp({}), -std::numeric_limits<double>::infinity());
}

TEST(LogSumExp, SingleValueIsIdentity) {
  const double v[] = {-3.5};
  EXPECT_DOUBLE_EQ(logsumexp(std::span<const double>(v, 1)), -3.5);
}

TEST(LogSumExp, MatchesDirectComputationInSafeRange) {
  const std::vector<double> v = {-1.0, 0.5, 2.0, -0.3};
  double direct = 0.0;
  for (double x : v) direct += std::exp(x);
  EXPECT_NEAR(logsumexp(v), std::log(direct), 1e-12);
}

TEST(LogSumExp, StableForLargeMagnitudes) {
  const std::vector<double> v = {-1000.0, -1000.5, -999.0};
  const double r = logsumexp(v);
  EXPECT_TRUE(std::isfinite(r));
  EXPECT_GT(r, -999.0);        // >= max
  EXPECT_LT(r, -999.0 + 1.2);  // <= max + log(n)
}

TEST(LogSumExp, DominatedByMaximum) {
  const std::vector<double> v = {0.0, -800.0};
  EXPECT_NEAR(logsumexp(v), 0.0, 1e-12);
}

// ---- pac::exp / pac::log against the host libm ----

/// Distance in units in the last place between two doubles (0 when both
/// are NaN; huge when only one is).
std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b))
    return std::isnan(a) && std::isnan(b) ? 0 : ~std::uint64_t{0};
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

double next_down(double x) {
  return std::nextafter(x, -std::numeric_limits<double>::infinity());
}

TEST(ExpLogKernels, ExpWithinOneUlpOfLibmOnDenseGrid) {
  // Every double step of (709.8 + 745.2) / 2^21 across the whole domain
  // with a finite nonzero result, subnormal and near-overflow ends included.
  const double lo = -745.2;
  const double hi = 709.8;
  const std::size_t steps = std::size_t{1} << 21;
  for (std::size_t i = 0; i <= steps; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps);
    ASSERT_LE(ulp_distance(pac::exp(x), std::exp(x)), 1u) << "x = " << x;
  }
}

TEST(ExpLogKernels, ExpEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pac::exp(0.0), 1.0);
  EXPECT_EQ(pac::exp(-0.0), 1.0);
  EXPECT_EQ(pac::exp(inf), inf);
  EXPECT_EQ(pac::exp(-inf), 0.0);
  EXPECT_FALSE(std::signbit(pac::exp(-inf)));
  EXPECT_TRUE(std::isnan(pac::exp(std::numeric_limits<double>::quiet_NaN())));
  // The |x| < 2^-54 branch (1 + x) and both sides of its boundary, and the
  // 512 boundary where the scale word leaves its normal range.
  for (const double b : {0x1p-54, 512.0, 1024.0}) {
    for (const double x : {b, next_down(b), -b, -next_down(b)})
      EXPECT_LE(ulp_distance(pac::exp(x), std::exp(x)), 1u) << "x = " << x;
  }
  // Subnormal results down to the last one, then underflow to +0.
  for (const double x : {-708.4, -709.0, -720.0, -740.0, -745.0, -745.13})
    EXPECT_LE(ulp_distance(pac::exp(x), std::exp(x)), 1u) << "x = " << x;
  EXPECT_EQ(pac::exp(-745.14), 0.0);
  EXPECT_EQ(pac::exp(-1e4), 0.0);
  // Largest finite result, then overflow.
  EXPECT_LE(ulp_distance(pac::exp(709.78), std::exp(709.78)), 1u);
  EXPECT_EQ(pac::exp(709.79), inf);
  EXPECT_EQ(pac::exp(1e4), inf);
}

TEST(ExpLogKernels, LogWithinOneUlpOfLibmInEveryBinade) {
  // 2^10 evenly spaced mantissas in every binade from the smallest
  // subnormal up to the largest finite double.
  for (int e = -1074; e <= 1023; ++e) {
    for (int m = 0; m < 1024; ++m) {
      const double x = std::ldexp(1.0 + m / 1024.0, e);
      if (x == 0.0 || std::isinf(x)) continue;
      ASSERT_LE(ulp_distance(pac::log(x), std::log(x)), 1u) << "x = " << x;
    }
  }
}

TEST(ExpLogKernels, LogEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pac::log(0.0), -inf);
  EXPECT_EQ(pac::log(-0.0), -inf);
  EXPECT_EQ(pac::log(inf), inf);
  EXPECT_TRUE(std::isnan(pac::log(-inf)));
  EXPECT_TRUE(std::isnan(pac::log(-1.0)));
  EXPECT_TRUE(std::isnan(pac::log(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(pac::log(1.0), 0.0);
  // |f| < 2^-20 branch on both sides of 1, and subnormal inputs.
  for (const double x : {std::nextafter(1.0, 2.0), next_down(1.0),
                         1.0 + 0x1p-21, 1.0 - 0x1p-21, 2.0, 0.5,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max()})
    EXPECT_LE(ulp_distance(pac::log(x), std::log(x)), 1u) << "x = " << x;
}

TEST(ExpLogKernels, BitsPinnedByDigest) {
  // A 64-bit FNV-1a digest of pac::exp and pac::log over a fixed grid: a
  // host or compiler that changes a single result bit fails here by name
  // (the functions use no libm, so every conforming build agrees).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (int i = 0; i <= 100000; ++i) {
    const double x = -746.0 + 1456.0 * i / 100000.0;
    mix(pac::exp(x));
    mix(pac::log(std::ldexp(1.0 + (i % 977) / 977.0, i % 2098 - 1074)));
  }
  EXPECT_EQ(h, 0x1c356f301a8b2471ULL);
}

// ---- lane kernels against the scalar oracles ----

/// Run `body` once with the host's best vector tier and once forced scalar.
template <typename Body>
void at_both_levels(Body&& body) {
  {
    const simd::ScopedForceLevel vec(simd::Level::kAvx2);
    body();
  }
  {
    const simd::ScopedForceLevel scalar(simd::Level::kScalar);
    body();
  }
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "lane " << i << " of " << a.size();
}

/// Inputs mixing in-vector lanes with every fallback class, in a pattern
/// that puts special values in every lane position of a 4-wide vector.
std::vector<double> mixed_exp_inputs(std::size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                            inf, -inf, 512.0, -512.0, next_down(512.0),
                            -700.0, -745.13, 709.7, 0.0, -0.0, 0x1p-54,
                            next_down(0x1p-54), -0x1p-60, 1e-300};
  Xoshiro256ss g(11);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = (i * 7) % 5 == 0 ? special[(i * 3) % std::size(special)]
                            : uniform_in(g, -60.0, 5.0);
  return v;
}

TEST(SimdExpLogLanes, ExpLanesMatchScalarOracle) {
  at_both_levels([] {
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 64u, 257u, 1023u}) {
      const std::vector<double> x = mixed_exp_inputs(n);
      std::vector<double> expected(n), lanes(n);
      for (std::size_t i = 0; i < n; ++i) expected[i] = pac::exp(x[i]);
      simd::exp_lanes(x.data(), lanes.data(), n);
      expect_same_bits(lanes, expected);
      std::vector<double> in_place = x;  // x may alias y
      simd::exp_lanes(in_place.data(), in_place.data(), n);
      expect_same_bits(in_place, expected);
    }
  });
}

TEST(SimdExpLogLanes, LogLanesMatchScalarOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double special[] = {0.0, -0.0, -1.0, inf, -inf,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(), 1.0,
                            std::nextafter(1.0, 2.0), next_down(1.0)};
  at_both_levels([&] {
    Xoshiro256ss g(12);
    for (const std::size_t n : {0u, 1u, 2u, 4u, 6u, 9u, 255u, 1001u}) {
      std::vector<double> x(n), expected(n), lanes(n);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = (i * 5) % 3 == 0
                   ? special[(i * 7) % std::size(special)]
                   : std::ldexp(uniform_in(g, 1.0, 2.0),
                                static_cast<int>(i % 61) - 30);
      for (std::size_t i = 0; i < n; ++i) expected[i] = pac::log(x[i]);
      simd::log_lanes(x.data(), lanes.data(), n);
      expect_same_bits(lanes, expected);
    }
  });
}

TEST(SimdExpLogLanes, LogsumexpColumnsMatchesRowOracle) {
  // Class-major blocks against logsumexp over each item's row: ordinary
  // rows, all -inf rows, NaN and +inf entries, spreads beyond 512 (exp
  // fallback lanes), and block tails with n % 4 != 0.
  const double inf = std::numeric_limits<double>::infinity();
  at_both_levels([&] {
    Xoshiro256ss g(13);
    for (const std::size_t j : {1u, 2u, 3u, 4u, 16u}) {
      for (const std::size_t n : {1u, 3u, 4u, 6u, 255u, 256u}) {
        std::vector<double> x(j * n);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t k = 0; k < j; ++k) {
            double v = uniform_in(g, -40.0, 0.0);
            if (r % 9 == 4) v = -inf;                          // all -inf
            if (r % 11 == 5 && k == j / 2) v = -800.0;         // fallback
            if (r % 13 == 6 && k == 0) v = std::nan("");
            if (r % 17 == 7 && k + 1 == j) v = inf;
            x[k * n + r] = v;
          }
        }
        std::vector<double> lse(n), scratch(2 * n);
        logsumexp_columns(x.data(), n, j, lse.data(), scratch.data());
        std::vector<double> expected(n), row(j);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t k = 0; k < j; ++k) row[k] = x[k * n + r];
          expected[r] = logsumexp(row);
        }
        expect_same_bits(lse, expected);
      }
    }
  });
}

TEST(KahanSum, ExactForIllConditionedSeries) {
  KahanSum k;
  k.add(1.0);
  for (int i = 0; i < 10000000 && i < 100000; ++i) k.add(1e-16);
  // Plain summation would lose every tiny addend.
  EXPECT_GT(k.value(), 1.0);
  EXPECT_NEAR(k.value(), 1.0 + 100000 * 1e-16, 1e-18);
}

TEST(KahanSum, MatchesPlainSumForBenignData) {
  KahanSum k;
  double plain = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    k.add(1.0 / i);
    plain += 1.0 / i;
  }
  EXPECT_NEAR(k.value(), plain, 1e-12);
}

TEST(KahanSum, ResetClears) {
  KahanSum k;
  k.add(5.0);
  k.reset();
  EXPECT_EQ(k.value(), 0.0);
}

TEST(Digamma, MatchesKnownValues) {
  // psi(1) = -gamma, psi(2) = 1 - gamma, psi(1/2) = -gamma - 2 ln 2.
  const double euler_gamma = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -euler_gamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - euler_gamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -euler_gamma - 2.0 * std::log(2.0), 1e-10);
}

TEST(Digamma, SatisfiesRecurrence) {
  // psi(x+1) = psi(x) + 1/x.
  for (double x : {0.3, 1.7, 4.2, 11.0}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
  }
}

TEST(Digamma, IsDerivativeOfLogGamma) {
  for (double x : {0.8, 2.5, 7.0}) {
    const double h = 1e-6;
    const double numeric = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h);
    EXPECT_NEAR(digamma(x), numeric, 1e-6);
  }
}

TEST(LogMultivariateBeta, MatchesBetaFunctionFor2) {
  // B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).
  const std::vector<double> alpha = {2.0, 3.0};
  const double expected =
      log_gamma(2.0) + log_gamma(3.0) - log_gamma(5.0);
  EXPECT_NEAR(log_multivariate_beta(alpha), expected, 1e-12);
}

TEST(LogMultivariateBeta, SymmetricDirichletKnownValue) {
  // B(1,1,1) = Gamma(1)^3 / Gamma(3) = 1/2.
  const std::vector<double> alpha = {1.0, 1.0, 1.0};
  EXPECT_NEAR(log_multivariate_beta(alpha), std::log(0.5), 1e-12);
}

TEST(LogNormalPdf, IntegratesToOne) {
  // Riemann sum over a wide grid.
  const double mean = 1.3, sigma = 0.7;
  double integral = 0.0;
  const double dx = 0.001;
  for (double x = mean - 10 * sigma; x < mean + 10 * sigma; x += dx)
    integral += std::exp(log_normal_pdf(x, mean, sigma)) * dx;
  EXPECT_NEAR(integral, 1.0, 1e-4);
}

TEST(LogNormalPdf, PeaksAtMean) {
  EXPECT_GT(log_normal_pdf(2.0, 2.0, 1.0), log_normal_pdf(2.4, 2.0, 1.0));
  EXPECT_GT(log_normal_pdf(2.0, 2.0, 1.0), log_normal_pdf(1.6, 2.0, 1.0));
}

TEST(Normalize, MakesUnitSum) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const double pre = normalize(v);
  EXPECT_DOUBLE_EQ(pre, 10.0);
  double sum = 0.0;
  for (double x : v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-15);
  EXPECT_NEAR(v[3], 0.4, 1e-15);
}

TEST(Normalize, AllZeroLeftUntouched) {
  std::vector<double> v = {0.0, 0.0};
  EXPECT_EQ(normalize(v), 0.0);
  EXPECT_EQ(v[0], 0.0);
}

TEST(MeanVariance, MatchKnownValues) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 3.0);
  EXPECT_DOUBLE_EQ(variance_of(v), 2.0);  // population variance
}

TEST(MeanVariance, DegenerateInputs) {
  EXPECT_EQ(mean_of({}), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(variance_of(one), 0.0);
}

TEST(WeightedMoments, MatchesDirectComputation) {
  WeightedMoments m;
  const std::vector<double> x = {1.0, 5.0, -2.0, 3.5};
  const std::vector<double> w = {0.5, 2.0, 1.0, 0.25};
  double sw = 0.0, swx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m.add(x[i], w[i]);
    sw += w[i];
    swx += w[i] * x[i];
  }
  const double mean = swx / sw;
  double scatter = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    scatter += w[i] * sq(x[i] - mean);
  EXPECT_NEAR(m.weight(), sw, 1e-12);
  EXPECT_NEAR(m.mean(), mean, 1e-12);
  EXPECT_NEAR(m.variance(), scatter / sw, 1e-12);
  EXPECT_NEAR(m.scatter(), scatter, 1e-12);
}

TEST(WeightedMoments, IgnoresNonPositiveWeights) {
  WeightedMoments m;
  m.add(100.0, 0.0);
  m.add(3.0, 1.0);
  m.add(-50.0, -1.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.0);
  EXPECT_DOUBLE_EQ(m.weight(), 1.0);
}

TEST(SafeLog, GuardsNonPositive) {
  EXPECT_EQ(safe_log(0.0), kLogTiny);
  EXPECT_EQ(safe_log(-1.0), kLogTiny);
  EXPECT_DOUBLE_EQ(safe_log(std::exp(1.0)), 1.0);
}

// ---- SPD kernels ----

TEST(Cholesky, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  EXPECT_NEAR(a[2], 1.0, 1e-12);
  EXPECT_NEAR(a[3], std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  std::vector<double> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_FALSE(spd::cholesky(a, 2));
}

TEST(Cholesky, LogDetMatchesDirect) {
  std::vector<double> a = {4.0, 2.0, 2.0, 3.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  // det = 4*3 - 2*2 = 8.
  EXPECT_NEAR(spd::log_det_from_cholesky(a, 2), std::log(8.0), 1e-12);
}

TEST(Cholesky, RoundTripsRandomSpdMatrices) {
  Xoshiro256ss g(71);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t d = 1 + trial % 5;
    // Build A = M M^T + d I (guaranteed SPD).
    std::vector<double> m(d * d);
    for (double& v : m) v = uniform_in(g, -1.0, 1.0);
    std::vector<double> a(d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t k = 0; k < d; ++k)
          a[i * d + j] += m[i * d + k] * m[j * d + k];
        if (i == j) a[i * d + j] += static_cast<double>(d);
      }
    std::vector<double> l = a;
    ASSERT_TRUE(spd::cholesky(l, d));
    // Check L L^T == A on the lower triangle.
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        double v = 0.0;
        for (std::size_t k = 0; k <= j; ++k)
          v += l[i * d + k] * l[j * d + k];
        EXPECT_NEAR(v, a[i * d + j], 1e-9);
      }
  }
}

TEST(ForwardSolve, SolvesLowerTriangularSystem) {
  // L = [[2, 0], [1, 3]], b = [4, 7] -> y = [2, 5/3].
  const std::vector<double> l = {2.0, 0.0, 1.0, 3.0};
  std::vector<double> b = {4.0, 7.0};
  spd::forward_solve(l, 2, b);
  EXPECT_NEAR(b[0], 2.0, 1e-12);
  EXPECT_NEAR(b[1], 5.0 / 3.0, 1e-12);
}

TEST(Mahalanobis, IdentityCovarianceIsSquaredNorm) {
  std::vector<double> a = {1.0, 0.0, 0.0, 1.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_NEAR(spd::mahalanobis2(a, 2, x), 25.0, 1e-12);
}

TEST(Mahalanobis, ScalesInverselyWithVariance) {
  std::vector<double> a = {4.0, 0.0, 0.0, 9.0};
  ASSERT_TRUE(spd::cholesky(a, 2));
  const std::vector<double> x = {2.0, 3.0};
  // x^T diag(1/4, 1/9) x = 1 + 1 = 2.
  EXPECT_NEAR(spd::mahalanobis2(a, 2, x), 2.0, 1e-12);
}

TEST(Mahalanobis, LargeDimensionUsesHeapPath) {
  const std::size_t d = 40;  // > the 32-element stack buffer
  std::vector<double> a(d * d, 0.0);
  for (std::size_t i = 0; i < d; ++i) a[i * d + i] = 1.0;
  ASSERT_TRUE(spd::cholesky(a, d));
  std::vector<double> x(d, 1.0);
  EXPECT_NEAR(spd::mahalanobis2(a, d, x), static_cast<double>(d), 1e-9);
}

}  // namespace
}  // namespace pac
