#include "util/math.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/exp_log_data.hpp"
#include "util/simd.hpp"

namespace pac {

namespace {

using namespace exp_log_data;

// The bit patterns the decimal fdlibm constants must round to.
static_assert(std::bit_cast<std::uint64_t>(kLn2Hi) == 0x3fe62e42fee00000);
static_assert(std::bit_cast<std::uint64_t>(kLn2Lo) == 0x3dea39ef35793c76);
static_assert(std::bit_cast<std::uint64_t>(kLg1) == 0x3fe5555555555593);
static_assert(std::bit_cast<std::uint64_t>(kLg2) == 0x3fd999999997fa04);
static_assert(std::bit_cast<std::uint64_t>(kLg3) == 0x3fd2492494229359);
static_assert(std::bit_cast<std::uint64_t>(kLg4) == 0x3fcc71c51d8e78af);
static_assert(std::bit_cast<std::uint64_t>(kLg5) == 0x3fc7466496cb03de);
static_assert(std::bit_cast<std::uint64_t>(kLg6) == 0x3fc39a09d078c69f);
static_assert(std::bit_cast<std::uint64_t>(kLg7) == 0x3fc2f112df3e5244);

/// exp for 512 <= |x| < 1024, where 2^(k/128) leaves the normal range of
/// the scale word: rescale by 2^1009 (overflow side) or 2^-1022, rounding
/// subnormal results once to avoid double rounding (glibc's specialcase).
double exp_specialcase(double tmp, std::uint64_t sbits,
                       std::uint64_t ki) noexcept {
  if ((ki & 0x80000000) == 0) {
    // k > 0: the exponent of scale may have overflowed by <= 460.
    sbits -= 1009ULL << 52;
    const double scale = asdouble(sbits);
    return 0x1p1009 * (scale + scale * tmp);
  }
  sbits += 1022ULL << 52;
  const double scale = asdouble(sbits);
  double y = scale + scale * tmp;
  if (y < 1.0) {
    double lo = scale - y + scale * tmp;
    const double hi = 1.0 + y;
    lo = 1.0 - hi + y + lo;
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0;  // never -0.0
  }
  return 0x1p-1022 * y;
}

}  // namespace

double exp(double x) noexcept {
  std::uint32_t abstop =
      static_cast<std::uint32_t>(asuint64(x) >> 52) & 0x7ff;
  if (abstop - kExpTopTiny >= kExpTopBig - kExpTopTiny) {
    if (abstop - kExpTopTiny >= 0x80000000) return 1.0 + x;  // |x| < 2^-54
    if (abstop >= kExpTopBig + 1) {                          // |x| >= 1024
      if (x == -std::numeric_limits<double>::infinity()) return 0.0;
      if (abstop >= 0x7ff) return 1.0 + x;  // +inf or NaN
      return (asuint64(x) >> 63) != 0
                 ? 0.0
                 : std::numeric_limits<double>::infinity();
    }
    abstop = 0;  // 512 <= |x| < 1024: finish in exp_specialcase
  }
  // x = k ln2/N + r, |r| <= ln2/2N; exp(x) = 2^(k/N) exp(r).
  const double z = kInvLn2N * x;
  double kd = z + kShift;
  const std::uint64_t ki = asuint64(kd);
  kd -= kShift;
  const double r = x + kd * kNegLn2HiN + kd * kNegLn2LoN;
  const std::uint64_t idx = 2 * (ki % kExpN);
  const std::uint64_t top = ki << (52 - kExpTableBits);
  const double tail = asdouble(kExpTable[idx]);
  const std::uint64_t sbits = kExpTable[idx + 1] + top;
  const double r2 = r * r;
  const double tmp =
      tail + r + r2 * (kExpC2 + r * kExpC3) + r2 * r2 * (kExpC4 + r * kExpC5);
  if (abstop == 0) return exp_specialcase(tmp, sbits, ki);
  const double scale = asdouble(sbits);
  return scale + scale * tmp;
}

double log(double x) noexcept {
  std::int32_t hx = static_cast<std::int32_t>(asuint64(x) >> 32);
  const std::uint32_t lx = static_cast<std::uint32_t>(asuint64(x));
  std::int32_t k = 0;
  if (hx < 0x00100000) {  // x < 2^-1022, zero, or negative
    if (((hx & 0x7fffffff) | static_cast<std::int32_t>(lx)) == 0)
      return -std::numeric_limits<double>::infinity();
    if (hx < 0) return std::numeric_limits<double>::quiet_NaN();
    k -= 54;
    x *= kTwo54;  // scale a subnormal up
    hx = static_cast<std::int32_t>(asuint64(x) >> 32);
  }
  if (hx >= 0x7ff00000) return x + x;  // +inf or NaN
  k += (hx >> 20) - 1023;
  hx &= 0x000fffff;
  const std::int32_t i = (hx + 0x95f64) & 0x100000;
  // Normalize x or x/2 into [sqrt(2)/2, sqrt(2)).
  x = asdouble((asuint64(x) & 0xffffffffULL) |
               (static_cast<std::uint64_t>(hx | (i ^ 0x3ff00000)) << 32));
  k += i >> 20;
  const double f = x - 1.0;
  const double dk = static_cast<double>(k);
  if ((0x000fffff & (2 + hx)) < 3) {  // -2^-20 <= f < 2^-20
    if (f == 0.0) return k == 0 ? 0.0 : dk * kLn2Hi + dk * kLn2Lo;
    const double r = f * f * (0.5 - kOneThird * f);
    if (k == 0) return f - r;
    return dk * kLn2Hi - ((r - dk * kLn2Lo) - f);
  }
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  if (((hx - 0x6147a) | (0x6b851 - hx)) > 0) {
    const double hfsq = 0.5 * f * f;
    if (k == 0) return f - (hfsq - s * (hfsq + r));
    return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
  }
  if (k == 0) return f - s * (f - r);
  return dk * kLn2Hi - ((s * (f - r) - dk * kLn2Lo) - f);
}

double logsumexp(std::span<const double> v) noexcept {
  if (v.empty()) return -std::numeric_limits<double>::infinity();
  double m = -std::numeric_limits<double>::infinity();
  for (double x : v) m = std::max(m, x);
  if (m == -std::numeric_limits<double>::infinity()) return m;
  double s = 0.0;
  for (double x : v) s += pac::exp(x - m);
  return m + pac::log(s);
}

void logsumexp_columns(const double* x, std::size_t n, std::size_t j,
                       double* lse, double* scratch) noexcept {
  const double ninf = -std::numeric_limits<double>::infinity();
  double* m = lse;  // the running max lives in the output until the end
  double* s = scratch;
  double* t = scratch + n;
  for (std::size_t r = 0; r < n; ++r) m[r] = ninf;
  for (std::size_t k = 0; k < j; ++k)
    for (std::size_t r = 0; r < n; ++r) m[r] = std::max(m[r], x[k * n + r]);
  for (std::size_t r = 0; r < n; ++r) s[r] = 0.0;
  for (std::size_t k = 0; k < j; ++k) {
    for (std::size_t r = 0; r < n; ++r) t[r] = x[k * n + r] - m[r];
    simd::exp_lanes(t, t, n);
    for (std::size_t r = 0; r < n; ++r) s[r] += t[r];
  }
  simd::log_lanes(s, s, n);
  // An all -inf item keeps lse = -inf, as logsumexp returns early there.
  for (std::size_t r = 0; r < n; ++r)
    if (m[r] != ninf) lse[r] = m[r] + s[r];
}

double digamma(double x) noexcept {
  // Recurrence to push the argument above 6, then the asymptotic expansion.
  double result = 0.0;
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double log_multivariate_beta(std::span<const double> alpha) noexcept {
  double sum = 0.0;
  double lg = 0.0;
  for (double a : alpha) {
    sum += a;
    lg += log_gamma(a);
  }
  return lg - log_gamma(sum);
}

double normalize(std::span<double> v) noexcept {
  double s = 0.0;
  for (double x : v) s += x;
  if (s > 0.0) {
    const double inv = 1.0 / s;
    for (double& x : v) x *= inv;
  }
  return s;
}

double mean_of(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  KahanSum k;
  for (double x : v) k.add(x);
  return k.value() / static_cast<double>(v.size());
}

double variance_of(std::span<const double> v) noexcept {
  if (v.size() < 2) return 0.0;
  const double m = mean_of(v);
  KahanSum k;
  for (double x : v) k.add(sq(x - m));
  return k.value() / static_cast<double>(v.size());
}

namespace spd {

bool cholesky(std::span<double> a, std::size_t d) noexcept {
  for (std::size_t j = 0; j < d; ++j) {
    double diag = a[j * d + j];
    for (std::size_t k = 0; k < j; ++k) diag -= sq(a[j * d + k]);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    a[j * d + j] = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < d; ++i) {
      double v = a[i * d + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * d + k] * a[j * d + k];
      a[i * d + j] = v * inv;
    }
  }
  return true;
}

double log_det_from_cholesky(std::span<const double> l, std::size_t d) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < d; ++i) s += std::log(l[i * d + i]);
  return 2.0 * s;
}

void forward_solve(std::span<const double> l, std::size_t d,
                   std::span<double> b) noexcept {
  for (std::size_t i = 0; i < d; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l[i * d + k] * b[k];
    b[i] = v / l[i * d + i];
  }
}

double mahalanobis2(std::span<const double> l, std::size_t d,
                    std::span<const double> x) noexcept {
  // Solve L y = x, then |y|^2 = x^T (L L^T)^{-1} x.
  double stack[32];
  std::vector<double> heap;
  std::span<double> y;
  if (d <= 32) {
    y = std::span<double>(stack, d);
  } else {
    heap.resize(d);
    y = std::span<double>(heap);
  }
  std::copy(x.begin(), x.end(), y.begin());
  forward_solve(l, d, y);
  double s = 0.0;
  for (double v : y) s += v * v;
  return s;
}

}  // namespace spd

}  // namespace pac
