// Runtime dispatch plus the portable (and NEON) kernel implementations.
//
// The portable `*_log_prob` bodies are line-for-line the scalar batch loops
// from terms.cpp, so a host with no vector unit — or a PAC_SIMD=0 run —
// produces exactly the oracle's bits through this layer too.  The portable
// fast-math folds define the *reference association* (4 lanes, mod-4 item
// assignment, ((l0+l1)+l2)+l3 combine, in-order tail) that the AVX2 TU must
// reproduce bit-for-bit; keep the two in lockstep when editing either.
#include "util/simd.hpp"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "util/math.hpp"
#include "util/simd_internal.hpp"

#if PAC_SIMD_HAVE_NEON
#include <arm_neon.h>
#endif

namespace pac::simd {

namespace {

/// ScopedForceLevel override slot: -1 = none, else the forced Level value.
std::atomic<int> g_override{-1};

Level compute_detected() noexcept {
#if PAC_SIMD_HAVE_X86
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#elif PAC_SIMD_HAVE_NEON
  return Level::kNeon;  // baseline on aarch64
#else
  return Level::kScalar;
#endif
}

Level compute_env_level() noexcept {
  return detail::env_value_enables(std::getenv("PAC_SIMD")) ? detected_level()
                                                            : Level::kScalar;
}

bool ieq(const char* a, const char* b) noexcept {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    const int ca = std::tolower(static_cast<unsigned char>(*a));
    const int cb = std::tolower(static_cast<unsigned char>(*b));
    if (ca != cb) return false;
  }
  return *a == '\0' && *b == '\0';
}

}  // namespace

bool detail::env_value_enables(const char* value) noexcept {
  if (value == nullptr || *value == '\0') return true;
  return !(std::strcmp(value, "0") == 0 || ieq(value, "off") ||
           ieq(value, "scalar") || ieq(value, "false") || ieq(value, "no"));
}

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

Level detected_level() noexcept {
  static const Level l = compute_detected();
  return l;
}

Level level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level l = compute_env_level();
  return l;
}

bool active() noexcept { return level() != Level::kScalar; }

const char* describe() noexcept {
  static thread_local char buf[128];
  static const Level env_level = compute_env_level();
  const bool env_forced_off =
      env_level == Level::kScalar && detected_level() != Level::kScalar;
  std::snprintf(buf, sizeof(buf), "dispatch=%s detected=%s%s",
                to_string(level()), to_string(detected_level()),
                env_forced_off ? " (PAC_SIMD forced scalar)" : "");
  return buf;
}

ScopedForceLevel::ScopedForceLevel(Level request) noexcept {
  // Any non-scalar request resolves to the best level this host executes;
  // kScalar is always honored as-is.
  effective_ = request == Level::kScalar ? Level::kScalar : detected_level();
  previous_ = g_override.exchange(static_cast<int>(effective_),
                                  std::memory_order_relaxed);
}

ScopedForceLevel::~ScopedForceLevel() {
  g_override.store(previous_, std::memory_order_relaxed);
}

// ===========================================================================
// Portable kernels (the scalar batch loops from terms.cpp, verbatim).
// ===========================================================================

namespace {

void gaussian_log_prob_portable(const double* x, std::size_t n, double mean,
                                double sigma, double log_sigma,
                                double log_error, double* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    double lp = 0.0;
    if (!std::isnan(x[i])) {
      const double z = (x[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma + log_error;
    }
    out[i] += lp;
  }
}

void lognormal_log_prob_portable(const double* lx, std::size_t n, double mean,
                                 double sigma, double log_sigma,
                                 double log_error, double* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    double lp = 0.0;
    if (!std::isnan(lx[i])) {
      const double z = (lx[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma - lx[i] + log_error;
    }
    out[i] += lp;
  }
}

void multinomial_log_prob_portable(const std::int32_t* v, std::size_t n,
                                   const double* table, double missing_lp,
                                   double* out) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    out[i] += v[i] < 0 ? missing_lp : table[static_cast<std::size_t>(v[i])];
}

void multinormal_log_prob_portable(const double* const* cols, std::size_t d,
                                   std::size_t i0, std::size_t n,
                                   const double* params, double log_error_sum,
                                   double* out) noexcept {
  double diff_stack[32];
  std::span<double> diff(diff_stack, d);
  const std::span<const double> chol(params + d, d * d);
  const double logdet = params[d + d * d];
  const double dd = static_cast<double>(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) diff[k] = cols[k][i0 + i] - params[k];
    const double maha = spd::mahalanobis2(chol, d, diff);
    out[i] += -0.5 * (dd * kLog2Pi + logdet + maha) + log_error_sum;
  }
}

// ---------------------------------------------------------------------------
// Portable fast-math folds — the reference for the fixed 4-lane association.
// ---------------------------------------------------------------------------

inline double fold4(const double lane[4]) noexcept {
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

void gaussian_accumulate_fast_portable(const double* x, const double* weights,
                                       std::size_t wstride, std::size_t n,
                                       double* stats) noexcept {
  double sw[4] = {0.0, 0.0, 0.0, 0.0};
  double swx[4] = {0.0, 0.0, 0.0, 0.0};
  double swx2[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double wr = weights[(i + j) * wstride];
      const double xr = x[i + j];
      // Skipped items (w <= 0 or missing) contribute exactly +0.0 so every
      // lane performs the same three additions per group.
      const bool ok = wr > 0.0 && !std::isnan(xr);
      const double w = ok ? wr : 0.0;
      const double xv = ok ? xr : 0.0;
      sw[j] += w;
      const double wx = w * xv;
      swx[j] += wx;
      swx2[j] += wx * xv;
    }
  }
  double tsw = fold4(sw);
  double tswx = fold4(swx);
  double tswx2 = fold4(swx2);
  for (std::size_t i = n4; i < n; ++i) {
    const double wr = weights[i * wstride];
    const double xr = x[i];
    const bool ok = wr > 0.0 && !std::isnan(xr);
    const double w = ok ? wr : 0.0;
    const double xv = ok ? xr : 0.0;
    tsw += w;
    const double wx = w * xv;
    tswx += wx;
    tswx2 += wx * xv;
  }
  stats[0] += tsw;
  stats[1] += tswx;
  stats[2] += tswx2;
}

void multinormal_accumulate_fast_portable(const double* const* cols,
                                          std::size_t d, std::size_t i0,
                                          std::size_t n, const double* weights,
                                          std::size_t wstride,
                                          double* stats) noexcept {
  // Lane accumulators: sw, swx[k], and the lower triangle swxx[k][l]
  // addressed by the triangular index k*(k+1)/2 + l (d <= 32 -> 528 slots).
  double sw_l[4] = {0.0, 0.0, 0.0, 0.0};
  double swx_l[32][4] = {};
  double swxx_l[528][4] = {};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    double w[4];
    for (std::size_t j = 0; j < 4; ++j) {
      const double wr = weights[(i + j) * wstride];
      w[j] = wr > 0.0 ? wr : 0.0;
    }
    for (std::size_t j = 0; j < 4; ++j) sw_l[j] += w[j];
    for (std::size_t k = 0; k < d; ++k) {
      const double* colk = cols[k] + i0 + i;
      double wx[4];
      for (std::size_t j = 0; j < 4; ++j) {
        wx[j] = w[j] * colk[j];
        swx_l[k][j] += wx[j];
      }
      double(*rows)[4] = swxx_l + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l) {
        const double* coll = cols[l] + i0 + i;
        for (std::size_t j = 0; j < 4; ++j) rows[l][j] += wx[j] * coll[j];
      }
    }
  }
  double acc_sw = fold4(sw_l);
  double acc_swx[32];
  double acc_swxx[528];
  for (std::size_t k = 0; k < d; ++k) {
    acc_swx[k] = fold4(swx_l[k]);
    for (std::size_t l = 0; l <= k; ++l) {
      const std::size_t ti = k * (k + 1) / 2 + l;
      acc_swxx[ti] = fold4(swxx_l[ti]);
    }
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double wr = weights[i * wstride];
    const double w = wr > 0.0 ? wr : 0.0;
    acc_sw += w;
    for (std::size_t k = 0; k < d; ++k) {
      const double wxk = w * cols[k][i0 + i];
      acc_swx[k] += wxk;
      double* row = acc_swxx + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l) row[l] += wxk * cols[l][i0 + i];
    }
  }
  stats[0] += acc_sw;
  for (std::size_t k = 0; k < d; ++k) {
    stats[1 + k] += acc_swx[k];
    double* row = stats + 1 + d + k * d;
    for (std::size_t l = 0; l <= k; ++l)
      row[l] += acc_swxx[k * (k + 1) / 2 + l];
  }
}

// ---------------------------------------------------------------------------
// NEON (aarch64): 2-lane elementwise kernels for the normal families.  The
// table walk and the lane-wise solve gain little at 2 lanes, so they stay on
// the portable loops.  Untunable here but kept intentionally simple: pure
// elementwise IEEE ops, so lane outputs match the scalar oracle bitwise.
// ---------------------------------------------------------------------------

#if PAC_SIMD_HAVE_NEON

void gaussian_log_prob_neon(const double* x, std::size_t n, double mean,
                            double sigma, double log_sigma, double log_error,
                            double* out) noexcept {
  const float64x2_t vmean = vdupq_n_f64(mean);
  const float64x2_t vsigma = vdupq_n_f64(sigma);
  const float64x2_t vlogsig = vdupq_n_f64(log_sigma);
  const float64x2_t vlogerr = vdupq_n_f64(log_error);
  const float64x2_t vlog2pi = vdupq_n_f64(kLog2Pi);
  const float64x2_t vneghalf = vdupq_n_f64(-0.5);
  const std::size_t n2 = n & ~std::size_t{1};
  std::size_t i = 0;
  for (; i < n2; i += 2) {
    const float64x2_t xv = vld1q_f64(x + i);
    const float64x2_t z = vdivq_f64(vsubq_f64(xv, vmean), vsigma);
    float64x2_t lp = vmulq_f64(vneghalf, vaddq_f64(vlog2pi, vmulq_f64(z, z)));
    lp = vaddq_f64(vsubq_f64(lp, vlogsig), vlogerr);
    // NaN input lanes contribute exactly 0.0 (ordered-compare mask).
    const uint64x2_t ord = vceqq_f64(xv, xv);
    lp = vreinterpretq_f64_u64(
        vandq_u64(ord, vreinterpretq_u64_f64(lp)));
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(out + i), lp));
  }
  if (i < n)
    gaussian_log_prob_portable(x + i, n - i, mean, sigma, log_sigma,
                               log_error, out + i);
}

void lognormal_log_prob_neon(const double* lx, std::size_t n, double mean,
                             double sigma, double log_sigma, double log_error,
                             double* out) noexcept {
  const float64x2_t vmean = vdupq_n_f64(mean);
  const float64x2_t vsigma = vdupq_n_f64(sigma);
  const float64x2_t vlogsig = vdupq_n_f64(log_sigma);
  const float64x2_t vlogerr = vdupq_n_f64(log_error);
  const float64x2_t vlog2pi = vdupq_n_f64(kLog2Pi);
  const float64x2_t vneghalf = vdupq_n_f64(-0.5);
  const std::size_t n2 = n & ~std::size_t{1};
  std::size_t i = 0;
  for (; i < n2; i += 2) {
    const float64x2_t xv = vld1q_f64(lx + i);
    const float64x2_t z = vdivq_f64(vsubq_f64(xv, vmean), vsigma);
    float64x2_t lp = vmulq_f64(vneghalf, vaddq_f64(vlog2pi, vmulq_f64(z, z)));
    lp = vaddq_f64(vsubq_f64(vsubq_f64(lp, vlogsig), xv), vlogerr);
    const uint64x2_t ord = vceqq_f64(xv, xv);
    lp = vreinterpretq_f64_u64(
        vandq_u64(ord, vreinterpretq_u64_f64(lp)));
    vst1q_f64(out + i, vaddq_f64(vld1q_f64(out + i), lp));
  }
  if (i < n)
    lognormal_log_prob_portable(lx + i, n - i, mean, sigma, log_sigma,
                                log_error, out + i);
}

#endif  // PAC_SIMD_HAVE_NEON

}  // namespace

// ===========================================================================
// Dispatch.
// ===========================================================================

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::gaussian_log_prob(x, n, mean, sigma, log_sigma, log_error, out);
    return;
  }
#elif PAC_SIMD_HAVE_NEON
  if (level() == Level::kNeon) {
    gaussian_log_prob_neon(x, n, mean, sigma, log_sigma, log_error, out);
    return;
  }
#endif
  gaussian_log_prob_portable(x, n, mean, sigma, log_sigma, log_error, out);
}

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::lognormal_log_prob(lx, n, mean, sigma, log_sigma, log_error, out);
    return;
  }
#elif PAC_SIMD_HAVE_NEON
  if (level() == Level::kNeon) {
    lognormal_log_prob_neon(lx, n, mean, sigma, log_sigma, log_error, out);
    return;
  }
#endif
  lognormal_log_prob_portable(lx, n, mean, sigma, log_sigma, log_error, out);
}

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp,
                          double* out) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinomial_log_prob(v, n, table, missing_lp, out);
    return;
  }
#endif
  multinomial_log_prob_portable(v, n, table, missing_lp, out);
}

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinormal_log_prob(cols, d, i0, n, params, log_error_sum, out);
    return;
  }
#endif
  multinormal_log_prob_portable(cols, d, i0, n, params, log_error_sum, out);
}

void exp_lanes(const double* x, double* y, std::size_t n) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::exp_lanes(x, y, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = pac::exp(x[i]);
}

void log_lanes(const double* x, double* y, std::size_t n) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::log_lanes(x, y, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = pac::log(x[i]);
}

void gaussian_accumulate_fast(const double* x, const double* weights,
                              std::size_t wstride, std::size_t n,
                              double* stats) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::gaussian_accumulate_fast(x, weights, wstride, n, stats);
    return;
  }
#endif
  gaussian_accumulate_fast_portable(x, weights, wstride, n, stats);
}

void multinormal_accumulate_fast(const double* const* cols, std::size_t d,
                                 std::size_t i0, std::size_t n,
                                 const double* weights, std::size_t wstride,
                                 double* stats) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinormal_accumulate_fast(cols, d, i0, n, weights, wstride, stats);
    return;
  }
#endif
  multinormal_accumulate_fast_portable(cols, d, i0, n, weights, wstride,
                                       stats);
}

}  // namespace pac::simd
