// AVX2 kernel bodies.  This is the only TU compiled with -mavx2 (and it is
// excluded from non-x86 builds); everything here is reached only through
// the runtime dispatch in simd.cpp, after __builtin_cpu_supports("avx2").
//
// Bit-identity discipline for the `*_log_prob` kernels: each 4-wide vector
// op is the scalar oracle's op applied per lane — same operand order, same
// association, no FMA intrinsics, and the build keeps -ffp-contract=off so
// the compiler cannot contract either side.  The `*_accumulate_fast`
// kernels instead reproduce the portable reference association in simd.cpp
// (4 lanes mod-4, ((l0+l1)+l2)+l3 fold, in-order tail) exactly.  The
// exp/log lane kernels follow the scalar pac::exp / pac::log of math.cpp
// the same way, reading the same constants from exp_log_data.hpp.
#include "util/simd_internal.hpp"

#if PAC_SIMD_HAVE_X86

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/exp_log_data.hpp"
#include "util/math.hpp"

namespace pac::simd::avx2 {

namespace {

/// out[0..3] += lp, for the 4 items a vector covers.
inline void accumulate_out(__m256d lp, double* out) noexcept {
  _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), lp));
}

/// Strided 4-wide weight load (the E-step weight matrix is class-strided).
inline __m256d load_weights(const double* weights,
                            std::size_t wstride) noexcept {
  return _mm256_set_pd(weights[3 * wstride], weights[2 * wstride],
                       weights[wstride], weights[0]);
}

/// The reference lane fold: ((l0 + l1) + l2) + l3.
inline double fold4(__m256d v) noexcept {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

}  // namespace

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out) noexcept {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const __m256d vlogsig = _mm256_set1_pd(log_sigma);
  const __m256d vlogerr = _mm256_set1_pd(log_error);
  const __m256d vlog2pi = _mm256_set1_pd(kLog2Pi);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(xv, vmean), vsigma);
    __m256d lp = _mm256_mul_pd(
        vneghalf, _mm256_add_pd(vlog2pi, _mm256_mul_pd(z, z)));
    lp = _mm256_add_pd(_mm256_sub_pd(lp, vlogsig), vlogerr);
    // Missing (NaN) lanes contribute exactly 0.0, as in the scalar branch.
    lp = _mm256_and_pd(lp, _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    accumulate_out(lp, out + i);
  }
  for (; i < n; ++i) {
    double lp = 0.0;
    if (!std::isnan(x[i])) {
      const double z = (x[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma + log_error;
    }
    out[i] += lp;
  }
}

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out) noexcept {
  const __m256d vmean = _mm256_set1_pd(mean);
  const __m256d vsigma = _mm256_set1_pd(sigma);
  const __m256d vlogsig = _mm256_set1_pd(log_sigma);
  const __m256d vlogerr = _mm256_set1_pd(log_error);
  const __m256d vlog2pi = _mm256_set1_pd(kLog2Pi);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m256d xv = _mm256_loadu_pd(lx + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(xv, vmean), vsigma);
    __m256d lp = _mm256_mul_pd(
        vneghalf, _mm256_add_pd(vlog2pi, _mm256_mul_pd(z, z)));
    // Scalar order: (((-0.5*(..) - log_sigma) - lx) + log_error).
    lp = _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(lp, vlogsig), xv),
                       vlogerr);
    lp = _mm256_and_pd(lp, _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    accumulate_out(lp, out + i);
  }
  for (; i < n; ++i) {
    double lp = 0.0;
    if (!std::isnan(lx[i])) {
      const double z = (lx[i] - mean) / sigma;
      lp = -0.5 * (kLog2Pi + z * z) - log_sigma - lx[i] + log_error;
    }
    out[i] += lp;
  }
}

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp,
                          double* out) noexcept {
  const __m256d vmissing = _mm256_set1_pd(missing_lp);
  const __m128i vminus1 = _mm_set1_epi32(-1);
  const __m128i vzero32 = _mm_setzero_si128();
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    // known = (v >= 0); missing symbols take the hoisted missing_lp lane.
    const __m128i known32 = _mm_cmpgt_epi32(idx, vminus1);
    const __m256d known = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(known32));
    // Clamp masked-off (negative) indices to 0; their lanes are not loaded,
    // this just keeps the address arithmetic in-range by construction.
    const __m128i safe_idx = _mm_max_epi32(idx, vzero32);
    const __m256d lp =
        _mm256_mask_i32gather_pd(vmissing, table, safe_idx, known, 8);
    accumulate_out(lp, out + i);
  }
  for (; i < n; ++i)
    out[i] += v[i] < 0 ? missing_lp : table[static_cast<std::size_t>(v[i])];
}

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out) noexcept {
  const double* l = params + d;  // Cholesky factor, row-major d*d
  const double logdet = params[d + d * d];
  const double dd = static_cast<double>(d);
  // Hoisted pure recomputation: the scalar loop evaluates
  // (dd * kLog2Pi + logdet) + maha with this exact association every item.
  const double base = dd * kLog2Pi + logdet;
  const __m256d vbase = _mm256_set1_pd(base);
  const __m256d vlogerrsum = _mm256_set1_pd(log_error_sum);
  const __m256d vneghalf = _mm256_set1_pd(-0.5);
  __m256d y[32];  // d <= 32, enforced by the term
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    // Lane-wise forward solve: each lane runs spd::forward_solve's exact
    // scalar sequence on its own item (diff computed in place of b).
    for (std::size_t r = 0; r < d; ++r) {
      __m256d acc = _mm256_sub_pd(_mm256_loadu_pd(cols[r] + i0 + i),
                                  _mm256_set1_pd(params[r]));
      for (std::size_t k = 0; k < r; ++k)
        acc = _mm256_sub_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(l[r * d + k]), y[k]));
      y[r] = _mm256_div_pd(acc, _mm256_set1_pd(l[r * d + r]));
    }
    // |y|^2 in index order, starting from +0.0 (mahalanobis2's fold).
    __m256d maha = _mm256_setzero_pd();
    for (std::size_t r = 0; r < d; ++r)
      maha = _mm256_add_pd(maha, _mm256_mul_pd(y[r], y[r]));
    const __m256d lp = _mm256_add_pd(
        _mm256_mul_pd(vneghalf, _mm256_add_pd(vbase, maha)), vlogerrsum);
    accumulate_out(lp, out + i);
  }
  if (i < n) {
    double diff_stack[32];
    std::span<double> diff(diff_stack, d);
    const std::span<const double> chol(l, d * d);
    for (; i < n; ++i) {
      for (std::size_t k = 0; k < d; ++k)
        diff[k] = cols[k][i0 + i] - params[k];
      const double maha = spd::mahalanobis2(chol, d, diff);
      out[i] += -0.5 * (dd * kLog2Pi + logdet + maha) + log_error_sum;
    }
  }
}

void gaussian_accumulate_fast(const double* x, const double* weights,
                              std::size_t wstride, std::size_t n,
                              double* stats) noexcept {
  const __m256d vzero = _mm256_setzero_pd();
  __m256d sw = vzero, swx = vzero, swx2 = vzero;
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d w = load_weights(weights + i * wstride, wstride);
    __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(w, vzero, _CMP_GT_OQ),
                                     _mm256_cmp_pd(xv, xv, _CMP_ORD_Q));
    w = _mm256_and_pd(w, ok);
    xv = _mm256_and_pd(xv, ok);
    sw = _mm256_add_pd(sw, w);
    const __m256d wx = _mm256_mul_pd(w, xv);
    swx = _mm256_add_pd(swx, wx);
    swx2 = _mm256_add_pd(swx2, _mm256_mul_pd(wx, xv));
  }
  double tsw = fold4(sw);
  double tswx = fold4(swx);
  double tswx2 = fold4(swx2);
  for (; i < n; ++i) {
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

void multinormal_accumulate_fast(const double* const* cols, std::size_t d,
                                 std::size_t i0, std::size_t n,
                                 const double* weights, std::size_t wstride,
                                 double* stats) noexcept {
  const __m256d vzero = _mm256_setzero_pd();
  __m256d sw_v = vzero;
  __m256d swx_v[32];
  __m256d swxx_v[528];  // lower triangle, index k*(k+1)/2 + l
  for (std::size_t k = 0; k < d; ++k) swx_v[k] = vzero;
  for (std::size_t t = 0; t < d * (d + 1) / 2; ++t) swxx_v[t] = vzero;
  __m256d xs[32];
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d w = load_weights(weights + i * wstride, wstride);
    w = _mm256_and_pd(w, _mm256_cmp_pd(w, vzero, _CMP_GT_OQ));
    sw_v = _mm256_add_pd(sw_v, w);
    for (std::size_t k = 0; k < d; ++k)
      xs[k] = _mm256_loadu_pd(cols[k] + i0 + i);
    for (std::size_t k = 0; k < d; ++k) {
      const __m256d wx = _mm256_mul_pd(w, xs[k]);
      swx_v[k] = _mm256_add_pd(swx_v[k], wx);
      __m256d* rows = swxx_v + k * (k + 1) / 2;
      for (std::size_t l = 0; l <= k; ++l)
        rows[l] = _mm256_add_pd(rows[l], _mm256_mul_pd(wx, xs[l]));
    }
  }
  double acc_sw = fold4(sw_v);
  double acc_swx[32];
  double acc_swxx[528];
  for (std::size_t k = 0; k < d; ++k) {
    acc_swx[k] = fold4(swx_v[k]);
    for (std::size_t l = 0; l <= k; ++l) {
      const std::size_t ti = k * (k + 1) / 2 + l;
      acc_swxx[ti] = fold4(swxx_v[ti]);
    }
  }
  for (; i < n; ++i) {
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

namespace {

using namespace exp_log_data;

inline __m256d splat(double v) noexcept { return _mm256_set1_pd(v); }
inline __m256i splat64(long long v) noexcept { return _mm256_set1_epi64x(v); }

/// pac::exp's main path on 4 lanes, valid for |x| < 512 (other lanes come
/// out as garbage for the caller to replace).  Operand order and
/// association follow math.cpp exactly.
inline __m256d exp4(__m256d x) noexcept {
  const __m256d z = _mm256_mul_pd(splat(kInvLn2N), x);
  __m256d kd = _mm256_add_pd(z, splat(kShift));
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, splat(kShift));
  const __m256d r =
      _mm256_add_pd(_mm256_add_pd(x, _mm256_mul_pd(kd, splat(kNegLn2HiN))),
                    _mm256_mul_pd(kd, splat(kNegLn2LoN)));
  // idx = 2 * (ki % N); the table interleaves tail and scale words.
  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(ki, splat64(static_cast<long long>(kExpN - 1))), 1);
  const auto* tab = reinterpret_cast<const long long*>(kExpTable);
  const __m256d tail =
      _mm256_castsi256_pd(_mm256_i64gather_epi64(tab, idx, 8));
  const __m256i sbits =
      _mm256_add_epi64(_mm256_i64gather_epi64(tab + 1, idx, 8),
                       _mm256_slli_epi64(ki, 52 - kExpTableBits));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d p23 =
      _mm256_add_pd(splat(kExpC2), _mm256_mul_pd(r, splat(kExpC3)));
  const __m256d p45 =
      _mm256_add_pd(splat(kExpC4), _mm256_mul_pd(r, splat(kExpC5)));
  const __m256d tmp = _mm256_add_pd(
      _mm256_add_pd(_mm256_add_pd(tail, r), _mm256_mul_pd(r2, p23)),
      _mm256_mul_pd(_mm256_mul_pd(r2, r2), p45));
  const __m256d scale = _mm256_castsi256_pd(sbits);
  return _mm256_add_pd(scale, _mm256_mul_pd(scale, tmp));
}

/// pac::log on 4 lanes holding positive normal finite values (other lanes
/// come out as garbage).  Every branch of the scalar function is evaluated
/// and the lane's own branch is blended in; integer steps run in 64-bit
/// lanes on the high word, whose values never leave int32 range.
inline __m256d log4(__m256i bits) noexcept {
  const __m256i hx_full = _mm256_srli_epi64(bits, 32);
  const __m256i hx = _mm256_and_si256(hx_full, splat64(0x000fffff));
  const __m256i i =
      _mm256_and_si256(_mm256_add_epi64(hx, splat64(0x95f64)),
                       splat64(0x100000));
  const __m256i k = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(hx_full, 20), splat64(1023)),
      _mm256_srli_epi64(i, 20));
  // Normalize x or x/2 into [sqrt(2)/2, sqrt(2)).
  const __m256i top = _mm256_or_si256(
      hx, _mm256_xor_si256(i, splat64(0x3ff00000)));
  const __m256d xn = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_slli_epi64(top, 32),
                      _mm256_and_si256(bits, splat64(0xffffffffLL))));
  const __m256d f = _mm256_sub_pd(xn, splat(1.0));
  // (double)k, exact for |k| < 2^51: bias into 0x1.8p52's mantissa.
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_add_epi64(splat64(0x4338000000000000LL), k)),
      splat(0x1.8p52));
  const __m256d k_zero =
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, _mm256_setzero_si256()));
  const __m256d hi = _mm256_mul_pd(dk, splat(kLn2Hi));
  const __m256d lo = _mm256_mul_pd(dk, splat(kLn2Lo));

  // |f| < 2^-20 (f == 0 falls out of the same expressions exactly).
  const __m256d small = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      splat64(3), _mm256_and_si256(_mm256_add_epi64(hx, splat64(2)),
                                   splat64(0x000fffff))));
  const __m256d r1 = _mm256_mul_pd(
      _mm256_mul_pd(f, f),
      _mm256_sub_pd(splat(0.5), _mm256_mul_pd(splat(kOneThird), f)));
  const __m256d small_res = _mm256_blendv_pd(
      _mm256_sub_pd(hi, _mm256_sub_pd(_mm256_sub_pd(r1, lo), f)),
      _mm256_sub_pd(f, r1), k_zero);

  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(
             splat(kLg2),
             _mm256_mul_pd(w, _mm256_add_pd(splat(kLg4),
                                            _mm256_mul_pd(w, splat(kLg6))))));
  const __m256d t2 = _mm256_mul_pd(
      z,
      _mm256_add_pd(
          splat(kLg1),
          _mm256_mul_pd(
              w, _mm256_add_pd(
                     splat(kLg3),
                     _mm256_mul_pd(
                         w, _mm256_add_pd(splat(kLg5),
                                          _mm256_mul_pd(w, splat(kLg7))))))));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d use_hfsq = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      _mm256_or_si256(_mm256_sub_epi64(hx, splat64(0x6147a)),
                      _mm256_sub_epi64(splat64(0x6b851), hx)),
      _mm256_setzero_si256()));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  const __m256d shr = _mm256_mul_pd(s, _mm256_add_pd(hfsq, r));
  const __m256d a = _mm256_blendv_pd(
      _mm256_sub_pd(
          hi, _mm256_sub_pd(_mm256_sub_pd(hfsq, _mm256_add_pd(shr, lo)), f)),
      _mm256_sub_pd(f, _mm256_sub_pd(hfsq, shr)), k_zero);
  const __m256d sfr = _mm256_mul_pd(s, _mm256_sub_pd(f, r));
  const __m256d b = _mm256_blendv_pd(
      _mm256_sub_pd(hi, _mm256_sub_pd(_mm256_sub_pd(sfr, lo), f)),
      _mm256_sub_pd(f, sfr), k_zero);
  return _mm256_blendv_pd(_mm256_blendv_pd(b, a, use_hfsq), small_res, small);
}

/// Replace the lanes flagged in `mask` by the scalar function of x.
template <double (*Scalar)(double) noexcept>
inline __m256d patch_lanes(__m256d res, __m256d x, int mask) noexcept {
  alignas(32) double xs[4];
  alignas(32) double ys[4];
  _mm256_store_pd(xs, x);
  _mm256_store_pd(ys, res);
  for (int l = 0; l < 4; ++l)
    if ((mask >> l) & 1) ys[l] = Scalar(xs[l]);
  return _mm256_load_pd(ys);
}

}  // namespace

void exp_lanes(const double* x, double* y, std::size_t n) noexcept {
  const __m256d abs_mask = _mm256_castsi256_pd(splat64(0x7fffffffffffffffLL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d ax = _mm256_and_pd(xv, abs_mask);
    __m256d res = exp4(xv);
    // |x| < 2^-54: the scalar function's 1.0 + x branch, in-vector.  Every
    // row's max class reaches exp at exactly 0, so this lane is common.
    res = _mm256_blendv_pd(res, _mm256_add_pd(splat(1.0), xv),
                           _mm256_cmp_pd(ax, splat(kExpTiny), _CMP_LT_OQ));
    // |x| >= 512, NaN or ±inf (unordered compares true): scalar fallback.
    const int special =
        _mm256_movemask_pd(_mm256_cmp_pd(ax, splat(kExpBig), _CMP_NLT_UQ));
    if (special != 0) res = patch_lanes<pac::exp>(res, xv, special);
    _mm256_storeu_pd(y + i, res);
  }
  for (; i < n; ++i) y[i] = pac::exp(x[i]);
}

void log_lanes(const double* x, double* y, std::size_t n) noexcept {
  // Positive normal finite lanes: 2^-1022 <= x < +inf as signed bits.
  const __m256i below = splat64(0x000fffffffffffffLL);
  const __m256i above = splat64(0x7ff0000000000000LL);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256i bits = _mm256_castpd_si256(xv);
    __m256d res = log4(bits);
    const __m256i ok = _mm256_and_si256(_mm256_cmpgt_epi64(bits, below),
                                        _mm256_cmpgt_epi64(above, bits));
    const int special = _mm256_movemask_pd(_mm256_castsi256_pd(ok)) ^ 0xf;
    if (special != 0) res = patch_lanes<pac::log>(res, xv, special);
    _mm256_storeu_pd(y + i, res);
  }
  for (; i < n; ++i) y[i] = pac::log(x[i]);
}

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86
