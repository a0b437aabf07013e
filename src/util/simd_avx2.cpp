// AVX2 kernel bodies.  This is the only TU compiled with -mavx2 (and it is
// excluded from non-x86 builds); everything here is reached only through
// the runtime dispatch in simd.cpp, after __builtin_cpu_supports("avx2").
// It is also built with -mpclmul for the CRC fold, which the dispatch
// reaches only after __builtin_cpu_supports("pclmul") as well.
//
// Bit-identity discipline for the `*_log_prob` kernels: each 4-wide vector
// op is the scalar oracle's op applied per lane — same operand order, same
// association, no FMA intrinsics, and the build keeps -ffp-contract=off so
// the compiler cannot contract either side.  The exp/log lane kernels
// follow the scalar pac::exp / pac::log of math.cpp the same way, reading
// the same constants from exp_log_data.hpp.  The M-step kernels put
// classes in the lanes and keep the scalar chain's per-slot item order.
#include "util/simd_internal.hpp"

#if PAC_SIMD_HAVE_X86

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/exp_log_data.hpp"
#include "util/math.hpp"

namespace pac::simd::avx2 {

namespace {

/// out[0..3] += lp, for the 4 items a vector covers.
inline void accumulate_out(__m256d lp, double* out) noexcept {
  _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), lp));
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

/// pac::exp of 4 lanes, bit for bit.
inline __m256d exp4_exact(__m256d xv) noexcept {
  const __m256d ax =
      _mm256_and_pd(xv, _mm256_castsi256_pd(splat64(0x7fffffffffffffffLL)));
  __m256d res = exp4(xv);
  // |x| < 2^-54: the scalar function's 1.0 + x branch, in-vector.  Every
  // row's max class reaches exp at exactly 0, so this lane is common.
  res = _mm256_blendv_pd(res, _mm256_add_pd(splat(1.0), xv),
                         _mm256_cmp_pd(ax, splat(kExpTiny), _CMP_LT_OQ));
  // |x| >= 512, NaN or ±inf (unordered compares true): scalar fallback.
  const int special =
      _mm256_movemask_pd(_mm256_cmp_pd(ax, splat(kExpBig), _CMP_NLT_UQ));
  if (special != 0) res = patch_lanes<pac::exp>(res, xv, special);
  return res;
}

/// pac::log of 4 lanes, bit for bit.
inline __m256d log4_exact(__m256d xv) noexcept {
  // Positive normal finite lanes: 2^-1022 <= x < +inf as signed bits.
  const __m256i bits = _mm256_castpd_si256(xv);
  __m256d res = log4(bits);
  const __m256i ok = _mm256_and_si256(
      _mm256_cmpgt_epi64(bits, splat64(0x000fffffffffffffLL)),
      _mm256_cmpgt_epi64(splat64(0x7ff0000000000000LL), bits));
  const int special = _mm256_movemask_pd(_mm256_castsi256_pd(ok)) ^ 0xf;
  if (special != 0) res = patch_lanes<pac::log>(res, xv, special);
  return res;
}

}  // namespace

void exp_lanes(const double* x, double* y, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, exp4_exact(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = pac::exp(x[i]);
}

void log_lanes(const double* x, double* y, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(y + i, log4_exact(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) y[i] = pac::log(x[i]);
}

// ---------------------------------------------------------------------------
// Row normalization, lanes = items.  Each lane runs logsumexp's sequence on
// its own item (max in class order, the exp(x - max) sum in class order,
// max + log(sum)) and then exp(x - lse) per class, all straight from the
// class-major block in registers.
// ---------------------------------------------------------------------------

namespace {

/// lse of G groups of 4 items side by side (x + 4 * g, class k at k * n):
/// the groups' dependency chains — max, exp sum, log — interleave, so one
/// group's log latency hides behind the other's exps.
template <std::size_t G>
inline void group_lse(const double* x, std::size_t n, std::size_t j,
                      double* lse) noexcept {
  const __m256d ninf = splat(-std::numeric_limits<double>::infinity());
  __m256d m[G], s[G];
  for (std::size_t g = 0; g < G; ++g) m[g] = ninf;
  // std::max(m, x) keeps m unless m < x, so a NaN x never wins:
  // _mm256_max_pd(x, m) = x > m ? x : m.
  for (std::size_t k = 0; k < j; ++k)
    for (std::size_t g = 0; g < G; ++g)
      m[g] = _mm256_max_pd(_mm256_loadu_pd(x + 4 * g + k * n), m[g]);
  for (std::size_t g = 0; g < G; ++g) s[g] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < j; ++k)
    for (std::size_t g = 0; g < G; ++g)
      s[g] = _mm256_add_pd(
          s[g], exp4_exact(_mm256_sub_pd(
                    _mm256_loadu_pd(x + 4 * g + k * n), m[g])));
  // An item that is -inf under every class keeps lse = -inf, as logsumexp
  // returns early there.
  for (std::size_t g = 0; g < G; ++g)
    _mm256_storeu_pd(
        lse + 4 * g,
        _mm256_blendv_pd(_mm256_add_pd(m[g], log4_exact(s[g])), m[g],
                         _mm256_cmp_pd(m[g], ninf, _CMP_EQ_OQ)));
}

/// Rows i = 0..3 of a 4 x 4 tile: w[c] holds class c of items 0..3 on
/// entry, row i of the tile (classes 0..3 of item i) on return.
inline void transpose4(__m256d w[4]) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(w[0], w[1]);  // a0 b0 a2 b2
  const __m256d t1 = _mm256_unpackhi_pd(w[0], w[1]);  // a1 b1 a3 b3
  const __m256d t2 = _mm256_unpacklo_pd(w[2], w[3]);  // c0 d0 c2 d2
  const __m256d t3 = _mm256_unpackhi_pd(w[2], w[3]);  // c1 d1 c3 d3
  w[0] = _mm256_permute2f128_pd(t0, t2, 0x20);         // a0 b0 c0 d0
  w[1] = _mm256_permute2f128_pd(t1, t3, 0x20);         // a1 b1 c1 d1
  w[2] = _mm256_permute2f128_pd(t0, t2, 0x31);         // a2 b2 c2 d2
  w[3] = _mm256_permute2f128_pd(t1, t3, 0x31);         // a3 b3 c3 d3
}

}  // namespace

void normalize_columns(const double* lj, std::size_t n, std::size_t j,
                       double* out, double* lse, double* wj) noexcept {
  const std::size_t groups_end = n & ~std::size_t{3};
  std::size_t r = 0;
  for (; r + 8 <= groups_end; r += 8) group_lse<2>(lj + r, n, j, lse + r);
  if (r < groups_end) group_lse<1>(lj + r, n, j, lse + r);
  const std::size_t full = j & ~std::size_t{3};
  for (r = 0; r < groups_end; r += 4) {
    const double* x = lj + r;  // class k of the group's items at x + k * n
    const __m256d l = _mm256_loadu_pd(lse + r);
    double* rows = out + r * j;
    std::size_t k = 0;
    for (; k < full; k += 4) {
      __m256d w[4];
      for (std::size_t c = 0; c < 4; ++c)
        w[c] = exp4_exact(_mm256_sub_pd(_mm256_loadu_pd(x + (k + c) * n), l));
      transpose4(w);
      for (std::size_t i = 0; i < 4; ++i)
        _mm256_storeu_pd(rows + i * j + k, w[i]);
      if (wj != nullptr) {
        // Lanes = classes: each class adds the group's items in order.
        __m256d acc = _mm256_loadu_pd(wj + k);
        for (std::size_t i = 0; i < 4; ++i) acc = _mm256_add_pd(acc, w[i]);
        _mm256_storeu_pd(wj + k, acc);
      }
    }
    for (; k < j; ++k) {
      alignas(32) double w[4];
      _mm256_store_pd(
          w, exp4_exact(_mm256_sub_pd(_mm256_loadu_pd(x + k * n), l)));
      for (std::size_t i = 0; i < 4; ++i) {
        rows[i * j + k] = w[i];
        if (wj != nullptr) wj[k] += w[i];
      }
    }
  }
  const double ninf = -std::numeric_limits<double>::infinity();
  for (; r < n; ++r) {
    double m = ninf;
    for (std::size_t k = 0; k < j; ++k) m = std::max(m, lj[k * n + r]);
    double l = m;
    if (m != ninf) {
      double s = 0.0;
      for (std::size_t k = 0; k < j; ++k) s += pac::exp(lj[k * n + r] - m);
      l = m + pac::log(s);
    }
    lse[r] = l;
    for (std::size_t k = 0; k < j; ++k) {
      const double w = pac::exp(lj[k * n + r] - l);
      out[r * j + k] = w;
      if (wj != nullptr) wj[k] += w;
    }
  }
}

// ---------------------------------------------------------------------------
// M-step, lanes = classes.  One vector holds 4 consecutive classes' weights
// of one item, and lane l folds into class (k + l)'s slot, so every slot
// sees the scalar chain's additions in item order.
// ---------------------------------------------------------------------------

namespace {

/// Lanes the scalar M-step adds: !(w <= 0), which is also true for NaN.
inline __m256d kept_lanes(__m256d w) noexcept {
  return _mm256_cmp_pd(w, _mm256_setzero_pd(), _CMP_NLE_UQ);
}

/// sum + add in the kept lanes; a skipped lane keeps its sum's bits.
inline __m256d add_kept(__m256d sum, __m256d add, __m256d keep) noexcept {
  return _mm256_blendv_pd(sum, _mm256_add_pd(sum, add), keep);
}

/// Slot 0 of 4 classes' statistics blocks, `stride` apart.
inline __m256d load_classes(const double* s, std::size_t stride) noexcept {
  return _mm256_set_pd(s[3 * stride], s[2 * stride], s[stride], s[0]);
}

inline void store_classes(__m256d v, double* s, std::size_t stride) noexcept {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  for (std::size_t l = 0; l < 4; ++l) s[l * stride] = lanes[l];
}

/// The three moment sums of 4 classes, held in registers.
struct Moments4 {
  __m256d sw, swx, swx2;

  Moments4(const double* s, std::size_t stride) noexcept
      : sw(load_classes(s, stride)),
        swx(load_classes(s + 1, stride)),
        swx2(load_classes(s + 2, stride)) {}

  void add(const double* w, __m256d x) noexcept {
    const __m256d wv = _mm256_loadu_pd(w);
    const __m256d keep = kept_lanes(wv);
    const __m256d wx = _mm256_mul_pd(wv, x);
    sw = add_kept(sw, wv, keep);
    swx = add_kept(swx, wx, keep);
    swx2 = add_kept(swx2, _mm256_mul_pd(wx, x), keep);
  }

  void store(double* s, std::size_t stride) const noexcept {
    store_classes(sw, s, stride);
    store_classes(swx, s + 1, stride);
    store_classes(swx2, s + 2, stride);
  }
};

/// Class-major statistics of the first `classes` (a multiple of 4) classes,
/// transposed to slot-major t[s * classes + k] for `num_slots` slots, so 4
/// classes' copies of one slot are contiguous; and back.
void transpose_in(const double* stats, std::size_t stride,
                  std::size_t classes, std::size_t num_slots,
                  double* t) noexcept {
  for (std::size_t k = 0; k < classes; ++k)
    for (std::size_t s = 0; s < num_slots; ++s)
      t[s * classes + k] = stats[k * stride + s];
}

void transpose_out(const double* t, std::size_t classes,
                   std::size_t num_slots, double* stats,
                   std::size_t stride) noexcept {
  for (std::size_t k = 0; k < classes; ++k)
    for (std::size_t s = 0; s < num_slots; ++s)
      stats[k * stride + s] = t[s * classes + k];
}

/// t[0..3] += add in the kept lanes.
inline void add_kept_at(double* t, __m256d add, __m256d keep) noexcept {
  _mm256_storeu_pd(t, add_kept(_mm256_loadu_pd(t), add, keep));
}

/// Slot-major scratch for the transposed statistics: on the stack for the
/// usual sizes, on the heap beyond.
class SlotScratch {
 public:
  explicit SlotScratch(std::size_t size) {
    if (size > kStack) heap_.resize(size);
  }
  double* data() noexcept { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  static constexpr std::size_t kStack = 1024;
  double stack_[kStack];  // written by transpose_in before any read
  std::vector<double> heap_;
};

}  // namespace

void moment_accumulate(const double* x, std::size_t n, const double* weights,
                       std::size_t num_classes, double* stats,
                       std::size_t stats_stride) noexcept {
  const std::size_t full = num_classes & ~std::size_t{3};
  std::size_t k = 0;
  // Two vectors of classes per pass over the items: six independent sums
  // hide the add latency that one class group's chains would expose.
  for (; k + 8 <= full; k += 8) {
    double* s0 = stats + k * stats_stride;
    double* s1 = s0 + 4 * stats_stride;
    Moments4 m0(s0, stats_stride), m1(s1, stats_stride);
    for (std::size_t r = 0; r < n; ++r) {
      if (std::isnan(x[r])) continue;  // missing: the whole item is skipped
      const __m256d xv = _mm256_set1_pd(x[r]);
      const double* w = weights + r * num_classes + k;
      m0.add(w, xv);
      m1.add(w + 4, xv);
    }
    m0.store(s0, stats_stride);
    m1.store(s1, stats_stride);
  }
  for (; k < full; k += 4) {
    double* s0 = stats + k * stats_stride;
    Moments4 m0(s0, stats_stride);
    for (std::size_t r = 0; r < n; ++r) {
      if (std::isnan(x[r])) continue;
      m0.add(weights + r * num_classes + k, _mm256_set1_pd(x[r]));
    }
    m0.store(s0, stats_stride);
  }
  if (k < num_classes)
    portable::moment_accumulate(x, n, weights + k, num_classes,
                                num_classes - k, stats + k * stats_stride,
                                stats_stride);
}

void multinomial_accumulate(const std::int32_t* v, std::size_t n,
                            const double* weights, std::size_t num_classes,
                            std::size_t num_slots, bool missing_to_last_slot,
                            double* stats, std::size_t stats_stride) {
  const std::size_t full = num_classes & ~std::size_t{3};
  if (full > 0) {
    // The counts of the full class vectors, slot-major: one item's symbol
    // row holds its count for every class contiguously.
    SlotScratch scratch(num_slots * full);
    double* t = scratch.data();
    transpose_in(stats, stats_stride, full, num_slots, t);
    for (std::size_t r = 0; r < n; ++r) {
      const std::int32_t symbol = v[r];
      if (symbol < 0 && !missing_to_last_slot) continue;  // every class skips
      const std::size_t slot =
          symbol < 0 ? num_slots - 1 : static_cast<std::size_t>(symbol);
      const double* w = weights + r * num_classes;
      double* row = t + slot * full;
      for (std::size_t k = 0; k < full; k += 4) {
        const __m256d wv = _mm256_loadu_pd(w + k);
        add_kept_at(row + k, wv, kept_lanes(wv));
      }
    }
    transpose_out(t, full, num_slots, stats, stats_stride);
  }
  if (full < num_classes)
    portable::multinomial_accumulate(
        v, n, weights + full, num_classes, num_classes - full, num_slots,
        missing_to_last_slot, stats + full * stats_stride, stats_stride);
}

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t n, const double* weights,
                            std::size_t num_classes, double* stats,
                            std::size_t stats_stride) {
  const std::size_t full = num_classes & ~std::size_t{3};
  if (full > 0) {
    // Slot-major sw | swx | swxx of the full class vectors; the strict
    // upper triangle is carried through untouched.
    const std::size_t num_slots = 1 + d + d * d;
    SlotScratch scratch(num_slots * full);
    double* t = scratch.data();
    transpose_in(stats, stats_stride, full, num_slots, t);
    __m256d xs[32];  // d <= 32, enforced by the term
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t a = 0; a < d; ++a) xs[a] = _mm256_set1_pd(cols[a][r]);
      const double* w = weights + r * num_classes;
      for (std::size_t k = 0; k < full; k += 4) {
        const __m256d wv = _mm256_loadu_pd(w + k);
        const __m256d keep = kept_lanes(wv);
        add_kept_at(t + k, wv, keep);
        for (std::size_t a = 0; a < d; ++a) {
          const __m256d wxa = _mm256_mul_pd(wv, xs[a]);
          add_kept_at(t + (1 + a) * full + k, wxa, keep);
          double* row = t + (1 + d + a * d) * full + k;
          for (std::size_t b = 0; b <= a; ++b)
            add_kept_at(row + b * full, _mm256_mul_pd(wxa, xs[b]), keep);
        }
      }
    }
    transpose_out(t, full, num_slots, stats, stats_stride);
  }
  if (full < num_classes)
    portable::multinormal_accumulate(cols, d, n, weights + full, num_classes,
                                     num_classes - full,
                                     stats + full * stats_stride,
                                     stats_stride);
}

// ---------------------------------------------------------------------------
// CRC-32 by carry-less multiplication (PCLMULQDQ), the generic-polynomial
// folding method of Gopal et al. (Intel, 2009) in the bit-reflected domain
// of 0xEDB88320.  Four 128-bit accumulators each fold 16 bytes forward by
// 512 bits per step (x^(4*128+32) and x^(4*128-32) mod P), then fold into
// one lane, take the remaining 16-byte blocks one at a time, fold 128 to 64
// bits and Barrett-reduce to the 32-bit register.  The constants are the
// published ones for this polynomial (as in zlib's crc32_simd and Linux's
// crc32-pclmul).
// ---------------------------------------------------------------------------

std::uint32_t crc32_fold(const unsigned char* p, std::size_t size,
                         std::uint32_t crc) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // a * x^k fold: a.lo * k.lo ^ a.hi * k.hi, plus the next 16 bytes.
  const auto fold = [](__m128i a, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         next);
  };

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 + 64.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86
