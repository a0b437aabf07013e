// Runtime dispatch plus the portable (and NEON) kernel implementations.
//
// The portable bodies are the terms' scalar batch loops: every
// Term::log_prob_batch and accumulate_batch calls its kernel
// unconditionally, so a host with no vector unit — or a PAC_SIMD=0 run —
// produces the oracle's bits here.
#include "util/simd.hpp"

#include <array>
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
// Portable kernels (the terms' scalar batch loops).
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

// Every negative symbol takes missing_lp, while Term::log_prob compares
// against data::kMissingDiscrete; the two agree only because -1 is the sole
// negative value a validated column can hold (static_asserted in
// autoclass/terms.cpp, since util/ does not see data/).
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

/// Slicing-by-8 tables for the reflected 0xEDB88320 polynomial: table[0] is
/// the classic bytewise table, and table[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight bytes fold in one step of eight
/// independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

/// Little-endian 32-bit load from any address (the CRC consumes bytes in
/// memory order whatever the host byte order).
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Slicing-by-8 over the raw (uninverted) CRC register.
std::uint32_t crc32_portable(const unsigned char* p, std::size_t size,
                             std::uint32_t crc) noexcept {
  static const CrcTables t = make_crc_tables();
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if PAC_SIMD_HAVE_X86
bool host_has_pclmul() noexcept {
  static const bool has = __builtin_cpu_supports("pclmul");
  return has;
}
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Portable M-step kernels: per class, the scalar chain's additions in item
// order (the moments fold in registers instead of through memory).
// ---------------------------------------------------------------------------

void portable::moment_accumulate(const double* x, std::size_t n,
                                 const double* weights,
                                 std::size_t weight_stride,
                                 std::size_t num_classes, double* stats,
                                 std::size_t stats_stride) noexcept {
  for (std::size_t k = 0; k < num_classes; ++k) {
    double* s = stats + k * stats_stride;
    double sw = s[0], swx = s[1], swx2 = s[2];
    for (std::size_t r = 0; r < n; ++r) {
      const double w = weights[r * weight_stride + k];
      if (w <= 0.0) continue;
      if (std::isnan(x[r])) continue;
      sw += w;
      swx += w * x[r];
      swx2 += w * x[r] * x[r];
    }
    s[0] = sw;
    s[1] = swx;
    s[2] = swx2;
  }
}

void portable::multinomial_accumulate(const std::int32_t* v, std::size_t n,
                                      const double* weights,
                                      std::size_t weight_stride,
                                      std::size_t num_classes,
                                      std::size_t num_slots,
                                      bool missing_to_last_slot, double* stats,
                                      std::size_t stats_stride) noexcept {
  for (std::size_t k = 0; k < num_classes; ++k) {
    double* counts = stats + k * stats_stride;
    double* missing_slot =
        missing_to_last_slot ? counts + num_slots - 1 : nullptr;
    for (std::size_t r = 0; r < n; ++r) {
      const double w = weights[r * weight_stride + k];
      if (w <= 0.0) continue;
      if (v[r] < 0) {
        if (missing_slot != nullptr) *missing_slot += w;
        continue;
      }
      counts[static_cast<std::size_t>(v[r])] += w;
    }
  }
}

void portable::multinormal_accumulate(const double* const* cols,
                                      std::size_t d, std::size_t n,
                                      const double* weights,
                                      std::size_t weight_stride,
                                      std::size_t num_classes, double* stats,
                                      std::size_t stats_stride) noexcept {
  // The item's row is cached and (w * x_a) reused across its row of the
  // triangle — a pure recomputation hoist; each slot's expression is the
  // scalar accumulate's (w * x_a) * x_b.
  double xs[32];
  for (std::size_t c = 0; c < num_classes; ++c) {
    double* s = stats + c * stats_stride;
    for (std::size_t r = 0; r < n; ++r) {
      const double w = weights[r * weight_stride + c];
      if (w <= 0.0) continue;
      s[0] += w;
      for (std::size_t a = 0; a < d; ++a) xs[a] = cols[a][r];
      for (std::size_t a = 0; a < d; ++a) {
        const double wxa = w * xs[a];
        s[1 + a] += wxa;
        double* row = s + 1 + d + a * d;
        for (std::size_t b = 0; b <= a; ++b) row[b] += wxa * xs[b];
      }
    }
  }
}

namespace {

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

void normalize_columns(const double* lj, std::size_t n, std::size_t j,
                       double* out, double* lse, double* wj,
                       double* scratch) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::normalize_columns(lj, n, j, out, lse, wj);
    return;
  }
#endif
  logsumexp_columns(lj, n, j, lse, scratch);
  double* t = scratch;
  for (std::size_t k = 0; k < j; ++k) {
    for (std::size_t r = 0; r < n; ++r) t[r] = lj[k * n + r] - lse[r];
    exp_lanes(t, t, n);
    for (std::size_t r = 0; r < n; ++r) out[r * j + k] = t[r];
  }
  if (wj == nullptr) return;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = 0; k < j; ++k) wj[k] += out[r * j + k];
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
#if PAC_SIMD_HAVE_X86
  if (size >= 64 && level() == Level::kAvx2 && host_has_pclmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = avx2::crc32_fold(p, folded, crc);
    p += folded;
    size -= folded;
  }
#endif
  return ~crc32_portable(p, size, crc);
}

void moment_accumulate(const double* x, std::size_t n, const double* weights,
                       std::size_t num_classes, double* stats,
                       std::size_t stats_stride) noexcept {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::moment_accumulate(x, n, weights, num_classes, stats, stats_stride);
    return;
  }
#endif
  portable::moment_accumulate(x, n, weights, num_classes, num_classes, stats,
                              stats_stride);
}

void multinomial_accumulate(const std::int32_t* v, std::size_t n,
                            const double* weights, std::size_t num_classes,
                            std::size_t num_slots, bool missing_to_last_slot,
                            double* stats, std::size_t stats_stride) {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinomial_accumulate(v, n, weights, num_classes, num_slots,
                                 missing_to_last_slot, stats, stats_stride);
    return;
  }
#endif
  portable::multinomial_accumulate(v, n, weights, num_classes, num_classes,
                                   num_slots, missing_to_last_slot, stats,
                                   stats_stride);
}

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t n, const double* weights,
                            std::size_t num_classes, double* stats,
                            std::size_t stats_stride) {
#if PAC_SIMD_HAVE_X86
  if (level() == Level::kAvx2) {
    avx2::multinormal_accumulate(cols, d, n, weights, num_classes, stats,
                                 stats_stride);
    return;
  }
#endif
  portable::multinormal_accumulate(cols, d, n, weights, num_classes,
                                   num_classes, stats, stats_stride);
}

}  // namespace pac::simd
