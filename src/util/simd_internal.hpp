// Internal per-ISA kernel entry points, shared between simd.cpp (runtime
// dispatch) and the ISA-specific translation units (simd_avx2.cpp, which is
// the only TU compiled with -mavx2).  Not part of the public surface — do
// not include outside src/util.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define PAC_SIMD_HAVE_X86 1
#else
#define PAC_SIMD_HAVE_X86 0
#endif

#if defined(__aarch64__)
#define PAC_SIMD_HAVE_NEON 1
#else
#define PAC_SIMD_HAVE_NEON 0
#endif

namespace pac::simd::portable {

// The portable M-step kernels, one class at a time: the whole kernel at the
// scalar and NEON levels, and the remainder classes of the AVX2 bodies.
// Class k's weight of item r is weights[r * weight_stride + k], so a caller
// can start at any class of the membership rows.

void moment_accumulate(const double* x, std::size_t n, const double* weights,
                       std::size_t weight_stride, std::size_t num_classes,
                       double* stats, std::size_t stats_stride) noexcept;

void multinomial_accumulate(const std::int32_t* v, std::size_t n,
                            const double* weights, std::size_t weight_stride,
                            std::size_t num_classes, std::size_t num_slots,
                            bool missing_to_last_slot, double* stats,
                            std::size_t stats_stride) noexcept;

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t n, const double* weights,
                            std::size_t weight_stride,
                            std::size_t num_classes, double* stats,
                            std::size_t stats_stride) noexcept;

}  // namespace pac::simd::portable

#if PAC_SIMD_HAVE_X86

namespace pac::simd::avx2 {

void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out) noexcept;

void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out) noexcept;

void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp,
                          double* out) noexcept;

void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out) noexcept;

void exp_lanes(const double* x, double* y, std::size_t n) noexcept;
void log_lanes(const double* x, double* y, std::size_t n) noexcept;

void normalize_columns(const double* lj, std::size_t n, std::size_t j,
                       double* out, double* lse, double* wj) noexcept;

/// The PCLMULQDQ fold of `size` bytes (a multiple of 16, at least 64) into
/// the raw, uninverted CRC register `crc`; returns the raw register.  The
/// caller checks that the host has PCLMULQDQ.
std::uint32_t crc32_fold(const unsigned char* p, std::size_t size,
                         std::uint32_t crc) noexcept;

void moment_accumulate(const double* x, std::size_t n, const double* weights,
                       std::size_t num_classes, double* stats,
                       std::size_t stats_stride) noexcept;

void multinomial_accumulate(const std::int32_t* v, std::size_t n,
                            const double* weights, std::size_t num_classes,
                            std::size_t num_slots, bool missing_to_last_slot,
                            double* stats, std::size_t stats_stride);

void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t n, const double* weights,
                            std::size_t num_classes, double* stats,
                            std::size_t stats_stride);

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86
