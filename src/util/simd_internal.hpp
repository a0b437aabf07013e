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

}  // namespace pac::simd::avx2

#endif  // PAC_SIMD_HAVE_X86
