// Constants of pac::exp and pac::log, shared by the scalar oracles in
// math.cpp and the lane kernels in simd.cpp / simd_avx2.cpp so both read the
// very same bits.  Internal to src/util.
//
// exp: x = k ln2/128 + r with |r| <= ln2/256, exp(x) = 2^(k/128) exp(r),
// 2^(i/128) = H[i] (1 + T[i]) from exp_table.inc, and exp(r) - 1 by a
// degree-5 polynomial — glibc's algorithm and its minimax coefficients.
// log: fdlibm's reduction to log(1 + f) with f in [sqrt(2)/2 - 1,
// sqrt(2) - 1] and its degree-14 (in s = f / (2 + f)) polynomial.
#pragma once

#include <bit>
#include <cstdint>

namespace pac::exp_log_data {

inline std::uint64_t asuint64(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}
inline double asdouble(std::uint64_t u) noexcept {
  return std::bit_cast<double>(u);
}

// ---- exp ----
inline constexpr int kExpTableBits = 7;
inline constexpr std::uint64_t kExpN = 1ULL << kExpTableBits;
inline constexpr double kInvLn2N = 0x1.71547652b82fep0 * kExpN;
inline constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
inline constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
/// z + kShift rounds z to an integer held in the low mantissa bits.
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kExpC2 = 0x1.ffffffffffdbdp-2;
inline constexpr double kExpC3 = 0x1.555555555543cp-3;
inline constexpr double kExpC4 = 0x1.55555cf172b91p-5;
inline constexpr double kExpC5 = 0x1.1111167a4d017p-7;
/// Top 12 bits of 0x1p-54 and 512.0: |x| below the first returns 1 + x,
/// |x| at or above the second leaves the table's normal scale range.
inline constexpr std::uint32_t kExpTopTiny = 0x3c9;
inline constexpr std::uint32_t kExpTopBig = 0x408;
inline constexpr double kExpTiny = 0x1p-54;
inline constexpr double kExpBig = 512.0;

inline constexpr std::uint64_t kExpTable[2 * kExpN] = {
#include "util/exp_table.inc"
};

// ---- log ----
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 3fe62e42 fee00000
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 3dea39ef 35793c76
inline constexpr double kTwo54 = 1.80143985094819840000e+16;  // 43500000 00000000
inline constexpr double kLg1 = 6.666666666666735130e-01;      // 3FE55555 55555593
inline constexpr double kLg2 = 3.999999999940941908e-01;      // 3FD99999 9997FA04
inline constexpr double kLg3 = 2.857142874366239149e-01;      // 3FD24924 94229359
inline constexpr double kLg4 = 2.222219843214978396e-01;      // 3FCC71C5 1D8E78AF
inline constexpr double kLg5 = 1.818357216161805012e-01;      // 3FC74664 96CB03DE
inline constexpr double kLg6 = 1.531383769920937332e-01;      // 3FC39A09 D078C69F
inline constexpr double kLg7 = 1.479819860511658591e-01;      // 3FC2F112 DF3E5244
inline constexpr double kOneThird = 0.33333333333333333;

}  // namespace pac::exp_log_data
