// Runtime-dispatched SIMD layer for the batched E/M-step kernels.
//
// Three tiers (DESIGN.md §5):
//
//   1. *Scalar oracle* — the per-item virtual chains and the scalar batch
//      kernels in terms.cpp.  Always available; the thing every other tier
//      is tested against.
//   2. *Bit-identical SIMD* (this layer's `*_log_prob` kernels) — explicit
//      vector lanes over the column-major 256-item blocks.  Legal because
//      the E-step per-item expression is *elementwise*: every lane performs
//      the scalar oracle's operation sequence on its own item, with IEEE
//      add/sub/mul/div semantics, so each output double is memcmp-equal to
//      the scalar path.  No FMA, no reassociation (the whole project builds
//      with -ffp-contract=off so the scalar oracle cannot silently contract
//      either).  The M-step moment folds are order-pinned reductions and
//      therefore have *no* default-tier vector form.
//   3. *Tolerance-checked fast math* (`*_accumulate_fast`) — opt-in via
//      EmConfig::fast_math / PAC_FAST_MATH.  Reassociates the M-step moment
//      sums into a fixed 4-lane fold: lane j sums items with index ≡ j
//      (mod 4) below the last full group, lanes combine as
//      ((l0+l1)+l2)+l3, then the tail items fold in item order.  The
//      association is a constant of the *contract*, not of the instruction
//      set, so fast-math results are still deterministic — identical across
//      AVX2/NEON/portable dispatch, thread counts, and transports — merely
//      not bit-identical to the scalar-order oracle (validated by a
//      relative-error tolerance oracle instead of memcmp).  The E-step row
//      normalization has no fast form: the exact lane kernels below already
//      outrun a reassociated per-row fold.
//
// Dispatch: `level()` resolves once from the environment and the CPU —
// AVX2 on x86-64 hosts that support it, NEON on aarch64, otherwise the
// scalar tier.  `PAC_SIMD=0` (or "off"/"scalar") forces the scalar tier at
// any build flags; building with -march=x86-64-v3 changes *codegen* but the
// kernels dispatch the same way.  Tests and benches pin a tier with
// ScopedForceLevel (clamped to what the host actually supports).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pac::simd {

enum class Level {
  kScalar = 0,  // no vector kernels: terms run their scalar batch loops
  kAvx2,        // x86-64 AVX2 (4 x double lanes)
  kNeon,        // aarch64 NEON (2 x double lanes)
};

const char* to_string(Level level) noexcept;

/// Best level this host can execute (ignores the environment).
Level detected_level() noexcept;

/// The level kernels dispatch on: detected_level() unless PAC_SIMD
/// disables it or a ScopedForceLevel override is active.  Resolved once
/// (first call) and cached.
Level level() noexcept;

/// True when the vector kernels should run (level() != kScalar).
bool active() noexcept;

/// One-line human-readable dispatch summary for logs / --print-simd.
const char* describe() noexcept;

namespace detail {
/// Pure env-string -> enabled mapping, exposed for tests ("0", "off",
/// "scalar" disable; unset/anything else keeps the detected level).
bool env_value_enables(const char* value) noexcept;
}  // namespace detail

/// Scoped dispatch override for tests and benches.  Requests above what the
/// host supports clamp down to detected_level(); kScalar always works.
/// Not thread-safe against concurrent kernel callers — establish before
/// spawning workers (the EM pool is created after random_init resolves).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level request) noexcept;
  ~ScopedForceLevel();

  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

  /// The level actually in force (after clamping).
  Level effective() const noexcept { return effective_; }

 private:
  Level effective_;
  int previous_;  // previous override slot value (-1 = none)
};

// ---------------------------------------------------------------------------
// Bit-identical E-step block kernels (default tier).  Every kernel
// *accumulates* into out[i] for i in [0, n) — one class column of a
// class-major block — mirroring the corresponding Term::log_prob_batch
// scalar loop operation for operation.  Callers only invoke these when
// active(); each dispatches on level().
// ---------------------------------------------------------------------------

/// lp = -0.5*(kLog2Pi + z*z) - log_sigma + log_error with z = (x-mean)/sigma;
/// NaN x (missing) contributes exactly 0.0.
void gaussian_log_prob(const double* x, std::size_t n, double mean,
                       double sigma, double log_sigma, double log_error,
                       double* out) noexcept;

/// lp = -0.5*(kLog2Pi + z*z) - log_sigma - lx + log_error over the
/// precomputed log column; NaN lx contributes exactly 0.0.
void lognormal_log_prob(const double* lx, std::size_t n, double mean,
                        double sigma, double log_sigma, double log_error,
                        double* out) noexcept;

/// Table walk: out += table[v[i]], missing (v < 0) takes missing_lp.
void multinomial_log_prob(const std::int32_t* v, std::size_t n,
                          const double* table, double missing_lp,
                          double* out) noexcept;

/// Multivariate normal over `d` column pointers starting at item i0:
/// diff = x - mean, lane-wise forward solve against the Cholesky factor
/// (params layout mean|chol|logdet as in MultiNormalTerm), squared-norm in
/// row order, lp = -0.5*(d*kLog2Pi + logdet + maha) + log_error_sum.
/// Requires d <= 32 and complete rows (the term forbids missing values).
void multinormal_log_prob(const double* const* cols, std::size_t d,
                          std::size_t i0, std::size_t n, const double* params,
                          double log_error_sum, double* out) noexcept;

// ---------------------------------------------------------------------------
// Lane-exact exp and log (default tier): y[i] = pac::exp(x[i]) /
// pac::log(x[i]) bit for bit, lanes = items.  Each vector lane runs the
// scalar function's operation sequence; a lane outside the range the
// vector body covers (exp: |x| >= 512, NaN or ±inf; log: anything but a
// positive normal finite x) is recomputed by the scalar function, and an
// exp lane with |x| < 2^-54 takes the scalar `1.0 + x` branch in-vector.
// These run at ANY dispatch level — the portable loop calls the scalar
// functions — and `x` may alias `y`.
// ---------------------------------------------------------------------------

void exp_lanes(const double* x, double* y, std::size_t n) noexcept;
void log_lanes(const double* x, double* y, std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Fast-math M-step folds (tolerance tier).  Weighted-moment reductions in
// the fixed 4-lane association documented above; items with w <= 0 or a
// missing value contribute exactly +0.0 instead of being skipped.  These
// run at ANY dispatch level (a portable unrolled fold stands in when no
// vector unit is active) so PAC_FAST_MATH means the same association
// everywhere.
// ---------------------------------------------------------------------------

/// stats[0..2] += (sum w, sum w*x, sum (w*x)*x) over the block, weights
/// strided by wstride; NaN x lanes masked to zero.
void gaussian_accumulate_fast(const double* x, const double* weights,
                              std::size_t wstride, std::size_t n,
                              double* stats) noexcept;

/// Weighted outer-product fold for the multivariate normal statistics
/// layout [sw | swx[d] | swxx[d*d] lower triangle]: each slot accumulates
/// in the fixed 4-lane association.  Requires d <= 32.
void multinormal_accumulate_fast(const double* const* cols, std::size_t d,
                                 std::size_t i0, std::size_t n,
                                 const double* weights, std::size_t wstride,
                                 double* stats) noexcept;

}  // namespace pac::simd
