// Runtime-dispatched SIMD layer for the batched E/M-step kernels.
//
// Two tiers (DESIGN.md §5):
//
//   1. *Scalar oracle* — the per-item virtual chains (Term::log_prob,
//      Term::accumulate) and this layer's portable loops.  Always
//      available; the thing every other tier is tested against.
//   2. *Bit-identical SIMD* (this layer's vector kernels) — explicit
//      vector lanes over the column-major 256-item blocks.  Legal because
//      the E-step per-item expression is *elementwise*: every lane performs
//      the scalar oracle's operation sequence on its own item, with IEEE
//      add/sub/mul/div semantics, so each output double is memcmp-equal to
//      the scalar path.  No FMA, no reassociation (the whole project builds
//      with -ffp-contract=off so the scalar oracle cannot silently contract
//      either).  The M-step folds are order-pinned reductions over items,
//      so their lanes are *classes* instead (lanes = classes): one vector
//      holds 4 consecutive classes' weights of one item, and each lane is
//      one class's statistics slot, still folding its items in increasing
//      order — memcmp-equal to the scalar chain as well.  The E-step row
//      normalizer (normalize_columns) has both: lanes = items for the
//      logsumexp and the weights, which an in-register 4 x 4 transpose
//      turns into item rows, and lanes = classes for the W_j fold.
//
// The layer also holds the .pacb chunk checksum, crc32: slicing-by-8 at
// the scalar level, a PCLMULQDQ fold at AVX2, the same value either way.
//
// No environment variable or config field selects another numeric tier:
// the SIMD level, like the thread count, the transport and the data
// backend, changes only the speed, never a computed bit.
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
// Bit-identical E-step block kernels (tier 2).  Every kernel
// *accumulates* into out[i] for i in [0, n) — one class column of a
// class-major block — mirroring the corresponding Term::log_prob per item,
// operation for operation.  One log_prob_batch call covers all
// J classes of a block: it fetches (or transforms) the block's values once
// and runs its kernel once per class column.  Callers invoke these at every
// level; each dispatches on level(), and kScalar runs the portable loop.
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
// Lane-exact exp and log (tier 2): y[i] = pac::exp(x[i]) /
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

/// Lanes = items normalization of a class-major log-joint block (class k of
/// item r at lj[k * n + r]): lse[r] is logsumexp of item r's J values (-inf
/// for an item that is -inf under every class), out[r * j + k] =
/// pac::exp(lj[k * n + r] - lse[r]) in item-major rows, and when `wj` is
/// not null, wj[k] += out[r * j + k] for every item in increasing order.
/// Per item the operations are logsumexp's and the row oracle's (max and
/// the exp sum in class order, max + log(sum), then exp(x - lse) per class),
/// so every output is bit-identical to normalizing row by row.
///
/// The AVX2 body holds 4 items in the lanes and reads `lj` straight into
/// registers, with no scratch row: per group max, exp sum, log and lse
/// (two groups interleaved, so one group's log latency hides behind the
/// other's exps), then per group exp(x - lse).  Each 4 classes x 4 items
/// of weights are transposed in-register into 4 item rows, stored
/// contiguously and added in item order into a lanes = classes W_j vector.
/// Classes past the last full vector go lane by lane and items past the
/// last full group run the scalar sequence.  The scalar and NEON levels run
/// logsumexp_columns, exp_lanes per class column and a W_j loop, in
/// `scratch` (2 * n doubles, unused by the AVX2 body).
void normalize_columns(const double* lj, std::size_t n, std::size_t j,
                       double* out, double* lse, double* wj,
                       double* scratch) noexcept;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).  `seed` chains
// incremental updates: crc32(b, crc32(a)) == crc32(a + b).  The scalar and
// NEON levels run slicing-by-8 over eight 256-entry tables, the oracle.  At
// the AVX2 level on a host with PCLMULQDQ, inputs of 64 bytes or more fold
// their whole 16-byte blocks four 128-bit lanes at a time by carry-less
// multiplication (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009), then Barrett-reduce
// to 32 bits; the last size % 16 bytes go through slicing-by-8.  Every level
// returns the same value.
// ---------------------------------------------------------------------------

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

// ---------------------------------------------------------------------------
// Exact M-step block kernels, lanes = classes (tier 2).  Each folds one item
// block into every class's statistics: `weights` is the block's row-major
// item x class membership matrix (class k of in-block item r at
// weights[r * num_classes + k]) and class k's slots start at
// stats + k * stats_stride.  Per slot, the additions are the scalar
// Term::accumulate's, in increasing item order, and a class skips an item
// exactly when the scalar M-step does (w <= 0 — so a NaN weight is added).
//
// The vector bodies load 4 contiguous class weights per item; the lane mask
// is !(w <= 0) (_CMP_NLE_UQ, true for NaN), and a skipped lane keeps its old
// sum through a blend (adding +0.0 instead would turn a -0.0 sum into
// +0.0).  An item the term skips whole (a missing x, or a missing symbol
// with no extra slot) is skipped for every lane, as the scalar `continue`
// does.  Per slot the expressions stay w, w*x and (w*x)*x, with no FMA.
// Classes past the last full vector run the portable per-class loop, which
// is also the whole kernel at the scalar (and NEON) level.
// ---------------------------------------------------------------------------

/// Normal / log-normal moments: class k's slots (sw, swx, swx2) receive
/// (w, w*x, (w*x)*x) for every item with a known (non-NaN) x.
void moment_accumulate(const double* x, std::size_t n, const double* weights,
                       std::size_t num_classes, double* stats,
                       std::size_t stats_stride) noexcept;

/// Weighted bincount over `num_slots` count slots per class: slot v[r]
/// receives w.  A missing symbol (v < 0) adds to the last slot when
/// `missing_to_last_slot`, and skips the item otherwise.
void multinomial_accumulate(const std::int32_t* v, std::size_t n,
                            const double* weights, std::size_t num_classes,
                            std::size_t num_slots, bool missing_to_last_slot,
                            double* stats, std::size_t stats_stride);

/// Multivariate normal over `d` column pointers (complete rows, d <= 32):
/// class k's slot 0 receives w, slot 1 + a receives w*x_a, and slot
/// 1 + d + a*d + b (b <= a, the lower triangle) receives (w*x_a)*x_b.
void multinormal_accumulate(const double* const* cols, std::size_t d,
                            std::size_t n, const double* weights,
                            std::size_t num_classes, double* stats,
                            std::size_t stats_stride);

}  // namespace pac::simd
