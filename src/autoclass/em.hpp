// The AutoClass EM engine: base_cycle = update_wts, update_parameters,
// update_approximations (paper Figs. 1-3).
//
// EmWorker holds one rank's share of the E/M workspaces and runs the cycle
// over its item partition.  Everything that must become *global* — per-class
// weight sums, the data log-likelihood, and the per-class sufficient
// statistics — goes through a Reducer, the seam where the paper's
// parallelization plugs in:
//
//   * the default Reducer is the identity (sequential AutoClass: the
//     partition is the whole dataset and local sums are global sums);
//   * src/core's ParallelReducer Allreduces the same buffers across ranks
//     (paper Figs. 4-5) and charges virtual time for compute + network.
//
// Because the initial weights come from a counter-based per-item RNG and the
// reductions fold in rank order, the EM trajectory is the same whatever the
// partitioning — the property the equivalence tests pin down.
//
// Inside a rank, the E- and M-step item loops are blocked (kEStepBlock
// items) and may be work-shared across a small persistent ThreadPool
// (EmConfig::threads / PAC_EM_THREADS).  Each block fills its own partial
// accumulators, which the owner folds in block-index order — so every
// result is a pure function of the block size, bit-identical across 1/2/N
// threads and across both transport backends (DESIGN.md §5).
//
// One block pass per cycle: whoever writes the weights (random_init and
// the E-step) also accumulates the next M-step's per-block statistics from
// the rows it just stored, so update_parameters only folds those partials,
// reduces them and runs the MAP update.  The partials stay valid until the
// weights change.  Only the WtsOnly strategy, whose M-step spans the
// gathered full weight matrix, and the scalar oracle keep a standalone
// accumulation pass.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "autoclass/classification.hpp"
#include "data/dataset.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace pac {
class CounterRng;
class ThreadPool;
}

namespace pac::trace {
class Recorder;
}

namespace pac::ac {

/// E-step failure: an item's likelihood row degenerated to -inf (or NaN)
/// under *every* class — e.g. a zero-support multinomial symbol in an
/// emptied class — which would otherwise flow through logsumexp into NaN
/// membership weights and silently poison the reduction.
class DegenerateRowError : public Error {
 public:
  DegenerateRowError(std::string message, std::size_t bad_item,
                     std::size_t classes)
      : Error(std::move(message)), item(bad_item), num_classes(classes) {}

  std::size_t item = 0;         // global item index of the degenerate row
  std::size_t num_classes = 0;  // J of the classification being fit
};

namespace detail {
/// Draw `j` seed-item indices over `[0, n)` for try `try_index` — a pure
/// function of the counter RNG, identical on every rank and partitioning.
/// Seeds are distinct whenever j <= n: collisions redraw from the primary
/// stream until `primary_budget` draws are spent (0 = the default 16*j),
/// after which a widened fallback stream plus deterministic probing to the
/// next free index guarantees distinct seeds without unbounded looping.
/// Exposed for tests, which shrink the budget to force the fallback.
std::vector<std::size_t> draw_seed_items(const CounterRng& rng, std::size_t n,
                                         std::size_t j,
                                         std::uint64_t try_index,
                                         std::uint64_t primary_budget = 0);
}  // namespace detail

/// Convergence test flavours (mirroring AutoClass C's converge functions).
enum class ConvergenceKind {
  /// Stop when the relative score delta stays below rel_delta for
  /// delta_cycles consecutive cycles (AutoClass "converge_search_3" style).
  kRelDelta,
  /// Stop when the spread (max - min) of the last sigma_window score
  /// deltas falls below rel_delta — robust against oscillating deltas
  /// (AutoClass "converge_search_4" style).
  kSigmaDelta,
};

/// Convergence and initialization knobs for one EM try.
struct EmConfig {
  int max_cycles = 200;
  /// Cycles to run before convergence tests begin.
  int min_cycles = 3;
  ConvergenceKind convergence = ConvergenceKind::kRelDelta;
  /// Converge when |score delta| / (1 + |score|) stays below this...
  double rel_delta = 1e-6;
  /// ...for this many consecutive cycles (kRelDelta only).
  int delta_cycles = 2;
  /// Window width for the kSigmaDelta spread test.
  int sigma_window = 4;
  /// Drop classes whose final weight W_j falls below this (AutoClass's
  /// empty-class absorption); <= 0 disables pruning.
  double min_class_weight = 1.5;
  /// Initial membership weight given to the randomly drawn home class
  /// (the rest is spread uniformly): a "smoothed hard" initialization.
  double init_hard_weight = 0.9;
  /// Intra-rank worker threads work-sharing the E-step and M-step block
  /// loops (the hybrid SPMD x threads layer).  0 = read the PAC_EM_THREADS
  /// environment variable, defaulting to 1 (no pool, today's behavior).
  /// Results are deterministic in the block size and *invariant in the
  /// thread count*: per-block partials are folded in block-index order, so
  /// every value is bit-identical for any setting.
  int threads = 0;
  /// Unused: every M-step runs the exact Term::accumulate_batch, whatever
  /// this holds.  Kept only because perfbench/search.cpp and
  /// perfbench/serve.cpp still set it.
  int fast_math = 0;
};

/// Cost-charging phases (matching the paper's profile of base_cycle).
enum class Phase {
  kUpdateWts,
  kUpdateParams,
  kUpdateApprox,
  kCycleOverhead,
  kTryOverhead,
};

/// Work counts reported to the Reducer for virtual-time charging.
struct PhaseWork {
  Phase phase = Phase::kUpdateWts;
  std::size_t items = 0;
  std::size_t classes = 0;
  std::size_t attributes = 0;
};

/// The parallelization seam.  The default implementation is sequential
/// AutoClass: no reduction partners, no time model.
class Reducer {
 public:
  virtual ~Reducer() = default;

  /// Make [W_0..W_{J-1}, log_likelihood] global (update_wts, paper Fig. 4).
  virtual void reduce_weights(std::span<double> weights_and_loglike) {
    (void)weights_and_loglike;
  }

  /// Make the J x stats_per_class statistics matrix global
  /// (update_parameters, paper Fig. 5).
  virtual void reduce_statistics(std::span<double> stats,
                                 std::size_t num_classes) {
    (void)stats;
    (void)num_classes;
  }

  /// WtsOnly strategy support: assemble the full N x J weight matrix from
  /// per-rank blocks.  `local` is this rank's block (range.size() x J rows
  /// of `full`); the default (sequential) copies it into place.
  virtual void gather_weight_matrix(std::span<const double> local,
                                    std::span<double> full,
                                    data::ItemRange range, std::size_t j);

  /// Charge modeled compute time for a phase (default: no time model).
  virtual void charge(const PhaseWork& work) { (void)work; }

  /// This rank's instrumentation sink, or nullptr when the run is not
  /// instrumented (the default, and the sequential driver).  The EM engine
  /// records its base_cycle sub-phase spans and cycle/convergence counters
  /// through it; src/core's ParallelReducer forwards the Comm's recorder.
  virtual ::pac::trace::Recorder* recorder() { return nullptr; }
};

/// Outcome of converging one classification.
struct ConvergeOutcome {
  int cycles = 0;
  bool converged = false;  // false = stopped at max_cycles
};

class EmWorker {
 public:
  /// `range` is this rank's item partition.  If `partition_params` is false
  /// (the WtsOnly baseline), update_parameters runs over the *entire*
  /// dataset using the gathered weight matrix instead of reducing
  /// statistics.
  EmWorker(const Model& model, data::ItemRange range, Reducer& reducer,
           bool partition_params = true);
  ~EmWorker();

  EmWorker(const EmWorker&) = delete;
  EmWorker& operator=(const EmWorker&) = delete;

  const Model& model() const noexcept { return *model_; }
  data::ItemRange range() const noexcept { return range_; }

  /// Draw the initial membership weights for try `try_index` from the
  /// counter-based RNG (partition-invariant) and make W_j global; each
  /// block also accumulates the first M-step's statistics partial.
  void random_init(Classification& c, std::uint64_t seed,
                   std::uint64_t try_index, const EmConfig& config);

  /// E-step over the local partition; fills the local weight matrix, the
  /// global class weights W_j, and the global observed log-likelihood
  /// (returned and stored in c.log_likelihood).  Each block is filled
  /// class-major by fill_log_joint (the term-major batch kernels; per item
  /// log pi_j then terms in index order) and normalized with lanes = items
  /// (normalize_log_joint, which folds W_j in the same pass) — per item the
  /// same operations as update_wts_scalar, so both paths are bit-identical
  /// on every transport backend.  In the same visit each block accumulates
  /// the next M-step's statistics from the rows it just stored (unless the
  /// M-step is WtsOnly).  Blocks are work-shared across the configured
  /// thread pool and the per-block partials are folded in block-index
  /// order, so every result is a pure function of the block size —
  /// bit-identical across thread counts.  Throws DegenerateRowError if any
  /// item's row is -inf under every class (the lowest-indexed offending
  /// block wins, whatever thread found it).
  double update_wts(Classification& c);

  /// Reference E-step: the per-item virtual log_prob chain the batch
  /// kernels replaced and the per-row normalize_row the lane normalizer
  /// replaced, run through the identical blocked reduction structure
  /// (per-block partials, block-ordered fold).  Kept as the oracle the
  /// kernel-equality tests and BM_UpdateWts benches diff against; identical
  /// reduction protocol and results (bit-for-bit) as update_wts.  Like every
  /// weight writer it also leaves the next M-step's partials.
  double update_wts_scalar(Classification& c);

  /// M-step: fold the per-block statistics that the last weight pass
  /// (random_init or update_wts) accumulated — one Term::accumulate_batch
  /// call per (term, block) covering all J classes, lanes = classes, each
  /// slot folding its items in order, bit-identical to the scalar chain —
  /// in block-index order, make them global, and recompute every class's
  /// parameters and mixing weight.  Reads no data, so calling it twice
  /// without an E-step in between gives the same result.  A WtsOnly worker
  /// accumulates here instead, over the gathered full weight matrix.
  void update_parameters(Classification& c);

  /// Reference M-step: a standalone pass of the per-item x per-class x
  /// per-term virtual accumulate chain the batch kernels replaced, through
  /// the identical blocked partial fold (accumulate_statistics_scalar).
  /// The oracle the M-step equality tests and BM_UpdateParams benches diff
  /// against; bit-identical results to update_parameters.  It never touches
  /// the weight pass's partials.
  void update_parameters_scalar(Classification& c);

  /// Score bookkeeping: Cheeseman-Stutz and BIC scores from the current
  /// global statistics (cheap; paper Sec. 3 measures it as negligible).
  void update_approximations(Classification& c);

  /// init + cycle to convergence (the "new classification try" of Fig. 2).
  ConvergeOutcome converge(Classification& c, const EmConfig& config);

  /// Drop classes below the weight floor and refit once (returns the input
  /// unchanged when nothing is pruned).
  Classification prune_and_refit(const Classification& c,
                                 const EmConfig& config);

  /// Local block of membership weights (range.size() x J, row-major) from
  /// the last update_wts / random_init.
  std::span<const double> local_weights() const noexcept { return weights_; }

  /// Global statistics matrix (J x stats_per_class) from the last
  /// update_parameters.
  std::span<const double> statistics() const noexcept { return stats_; }

 private:
  /// One block's M-step partial: zero `stats` (J x stats_per_class) and
  /// fold the block's item-major weight rows into it with one
  /// Term::accumulate_batch call per term (lanes = classes, each slot in
  /// item order — bit-identical to the scalar chain).
  void accumulate_block(data::ItemRange block, const double* weights,
                        double* stats) const;
  /// stats_ = the per-block partials summed in block-index order.
  void fold_statistics(std::span<const double> partials);
  /// The standalone accumulation pass, for the two M-steps the weight
  /// pass does not feed — WtsOnly over the gathered full matrix, and the
  /// scalar oracle: per-block partials of its own from
  /// accumulate(block, weights, stats), work-shared, then folded.
  template <typename AccumulateBlock>
  void accumulate_statistics_blocked(AccumulateBlock&& accumulate);
  /// The scalar oracle's pass: the per-item x per-class x per-term virtual
  /// accumulate chain.
  void accumulate_statistics_scalar();
  /// Common epilogue of both M-step paths: charge, reduce, MAP updates.
  void finish_update_parameters(Classification& c);
  /// Shared E-step scaffolding: block the partition, run `fill` per block
  /// (work-shared) into the slot's class-major scratch, normalize it into
  /// the item-major weight rows — with lanes = items, or row by row through
  /// normalize_row when `lanes` is false — accumulate the block's M-step
  /// partial from those rows (accumulate_block), fold the W_j and
  /// log-likelihood partials in block order, and finish.
  template <typename FillBlock>
  double update_wts_blocked(Classification& c, FillBlock&& fill, bool lanes);
  /// The scalar oracle of the E-step tail per item: logsumexp-normalize
  /// `row` in place with pac::exp (with the degenerate-row guard), fold the
  /// lse into `loglike` and the normalized weights into `wj`.  The lane
  /// normalizer of update_wts reproduces it bit for bit.
  void normalize_row(std::size_t item, double* row, std::size_t j,
                     std::span<double> wj, KahanSum& loglike);
  /// Common epilogue of both E-step paths: charge, reduce, store results.
  double finish_update_wts(Classification& c,
                           std::span<double> wj_and_loglike);
  /// Run fn(b, slot) for every block index in [0, blocks): through the
  /// pool when one is configured, inline otherwise; `slot` names the
  /// running thread's scratch (ThreadPool::run_slotted).  If blocks throw,
  /// the lowest-indexed block's exception is rethrown on the calling
  /// thread: the pool captures each block's error and rethrows after the
  /// join, so the error reported never depends on the thread count.
  void run_blocks(std::size_t blocks,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  const Model* model_;
  const data::Dataset* data_;
  data::ItemRange range_;
  Reducer* reducer_;
  bool partition_params_;

  std::size_t num_classes_ = 0;
  std::vector<double> weights_;      // local items x J
  std::vector<double> full_weights_; // all items x J (WtsOnly only)
  std::vector<double> stats_;        // J x stats_per_class
  std::vector<double> block_stats_;  // the last weight pass's per-block
                                     // J x stats_per_class partials
  std::vector<double> scratch_;      // per-thread E-step block scratch
  std::size_t threads_ = 1;          // resolved at random_init
  std::unique_ptr<ThreadPool> pool_; // non-null only when threads_ > 1
};

}  // namespace pac::ac
