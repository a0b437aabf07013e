#include "autoclass/em.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "autoclass/report.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pac::ac {

namespace {
/// Stream ids for the counter-based RNG, one per random purpose, so adding
/// a purpose never perturbs another purpose's draws.
constexpr std::uint64_t kInitStream = 0x1A17;
/// Fallback stream for seed-item redraws once the primary draw budget is
/// exhausted; offset far past any plausible try_index so the two purpose
/// stream families never overlap.
constexpr std::uint64_t kSeedFallbackStream = kInitStream + (1ULL << 32);

/// Items per E-step / M-step block: big enough to amortize the per-(term,
/// class) kernel dispatch, small enough that a block of likelihood rows
/// stays in L1/L2 alongside the term columns.  Also the unit of intra-rank
/// work sharing: per-block partials are folded in block-index order, so
/// every EM result is a pure function of this constant and never of the
/// thread count.
constexpr std::size_t kEStepBlock = 256;

/// Number of kEStepBlock blocks covering [begin, end).
std::size_t block_count(std::size_t begin, std::size_t end) {
  return (end - begin + kEStepBlock - 1) / kEStepBlock;
}

/// The b-th block of [begin, end).
data::ItemRange block_range(std::size_t begin, std::size_t end,
                            std::size_t b) {
  const std::size_t lo = begin + b * kEStepBlock;
  return data::ItemRange{lo, std::min(lo + kEStepBlock, end)};
}
}  // namespace

namespace detail {

std::vector<std::size_t> draw_seed_items(const CounterRng& rng, std::size_t n,
                                         std::size_t j,
                                         std::uint64_t try_index,
                                         std::uint64_t primary_budget) {
  PAC_REQUIRE(n > 0);
  if (primary_budget == 0) primary_budget = 16 * static_cast<std::uint64_t>(j);
  std::vector<std::size_t> seeds;
  seeds.reserve(j);
  const auto draw_index = [&](std::uint64_t stream, std::uint64_t counter) {
    return std::min(
        n - 1, static_cast<std::size_t>(rng.uniform(stream, seeds.size(),
                                                    counter) *
                                        static_cast<double>(n)));
  };
  std::uint64_t draw = 0;
  while (seeds.size() < j) {
    // Primary stream: byte-for-byte the historical draw sequence, so runs
    // that never exhaust the budget (collisions are rare for j << n) keep
    // their exact trajectories.
    const std::size_t candidate = draw_index(kInitStream + try_index, draw);
    ++draw;
    if (std::find(seeds.begin(), seeds.end(), candidate) == seeds.end()) {
      seeds.push_back(candidate);
      continue;
    }
    if (draw <= primary_budget) continue;
    if (seeds.size() >= n) {
      // More classes than items: distinct seeds no longer exist, so the
      // duplicate is accepted (the zero-separation classes are unavoidable
      // and the J-ladder prunes them).
      seeds.push_back(candidate);
      continue;
    }
    // Budget exhausted with distinct seeds still available: redraw from the
    // widened fallback stream and resolve any residual collision by probing
    // to the next free index.  Still a pure counter function — identical on
    // every rank and partitioning — and bounded, where the old code pushed
    // the duplicate and produced two zero-separation classes.
    std::size_t fallback = draw_index(kSeedFallbackStream + try_index, draw);
    while (std::find(seeds.begin(), seeds.end(), fallback) != seeds.end())
      fallback = (fallback + 1) % n;
    seeds.push_back(fallback);
  }
  return seeds;
}

}  // namespace detail

bool resolve_fast_math(int setting) noexcept {
  if (setting > 0) return true;
  if (setting < 0) return false;
  const char* env = std::getenv("PAC_FAST_MATH");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
         std::strcmp(env, "true") == 0 || std::strcmp(env, "yes") == 0;
}

void Reducer::gather_weight_matrix(std::span<const double> local,
                                   std::span<double> full,
                                   data::ItemRange range, std::size_t j) {
  PAC_REQUIRE(local.size() == range.size() * j);
  PAC_REQUIRE(full.size() >= range.end * j);
  std::copy(local.begin(), local.end(), full.begin() + range.begin * j);
}

EmWorker::EmWorker(const Model& model, data::ItemRange range,
                   Reducer& reducer, bool partition_params)
    : model_(&model),
      data_(&model.dataset()),
      range_(range),
      reducer_(&reducer),
      partition_params_(partition_params) {
  PAC_REQUIRE(range.end <= data_->num_items());
}

EmWorker::~EmWorker() = default;

void EmWorker::run_blocks(
    std::size_t blocks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool_ != nullptr) {
    pool_->run_slotted(blocks, fn);
    return;
  }
  for (std::size_t b = 0; b < blocks; ++b) fn(b, 0);
}

void EmWorker::random_init(Classification& c, std::uint64_t seed,
                           std::uint64_t try_index, const EmConfig& config) {
  // Try-generation span: seed drawing, initial soft assignment, and the
  // first weight reduction (includes the modeled per-try overhead charge).
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "random_init");
  const std::size_t j = c.num_classes();
  num_classes_ = j;
  weights_.assign(range_.size() * j, 0.0);
  if (!partition_params_)
    full_weights_.assign(data_->num_items() * j, 0.0);
  threads_ = ThreadPool::resolve(config.threads);
  fast_math_ = resolve_fast_math(config.fast_math);
  if (threads_ <= 1) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->threads() != threads_) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }

  PAC_REQUIRE(config.init_hard_weight > 0.0 && config.init_hard_weight <= 1.0);
  const double rest =
      j > 1 ? (1.0 - config.init_hard_weight) / static_cast<double>(j - 1)
            : 0.0;
  const double home = j > 1 ? config.init_hard_weight : 1.0;

  // Seed-item initialization: J random items act as class centres and every
  // item is (softly) assigned to its nearest seed.  Seeds are drawn from the
  // *global* index space and distances are pure functions of item pairs, so
  // the initial weights are identical for every partitioning of the data.
  // (On a real multicomputer the seed rows would be broadcast; reading them
  // from the read-only dataset is semantically equivalent.)
  const CounterRng rng(seed);
  const std::size_t n = data_->num_items();
  const std::vector<std::size_t> seeds =
      detail::draw_seed_items(rng, n, j, try_index);

  // Blocked nearest-seed assignment: per block, each (term, seed) pair
  // accumulates one distance column across the whole item block — the same
  // column-major kernel shape as the E-step, fed by per-block column views
  // on either storage backend.  Per (item, seed) the additions happen in
  // term order from 0.0 and the strict < argmin keeps the first minimum, so
  // the assignment is bit-identical to a per-item scalar loop — and, like
  // the E-step, a pure function of kEStepBlock, never of the thread count.
  const std::size_t blocks = block_count(range_.begin, range_.end);
  std::vector<std::exception_ptr> block_error(blocks);
  run_blocks(blocks, [&](std::size_t b, std::size_t) {
    const data::ItemRange block = block_range(range_.begin, range_.end, b);
    try {
      std::vector<double> dist(block.size() * j, 0.0);
      for (std::size_t k = 0; k < j; ++k)
        for (std::size_t t = 0; t < model_->num_terms(); ++t)
          model_->term(t).seed_distance_batch(block, seeds[k],
                                              dist.data() + k, j);
      for (std::size_t r = 0; r < block.size(); ++r) {
        const double* row_dist = dist.data() + r * j;
        std::size_t home_class = 0;
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < j; ++k) {
          if (row_dist[k] < best) {
            best = row_dist[k];
            home_class = k;
          }
        }
        double* row =
            weights_.data() + (block.begin - range_.begin + r) * j;
        for (std::size_t k = 0; k < j; ++k) row[k] = rest;
        row[home_class] = home;
      }
    } catch (...) {
      block_error[b] = std::current_exception();
    }
  });
  for (std::size_t b = 0; b < blocks; ++b)
    if (block_error[b]) std::rethrow_exception(block_error[b]);

  // W_j fold in plain item order over the filled rows — the same sequential
  // additions the old per-item loop performed.
  std::vector<double> wj_and_loglike(j + 1, 0.0);
  for (std::size_t r = 0; r < range_.size(); ++r) {
    const double* row = weights_.data() + r * j;
    for (std::size_t k = 0; k < j; ++k) wj_and_loglike[k] += row[k];
  }
  reducer_->charge(PhaseWork{Phase::kTryOverhead, range_.size(), j, 0});
  reducer_->reduce_weights(std::span<double>(wj_and_loglike));
  std::copy_n(wj_and_loglike.begin(), j, c.mutable_weights().begin());
  if (!partition_params_) {
    // The WtsOnly baseline's first M-step scans the whole dataset, so the
    // initial weights must be assembled globally as well.
    reducer_->gather_weight_matrix(std::span<const double>(weights_),
                                   std::span<double>(full_weights_), range_,
                                   j);
  }
  c.log_likelihood = 0.0;
}

namespace {

/// Fail loudly on an item whose row is -inf (or NaN) under every class:
/// exp-normalizing it would turn the whole row into NaNs that silently
/// poison the weight reduction.  Names the item and its least-impossible
/// class; the row's class k value is row[k * stride].
[[noreturn]] void throw_degenerate_row(std::size_t item, double lse,
                                       const double* row, std::size_t j,
                                       std::size_t stride) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < j; ++k)
    if (row[k * stride] > row[best * stride]) best = k;
  std::ostringstream os;
  os << "update_wts: item " << item << " has log-likelihood " << lse
     << " under every class (J=" << j << ", best class " << best << " at "
     << row[best * stride] << ") — zero-support value or emptied class; "
     << "widen the priors or drop the offending attribute";
  throw DegenerateRowError(os.str(), item, j);
}

}  // namespace

void EmWorker::normalize_row(std::size_t item, double* row, std::size_t j,
                             std::span<double> wj, KahanSum& loglike) {
  const double lse = logsumexp(std::span<const double>(row, j));
  if (!std::isfinite(lse)) throw_degenerate_row(item, lse, row, j, 1);
  loglike.add(lse);
  for (std::size_t k = 0; k < j; ++k) {
    row[k] = pac::exp(row[k] - lse);
    wj[k] += row[k];
  }
}

double EmWorker::finish_update_wts(Classification& c,
                                   std::span<double> wj_and_loglike) {
  const std::size_t j = c.num_classes();
  reducer_->charge(PhaseWork{Phase::kUpdateWts, range_.size(), j,
                             model_->covered_attributes()});
  // Total exchange of the class weight sums and the log-likelihood
  // (the Allreduce of paper Fig. 4).
  reducer_->reduce_weights(wj_and_loglike);

  std::copy_n(wj_and_loglike.begin(), j, c.mutable_weights().begin());
  c.log_likelihood = wj_and_loglike[j];

  if (!partition_params_) {
    // WtsOnly baseline: every rank needs the whole weight matrix because it
    // will recompute the parameters over the entire dataset.
    reducer_->gather_weight_matrix(
        std::span<const double>(weights_),
        std::span<double>(full_weights_), range_, j);
  }
  return c.log_likelihood;
}

template <typename FillBlock>
double EmWorker::update_wts_blocked(Classification& c, FillBlock&& fill,
                                    bool lanes) {
  const std::size_t j = c.num_classes();
  PAC_CHECK_MSG(j == num_classes_, "call random_init before update_wts");
  const std::size_t blocks = block_count(range_.begin, range_.end);

  // One scratch slot per pool thread: the class-major log-joint block, the
  // per-item lse, the normalizer's scratch, and the block's W_j partial.
  const std::size_t slot_size = (j + 3) * kEStepBlock + j;
  scratch_.resize(threads_ * slot_size);

  // Per-block partials: one W_j row and one compensated log-likelihood per
  // block, plus the block's deferred error.  Each block folds in locals and
  // stores its partials once, so blocks on different threads never write
  // one cache line item by item.  Blocks are claimed by whatever thread is
  // free; determinism comes from the block-ordered fold below.
  std::vector<double> block_wj(blocks * j, 0.0);
  std::vector<double> block_loglike(blocks, 0.0);
  std::vector<std::exception_ptr> block_error(blocks);
  run_blocks(blocks, [&](std::size_t b, std::size_t slot) {
    const data::ItemRange block = block_range(range_.begin, range_.end, b);
    const std::size_t n = block.size();
    double* lj = scratch_.data() + slot * slot_size;
    double* lse = lj + j * kEStepBlock;
    double* norm_scratch = lse + kEStepBlock;
    const std::span<double> wj(norm_scratch + 2 * kEStepBlock, j);
    double* rows = weights_.data() + (block.begin - range_.begin) * j;
    try {
      fill(block, lj);
      std::fill(wj.begin(), wj.end(), 0.0);
      KahanSum loglike;
      if (lanes) {
        // Lanes = items: every item runs normalize_row's op sequence, so
        // the weights, the lse fold and the W_j fold (item order per class)
        // are bit-identical to the per-row oracle.
        normalize_log_joint(lj, n, j, rows, lse, norm_scratch);
        for (std::size_t r = 0; r < n; ++r) {
          if (!std::isfinite(lse[r]))
            throw_degenerate_row(block.begin + r, lse[r], lj + r, j, n);
          loglike.add(lse[r]);
          for (std::size_t k = 0; k < j; ++k) wj[k] += rows[r * j + k];
        }
      } else {
        for (std::size_t r = 0; r < n; ++r) {
          double* row = rows + r * j;
          for (std::size_t k = 0; k < j; ++k) row[k] = lj[k * n + r];
          normalize_row(block.begin + r, row, j, wj, loglike);
        }
      }
      std::copy(wj.begin(), wj.end(), block_wj.begin() + b * j);
      block_loglike[b] = loglike.value();
    } catch (...) {
      block_error[b] = std::current_exception();
    }
  });

  // Block-ordered fold: the lowest-indexed block error wins (whatever
  // thread hit it), then W_j and the log-likelihood fold block by block —
  // a pure function of kEStepBlock, bit-identical for any thread count.
  for (std::size_t b = 0; b < blocks; ++b)
    if (block_error[b]) std::rethrow_exception(block_error[b]);
  std::vector<double> wj_and_loglike(j + 1, 0.0);
  KahanSum loglike;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t k = 0; k < j; ++k)
      wj_and_loglike[k] += block_wj[b * j + k];
    loglike.add(block_loglike[b]);
  }
  wj_and_loglike[j] = loglike.value();
  return finish_update_wts(c, std::span<double>(wj_and_loglike));
}

double EmWorker::update_wts(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_wts");
  return update_wts_blocked(
      c,
      [&](data::ItemRange block, double* lj) {
        fill_log_joint(c, block, lj);
      },
      /*lanes=*/true);
}

double EmWorker::update_wts_scalar(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_wts_scalar");
  const std::size_t num_terms = model_->num_terms();
  const std::size_t j = c.num_classes();
  return update_wts_blocked(
      c,
      [&](data::ItemRange block, double* lj) {
        // log L_ij = log pi_j + sum_t log p(x_i | theta_jt), per item.
        const std::size_t n = block.size();
        for (std::size_t i = block.begin; i < block.end; ++i) {
          for (std::size_t k = 0; k < j; ++k) {
            double lp = c.log_pi(k);
            for (std::size_t t = 0; t < num_terms; ++t)
              lp += model_->term(t).log_prob(i, c.param_block(k, t));
            lj[k * n + (i - block.begin)] = lp;
          }
        }
      },
      /*lanes=*/false);
}

template <typename AccumulateBlock>
void EmWorker::accumulate_statistics_blocked(const Classification& c,
                                             AccumulateBlock&& accumulate) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  const bool full = !partition_params_;
  const std::size_t begin = full ? 0 : range_.begin;
  const std::size_t end = full ? data_->num_items() : range_.end;
  const double* weights = full ? full_weights_.data() : weights_.data();
  const std::size_t weight_base = full ? 0 : range_.begin;

  // Per-block J x stats_per_class partials, folded below in block-index
  // order — the same determinism structure as the E-step.
  const std::size_t blocks = block_count(begin, end);
  block_stats_.assign(blocks * j * spc, 0.0);
  run_blocks(blocks, [&](std::size_t b, std::size_t) {
    const data::ItemRange block = block_range(begin, end, b);
    const double* block_weights = weights + (block.begin - weight_base) * j;
    accumulate(block, block_weights,
               std::span<double>(block_stats_.data() + b * j * spc,
                                 j * spc));
  });

  stats_.assign(j * spc, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* partial = block_stats_.data() + b * j * spc;
    for (std::size_t s = 0; s < j * spc; ++s) stats_[s] += partial[s];
  }
}

void EmWorker::accumulate_statistics(const Classification& c) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  accumulate_statistics_blocked(
      c, [&](data::ItemRange block, const double* weights,
             std::span<double> stats) {
        // (class, term)-major: each Term::accumulate_batch call folds one
        // class's weight column over the whole block — the virtual
        // dispatch, column pointers, and moment registers hoisted out of
        // the item loop.  Within every stats slot the items still fold in
        // increasing order, so the block partial is bit-identical to the
        // scalar chain's.
        // The fast tier routes each (class, term) fold through
        // accumulate_batch_fast (reassociated 4-lane moments where a term
        // provides them, the exact kernel otherwise).
        const bool fast = fast_math_;
        for (std::size_t k = 0; k < j; ++k) {
          double* class_stats = stats.data() + k * spc;
          for (std::size_t t = 0; t < model_->num_terms(); ++t) {
            const Term& term = model_->term(t);
            const std::span<double> term_stats(
                class_stats + model_->stats_offset(t), term.stats_size());
            if (fast) {
              term.accumulate_batch_fast(block, weights + k, j, term_stats);
            } else {
              term.accumulate_batch(block, weights + k, j, term_stats);
            }
          }
        }
      });
}

void EmWorker::accumulate_statistics_scalar(const Classification& c) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  accumulate_statistics_blocked(
      c, [&](data::ItemRange block, const double* weights,
             std::span<double> stats) {
        // The reference chain: item-major, per-class w <= 0 skip, one
        // virtual accumulate per (item, class, term).
        for (std::size_t i = block.begin; i < block.end; ++i) {
          const double* row = weights + (i - block.begin) * j;
          for (std::size_t k = 0; k < j; ++k) {
            const double w = row[k];
            if (w <= 0.0) continue;
            double* class_stats = stats.data() + k * spc;
            for (std::size_t t = 0; t < model_->num_terms(); ++t)
              model_->term(t).accumulate(
                  i, w,
                  std::span<double>(class_stats + model_->stats_offset(t),
                                    model_->term(t).stats_size()));
          }
        }
      });
}

void EmWorker::finish_update_parameters(Classification& c) {
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  const std::size_t accumulated_items =
      partition_params_ ? range_.size() : data_->num_items();
  reducer_->charge(PhaseWork{Phase::kUpdateParams, accumulated_items, j,
                             model_->covered_attributes()});
  if (partition_params_) {
    // Total exchange of the sufficient statistics (paper Fig. 5).
    reducer_->reduce_statistics(std::span<double>(stats_), j);
  }

  for (std::size_t k = 0; k < j; ++k) {
    double* class_stats = stats_.data() + k * spc;
    for (std::size_t t = 0; t < model_->num_terms(); ++t)
      model_->term(t).update_params(
          std::span<const double>(class_stats + model_->stats_offset(t),
                                  model_->term(t).stats_size()),
          c.param_block(k, t));
  }
  c.update_log_pi_from_weights(static_cast<double>(data_->num_items()));
}

void EmWorker::update_parameters(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_parameters");
  PAC_CHECK_MSG(c.num_classes() == num_classes_,
                "call random_init before update_parameters");
  accumulate_statistics(c);
  finish_update_parameters(c);
}

void EmWorker::update_parameters_scalar(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_parameters_scalar");
  PAC_CHECK_MSG(c.num_classes() == num_classes_,
                "call random_init before update_parameters");
  accumulate_statistics_scalar(c);
  finish_update_parameters(c);
}

void EmWorker::update_approximations(Classification& c) {
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "update_approximations");
  const std::size_t j = c.num_classes();
  const std::size_t spc = model_->stats_per_class();
  PAC_CHECK_MSG(stats_.size() == j * spc,
                "call update_parameters before update_approximations");

  // Cheeseman-Stutz: log p(X|T) ~ log m(X') + log p(X|theta) - log p(X'|theta)
  // where X' is the fractionally completed data (the statistics).
  double log_marginal_complete = 0.0;  // log m(X'): closed-form conjugates
  double loglike_complete = 0.0;       // log p(X'|theta)
  for (std::size_t k = 0; k < j; ++k) {
    const double* class_stats = stats_.data() + k * spc;
    loglike_complete += c.weight(k) * c.log_pi(k);
    for (std::size_t t = 0; t < model_->num_terms(); ++t) {
      const std::span<const double> term_stats(
          class_stats + model_->stats_offset(t),
          model_->term(t).stats_size());
      log_marginal_complete += model_->term(t).log_marginal(term_stats);
      loglike_complete += model_->term(t).log_likelihood_of_stats(
          term_stats, c.param_block(k, t));
    }
  }
  // Class-weight marginal: Dirichlet-multinomial over the W_j.
  const double a = model_->config().class_weight_prior;
  std::vector<double> alpha_posterior(j), alpha_prior(j, a);
  for (std::size_t k = 0; k < j; ++k)
    alpha_posterior[k] = a + c.weight(k);
  log_marginal_complete +=
      log_multivariate_beta(std::span<const double>(alpha_posterior)) -
      log_multivariate_beta(std::span<const double>(alpha_prior));

  c.cs_score =
      log_marginal_complete + c.log_likelihood - loglike_complete;
  c.bic_score = c.log_likelihood -
                0.5 * static_cast<double>(model_->free_params(j)) *
                    std::log(static_cast<double>(data_->num_items()));
  reducer_->charge(PhaseWork{Phase::kUpdateApprox, 0, j,
                             model_->covered_attributes()});
}

ConvergeOutcome EmWorker::converge(Classification& c,
                                   const EmConfig& config) {
  PAC_REQUIRE(config.max_cycles >= 1);
  PAC_REQUIRE(config.sigma_window >= 2);
  ConvergeOutcome outcome;
  double previous_score = -std::numeric_limits<double>::infinity();
  int small_deltas = 0;
  std::vector<double> recent_deltas;  // ring of the last sigma_window deltas
  trace::Recorder* rec =
      trace::compiled_in() ? reducer_->recorder() : nullptr;
  for (int cycle = 0; cycle < config.max_cycles; ++cycle) {
    PAC_TRACE_SCOPE(rec, "em", "base_cycle");
    update_parameters(c);   // M-step from current weights
    update_wts(c);          // E-step with the new parameters
    update_approximations(c);
    reducer_->charge(PhaseWork{Phase::kCycleOverhead, 0, c.num_classes(), 0});
    if (rec != nullptr) rec->metrics().counter("em.cycles").add(1);
    outcome.cycles = cycle + 1;
    const double delta = std::abs(c.cs_score - previous_score) /
                         (1.0 + std::abs(c.cs_score));
    if (cycle + 1 >= config.min_cycles) {
      if (rec != nullptr)
        rec->metrics().counter("em.convergence_checks").add(1);
      if (config.convergence == ConvergenceKind::kRelDelta) {
        small_deltas = delta < config.rel_delta ? small_deltas + 1 : 0;
        if (small_deltas >= config.delta_cycles) {
          outcome.converged = true;
          break;
        }
      } else {
        recent_deltas.push_back(delta);
        if (recent_deltas.size() >
            static_cast<std::size_t>(config.sigma_window))
          recent_deltas.erase(recent_deltas.begin());
        if (recent_deltas.size() ==
            static_cast<std::size_t>(config.sigma_window)) {
          const auto [lo, hi] =
              std::minmax_element(recent_deltas.begin(), recent_deltas.end());
          if (*hi - *lo < config.rel_delta && *hi < 10.0 * config.rel_delta) {
            outcome.converged = true;
            break;
          }
        }
      }
    }
    previous_score = c.cs_score;
  }
  c.cycles = outcome.cycles;
  return outcome;
}

Classification EmWorker::prune_and_refit(const Classification& c,
                                         const EmConfig& config) {
  if (config.min_class_weight <= 0.0) return c;
  PAC_TRACE_SCOPE(reducer_->recorder(), "em", "prune_and_refit");
  std::vector<std::size_t> keep;
  for (std::size_t k = 0; k < c.num_classes(); ++k)
    if (c.weight(k) >= config.min_class_weight) keep.push_back(k);
  if (keep.size() == c.num_classes() || keep.empty()) return c;

  Classification pruned =
      c.filtered(keep, static_cast<double>(data_->num_items()));
  pruned.initial_classes = c.initial_classes;
  // Refit: one E-step to rebuild weights for the survivors, then one full
  // cycle so parameters and scores are consistent.
  num_classes_ = pruned.num_classes();
  // The refit is try-level overhead on top of the charged cycles: the
  // weight reshape and survivor bookkeeping scan the rank's items once,
  // like random_init's setup pass.
  reducer_->charge(PhaseWork{Phase::kTryOverhead, range_.size(), num_classes_, 0});
  weights_.assign(range_.size() * num_classes_, 0.0);
  if (!partition_params_)
    full_weights_.assign(data_->num_items() * num_classes_, 0.0);
  update_wts(pruned);
  update_parameters(pruned);
  update_wts(pruned);
  update_approximations(pruned);
  pruned.cycles = c.cycles + 2;
  return pruned;
}

}  // namespace pac::ac
