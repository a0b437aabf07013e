// Bayesian finite-mixture model structure (AutoClass's "model level").
//
// A Model binds a dataset to a list of *terms*.  Each term models one
// attribute (single_normal for reals, single_multinomial for discretes) or a
// block of real attributes jointly (multi_normal with full covariance),
// mirroring the model families of AutoClass C 3.3.  Per class, every term
// owns a fixed-size block of parameters and a fixed-size block of sufficient
// statistics, both laid out as flat doubles:
//
//   params of a classification:  J x params_per_class() doubles
//   statistics of an M-step:     J x stats_per_class()  doubles
//
// The flat layout is deliberate: it is what P-AutoClass Allreduces across
// ranks (paper Fig. 5), either fused into a single buffer or one term at a
// time (ablation).  Terms carry their empirical-Bayes priors, computed from
// global column statistics at Model construction.
//
// A Model is immutable after construction and bound to its Dataset (terms
// consume it through per-block column views, with a zero-copy whole-column
// fast path on the resident backend); it is shared read-only by all SPMD
// ranks.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace pac::ac {

enum class TermKind {
  kSingleNormal,       // one real attribute, Gaussian
  kSingleMultinomial,  // one discrete attribute, categorical
  kMultiNormal,        // a block of real attributes, full-covariance Gaussian
  kSingleLognormal,    // one strictly positive real attribute, log-normal
  kIgnore,             // attribute(s) excluded from the model (AutoClass
                       // "ignore" model term): contributes nothing
};

const char* to_string(TermKind kind) noexcept;

/// Which attributes a term covers.
struct TermSpec {
  TermKind kind = TermKind::kSingleNormal;
  std::vector<std::size_t> attributes;  // indices into the schema
};

/// Prior strengths and policies (AutoClass defaults unless noted).
struct ModelConfig {
  /// Pseudo-count pulling class means toward the global mean.
  double mean_strength = 1.0;
  /// Pseudo-count pulling class variances toward the global variance.
  double variance_strength = 1.0;
  /// Dirichlet concentration per symbol as a multiple of 1/L (Perks prior).
  double dirichlet_scale = 1.0;
  /// Dirichlet pseudo-count per class for the mixing weights pi_j.
  double class_weight_prior = 1.0;
  /// Treat a missing discrete value as an extra symbol instead of skipping.
  bool missing_as_extra_value = false;
  /// Degrees of freedom above d-1 for the inverse-Wishart prior.
  double wishart_extra_dof = 2.0;
};

/// Per-class model term.  Concrete terms live in terms.cpp; see the header
/// comment for the contract.  All span arguments are exactly param_size() or
/// stats_size() doubles for one class.
class Term {
 public:
  virtual ~Term() = default;

  const TermSpec& spec() const noexcept { return spec_; }
  /// Number of schema attributes covered (the "K" factor in cost models).
  std::size_t num_attributes() const noexcept { return spec_.attributes.size(); }
  std::size_t param_size() const noexcept { return param_size_; }
  std::size_t stats_size() const noexcept { return stats_size_; }
  /// Free continuous parameters per class (for BIC-style penalties).
  std::size_t free_params() const noexcept { return free_params_; }

  /// E-step: log p(item's covered attributes | params); missing values
  /// contribute nothing (or an extra symbol, per ModelConfig).
  virtual double log_prob(std::size_t item,
                          std::span<const double> params) const = 0;

  /// Batched E-step kernel: for every item i in `range`, *accumulate* this
  /// term's log-probability under `params` into out[i - range.begin].  With
  /// `out` pointing at one class's column of a class-major block (J
  /// contiguous columns of range.size() items, fill_log_joint's layout),
  /// one call fills that column for a whole item block.
  ///
  /// Contract: the value added per item must be bit-identical to
  /// log_prob(item, params).  Overrides may hoist loop-invariant work out of
  /// the item loop — parameter loads, logs of per-term constants, the
  /// virtual dispatch itself — but must not rearrange the per-item floating
  /// point expression.  The scalar log_prob stays the oracle the equality
  /// tests diff against.  The default implementation loops over log_prob,
  /// so new term families are correct before they are fast.
  virtual void log_prob_batch(data::ItemRange range,
                              std::span<const double> params,
                              double* out) const;

  /// M-step accumulation: absorb `item` with membership weight `w`.
  virtual void accumulate(std::size_t item, double w,
                          std::span<double> stats) const = 0;

  /// Batched M-step kernel: absorb every item i in `range` with membership
  /// weight weights[(i - range.begin) * stride] into `stats`.  With
  /// `weights` pointing at one class's column of the row-major item x class
  /// membership matrix and `stride` = J, one call folds that class's share
  /// of a whole item block into the class's statistics.
  ///
  /// Contract (mirror of log_prob_batch): the additions into each stats
  /// slot must be the ones accumulate(item, w, stats) would perform, in the
  /// same increasing-item order, and items with w <= 0 are skipped exactly
  /// as EmWorker's scalar M-step skips them — so the fold stays
  /// bit-identical to the per-item virtual chain.  Overrides may hoist
  /// loop-invariant work (column pointers, parameter-table loads, running
  /// moment registers, the virtual dispatch itself) but must not
  /// reassociate the per-item floating-point expression or reorder items
  /// within a slot.  The scalar accumulate stays the oracle the equality
  /// tests diff against; the default implementation loops over it, so new
  /// term families are correct before they are fast.
  virtual void accumulate_batch(data::ItemRange range, const double* weights,
                                std::size_t stride,
                                std::span<double> stats) const;

  /// Fast-math M-step kernel (the opt-in PAC_FAST_MATH tier): same inputs
  /// and slot layout as accumulate_batch, but the fold may use the fixed
  /// 4-lane reassociation documented in util/simd.hpp — lane j sums items
  /// with in-block index ≡ j (mod 4), lanes combine as ((l0+l1)+l2)+l3,
  /// tail items fold in order, and skipped items (w <= 0 / missing)
  /// contribute exactly +0.0.  The association is fixed by contract, never
  /// by the instruction set, so results stay deterministic and identical
  /// across SIMD levels, thread counts, and transports; they are validated
  /// against the scalar oracle by the relative-error tolerance suite
  /// instead of memcmp (DESIGN.md §5).  The default defers to the
  /// bit-identical accumulate_batch, so term families without a fast
  /// kernel are simply exact.
  virtual void accumulate_batch_fast(data::ItemRange range,
                                     const double* weights,
                                     std::size_t stride,
                                     std::span<double> stats) const;

  /// MAP update: statistics -> parameters (applies the term's prior).
  virtual void update_params(std::span<const double> stats,
                             std::span<double> params) const = 0;

  /// Closed-form log marginal likelihood of the (fractional) statistics
  /// under the conjugate prior — the Cheeseman-Stutz building block.
  virtual double log_marginal(std::span<const double> stats) const = 0;

  /// Expected complete-data log likelihood of the statistics at `params`
  /// (equals sum_i w_i log p(x_i | params), computable from stats alone).
  virtual double log_likelihood_of_stats(
      std::span<const double> stats, std::span<const double> params) const = 0;

  /// KL divergence of this class's distribution from the global (single
  /// class) distribution: the attribute-influence measure of the reports.
  virtual double influence(std::span<const double> params) const = 0;

  /// Human-readable one-line parameter summary for reports.
  virtual std::string describe(std::span<const double> params) const = 0;

  /// Normalized dissimilarity between two items over this term's
  /// attributes, used by seed-item initialization (reals: squared z-score
  /// distance; discretes: 0/1 mismatch; missing values count as half a
  /// mismatch).  Pure function of the two items — partition-invariant.
  virtual double seed_distance(std::size_t item,
                               std::size_t seed_item) const = 0;

  /// Batched seed-distance kernel: for every item i in `range`, *accumulate*
  /// this term's seed_distance(i, seed_item) into
  /// out[(i - range.begin) * stride]: one column of a row-major item x seed
  /// buffer (stride = number of seeds).
  ///
  /// Contract: the value added per item must be bit-identical to
  /// seed_distance(item, seed_item).  Overrides may hoist the seed item's
  /// values and the column fetch out of the loop but must not rearrange the
  /// per-item floating-point expression.  The default loops over
  /// seed_distance.
  virtual void seed_distance_batch(data::ItemRange range,
                                   std::size_t seed_item, double* out,
                                   std::size_t stride) const;

  /// log p(item of a *foreign* dataset | params): evaluates the same
  /// density on data that was not used to build the model (AutoClass's
  /// predict mode).  The foreign dataset must use a compatible schema.
  virtual double log_prob_foreign(const data::Dataset& foreign,
                                  std::size_t item,
                                  std::span<const double> params) const = 0;

  /// Clone this term with its column spans repointed at `target` (a dataset
  /// with the training schema), keeping every trained prior and hoisted
  /// constant byte-identical.  log_prob on the clone therefore produces
  /// bit-identical values to the training-bound term evaluated on equal
  /// data — this is what lets pac_serve route foreign query rows through
  /// the batched log_prob_batch kernels (the serving hot path) instead of
  /// the scalar log_prob_foreign.  Throws pac::Error if `target` violates a
  /// family precondition (non-positive values for lognormal, missing values
  /// in a multi_normal block).  The base implementation throws: a term
  /// family without an override simply cannot serve.
  virtual std::unique_ptr<Term> rebind(const data::Dataset& target) const;

 protected:
  explicit Term(TermSpec spec) : spec_(std::move(spec)) {}

  TermSpec spec_;
  std::size_t param_size_ = 0;
  std::size_t stats_size_ = 0;
  std::size_t free_params_ = 0;
};

class Model {
 public:
  /// Build a model over `data` with explicit term structure.
  Model(const data::Dataset& data, std::vector<TermSpec> specs,
        ModelConfig config = {});

  /// Default structure: one single_normal per real attribute, one
  /// single_multinomial per discrete attribute (AutoClass's default model).
  static Model default_model(const data::Dataset& data,
                             ModelConfig config = {});

  /// Correlated structure: all real attributes jointly in one multi_normal
  /// block (falling back to single_normal when there is only one), plus one
  /// single_multinomial per discrete attribute — AutoClass's "MNcn" model.
  /// Real attributes must have no missing values.
  static Model correlated_model(const data::Dataset& data,
                                ModelConfig config = {});

  const data::Dataset& dataset() const noexcept { return *data_; }
  const ModelConfig& config() const noexcept { return config_; }

  std::size_t num_terms() const noexcept { return terms_.size(); }
  const Term& term(std::size_t t) const { return *terms_[t]; }

  /// Flat layout offsets (in doubles) of term t's block within one class.
  std::size_t param_offset(std::size_t t) const { return param_offsets_[t]; }
  std::size_t stats_offset(std::size_t t) const { return stats_offsets_[t]; }
  std::size_t params_per_class() const noexcept { return params_per_class_; }
  std::size_t stats_per_class() const noexcept { return stats_per_class_; }

  /// Free parameters of a J-class classification (incl. J-1 mixing weights).
  std::size_t free_params(std::size_t num_classes) const noexcept;

  /// Total attribute slots covered by terms (the cost model's K).
  std::size_t covered_attributes() const noexcept { return covered_attrs_; }

  /// A copy of this model bound to `target` instead of the training
  /// dataset: same term structure, same offsets, and — via Term::rebind —
  /// the same trained priors and constants, so evaluating a classification
  /// under the rebound model is bit-identical to evaluating the original on
  /// equal data.  `target` must use the training schema.  This is the
  /// serving path: pac_serve rebinds per query batch so the kernelized
  /// E-step runs on wire-decoded rows.
  Model rebound(const data::Dataset& target) const;

 private:
  Model() = default;

  const data::Dataset* data_ = nullptr;
  ModelConfig config_;
  std::vector<std::unique_ptr<Term>> terms_;
  std::vector<std::size_t> param_offsets_;
  std::vector<std::size_t> stats_offsets_;
  std::size_t params_per_class_ = 0;
  std::size_t stats_per_class_ = 0;
  std::size_t covered_attrs_ = 0;
};

}  // namespace pac::ac
