// Concrete model terms: single_normal, single_multinomial, multi_normal,
// single_lognormal and ignore.
//
// Data access has one shape on every backend: the batched kernels read
// per-block Dataset::real_block / discrete_block views, and the scalar
// oracles read Dataset::real_value / discrete_value.  Foreign rows reach a
// term only through rebind, which repoints that access at another dataset.
// The one backend test is the lognormal term's resident log cache
// (stream_logs), which caches a transform rather than a view.
//
// Notation per class j (weights w_i are the E-step membership weights):
//   sw   = sum_i w_i                (over items with known values)
//   swx  = sum_i w_i x_i
//   swx2 = sum_i w_i x_i^2
//
// MAP updates use empirical-Bayes conjugate priors centred on the global
// column statistics; the same priors give closed-form marginal likelihoods
// for the Cheeseman-Stutz score:
//   normal       — normal-inverse-gamma (NIG)
//   multinomial  — Dirichlet (Perks: alpha_l = scale / L)
//   multi normal — normal-inverse-Wishart (NIW), diagonal prior scatter
//
// Real densities carry a + log(error) correction per observed value: the
// probability of a measured value is the density integrated over the
// attribute's measurement-error interval, which makes log-likelihoods
// dimensionless and comparable across unit choices (AutoClass does the
// same).
#include "autoclass/terms.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/simd.hpp"

namespace pac::ac::detail {

// The SIMD multinomial kernel treats every negative symbol as missing; the
// scalar path compares against this exact sentinel, so the two only agree
// because it is the sole negative value a validated column can hold.
static_assert(data::kMissingDiscrete == -1);

namespace {

// ---------------------------------------------------------------- normal --

class SingleNormalTerm final : public Term {
 public:
  SingleNormalTerm(TermSpec spec, const data::Dataset& data,
                   const ModelConfig& config)
      : Term(std::move(spec)) {
    PAC_REQUIRE(spec_.attributes.size() == 1);
    const std::size_t a = spec_.attributes[0];
    const auto& attr = data.schema().at(a);
    PAC_REQUIRE_MSG(attr.kind == data::AttributeKind::kReal,
                    "single_normal needs a real attribute");
    data_ = &data;
    error_ = attr.rel_error;
    const auto stats = data.real_stats(a);
    PAC_REQUIRE_MSG(stats.known > 0, "attribute '" << attr.name
                                                   << "' has no known values");
    prior_mean_ = stats.mean;
    // Floor the prior variance so constant columns stay well-posed.
    prior_var_ = std::max(stats.variance, sq(error_));
    sigma_min_ = std::max(error_, 1e-9 * (stats.max - stats.min));
    mean_strength_ = config.mean_strength;
    var_strength_ = config.variance_strength;
    param_size_ = 3;  // mean, sigma, log_sigma
    stats_size_ = 3;  // sw, swx, swx2
    free_params_ = 2;
    name_ = attr.name;
  }

  double log_prob(std::size_t item,
                  std::span<const double> params) const override {
    const double x = value(item);
    if (data::is_missing_real(x)) return 0.0;
    const double z = (x - params[0]) / params[1];
    return -0.5 * (kLog2Pi + z * z) - params[2] + std::log(error_);
  }

  void log_prob_batch(data::ItemRange range, std::span<const double> params,
                      double* out) const override {
    // Hoisted per class-column: the parameter loads, log(error_) — the
    // scalar path pays that transcendental per item — and the block fetch.
    // The per-item expression is log_prob's, unchanged, so the column stays
    // bit-identical on either storage backend.
    const double mean = params[0];
    const double sigma = params[1];
    const double log_sigma = params[2];
    const double log_error = std::log(error_);
    const auto view = block(range);
    const double* x = view.data();
    if (simd::active()) {
      simd::gaussian_log_prob(x, view.size(), mean, sigma, log_sigma,
                              log_error, out);
      return;
    }
    for (std::size_t r = 0; r < view.size(); ++r) {
      double lp = 0.0;
      if (!data::is_missing_real(x[r])) {
        const double z = (x[r] - mean) / sigma;
        lp = -0.5 * (kLog2Pi + z * z) - log_sigma + log_error;
      }
      out[r] += lp;
    }
  }

  void accumulate(std::size_t item, double w,
                  std::span<double> stats) const override {
    const double x = value(item);
    if (data::is_missing_real(x)) return;
    stats[0] += w;
    stats[1] += w * x;
    stats[2] += w * x * x;
  }

  void accumulate_batch(data::ItemRange range, const double* weights,
                        std::size_t stride,
                        std::span<double> stats) const override {
    // The three weighted moments fold in registers instead of through the
    // stats span (and the virtual dispatch happens once per block, not per
    // item); the per-item additions are accumulate's, in item order, so
    // the folded block is bit-identical to the scalar chain.
    const auto view = block(range);
    const double* x = view.data();
    double sw = stats[0], swx = stats[1], swx2 = stats[2];
    for (std::size_t r = 0; r < view.size(); ++r, weights += stride) {
      const double w = *weights;
      if (w <= 0.0) continue;
      if (data::is_missing_real(x[r])) continue;
      sw += w;
      swx += w * x[r];
      swx2 += w * x[r] * x[r];
    }
    stats[0] = sw;
    stats[1] = swx;
    stats[2] = swx2;
  }

  // Fast tier: the same three moments in the fixed 4-lane association
  // (tolerance-validated, still deterministic at every dispatch level).
  void accumulate_batch_fast(data::ItemRange range, const double* weights,
                             std::size_t stride,
                             std::span<double> stats) const override {
    const auto view = block(range);
    simd::gaussian_accumulate_fast(view.data(), weights, stride, view.size(),
                                   stats.data());
  }

  void update_params(std::span<const double> stats,
                     std::span<double> params) const override {
    const double sw = stats[0];
    const double tau = mean_strength_;
    const double nu = var_strength_;
    // Posterior mean: weighted mean shrunk toward the prior mean.
    const double mean = (stats[1] + tau * prior_mean_) / (sw + tau);
    // Scatter about the weighted mean, regularized toward the global var.
    double scatter = 0.0;
    if (sw > 0.0) {
      const double wmean = stats[1] / sw;
      scatter = std::max(0.0, stats[2] - sw * wmean * wmean);
    }
    const double var = (scatter + nu * prior_var_) / (sw + nu);
    const double sigma = std::max(std::sqrt(var), sigma_min_);
    params[0] = mean;
    params[1] = sigma;
    params[2] = std::log(sigma);
  }

  double log_marginal(std::span<const double> stats) const override {
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    // Normal-inverse-gamma marginal with kappa0 = mean_strength,
    // alpha0 = var_strength / 2 + 1/2, beta0 = var_strength * prior_var / 2.
    const double kappa0 = mean_strength_;
    const double alpha0 = 0.5 * var_strength_ + 0.5;
    const double beta0 = 0.5 * var_strength_ * prior_var_;
    const double xbar = stats[1] / sw;
    const double scatter = std::max(0.0, stats[2] - sw * xbar * xbar);
    const double kappan = kappa0 + sw;
    const double alphan = alpha0 + 0.5 * sw;
    const double betan = beta0 + 0.5 * scatter +
                         0.5 * kappa0 * sw * sq(xbar - prior_mean_) / kappan;
    return log_gamma(alphan) - log_gamma(alpha0) + alpha0 * std::log(beta0) -
           alphan * std::log(betan) + 0.5 * (std::log(kappa0) - std::log(kappan)) -
           0.5 * sw * std::log(2.0 * kPi) + sw * std::log(error_);
  }

  double log_likelihood_of_stats(
      std::span<const double> stats,
      std::span<const double> params) const override {
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    const double mean = params[0];
    const double sigma = params[1];
    // sum_i w_i log N(x_i | mean, sigma) from the three moments.
    const double ss =
        stats[2] - 2.0 * mean * stats[1] + sw * mean * mean;
    return -0.5 * sw * kLog2Pi - sw * params[2] - 0.5 * ss / (sigma * sigma) +
           sw * std::log(error_);
  }

  double influence(std::span<const double> params) const override {
    // KL( N(mean, sigma^2) || N(prior_mean, prior_var) ).
    const double var1 = sq(params[1]);
    return 0.5 * (std::log(prior_var_ / var1) +
                  (var1 + sq(params[0] - prior_mean_)) / prior_var_ - 1.0);
  }

  std::string describe(std::span<const double> params) const override {
    std::ostringstream os;
    os << name_ << " ~ N(" << params[0] << ", sd=" << params[1] << ")";
    return os.str();
  }

  double seed_distance(std::size_t item, std::size_t seed_item) const override {
    const double a = value(item);
    const double b = value(seed_item);
    if (data::is_missing_real(a) || data::is_missing_real(b)) return 0.5;
    return sq(a - b) / prior_var_;
  }

  void seed_distance_batch(data::ItemRange range, std::size_t seed_item,
                           double* out, std::size_t stride) const override {
    // Hoists the seed value and the block fetch; the per-item expression is
    // seed_distance's, so the column stays bit-identical.
    const double b = value(seed_item);
    const auto view = block(range);
    const double* x = view.data();
    for (std::size_t r = 0; r < view.size(); ++r, out += stride)
      *out += data::is_missing_real(x[r]) || data::is_missing_real(b)
                  ? 0.5
                  : sq(x[r] - b) / prior_var_;
  }

  std::unique_ptr<Term> rebind(const data::Dataset& target) const override {
    // Copy keeps the trained priors (error_, prior_*, strengths); only the
    // data binding moves, so log_prob on the clone is the same expression
    // over the same constants.
    auto clone = std::make_unique<SingleNormalTerm>(*this);
    clone->data_ = &target;
    return clone;
  }

 private:
  /// One block of the attribute's column: a zero-copy slice on the resident
  /// backend, a pinned chunk window on the out-of-core one.
  data::ColumnBlockView<double> block(data::ItemRange range) const {
    return data_->real_block(spec_.attributes[0], range);
  }

  double value(std::size_t item) const {
    return data_->real_value(item, spec_.attributes[0]);
  }

  const data::Dataset* data_ = nullptr;
  std::string name_;
  double error_ = 1e-2;
  double prior_mean_ = 0.0;
  double prior_var_ = 1.0;
  double sigma_min_ = 1e-9;
  double mean_strength_ = 1.0;
  double var_strength_ = 1.0;
};

// ----------------------------------------------------------- multinomial --

class SingleMultinomialTerm final : public Term {
 public:
  SingleMultinomialTerm(TermSpec spec, const data::Dataset& data,
                        const ModelConfig& config)
      : Term(std::move(spec)) {
    PAC_REQUIRE(spec_.attributes.size() == 1);
    const std::size_t a = spec_.attributes[0];
    const auto& attr = data.schema().at(a);
    PAC_REQUIRE_MSG(attr.kind == data::AttributeKind::kDiscrete,
                    "single_multinomial needs a discrete attribute");
    data_ = &data;
    missing_as_value_ = config.missing_as_extra_value;
    num_values_ = static_cast<std::size_t>(attr.num_values) +
                  (missing_as_value_ ? 1 : 0);
    alpha_ = config.dirichlet_scale / static_cast<double>(num_values_);
    // Global frequencies under the same prior, for influence values.  The
    // cached column profile holds the per-symbol and missing counts, so no
    // column scan happens here; the counts are exact integers in doubles,
    // identical to what an incremental += 1.0 scan would accumulate.
    global_log_theta_.assign(num_values_, 0.0);
    const data::ColumnProfile& prof = data.profile(a);
    std::vector<double> counts(num_values_, 0.0);
    std::copy(prof.counts.begin(), prof.counts.end(), counts.begin());
    double total = static_cast<double>(prof.known);
    if (missing_as_value_) {
      counts.back() = static_cast<double>(prof.missing);
      total += static_cast<double>(prof.missing);
    }
    const double denom = total + alpha_ * static_cast<double>(num_values_);
    for (std::size_t l = 0; l < num_values_; ++l)
      global_log_theta_[l] = std::log((counts[l] + alpha_) / denom);
    param_size_ = num_values_;  // log theta_l
    stats_size_ = num_values_;  // fractional counts
    free_params_ = num_values_ - 1;
    name_ = attr.name;
  }

  double log_prob(std::size_t item,
                  std::span<const double> params) const override {
    const std::int32_t v = value(item);
    if (v == data::kMissingDiscrete) {
      return missing_as_value_ ? params[num_values_ - 1] : 0.0;
    }
    return params[static_cast<std::size_t>(v)];
  }

  void log_prob_batch(data::ItemRange range, std::span<const double> params,
                      double* out) const override {
    // The class's params block *is* the log-probability lookup table; the
    // batch path is a pure table walk with the missing policy and the block
    // fetch hoisted.
    const double missing_lp =
        missing_as_value_ ? params[num_values_ - 1] : 0.0;
    const auto view = block(range);
    const std::int32_t* v = view.data();
    if (simd::active()) {
      simd::multinomial_log_prob(v, view.size(), params.data(), missing_lp,
                                 out);
      return;
    }
    for (std::size_t r = 0; r < view.size(); ++r)
      out[r] += v[r] == data::kMissingDiscrete
                  ? missing_lp
                  : params[static_cast<std::size_t>(v[r])];
  }

  void accumulate(std::size_t item, double w,
                  std::span<double> stats) const override {
    const std::int32_t v = value(item);
    if (v == data::kMissingDiscrete) {
      if (missing_as_value_) stats[num_values_ - 1] += w;
      return;
    }
    stats[static_cast<std::size_t>(v)] += w;
  }

  void accumulate_batch(data::ItemRange range, const double* weights,
                        std::size_t stride,
                        std::span<double> stats) const override {
    // A weighted bincount over the same symbol indices the param table
    // uses, with the missing policy and the counts pointer hoisted out of
    // the item loop.  Each count slot receives accumulate's additions in
    // item order.
    const auto view = block(range);
    const std::int32_t* v = view.data();
    double* counts = stats.data();
    double* missing_slot = missing_as_value_ ? counts + num_values_ - 1
                                             : nullptr;
    for (std::size_t r = 0; r < view.size(); ++r, weights += stride) {
      const double w = *weights;
      if (w <= 0.0) continue;
      if (v[r] == data::kMissingDiscrete) {
        if (missing_slot != nullptr) *missing_slot += w;
        continue;
      }
      counts[static_cast<std::size_t>(v[r])] += w;
    }
  }

  void update_params(std::span<const double> stats,
                     std::span<double> params) const override {
    double total = 0.0;
    for (std::size_t l = 0; l < num_values_; ++l) total += stats[l];
    const double denom = total + alpha_ * static_cast<double>(num_values_);
    for (std::size_t l = 0; l < num_values_; ++l)
      params[l] = std::log((stats[l] + alpha_) / denom);
  }

  double log_marginal(std::span<const double> stats) const override {
    // Dirichlet-multinomial: log B(alpha + c) - log B(alpha).
    double lg_posterior = 0.0, sum_posterior = 0.0;
    for (std::size_t l = 0; l < num_values_; ++l) {
      lg_posterior += log_gamma(alpha_ + stats[l]);
      sum_posterior += alpha_ + stats[l];
    }
    const double n = static_cast<double>(num_values_);
    const double lg_prior = n * log_gamma(alpha_);
    const double sum_prior = alpha_ * n;
    return (lg_posterior - log_gamma(sum_posterior)) -
           (lg_prior - log_gamma(sum_prior));
  }

  double log_likelihood_of_stats(
      std::span<const double> stats,
      std::span<const double> params) const override {
    double ll = 0.0;
    for (std::size_t l = 0; l < num_values_; ++l) ll += stats[l] * params[l];
    return ll;
  }

  double influence(std::span<const double> params) const override {
    // KL( class || global ) over the symbol distribution.
    double kl = 0.0;
    for (std::size_t l = 0; l < num_values_; ++l)
      kl += std::exp(params[l]) * (params[l] - global_log_theta_[l]);
    return std::max(0.0, kl);
  }

  std::string describe(std::span<const double> params) const override {
    std::ostringstream os;
    os << name_ << " ~ Cat(";
    for (std::size_t l = 0; l < num_values_; ++l)
      os << (l ? ", " : "") << std::exp(params[l]);
    os << ")";
    return os.str();
  }

  double seed_distance(std::size_t item, std::size_t seed_item) const override {
    const std::int32_t a = value(item);
    const std::int32_t b = value(seed_item);
    if (a == data::kMissingDiscrete || b == data::kMissingDiscrete) return 0.5;
    return a == b ? 0.0 : 1.0;
  }

  void seed_distance_batch(data::ItemRange range, std::size_t seed_item,
                           double* out, std::size_t stride) const override {
    const std::int32_t b = value(seed_item);
    const auto view = block(range);
    const std::int32_t* v = view.data();
    for (std::size_t r = 0; r < view.size(); ++r, out += stride) {
      const std::int32_t a = v[r];
      *out += a == data::kMissingDiscrete || b == data::kMissingDiscrete
                  ? 0.5
                  : (a == b ? 0.0 : 1.0);
    }
  }

  std::unique_ptr<Term> rebind(const data::Dataset& target) const override {
    // Symbol range safety comes from schema equality (checked by
    // Model::rebound) plus the loaders' range validation: every value in
    // the target column already indexes the param table.
    auto clone = std::make_unique<SingleMultinomialTerm>(*this);
    clone->data_ = &target;
    return clone;
  }

 private:
  data::ColumnBlockView<std::int32_t> block(data::ItemRange range) const {
    return data_->discrete_block(spec_.attributes[0], range);
  }

  std::int32_t value(std::size_t item) const {
    return data_->discrete_value(item, spec_.attributes[0]);
  }

  const data::Dataset* data_ = nullptr;
  std::string name_;
  std::size_t num_values_ = 0;
  double alpha_ = 1.0;
  bool missing_as_value_ = false;
  std::vector<double> global_log_theta_;
};

// ---------------------------------------------------------- multi normal --

/// log of the multivariate gamma function Gamma_d(x).
double log_multigamma(std::size_t d, double x) {
  double s = 0.25 * static_cast<double>(d) * static_cast<double>(d - 1) *
             std::log(kPi);
  for (std::size_t i = 0; i < d; ++i)
    s += log_gamma(x - 0.5 * static_cast<double>(i));
  return s;
}

class MultiNormalTerm final : public Term {
 public:
  MultiNormalTerm(TermSpec spec, const data::Dataset& data,
                  const ModelConfig& config)
      : Term(std::move(spec)) {
    const std::size_t d = spec_.attributes.size();
    PAC_REQUIRE_MSG(d >= 2, "multi_normal blocks need >= 2 attributes");
    data_ = &data;
    double log_error_sum = 0.0;
    for (const std::size_t a : spec_.attributes) {
      const auto& attr = data.schema().at(a);
      PAC_REQUIRE_MSG(attr.kind == data::AttributeKind::kReal,
                      "multi_normal needs real attributes");
      PAC_REQUIRE_MSG(data.missing_count(a) == 0,
                      "multi_normal does not support missing values "
                      "(attribute '"
                          << attr.name << "')");
      const auto stats = data.real_stats(a);
      prior_mean_.push_back(stats.mean);
      prior_var_.push_back(std::max(stats.variance, sq(attr.rel_error)));
      log_error_sum += std::log(attr.rel_error);
      names_.push_back(attr.name);
    }
    dim_ = d;
    log_error_sum_ = log_error_sum;
    mean_strength_ = config.mean_strength;
    dof0_ = static_cast<double>(d) - 1.0 + config.wishart_extra_dof;
    // Prior scale matrix: dof0 * diag(global variances), so the prior mode
    // of the covariance is near the global diagonal covariance.
    param_size_ = d + d * d + 1;      // mean | cholesky(Sigma) | log det
    stats_size_ = 1 + d + d * d;      // sw | swx | swxx
    free_params_ = d + d * (d + 1) / 2;
  }

  double log_prob(std::size_t item,
                  std::span<const double> params) const override {
    const std::size_t d = dim_;
    double diff_stack[32];
    PAC_CHECK(d <= 32);
    std::span<double> diff(diff_stack, d);
    for (std::size_t k = 0; k < d; ++k)
      diff[k] = value(k, item) - params[k];
    const std::span<const double> chol(params.data() + d, d * d);
    const double logdet = params[d + d * d];
    const double maha = spd::mahalanobis2(chol, d, diff);
    return -0.5 * (static_cast<double>(d) * kLog2Pi + logdet + maha) +
           log_error_sum_;
  }

  void log_prob_batch(data::ItemRange range, std::span<const double> params,
                      double* out) const override {
    // The Cholesky factor lives in the params block (computed once per
    // M-step by update_params); hoist the factor/log-det loads and reuse
    // them across the whole block.
    const std::size_t d = dim_;
    double diff_stack[32];
    PAC_CHECK(d <= 32);
    std::span<double> diff(diff_stack, d);
    const std::span<const double> chol(params.data() + d, d * d);
    const double logdet = params[d + d * d];
    const double dd = static_cast<double>(d);
    data::ColumnBlockView<double> views[32];
    const double* cols[32];
    fetch_blocks(range, views, cols);
    const std::size_t n = range.size();
    if (simd::active()) {
      // Per-block base pointers with i0 = 0 read the exact addresses the
      // whole-column call would; the kernel's lane structure depends only
      // on the in-block index, so the output is unchanged.
      simd::multinormal_log_prob(cols, d, 0, n, params.data(),
                                 log_error_sum_, out);
      return;
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < d; ++k) diff[k] = cols[k][r] - params[k];
      const double maha = spd::mahalanobis2(chol, d, diff);
      out[r] += -0.5 * (dd * kLog2Pi + logdet + maha) + log_error_sum_;
    }
  }

  void accumulate(std::size_t item, double w,
                  std::span<double> stats) const override {
    const std::size_t d = dim_;
    double xs[32];
    PAC_CHECK(d <= 32);
    for (std::size_t k = 0; k < d; ++k) xs[k] = value(k, item);
    stats[0] += w;
    for (std::size_t k = 0; k < d; ++k) {
      const double xk = xs[k];
      stats[1 + k] += w * xk;
      for (std::size_t l = 0; l <= k; ++l)
        stats[1 + d + k * d + l] += w * xk * xs[l];
    }
  }

  void accumulate_batch(data::ItemRange range, const double* weights,
                        std::size_t stride,
                        std::span<double> stats) const override {
    // Weighted outer-product accumulation with the view indirections
    // hoisted: raw column pointers and the item's row cached once, then the
    // same lower-triangle additions as accumulate, in the same order.
    // (w * xk) is reused across the row — a pure recomputation hoist; the
    // per-slot expression (w * xk) * xl is unchanged.
    const std::size_t d = dim_;
    PAC_CHECK(d <= 32);
    data::ColumnBlockView<double> views[32];
    const double* cols[32];
    double xs[32];
    fetch_blocks(range, views, cols);
    double* s = stats.data();
    for (std::size_t r = 0; r < range.size(); ++r, weights += stride) {
      const double w = *weights;
      if (w <= 0.0) continue;
      s[0] += w;
      for (std::size_t k = 0; k < d; ++k) xs[k] = cols[k][r];
      for (std::size_t k = 0; k < d; ++k) {
        const double wxk = w * xs[k];
        s[1 + k] += wxk;
        double* row = s + 1 + d + k * d;
        for (std::size_t l = 0; l <= k; ++l) row[l] += wxk * xs[l];
      }
    }
  }

  // Fast tier: the weighted outer-product fold in the fixed 4-lane
  // association (tolerance-validated, deterministic at every level).
  void accumulate_batch_fast(data::ItemRange range, const double* weights,
                             std::size_t stride,
                             std::span<double> stats) const override {
    const std::size_t d = dim_;
    PAC_CHECK(d <= 32);
    data::ColumnBlockView<double> views[32];
    const double* cols[32];
    fetch_blocks(range, views, cols);
    simd::multinormal_accumulate_fast(cols, d, 0, range.size(), weights,
                                      stride, stats.data());
  }

  void update_params(std::span<const double> stats,
                     std::span<double> params) const override {
    const std::size_t d = dim_;
    const double sw = stats[0];
    const double tau = mean_strength_;
    // Posterior mean.
    for (std::size_t k = 0; k < d; ++k)
      params[k] = (stats[1 + k] + tau * prior_mean_[k]) / (sw + tau);
    // Scatter about the weighted mean (lower triangle accumulated).
    std::vector<double> sigma(d * d, 0.0);
    const double denom = sw + dof0_ + static_cast<double>(d) + 1.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double mk = sw > 0.0 ? stats[1 + k] / sw : prior_mean_[k];
      for (std::size_t l = 0; l <= k; ++l) {
        const double ml = sw > 0.0 ? stats[1 + l] / sw : prior_mean_[l];
        double s = stats[1 + d + k * d + l] - sw * mk * ml;
        if (k == l) s += dof0_ * prior_var_[k];  // prior scale (diagonal)
        sigma[k * d + l] = s / denom;
        sigma[l * d + k] = sigma[k * d + l];
      }
    }
    // Factor; if numerically non-PD, load the diagonal until it is.
    std::vector<double> chol = sigma;
    double jitter = 1e-10;
    while (!spd::cholesky(std::span<double>(chol), d)) {
      chol = sigma;
      for (std::size_t k = 0; k < d; ++k)
        chol[k * d + k] += jitter * prior_var_[k];
      jitter *= 10.0;
      PAC_CHECK_MSG(jitter < 1e6, "covariance is irreparably singular");
    }
    // Zero the (unused) strict upper triangle so params are canonical.
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t l = k + 1; l < d; ++l) chol[k * d + l] = 0.0;
    std::copy(chol.begin(), chol.end(), params.begin() + d);
    params[d + d * d] = spd::log_det_from_cholesky(chol, d);
  }

  double log_marginal(std::span<const double> stats) const override {
    const std::size_t d = dim_;
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    // Normal-inverse-Wishart marginal with kappa0 = mean_strength,
    // nu0 = d + wishart_extra_dof - 1, Lambda0 = dof0 * diag(prior_var).
    const double kappa0 = mean_strength_;
    const double nu0 = dof0_ + static_cast<double>(d);
    const double kappan = kappa0 + sw;
    const double nun = nu0 + sw;
    // Lambda_n = Lambda0 + S + kappa0*sw/kappan (xbar-mu0)(xbar-mu0)^T.
    std::vector<double> lambda(d * d, 0.0);
    std::vector<double> xbar(d);
    for (std::size_t k = 0; k < d; ++k) xbar[k] = stats[1 + k] / sw;
    const double shrink = kappa0 * sw / kappan;
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t l = 0; l <= k; ++l) {
        double s = stats[1 + d + k * d + l] - sw * xbar[k] * xbar[l];
        s += shrink * (xbar[k] - prior_mean_[k]) * (xbar[l] - prior_mean_[l]);
        if (k == l) s += dof0_ * prior_var_[k];
        lambda[k * d + l] = s;
        lambda[l * d + k] = s;
      }
    }
    double logdet_lambda0 = 0.0;
    for (std::size_t k = 0; k < d; ++k)
      logdet_lambda0 += std::log(dof0_ * prior_var_[k]);
    std::vector<double> chol = lambda;
    PAC_CHECK_MSG(spd::cholesky(std::span<double>(chol), d),
                  "posterior scale matrix not PD");
    const double logdet_lambdan = spd::log_det_from_cholesky(chol, d);
    const double dd = static_cast<double>(d);
    return -0.5 * sw * dd * std::log(kPi) +
           log_multigamma(d, 0.5 * nun) - log_multigamma(d, 0.5 * nu0) +
           0.5 * nu0 * logdet_lambda0 - 0.5 * nun * logdet_lambdan +
           0.5 * dd * (std::log(kappa0) - std::log(kappan)) +
           sw * log_error_sum_;
  }

  double log_likelihood_of_stats(
      std::span<const double> stats,
      std::span<const double> params) const override {
    const std::size_t d = dim_;
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    // sum_i w_i log N(x_i | mu, Sigma)
    //   = -sw/2 (d log 2pi + log|Sigma|) - 1/2 tr(Sigma^-1 M)
    // with M = swxx - mu swx^T - swx mu^T + sw mu mu^T.
    const std::span<const double> chol(params.data() + d, d * d);
    const double logdet = params[d + d * d];
    std::vector<double> m(d * d);
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t l = 0; l < d; ++l) {
        const double swxx = stats[1 + d + (k >= l ? k * d + l : l * d + k)];
        m[k * d + l] = swxx - params[k] * stats[1 + l] -
                       params[l] * stats[1 + k] +
                       sw * params[k] * params[l];
      }
    // tr(Sigma^-1 M): solve L Y = M, L^T Z = Y, trace Z — or use
    // tr(Sigma^-1 M) = sum_k e_k^T Sigma^-1 M e_k via column solves.
    double trace = 0.0;
    std::vector<double> col(d);
    for (std::size_t c = 0; c < d; ++c) {
      for (std::size_t r = 0; r < d; ++r) col[r] = m[r * d + c];
      // y = L^{-1} col ; z = L^{-T} y ; trace += z[c]
      spd::forward_solve(chol, d, std::span<double>(col));
      // backward solve with L^T
      for (std::size_t r = d; r-- > 0;) {
        double v = col[r];
        for (std::size_t k = r + 1; k < d; ++k)
          v -= chol[k * d + r] * col[k];
        col[r] = v / chol[r * d + r];
      }
      trace += col[c];
    }
    return -0.5 * sw * (static_cast<double>(d) * kLog2Pi + logdet) -
           0.5 * trace + sw * log_error_sum_;
  }

  double influence(std::span<const double> params) const override {
    // KL( N(mu, Sigma) || N(mu0, diag(prior_var)) ).
    const std::size_t d = dim_;
    const std::span<const double> chol(params.data() + d, d * d);
    const double logdet1 = params[d + d * d];
    double logdet0 = 0.0, trace = 0.0, maha = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      logdet0 += std::log(prior_var_[k]);
      // Sigma_kk = sum_l L_kl^2.
      double skk = 0.0;
      for (std::size_t l = 0; l <= k; ++l) skk += sq(chol[k * d + l]);
      trace += skk / prior_var_[k];
      maha += sq(params[k] - prior_mean_[k]) / prior_var_[k];
    }
    return std::max(
        0.0, 0.5 * (trace + maha - static_cast<double>(d) + logdet0 - logdet1));
  }

  std::string describe(std::span<const double> params) const override {
    std::ostringstream os;
    os << "block(";
    for (std::size_t k = 0; k < dim_; ++k)
      os << (k ? "," : "") << names_[k];
    os << ") ~ MVN(mean=[";
    for (std::size_t k = 0; k < dim_; ++k)
      os << (k ? "," : "") << params[k];
    os << "])";
    return os.str();
  }

  double seed_distance(std::size_t item, std::size_t seed_item) const override {
    double d2 = 0.0;
    for (std::size_t k = 0; k < dim_; ++k)
      d2 += sq(value(k, item) - value(k, seed_item)) / prior_var_[k];
    return d2;
  }

  void seed_distance_batch(data::ItemRange range, std::size_t seed_item,
                           double* out, std::size_t stride) const override {
    const std::size_t d = dim_;
    PAC_CHECK(d <= 32);
    double seed_vals[32];
    for (std::size_t k = 0; k < d; ++k) seed_vals[k] = value(k, seed_item);
    data::ColumnBlockView<double> views[32];
    const double* cols[32];
    fetch_blocks(range, views, cols);
    for (std::size_t r = 0; r < range.size(); ++r, out += stride) {
      double d2 = 0.0;
      for (std::size_t k = 0; k < d; ++k)
        d2 += sq(cols[k][r] - seed_vals[k]) / prior_var_[k];
      *out += d2;
    }
  }

  std::unique_ptr<Term> rebind(const data::Dataset& target) const override {
    // The training-time completeness requirement applies to query rows too:
    // the kernel has no missing-value path.
    for (const std::size_t a : spec_.attributes)
      PAC_REQUIRE_MSG(target.missing_count(a) == 0,
                      "multi_normal prediction needs complete rows "
                      "(attribute '"
                          << target.schema().at(a).name << "')");
    auto clone = std::make_unique<MultiNormalTerm>(*this);
    clone->data_ = &target;
    return clone;
  }

 private:
  /// Fill the block's d column windows: cols[k]'s element 0 is item
  /// range.begin; `views` owns any chunk pins for the duration of the call.
  void fetch_blocks(data::ItemRange range,
                    data::ColumnBlockView<double>* views,
                    const double** cols) const {
    for (std::size_t k = 0; k < dim_; ++k) {
      views[k] = data_->real_block(spec_.attributes[k], range);
      cols[k] = views[k].data();
    }
  }

  double value(std::size_t k, std::size_t item) const {
    return data_->real_value(item, spec_.attributes[k]);
  }

  const data::Dataset* data_ = nullptr;
  std::vector<std::string> names_;
  std::vector<double> prior_mean_;
  std::vector<double> prior_var_;
  std::size_t dim_ = 0;
  double log_error_sum_ = 0.0;
  double mean_strength_ = 1.0;
  double dof0_ = 3.0;
};

// ------------------------------------------------------------ log-normal --

/// Log-normal model for strictly positive reals (AutoClass's scalar model
/// for quantities like mass or intensity): log(x) is modeled as a normal.
/// The attribute's `rel_error` is interpreted *relatively* (constant error
/// in log space), so the density correction is + log(rel_error) and the
/// Jacobian contributes - log(x) per observation.  Sufficient statistics
/// are the weighted moments of log(x): [sw, swl, swl2].
class SingleLognormalTerm final : public Term {
 public:
  SingleLognormalTerm(TermSpec spec, const data::Dataset& data,
                      const ModelConfig& config)
      : Term(std::move(spec)) {
    PAC_REQUIRE(spec_.attributes.size() == 1);
    const std::size_t a = spec_.attributes[0];
    const auto& attr = data.schema().at(a);
    PAC_REQUIRE_MSG(attr.kind == data::AttributeKind::kReal,
                    "single_lognormal needs a real attribute");
    data_ = &data;
    WeightedMoments moments;
    stream_logs(data, a, attr.name, &moments);
    PAC_REQUIRE_MSG(moments.weight() > 0.0,
                    "attribute '" << attr.name << "' has no known values");
    rel_error_ = attr.rel_error;
    prior_mean_ = moments.mean();
    prior_var_ = std::max(moments.variance(), sq(rel_error_));
    sigma_min_ = std::max(rel_error_, 1e-12);
    mean_strength_ = config.mean_strength;
    var_strength_ = config.variance_strength;
    param_size_ = 3;  // mean, sigma, log_sigma (of log x)
    stats_size_ = 3;  // sw, swl, swl2
    free_params_ = 2;
    name_ = attr.name;
  }

  double log_prob(std::size_t item,
                  std::span<const double> params) const override {
    const double lx = log_value(item);
    if (data::is_missing_real(lx)) return 0.0;
    const double z = (lx - params[0]) / params[1];
    // Density of x: N(log x | m, s) / x; relative-error correction.
    return -0.5 * (kLog2Pi + z * z) - params[2] - lx + std::log(rel_error_);
  }

  void log_prob_batch(data::ItemRange range, std::span<const double> params,
                      double* out) const override {
    // Same hoists as the normal kernel (parameter loads, log(rel_error_));
    // log x comes from the resident log cache, or is recomputed into a
    // per-call scratch block on the chunked backend — std::log is a pure
    // function, so the two agree bit for bit.
    const double mean = params[0];
    const double sigma = params[1];
    const double log_sigma = params[2];
    const double log_error = std::log(rel_error_);
    double scratch[kScratchBlock];
    std::vector<double> heap;
    const double* lx = log_block(range, scratch, heap);
    const std::size_t n = range.size();
    if (simd::active()) {
      simd::lognormal_log_prob(lx, n, mean, sigma, log_sigma, log_error,
                               out);
      return;
    }
    for (std::size_t r = 0; r < n; ++r) {
      double lp = 0.0;
      if (!data::is_missing_real(lx[r])) {
        const double z = (lx[r] - mean) / sigma;
        lp = -0.5 * (kLog2Pi + z * z) - log_sigma - lx[r] + log_error;
      }
      out[r] += lp;
    }
  }

  void accumulate(std::size_t item, double w,
                  std::span<double> stats) const override {
    const double lx = log_value(item);
    if (data::is_missing_real(lx)) return;
    stats[0] += w;
    stats[1] += w * lx;
    stats[2] += w * lx * lx;
  }

  void accumulate_batch(data::ItemRange range, const double* weights,
                        std::size_t stride,
                        std::span<double> stats) const override {
    // Same register fold as the normal kernel over the log x block.
    double scratch[kScratchBlock];
    std::vector<double> heap;
    const double* lx = log_block(range, scratch, heap);
    double sw = stats[0], swl = stats[1], swl2 = stats[2];
    for (std::size_t r = 0; r < range.size(); ++r, weights += stride) {
      const double w = *weights;
      if (w <= 0.0) continue;
      if (data::is_missing_real(lx[r])) continue;
      sw += w;
      swl += w * lx[r];
      swl2 += w * lx[r] * lx[r];
    }
    stats[0] = sw;
    stats[1] = swl;
    stats[2] = swl2;
  }

  // Fast tier: identical moment shape to the normal term, over log x.
  void accumulate_batch_fast(data::ItemRange range, const double* weights,
                             std::size_t stride,
                             std::span<double> stats) const override {
    double scratch[kScratchBlock];
    std::vector<double> heap;
    const double* lx = log_block(range, scratch, heap);
    simd::gaussian_accumulate_fast(lx, weights, stride, range.size(),
                                   stats.data());
  }

  void update_params(std::span<const double> stats,
                     std::span<double> params) const override {
    const double sw = stats[0];
    const double mean = (stats[1] + mean_strength_ * prior_mean_) /
                        (sw + mean_strength_);
    double scatter = 0.0;
    if (sw > 0.0) {
      const double wmean = stats[1] / sw;
      scatter = std::max(0.0, stats[2] - sw * wmean * wmean);
    }
    const double var =
        (scatter + var_strength_ * prior_var_) / (sw + var_strength_);
    const double sigma = std::max(std::sqrt(var), sigma_min_);
    params[0] = mean;
    params[1] = sigma;
    params[2] = std::log(sigma);
  }

  double log_marginal(std::span<const double> stats) const override {
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    const double kappa0 = mean_strength_;
    const double alpha0 = 0.5 * var_strength_ + 0.5;
    const double beta0 = 0.5 * var_strength_ * prior_var_;
    const double xbar = stats[1] / sw;
    const double scatter = std::max(0.0, stats[2] - sw * xbar * xbar);
    const double kappan = kappa0 + sw;
    const double alphan = alpha0 + 0.5 * sw;
    const double betan = beta0 + 0.5 * scatter +
                         0.5 * kappa0 * sw * sq(xbar - prior_mean_) / kappan;
    // NIG marginal over log x, plus the Jacobian term -sum w log x = -swl
    // and the relative-error correction.
    return log_gamma(alphan) - log_gamma(alpha0) + alpha0 * std::log(beta0) -
           alphan * std::log(betan) +
           0.5 * (std::log(kappa0) - std::log(kappan)) -
           0.5 * sw * std::log(2.0 * kPi) - stats[1] +
           sw * std::log(rel_error_);
  }

  double log_likelihood_of_stats(
      std::span<const double> stats,
      std::span<const double> params) const override {
    const double sw = stats[0];
    if (sw <= 0.0) return 0.0;
    const double mean = params[0];
    const double sigma = params[1];
    const double ss = stats[2] - 2.0 * mean * stats[1] + sw * mean * mean;
    return -0.5 * sw * kLog2Pi - sw * params[2] -
           0.5 * ss / (sigma * sigma) - stats[1] +
           sw * std::log(rel_error_);
  }

  double influence(std::span<const double> params) const override {
    const double var1 = sq(params[1]);
    return 0.5 * (std::log(prior_var_ / var1) +
                  (var1 + sq(params[0] - prior_mean_)) / prior_var_ - 1.0);
  }

  std::string describe(std::span<const double> params) const override {
    std::ostringstream os;
    os << name_ << " ~ logN(" << params[0] << ", sd=" << params[1] << ")";
    return os.str();
  }

  double seed_distance(std::size_t item, std::size_t seed_item) const override {
    const double a = log_value(item);
    const double b = log_value(seed_item);
    if (data::is_missing_real(a) || data::is_missing_real(b)) return 0.5;
    return sq(a - b) / prior_var_;
  }

  void seed_distance_batch(data::ItemRange range, std::size_t seed_item,
                           double* out, std::size_t stride) const override {
    const double b = log_value(seed_item);
    double scratch[kScratchBlock];
    std::vector<double> heap;
    const double* lx = log_block(range, scratch, heap);
    for (std::size_t r = 0; r < range.size(); ++r, out += stride)
      *out += data::is_missing_real(lx[r]) || data::is_missing_real(b)
                  ? 0.5
                  : sq(lx[r] - b) / prior_var_;
  }

  std::unique_ptr<Term> rebind(const data::Dataset& target) const override {
    // The log cache is rebuilt from the target data; the trained priors
    // stay.  Positivity is a hard precondition, as at training time.
    auto clone = std::make_unique<SingleLognormalTerm>(*this);
    clone->data_ = &target;
    clone->stream_logs(target, spec_.attributes[0], name_, nullptr);
    return clone;
  }

 private:
  /// Scratch capacity matching the E-step/report block size; larger ranges
  /// spill to a per-call heap buffer.
  static constexpr std::size_t kScratchBlock = 256;

  /// One item-order pass over the column: validate positivity, fold the
  /// prior moments of log x when `moments` is given, and — on the resident
  /// backend only — fill log_column_.  The cache holds a transform, not a
  /// view: without it every E- and M-step pass would pay J std::log calls
  /// per item.  The chunked backend recomputes logs per block instead
  /// (log_block), keeping its memory bounded by the chunk budget.
  void stream_logs(const data::Dataset& data, std::size_t a,
                   const std::string& attr_name, WeightedMoments* moments) {
    const std::size_t n = data.num_items();
    if (data.resident())
      log_column_.resize(n);
    else
      log_column_.clear();
    constexpr std::size_t kScan = 4096;
    for (std::size_t begin = 0; begin < n; begin += kScan) {
      const data::ItemRange r{begin, std::min(begin + kScan, n)};
      const auto view = data.real_block(a, r);
      for (std::size_t i = 0; i < view.size(); ++i) {
        const double v = view[i];
        double lx = data::missing_real();
        if (!data::is_missing_real(v)) {
          PAC_REQUIRE_MSG(v > 0.0,
                          "single_lognormal needs strictly positive values; '"
                              << attr_name << "' has " << v);
          lx = std::log(v);
          if (moments != nullptr) moments->add(lx, 1.0);
        }
        if (!log_column_.empty()) log_column_[begin + i] = lx;
      }
    }
  }

  /// The block's log-x values: a slice of the resident log cache, or logs
  /// recomputed into caller scratch from the chunked backend (positivity
  /// was validated by stream_logs).
  const double* log_block(data::ItemRange range, double* stack,
                          std::vector<double>& heap) const {
    if (!log_column_.empty()) return log_column_.data() + range.begin;
    const auto view = data_->real_block(spec_.attributes[0], range);
    double* dst = stack;
    if (view.size() > kScratchBlock) {
      heap.resize(view.size());
      dst = heap.data();
    }
    for (std::size_t r = 0; r < view.size(); ++r)
      dst[r] = data::is_missing_real(view[r]) ? data::missing_real()
                                              : std::log(view[r]);
    return dst;
  }

  double log_value(std::size_t item) const {
    if (!log_column_.empty()) return log_column_[item];
    const double v = data_->real_value(item, spec_.attributes[0]);
    return data::is_missing_real(v) ? data::missing_real() : std::log(v);
  }

  const data::Dataset* data_ = nullptr;
  /// log x per item on the resident backend (missing stays NaN); empty on
  /// the chunk-backed one.  Built by stream_logs.
  std::vector<double> log_column_;
  std::string name_;
  double rel_error_ = 1e-2;
  double prior_mean_ = 0.0;
  double prior_var_ = 1.0;
  double sigma_min_ = 1e-12;
  double mean_strength_ = 1.0;
  double var_strength_ = 1.0;
};

// ----------------------------------------------------------------- ignore --

/// AutoClass's "ignore" model term: the covered attributes are excluded
/// from the classification entirely.  Zero parameters, zero statistics,
/// zero likelihood contribution.
class IgnoreTerm final : public Term {
 public:
  IgnoreTerm(TermSpec spec, const data::Dataset& data, const ModelConfig&)
      : Term(std::move(spec)) {
    for (const std::size_t a : spec_.attributes)
      PAC_REQUIRE(a < data.num_attributes());
    param_size_ = 0;
    stats_size_ = 0;
    free_params_ = 0;
  }

  double log_prob(std::size_t, std::span<const double>) const override {
    return 0.0;
  }
  // Genuinely add 0.0 per item rather than skipping the pass: += 0.0 turns
  // a -0.0 accumulator into +0.0, so a no-op would not be bit-identical to
  // the scalar chain on that (admittedly exotic) input.
  void log_prob_batch(data::ItemRange range, std::span<const double>,
                      double* out) const override {
    for (std::size_t r = 0; r < range.size(); ++r) out[r] += 0.0;
  }
  void accumulate(std::size_t, double, std::span<double>) const override {}
  // Zero statistics slots: there is nothing to add, so (unlike
  // log_prob_batch's += 0.0) a true no-op is already bit-identical.
  void accumulate_batch(data::ItemRange, const double*, std::size_t,
                        std::span<double>) const override {}
  void update_params(std::span<const double>,
                     std::span<double>) const override {}
  double log_marginal(std::span<const double>) const override { return 0.0; }
  double log_likelihood_of_stats(std::span<const double>,
                                 std::span<const double>) const override {
    return 0.0;
  }
  double influence(std::span<const double>) const override { return 0.0; }
  std::string describe(std::span<const double>) const override {
    return "(ignored)";
  }
  double seed_distance(std::size_t, std::size_t) const override {
    return 0.0;
  }
  std::unique_ptr<Term> rebind(const data::Dataset&) const override {
    return std::make_unique<IgnoreTerm>(*this);
  }
};

}  // namespace

std::unique_ptr<Term> make_term(TermSpec spec, const data::Dataset& data,
                                const ModelConfig& config) {
  switch (spec.kind) {
    case TermKind::kSingleNormal:
      return std::make_unique<SingleNormalTerm>(std::move(spec), data, config);
    case TermKind::kSingleMultinomial:
      return std::make_unique<SingleMultinomialTerm>(std::move(spec), data,
                                                     config);
    case TermKind::kMultiNormal:
      return std::make_unique<MultiNormalTerm>(std::move(spec), data, config);
    case TermKind::kSingleLognormal:
      return std::make_unique<SingleLognormalTerm>(std::move(spec), data,
                                                   config);
    case TermKind::kIgnore:
      return std::make_unique<IgnoreTerm>(std::move(spec), data, config);
  }
  PAC_REQUIRE_MSG(false, "unknown term kind");
  return nullptr;
}

}  // namespace pac::ac::detail
