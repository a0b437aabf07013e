// Kernel-layer tests: the batched Term::log_prob_batch E-step kernels and
// the Term::accumulate_batch M-step kernels must be *bit-identical* to
// their scalar oracles (the per-item virtual log_prob / accumulate chains)
// for every term family, with and without missing values — the determinism
// contract of DESIGN.md's kernel section.  The blocked EM drivers must in
// turn be invariant in the thread count (EmConfig::threads /
// PAC_EM_THREADS): per-block partials folded in block-index order make
// every trajectory a pure function of the block size.  Also covers the
// degenerate-row guard and the seed-item draw fallback fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pac::ac {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;

void expect_bit_identical(std::span<const double> a,
                          std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  // Empty spans may carry null data(), which memcmp must not see.
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// ---- term-level: log_prob_batch vs the scalar log_prob oracle ----

/// Fit one class's parameters over the whole dataset (w = 1) so the batch
/// kernels are exercised at realistic parameter values.
std::vector<double> fit_term_params(const Term& term, std::size_t n) {
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) term.accumulate(i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  return params;
}

/// Batch accumulation into a non-trivial base column, over the whole range
/// and over a partial range written as the middle column of a class-major
/// block, must match per-item scalar accumulation bit-for-bit.
void expect_term_batch_matches_scalar(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    const std::vector<double> params = fit_term_params(term, n);
    std::vector<double> scalar(n), batch(n);
    for (std::size_t i = 0; i < n; ++i)
      scalar[i] = batch[i] = -0.25 * static_cast<double>(i % 7);
    for (std::size_t i = 0; i < n; ++i)
      scalar[i] += term.log_prob(i, params);
    term.log_prob_batch(data::ItemRange{0, n}, params, batch.data());
    expect_bit_identical(batch, scalar);

    // Partial range into column 1 of a J=3 class-major block.
    const data::ItemRange part{n / 4, n - n / 7};
    const std::size_t m = part.size();
    std::vector<double> block(m * 3, 1.0);
    term.log_prob_batch(part, params, block.data() + m);
    for (std::size_t r = 0; r < m; ++r) {
      const double expected = 1.0 + term.log_prob(part.begin + r, params);
      ASSERT_EQ(block[m + r], expected)
          << "term " << t << " item " << part.begin + r;
      ASSERT_EQ(block[r], 1.0);  // neighbouring columns untouched
      ASSERT_EQ(block[2 * m + r], 1.0);
    }
  }
}

TEST(TermKernels, SingleNormalWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(700, 21);
  data::inject_missing(ld.dataset, 0.2, 5);
  expect_term_batch_matches_scalar(Model::default_model(ld.dataset));
}

TEST(TermKernels, SingleMultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 22);
  data::inject_missing(ld.dataset, 0.2, 6);
  expect_term_batch_matches_scalar(Model::default_model(ld.dataset));
  // Missing-as-extra-symbol policy changes the missing branch: cover both.
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_term_batch_matches_scalar(Model::default_model(ld.dataset, config));
}

TEST(TermKernels, MultiNormalBlock) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 23);
  expect_term_batch_matches_scalar(Model::correlated_model(ld.dataset));
}

TEST(TermKernels, SingleLognormalWithMissing) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(24);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_term_batch_matches_scalar(Model(d, {spec}));
}

TEST(TermKernels, IgnoreTermIsANoOp) {
  const data::LabeledDataset ld = data::paper_dataset(100, 25);
  TermSpec normal{TermKind::kSingleNormal, {0}};
  TermSpec ignore{TermKind::kIgnore, {1}};
  const Model model(ld.dataset, {normal, ignore});
  expect_term_batch_matches_scalar(model);
}

// ---- term-level: accumulate_batch vs the scalar accumulate oracle ----

/// Synthetic membership column: varied magnitudes with exact zeros and
/// negatives sprinkled in (the w <= 0 entries the scalar M-step skips).
std::vector<double> synthetic_weights(std::size_t n, std::size_t stride) {
  std::vector<double> w(n * stride, -1.0);  // off-column slots are poison
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.05 + 0.9 * static_cast<double>((i * 37) % 101) / 101.0;
    if (i % 5 == 0) v = 0.0;          // skipped
    if (i % 11 == 3) v = -0.25;       // skipped
    if (i % 7 == 2) v = 1e-12;        // kept: tiny but positive
    w[i * stride] = v;
  }
  return w;
}

/// Batched accumulation over a partial range and a strided (J=3 column)
/// weight layout must match the per-item scalar chain bit-for-bit,
/// including the w <= 0 skips.
void expect_term_accumulate_matches_scalar(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  const data::ItemRange part{n / 5, n - n / 9};
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<double> w = synthetic_weights(n, stride);
      // Non-zero base stats so additions (not overwrites) are checked.
      std::vector<double> scalar(term.stats_size(), 0.125);
      std::vector<double> batch = scalar;
      for (std::size_t i = part.begin; i < part.end; ++i) {
        const double wi = w[(i - part.begin) * stride];
        if (wi <= 0.0) continue;
        term.accumulate(i, wi, scalar);
      }
      term.accumulate_batch(part, w.data(), stride, batch);
      expect_bit_identical(batch, scalar);
    }
  }
}

TEST(TermMStepKernels, SingleNormalWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(700, 21);
  data::inject_missing(ld.dataset, 0.2, 5);
  expect_term_accumulate_matches_scalar(Model::default_model(ld.dataset));
}

TEST(TermMStepKernels, SingleMultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 22);
  data::inject_missing(ld.dataset, 0.2, 6);
  expect_term_accumulate_matches_scalar(Model::default_model(ld.dataset));
  // Missing-as-extra-symbol redirects missing items to the extra count
  // slot instead of skipping them: cover both policies.
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_term_accumulate_matches_scalar(
      Model::default_model(ld.dataset, config));
}

TEST(TermMStepKernels, MultiNormalBlock) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 23);
  expect_term_accumulate_matches_scalar(Model::correlated_model(ld.dataset));
}

TEST(TermMStepKernels, SingleLognormalWithMissing) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(24);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_term_accumulate_matches_scalar(Model(d, {spec}));
}

TEST(TermMStepKernels, IgnoreTermIsANoOp) {
  const data::LabeledDataset ld = data::paper_dataset(100, 25);
  TermSpec normal{TermKind::kSingleNormal, {0}};
  TermSpec ignore{TermKind::kIgnore, {1}};
  expect_term_accumulate_matches_scalar(Model(ld.dataset, {normal, ignore}));
}

// ---- EM-level: blocked update_wts vs the scalar oracle ----

/// Run `cycles` M/E cycles twice over the same init — once through the
/// batch kernels, once through the scalar oracle — and require bit-equal
/// weight matrices, class weights, and log-likelihoods at every step.
void expect_estep_bit_equal(const Model& model, std::size_t j,
                            std::uint64_t seed, int cycles = 3) {
  const data::ItemRange all{0, model.dataset().num_items()};
  Reducer ra, rb;
  EmWorker a(model, all, ra);
  EmWorker b(model, all, rb);
  Classification ca(model, j), cb(model, j);
  a.random_init(ca, seed, 0, EmConfig{});
  b.random_init(cb, seed, 0, EmConfig{});
  expect_bit_identical(a.local_weights(), b.local_weights());
  for (int cycle = 0; cycle < cycles; ++cycle) {
    a.update_parameters(ca);
    b.update_parameters(cb);
    const double la = a.update_wts(ca);
    const double lb = b.update_wts_scalar(cb);
    ASSERT_EQ(la, lb) << "cycle " << cycle;
    expect_bit_identical(a.local_weights(), b.local_weights());
    for (std::size_t k = 0; k < j; ++k)
      ASSERT_EQ(ca.weight(k), cb.weight(k)) << "cycle " << cycle;
  }
}

TEST(UpdateWtsKernel, GaussianWithMissingBitEqualsScalar) {
  data::LabeledDataset ld = data::paper_dataset(1100, 26);
  data::inject_missing(ld.dataset, 0.15, 7);
  expect_estep_bit_equal(Model::default_model(ld.dataset), 4, 101);
}

TEST(UpdateWtsKernel, MultinomialWithMissingBitEqualsScalar) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 900, 27);
  data::inject_missing(ld.dataset, 0.1, 8);
  expect_estep_bit_equal(Model::default_model(ld.dataset), 3, 102);
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_estep_bit_equal(Model::default_model(ld.dataset, config), 3, 102);
}

TEST(UpdateWtsKernel, MultiNormalBitEqualsScalar) {
  const double r = 0.9;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {0.0, 5.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 800, 28);
  expect_estep_bit_equal(Model::correlated_model(ld.dataset), 3, 103);
}

TEST(UpdateWtsKernel, LognormalWithMissingBitEqualsScalar) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 777);
  Xoshiro256ss rng(29);
  for (std::size_t i = 0; i < 777; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 3; i < 777; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_estep_bit_equal(Model(d, {spec}), 3, 104);
}

TEST(UpdateWtsKernel, MixedModelWithIgnoreBitEqualsScalar) {
  // All five families in one model: normal, multinomial, and an ignored
  // attribute, over mixed-type data with missing entries.
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 1000, 31);
  data::inject_missing(ld.dataset, 0.1, 9);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_estep_bit_equal(Model(ld.dataset, std::move(specs)), 3, 105);
}

TEST(UpdateWtsKernel, PartitionedRanksBitEqualScalarRanks) {
  // The per-rank partition boundaries must not disturb equality: compare a
  // 3-rank kernel E-step against 3-rank scalar E-steps block by block.
  data::LabeledDataset ld = data::paper_dataset(1000, 35);
  data::inject_missing(ld.dataset, 0.1, 12);
  const Model model = Model::default_model(ld.dataset);
  for (int rank = 0; rank < 3; ++rank) {
    const data::ItemRange part = data::block_partition(1000, 3, rank);
    Reducer ra, rb;
    EmWorker a(model, part, ra);
    EmWorker b(model, part, rb);
    Classification ca(model, 4), cb(model, 4);
    a.random_init(ca, 7, 0, EmConfig{});
    b.random_init(cb, 7, 0, EmConfig{});
    a.update_parameters(ca);
    b.update_parameters(cb);
    a.update_wts(ca);
    b.update_wts_scalar(cb);
    expect_bit_identical(a.local_weights(), b.local_weights());
  }
}

// ---- EM-level: blocked update_parameters vs the scalar oracle ----

/// Run `cycles` full cycles twice over the same init — once through the
/// accumulate_batch kernels, once through the per-item scalar chain — and
/// require bit-equal statistics, parameters, and E-step results every step.
void expect_mstep_bit_equal(const Model& model, std::size_t j,
                            std::uint64_t seed, int cycles = 3) {
  const data::ItemRange all{0, model.dataset().num_items()};
  Reducer ra, rb;
  EmWorker a(model, all, ra);
  EmWorker b(model, all, rb);
  Classification ca(model, j), cb(model, j);
  a.random_init(ca, seed, 0, EmConfig{});
  b.random_init(cb, seed, 0, EmConfig{});
  for (int cycle = 0; cycle < cycles; ++cycle) {
    a.update_parameters(ca);
    b.update_parameters_scalar(cb);
    expect_bit_identical(a.statistics(), b.statistics());
    expect_bit_identical(ca.all_params(), cb.all_params());
    const double la = a.update_wts(ca);
    const double lb = b.update_wts(cb);
    ASSERT_EQ(la, lb) << "cycle " << cycle;
    expect_bit_identical(a.local_weights(), b.local_weights());
  }
}

TEST(UpdateParamsKernel, GaussianWithMissingBitEqualsScalar) {
  data::LabeledDataset ld = data::paper_dataset(1100, 26);
  data::inject_missing(ld.dataset, 0.15, 7);
  expect_mstep_bit_equal(Model::default_model(ld.dataset), 4, 101);
}

TEST(UpdateParamsKernel, MultinomialWithMissingBitEqualsScalar) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 900, 27);
  data::inject_missing(ld.dataset, 0.1, 8);
  expect_mstep_bit_equal(Model::default_model(ld.dataset), 3, 102);
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_mstep_bit_equal(Model::default_model(ld.dataset, config), 3, 102);
}

TEST(UpdateParamsKernel, MultiNormalBitEqualsScalar) {
  const double r = 0.9;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {0.0, 5.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 800, 28);
  expect_mstep_bit_equal(Model::correlated_model(ld.dataset), 3, 103);
}

TEST(UpdateParamsKernel, LognormalWithMissingBitEqualsScalar) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 777);
  Xoshiro256ss rng(29);
  for (std::size_t i = 0; i < 777; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 3; i < 777; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_mstep_bit_equal(Model(d, {spec}), 3, 104);
}

TEST(UpdateParamsKernel, MixedModelWithIgnoreBitEqualsScalar) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 1000, 31);
  data::inject_missing(ld.dataset, 0.1, 9);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_mstep_bit_equal(Model(ld.dataset, std::move(specs)), 3, 105);
}

TEST(UpdateParamsKernel, PartitionedRanksBitEqualScalarRanks) {
  // Per-rank partition boundaries must not disturb M-step equality either.
  data::LabeledDataset ld = data::paper_dataset(1000, 35);
  data::inject_missing(ld.dataset, 0.1, 12);
  const Model model = Model::default_model(ld.dataset);
  for (int rank = 0; rank < 3; ++rank) {
    const data::ItemRange part = data::block_partition(1000, 3, rank);
    Reducer ra, rb;
    EmWorker a(model, part, ra);
    EmWorker b(model, part, rb);
    Classification ca(model, 4), cb(model, 4);
    a.random_init(ca, 7, 0, EmConfig{});
    b.random_init(cb, 7, 0, EmConfig{});
    a.update_parameters(ca);
    b.update_parameters_scalar(cb);
    expect_bit_identical(a.statistics(), b.statistics());
    expect_bit_identical(ca.all_params(), cb.all_params());
  }
}

// ---- thread-count invariance ----

/// One converged run at a given thread count, reduced to its observable
/// outputs: final weights matrix, parameters, scores, and hard labels.
struct ThreadRun {
  std::vector<double> weights;
  std::vector<double> params;
  std::vector<double> class_weights;
  double log_likelihood = 0.0;
  double cs_score = 0.0;
  double bic_score = 0.0;
  std::vector<std::int32_t> labels;
};

ThreadRun run_with_config(const Model& model, std::size_t j,
                          std::uint64_t seed, EmConfig config) {
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, model.dataset().num_items()},
                  identity);
  Classification c(model, j);
  worker.random_init(c, seed, 0, config);
  worker.converge(c, config);
  ThreadRun run;
  const std::span<const double> w = worker.local_weights();
  run.weights.assign(w.begin(), w.end());
  const std::span<const double> p = c.all_params();
  run.params.assign(p.begin(), p.end());
  for (std::size_t k = 0; k < c.num_classes(); ++k)
    run.class_weights.push_back(c.weight(k));
  run.log_likelihood = c.log_likelihood;
  run.cs_score = c.cs_score;
  run.bic_score = c.bic_score;
  run.labels = assign_labels(c);
  return run;
}

ThreadRun run_with_threads(const Model& model, std::size_t j,
                           std::uint64_t seed, int threads) {
  EmConfig config;
  config.threads = threads;
  config.max_cycles = 25;
  return run_with_config(model, j, seed, config);
}

/// Converged EM trajectories must be bit-identical at 1, 2, and 4 threads:
/// the block-ordered partial fold makes every value a pure function of the
/// block size, not of the thread count (DESIGN.md §5).
void expect_thread_invariant(const Model& model, std::size_t j,
                             std::uint64_t seed) {
  const ThreadRun one = run_with_threads(model, j, seed, 1);
  for (const int threads : {2, 4}) {
    const ThreadRun t = run_with_threads(model, j, seed, threads);
    expect_bit_identical(t.weights, one.weights);
    expect_bit_identical(t.params, one.params);
    expect_bit_identical(t.class_weights, one.class_weights);
    ASSERT_EQ(t.log_likelihood, one.log_likelihood) << threads << " threads";
    ASSERT_EQ(t.cs_score, one.cs_score) << threads << " threads";
    ASSERT_EQ(t.bic_score, one.bic_score) << threads << " threads";
    ASSERT_EQ(t.labels, one.labels) << threads << " threads";
  }
}

TEST(ThreadInvariance, GaussianWithMissing) {
  data::LabeledDataset ld = data::paper_dataset(900, 41);
  data::inject_missing(ld.dataset, 0.15, 14);
  expect_thread_invariant(Model::default_model(ld.dataset), 4, 201);
}

TEST(ThreadInvariance, MultinomialWithMissing) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.4, {{0.8, 0.1, 0.1}, {0.9, 0.1}}},
      {0.6, {{0.1, 0.1, 0.8}, {0.2, 0.8}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 800, 42);
  data::inject_missing(ld.dataset, 0.1, 15);
  expect_thread_invariant(Model::default_model(ld.dataset), 3, 202);
}

TEST(ThreadInvariance, MultiNormal) {
  const double r = 0.85;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {4.0, 2.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 700, 43);
  expect_thread_invariant(Model::correlated_model(ld.dataset), 3, 203);
}

TEST(ThreadInvariance, LognormalWithMissing) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 650);
  Xoshiro256ss rng(44);
  for (std::size_t i = 0; i < 650; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 2; i < 650; i += 13) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_thread_invariant(Model(d, {spec}), 3, 204);
}

TEST(ThreadInvariance, MixedModelWithIgnore) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
  mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
  data::LabeledDataset ld = data::mixed_mixture(mix, 850, 45);
  data::inject_missing(ld.dataset, 0.1, 16);
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  expect_thread_invariant(Model(ld.dataset, std::move(specs)), 3, 205);
}

TEST(ThreadInvariance, EnvVariableMatchesExplicitConfig) {
  // EmConfig::threads = 0 reads PAC_EM_THREADS; the trajectory must match
  // the same count requested explicitly.
  data::LabeledDataset ld = data::paper_dataset(500, 46);
  const Model model = Model::default_model(ld.dataset);
  const ThreadRun explicit_two = run_with_threads(model, 3, 206, 2);
  setenv("PAC_EM_THREADS", "2", 1);
  const ThreadRun via_env = run_with_threads(model, 3, 206, 0);
  unsetenv("PAC_EM_THREADS");
  expect_bit_identical(via_env.weights, explicit_two.weights);
  expect_bit_identical(via_env.params, explicit_two.params);
  ASSERT_EQ(via_env.cs_score, explicit_two.cs_score);
}

TEST(ThreadInvariance, ScalarOraclesAreAlsoThreadInvariant) {
  // The scalar E/M oracles share the blocked drivers, so they too must be
  // invariant — otherwise the equality tests would only hold at 1 thread.
  data::LabeledDataset ld = data::paper_dataset(600, 47);
  data::inject_missing(ld.dataset, 0.1, 17);
  const Model model = Model::default_model(ld.dataset);
  const data::ItemRange all{0, 600};
  std::vector<std::vector<double>> weights;
  std::vector<double> loglikes;
  for (const int threads : {1, 4}) {
    Reducer identity;
    EmWorker worker(model, all, identity);
    Classification c(model, 3);
    EmConfig config;
    config.threads = threads;
    worker.random_init(c, 207, 0, config);
    worker.update_parameters_scalar(c);
    loglikes.push_back(worker.update_wts_scalar(c));
    const std::span<const double> w = worker.local_weights();
    weights.emplace_back(w.begin(), w.end());
  }
  ASSERT_EQ(loglikes[0], loglikes[1]);
  expect_bit_identical(weights[0], weights[1]);
}

TEST(ThreadInvariance, DegenerateRowErrorIsDeterministic) {
  // Two degenerate items in different blocks: every thread count must
  // report the *lowest-indexed* one (block-ordered error fold).
  const std::size_t n = 600;  // > 2 blocks of 256
  Dataset d(Schema({Attribute::discrete("s", 2)}), n);
  for (std::size_t i = 0; i < n; ++i)
    d.set_discrete(i, 0, (i == 300 || i == 580) ? 1 : 0);
  const Model model = Model::default_model(d);
  const double inf = std::numeric_limits<double>::infinity();
  for (const int threads : {1, 2, 4}) {
    Reducer identity;
    EmWorker worker(model, data::ItemRange{0, n}, identity);
    Classification c(model, 2);
    EmConfig config;
    config.threads = threads;
    worker.random_init(c, 3, 0, config);
    worker.update_parameters(c);
    for (std::size_t k = 0; k < 2; ++k) c.param_block(k, 0)[1] = -inf;
    try {
      worker.update_wts(c);
      FAIL() << "expected DegenerateRowError at " << threads << " threads";
    } catch (const DegenerateRowError& e) {
      EXPECT_EQ(e.item, 300u) << threads << " threads";
    }
  }
}

// ---- report paths routed through the kernels ----

TEST(ReportKernels, MembershipMatchesScalarJoint) {
  const data::LabeledDataset ld = data::paper_dataset(300, 36);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 300}, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 47, 0, config);
  worker.converge(c, config);
  for (std::size_t i = 0; i < 300; i += 13) {
    // Scalar joint row, normalized exactly as report.cpp does.
    std::vector<double> row(3);
    for (std::size_t k = 0; k < 3; ++k) {
      double lp = c.log_pi(k);
      for (std::size_t t = 0; t < model.num_terms(); ++t)
        lp += model.term(t).log_prob(i, c.param_block(k, t));
      row[k] = lp;
    }
    const double lse = logsumexp(row);
    for (double& v : row) v = pac::exp(v - lse);
    const auto m = membership(c, i);
    expect_bit_identical(m, row);
  }
}

TEST(ReportKernels, EStepWeightsEqualMembership) {
  // The E-step's lane normalizer and membership()'s per-row logsumexp are
  // two evaluations of one oracle: after converge, every local weight row
  // is the membership of its item under the final parameters, bit for bit.
  data::LabeledDataset ld = data::paper_dataset(700, 38);
  data::inject_missing(ld.dataset, 0.1, 14);
  const Model model = Model::default_model(ld.dataset);
  for (const std::size_t j : {std::size_t{1}, std::size_t{3},
                              std::size_t{5}}) {
    Reducer identity;
    EmWorker worker(model, data::ItemRange{0, 700}, identity);
    Classification c(model, j);
    EmConfig config;
    config.max_cycles = 6;
    worker.random_init(c, 53, 0, config);
    worker.converge(c, config);
    const std::span<const double> w = worker.local_weights();
    for (std::size_t i = 0; i < 700; ++i)
      expect_bit_identical(membership(c, i), w.subspan(i * j, j));
  }
}

TEST(ReportKernels, AssignLabelsMatchesPerItemMembership) {
  const data::LabeledDataset ld = data::paper_dataset(600, 37);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 600}, identity);
  Classification c(model, 4);
  EmConfig config;
  worker.random_init(c, 49, 0, config);
  worker.converge(c, config);
  const auto labels = assign_labels(c);
  ASSERT_EQ(labels.size(), 600u);
  for (std::size_t i = 0; i < 600; i += 29) {
    const auto m = membership(c, i);
    const auto best = static_cast<std::int32_t>(
        std::max_element(m.begin(), m.end()) - m.begin());
    EXPECT_EQ(labels[i], best) << "item " << i;
  }
}

// ---- degenerate-row guard ----

TEST(DegenerateRow, AllInfRowRaisesTypedErrorNamingItem) {
  Dataset d(Schema({Attribute::discrete("s", 2)}), 6);
  for (std::size_t i = 0; i < 6; ++i)
    d.set_discrete(i, 0, i == 4 ? 1 : 0);
  const Model model = Model::default_model(d);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 6}, identity);
  Classification c(model, 2);
  worker.random_init(c, 3, 0, EmConfig{});
  worker.update_parameters(c);
  // Zero-support symbol: both classes rule out symbol 1, so item 4's row
  // is -inf under every class.
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < 2; ++k) c.param_block(k, 0)[1] = -inf;
  try {
    worker.update_wts(c);
    FAIL() << "expected DegenerateRowError";
  } catch (const DegenerateRowError& e) {
    EXPECT_EQ(e.item, 4u);
    EXPECT_EQ(e.num_classes, 2u);
    EXPECT_NE(std::string(e.what()).find("item 4"), std::string::npos);
  }
  // The scalar oracle guards identically.
  EXPECT_THROW(worker.update_wts_scalar(c), DegenerateRowError);
}

TEST(DegenerateRow, FiniteRowsStillConverge) {
  // The guard must not fire on ordinary data (including missing values).
  data::LabeledDataset ld = data::paper_dataset(400, 39);
  data::inject_missing(ld.dataset, 0.2, 13);
  const Model model = Model::default_model(ld.dataset);
  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 400}, identity);
  Classification c(model, 3);
  EmConfig config;
  worker.random_init(c, 51, 0, config);
  EXPECT_NO_THROW(worker.converge(c, config));
}

// ---- seed-item draw fallback ----

TEST(SeedDraws, DefaultBudgetDistinctWhenPossible) {
  const CounterRng rng(123);
  for (std::uint64_t try_index = 0; try_index < 8; ++try_index) {
    const auto seeds = detail::draw_seed_items(rng, 16, 16, try_index);
    ASSERT_EQ(seeds.size(), 16u);
    const std::set<std::size_t> unique(seeds.begin(), seeds.end());
    // j == n: every item must be picked exactly once — the old fallback
    // pushed duplicates here and produced zero-separation classes.
    EXPECT_EQ(unique.size(), 16u) << "try " << try_index;
  }
}

TEST(SeedDraws, TinyPrimaryBudgetForcesDistinctFallback) {
  const CounterRng rng(7);
  // A budget of 1 draw forces the widened-stream fallback almost every
  // collision; seeds must still be distinct and in range.
  const auto seeds = detail::draw_seed_items(rng, 10, 10, 0, 1);
  ASSERT_EQ(seeds.size(), 10u);
  std::set<std::size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const std::size_t s : seeds) EXPECT_LT(s, 10u);
}

TEST(SeedDraws, DeterministicAcrossCalls) {
  const CounterRng rng(99);
  const auto a = detail::draw_seed_items(rng, 50, 12, 3, 2);
  const auto b = detail::draw_seed_items(rng, 50, 12, 3, 2);
  EXPECT_EQ(a, b);
  // Different tries draw from different streams.
  const auto c = detail::draw_seed_items(rng, 50, 12, 4, 2);
  EXPECT_NE(a, c);
}

TEST(SeedDraws, MoreClassesThanItemsStillTerminates) {
  const CounterRng rng(5);
  const auto seeds = detail::draw_seed_items(rng, 3, 9, 0);
  ASSERT_EQ(seeds.size(), 9u);
  const std::set<std::size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);  // every item used before duplicates
  for (const std::size_t s : seeds) EXPECT_LT(s, 3u);
}

TEST(SeedDraws, CommonCaseMatchesHistoricalPrimaryStream) {
  // Collision-free draws must still come from the primary stream with the
  // historical (stream, index, counter) coordinates, so pre-fix EM
  // trajectories are preserved.
  const std::size_t n = 100000;
  const CounterRng rng(2024);
  const auto seeds = detail::draw_seed_items(rng, n, 4, 2);
  std::vector<std::size_t> expected;
  std::uint64_t draw = 0;
  while (expected.size() < 4) {
    const auto candidate = std::min(
        n - 1,
        static_cast<std::size_t>(
            rng.uniform(0x1A17 + 2, expected.size(), draw) *
            static_cast<double>(n)));
    ++draw;
    if (std::find(expected.begin(), expected.end(), candidate) ==
        expected.end())
      expected.push_back(candidate);
  }
  EXPECT_EQ(seeds, expected);
}

// ---- SIMD dispatch plumbing ----

TEST(SimdDispatch, EnvValueParsing) {
  // level() caches its PAC_SIMD resolution on first use, so the env policy
  // is tested through the pure parser the resolver calls.
  EXPECT_TRUE(simd::detail::env_value_enables(nullptr));
  EXPECT_TRUE(simd::detail::env_value_enables(""));
  EXPECT_TRUE(simd::detail::env_value_enables("1"));
  EXPECT_TRUE(simd::detail::env_value_enables("avx2"));
  EXPECT_FALSE(simd::detail::env_value_enables("0"));
  EXPECT_FALSE(simd::detail::env_value_enables("off"));
  EXPECT_FALSE(simd::detail::env_value_enables("OFF"));
  EXPECT_FALSE(simd::detail::env_value_enables("scalar"));
  EXPECT_FALSE(simd::detail::env_value_enables("false"));
  EXPECT_FALSE(simd::detail::env_value_enables("no"));
}

TEST(SimdDispatch, ScopedForceLevelClampsAndRestores) {
  const simd::Level ambient = simd::level();
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    EXPECT_EQ(scalar.effective(), simd::Level::kScalar);
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
    EXPECT_FALSE(simd::active());
    {
      // Nested non-scalar requests clamp to what the host supports.
      simd::ScopedForceLevel vec(simd::Level::kAvx2);
      EXPECT_EQ(vec.effective(), simd::detected_level());
      EXPECT_EQ(simd::level(), simd::detected_level());
    }
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::level(), ambient);
}

TEST(SimdDispatch, DescribeNamesTheActiveLevel) {
  simd::ScopedForceLevel scalar(simd::Level::kScalar);
  EXPECT_NE(std::string(simd::describe()).find("dispatch=scalar"),
            std::string::npos);
}

// ---- SIMD kernels vs the scalar oracle (default tier: memcmp) ----

/// All five term families over mixed data with missing values — the model
/// the per-family SIMD suites share.
Model mixed_five_family_model(data::LabeledDataset& ld) {
  std::vector<TermSpec> specs = {
      {TermKind::kSingleNormal, {0}},
      {TermKind::kIgnore, {1}},
      {TermKind::kSingleMultinomial, {2}},
  };
  return Model(ld.dataset, std::move(specs));
}

/// Per-family kernel outputs must be memcmp-equal between the forced-scalar
/// tier and the host's best vector tier.  Runs the term batch oracles under
/// both forced levels; on scalar-only hosts the two runs coincide and the
/// test degenerates to the plain kernel-equality check.
void expect_simd_matches_forced_scalar(const Model& model) {
  {
    simd::ScopedForceLevel vec(simd::Level::kAvx2);  // clamps to detected
    expect_term_batch_matches_scalar(model);
    expect_term_accumulate_matches_scalar(model);
  }
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    expect_term_batch_matches_scalar(model);
    expect_term_accumulate_matches_scalar(model);
  }
}

TEST(SimdKernels, GaussianWithMissingMatchesOracleAtBothLevels) {
  data::LabeledDataset ld = data::paper_dataset(700, 61);
  data::inject_missing(ld.dataset, 0.2, 18);
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset));
}

TEST(SimdKernels, MultinomialWithMissingMatchesOracleAtBothLevels) {
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 600, 62);
  data::inject_missing(ld.dataset, 0.2, 19);
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset));
  ModelConfig config;
  config.missing_as_extra_value = true;
  expect_simd_matches_forced_scalar(Model::default_model(ld.dataset, config));
}

TEST(SimdKernels, MultiNormalMatchesOracleAtBothLevels) {
  const double r = 0.8;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {3.0, 1.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 500, 63);
  expect_simd_matches_forced_scalar(Model::correlated_model(ld.dataset));
}

TEST(SimdKernels, LognormalWithMissingMatchesOracleAtBothLevels) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 400);
  Xoshiro256ss rng(64);
  for (std::size_t i = 0; i < 400; ++i)
    d.set_real(i, 0, std::exp(0.5 + 0.8 * normal01(rng)));
  for (std::size_t i = 0; i < 400; i += 9) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_simd_matches_forced_scalar(Model(d, {spec}));
}

TEST(SimdKernels, FullEmBitEqualAcrossLevels) {
  // A converged EM run must be bit-identical with the vector kernels forced
  // on and forced off — the whole-trajectory form of the memcmp contract.
  data::LabeledDataset ld = data::mixed_mixture(
      [] {
        std::vector<data::MixedComponent> mix(2);
        mix[0] = {0.6, {0.0, 1.0}, {1.0, 0.5}, {{0.9, 0.1}}};
        mix[1] = {0.4, {6.0, -1.0}, {1.0, 0.5}, {{0.1, 0.9}}};
        return mix;
      }(),
      900, 65);
  data::inject_missing(ld.dataset, 0.1, 20);
  const Model model = mixed_five_family_model(ld);
  EmConfig config;
  config.max_cycles = 10;
  ThreadRun vec_run, scalar_run;
  {
    simd::ScopedForceLevel vec(simd::Level::kAvx2);
    vec_run = run_with_config(model, 3, 301, config);
  }
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    scalar_run = run_with_config(model, 3, 301, config);
  }
  expect_bit_identical(vec_run.weights, scalar_run.weights);
  expect_bit_identical(vec_run.params, scalar_run.params);
  expect_bit_identical(vec_run.class_weights, scalar_run.class_weights);
  ASSERT_EQ(vec_run.log_likelihood, scalar_run.log_likelihood);
  ASSERT_EQ(vec_run.cs_score, scalar_run.cs_score);
  ASSERT_EQ(vec_run.labels, scalar_run.labels);
}

TEST(SimdKernels, ThreadInvariantWithVectorKernelsForced) {
  // {1, 2, 4} threads under the vector tier: the block-ordered fold and the
  // per-lane bit-identity compose, so the trajectories still memcmp-match.
  simd::ScopedForceLevel vec(simd::Level::kAvx2);
  data::LabeledDataset ld = data::paper_dataset(900, 66);
  data::inject_missing(ld.dataset, 0.15, 21);
  expect_thread_invariant(Model::default_model(ld.dataset), 4, 302);
}

// ---- fast-math tier: tolerance oracle ----

/// Relative-error check for the tolerance tier: every slot must agree with
/// the oracle to `rel` (relative to the larger magnitude, floored at 1).
void expect_close(std::span<const double> a, std::span<const double> b,
                  double rel) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom =
        std::max({std::abs(a[i]), std::abs(b[i]), 1.0});
    ASSERT_LE(std::abs(a[i] - b[i]), rel * denom) << "slot " << i;
  }
}

/// Per-family error bound: the reassociated fold differs from the in-order
/// oracle only by summation order over <= a few thousand items, so the
/// relative error stays within a few ulps times log2(n).
void expect_fast_accumulate_within_tolerance(const Model& model, double rel) {
  const std::size_t n = model.dataset().num_items();
  const data::ItemRange all{0, n};
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    if (term.stats_size() == 0) continue;
    const std::vector<double> w = synthetic_weights(n, 3);
    std::vector<double> exact(term.stats_size(), 0.125);
    std::vector<double> fast = exact;
    term.accumulate_batch(all, w.data(), 3, exact);
    term.accumulate_batch_fast(all, w.data(), 3, fast);
    expect_close(fast, exact, rel);
  }
}

TEST(FastMathKernels, GaussianAccumulateWithinTolerance) {
  data::LabeledDataset ld = data::paper_dataset(1100, 71);
  data::inject_missing(ld.dataset, 0.15, 22);
  expect_fast_accumulate_within_tolerance(Model::default_model(ld.dataset),
                                          1e-12);
}

TEST(FastMathKernels, LognormalAccumulateWithinTolerance) {
  Dataset d(Schema({Attribute::real("mass", 0.01)}), 800);
  Xoshiro256ss rng(72);
  for (std::size_t i = 0; i < 800; ++i)
    d.set_real(i, 0, std::exp(1.0 + 0.5 * normal01(rng)));
  for (std::size_t i = 3; i < 800; i += 11) d.set_missing(i, 0);
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  expect_fast_accumulate_within_tolerance(Model(d, {spec}), 1e-12);
}

TEST(FastMathKernels, MultiNormalAccumulateWithinTolerance) {
  const double r = 0.85;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {4.0, 2.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 900, 73);
  expect_fast_accumulate_within_tolerance(Model::correlated_model(ld.dataset),
                                          1e-11);
}

TEST(FastMathKernels, MultinomialFastFoldIsExact) {
  // No fast kernel for the bincount family: accumulate_batch_fast must
  // defer to the bit-identical batch kernel.
  const std::vector<data::CategoricalComponent> mix = {
      {0.5, {{0.7, 0.2, 0.1}, {0.6, 0.4}}},
      {0.5, {{0.1, 0.2, 0.7}, {0.3, 0.7}}},
  };
  data::LabeledDataset ld = data::categorical_mixture(mix, 700, 74);
  data::inject_missing(ld.dataset, 0.2, 23);
  const Model model = Model::default_model(ld.dataset);
  const std::size_t n = ld.dataset.num_items();
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    const std::vector<double> w = synthetic_weights(n, 1);
    std::vector<double> exact(term.stats_size(), 0.0);
    std::vector<double> fast = exact;
    term.accumulate_batch(data::ItemRange{0, n}, w.data(), 1, exact);
    term.accumulate_batch_fast(data::ItemRange{0, n}, w.data(), 1, fast);
    expect_bit_identical(fast, exact);
  }
}

/// The fast tier's association is fixed by contract, not by the ISA: the
/// AVX2 and portable folds must agree bit-for-bit, not just to tolerance.
void expect_fast_fold_level_invariant(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const Term& term = model.term(t);
    if (term.stats_size() == 0) continue;
    const std::vector<double> w = synthetic_weights(n, 3);
    std::vector<double> vec_stats(term.stats_size(), 0.125);
    std::vector<double> portable_stats = vec_stats;
    {
      simd::ScopedForceLevel vec(simd::Level::kAvx2);
      term.accumulate_batch_fast(data::ItemRange{0, n}, w.data(), 3,
                                 vec_stats);
    }
    {
      simd::ScopedForceLevel scalar(simd::Level::kScalar);
      term.accumulate_batch_fast(data::ItemRange{0, n}, w.data(), 3,
                                 portable_stats);
    }
    expect_bit_identical(vec_stats, portable_stats);
  }
}

TEST(FastMathKernels, FastFoldIsDispatchLevelInvariant) {
  data::LabeledDataset ld = data::paper_dataset(1000, 75);
  data::inject_missing(ld.dataset, 0.1, 24);
  expect_fast_fold_level_invariant(Model::default_model(ld.dataset));
  const double r = 0.7;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {2.0, 2.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset cld = data::correlated_mixture(mix, 1000, 76);
  expect_fast_fold_level_invariant(Model::correlated_model(cld.dataset));
}

TEST(FastMathKernels, ResolveFastMathPolicy) {
  EXPECT_TRUE(resolve_fast_math(1));
  EXPECT_FALSE(resolve_fast_math(-1));
  unsetenv("PAC_FAST_MATH");
  EXPECT_FALSE(resolve_fast_math(0));
  setenv("PAC_FAST_MATH", "1", 1);
  EXPECT_TRUE(resolve_fast_math(0));
  setenv("PAC_FAST_MATH", "on", 1);
  EXPECT_TRUE(resolve_fast_math(0));
  setenv("PAC_FAST_MATH", "0", 1);
  EXPECT_FALSE(resolve_fast_math(0));
  setenv("PAC_FAST_MATH", "off", 1);
  EXPECT_FALSE(resolve_fast_math(0));
  unsetenv("PAC_FAST_MATH");
}

// ---- fast-math tier: full-EM trajectory tolerance and determinism ----

ThreadRun run_fast_math(const Model& model, std::size_t j, std::uint64_t seed,
                        int threads, int fast_math, int cycles = 8) {
  EmConfig config;
  config.threads = threads;
  config.fast_math = fast_math;
  config.max_cycles = cycles;
  return run_with_config(model, j, seed, config);
}

TEST(FastMathEm, TrajectoryWithinToleranceOfExactTier) {
  data::LabeledDataset ld = data::paper_dataset(1000, 81);
  data::inject_missing(ld.dataset, 0.1, 25);
  const Model model = Model::default_model(ld.dataset);
  const ThreadRun exact = run_fast_math(model, 4, 401, 1, -1);
  const ThreadRun fast = run_fast_math(model, 4, 401, 1, 1);
  // A fixed modest cycle count keeps the comparison on the same EM path;
  // the reassociation error itself is ~1e-15 per fold and grows mildly.
  expect_close(fast.params, exact.params, 1e-7);
  expect_close(fast.class_weights, exact.class_weights, 1e-7);
  ASSERT_LE(std::abs(fast.log_likelihood - exact.log_likelihood),
            1e-7 * std::max(1.0, std::abs(exact.log_likelihood)));
  ASSERT_LE(std::abs(fast.cs_score - exact.cs_score),
            1e-7 * std::max(1.0, std::abs(exact.cs_score)));
  EXPECT_EQ(fast.labels, exact.labels);
}

TEST(FastMathEm, MultiNormalTrajectoryWithinTolerance) {
  const double r = 0.85;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {4.0, 2.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 800, 82);
  const Model model = Model::correlated_model(ld.dataset);
  const ThreadRun exact = run_fast_math(model, 3, 402, 1, -1);
  const ThreadRun fast = run_fast_math(model, 3, 402, 1, 1);
  expect_close(fast.params, exact.params, 1e-6);
  ASSERT_LE(std::abs(fast.cs_score - exact.cs_score),
            1e-6 * std::max(1.0, std::abs(exact.cs_score)));
  EXPECT_EQ(fast.labels, exact.labels);
}

TEST(FastMathEm, ThreadAndDispatchLevelInvariant) {
  // The fast tier is deterministic: {1, 4} threads x {vector, forced-scalar}
  // dispatch must all produce bit-identical trajectories — only the *exact*
  // tier comparison is a tolerance check.
  data::LabeledDataset ld = data::paper_dataset(900, 83);
  data::inject_missing(ld.dataset, 0.1, 26);
  const Model model = Model::default_model(ld.dataset);
  ThreadRun base;
  {
    simd::ScopedForceLevel vec(simd::Level::kAvx2);
    base = run_fast_math(model, 3, 403, 1, 1);
  }
  for (const int threads : {1, 4}) {
    for (const bool force_scalar : {false, true}) {
      if (threads == 1 && !force_scalar) continue;  // the base run
      const simd::Level request =
          force_scalar ? simd::Level::kScalar : simd::Level::kAvx2;
      simd::ScopedForceLevel guard(request);
      const ThreadRun run = run_fast_math(model, 3, 403, threads, 1);
      expect_bit_identical(run.weights, base.weights);
      expect_bit_identical(run.params, base.params);
      expect_bit_identical(run.class_weights, base.class_weights);
      ASSERT_EQ(run.log_likelihood, base.log_likelihood)
          << threads << " threads, force_scalar=" << force_scalar;
      ASSERT_EQ(run.cs_score, base.cs_score);
    }
  }
}

TEST(FastMathEm, EnvVariableMatchesExplicitConfig) {
  // EmConfig::fast_math = 0 reads PAC_FAST_MATH; the trajectory must match
  // the tier requested explicitly, bit for bit.
  data::LabeledDataset ld = data::paper_dataset(500, 84);
  const Model model = Model::default_model(ld.dataset);
  const ThreadRun explicit_fast = run_fast_math(model, 3, 404, 1, 1);
  setenv("PAC_FAST_MATH", "1", 1);
  const ThreadRun via_env = run_fast_math(model, 3, 404, 1, 0);
  unsetenv("PAC_FAST_MATH");
  expect_bit_identical(via_env.weights, explicit_fast.weights);
  expect_bit_identical(via_env.params, explicit_fast.params);
  ASSERT_EQ(via_env.cs_score, explicit_fast.cs_score);
}

}  // namespace
}  // namespace pac::ac
