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
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/format.hpp"
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

// ---- term-level: the batched kernels vs the scalar oracles ----
//
// Every batched kernel covers all J classes of one item block in one call,
// addressing class k's parameter / statistics block through the model's
// real interleaved strides.  The E-step checks run at J = 3 classes with
// distinct parameters, the M-step checks at every J of kMStepClassCounts
// and at both SIMD levels, over the resident dataset and over a
// chunk-backed copy whose 256-item blocks straddle chunk borders under an
// evicting budget.

constexpr std::size_t kClasses = 3;

/// `model` rebuilt over a chunk-backed copy of its dataset: 193-row chunks,
/// so 256-item blocks straddle chunk borders, under a 4 KiB budget that
/// evicts throughout every pass.  Same specs and config, so the priors are
/// byte-identical to the resident model's.
class ChunkedCopy {
 public:
  explicit ChunkedCopy(const Model& model)
      : path_("/tmp/pac_kernels_" + std::to_string(::getpid()) + "_" +
              std::to_string(next_id_++) + ".pacb") {
    data::format::write_pacb_file(path_, model.dataset(), /*chunk_rows=*/193);
    dataset_ = data::Dataset(data::ChunkedStore::open(path_, 4096));
    std::vector<TermSpec> specs;
    for (std::size_t t = 0; t < model.num_terms(); ++t)
      specs.push_back(model.term(t).spec());
    model_ = std::make_unique<Model>(dataset_, std::move(specs),
                                     model.config());
  }
  ~ChunkedCopy() { std::remove(path_.c_str()); }
  ChunkedCopy(const ChunkedCopy&) = delete;
  ChunkedCopy& operator=(const ChunkedCopy&) = delete;

  const Model& model() const { return *model_; }

 private:
  static inline int next_id_ = 0;
  std::string path_;
  data::Dataset dataset_;
  std::unique_ptr<Model> model_;
};

/// Run `check` on `model` and on its chunk-backed copy.
template <class Check>
void on_both_backends(const Model& model, Check&& check) {
  {
    SCOPED_TRACE("resident");
    check(model);
  }
  const ChunkedCopy chunked(model);
  SCOPED_TRACE("chunked");
  check(chunked.model());
}

/// A J x params_per_class() classification parameter buffer whose classes
/// are fitted on differently weighted items, so every class has distinct
/// parameters at realistic values.
std::vector<double> fit_class_params(const Model& model, std::size_t j) {
  const std::size_t n = model.dataset().num_items();
  std::vector<double> params(j * model.params_per_class(), 0.0);
  for (std::size_t k = 0; k < j; ++k) {
    for (std::size_t t = 0; t < model.num_terms(); ++t) {
      const Term& term = model.term(t);
      std::vector<double> stats(term.stats_size(), 0.0);
      for (std::size_t i = 0; i < n; ++i)
        term.accumulate(i, (i + k) % kClasses == 0 ? 1.0 : 0.125, stats);
      term.update_params(
          stats, std::span<double>(params.data() + k * model.params_per_class() +
                                       model.param_offset(t),
                                   term.param_size()));
    }
  }
  return params;
}

/// Ranges every term-level check covers: the whole dataset, a partial
/// range, and (when the data is long enough) one 256-item E-step block
/// that straddles the chunk borders at 193 and 386 in the chunked copy.
std::vector<data::ItemRange> kernel_ranges(std::size_t n) {
  std::vector<data::ItemRange> ranges = {data::ItemRange{0, n},
                                         data::ItemRange{n / 4, n - n / 7}};
  if (n >= 406) ranges.push_back(data::ItemRange{150, 406});
  return ranges;
}

/// log_prob_batch over all J classes into a non-trivial class-major base
/// block must match per-(item, class) scalar log_prob accumulation
/// bit-for-bit, and must not write past the block.
void expect_term_batch_matches_scalar_on(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  const std::size_t ppc = model.params_per_class();
  const std::vector<double> params = fit_class_params(model, kClasses);
  for (const data::ItemRange range : kernel_ranges(n)) {
    const std::size_t m = range.size();
    for (std::size_t t = 0; t < model.num_terms(); ++t) {
      SCOPED_TRACE(testing::Message() << "term " << t << " range ["
                                      << range.begin << ", " << range.end
                                      << ")");
      const Term& term = model.term(t);
      std::vector<double> scalar(m * kClasses + 1);
      for (std::size_t c = 0; c < scalar.size(); ++c)
        scalar[c] = -0.25 * static_cast<double>(c % 7);
      std::vector<double> batch = scalar;
      for (std::size_t k = 0; k < kClasses; ++k) {
        const std::span<const double> p(
            params.data() + k * ppc + model.param_offset(t),
            term.param_size());
        for (std::size_t r = 0; r < m; ++r)
          scalar[k * m + r] += term.log_prob(range.begin + r, p);
      }
      term.log_prob_batch(range, params.data() + model.param_offset(t), ppc,
                          kClasses, batch.data());
      expect_bit_identical(batch, scalar);  // incl. the guard cell at m * J
    }
  }
}

void expect_term_batch_matches_scalar(const Model& model) {
  on_both_backends(model, [](const Model& m) {
    expect_term_batch_matches_scalar_on(m);
  });
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

/// All five term families over data::five_family_mixture: x0 normal, x1
/// log-normal, x2/x3 a multi-normal block, x4 ignored, d0 multinomial.
std::vector<TermSpec> five_family_terms() {
  return {{TermKind::kSingleNormal, {0}},
          {TermKind::kSingleLognormal, {1}},
          {TermKind::kMultiNormal, {2, 3}},
          {TermKind::kIgnore, {4}},
          {TermKind::kSingleMultinomial, {5}}};
}

TEST(TermKernels, SeedDistanceBatchMatchesScalar) {
  // One seed_distance_batch call per (term, block) accumulates the
  // distances to every gathered seed row into a row-major item x seed
  // buffer; each cell must equal the scalar seed_distance bit for bit, for
  // all five families, with missing values on both the item and the seed
  // side.
  const Dataset ds = data::five_family_mixture(700, 27, 0.08).dataset;
  on_both_backends(Model(ds, five_family_terms()), [](const Model& m) {
    const std::size_t n = m.dataset().num_items();
    // Seeds include, per column that allows missing values, an item
    // missing it, so the seed side of the missing branch is covered too.
    std::vector<std::size_t> seeds = {3, 250, 699};
    for (const std::size_t a : {0, 1, 5}) {
      std::size_t i = 0;
      while (!m.dataset().is_missing(i, a)) ++i;
      seeds.push_back(i);
    }
    // The seed rows as random_init reads them: gathered once, resident.
    const Dataset seed_rows = m.dataset().gather(seeds);
    for (const data::ItemRange range : kernel_ranges(n)) {
      const std::size_t q = seeds.size();
      for (std::size_t t = 0; t < m.num_terms(); ++t) {
        SCOPED_TRACE(testing::Message() << "term " << t);
        const Term& term = m.term(t);
        std::vector<double> scalar(range.size() * q + 1);
        for (std::size_t c = 0; c < scalar.size(); ++c)
          scalar[c] = 0.5 * static_cast<double>(c % 3);
        std::vector<double> batch = scalar;
        for (std::size_t r = 0; r < range.size(); ++r)
          for (std::size_t s = 0; s < q; ++s)
            scalar[r * q + s] +=
                term.seed_distance(range.begin + r, seed_rows, s);
        term.seed_distance_batch(range, seed_rows, batch.data());
        expect_bit_identical(batch, scalar);
      }
    }
  });
}

/// Synthetic row-major item x J membership block: varied magnitudes that
/// differ per class, with the entries the scalar M-step skips (exact 0,
/// -0.0, negatives) sprinkled in at class-dependent items, and the ones it
/// keeps at the edges of the number line (subnormals, NaN).  Class 2 is
/// skipped at every item, an emptied class whose -0.0 base slots must
/// survive lanes that are skipped while their neighbours add.
std::vector<double> synthetic_weights(std::size_t n, std::size_t j) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kDenormMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> w(n * j);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < j; ++k) {
      double v = 0.05 + 0.9 * static_cast<double>((i * 37 + k * 53) % 101) /
                            101.0;
      if ((i + k) % 5 == 0) v = 0.0;         // skipped
      if ((i + 3 * k) % 13 == 4) v = -0.0;   // skipped
      if ((i + 2 * k) % 11 == 3) v = -0.25;  // skipped
      if ((i + k) % 7 == 2) v = 1e-12;       // kept: tiny but positive
      if ((i + k) % 17 == 6) v = 1e-310;     // kept: subnormal
      if ((i + 5 * k) % 19 == 8) v = kDenormMin;  // kept: subnormal
      if (k == 2) v = -std::abs(v);          // emptied class: all skipped
      if (i * j + k == n * j / 2 && k != 2) v = kNaN;  // kept: NaN
      w[i * j + k] = v;
    }
  }
  return w;
}

/// Per-class scalar chain into a J x stats_per_class() buffer: for each
/// class, accumulate every item of `range` with w > 0 (or NaN, which
/// `w <= 0` does not skip) into this term's slots, in item order.
void scalar_accumulate(const Model& model, std::size_t t,
                       data::ItemRange range, std::size_t j,
                       const std::vector<double>& w,
                       std::vector<double>& stats) {
  const Term& term = model.term(t);
  const std::size_t spc = model.stats_per_class();
  for (std::size_t k = 0; k < j; ++k) {
    const std::span<double> s(stats.data() + k * spc + model.stats_offset(t),
                              term.stats_size());
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const double wi = w[(i - range.begin) * j + k];
      if (wi <= 0.0) continue;
      term.accumulate(i, wi, s);
    }
  }
}

/// Class counts the term-level M-step checks run at: below, at, and just
/// past one and two full 4-lane vectors, and the search's top J = 16.
constexpr std::size_t kMStepClassCounts[] = {1, 3, 4, 5, 8, 9, 16};

/// accumulate_batch over all J classes, with the real interleaved
/// stats_per_class() stride, must match the per-class scalar chain
/// bit-for-bit — including the skips, -0.0 base slots, and every other
/// term's slots left untouched — at every class count of
/// kMStepClassCounts, so both the full vectors and the scalar remainder
/// of the lanes = classes kernels are reached.
void expect_term_accumulate_matches_scalar_on(const Model& model) {
  const std::size_t n = model.dataset().num_items();
  const std::size_t spc = model.stats_per_class();
  for (const std::size_t j : kMStepClassCounts) {
    for (const data::ItemRange range : kernel_ranges(n)) {
      const std::vector<double> w = synthetic_weights(range.size(), j);
      for (std::size_t t = 0; t < model.num_terms(); ++t) {
        SCOPED_TRACE(testing::Message() << "J " << j << " term " << t
                                        << " range [" << range.begin << ", "
                                        << range.end << ")");
        // Non-zero base stats so additions (not overwrites) are checked,
        // and -0.0 slots, which an added +0.0 would flip to +0.0.
        std::vector<double> scalar(j * spc);
        for (std::size_t c = 0; c < scalar.size(); ++c)
          scalar[c] = c % 3 == 0 ? -0.0 : 0.125 * static_cast<double>(c % 5);
        std::vector<double> batch = scalar;
        scalar_accumulate(model, t, range, j, w, scalar);
        model.term(t).accumulate_batch(range, w.data(), j,
                                       batch.data() + model.stats_offset(t),
                                       spc);
        expect_bit_identical(batch, scalar);
      }
    }
  }
}

/// The term-level M-step check on both backends, with the kernels forced
/// to the portable loop and at the host's detected level.
void expect_term_accumulate_matches_scalar(const Model& model) {
  for (const simd::Level level :
       {simd::Level::kScalar, simd::detected_level()}) {
    const simd::ScopedForceLevel pin(level);
    SCOPED_TRACE(simd::to_string(level));
    on_both_backends(model, [](const Model& m) {
      expect_term_accumulate_matches_scalar_on(m);
    });
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
void expect_mstep_bit_equal_once(const Model& model, std::size_t j,
                                 std::uint64_t seed, int cycles) {
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

/// The comparison once as the environment stands and once with
/// PAC_FAST_MATH=1, which used to select a reassociated M-step fold: no
/// environment variable may change a computed bit.  The caller's setting
/// is restored, so later tests see the environment they were run with.
void expect_mstep_bit_equal(const Model& model, std::size_t j,
                            std::uint64_t seed, int cycles = 3) {
  expect_mstep_bit_equal_once(model, j, seed, cycles);
  const char* prior = std::getenv("PAC_FAST_MATH");
  const std::string saved = prior != nullptr ? prior : "";
  setenv("PAC_FAST_MATH", "1", 1);
  {
    SCOPED_TRACE("PAC_FAST_MATH=1");
    expect_mstep_bit_equal_once(model, j, seed, cycles);
  }
  if (prior != nullptr) {
    setenv("PAC_FAST_MATH", saved.c_str(), 1);
  } else {
    unsetenv("PAC_FAST_MATH");
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

TEST(UpdateParamsKernel, SixteenClassesBitEqualScalar) {
  // The search's top J: four full class vectors per stats slot, for the
  // Gaussian model the search fits and for all five term families.
  data::LabeledDataset ld = data::paper_dataset(1100, 36);
  data::inject_missing(ld.dataset, 0.15, 13);
  expect_mstep_bit_equal(Model::default_model(ld.dataset), 16, 106);
  const Dataset mixed = data::five_family_mixture(900, 37, 0.08).dataset;
  expect_mstep_bit_equal(Model(mixed, five_family_terms()), 16, 107);
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

// ---- one pass per cycle: whoever writes the weights writes the partials ----

/// Two workers walk the same schedule of weight writers — random_init,
/// update_wts, update_wts_scalar, prune_and_refit.  After each, A's
/// update_parameters (the block-ordered fold of the partials the writer
/// accumulated) must be memcmp-equal to B's update_parameters_scalar (a
/// standalone pass of the per-item scalar chain), and a second
/// update_parameters with no E-step in between must repeat the first.
void expect_one_pass_mstep_matches_scalar(const Model& model, std::size_t j,
                                          std::uint64_t seed, int threads) {
  SCOPED_TRACE(testing::Message() << threads << " threads");
  const data::ItemRange all{0, model.dataset().num_items()};
  Reducer ra, rb;
  EmWorker a(model, all, ra);
  EmWorker b(model, all, rb);
  EmConfig config;
  config.threads = threads;
  const auto m_step = [&](Classification& ca, Classification& cb,
                          const char* after) {
    SCOPED_TRACE(after);
    a.update_parameters(ca);
    b.update_parameters_scalar(cb);
    expect_bit_identical(a.statistics(), b.statistics());
    expect_bit_identical(ca.all_params(), cb.all_params());
    const std::vector<double> stats(a.statistics().begin(),
                                    a.statistics().end());
    const std::vector<double> params(ca.all_params().begin(),
                                     ca.all_params().end());
    a.update_parameters(ca);
    expect_bit_identical(a.statistics(), stats);
    expect_bit_identical(ca.all_params(), params);
  };
  Classification ca(model, j), cb(model, j);
  a.random_init(ca, seed, 0, config);
  b.random_init(cb, seed, 0, config);
  m_step(ca, cb, "random_init");
  ASSERT_EQ(a.update_wts(ca), b.update_wts(cb));
  m_step(ca, cb, "update_wts");
  ASSERT_EQ(a.update_wts_scalar(ca), b.update_wts_scalar(cb));
  m_step(ca, cb, "update_wts_scalar");
  // Prune exactly the lightest class.
  std::vector<double> w(ca.weights().begin(), ca.weights().end());
  std::sort(w.begin(), w.end());
  ASSERT_LT(w[0], w[1]);
  EmConfig prune = config;
  prune.min_class_weight = 0.5 * (w[0] + w[1]);
  Classification pa = a.prune_and_refit(ca, prune);
  Classification pb = b.prune_and_refit(cb, prune);
  ASSERT_EQ(pa.num_classes(), j - 1);
  m_step(pa, pb, "prune_and_refit");
}

TEST(UpdateParamsKernel, OnePassPartialsMatchScalarAfterEveryWeightWriter) {
  data::LabeledDataset ld = data::paper_dataset(1100, 38);
  data::inject_missing(ld.dataset, 0.15, 15);
  const Model gaussian = Model::default_model(ld.dataset);
  const Dataset mixed = data::five_family_mixture(900, 39, 0.08).dataset;
  const Model five(mixed, five_family_terms());
  for (const int threads : {1, 4}) {
    on_both_backends(gaussian, [&](const Model& m) {
      expect_one_pass_mstep_matches_scalar(m, 6, 108, threads);
    });
    on_both_backends(five, [&](const Model& m) {
      expect_one_pass_mstep_matches_scalar(m, 9, 109, threads);
    });
  }
}

TEST(UpdateParamsKernel, WtsOnlyKeepsItsStandalonePass) {
  // A WtsOnly worker (partition_params = false) accumulates its M-step over
  // the gathered full weight matrix in a pass of its own, which on one
  // rank covers exactly the local items: its statistics must equal the
  // one-pass worker's and the scalar oracle's at every cycle.
  const Dataset mixed = data::five_family_mixture(900, 40, 0.08).dataset;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    on_both_backends(Model(mixed, five_family_terms()), [&](const Model& m) {
      const data::ItemRange all{0, m.dataset().num_items()};
      Reducer r1, r2, r3;
      EmWorker one_pass(m, all, r1);
      EmWorker wts_only(m, all, r2, /*partition_params=*/false);
      EmWorker scalar(m, all, r3, /*partition_params=*/false);
      Classification c1(m, 5), c2(m, 5), c3(m, 5);
      EmConfig config;
      config.threads = threads;
      one_pass.random_init(c1, 110, 0, config);
      wts_only.random_init(c2, 110, 0, config);
      scalar.random_init(c3, 110, 0, config);
      for (int cycle = 0; cycle < 3; ++cycle) {
        SCOPED_TRACE(cycle);
        one_pass.update_parameters(c1);
        wts_only.update_parameters(c2);
        scalar.update_parameters_scalar(c3);
        expect_bit_identical(wts_only.statistics(), one_pass.statistics());
        expect_bit_identical(scalar.statistics(), one_pass.statistics());
        expect_bit_identical(c2.all_params(), c1.all_params());
        expect_bit_identical(c3.all_params(), c1.all_params());
        one_pass.update_wts(c1);
        wts_only.update_wts(c2);
        scalar.update_wts(c3);
        expect_bit_identical(wts_only.local_weights(),
                             one_pass.local_weights());
        expect_bit_identical(scalar.local_weights(), one_pass.local_weights());
      }
    });
  }
}

// ---- the lane normalizer: weights, lse and the W_j fold ----

/// The per-row oracle, EmWorker::normalize_row's sequence without its
/// degenerate-row throw: lse = logsumexp(row), w = pac::exp(x - lse) per
/// class, wj[k] += w in item order.
void normalize_rows_oracle(const std::vector<double>& lj, std::size_t n,
                           std::size_t j, double* out, double* lse,
                           double* wj) {
  std::vector<double> row(j);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k < j; ++k) row[k] = lj[k * n + r];
    lse[r] = logsumexp(row);
    for (std::size_t k = 0; k < j; ++k) {
      out[r * j + k] = pac::exp(row[k] - lse[r]);
      wj[k] += out[r * j + k];
    }
  }
}

/// What a normalizer test block holds besides values in [-40, -1].
enum class SpecialRows {
  kNone,
  /// Finite rows that take every branch of the scalar functions: exp
  /// arguments below -512, ties at the max, a -inf class, and exp
  /// arguments with |x| < 2^-54 that are not zero.
  kFallbackLanes,
  /// kFallbackLanes plus NaN, +inf and all -inf rows, whose weights and
  /// lse are NaN or -inf.
  kDegenerate,
};

/// A class-major block of n items x j classes in [-40, -1] (a fitted
/// mixture's spread) with `special` rows among them.
std::vector<double> normalize_test_block(std::size_t n, std::size_t j,
                                         SpecialRows special) {
  Xoshiro256ss rng(n * 131 + j);
  std::vector<double> lj(n * j);
  for (double& x : lj) x = uniform_in(rng, -40.0, -1.0);
  if (special == SpecialRows::kNone) return lj;
  const bool degenerate = special == SpecialRows::kDegenerate;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < n; ++r) {
    const auto at = [&](std::size_t k) -> double& { return lj[k * n + r]; };
    const std::size_t kind = r % 9;
    if (!degenerate && (kind == 2 || kind == 3 || kind == 4)) continue;
    switch (kind) {
      case 0:
        at(0) = 3e-18;  // the max; class 1's exp argument is -3e-18
        if (j > 1) at(1) = 0.0;
        break;
      case 1:
        at(j - 1) = -700.0;  // exp(x - lse) falls back to the scalar path
        break;
      case 2:
        for (std::size_t k = 0; k < j; ++k) at(k) = -inf;
        break;
      case 3:
        at(r % j) = std::numeric_limits<double>::quiet_NaN();
        break;
      case 4:
        at(0) = inf;
        break;
      case 5:  // a tie at the max
        at(0) = 0.5;
        at(j / 2) = 0.5;
        break;
      case 6:
        at(0) = -inf;
        break;
      case 7:
        at(r % j) = 600.0;  // every other class lands below -512
        break;
      default:
        break;
    }
  }
  return lj;
}

/// W_j bit for bit, except that where the oracle's sum is NaN the
/// kernel's must only be NaN: a block with NaN weights adds NaNs of
/// different signs into one class sum, and which one a NaN + NaN returns
/// depends on the operand order the compiler picks for a commutative add,
/// in the oracle loop as in any other.  (The E-step throws
/// DegenerateRowError on such a block before its W_j is used.)
void expect_wj_matches(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (std::isnan(want[k])) {
      EXPECT_TRUE(std::isnan(got[k])) << "class " << k;
    } else {
      EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
          << "class " << k << ": " << got[k] << " vs " << want[k];
    }
  }
}

/// normalize_log_joint with and without its W_j output against the
/// oracle, at the scalar level and at the host's detected level, with
/// guard cells past every output.
void expect_normalizer_matches_oracle(std::size_t n, std::size_t j,
                                      SpecialRows special) {
  SCOPED_TRACE(testing::Message() << "n " << n << ", J " << j
                                  << ", special rows "
                                  << static_cast<int>(special));
  const std::vector<double> lj = normalize_test_block(n, j, special);
  std::vector<double> want_out(n * j + 1, -2.5), want_lse(n + 1, -2.5),
      want_wj(j + 1, -2.5);
  for (std::size_t k = 0; k < j; ++k) want_wj[k] = 0.25 * double(k);
  normalize_rows_oracle(lj, n, j, want_out.data(), want_lse.data(),
                        want_wj.data());
  for (const simd::Level level :
       {simd::Level::kScalar, simd::detected_level()}) {
    const simd::ScopedForceLevel pin(level);
    SCOPED_TRACE(simd::to_string(pin.effective()));
    std::vector<double> out(n * j + 1, -2.5), lse(n + 1, -2.5),
        wj(j + 1, -2.5), scratch(2 * n);
    for (std::size_t k = 0; k < j; ++k) wj[k] = 0.25 * double(k);
    normalize_log_joint(lj.data(), n, j, out.data(), lse.data(),
                        scratch.data(), wj.data());
    expect_bit_identical(out, want_out);
    expect_bit_identical(lse, want_lse);
    expect_wj_matches(wj, want_wj);
    std::fill(out.begin(), out.end(), -2.5);
    std::fill(lse.begin(), lse.end(), -2.5);
    normalize_log_joint(lj.data(), n, j, out.data(), lse.data(),
                        scratch.data());
    expect_bit_identical(out, want_out);
    expect_bit_identical(lse, want_lse);
  }
}

constexpr std::size_t kNormalizeClassCounts[] = {1, 2, 3, 4, 5, 8, 9, 16, 17};
constexpr std::size_t kNormalizeItemCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                255, 256};

TEST(NormalizeKernel, MatchesRowOracleAtEveryShapeAndLevel) {
  for (const std::size_t j : kNormalizeClassCounts)
    for (const std::size_t n : kNormalizeItemCounts)
      expect_normalizer_matches_oracle(n, j, SpecialRows::kNone);
}

TEST(NormalizeKernel, FallbackLanesDegenerateRowsAndTiesMatchRowOracle) {
  for (const std::size_t j : kNormalizeClassCounts)
    for (const std::size_t n : kNormalizeItemCounts)
      for (const SpecialRows special :
           {SpecialRows::kFallbackLanes, SpecialRows::kDegenerate})
        expect_normalizer_matches_oracle(n, j, special);
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
/// both forced levels (the M-step check pins both levels itself); on
/// scalar-only hosts the two runs coincide and the test degenerates to the
/// plain kernel-equality check.
void expect_simd_matches_forced_scalar(const Model& model) {
  {
    simd::ScopedForceLevel vec(simd::Level::kAvx2);  // clamps to detected
    expect_term_batch_matches_scalar(model);
  }
  {
    simd::ScopedForceLevel scalar(simd::Level::kScalar);
    expect_term_batch_matches_scalar(model);
  }
  expect_term_accumulate_matches_scalar(model);
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

}  // namespace
}  // namespace pac::ac
