// Tests for the synthetic generators and the clustering-quality metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "data/synth.hpp"
#include "util/error.hpp"

namespace pac::data {
namespace {

TEST(GaussianMixture, ShapesAndLabels) {
  const std::vector<GaussianComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 1.0}},
      {0.5, {10.0, 10.0}, {1.0, 1.0}},
  };
  const LabeledDataset d = gaussian_mixture(mix, 500, 1);
  EXPECT_EQ(d.dataset.num_items(), 500u);
  EXPECT_EQ(d.dataset.num_attributes(), 2u);
  ASSERT_EQ(d.labels.size(), 500u);
  for (const auto l : d.labels) EXPECT_TRUE(l == 0 || l == 1);
}

TEST(GaussianMixture, ComponentMomentsMatch) {
  const std::vector<GaussianComponent> mix = {
      {1.0, {3.0}, {2.0}},
  };
  const LabeledDataset d = gaussian_mixture(mix, 20000, 2);
  const auto stats = d.dataset.real_stats(0);
  EXPECT_NEAR(stats.mean, 3.0, 0.06);
  EXPECT_NEAR(std::sqrt(stats.variance), 2.0, 0.05);
}

TEST(GaussianMixture, WeightsControlProportions) {
  const std::vector<GaussianComponent> mix = {
      {0.8, {0.0}, {1.0}},
      {0.2, {100.0}, {1.0}},
  };
  const LabeledDataset d = gaussian_mixture(mix, 20000, 3);
  const double share0 =
      static_cast<double>(std::count(d.labels.begin(), d.labels.end(), 0)) /
      20000.0;
  EXPECT_NEAR(share0, 0.8, 0.02);
}

TEST(GaussianMixture, Reproducible) {
  const std::vector<GaussianComponent> mix = {{1.0, {0.0}, {1.0}}};
  const LabeledDataset a = gaussian_mixture(mix, 100, 7);
  const LabeledDataset b = gaussian_mixture(mix, 100, 7);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.dataset.real_value(i, 0), b.dataset.real_value(i, 0));
}

TEST(GaussianMixture, ValidatesInput) {
  EXPECT_THROW(gaussian_mixture({}, 10, 1), pac::Error);
  const std::vector<GaussianComponent> bad_sigma = {{1.0, {0.0}, {-1.0}}};
  EXPECT_THROW(gaussian_mixture(bad_sigma, 10, 1), pac::Error);
  const std::vector<GaussianComponent> mismatched = {
      {1.0, {0.0, 1.0}, {1.0}}};
  EXPECT_THROW(gaussian_mixture(mismatched, 10, 1), pac::Error);
}

TEST(CorrelatedMixture, ProducesRequestedCorrelation) {
  // Covariance [[1, .9], [.9, 1]] via its Cholesky factor.
  const double r = 0.9;
  const std::vector<CorrelatedComponent> mix = {
      {1.0, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}}};
  const LabeledDataset d = correlated_mixture(mix, 20000, 4);
  // Sample correlation of the two columns.
  const auto x = d.dataset.real_block(0, ItemRange{0, 20000});
  const auto y = d.dataset.real_block(1, ItemRange{0, 20000});
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const double n = 20000.0;
  for (std::size_t i = 0; i < 20000; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double corr = (sxy - sx * sy / n) /
                      std::sqrt((sxx - sx * sx / n) * (syy - sy * sy / n));
  EXPECT_NEAR(corr, r, 0.01);
}

TEST(CategoricalMixture, FrequenciesMatchComponents) {
  const std::vector<CategoricalComponent> mix = {
      {1.0, {{0.7, 0.2, 0.1}}},
  };
  const LabeledDataset d = categorical_mixture(mix, 30000, 5);
  const auto f = d.dataset.discrete_frequencies(0);
  EXPECT_NEAR(f[0], 0.7, 0.01);
  EXPECT_NEAR(f[1], 0.2, 0.01);
  EXPECT_NEAR(f[2], 0.1, 0.01);
}

TEST(MixedMixture, SchemaHasBothKinds) {
  std::vector<MixedComponent> mix(1);
  mix[0] = {1.0, {0.0, 1.0}, {1.0, 1.0}, {{0.5, 0.5}, {0.3, 0.3, 0.4}}};
  const LabeledDataset d = mixed_mixture(mix, 100, 6);
  EXPECT_EQ(d.dataset.schema().num_real(), 2u);
  EXPECT_EQ(d.dataset.schema().num_discrete(), 2u);
  EXPECT_EQ(d.dataset.schema().at(3).num_values, 3);
}

TEST(PaperDataset, TwoRealAttributesAnySize) {
  for (std::size_t n : {100u, 5000u}) {
    const LabeledDataset d = paper_dataset(n);
    EXPECT_EQ(d.dataset.num_items(), n);
    EXPECT_EQ(d.dataset.num_attributes(), 2u);
    EXPECT_EQ(d.dataset.schema().num_real(), 2u);
  }
}

TEST(PaperDataset, HasFiveComponents) {
  const LabeledDataset d = paper_dataset(5000);
  const auto max_label = *std::max_element(d.labels.begin(), d.labels.end());
  EXPECT_EQ(max_label, 4);
}

TEST(InjectMissing, FractionIsRespected) {
  LabeledDataset d = paper_dataset(5000, 11);
  inject_missing(d.dataset, 0.2, 12);
  const double frac =
      static_cast<double>(d.dataset.missing_count(0) +
                          d.dataset.missing_count(1)) /
      (2.0 * 5000.0);
  EXPECT_NEAR(frac, 0.2, 0.02);
}

TEST(InjectMissing, ZeroFractionIsNoOp) {
  LabeledDataset d = paper_dataset(100, 13);
  inject_missing(d.dataset, 0.0, 14);
  EXPECT_EQ(d.dataset.missing_count(0), 0u);
}

TEST(InjectOutliers, MarksLabelsAndStaysFinite) {
  LabeledDataset d = paper_dataset(2000, 15);
  inject_outliers(d, 0.1, 3.0, 16);
  const auto outliers =
      std::count(d.labels.begin(), d.labels.end(), -1);
  EXPECT_NEAR(static_cast<double>(outliers) / 2000.0, 0.1, 0.03);
  for (std::size_t i = 0; i < 2000; ++i)
    EXPECT_TRUE(std::isfinite(d.dataset.real_value(i, 0)));
}

// ---- adjusted Rand index ----

TEST(Ari, IdenticalPartitionsScoreOne) {
  const std::vector<std::int32_t> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
}

TEST(Ari, RelabelingInvariance) {
  const std::vector<std::int32_t> a = {0, 0, 1, 1, 2, 2};
  const std::vector<std::int32_t> b = {5, 5, 9, 9, 1, 1};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), 1.0);
}

TEST(Ari, CompleteDisagreementScoresLow) {
  // Predicted lumps everything into one class.
  const std::vector<std::int32_t> truth = {0, 0, 0, 1, 1, 1, 2, 2, 2};
  const std::vector<std::int32_t> one(9, 0);
  EXPECT_LE(adjusted_rand_index(truth, one), 0.0 + 1e-12);
}

TEST(Ari, SkipsNegativeTruthLabels) {
  const std::vector<std::int32_t> truth = {0, 0, -1, 1, 1, -1};
  const std::vector<std::int32_t> pred = {3, 3, 7, 4, 4, 9};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(truth, pred), 1.0);
}

TEST(Ari, PartialAgreementIsBetweenZeroAndOne) {
  const std::vector<std::int32_t> truth = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::int32_t> pred = {0, 0, 0, 1, 1, 1, 1, 1};
  const double ari = adjusted_rand_index(truth, pred);
  EXPECT_GT(ari, 0.0);
  EXPECT_LT(ari, 1.0);
}

TEST(Ari, SizeMismatchThrows) {
  EXPECT_THROW(adjusted_rand_index({0, 1}, {0}), pac::Error);
}

// ---- confusion matrix & purity ----

TEST(Confusion, CountsCells) {
  const std::vector<std::int32_t> truth = {0, 0, 1, 1, 1};
  const std::vector<std::int32_t> pred = {0, 1, 1, 1, 0};
  const ConfusionMatrix m = confusion_matrix(truth, pred);
  ASSERT_EQ(m.rows, 2u);
  ASSERT_EQ(m.cols, 2u);
  EXPECT_EQ(m.at(0, 0), 1u);
  EXPECT_EQ(m.at(0, 1), 1u);
  EXPECT_EQ(m.at(1, 0), 1u);
  EXPECT_EQ(m.at(1, 1), 2u);
}

TEST(Confusion, SkipsNegativeTruth) {
  const std::vector<std::int32_t> truth = {-1, 0, -1, 1};
  const std::vector<std::int32_t> pred = {5, 0, 7, 1};
  const ConfusionMatrix m = confusion_matrix(truth, pred);
  EXPECT_EQ(m.rows, 2u);
  std::size_t total = 0;
  for (const auto c : m.counts) total += c;
  EXPECT_EQ(total, 2u);
}

TEST(Confusion, RectangularWhenClusterCountsDiffer) {
  const std::vector<std::int32_t> truth = {0, 1, 2};
  const std::vector<std::int32_t> pred = {0, 0, 1};
  const ConfusionMatrix m = confusion_matrix(truth, pred);
  EXPECT_EQ(m.rows, 3u);
  EXPECT_EQ(m.cols, 2u);
}

TEST(Purity, PerfectClusteringIsOne) {
  const std::vector<std::int32_t> truth = {0, 0, 1, 1};
  const std::vector<std::int32_t> pred = {7, 7, 3, 3};
  EXPECT_DOUBLE_EQ(cluster_purity(truth, pred), 1.0);
}

TEST(Purity, SingleClusterGivesMajorityShare) {
  const std::vector<std::int32_t> truth = {0, 0, 0, 1, 1};
  const std::vector<std::int32_t> pred(5, 0);
  EXPECT_DOUBLE_EQ(cluster_purity(truth, pred), 0.6);
}

TEST(Purity, OverSplittingDoesNotHurtPurity) {
  // Splitting a true class into two clusters keeps purity at 1.
  const std::vector<std::int32_t> truth = {0, 0, 0, 0};
  const std::vector<std::int32_t> pred = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(cluster_purity(truth, pred), 1.0);
}

}  // namespace
}  // namespace pac::data
