#include "data/synth.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pac::data {

namespace {

template <class Component>
std::vector<double> weights_of(const std::vector<Component>& mixture) {
  std::vector<double> w;
  w.reserve(mixture.size());
  for (const auto& c : mixture) {
    PAC_REQUIRE_MSG(c.weight > 0.0, "component weights must be positive");
    w.push_back(c.weight);
  }
  return w;
}

}  // namespace

LabeledDataset gaussian_mixture(const std::vector<GaussianComponent>& mixture,
                                std::size_t n, std::uint64_t seed,
                                double rel_error) {
  PAC_REQUIRE(!mixture.empty());
  const std::size_t dim = mixture.front().mean.size();
  PAC_REQUIRE(dim >= 1);
  for (const auto& c : mixture) {
    PAC_REQUIRE_MSG(c.mean.size() == dim && c.sigma.size() == dim,
                    "all components must have the same dimensionality");
    for (double s : c.sigma) PAC_REQUIRE(s > 0.0);
  }
  std::vector<Attribute> attributes;
  for (std::size_t d = 0; d < dim; ++d)
    attributes.push_back(Attribute::real("x" + std::to_string(d), rel_error));
  LabeledDataset out{Dataset(Schema(std::move(attributes)), n),
                     std::vector<std::int32_t>(n)};
  Xoshiro256ss rng(seed);
  const auto weights = weights_of(mixture);
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = categorical(rng, weights);
    out.labels[i] = static_cast<std::int32_t>(j);
    const auto& c = mixture[j];
    for (std::size_t d = 0; d < dim; ++d)
      out.dataset.set_real(i, d, c.mean[d] + c.sigma[d] * normal01(rng));
  }
  return out;
}

LabeledDataset correlated_mixture(
    const std::vector<CorrelatedComponent>& mixture, std::size_t n,
    std::uint64_t seed, double rel_error) {
  PAC_REQUIRE(!mixture.empty());
  const std::size_t dim = mixture.front().mean.size();
  PAC_REQUIRE(dim >= 1);
  for (const auto& c : mixture)
    PAC_REQUIRE_MSG(c.mean.size() == dim && c.chol.size() == dim * dim,
                    "component mean/cholesky sizes are inconsistent");
  std::vector<Attribute> attributes;
  for (std::size_t d = 0; d < dim; ++d)
    attributes.push_back(Attribute::real("x" + std::to_string(d), rel_error));
  LabeledDataset out{Dataset(Schema(std::move(attributes)), n),
                     std::vector<std::int32_t>(n)};
  Xoshiro256ss rng(seed);
  const auto weights = weights_of(mixture);
  std::vector<double> z(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = categorical(rng, weights);
    out.labels[i] = static_cast<std::int32_t>(j);
    const auto& c = mixture[j];
    for (std::size_t d = 0; d < dim; ++d) z[d] = normal01(rng);
    for (std::size_t d = 0; d < dim; ++d) {
      double v = c.mean[d];
      for (std::size_t k = 0; k <= d; ++k) v += c.chol[d * dim + k] * z[k];
      out.dataset.set_real(i, d, v);
    }
  }
  return out;
}

LabeledDataset categorical_mixture(
    const std::vector<CategoricalComponent>& mixture, std::size_t n,
    std::uint64_t seed) {
  PAC_REQUIRE(!mixture.empty());
  const std::size_t dim = mixture.front().probs.size();
  PAC_REQUIRE(dim >= 1);
  std::vector<Attribute> attributes;
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t l = mixture.front().probs[d].size();
    for (const auto& c : mixture)
      PAC_REQUIRE_MSG(c.probs.size() == dim && c.probs[d].size() == l,
                      "all components must agree on attribute cardinalities");
    attributes.push_back(
        Attribute::discrete("d" + std::to_string(d), static_cast<int>(l)));
  }
  LabeledDataset out{Dataset(Schema(std::move(attributes)), n),
                     std::vector<std::int32_t>(n)};
  Xoshiro256ss rng(seed);
  const auto weights = weights_of(mixture);
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = categorical(rng, weights);
    out.labels[i] = static_cast<std::int32_t>(j);
    for (std::size_t d = 0; d < dim; ++d)
      out.dataset.set_discrete(
          i, d, static_cast<std::int32_t>(categorical(rng, mixture[j].probs[d])));
  }
  return out;
}

LabeledDataset mixed_mixture(const std::vector<MixedComponent>& mixture,
                             std::size_t n, std::uint64_t seed,
                             double rel_error) {
  PAC_REQUIRE(!mixture.empty());
  const std::size_t dr = mixture.front().mean.size();
  const std::size_t dd = mixture.front().probs.size();
  PAC_REQUIRE(dr + dd >= 1);
  std::vector<Attribute> attributes;
  for (std::size_t d = 0; d < dr; ++d)
    attributes.push_back(Attribute::real("x" + std::to_string(d), rel_error));
  for (std::size_t d = 0; d < dd; ++d) {
    const std::size_t l = mixture.front().probs[d].size();
    attributes.push_back(
        Attribute::discrete("d" + std::to_string(d), static_cast<int>(l)));
  }
  for (const auto& c : mixture) {
    PAC_REQUIRE(c.mean.size() == dr && c.sigma.size() == dr &&
                c.probs.size() == dd);
  }
  LabeledDataset out{Dataset(Schema(std::move(attributes)), n),
                     std::vector<std::int32_t>(n)};
  Xoshiro256ss rng(seed);
  const auto weights = weights_of(mixture);
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = categorical(rng, weights);
    out.labels[i] = static_cast<std::int32_t>(j);
    const auto& c = mixture[j];
    for (std::size_t d = 0; d < dr; ++d)
      out.dataset.set_real(i, d, c.mean[d] + c.sigma[d] * normal01(rng));
    for (std::size_t d = 0; d < dd; ++d)
      out.dataset.set_discrete(
          i, dr + d,
          static_cast<std::int32_t>(categorical(rng, c.probs[d])));
  }
  return out;
}

LabeledDataset five_family_mixture(std::size_t n, std::uint64_t seed,
                                   double missing_fraction) {
  PAC_REQUIRE(missing_fraction >= 0.0 && missing_fraction <= 1.0);
  const std::vector<MixedComponent> mixture = {
      {0.35, {0.0, 20.0, -2.0, 1.0, 0.0}, {1.0, 1.0, 1.0, 0.7, 1.0},
       {{0.6, 0.2, 0.1, 0.1}}},
      {0.25, {5.0, 24.0, 2.0, -1.0, 0.0}, {1.2, 1.5, 0.8, 0.8, 1.0},
       {{0.1, 0.6, 0.2, 0.1}}},
      {0.20, {-4.0, 17.0, 3.0, 3.0, 0.0}, {0.8, 1.0, 1.0, 1.0, 1.0},
       {{0.1, 0.1, 0.6, 0.2}}},
      {0.20, {2.0, 22.0, -3.0, -3.0, 0.0}, {1.0, 2.0, 1.5, 1.0, 1.0},
       {{0.25, 0.25, 0.25, 0.25}}},
  };
  LabeledDataset out = mixed_mixture(mixture, n, seed);
  Xoshiro256ss rng(seed ^ 0x6D697373ULL);
  for (std::size_t i = 0; i < n; ++i)
    for (const std::size_t a : {0, 1, 4, 5})
      if (uniform01(rng) < missing_fraction) out.dataset.set_missing(i, a);
  return out;
}

LabeledDataset paper_dataset(std::size_t n, std::uint64_t seed) {
  // Five planar clusters with distinct shapes and moderate overlap — enough
  // structure that AutoClass's model search has real work to do, like the
  // paper's synthetic 100k dataset.
  std::vector<GaussianComponent> mixture = {
      {0.30, {0.0, 0.0}, {1.0, 1.0}},
      {0.25, {6.0, 1.0}, {1.5, 0.6}},
      {0.20, {-4.0, 5.0}, {0.8, 1.8}},
      {0.15, {3.0, -6.0}, {1.2, 1.2}},
      {0.10, {-5.0, -5.0}, {0.5, 0.5}},
  };
  return gaussian_mixture(mixture, n, seed, /*rel_error=*/1e-2);
}

void inject_missing(Dataset& dataset, double fraction, std::uint64_t seed) {
  PAC_REQUIRE(fraction >= 0.0 && fraction <= 1.0);
  Xoshiro256ss rng(seed ^ 0xA5A5A5A5ULL);
  for (std::size_t i = 0; i < dataset.num_items(); ++i)
    for (std::size_t a = 0; a < dataset.num_attributes(); ++a)
      if (uniform01(rng) < fraction) dataset.set_missing(i, a);
}

void inject_outliers(LabeledDataset& data, double fraction, double spread,
                     std::uint64_t seed) {
  PAC_REQUIRE(fraction >= 0.0 && fraction <= 1.0);
  PAC_REQUIRE(spread > 0.0);
  Dataset& ds = data.dataset;
  const Schema& schema = ds.schema();
  // Precompute per-attribute ranges for scaling the noise.
  std::vector<double> lo(schema.size(), 0.0), hi(schema.size(), 1.0);
  for (std::size_t a = 0; a < schema.size(); ++a) {
    if (schema.at(a).kind != AttributeKind::kReal) continue;
    const auto s = ds.real_stats(a);
    const double center = 0.5 * (s.min + s.max);
    const double half = 0.5 * (s.max - s.min) * spread;
    lo[a] = center - half;
    hi[a] = center + half;
  }
  Xoshiro256ss rng(seed ^ 0x5A5A5A5AULL);
  for (std::size_t i = 0; i < ds.num_items(); ++i) {
    if (uniform01(rng) >= fraction) continue;
    data.labels[i] = -1;
    for (std::size_t a = 0; a < schema.size(); ++a) {
      if (schema.at(a).kind == AttributeKind::kReal) {
        ds.set_real(i, a, uniform_in(rng, lo[a], hi[a]));
      } else {
        ds.set_discrete(
            i, a,
            static_cast<std::int32_t>(uniform_index(
                rng, static_cast<std::uint64_t>(schema.at(a).num_values))));
      }
    }
  }
}

ConfusionMatrix confusion_matrix(const std::vector<std::int32_t>& truth,
                                 const std::vector<std::int32_t>& predicted) {
  PAC_REQUIRE(truth.size() == predicted.size());
  ConfusionMatrix m;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < 0) continue;
    PAC_REQUIRE_MSG(predicted[i] >= 0, "predicted labels must be >= 0");
    m.rows = std::max(m.rows, static_cast<std::size_t>(truth[i]) + 1);
    m.cols = std::max(m.cols, static_cast<std::size_t>(predicted[i]) + 1);
  }
  m.counts.assign(m.rows * m.cols, 0);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < 0) continue;
    ++m.counts[static_cast<std::size_t>(truth[i]) * m.cols +
               static_cast<std::size_t>(predicted[i])];
  }
  return m;
}

double cluster_purity(const std::vector<std::int32_t>& truth,
                      const std::vector<std::int32_t>& predicted) {
  const ConfusionMatrix m = confusion_matrix(truth, predicted);
  if (m.counts.empty()) return 1.0;
  std::size_t correct = 0, total = 0;
  for (std::size_t p = 0; p < m.cols; ++p) {
    std::size_t best = 0, column = 0;
    for (std::size_t t = 0; t < m.rows; ++t) {
      best = std::max(best, m.at(t, p));
      column += m.at(t, p);
    }
    correct += best;
    total += column;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 1.0;
}

double adjusted_rand_index(const std::vector<std::int32_t>& truth,
                           const std::vector<std::int32_t>& predicted) {
  PAC_REQUIRE(truth.size() == predicted.size());
  // Contingency table over items with non-negative truth labels.
  std::map<std::pair<std::int32_t, std::int32_t>, double> cells;
  std::map<std::int32_t, double> row_sums, col_sums;
  double n = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < 0) continue;
    cells[{truth[i], predicted[i]}] += 1.0;
    row_sums[truth[i]] += 1.0;
    col_sums[predicted[i]] += 1.0;
    n += 1.0;
  }
  if (n < 2.0) return 1.0;
  const auto choose2 = [](double m) { return 0.5 * m * (m - 1.0); };
  double sum_cells = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [key, v] : cells) sum_cells += choose2(v);
  for (const auto& [key, v] : row_sums) sum_rows += choose2(v);
  for (const auto& [key, v] : col_sums) sum_cols += choose2(v);
  const double expected = sum_rows * sum_cols / choose2(n);
  const double maximum = 0.5 * (sum_rows + sum_cols);
  if (maximum == expected) return 1.0;
  return (sum_cells - expected) / (maximum - expected);
}

}  // namespace pac::data
