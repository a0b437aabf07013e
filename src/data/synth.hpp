// Synthetic dataset generators.
//
// The paper evaluates on a synthetic dataset of up to 100 000 tuples with two
// real attributes; `paper_dataset` regenerates its statistical shape (a
// handful of overlapping planar Gaussians).  The other generators exercise
// the remaining model terms: categorical mixtures for single_multinomial,
// correlated blobs for multi_normal, mixed-type data, and injectors for
// missing values and outliers.  Every generator also returns the true
// component labels so tests can score recovered clusterings.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace pac::data {

/// A dataset together with the generating component of each item.
struct LabeledDataset {
  Dataset dataset;
  std::vector<std::int32_t> labels;
};

/// One component of a Gaussian mixture over `dim` real attributes with a
/// diagonal covariance.
struct GaussianComponent {
  double weight = 1.0;
  std::vector<double> mean;
  std::vector<double> sigma;  // per-attribute standard deviations
};

/// Draw `n` items from the given diagonal-Gaussian mixture.
LabeledDataset gaussian_mixture(const std::vector<GaussianComponent>& mixture,
                                std::size_t n, std::uint64_t seed,
                                double rel_error = 1e-2);

/// One component of a full-covariance Gaussian mixture (for the multi_normal
/// term).  `chol` is the lower Cholesky factor of the covariance, row-major.
struct CorrelatedComponent {
  double weight = 1.0;
  std::vector<double> mean;
  std::vector<double> chol;
};

LabeledDataset correlated_mixture(
    const std::vector<CorrelatedComponent>& mixture, std::size_t n,
    std::uint64_t seed, double rel_error = 1e-2);

/// One component of a categorical mixture: per-attribute symbol
/// probabilities (outer: attribute, inner: symbol).
struct CategoricalComponent {
  double weight = 1.0;
  std::vector<std::vector<double>> probs;
};

LabeledDataset categorical_mixture(
    const std::vector<CategoricalComponent>& mixture, std::size_t n,
    std::uint64_t seed);

/// Mixed-type mixture: each component has diagonal-Gaussian real attributes
/// and categorical discrete attributes.
struct MixedComponent {
  double weight = 1.0;
  std::vector<double> mean;
  std::vector<double> sigma;
  std::vector<std::vector<double>> probs;
};

LabeledDataset mixed_mixture(const std::vector<MixedComponent>& mixture,
                             std::size_t n, std::uint64_t seed,
                             double rel_error = 1e-2);

/// Data for all five term families: x0 for a normal, x1 strictly positive
/// for a log-normal, x2/x3 a pair for a multi-normal block, x4 a real to
/// ignore, d0 a 4-symbol discrete for a multinomial, drawn from a
/// 4-component mixed mixture.  Each value of x0, x1, x4 and d0 — every
/// column but the multi-normal block, which forbids them — is missing with
/// probability `missing_fraction`.
LabeledDataset five_family_mixture(std::size_t n, std::uint64_t seed,
                                   double missing_fraction);

/// The paper's synthetic benchmark data: `n` tuples, two real attributes,
/// five moderately separated planar Gaussian clusters.
LabeledDataset paper_dataset(std::size_t n, std::uint64_t seed = 42);

/// Replace a fraction of entries (uniformly over items and attributes) with
/// missing values.
void inject_missing(Dataset& dataset, double fraction, std::uint64_t seed);

/// Replace a fraction of items with uniform-noise outliers spanning
/// `spread` times each real attribute's observed range (labels become -1).
void inject_outliers(LabeledDataset& data, double fraction, double spread,
                     std::uint64_t seed);

/// Adjusted Rand index between two labelings (1 = identical partitions,
/// ~0 = independent).  Items with label < 0 in `truth` are skipped.
double adjusted_rand_index(const std::vector<std::int32_t>& truth,
                           const std::vector<std::int32_t>& predicted);

/// Dense contingency table: cell (t, p) counts items with truth label t and
/// predicted label p.  Labels must be >= 0 (negative truth labels are
/// skipped, matching adjusted_rand_index).
struct ConfusionMatrix {
  std::size_t rows = 0;  // distinct truth labels (max + 1)
  std::size_t cols = 0;  // distinct predicted labels (max + 1)
  std::vector<std::size_t> counts;  // row-major rows x cols

  std::size_t at(std::size_t truth_label, std::size_t predicted) const {
    return counts[truth_label * cols + predicted];
  }
};

ConfusionMatrix confusion_matrix(const std::vector<std::int32_t>& truth,
                                 const std::vector<std::int32_t>& predicted);

/// Best-case accuracy: fraction of items correct when every predicted
/// cluster is mapped to its majority truth label.
double cluster_purity(const std::vector<std::int32_t>& truth,
                      const std::vector<std::int32_t>& predicted);

}  // namespace pac::data
