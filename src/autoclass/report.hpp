// Reporting utilities: hard assignments, membership probabilities, and the
// attribute-influence report (AutoClass's "influ-o-text" output).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "autoclass/classification.hpp"

namespace pac::ac {

/// Items per blocked report pass (matches the E-step's blocking).
inline constexpr std::size_t kReportBlock = 256;

/// Fill `lj` with the log joint log pi_j + log p(x_i | theta_j) of every
/// item of `block` under every class via the batched term kernels,
/// class-major: lj[k * n + r] holds class k of in-block item r, with
/// n = block.size(), so each Term::log_prob_batch call writes one
/// contiguous column.  Per item the additions run log pi_j first, then the
/// terms in index order — the scalar oracle's order, so values match the
/// training path bit-for-bit.  This is the one per-block fill: the E-step,
/// every report/prediction helper and the pac_serve batch evaluator route
/// through it.
void fill_log_joint(const Classification& c, data::ItemRange block,
                    double* lj);

/// Normalize a class-major log-joint block (fill_log_joint's layout) into
/// item-major membership rows with lanes = items: lse[r] is logsumexp of
/// in-block item r's row (logsumexp_columns) and out[r * j + k] =
/// pac::exp(lj[k * n + r] - lse[r]) — bit-identical to normalizing each row
/// with logsumexp and pac::exp.  `scratch` holds 2 * n doubles.
void normalize_log_joint(const double* lj, std::size_t n, std::size_t j,
                         double* out, double* lse, double* scratch);

/// The class of in-block item r with the largest log joint in a class-major
/// block, first maximum winning (std::max_element's rule).
std::size_t argmax_class(const double* lj, std::size_t n, std::size_t j,
                         std::size_t r);

/// Hard class labels: argmax_j of the posterior membership of each item.
std::vector<std::int32_t> assign_labels(const Classification& c);

/// Posterior membership probabilities of one item (sums to 1).
std::vector<double> membership(const Classification& c, std::size_t item);

/// One row of the influence report: how strongly a term (attribute or
/// block) separates class j from the global population (KL divergence).
struct InfluenceEntry {
  std::size_t class_index = 0;
  std::size_t term_index = 0;
  double influence = 0.0;
};

/// Influence values for every (class, term), descending by influence.
std::vector<InfluenceEntry> influence_report(const Classification& c);

/// Print the classification summary and influence report (the part of
/// AutoClass's report files a user reads first).
void print_report(std::ostream& os, const Classification& c);

/// AutoClass-style case report: one line per item with its best and
/// second-best class and their membership probabilities.  `max_items`
/// truncates the listing (0 = all items).
void write_case_report(std::ostream& os, const Classification& c,
                       std::size_t max_items = 0);

/// Classification quality diagnostic from the paper's Sec. 2: the mean of
/// each item's maximum membership probability.  ~1 means well-separated
/// classes; ~1/J means meaningless overlap.
double mean_max_membership(const Classification& c);

// ---- prediction (AutoClass's "predict" mode): apply a trained
//      classification to data that was not used for training ----

/// Posterior membership of one item of a foreign dataset (must share the
/// training schema).  Sums to 1.
std::vector<double> predict_membership(const Classification& c,
                                       const data::Dataset& foreign,
                                       std::size_t item);

/// Hard labels for every item of a foreign dataset.
std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign);

/// Per-item observed log-likelihood under the classification: a held-out
/// score for comparing classifications on fresh data.
double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign);

}  // namespace pac::ac
