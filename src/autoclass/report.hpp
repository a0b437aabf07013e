// Reporting utilities: hard assignments, membership probabilities, the
// attribute-influence report (AutoClass's "influ-o-text" output), and
// prediction on foreign rows (AutoClass's predict mode).
//
// Every helper evaluates the log joint through fill_log_joint in
// kReportBlock blocks.  Foreign rows take one path: predict_batch binds a
// copy of the model to them (Model::rebound) and runs the same batched
// term kernels as training; predict_labels, predict_membership,
// predict_log_likelihood and pac_serve all go through it.
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
/// every report helper and predict_batch route through it.
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
//
// A foreign dataset must share the training schema; it may live on any
// storage backend.  A row that violates a term family's precondition (a
// non-positive value under a lognormal term, a missing value inside a
// multi_normal block) makes the whole call throw pac::Error naming the
// attribute.  An empty foreign dataset gives empty results.

struct PredictOutput {
  std::vector<std::int32_t> labels;  // one per row
  std::vector<double> membership;    // rows x num_classes when requested
};

/// Classify every row of `foreign` under `c`: labels are the first-maximum
/// argmax of each row's log joint, memberships its normalized exp.  Values
/// are bit-identical to the scalar oracle (log pi_j + the sum of
/// Term::log_prob over the rebound model, normalized with logsumexp and
/// pac::exp) at every SIMD level.
PredictOutput predict_batch(const Classification& c,
                            const data::Dataset& foreign,
                            bool want_membership);

/// Posterior membership of one item of a foreign dataset (sums to 1).
/// Evaluates that row alone, so a bad value in another row cannot fail it.
std::vector<double> predict_membership(const Classification& c,
                                       const data::Dataset& foreign,
                                       std::size_t item);

/// Hard labels for every item of a foreign dataset.
std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign);

/// Sum over the foreign items of their observed log-likelihood (logsumexp
/// of the log joint): a held-out score for comparing classifications on
/// fresh data.  0 for an empty dataset.
double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign);

}  // namespace pac::ac
