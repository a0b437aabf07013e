#include "autoclass/report.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/simd.hpp"

namespace pac::ac {

void fill_log_joint(const Classification& c, data::ItemRange block,
                    double* lj) {
  const Model& model = c.model();
  const std::size_t j = c.num_classes();
  const std::size_t n = block.size();
  for (std::size_t k = 0; k < j; ++k)
    std::fill_n(lj + k * n, n, c.log_pi(k));
  const double* params = c.all_params().data();
  for (std::size_t t = 0; t < model.num_terms(); ++t)
    model.term(t).log_prob_batch(block, params + model.param_offset(t),
                                 model.params_per_class(), j, lj);
}

void normalize_log_joint(const double* lj, std::size_t n, std::size_t j,
                         double* out, double* lse, double* scratch,
                         double* wj) {
  simd::normalize_columns(lj, n, j, out, lse, wj, scratch);
}

std::size_t argmax_class(const double* lj, std::size_t n, std::size_t j,
                         std::size_t r) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < j; ++k)
    if (lj[best * n + r] < lj[k * n + r]) best = k;
  return best;
}

namespace {

/// Log joint log pi_j + log p(x_i | theta_j) for every class of item i.
std::vector<double> log_joint(const Classification& c, std::size_t item) {
  PAC_REQUIRE(item < c.model().dataset().num_items());
  std::vector<double> row(c.num_classes());
  fill_log_joint(c, data::ItemRange{item, item + 1}, row.data());
  return row;
}

/// The one foreign-row evaluator: bind a copy of the trained model to
/// `foreign`, copy the classification's parameters verbatim (so the batched
/// kernels see byte-identical state), and hand `visit` the class-major log
/// joint of every kReportBlock block in item order.  An empty dataset
/// visits nothing; Model::rebound refuses empty targets.
template <class Visit>
void for_each_foreign_block(const Classification& c,
                            const data::Dataset& foreign, Visit&& visit) {
  PAC_REQUIRE_MSG(foreign.schema() == c.model().dataset().schema(),
                  "foreign dataset schema differs from the training schema");
  const std::size_t n = foreign.num_items();
  if (n == 0) return;
  const Model eval_model = c.model().rebound(foreign);
  const std::size_t j = c.num_classes();
  Classification ec(eval_model, j);
  std::copy(c.log_pis().begin(), c.log_pis().end(),
            ec.mutable_log_pis().begin());
  std::copy(c.weights().begin(), c.weights().end(),
            ec.mutable_weights().begin());
  std::copy(c.all_params().begin(), c.all_params().end(),
            ec.all_params_mutable().begin());
  std::vector<double> lj(kReportBlock * j);
  for (std::size_t begin = 0; begin < n; begin += kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + kReportBlock, n)};
    fill_log_joint(ec, block, lj.data());
    visit(block, lj.data());
  }
}

}  // namespace

PredictOutput predict_batch(const Classification& c,
                            const data::Dataset& foreign,
                            bool want_membership) {
  const std::size_t n = foreign.num_items();
  const std::size_t j = c.num_classes();
  PredictOutput out;
  out.labels.resize(n);
  if (want_membership) out.membership.resize(n * j);
  std::vector<double> lse(want_membership ? kReportBlock : 0);
  std::vector<double> scratch(want_membership ? 2 * kReportBlock : 0);
  for_each_foreign_block(
      c, foreign, [&](data::ItemRange block, const double* lj) {
        for (std::size_t r = 0; r < block.size(); ++r)
          out.labels[block.begin + r] = static_cast<std::int32_t>(
              argmax_class(lj, block.size(), j, r));
        if (want_membership)
          normalize_log_joint(lj, block.size(), j,
                              out.membership.data() + block.begin * j,
                              lse.data(), scratch.data());
      });
  return out;
}

std::vector<double> predict_membership(const Classification& c,
                                       const data::Dataset& foreign,
                                       std::size_t item) {
  return predict_batch(c, foreign.slice(item, item + 1), true).membership;
}

std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign) {
  return predict_batch(c, foreign, false).labels;
}

double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign) {
  const std::size_t j = c.num_classes();
  std::vector<double> lse(kReportBlock);
  std::vector<double> scratch(2 * kReportBlock);
  KahanSum total;
  for_each_foreign_block(
      c, foreign, [&](data::ItemRange block, const double* lj) {
        logsumexp_columns(lj, block.size(), j, lse.data(), scratch.data());
        for (std::size_t r = 0; r < block.size(); ++r) total.add(lse[r]);
      });
  return total.value();
}

std::vector<std::int32_t> assign_labels(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  const std::size_t j = c.num_classes();
  std::vector<std::int32_t> labels(n);
  std::vector<double> lj(kReportBlock * j);
  for (std::size_t begin = 0; begin < n; begin += kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + kReportBlock, n)};
    fill_log_joint(c, block, lj.data());
    for (std::size_t r = 0; r < block.size(); ++r)
      labels[block.begin + r] = static_cast<std::int32_t>(
          argmax_class(lj.data(), block.size(), j, r));
  }
  return labels;
}

std::vector<double> membership(const Classification& c, std::size_t item) {
  auto row = log_joint(c, item);
  const double lse = logsumexp(row);
  for (double& v : row) v = pac::exp(v - lse);
  return row;
}

std::vector<InfluenceEntry> influence_report(const Classification& c) {
  const Model& model = c.model();
  std::vector<InfluenceEntry> entries;
  entries.reserve(c.num_classes() * model.num_terms());
  for (std::size_t j = 0; j < c.num_classes(); ++j)
    for (std::size_t t = 0; t < model.num_terms(); ++t)
      entries.push_back(InfluenceEntry{
          j, t, model.term(t).influence(c.param_block(j, t))});
  std::stable_sort(entries.begin(), entries.end(),
                   [](const InfluenceEntry& a, const InfluenceEntry& b) {
                     return a.influence > b.influence;
                   });
  return entries;
}

void write_case_report(std::ostream& os, const Classification& c,
                       std::size_t max_items) {
  const std::size_t n = c.model().dataset().num_items();
  const std::size_t limit =
      max_items == 0 ? n : std::min(max_items, n);
  os << "# case report: item  best_class p(best)  second p(second)\n";
  for (std::size_t i = 0; i < limit; ++i) {
    const auto m = membership(c, i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < m.size(); ++j)
      if (m[j] > m[best]) best = j;
    std::size_t second = best == 0 ? (m.size() > 1 ? 1 : 0) : 0;
    for (std::size_t j = 0; j < m.size(); ++j)
      if (j != best && m[j] > m[second]) second = j;
    os << i << "  " << best << " " << m[best];
    if (m.size() > 1) os << "  " << second << " " << m[second];
    os << "\n";
  }
  if (limit < n) os << "# ... " << (n - limit) << " more items\n";
  os.flush();
}

double mean_max_membership(const Classification& c) {
  const std::size_t n = c.model().dataset().num_items();
  PAC_REQUIRE(n > 0);
  const std::size_t j = c.num_classes();
  KahanSum sum;
  std::vector<double> lj(kReportBlock * j);
  std::vector<double> lse(kReportBlock);
  std::vector<double> scratch(2 * kReportBlock);
  for (std::size_t begin = 0; begin < n; begin += kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + kReportBlock, n)};
    const std::size_t bn = block.size();
    fill_log_joint(c, block, lj.data());
    logsumexp_columns(lj.data(), bn, j, lse.data(), scratch.data());
    for (std::size_t r = 0; r < bn; ++r) {
      // max_j exp(row_j - lse): exp is monotone, so normalize only the max.
      const double best = lj[argmax_class(lj.data(), bn, j, r) * bn + r];
      sum.add(pac::exp(best - lse[r]));
    }
  }
  return sum.value() / static_cast<double>(n);
}

void print_report(std::ostream& os, const Classification& c) {
  const Model& model = c.model();
  os << "Classification report\n";
  os << "---------------------\n";
  os << c.describe();
  os << "mean max membership: " << mean_max_membership(c) << "\n";
  os << "\nInfluence values (class, term, KL vs global):\n";
  for (const InfluenceEntry& e : influence_report(c)) {
    os << "  class " << e.class_index << "  "
       << model.term(e.term_index).describe(
              c.param_block(e.class_index, e.term_index))
       << "  influence " << e.influence << "\n";
  }
  os.flush();
}

}  // namespace pac::ac
