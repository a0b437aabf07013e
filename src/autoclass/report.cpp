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
  for (std::size_t t = 0; t < model.num_terms(); ++t)
    for (std::size_t k = 0; k < j; ++k)
      model.term(t).log_prob_batch(block, c.param_block(k, t), lj + k * n);
}

void normalize_log_joint(const double* lj, std::size_t n, std::size_t j,
                         double* out, double* lse, double* scratch) {
  logsumexp_columns(lj, n, j, lse, scratch);
  double* t = scratch;
  for (std::size_t k = 0; k < j; ++k) {
    for (std::size_t r = 0; r < n; ++r) t[r] = lj[k * n + r] - lse[r];
    simd::exp_lanes(t, t, n);
    for (std::size_t r = 0; r < n; ++r) out[r * j + k] = t[r];
  }
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

/// Log joint over a foreign dataset's item.
std::vector<double> log_joint_foreign(const Classification& c,
                                      const data::Dataset& foreign,
                                      std::size_t item) {
  const Model& model = c.model();
  PAC_REQUIRE_MSG(foreign.schema() == model.dataset().schema(),
                  "foreign dataset schema differs from the training schema");
  PAC_REQUIRE(item < foreign.num_items());
  std::vector<double> row(c.num_classes());
  for (std::size_t j = 0; j < c.num_classes(); ++j) {
    double lp = c.log_pi(j);
    for (std::size_t t = 0; t < model.num_terms(); ++t)
      lp += model.term(t).log_prob_foreign(foreign, item,
                                           c.param_block(j, t));
    row[j] = lp;
  }
  return row;
}

}  // namespace

std::vector<double> predict_membership(const Classification& c,
                                       const data::Dataset& foreign,
                                       std::size_t item) {
  auto row = log_joint_foreign(c, foreign, item);
  const double lse = logsumexp(row);
  for (double& v : row) v = pac::exp(v - lse);
  return row;
}

std::vector<std::int32_t> predict_labels(const Classification& c,
                                         const data::Dataset& foreign) {
  std::vector<std::int32_t> labels(foreign.num_items());
  for (std::size_t i = 0; i < foreign.num_items(); ++i) {
    const auto row = log_joint_foreign(c, foreign, i);
    labels[i] = static_cast<std::int32_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return labels;
}

double predict_log_likelihood(const Classification& c,
                              const data::Dataset& foreign) {
  KahanSum total;
  for (std::size_t i = 0; i < foreign.num_items(); ++i)
    total.add(logsumexp(log_joint_foreign(c, foreign, i)));
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
