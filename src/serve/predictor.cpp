#include "serve/predictor.hpp"

#include <algorithm>
#include <string>

#include "autoclass/report.hpp"
#include "serve/protocol.hpp"

namespace pac::serve {

AdmissionRules derive_admission_rules(const ac::Model& model) {
  const std::size_t n = model.dataset().schema().size();
  AdmissionRules rules;
  rules.requires_positive.assign(n, false);
  rules.forbids_missing.assign(n, false);
  for (std::size_t t = 0; t < model.num_terms(); ++t) {
    const ac::TermSpec& spec = model.term(t).spec();
    if (spec.kind == ac::TermKind::kSingleLognormal)
      for (const std::size_t a : spec.attributes)
        rules.requires_positive[a] = true;
    if (spec.kind == ac::TermKind::kMultiNormal)
      for (const std::size_t a : spec.attributes)
        rules.forbids_missing[a] = true;
  }
  return rules;
}

void validate_batch(const AdmissionRules& rules, const data::Dataset& batch) {
  const data::Schema& schema = batch.schema();
  const std::size_t n = batch.num_items();
  const data::ItemRange all{0, n};
  // One column view per attribute, fetched up front (query batches are
  // wire-decoded resident datasets, so these are zero-copy); the scan stays
  // row-major so the first error reported is unchanged.
  std::vector<data::ColumnBlockView<double>> real_cols(schema.size());
  std::vector<data::ColumnBlockView<std::int32_t>> disc_cols(schema.size());
  for (std::size_t a = 0; a < schema.size(); ++a) {
    if (schema.at(a).kind == data::AttributeKind::kReal)
      real_cols[a] = batch.real_block(a, all);
    else
      disc_cols[a] = batch.discrete_block(a, all);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < schema.size(); ++a) {
      const bool real = schema.at(a).kind == data::AttributeKind::kReal;
      const bool missing = real
                               ? data::is_missing_real(real_cols[a][i])
                               : disc_cols[a][i] == data::kMissingDiscrete;
      if (missing && rules.forbids_missing[a])
        throw ProtocolError("row " + std::to_string(i) + ", attribute '" +
                            schema.at(a).name +
                            "': missing value in a multi_normal block "
                            "(complete rows required)");
      if (!missing && rules.requires_positive[a] && real_cols[a][i] <= 0.0)
        throw ProtocolError("row " + std::to_string(i) + ", attribute '" +
                            schema.at(a).name + "': value " +
                            std::to_string(real_cols[a][i]) +
                            " must be > 0 under a lognormal term");
    }
  }
}

PredictOutput predict_batch(const ac::Classification& c,
                            const data::Dataset& batch,
                            bool want_membership) {
  // Rebind the trained model to the query rows; copy the classification's
  // parameters verbatim so the batched kernels see byte-identical state.
  const ac::Model eval_model = c.model().rebound(batch);
  const std::size_t j = c.num_classes();
  ac::Classification ec(eval_model, j);
  std::copy(c.log_pis().begin(), c.log_pis().end(),
            ec.mutable_log_pis().begin());
  std::copy(c.weights().begin(), c.weights().end(),
            ec.mutable_weights().begin());
  std::copy(c.all_params().begin(), c.all_params().end(),
            ec.all_params_mutable().begin());

  const std::size_t n = batch.num_items();
  PredictOutput out;
  out.labels.resize(n);
  if (want_membership) out.membership.resize(n * j);

  std::vector<double> lj(ac::kReportBlock * j);
  std::vector<double> lse(want_membership ? ac::kReportBlock : 0);
  std::vector<double> scratch(want_membership ? 2 * ac::kReportBlock : 0);
  for (std::size_t begin = 0; begin < n; begin += ac::kReportBlock) {
    const data::ItemRange block{begin, std::min(begin + ac::kReportBlock, n)};
    ac::fill_log_joint(ec, block, lj.data());
    for (std::size_t r = 0; r < block.size(); ++r)
      out.labels[block.begin + r] = static_cast<std::int32_t>(
          ac::argmax_class(lj.data(), block.size(), j, r));
    if (want_membership)
      ac::normalize_log_joint(lj.data(), block.size(), j,
                              out.membership.data() + block.begin * j,
                              lse.data(), scratch.data());
  }
  return out;
}

}  // namespace pac::serve
