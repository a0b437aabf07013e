#include "autoclass/model.hpp"

#include <algorithm>

#include "autoclass/terms.hpp"
#include "util/error.hpp"

namespace pac::ac {

const char* to_string(TermKind kind) noexcept {
  switch (kind) {
    case TermKind::kSingleNormal: return "single_normal";
    case TermKind::kSingleMultinomial: return "single_multinomial";
    case TermKind::kMultiNormal: return "multi_normal";
    case TermKind::kSingleLognormal: return "single_lognormal";
    case TermKind::kIgnore: return "ignore";
  }
  return "?";
}

void Term::log_prob_batch(data::ItemRange range,
                          std::span<const double> params, double* out) const {
  for (std::size_t i = range.begin; i < range.end; ++i)
    out[i - range.begin] += log_prob(i, params);
}

void Term::accumulate_batch_fast(data::ItemRange range, const double* weights,
                                 std::size_t stride,
                                 std::span<double> stats) const {
  accumulate_batch(range, weights, stride, stats);
}

void Term::accumulate_batch(data::ItemRange range, const double* weights,
                            std::size_t stride,
                            std::span<double> stats) const {
  for (std::size_t i = range.begin; i < range.end; ++i, weights += stride) {
    const double w = *weights;
    if (w <= 0.0) continue;
    accumulate(i, w, stats);
  }
}

void Term::seed_distance_batch(data::ItemRange range, std::size_t seed_item,
                               double* out, std::size_t stride) const {
  for (std::size_t i = range.begin; i < range.end; ++i, out += stride)
    *out += seed_distance(i, seed_item);
}

std::unique_ptr<Term> Term::rebind(const data::Dataset&) const {
  PAC_REQUIRE_MSG(false, "term family '" << to_string(spec_.kind)
                                         << "' does not support rebinding");
  return nullptr;
}

Model::Model(const data::Dataset& data, std::vector<TermSpec> specs,
             ModelConfig config)
    : data_(&data), config_(config) {
  PAC_REQUIRE_MSG(!specs.empty(), "a model needs at least one term");
  PAC_REQUIRE(data.num_items() > 0);
  // Every attribute must be covered by exactly one term.
  std::vector<int> covered(data.num_attributes(), 0);
  for (const TermSpec& spec : specs) {
    PAC_REQUIRE_MSG(!spec.attributes.empty(), "term covers no attributes");
    for (const std::size_t a : spec.attributes) {
      PAC_REQUIRE_MSG(a < data.num_attributes(),
                      "term attribute index " << a << " out of range");
      PAC_REQUIRE_MSG(covered[a] == 0, "attribute "
                                           << a << " ('"
                                           << data.schema().at(a).name
                                           << "') covered by two terms");
      covered[a] = 1;
    }
  }
  for (std::size_t a = 0; a < covered.size(); ++a)
    PAC_REQUIRE_MSG(covered[a] == 1, "attribute "
                                         << a << " ('"
                                         << data.schema().at(a).name
                                         << "') not covered by any term");
  terms_.reserve(specs.size());
  for (TermSpec& spec : specs) {
    covered_attrs_ += spec.attributes.size();
    terms_.push_back(detail::make_term(std::move(spec), data, config_));
  }
  param_offsets_.resize(terms_.size());
  stats_offsets_.resize(terms_.size());
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    param_offsets_[t] = params_per_class_;
    stats_offsets_[t] = stats_per_class_;
    params_per_class_ += terms_[t]->param_size();
    stats_per_class_ += terms_[t]->stats_size();
  }
}

Model Model::default_model(const data::Dataset& data, ModelConfig config) {
  std::vector<TermSpec> specs;
  for (std::size_t a = 0; a < data.num_attributes(); ++a) {
    TermSpec spec;
    spec.kind = data.schema().at(a).kind == data::AttributeKind::kReal
                    ? TermKind::kSingleNormal
                    : TermKind::kSingleMultinomial;
    spec.attributes = {a};
    specs.push_back(std::move(spec));
  }
  return Model(data, std::move(specs), config);
}

Model Model::correlated_model(const data::Dataset& data, ModelConfig config) {
  std::vector<TermSpec> specs;
  TermSpec block;
  block.kind = TermKind::kMultiNormal;
  for (std::size_t a = 0; a < data.num_attributes(); ++a) {
    if (data.schema().at(a).kind == data::AttributeKind::kReal) {
      block.attributes.push_back(a);
    } else {
      TermSpec spec;
      spec.kind = TermKind::kSingleMultinomial;
      spec.attributes = {a};
      specs.push_back(std::move(spec));
    }
  }
  if (block.attributes.size() == 1) {
    TermSpec single;
    single.kind = TermKind::kSingleNormal;
    single.attributes = block.attributes;
    specs.push_back(std::move(single));
  } else if (!block.attributes.empty()) {
    specs.push_back(std::move(block));
  }
  return Model(data, std::move(specs), config);
}

Model Model::rebound(const data::Dataset& target) const {
  PAC_REQUIRE_MSG(target.schema() == data_->schema(),
                  "rebound dataset schema differs from the training schema");
  PAC_REQUIRE_MSG(target.num_items() > 0, "rebound dataset is empty");
  Model m;
  m.data_ = &target;
  m.config_ = config_;
  m.terms_.reserve(terms_.size());
  for (const auto& t : terms_) m.terms_.push_back(t->rebind(target));
  m.param_offsets_ = param_offsets_;
  m.stats_offsets_ = stats_offsets_;
  m.params_per_class_ = params_per_class_;
  m.stats_per_class_ = stats_per_class_;
  m.covered_attrs_ = covered_attrs_;
  return m;
}

std::size_t Model::free_params(std::size_t num_classes) const noexcept {
  std::size_t per_class = 0;
  for (const auto& t : terms_) per_class += t->free_params();
  return num_classes * per_class + (num_classes - 1);
}

}  // namespace pac::ac
