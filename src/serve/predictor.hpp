// Request admission for pac_serve.
//
// Served predictions have no evaluator of their own: the server hands
// wire-decoded query rows to ac::predict_batch (autoclass/report.hpp), the
// one foreign-row path that predict_labels / predict_membership also take.
// Responses are therefore bit-identical to the offline helpers and to the
// scalar oracle on equal rows — the contract tests/test_serve.cpp
// memcmp-checks.
//
// Admission rules are derived ONCE from the model's term structure and
// enforced per request at decode time (on the connection's reader thread),
// so a row that violates a family precondition — a non-positive value
// under a lognormal term, a missing value inside a multi_normal block —
// fails that one request with a named row/attribute instead of throwing
// mid-batch and poisoning co-batched neighbours.
#pragma once

#include <cstdint>
#include <vector>

#include "autoclass/report.hpp"
#include "data/dataset.hpp"

namespace pac::serve {

/// Per-attribute admission constraints implied by the model's term families.
struct AdmissionRules {
  /// Attribute must be > 0 when present (single_lognormal).
  std::vector<bool> requires_positive;
  /// Attribute must not be missing (member of a multi_normal block).
  std::vector<bool> forbids_missing;
};

/// Derive the admission rules from `model`'s term structure.
AdmissionRules derive_admission_rules(const ac::Model& model);

/// Check every row of `batch` against `rules`; throws ProtocolError naming
/// the first offending row and attribute.
void validate_batch(const AdmissionRules& rules, const data::Dataset& batch);

// Re-exported only because perfbench/ calls these names through serve::.
using ac::predict_batch;
using ac::PredictOutput;

}  // namespace pac::serve
