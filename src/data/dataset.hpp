// Column-major typed dataset facade over a pluggable ColumnStore backend.
//
// Real columns hold double (NaN encodes a missing value); discrete columns
// hold int32_t in [0, num_values) (kMissingDiscrete encodes missing).
// Column-major layout keeps the per-attribute EM inner loops contiguous,
// which is where nearly all cycles go (paper Sec. 3: base_cycle is 99.5 % of
// the runtime).
//
// A Dataset is immutable once built in the clustering path; SPMD ranks hold a
// shared const reference and each touches only its own partition's rows —
// semantically identical to every node holding just its chunk, since access
// is read-only (DESIGN.md, substitutions).  Storage lives behind a
// ColumnStore (column_store.hpp): the default ResidentStore keeps whole
// columns in memory, while a ChunkedStore streams a .pacb file under a
// bounded budget.  Kernels consume either through the same per-block
// real_block / discrete_block views.
#pragma once

#include <memory>
#include <span>

#include "data/column_store.hpp"

namespace pac::data {

class Dataset {
 public:
  /// Empty dataset (no attributes, no items).
  Dataset();

  /// Allocate `num_items` resident rows of `schema`, all values missing.
  Dataset(Schema schema, std::size_t num_items);

  /// Wrap an existing backend (e.g. ChunkedStore::open).
  explicit Dataset(std::shared_ptr<ColumnStore> store);

  // Copies clone the backend (deep for resident, shared for chunked).
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  const Schema& schema() const noexcept { return store_->schema(); }
  std::size_t num_items() const noexcept { return store_->num_items(); }
  std::size_t num_attributes() const noexcept { return schema().size(); }

  /// True on the in-memory backend (the one that allows mutation).
  bool resident() const noexcept { return store_->resident(); }
  const ColumnStore& store() const noexcept { return *store_; }

  // ---- element access ----

  double real_value(std::size_t item, std::size_t attr) const;
  std::int32_t discrete_value(std::size_t item, std::size_t attr) const;
  bool is_missing(std::size_t item, std::size_t attr) const;

  // Mutation requires the resident backend.
  void set_real(std::size_t item, std::size_t attr, double value);
  void set_discrete(std::size_t item, std::size_t attr, std::int32_t value);
  void set_missing(std::size_t item, std::size_t attr);

  // ---- block access (works on every backend) ----

  /// View of a real column over `range` (NaN = missing); element 0 is item
  /// range.begin.  The view keeps any backing chunk alive.
  ColumnBlockView<double> real_block(std::size_t attr, ItemRange range) const;
  /// Same for a discrete column (kMissingDiscrete = missing).
  ColumnBlockView<std::int32_t> discrete_block(std::size_t attr,
                                               ItemRange range) const;

  // ---- statistics used for empirical-Bayes priors ----
  //
  // Computed once per column (streaming single pass at load / first use)
  // and cached; these no longer re-scan the column per call.

  using RealStats = data::RealStats;

  /// Cached per-column profile (stats / symbol counts / missing count).
  const ColumnProfile& profile(std::size_t attr) const;

  /// Mean/variance/range of a real column over known values.
  RealStats real_stats(std::size_t attr) const;

  /// Global relative frequency of each symbol of a discrete column
  /// (normalized over known values; uniform if all missing).
  std::vector<double> discrete_frequencies(std::size_t attr) const;

  /// Count of missing entries in a column.
  std::size_t missing_count(std::size_t attr) const;

  /// Copy rows [begin, end) into a new resident Dataset.
  Dataset slice(std::size_t begin, std::size_t end) const;

  /// Copy the listed rows, in list order (repeats allowed), into a new
  /// resident Dataset: row q of the result is row items[q] of this one.
  Dataset gather(std::span<const std::size_t> items) const;

 private:
  void check_attr(std::size_t attr, AttributeKind kind, const char* what) const;
  void check_item(std::size_t item, std::size_t attr) const;
  ResidentStore& require_resident(const char* what);

  std::shared_ptr<ColumnStore> store_;
};

/// Contiguous block partition of n items over p ranks: the first (n % p)
/// ranks get one extra item, matching the paper's equal-size split
/// ("each processor executes the same code on data of equal size", Sec. 3).
ItemRange block_partition(std::size_t n, int p, int rank);

/// Cyclic partition ownership: item i belongs to rank i % p.  Provided for
/// ablations; P-AutoClass itself uses block partitioning.
int cyclic_owner(std::size_t item, int p) noexcept;

/// Deliberately unbalanced block partition for the load-imbalance ablation:
/// rank 0's share is `skew` times the average (capped at the whole set) and
/// the remainder is split evenly.  skew == 1 reduces to block_partition.
ItemRange skewed_partition(std::size_t n, int p, int rank, double skew);

}  // namespace pac::data
