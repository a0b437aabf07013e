// Column storage backends behind data::Dataset.
//
// The kernel layers (autoclass terms, EM, serving) consume columns in fixed
// 256-item blocks (em.cpp's kEStepBlock).  A ColumnStore hands out one
// ColumnBlockView per (attribute, item range) request; the two backends share
// that call-site shape:
//
//   * ResidentStore — today's fully in-memory columns.  A block view is a
//     zero-copy pointer into the column vector.
//   * ChunkedStore — out-of-core columns backed by a .pacb file (see
//     format.hpp).  Chunks are pread() on demand into an LRU cache bounded
//     by PAC_DATA_BUDGET_MB; a block view pins its chunk (shared_ptr) so
//     eviction can never invalidate a view the kernels still hold.
//
// Determinism contract: a block view exposes exactly the same values as the
// resident column slice, so every EM trajectory is memcmp-identical between
// backends at fixed block size (DESIGN.md §10).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "data/schema.hpp"

namespace pac::data {

namespace format {
struct PacbLayout;
}  // namespace format

inline constexpr std::int32_t kMissingDiscrete = -1;

inline double missing_real() noexcept {
  return std::numeric_limits<double>::quiet_NaN();
}

inline bool is_missing_real(double v) noexcept { return std::isnan(v); }

/// Half-open range of item indices owned by one rank.
struct ItemRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin >= end; }
};

/// Column summary statistics for the empirical-Bayes priors.
struct RealStats {
  double mean = 0.0;
  double variance = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t known = 0;
};

/// Per-column load-time profile: computed once (streaming single pass, in
/// item order so the floating-point results match a naive column scan bit
/// for bit) and cached, instead of re-scanning the column on every
/// real_stats / discrete_frequencies / missing_count call in the init paths.
struct ColumnProfile {
  RealStats stats;            // real attributes only
  std::vector<double> counts;  // discrete only: raw per-symbol counts
  std::size_t known = 0;
  std::size_t missing = 0;
};

/// Streaming single-pass builder for ColumnProfile.  Values must be fed in
/// item order; the accumulation order is the bit-identity contract shared by
/// the resident column scan and the .pacb writer.
class ProfileBuilder {
 public:
  explicit ProfileBuilder(const Attribute& attr);

  /// Real attribute: NaN is missing.
  void add_real(double v) noexcept;
  /// Discrete attribute: kMissingDiscrete is missing; v must be in range.
  void add_discrete(std::int32_t v) noexcept;

  ColumnProfile finish() const;

 private:
  bool real_ = true;
  // West's weighted Welford update, inlined so format.cpp does not need
  // util/math.hpp in this header.  Matches WeightedMoments::add bit for bit.
  double weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> counts_;
  std::size_t known_ = 0;
  std::size_t missing_ = 0;
};

/// A read-only window onto `size` consecutive column values, element 0 being
/// the first item of the range that produced it.  May point straight into a
/// resident column (no ownership) or into a cached/assembled chunk buffer
/// kept alive by `pin_` for the lifetime of the view.
template <class T>
class ColumnBlockView {
 public:
  ColumnBlockView() = default;
  ColumnBlockView(const T* data, std::size_t size,
                  std::shared_ptr<const void> pin = nullptr)
      : data_(data), size_(size), pin_(std::move(pin)) {}

  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<const void> pin_;
};

/// Abstract column backend.  Arguments are pre-validated by Dataset (attr in
/// range and of the right kind, range within [0, num_items]).
class ColumnStore {
 public:
  virtual ~ColumnStore() = default;

  const Schema& schema() const noexcept { return schema_; }
  std::size_t num_items() const noexcept { return num_items_; }

  /// True when whole-column spans are available (ResidentStore).
  virtual bool resident() const noexcept = 0;

  virtual ColumnBlockView<double> real_block(std::size_t attr,
                                             ItemRange range) const = 0;
  virtual ColumnBlockView<std::int32_t> discrete_block(
      std::size_t attr, ItemRange range) const = 0;

  virtual double real_value(std::size_t item, std::size_t attr) const = 0;
  virtual std::int32_t discrete_value(std::size_t item,
                                      std::size_t attr) const = 0;

  /// Load-time column profile (lazily computed and cached for resident
  /// stores; read from the file for chunked stores).
  virtual const ColumnProfile& profile(std::size_t attr) const = 0;

  /// Backend-appropriate copy: deep for resident stores, shared for
  /// chunked stores (the file and cache are immutable, so sharing is safe).
  virtual std::shared_ptr<ColumnStore> clone() = 0;

 protected:
  ColumnStore(Schema schema, std::size_t num_items)
      : schema_(std::move(schema)), num_items_(num_items) {}

  Schema schema_;
  std::size_t num_items_ = 0;
};

/// Fully in-memory columns (the default backend; today's behavior).
class ResidentStore final : public ColumnStore {
 public:
  /// All values start missing.
  ResidentStore(Schema schema, std::size_t num_items);

  bool resident() const noexcept override { return true; }

  ColumnBlockView<double> real_block(std::size_t attr,
                                     ItemRange range) const override;
  ColumnBlockView<std::int32_t> discrete_block(std::size_t attr,
                                               ItemRange range) const override;

  double real_value(std::size_t item, std::size_t attr) const override;
  std::int32_t discrete_value(std::size_t item,
                              std::size_t attr) const override;

  const ColumnProfile& profile(std::size_t attr) const override;
  std::shared_ptr<ColumnStore> clone() override;

  // Mutation (loader / builder paths; invalidates the column's profile).
  void set_real(std::size_t item, std::size_t attr, double value);
  void set_discrete(std::size_t item, std::size_t attr, std::int32_t value);
  void set_missing(std::size_t item, std::size_t attr);
  /// Raw writable column for bulk loaders (format.cpp, slice).
  std::span<double> mutable_real(std::size_t attr);
  std::span<std::int32_t> mutable_discrete(std::size_t attr);

  /// Install precomputed profiles (e.g. the ones stored in a .pacb file;
  /// they are bit-identical to what the lazy scan would produce).
  void adopt_profiles(std::vector<ColumnProfile> profiles);

 private:
  ColumnProfile compute_profile(std::size_t attr) const;

  // One entry per attribute; the variant alternative matches the kind.
  std::vector<std::variant<std::vector<double>, std::vector<std::int32_t>>>
      columns_;
  // Lazy per-column profile cache.  The mutex only guards lazy *compute*:
  // in-process transports run ranks as threads over one shared const
  // Dataset, and all of them may race to fill the cache.  Mutating a column
  // while another thread reads its profile is as undefined as mutating the
  // column data itself mid-read.
  mutable std::mutex profile_mutex_;
  mutable std::vector<std::unique_ptr<ColumnProfile>> profiles_;
};

/// Out-of-core columns backed by an open .pacb file.
///
/// Chunks (chunk_rows consecutive items of one column) load on demand via
/// pread() and live in an LRU cache bounded by `budget_bytes` (at least one
/// chunk stays cached regardless of the budget, so progress is always
/// possible).  Block requests that straddle chunks are assembled into a
/// transient pinned buffer.  Every chunk load re-verifies the stored CRC and
/// throws format::FormatError naming the chunk and column on mismatch.
class ChunkedStore final : public ColumnStore,
                           public std::enable_shared_from_this<ChunkedStore> {
 public:
  /// budget_bytes == 0 means: take PAC_DATA_BUDGET_MB from the environment,
  /// defaulting to 256 MB.
  static std::shared_ptr<ChunkedStore> open(const std::string& path,
                                            std::size_t budget_bytes = 0);
  ~ChunkedStore() override;

  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;

  bool resident() const noexcept override { return false; }

  ColumnBlockView<double> real_block(std::size_t attr,
                                     ItemRange range) const override;
  ColumnBlockView<std::int32_t> discrete_block(std::size_t attr,
                                               ItemRange range) const override;

  double real_value(std::size_t item, std::size_t attr) const override;
  std::int32_t discrete_value(std::size_t item,
                              std::size_t attr) const override;

  const ColumnProfile& profile(std::size_t attr) const override;
  std::shared_ptr<ColumnStore> clone() override;

  std::size_t chunk_rows() const noexcept;
  std::size_t num_chunks() const noexcept;
  std::size_t budget_bytes() const noexcept { return budget_bytes_; }
  /// Total chunk loads so far; loads > distinct chunks proves eviction.
  std::size_t chunk_loads() const;
  std::size_t cached_bytes() const;

 private:
  ChunkedStore(std::string path, int fd,
               std::unique_ptr<format::PacbLayout> layout,
               std::size_t budget_bytes);

  struct Chunk {
    std::shared_ptr<const void> pin;  // owns the buffer
    const void* data = nullptr;       // typed start of the chunk's values
    std::size_t bytes = 0;
    std::list<std::size_t>::iterator lru_it;
  };

  // All return with the chunk pinned by the caller-held shared_ptr.
  const Chunk& load_chunk_locked(std::size_t attr, std::size_t c) const;
  template <class T>
  ColumnBlockView<T> block(std::size_t attr, ItemRange range) const;

  std::string path_;
  int fd_ = -1;
  std::unique_ptr<format::PacbLayout> layout_;
  std::size_t budget_bytes_ = 0;

  mutable std::mutex mutex_;
  mutable std::unordered_map<std::size_t, Chunk> cache_;  // attr*chunks + c
  mutable std::list<std::size_t> lru_;                    // front = hottest
  mutable std::size_t cached_bytes_ = 0;
  mutable std::size_t loads_ = 0;
};

}  // namespace pac::data
