#include "data/dataset.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pac::data {

Dataset::Dataset() : store_(std::make_shared<ResidentStore>(Schema(), 0)) {}

Dataset::Dataset(Schema schema, std::size_t num_items)
    : store_(std::make_shared<ResidentStore>(std::move(schema), num_items)) {}

Dataset::Dataset(std::shared_ptr<ColumnStore> store)
    : store_(std::move(store)) {
  PAC_REQUIRE(store_ != nullptr);
}

Dataset::Dataset(const Dataset& other)
    : store_(other.store_ ? other.store_->clone() : nullptr) {}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this != &other) store_ = other.store_ ? other.store_->clone() : nullptr;
  return *this;
}

void Dataset::check_attr(std::size_t attr, AttributeKind kind,
                         const char* what) const {
  PAC_REQUIRE_MSG(attr < schema().size(), "attr " << attr << " out of range");
  PAC_REQUIRE_MSG(schema().at(attr).kind == kind,
                  "attribute " << attr << " ('" << schema().at(attr).name
                               << "') is not " << what);
}

void Dataset::check_item(std::size_t item, std::size_t attr) const {
  PAC_REQUIRE_MSG(item < num_items(), "item " << item << " out of range");
  PAC_REQUIRE_MSG(attr < schema().size(), "attr " << attr << " out of range");
}

ResidentStore& Dataset::require_resident(const char* what) {
  PAC_REQUIRE_MSG(store_->resident(),
                  what << " requires the resident backend (chunk-backed "
                          "datasets are read-only)");
  return static_cast<ResidentStore&>(*store_);
}

double Dataset::real_value(std::size_t item, std::size_t attr) const {
  check_item(item, attr);
  check_attr(attr, AttributeKind::kReal, "real");
  return store_->real_value(item, attr);
}

std::int32_t Dataset::discrete_value(std::size_t item,
                                     std::size_t attr) const {
  check_item(item, attr);
  check_attr(attr, AttributeKind::kDiscrete, "discrete");
  return store_->discrete_value(item, attr);
}

bool Dataset::is_missing(std::size_t item, std::size_t attr) const {
  check_item(item, attr);
  if (schema().at(attr).kind == AttributeKind::kReal)
    return is_missing_real(store_->real_value(item, attr));
  return store_->discrete_value(item, attr) == kMissingDiscrete;
}

void Dataset::set_real(std::size_t item, std::size_t attr, double value) {
  check_item(item, attr);
  check_attr(attr, AttributeKind::kReal, "real");
  require_resident("set_real").set_real(item, attr, value);
}

void Dataset::set_discrete(std::size_t item, std::size_t attr,
                           std::int32_t value) {
  check_item(item, attr);
  check_attr(attr, AttributeKind::kDiscrete, "discrete");
  PAC_REQUIRE_MSG(value >= 0 && value < schema().at(attr).num_values,
                  "discrete value " << value << " out of range for '"
                                    << schema().at(attr).name << "' with "
                                    << schema().at(attr).num_values
                                    << " values");
  require_resident("set_discrete").set_discrete(item, attr, value);
}

void Dataset::set_missing(std::size_t item, std::size_t attr) {
  check_item(item, attr);
  require_resident("set_missing").set_missing(item, attr);
}

ColumnBlockView<double> Dataset::real_block(std::size_t attr,
                                            ItemRange range) const {
  check_attr(attr, AttributeKind::kReal, "real");
  PAC_REQUIRE(range.begin <= range.end && range.end <= num_items());
  return store_->real_block(attr, range);
}

ColumnBlockView<std::int32_t> Dataset::discrete_block(std::size_t attr,
                                                      ItemRange range) const {
  check_attr(attr, AttributeKind::kDiscrete, "discrete");
  PAC_REQUIRE(range.begin <= range.end && range.end <= num_items());
  return store_->discrete_block(attr, range);
}

const ColumnProfile& Dataset::profile(std::size_t attr) const {
  PAC_REQUIRE_MSG(attr < schema().size(), "attr " << attr << " out of range");
  return store_->profile(attr);
}

Dataset::RealStats Dataset::real_stats(std::size_t attr) const {
  check_attr(attr, AttributeKind::kReal, "real");
  return store_->profile(attr).stats;
}

std::vector<double> Dataset::discrete_frequencies(std::size_t attr) const {
  check_attr(attr, AttributeKind::kDiscrete, "discrete");
  const ColumnProfile& p = store_->profile(attr);
  std::vector<double> freq = p.counts;
  if (p.known == 0) {
    std::fill(freq.begin(), freq.end(),
              1.0 / static_cast<double>(freq.size()));
    return freq;
  }
  for (double& f : freq) f /= static_cast<double>(p.known);
  return freq;
}

std::size_t Dataset::missing_count(std::size_t attr) const {
  PAC_REQUIRE(attr < schema().size());
  return store_->profile(attr).missing;
}

Dataset Dataset::slice(std::size_t begin, std::size_t end) const {
  PAC_REQUIRE(begin <= end && end <= num_items());
  Dataset out(schema(), end - begin);
  auto& dst = static_cast<ResidentStore&>(*out.store_);
  const ItemRange range{begin, end};
  for (std::size_t a = 0; a < schema().size(); ++a) {
    if (schema().at(a).kind == AttributeKind::kReal) {
      const auto src = store_->real_block(a, range);
      std::copy(src.data(), src.data() + src.size(),
                dst.mutable_real(a).data());
    } else {
      const auto src = store_->discrete_block(a, range);
      std::copy(src.data(), src.data() + src.size(),
                dst.mutable_discrete(a).data());
    }
  }
  return out;
}

Dataset Dataset::gather(std::span<const std::size_t> items) const {
  Dataset out(schema(), items.size());
  auto& dst = static_cast<ResidentStore&>(*out.store_);
  for (std::size_t a = 0; a < schema().size(); ++a) {
    if (schema().at(a).kind == AttributeKind::kReal) {
      const std::span<double> col = dst.mutable_real(a);
      for (std::size_t q = 0; q < items.size(); ++q)
        col[q] = real_value(items[q], a);
    } else {
      const std::span<std::int32_t> col = dst.mutable_discrete(a);
      for (std::size_t q = 0; q < items.size(); ++q)
        col[q] = discrete_value(items[q], a);
    }
  }
  return out;
}

ItemRange block_partition(std::size_t n, int p, int rank) {
  PAC_REQUIRE(p >= 1);
  PAC_REQUIRE(rank >= 0 && rank < p);
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t extra = n % static_cast<std::size_t>(p);
  const auto r = static_cast<std::size_t>(rank);
  const std::size_t begin = r * base + std::min(r, extra);
  const std::size_t size = base + (r < extra ? 1 : 0);
  return ItemRange{begin, begin + size};
}

int cyclic_owner(std::size_t item, int p) noexcept {
  return static_cast<int>(item % static_cast<std::size_t>(p));
}

ItemRange skewed_partition(std::size_t n, int p, int rank, double skew) {
  PAC_REQUIRE(p >= 1);
  PAC_REQUIRE(rank >= 0 && rank < p);
  PAC_REQUIRE_MSG(skew >= 1.0, "skew must be >= 1 (1 = balanced)");
  if (p == 1) return ItemRange{0, n};
  const double average = static_cast<double>(n) / static_cast<double>(p);
  const std::size_t first =
      std::min(n, static_cast<std::size_t>(skew * average));
  if (rank == 0) return ItemRange{0, first};
  const ItemRange rest = block_partition(n - first, p - 1, rank - 1);
  return ItemRange{first + rest.begin, first + rest.end};
}

}  // namespace pac::data
