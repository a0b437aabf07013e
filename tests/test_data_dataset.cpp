// Tests for Schema, Dataset storage, column statistics, and partitioners.
#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "util/error.hpp"

namespace pac::data {
namespace {

Schema two_attr_schema() {
  return Schema({Attribute::real("x", 0.01), Attribute::discrete("c", 3)});
}

TEST(Attribute, FactoriesValidate) {
  EXPECT_NO_THROW(Attribute::real("x", 0.5));
  EXPECT_THROW(Attribute::real("x", 0.0), pac::Error);
  EXPECT_NO_THROW(Attribute::discrete("c", 2));
  EXPECT_THROW(Attribute::discrete("c", 1), pac::Error);
}

TEST(Schema, BasicAccessors) {
  const Schema s = two_attr_schema();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.num_real(), 1u);
  EXPECT_EQ(s.num_discrete(), 1u);
  EXPECT_EQ(s.at(0).name, "x");
  EXPECT_EQ(s.index_of("c"), 1u);
  EXPECT_THROW(s.index_of("nope"), pac::Error);
  EXPECT_THROW(s.at(2), pac::Error);
}

TEST(Schema, EqualityComparesStructure) {
  EXPECT_TRUE(two_attr_schema() == two_attr_schema());
  const Schema other({Attribute::real("x", 0.01)});
  EXPECT_FALSE(two_attr_schema() == other);
}

TEST(Schema, RejectsEmptyNames) {
  EXPECT_THROW(Schema({Attribute::real("", 0.1)}), pac::Error);
}

TEST(Dataset, StartsAllMissing) {
  const Dataset d(two_attr_schema(), 5);
  EXPECT_EQ(d.num_items(), 5u);
  EXPECT_EQ(d.num_attributes(), 2u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(d.is_missing(i, 0));
    EXPECT_TRUE(d.is_missing(i, 1));
  }
  EXPECT_EQ(d.missing_count(0), 5u);
}

TEST(Dataset, SetAndGetValues) {
  Dataset d(two_attr_schema(), 3);
  d.set_real(0, 0, 1.5);
  d.set_discrete(0, 1, 2);
  EXPECT_DOUBLE_EQ(d.real_value(0, 0), 1.5);
  EXPECT_EQ(d.discrete_value(0, 1), 2);
  EXPECT_FALSE(d.is_missing(0, 0));
  EXPECT_FALSE(d.is_missing(0, 1));
  d.set_missing(0, 0);
  d.set_missing(0, 1);
  EXPECT_TRUE(d.is_missing(0, 0));
  EXPECT_TRUE(d.is_missing(0, 1));
}

TEST(Dataset, TypeAndRangeChecks) {
  Dataset d(two_attr_schema(), 3);
  EXPECT_THROW(d.set_real(0, 1, 1.0), pac::Error);      // attr 1 is discrete
  EXPECT_THROW(d.set_discrete(0, 0, 1), pac::Error);    // attr 0 is real
  EXPECT_THROW(d.set_discrete(0, 1, 3), pac::Error);    // out of range
  EXPECT_THROW(d.set_discrete(0, 1, -2), pac::Error);
  EXPECT_THROW(d.set_real(5, 0, 1.0), pac::Error);      // item out of range
  EXPECT_THROW(d.real_value(0, 9), pac::Error);
}

TEST(Dataset, ColumnsAreContiguousViews) {
  Dataset d(two_attr_schema(), 4);
  for (std::size_t i = 0; i < 4; ++i) d.set_real(i, 0, i * 1.0);
  const auto col = d.real_block(0, ItemRange{0, 4});
  ASSERT_EQ(col.size(), 4u);
  EXPECT_DOUBLE_EQ(col[3], 3.0);
  // A sub-range view starts at its first item, contiguous in the column.
  const auto tail = d.real_block(0, ItemRange{1, 4});
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.data(), col.data() + 1);
  EXPECT_THROW(d.real_block(1, ItemRange{0, 4}), pac::Error);
  EXPECT_THROW(d.discrete_block(0, ItemRange{0, 4}), pac::Error);
  EXPECT_THROW(d.real_block(0, ItemRange{0, 5}), pac::Error);
}

TEST(Dataset, RealStatsSkipMissing) {
  Dataset d(two_attr_schema(), 5);
  d.set_real(0, 0, 2.0);
  d.set_real(1, 0, 4.0);
  d.set_real(2, 0, 6.0);
  // items 3, 4 stay missing
  const auto s = d.real_stats(0);
  EXPECT_EQ(s.known, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_NEAR(s.variance, 8.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
}

TEST(Dataset, RealStatsAllMissingIsZero) {
  const Dataset d(two_attr_schema(), 3);
  const auto s = d.real_stats(0);
  EXPECT_EQ(s.known, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
}

TEST(Dataset, DiscreteFrequencies) {
  Dataset d(two_attr_schema(), 4);
  d.set_discrete(0, 1, 0);
  d.set_discrete(1, 1, 0);
  d.set_discrete(2, 1, 2);
  // item 3 missing
  const auto f = d.discrete_frequencies(1);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_NEAR(f[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(f[1], 0.0, 1e-12);
  EXPECT_NEAR(f[2], 1.0 / 3.0, 1e-12);
}

TEST(Dataset, DiscreteFrequenciesAllMissingIsUniform) {
  const Dataset d(two_attr_schema(), 3);
  const auto f = d.discrete_frequencies(1);
  for (double v : f) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(Dataset, SliceCopiesRows) {
  Dataset d(two_attr_schema(), 5);
  for (std::size_t i = 0; i < 5; ++i) {
    d.set_real(i, 0, static_cast<double>(i));
    d.set_discrete(i, 1, static_cast<std::int32_t>(i % 3));
  }
  const Dataset s = d.slice(1, 4);
  ASSERT_EQ(s.num_items(), 3u);
  EXPECT_DOUBLE_EQ(s.real_value(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.real_value(2, 0), 3.0);
  EXPECT_EQ(s.discrete_value(1, 1), 2);
  EXPECT_THROW(d.slice(3, 2), pac::Error);
  EXPECT_THROW(d.slice(0, 6), pac::Error);
}

// ---- partitioners ----

TEST(BlockPartition, CoversExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 101u, 12345u}) {
    for (int p : {1, 2, 3, 7, 10}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      for (int r = 0; r < p; ++r) {
        const ItemRange range = block_partition(n, p, r);
        EXPECT_EQ(range.begin, previous_end);
        previous_end = range.end;
        covered += range.size();
      }
      EXPECT_EQ(previous_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(BlockPartition, SizesDifferByAtMostOne) {
  for (std::size_t n : {10u, 11u, 99u, 100u}) {
    for (int p : {3, 7, 10}) {
      std::size_t lo = n, hi = 0;
      for (int r = 0; r < p; ++r) {
        const auto size = block_partition(n, p, r).size();
        lo = std::min(lo, size);
        hi = std::max(hi, size);
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

TEST(BlockPartition, FirstRanksGetTheExtras) {
  // 10 items over 3 ranks: 4, 3, 3.
  EXPECT_EQ(block_partition(10, 3, 0).size(), 4u);
  EXPECT_EQ(block_partition(10, 3, 1).size(), 3u);
  EXPECT_EQ(block_partition(10, 3, 2).size(), 3u);
}

TEST(BlockPartition, ValidatesArguments) {
  EXPECT_THROW(block_partition(10, 0, 0), pac::Error);
  EXPECT_THROW(block_partition(10, 2, 2), pac::Error);
  EXPECT_THROW(block_partition(10, 2, -1), pac::Error);
}

TEST(CyclicOwner, RoundRobins) {
  EXPECT_EQ(cyclic_owner(0, 4), 0);
  EXPECT_EQ(cyclic_owner(5, 4), 1);
  EXPECT_EQ(cyclic_owner(7, 4), 3);
}

TEST(ItemRange, SizeAndEmpty) {
  EXPECT_EQ((ItemRange{3, 7}).size(), 4u);
  EXPECT_TRUE((ItemRange{3, 3}).empty());
  EXPECT_FALSE((ItemRange{3, 4}).empty());
}

}  // namespace
}  // namespace pac::data
