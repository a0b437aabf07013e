// Collective-operation tests for the minimpi runtime, parameterized over
// rank counts (including non-powers of two).
#include <gtest/gtest.h>

#include <numeric>
#include <string_view>
#include <vector>

#include "mp/comm.hpp"

namespace pac::mp {
namespace {

World::Config zero_config(int ranks) {
  World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = net::ideal_machine();
  return cfg;
}

class CollectivesTest : public ::testing::TestWithParam<int> {
 protected:
  int ranks() const { return GetParam(); }
};

TEST_P(CollectivesTest, BarrierCompletes) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectivesTest, BroadcastReplicatesRootData) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    const int root = comm.size() - 1;
    std::vector<double> data(8, 0.0);
    if (comm.rank() == root)
      std::iota(data.begin(), data.end(), 10.0);
    comm.broadcast<double>(data, root);
    for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(data[i], 10.0 + i);
  });
}

TEST_P(CollectivesTest, AllreduceSum) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    const int p = comm.size();
    std::vector<double> in = {1.0, static_cast<double>(comm.rank())};
    std::vector<double> out(2);
    comm.allreduce<double>(in, out, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(out[0], p);
    EXPECT_DOUBLE_EQ(out[1], p * (p - 1) / 2.0);
  });
}

TEST_P(CollectivesTest, AllreduceMinMax) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    double lo = 0.0, hi = 0.0;
    comm.allreduce<double>(std::span<const double>(&mine, 1),
                           std::span<double>(&lo, 1), ReduceOp::kMin);
    comm.allreduce<double>(std::span<const double>(&mine, 1),
                           std::span<double>(&hi, 1), ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(lo, 1.0);
    EXPECT_DOUBLE_EQ(hi, comm.size());
  });
}

TEST_P(CollectivesTest, AllreduceInPlace) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    std::vector<double> io(4, 1.0);
    comm.allreduce_inplace<double>(io, ReduceOp::kSum);
    for (double v : io) EXPECT_DOUBLE_EQ(v, comm.size());
  });
}

TEST_P(CollectivesTest, AllreduceScalar) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(1.5), 1.5 * comm.size());
  });
}

TEST_P(CollectivesTest, AllreduceIntegers) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    std::int64_t v = comm.rank();
    std::int64_t out = 0;
    comm.allreduce<std::int64_t>(std::span<const std::int64_t>(&v, 1),
                                 std::span<std::int64_t>(&out, 1),
                                 ReduceOp::kMax);
    EXPECT_EQ(out, comm.size() - 1);
  });
}

TEST_P(CollectivesTest, AllgatherGivesEveryoneEverything) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    const int p = comm.size();
    const double mine = 100.0 + comm.rank();
    std::vector<double> all(p);
    comm.allgather<double>(std::span<const double>(&mine, 1), all);
    for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(all[r], 100.0 + r);
  });
}

TEST_P(CollectivesTest, AllgatherValueConvenience) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    const auto all = comm.allgather_value<int>(comm.rank() * comm.rank());
    ASSERT_EQ(static_cast<int>(all.size()), comm.size());
    for (int r = 0; r < comm.size(); ++r) EXPECT_EQ(all[r], r * r);
  });
}

TEST_P(CollectivesTest, RepeatedCollectivesStayConsistent) {
  World world(zero_config(ranks()));
  world.run([](Comm& comm) {
    double acc = 1.0;
    for (int i = 0; i < 50; ++i) acc = comm.allreduce_scalar(acc) /
                                       comm.size();
    EXPECT_NEAR(acc, 1.0, 1e-9);
  });
}

TEST_P(CollectivesTest, DeterministicAcrossRuns) {
  World world(zero_config(ranks()));
  auto run_once = [&] {
    std::vector<double> result(3);
    world.run([&](Comm& comm) {
      // Awkward values that expose reduction-order differences.
      std::vector<double> in = {1e16 * (comm.rank() + 1), 1.0 / 3.0,
                                -1e16 * (comm.rank() + 1) + 0.125};
      std::vector<double> out(3);
      comm.allreduce<double>(in, out, ReduceOp::kSum);
      if (comm.rank() == 0) result = out;
    });
    return result;
  };
  const auto a = run_once();
  const auto b = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(a[i], b[i]);  // bit-identical
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 10, 16));

TEST(Split, GroupsByColorAndOrdersByKey) {
  World world(zero_config(6));
  world.run([](Comm& comm) {
    // Even ranks -> color 0, odd -> color 1; key reverses rank order.
    const int color = comm.rank() % 2;
    const int key = -comm.rank();
    Comm sub = comm.split(color, key);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    // Highest world rank gets sub-rank 0 (smallest key).
    const auto members = sub.allgather_value<int>(comm.rank());
    for (int i = 1; i < 3; ++i) EXPECT_LT(members[i], members[i - 1]);
    // Collectives inside the subgroup only see the subgroup.
    const double sum = sub.allreduce_scalar(1.0);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

TEST(Split, NegativeColorOptsOut) {
  World world(zero_config(4));
  world.run([](Comm& comm) {
    const int color = comm.rank() == 0 ? -1 : 7;
    Comm sub = comm.split(color, comm.rank());
    if (comm.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
      EXPECT_DOUBLE_EQ(sub.allreduce_scalar(1.0), 3.0);
    }
  });
}

TEST(Split, SubgroupPt2PtDoesNotLeakIntoParent) {
  World world(zero_config(4));
  world.run([](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 2, comm.rank());
    ASSERT_TRUE(sub.valid());
    // Exchange within each pair using sub-ranks.
    const int peer = 1 - sub.rank();
    sub.send_value<int>(peer, 0, comm.rank());
    const int got = sub.recv_value<int>(peer, 0);
    // Peer is the adjacent world rank within the same pair.
    EXPECT_EQ(got / 2, comm.rank() / 2);
    EXPECT_NE(got, comm.rank());
    comm.barrier();
  });
}

TEST_P(CollectivesTest, InstrumentedAllreduceByteCountersExact) {
  World::Config cfg = zero_config(ranks());
  cfg.instrument = true;
  World world(cfg);
  constexpr int kCalls = 3;
  constexpr std::size_t kElems = 17;
  RunStats stats = world.run([](Comm& comm) {
    std::vector<double> v(kElems, static_cast<double>(comm.rank()));
    for (int i = 0; i < kCalls; ++i)
      comm.allreduce_inplace<double>(v, ReduceOp::kSum);
  });
  ASSERT_TRUE(stats.instrumented);
  // Every rank counts the payload it contributes to each allreduce, so the
  // merged counter is exactly nranks x calls x payload bytes.
  const auto expected = static_cast<std::uint64_t>(ranks()) * kCalls *
                        kElems * sizeof(double);
  EXPECT_EQ(stats.metrics.counter_value("mp.allreduce.bytes"), expected);
  EXPECT_EQ(stats.metrics.counter_value("mp.allreduce.calls"),
            static_cast<std::uint64_t>(ranks()) * kCalls);
  // One span per rank per call lands in the merged event log.
  std::size_t allreduce_events = 0;
  for (const trace::Event& e : stats.events)
    if (std::string_view(e.name) == "allreduce") ++allreduce_events;
  EXPECT_EQ(allreduce_events, static_cast<std::size_t>(ranks()) * kCalls);
}

TEST(Split, NestedSplits) {
  World world(zero_config(8));
  world.run([](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    ASSERT_TRUE(half.valid());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    ASSERT_TRUE(quarter.valid());
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_DOUBLE_EQ(quarter.allreduce_scalar(1.0), 2.0);
    // World collectives still work afterwards.
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(1.0), 8.0);
  });
}

}  // namespace
}  // namespace pac::mp
