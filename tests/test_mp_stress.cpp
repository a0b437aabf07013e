// Property/stress tests for the minimpi collectives: a random sequence of
// operations executed by the runtime must produce exactly what a sequential
// oracle computes from the same per-rank inputs.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mp/comm.hpp"
#include "util/rng.hpp"

namespace pac::mp {
namespace {

World::Config zero_config(int ranks) {
  World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = net::ideal_machine();
  return cfg;
}

/// Deterministic per-(seed, rank, step, element) input values in [-10, 10).
double input_value(std::uint64_t seed, int rank, int step, std::size_t el) {
  const CounterRng rng(seed);
  const double u =
      rng.uniform(static_cast<std::uint64_t>(rank) * 1000 +
                      static_cast<std::uint64_t>(step),
                  el);
  return -10.0 + 20.0 * u;
}

class StressTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(StressTest, RandomCollectiveSequenceMatchesOracle) {
  const auto [ranks, seed] = GetParam();
  constexpr int kSteps = 40;
  constexpr std::size_t kElems = 5;

  // Pre-compute the oracle for every step.
  const CounterRng plan(seed);
  struct Step {
    int op;    // 0 allreduce-sum, 1 allreduce-max, 2 bcast, 3 allgather,
               // 4 scan-sum, 5 reduce-min (root), 6 barrier
    int root;  // for rooted ops
  };
  std::vector<Step> steps(kSteps);
  for (int s = 0; s < kSteps; ++s) {
    steps[s].op = static_cast<int>(plan.uniform(1, s) * 7.0);
    if (steps[s].op > 6) steps[s].op = 6;
    steps[s].root =
        static_cast<int>(plan.uniform(2, s) * static_cast<double>(ranks));
    if (steps[s].root >= ranks) steps[s].root = ranks - 1;
  }

  World world(zero_config(ranks));
  std::vector<char> ok(ranks, 0);
  world.run([&](Comm& comm) {
    const int r = comm.rank();
    bool all_good = true;
    for (int s = 0; s < kSteps; ++s) {
      std::vector<double> in(kElems);
      for (std::size_t e = 0; e < kElems; ++e)
        in[e] = input_value(seed, r, s, e);
      const Step& step = steps[s];
      switch (step.op) {
        case 0: {  // allreduce sum
          std::vector<double> out(kElems);
          comm.allreduce<double>(in, out, ReduceOp::kSum);
          for (std::size_t e = 0; e < kElems; ++e) {
            double expect = 0.0;
            for (int q = 0; q < ranks; ++q)
              expect += input_value(seed, q, s, e);
            if (std::abs(out[e] - expect) > 1e-9) all_good = false;
          }
          break;
        }
        case 1: {  // allreduce max
          std::vector<double> out(kElems);
          comm.allreduce<double>(in, out, ReduceOp::kMax);
          for (std::size_t e = 0; e < kElems; ++e) {
            double expect = input_value(seed, 0, s, e);
            for (int q = 1; q < ranks; ++q)
              expect = std::max(expect, input_value(seed, q, s, e));
            if (out[e] != expect) all_good = false;
          }
          break;
        }
        case 2: {  // bcast from root
          std::vector<double> buf = in;
          comm.broadcast<double>(buf, step.root);
          for (std::size_t e = 0; e < kElems; ++e)
            if (buf[e] != input_value(seed, step.root, s, e))
              all_good = false;
          break;
        }
        case 3: {  // allgather
          std::vector<double> all(kElems * static_cast<std::size_t>(ranks));
          comm.allgather<double>(in, all);
          for (int q = 0; q < ranks; ++q)
            for (std::size_t e = 0; e < kElems; ++e)
              if (all[static_cast<std::size_t>(q) * kElems + e] !=
                  input_value(seed, q, s, e))
                all_good = false;
          break;
        }
        case 4: {  // inclusive scan sum
          std::vector<double> out(kElems);
          comm.scan<double>(in, out, ReduceOp::kSum);
          for (std::size_t e = 0; e < kElems; ++e) {
            double expect = 0.0;
            for (int q = 0; q <= r; ++q)
              expect += input_value(seed, q, s, e);
            if (std::abs(out[e] - expect) > 1e-9) all_good = false;
          }
          break;
        }
        case 5: {  // reduce min at root
          std::vector<double> out(r == step.root ? kElems : 0);
          comm.reduce<double>(in, out, ReduceOp::kMin, step.root);
          if (r == step.root) {
            for (std::size_t e = 0; e < kElems; ++e) {
              double expect = input_value(seed, 0, s, e);
              for (int q = 1; q < ranks; ++q)
                expect = std::min(expect, input_value(seed, q, s, e));
              if (out[e] != expect) all_good = false;
            }
          }
          break;
        }
        default:
          comm.barrier();
          break;
      }
    }
    ok[r] = all_good ? 1 : 0;
  });
  for (int r = 0; r < ranks; ++r) EXPECT_EQ(ok[r], 1) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSeeds, StressTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

TEST(Stress, ConcurrentSplitsAndSubCollectives) {
  // Repeated splits into varying groups with collectives inside each.
  World world(zero_config(12));
  world.run([](Comm& comm) {
    for (int round = 2; round <= 4; ++round) {
      Comm sub = comm.split(comm.rank() % round, comm.rank());
      ASSERT_TRUE(sub.valid());
      const double count = sub.allreduce_scalar(1.0);
      // Group sizes: 12 ranks split by (rank % round).
      double expected = 0.0;
      for (int r = 0; r < 12; ++r)
        if (r % round == comm.rank() % round) expected += 1.0;
      ASSERT_DOUBLE_EQ(count, expected);
      comm.barrier();
    }
  });
}

TEST(Stress, LargePayloadAllreduce) {
  World world(zero_config(4));
  world.run([](Comm& comm) {
    std::vector<double> v(200000, 1.0);  // 1.6 MB per rank
    comm.allreduce_inplace<double>(v, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(v.front(), 4.0);
    EXPECT_DOUBLE_EQ(v.back(), 4.0);
  });
}

TEST(Stress, ManySmallCollectivesBackToBack) {
  World world(zero_config(6));
  world.run([](Comm& comm) {
    double acc = static_cast<double>(comm.rank());
    for (int i = 0; i < 500; ++i) acc = comm.allreduce_scalar(acc, ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(acc, 5.0);
  });
}

}  // namespace
}  // namespace pac::mp
