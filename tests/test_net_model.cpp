// Tests for the simnet interconnect models and machine presets.
#include "net/machine.hpp"
#include "net/model.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace pac::net {
namespace {

LinkParams test_link() {
  LinkParams p;
  p.latency = 100e-6;
  p.byte_time = 1e-8;  // 100 MB/s
  p.send_overhead = 10e-6;
  return p;
}

TEST(CeilLog2, KnownValues) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(8), 3);
  EXPECT_EQ(ceil_log2(9), 4);
  EXPECT_EQ(ceil_log2(1024), 10);
}

TEST(AlphaBeta, Pt2PtIsLatencyPlusBandwidth) {
  const AlphaBetaNetwork net(test_link());
  const double t = net.pt2pt_time(1000, 0, 1, 4);
  EXPECT_NEAR(t, 10e-6 + 100e-6 + 1000 * 1e-8, 1e-12);
}

TEST(AlphaBeta, SelfMessageIsFree) {
  const AlphaBetaNetwork net(test_link());
  EXPECT_EQ(net.pt2pt_time(1000, 2, 2, 4), 0.0);
}

TEST(AlphaBeta, CollectivesFreeOnOneRank) {
  const AlphaBetaNetwork net(test_link());
  for (auto kind :
       {CollectiveKind::kBarrier, CollectiveKind::kAllreduce,
        CollectiveKind::kBcast, CollectiveKind::kGather,
        CollectiveKind::kAlltoall}) {
    EXPECT_EQ(net.collective_time(kind, 4096, 1), 0.0);
  }
}

TEST(AlphaBeta, AllreduceIsTwiceReduceTree) {
  const AlphaBetaNetwork net(test_link());
  const double reduce = net.collective_time(CollectiveKind::kReduce, 256, 8);
  const double allreduce =
      net.collective_time(CollectiveKind::kAllreduce, 256, 8);
  EXPECT_NEAR(allreduce, 2.0 * reduce, 1e-12);
}

TEST(AlphaBeta, CollectiveCostGrowsWithRanks) {
  const AlphaBetaNetwork net(test_link());
  double previous = 0.0;
  for (int p : {2, 4, 8, 16, 32}) {
    const double t = net.collective_time(CollectiveKind::kAllreduce, 512, p);
    EXPECT_GT(t, previous);
    previous = t;
  }
}

TEST(AlphaBeta, CollectiveCostGrowsWithBytes) {
  const AlphaBetaNetwork net(test_link());
  EXPECT_LT(net.collective_time(CollectiveKind::kAllreduce, 8, 8),
            net.collective_time(CollectiveKind::kAllreduce, 1 << 20, 8));
}

TEST(AlphaBeta, BarrierIndependentOfHypotheticalPayload) {
  const AlphaBetaNetwork net(test_link());
  EXPECT_DOUBLE_EQ(net.collective_time(CollectiveKind::kBarrier, 0, 8),
                   net.collective_time(CollectiveKind::kBarrier, 4096, 8));
}

TEST(AlphaBeta, GatherMovesAllBlocks) {
  const AlphaBetaNetwork net(test_link());
  // Payload term must cover (P-1) blocks.
  const double t = net.collective_time(CollectiveKind::kGather, 1000, 8);
  EXPECT_GE(t, 7 * 1000 * 1e-8);
}

TEST(AlphaBeta, AlltoallIsPairwise) {
  const AlphaBetaNetwork net(test_link());
  const double one_msg = net.pt2pt_time(100, 0, 1, 8);
  EXPECT_NEAR(net.collective_time(CollectiveKind::kAlltoall, 100, 8),
              7.0 * one_msg, 1e-12);
}

TEST(FatTree, HopsBetweenLeaves) {
  const FatTreeNetwork net(test_link(), /*arity=*/4, /*per_hop=*/1e-6);
  EXPECT_EQ(net.pt2pt_time(0, 3, 3, 16), 0.0);
  // Ranks 0 and 3 share the first-level switch: 2 hops.
  // Ranks 0 and 4 meet one level up: 4 hops -> strictly slower.
  const double near = net.pt2pt_time(100, 0, 3, 16);
  const double far = net.pt2pt_time(100, 0, 4, 16);
  EXPECT_LT(near, far);
  EXPECT_NEAR(far - near, 2e-6, 1e-12);  // two extra hops
}

TEST(FatTree, CollectiveSlowerThanFlatNetwork) {
  const AlphaBetaNetwork flat(test_link());
  const FatTreeNetwork tree(test_link(), 4, 5e-6);
  EXPECT_GT(tree.collective_time(CollectiveKind::kAllreduce, 256, 16),
            flat.collective_time(CollectiveKind::kAllreduce, 256, 16));
}

TEST(FatTree, RequiresSensibleArity) {
  EXPECT_THROW(FatTreeNetwork(test_link(), 1, 0.0), pac::Error);
}

TEST(Bus, CollectivesSerialize) {
  const BusNetwork bus(test_link());
  const double reduce8 = bus.collective_time(CollectiveKind::kReduce, 100, 8);
  const double reduce4 = bus.collective_time(CollectiveKind::kReduce, 100, 4);
  // P-1 serialized messages: cost ratio 7/3.
  EXPECT_NEAR(reduce8 / reduce4, 7.0 / 3.0, 1e-9);
}

TEST(Bus, BroadcastIsOneTransmission) {
  const BusNetwork bus(test_link());
  EXPECT_DOUBLE_EQ(bus.collective_time(CollectiveKind::kBcast, 100, 2),
                   bus.collective_time(CollectiveKind::kBcast, 100, 10));
}

TEST(Bus, BusSlowerThanTreeAtScale) {
  const AlphaBetaNetwork flat(test_link());
  const BusNetwork bus(test_link());
  EXPECT_GT(bus.collective_time(CollectiveKind::kAllreduce, 1000, 16),
            flat.collective_time(CollectiveKind::kAllreduce, 1000, 16));
}

TEST(SmpCluster, IntraNodeFasterThanInterNode) {
  LinkParams intra = test_link();
  intra.latency = 2e-6;
  const SmpClusterNetwork net(intra, test_link(), 4);
  // Ranks 0 and 3 share a node; ranks 0 and 4 do not.
  EXPECT_LT(net.pt2pt_time(100, 0, 3, 8), net.pt2pt_time(100, 0, 4, 8));
  EXPECT_EQ(net.pt2pt_time(100, 2, 2, 8), 0.0);
}

TEST(SmpCluster, SingleNodeUsesIntraOnly) {
  LinkParams intra = test_link();
  intra.latency = 1e-6;
  const SmpClusterNetwork net(intra, test_link(), 8);
  const AlphaBetaNetwork pure_intra(intra);
  EXPECT_DOUBLE_EQ(net.collective_time(CollectiveKind::kAllreduce, 64, 4),
                   pure_intra.collective_time(CollectiveKind::kAllreduce, 64,
                                              4));
}

TEST(SmpCluster, HierarchicalAllreduceBetweenExtremes) {
  LinkParams intra = test_link();
  intra.latency = 1e-6;
  intra.send_overhead = 0.1e-6;
  const LinkParams inter = test_link();
  const SmpClusterNetwork net(intra, inter, 4);
  const AlphaBetaNetwork all_fast(intra);
  const AlphaBetaNetwork all_slow(inter);
  const double t = net.collective_time(CollectiveKind::kAllreduce, 256, 16);
  // Better than a flat slow network over 16, worse than a flat fast one.
  EXPECT_LT(t, all_slow.collective_time(CollectiveKind::kAllreduce, 256, 16));
  EXPECT_GT(t, all_fast.collective_time(CollectiveKind::kAllreduce, 256, 16));
}

TEST(SmpCluster, PresetResolvesAndScalesMonotonically) {
  const Machine m = machine_by_name("smp-cluster");
  EXPECT_EQ(m.name, "smp-cluster");
  double previous = 0.0;
  for (int p : {2, 4, 8, 16, 32}) {
    const double t =
        m.network->collective_time(CollectiveKind::kAllreduce, 512, p);
    EXPECT_GE(t, previous);
    previous = t;
  }
}

TEST(SmpCluster, MultiNodeCollectiveTimesArePinned) {
  // The smp-cluster preset (4 ranks per node) at P >= 5 spans several
  // nodes, so every time below is an in-node phase plus the leader phase.
  // The values are the model's exact output, as hex floats; a change to any
  // formula, or to the order it adds its phases in, shows here.
  struct Pinned {
    CollectiveKind kind;
    int nprocs;
    double seconds[3];  // for 0, 918 and 65536 bytes
  };
  const std::size_t bytes[3] = {0, 918, 65536};
  const Pinned pinned[] = {
      {CollectiveKind::kBarrier, 5,
       {0x1.3660e51d25aacp-13, 0x1.3660e51d25aacp-13, 0x1.3660e51d25aacp-13}},
      {CollectiveKind::kBarrier, 8,
       {0x1.3660e51d25aacp-13, 0x1.3660e51d25aacp-13, 0x1.3660e51d25aacp-13}},
      {CollectiveKind::kBarrier, 16,
       {0x1.2dfd694ccab3fp-12, 0x1.2dfd694ccab3fp-12, 0x1.2dfd694ccab3fp-12}},
      {CollectiveKind::kBarrier, 33,
       {0x1.29cbab649d389p-11, 0x1.29cbab649d389p-11, 0x1.29cbab649d389p-11}},
      {CollectiveKind::kBcast, 5,
       {0x1.3660e51d25aacp-13, 0x1.da04eea73d1b4p-13, 0x1.76c5842e227d3p-8}},
      {CollectiveKind::kBcast, 8,
       {0x1.3660e51d25aacp-13, 0x1.da04eea73d1b4p-13, 0x1.76c5842e227d3p-8}},
      {CollectiveKind::kBcast, 16,
       {0x1.2dfd694ccab3fp-12, 0x1.ccd15470f0831p-12, 0x1.6bc5a0de875f6p-7}},
      {CollectiveKind::kBcast, 33,
       {0x1.29cbab649d389p-11, 0x1.c6378755ca37p-11, 0x1.6645af36b9d08p-6}},
      {CollectiveKind::kAllreduce, 5,
       {0x1.3660e51d25aabp-12, 0x1.da04eea73d1b4p-12, 0x1.76c5842e227d3p-7}},
      {CollectiveKind::kAllreduce, 8,
       {0x1.3660e51d25aabp-12, 0x1.da04eea73d1b4p-12, 0x1.76c5842e227d3p-7}},
      {CollectiveKind::kAllreduce, 16,
       {0x1.2dfd694ccab3fp-11, 0x1.ccd15470f0832p-11, 0x1.6bc5a0de875f7p-6}},
      {CollectiveKind::kAllreduce, 33,
       {0x1.29cbab649d389p-10, 0x1.c6378755ca37p-10, 0x1.6645af36b9d07p-5}},
      {CollectiveKind::kAllgather, 5,
       {0x1.4727dcbddb985p-13, 0x1.f6e44d71f8c0ep-12, 0x1.7d0cc60c135ebp-6}},
      {CollectiveKind::kAllgather, 8,
       {0x1.4727dcbddb985p-13, 0x1.02aa5451e6d29p-11, 0x1.8d27f135b7c7ep-6}},
      {CollectiveKind::kAllgather, 16,
       {0x1.3660e51d25aabp-12, 0x1.49ac716298d18p-10, 0x1.1a6607c6c8d1dp-4}},
      {CollectiveKind::kAllgather, 33,
       {0x1.2dfd694ccab3fp-11, 0x1.944876e73d109p-9, 0x1.6fedf99831e58p-3}},
  };
  const Machine m = smp_cluster();
  for (const Pinned& row : pinned)
    for (int b = 0; b < 3; ++b)
      EXPECT_EQ(m.network->collective_time(row.kind, bytes[b], row.nprocs),
                row.seconds[b])
          << to_string(row.kind) << " P=" << row.nprocs
          << " bytes=" << bytes[b];
}

TEST(SmpCluster, ValidatesNodeSize) {
  EXPECT_THROW(SmpClusterNetwork(test_link(), test_link(), 0), pac::Error);
}

TEST(Zero, EverythingIsFree) {
  const ZeroNetwork zero;
  EXPECT_EQ(zero.pt2pt_time(1 << 20, 0, 5, 8), 0.0);
  EXPECT_EQ(zero.collective_time(CollectiveKind::kAllreduce, 1 << 20, 64),
            0.0);
  EXPECT_EQ(zero.send_overhead(), 0.0);
}

TEST(Presets, MeikoMatchesPaperBandwidth) {
  const Machine m = meiko_cs2();
  EXPECT_EQ(m.name, "meiko-cs2");
  EXPECT_EQ(m.max_procs, 10);
  // 50 MB/s links: 1 MB point-to-point ~ 0.02 s dominated by bandwidth.
  const double t = m.network->pt2pt_time(1 << 20, 0, 9, 10);
  EXPECT_NEAR(t, (1 << 20) / 50e6, 2e-3);
}

TEST(Presets, AllNamesResolve) {
  for (const char* name :
       {"meiko-cs2", "pentium-cluster", "modern-cluster", "ideal"}) {
    const Machine m = machine_by_name(name);
    EXPECT_EQ(m.name, name);
    EXPECT_NE(m.network, nullptr);
  }
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW(machine_by_name("cray-t3e"), pac::Error);
}

TEST(Presets, ModernClusterIsFasterEverywhere) {
  const Machine meiko = meiko_cs2();
  const Machine modern = modern_cluster();
  EXPECT_LT(modern.network->collective_time(CollectiveKind::kAllreduce, 1024, 8),
            meiko.network->collective_time(CollectiveKind::kAllreduce, 1024, 8));
  EXPECT_LT(modern.costs.wts_per_item_class_attr,
            meiko.costs.wts_per_item_class_attr);
}

TEST(Presets, CostBookCalibrationMatchesFig8Band) {
  // 10 000 tuples x 8 classes x 2 attributes of wts+params accumulation must
  // land in the paper's 0.3-0.7 s per base_cycle band (Fig. 8).
  const CostBook c = meiko_cs2().costs;
  const double per_cycle =
      10000.0 * 8.0 * 2.0 *
          (c.wts_per_item_class_attr + c.params_per_item_class_attr) +
      10000.0 * c.wts_per_item;
  EXPECT_GT(per_cycle, 0.25);
  EXPECT_LT(per_cycle, 0.75);
}

TEST(CollectiveKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(CollectiveKind::kBarrier), "barrier");
  EXPECT_STREQ(to_string(CollectiveKind::kAllreduce), "allreduce");
  EXPECT_STREQ(to_string(CollectiveKind::kAlltoall), "alltoall");
}

/// Parameterized sweep: every collective on every model must be
/// non-negative and monotone in nprocs.
class CollectiveSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CollectiveSweep, NonNegativeAndMonotone) {
  const auto [kind_index, bytes] = GetParam();
  const auto kind = static_cast<CollectiveKind>(kind_index);
  const AlphaBetaNetwork flat(test_link());
  const FatTreeNetwork tree(test_link(), 4, 1e-6);
  const BusNetwork bus(test_link());
  for (const NetworkModel* net :
       std::initializer_list<const NetworkModel*>{&flat, &tree, &bus}) {
    double previous = -1.0;
    for (int p : {1, 2, 4, 8, 16}) {
      const double t = net->collective_time(kind, bytes, p);
      EXPECT_GE(t, 0.0) << net->name();
      EXPECT_GE(t, previous) << net->name() << " P=" << p;
      previous = t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CollectiveSweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(kNumCollectiveKinds)),
                       ::testing::Values(std::size_t{0}, std::size_t{64},
                                         std::size_t{65536})));

}  // namespace
}  // namespace pac::net
