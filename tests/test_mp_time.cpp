// Virtual-time semantics: compute charges, collective synchronization,
// message transfer times, and RunStats accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mp/comm.hpp"
#include "transport_test_util.hpp"

namespace pac::mp {
namespace {

net::Machine flat_machine(double latency = 100e-6, double byte_time = 1e-8,
                          double overhead = 10e-6) {
  net::LinkParams link;
  link.latency = latency;
  link.byte_time = byte_time;
  link.send_overhead = overhead;
  net::Machine m;
  m.name = "test";
  m.network = std::make_shared<net::AlphaBetaNetwork>(link);
  return m;
}

World::Config config_with(net::Machine machine, int ranks) {
  World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = std::move(machine);
  return cfg;
}

TEST(VirtualTime, ChargeAdvancesClock) {
  World world(config_with(flat_machine(), 1));
  world.run([](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.now(), 0.0);
    comm.charge(1.5);
    EXPECT_DOUBLE_EQ(comm.now(), 1.5);
    comm.charge(0.25);
    EXPECT_DOUBLE_EQ(comm.now(), 1.75);
  });
}

TEST(VirtualTime, NegativeChargeRejected) {
  World world(config_with(flat_machine(), 1));
  EXPECT_THROW(world.run([](Comm& comm) { comm.charge(-1.0); }),
               pac::Error);
}

TEST(VirtualTime, CollectiveSynchronizesToSlowestPlusCost) {
  const net::Machine machine = flat_machine();
  const double cost =
      machine.network->collective_time(net::CollectiveKind::kBarrier, 0, 4);
  World world(config_with(machine, 4));
  const RunStats stats = world.run([&](Comm& comm) {
    comm.charge(comm.rank() * 1.0);  // rank r arrives at t = r
    comm.barrier();
    EXPECT_DOUBLE_EQ(comm.now(), 3.0 + cost);  // everyone leaves together
  });
  for (double t : stats.rank_finish) EXPECT_DOUBLE_EQ(t, 3.0 + cost);
}

TEST(VirtualTime, IdleTimeIsWaitingForSlowerRanks) {
  World world(config_with(flat_machine(), 2));
  const RunStats stats = world.run([](Comm& comm) {
    if (comm.rank() == 1) comm.charge(2.0);
    comm.barrier();
  });
  // Rank 0 idled ~2 s; rank 1 idled ~0.
  EXPECT_NEAR(stats.rank_idle[0], 2.0, 1e-6);
  EXPECT_NEAR(stats.rank_idle[1], 0.0, 1e-6);
  EXPECT_NEAR(stats.rank_compute[1], 2.0, 1e-12);
}

TEST(VirtualTime, MessageTransferChargesReceiver) {
  const double latency = 100e-6, byte_time = 1e-8, overhead = 10e-6;
  World world(config_with(flat_machine(latency, byte_time, overhead), 2));
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(1000, 'a');
      comm.send<char>(1, 0, payload);
      // Sender pays only the software overhead.
      EXPECT_DOUBLE_EQ(comm.now(), overhead);
    } else {
      std::vector<char> payload(1000);
      comm.recv<char>(0, 0, payload);
      // Receiver advances to send_time + transfer.
      const double expected =
          overhead + (overhead + latency + 1000 * byte_time);
      EXPECT_NEAR(comm.now(), expected, 1e-12);
    }
  });
}

TEST(VirtualTime, EveryCollectiveKindLeavesAtLatestArrivalPlusCost) {
  // Rank r arrives at t = r; every rank, root or not, must leave at the
  // latest arrival plus the kind's modeled cost, with the difference
  // booked as idle time (evaluated as done - arrival - cost).
  const net::Machine machine = flat_machine();
  constexpr int kRanks = 4;
  for (std::size_t k = 0; k < net::kNumCollectiveKinds; ++k) {
    const auto kind = static_cast<net::CollectiveKind>(k);
    SCOPED_TRACE(net::to_string(kind));
    std::vector<std::size_t> bytes(kRanks);
    std::vector<double> left(kRanks);
    World world(config_with(machine, kRanks));
    const RunStats stats = world.run([&](Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      comm.charge(static_cast<double>(comm.rank()));
      bytes[r] = testutil::call_collective(comm, kind, 3);
      left[r] = comm.now();
    });
    const double cost =
        machine.network->collective_time(kind, bytes[0], kRanks);
    const double done = 3.0 + cost;
    double seconds = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      EXPECT_EQ(left[ur], done) << "rank " << r;
      EXPECT_EQ(stats.rank_comm[ur], cost) << "rank " << r;
      const double wait = done - static_cast<double>(r) - cost;
      EXPECT_EQ(stats.rank_idle[ur], wait > 0.0 ? wait : 0.0) << "rank " << r;
      seconds += cost;
    }
    EXPECT_EQ(stats.total_collectives, static_cast<std::uint64_t>(kRanks));
    EXPECT_EQ(stats.collective_calls[k], static_cast<std::uint64_t>(kRanks));
    EXPECT_EQ(stats.collective_seconds[k], seconds);
  }
}

TEST(VirtualTime, EveryCollectiveKindOnSplitLeavesAtLatestArrivalPlusCost) {
  const net::Machine machine = flat_machine();
  constexpr int kRanks = 4;
  for (std::size_t k = 0; k < net::kNumCollectiveKinds; ++k) {
    const auto kind = static_cast<net::CollectiveKind>(k);
    SCOPED_TRACE(net::to_string(kind));
    std::vector<double> left(kRanks), done(kRanks), comm_time(kRanks),
        idle(kRanks), kind_seconds(kRanks);
    World world(config_with(machine, kRanks));
    const RunStats stats = world.run([&](Comm& comm) {
      const int r = comm.rank();
      const auto ur = static_cast<std::size_t>(r);
      // Pairs {0,2} and {1,3}, each ordered latest-arriving rank first, so
      // the pair's leader is its last arrival and root 1 its first.
      Comm pair = comm.split(r % 2, -r);
      // The split's allgather leaves every rank at t0 with t0 of comm time.
      const double t0 = comm.now();
      comm.charge(static_cast<double>(r));
      const std::size_t bytes = testutil::call_collective(pair, kind, 3);
      left[ur] = comm.now();
      const double cost = machine.network->collective_time(kind, bytes, 2);
      done[ur] = (t0 + static_cast<double>(r % 2 + 2)) + cost;
      const double wait = done[ur] - (t0 + static_cast<double>(r)) - cost;
      comm_time[ur] = t0 + cost;
      idle[ur] = wait > 0.0 ? wait : 0.0;
      kind_seconds[ur] =
          kind == net::CollectiveKind::kAllgather ? t0 + cost : cost;
    });
    double seconds = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      EXPECT_EQ(left[ur], done[ur]) << "rank " << r;
      EXPECT_EQ(stats.rank_comm[ur], comm_time[ur]) << "rank " << r;
      EXPECT_EQ(stats.rank_idle[ur], idle[ur]) << "rank " << r;
      seconds += kind_seconds[ur];
    }
    const std::uint64_t calls =
        kind == net::CollectiveKind::kAllgather ? 2 * kRanks : kRanks;
    EXPECT_EQ(stats.total_collectives, static_cast<std::uint64_t>(2 * kRanks));
    EXPECT_EQ(stats.collective_calls[k], calls);
    EXPECT_EQ(stats.collective_seconds[k], seconds);
  }
}

TEST(VirtualTime, EmptyCollectivesChargeZeroByteCost) {
  // Each kind with empty spans as the first collective of a fresh run:
  // still one collective per rank, charged the zero-byte cost.
  const net::Machine machine = flat_machine();
  for (const int p : {1, 2, 4}) {
    for (std::size_t k = 0; k < net::kNumCollectiveKinds; ++k) {
      const auto kind = static_cast<net::CollectiveKind>(k);
      SCOPED_TRACE(std::string(net::to_string(kind)) + " on " +
                   std::to_string(p) + " ranks");
      World world(config_with(machine, p));
      const RunStats stats = world.run([&](Comm& comm) {
        EXPECT_EQ(testutil::call_collective(comm, kind, 0), 0u);
      });
      const double cost = machine.network->collective_time(kind, 0, p);
      double seconds = 0.0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(stats.rank_comm[static_cast<std::size_t>(r)], cost);
        seconds += cost;
      }
      EXPECT_EQ(stats.virtual_time, cost);
      EXPECT_EQ(stats.total_collectives, static_cast<std::uint64_t>(p));
      EXPECT_EQ(stats.collective_calls[k], static_cast<std::uint64_t>(p));
      EXPECT_EQ(stats.collective_seconds[k], seconds);
    }
  }
}

TEST(VirtualTime, LateReceiverDoesNotWait) {
  World world(config_with(flat_machine(), 2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 0, 7);
    } else {
      comm.charge(5.0);  // busy long past the message arrival
      (void)comm.recv_value<int>(0, 0);
      EXPECT_DOUBLE_EQ(comm.now(), 5.0);  // no extra wait
    }
  });
}

TEST(VirtualTime, AllreduceCostScalesWithPayload) {
  const net::Machine machine = flat_machine();
  World world(config_with(machine, 4));
  double small_time = 0.0, large_time = 0.0;
  world.run([&](Comm& comm) {
    std::vector<double> a(1, 1.0), big(10000, 1.0);
    comm.allreduce_inplace<double>(a, ReduceOp::kSum);
    if (comm.rank() == 0) small_time = comm.now();
    const double before = comm.now();
    comm.allreduce_inplace<double>(big, ReduceOp::kSum);
    if (comm.rank() == 0) large_time = comm.now() - before;
  });
  EXPECT_GT(large_time, small_time);
}

TEST(VirtualTime, ZeroNetworkMakesCollectivesFree) {
  World world(config_with(net::ideal_machine(), 8));
  const RunStats stats = world.run([](Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
    std::vector<double> v(100, 1.0);
    comm.allreduce_inplace<double>(v, ReduceOp::kSum);
  });
  EXPECT_DOUBLE_EQ(stats.virtual_time, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_comm(), 0.0);
}

TEST(VirtualTime, RunStatsAggregatesConsistently) {
  World world(config_with(flat_machine(), 3));
  const RunStats stats = world.run([](Comm& comm) {
    comm.charge(1.0);
    comm.barrier();
    comm.charge(0.5);
  });
  EXPECT_EQ(stats.num_ranks, 3);
  ASSERT_EQ(stats.rank_finish.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(stats.rank_compute[r], 1.5, 1e-12);
    // finish = compute + comm + idle (clock decomposition).
    EXPECT_NEAR(stats.rank_finish[r],
                stats.rank_compute[r] + stats.rank_comm[r] +
                    stats.rank_idle[r],
                1e-9);
  }
  EXPECT_GE(stats.virtual_time, 1.5);
  EXPECT_EQ(stats.total_collectives, 3u);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(VirtualTime, FasterNetworkFinishesSooner) {
  auto run_on = [](net::Machine machine) {
    World world(config_with(std::move(machine), 8));
    const RunStats stats = world.run([](Comm& comm) {
      std::vector<double> v(512, 1.0);
      for (int i = 0; i < 20; ++i)
        comm.allreduce_inplace<double>(v, ReduceOp::kSum);
    });
    return stats.virtual_time;
  };
  EXPECT_LT(run_on(net::modern_cluster()), run_on(net::meiko_cs2()));
  EXPECT_LT(run_on(net::meiko_cs2()), run_on(net::pentium_cluster()));
}

TEST(Trace, DisabledByDefault) {
  World world(config_with(flat_machine(), 2));
  const RunStats stats = world.run([](Comm& comm) { comm.barrier(); });
  EXPECT_TRUE(stats.trace.empty());
}

TEST(Trace, RecordsCollectivesAndMessages) {
  World::Config cfg = config_with(flat_machine(), 2);
  cfg.trace = true;
  World world(cfg);
  const RunStats stats = world.run([](Comm& comm) {
    comm.barrier();
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 0, 1);
    } else {
      (void)comm.recv_value<int>(0, 0);
    }
    std::vector<double> v(4, 1.0);
    comm.allreduce_inplace<double>(v, ReduceOp::kSum);
  });
  // 2 barriers? no: 1 barrier x2 ranks + 1 send + 1 recv + 1 allreduce x2.
  std::size_t collectives = 0, sends = 0, recvs = 0;
  for (const TraceEvent& e : stats.trace) {
    EXPECT_LE(e.start, e.end);
    switch (e.op) {
      case TraceEvent::Op::kCollective: ++collectives; break;
      case TraceEvent::Op::kSend: ++sends; break;
      case TraceEvent::Op::kRecv: ++recvs; break;
    }
  }
  EXPECT_EQ(collectives, 4u);  // barrier + allreduce, seen by both ranks
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(recvs, 1u);
  // Merged trace is ordered by start time.
  for (std::size_t i = 1; i < stats.trace.size(); ++i)
    EXPECT_LE(stats.trace[i - 1].start, stats.trace[i].start);
}

TEST(Trace, CsvContainsHeaderAndRows) {
  World::Config cfg = config_with(flat_machine(), 2);
  cfg.trace = true;
  World world(cfg);
  const RunStats stats = world.run([](Comm& comm) { comm.barrier(); });
  std::ostringstream os;
  write_trace_csv(os, stats);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("rank,op,kind,bytes,start,end"), std::string::npos);
  EXPECT_NE(csv.find("collective"), std::string::npos);
  EXPECT_NE(csv.find("barrier"), std::string::npos);
}

TEST(Trace, PerRankEventsHaveMonotoneTimes) {
  World::Config cfg = config_with(flat_machine(), 3);
  cfg.trace = true;
  World world(cfg);
  const RunStats stats = world.run([](Comm& comm) {
    for (int i = 0; i < 5; ++i) {
      comm.charge(1e-3);
      comm.barrier();
    }
  });
  // Within one rank, event windows must not run backwards.
  for (int r = 0; r < 3; ++r) {
    double last_end = 0.0;
    for (const TraceEvent& e : stats.trace) {
      if (e.world_rank != r) continue;
      EXPECT_GE(e.end, last_end);
      last_end = e.end;
    }
  }
}

TEST(VirtualTime, SplitCollectivesUseSubgroupSize) {
  const net::Machine machine = flat_machine();
  const double world_cost = machine.network->collective_time(
      net::CollectiveKind::kBarrier, 0, 8);
  const double sub_cost = machine.network->collective_time(
      net::CollectiveKind::kBarrier, 0, 2);
  ASSERT_LT(sub_cost, world_cost);
  World world(config_with(machine, 8));
  world.run([&](Comm& comm) {
    Comm pair = comm.split(comm.rank() / 2, comm.rank());
    ASSERT_TRUE(pair.valid());
    const double before = comm.now();
    pair.barrier();
    EXPECT_NEAR(comm.now() - before, sub_cost, 1e-12);
  });
}

}  // namespace
}  // namespace pac::mp
