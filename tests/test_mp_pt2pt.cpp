// Point-to-point messaging tests for the minimpi runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mp/comm.hpp"
#include "util/error.hpp"

namespace pac::mp {
namespace {

World::Config zero_config(int ranks) {
  World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = net::ideal_machine();
  return cfg;
}

TEST(Pt2Pt, SingleValueRoundTrip) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 5, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 5), 42);
    }
  });
}

TEST(Pt2Pt, VectorPayload) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    std::vector<double> buf(100);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      comm.send<double>(1, 1, buf);
    } else {
      const Status st = comm.recv<double>(0, 1, buf);
      EXPECT_EQ(st.bytes, 100 * sizeof(double));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 1);
      EXPECT_DOUBLE_EQ(buf[99], 99.0);
    }
  });
}

TEST(Pt2Pt, TagMatchingSelectsCorrectMessage) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 10, 100);
      comm.send_value<int>(1, 20, 200);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(Pt2Pt, AnyTagTakesEarliest) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 7, 1);
      comm.send_value<int>(1, 8, 2);
    } else {
      Status st;
      EXPECT_EQ(comm.recv_value<int>(0, kAnyTag, &st), 1);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(comm.recv_value<int>(0, kAnyTag, &st), 2);
      EXPECT_EQ(st.tag, 8);
    }
  });
}

TEST(Pt2Pt, AnySourceReportsSender) {
  World world(zero_config(3));
  world.run([](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value<int>(0, 3, comm.rank());
    } else {
      int mask = 0;
      for (int k = 0; k < 2; ++k) {
        Status st;
        const int v = comm.recv_value<int>(kAnySource, 3, &st);
        EXPECT_EQ(v, st.source);
        mask |= 1 << v;
      }
      EXPECT_EQ(mask, 0b110);
    }
  });
}

TEST(Pt2Pt, NonOvertakingPerSourceAndTag) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    constexpr int kCount = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kCount; ++i) comm.send_value<int>(1, 4, i);
    } else {
      for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 4), i);
    }
  });
}

TEST(Pt2Pt, RingPassesTokenAroundAllRanks) {
  static constexpr int kRanks = 6;
  World world(zero_config(kRanks));
  world.run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    if (comm.rank() == 0) {
      comm.send_value<int>(next, 0, 1);
      EXPECT_EQ(comm.recv_value<int>(prev, 0), kRanks);
    } else {
      const int token = comm.recv_value<int>(prev, 0);
      comm.send_value<int>(next, 0, token + 1);
    }
  });
}

TEST(Pt2Pt, BufferTooSmallThrows) {
  World world(zero_config(2));
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> big(10, 1);
      comm.send<int>(1, 0, big);
    } else {
      std::vector<int> small(2);
      comm.recv<int>(0, 0, small);
    }
  }),
               Error);
}

TEST(Pt2Pt, InvalidDestinationThrows) {
  World world(zero_config(2));
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) comm.send_value<int>(5, 0, 1);
    // rank 1 exits immediately; abort tears it down if needed.
  }),
               Error);
}

TEST(Probe, IprobePollsWithoutConsuming) {
  World world(zero_config(2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.recv_value<int>(1, 1);  // handshake: rank 1 polled empty first
      comm.send_value<int>(1, 2, 42);
    } else {
      Status st;
      EXPECT_FALSE(comm.iprobe(0, 2, st));
      comm.send_value<int>(0, 1, 0);
      while (!comm.iprobe(0, 2, st)) {
      }
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_TRUE(comm.iprobe(0, 2, st));  // still queued
      EXPECT_EQ(comm.recv_value<int>(0, 2), 42);
      EXPECT_FALSE(comm.iprobe(0, 2, st));  // now consumed
    }
  });
}

TEST(Probe, SizedReceiveViaProbe) {
  // The classic pattern: probe for an unknown-size message, then size the
  // buffer exactly (wire::try_recv_blob receives its frames this way).
  World world(zero_config(2));
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::int32_t> payload(123, 7);
      comm.send<std::int32_t>(1, 0, payload);
    } else {
      Status st;
      while (!comm.iprobe(0, 0, st)) {
      }
      std::vector<std::int32_t> buf(st.bytes / sizeof(std::int32_t));
      comm.recv<std::int32_t>(0, 0, buf);
      EXPECT_EQ(buf.size(), 123u);
      EXPECT_EQ(buf[122], 7);
    }
  });
}

TEST(World, ExceptionInOneRankPropagates) {
  World world(zero_config(4));
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 2) throw Error("boom");
    // Everyone else parks in a barrier and must be woken by the abort.
    comm.barrier();
    comm.barrier();
  }),
               Error);
}

TEST(World, ExceptionWhileOthersBlockInRecv) {
  World world(zero_config(3));
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) throw Error("sender died");
    int v = 0;
    comm.recv<int>(0, 0, std::span<int>(&v, 1));  // would block forever
  }),
               Error);
}

TEST(World, IsReusableAfterFailure) {
  World world(zero_config(2));
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) throw Error("first run fails");
    comm.barrier();
  }),
               Error);
  // Second run on the same world must work.
  std::atomic<int> sum{0};
  world.run([&](Comm& comm) { sum += comm.rank(); });
  EXPECT_EQ(sum.load(), 1);
}

TEST(World, SingleRankRunsInline) {
  World world(zero_config(1));
  int calls = 0;
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();  // degenerate but legal
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(World, RunStatsCountsTraffic) {
  World world(zero_config(2));
  const RunStats stats = world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(128, 'x');
      comm.send<char>(1, 0, payload);
    } else {
      std::vector<char> payload(128);
      comm.recv<char>(0, 0, payload);
    }
  });
  EXPECT_EQ(stats.total_messages, 1u);
  EXPECT_EQ(stats.total_bytes, 128u);
  EXPECT_EQ(stats.num_ranks, 2);
}

TEST(World, RejectsSillyRankCounts) {
  World::Config cfg;
  cfg.num_ranks = 0;
  EXPECT_THROW(World w(cfg), Error);
  cfg.num_ranks = 1 << 20;
  EXPECT_THROW(World w2(cfg), Error);
}

TEST(World, ManyRanksStress) {
  World world(zero_config(32));
  const RunStats stats = world.run([](Comm& comm) {
    // All-pairs neighbour exchange.
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value<int>(next, 9, comm.rank());
    EXPECT_EQ(comm.recv_value<int>(prev, 9), prev);
    comm.barrier();
  });
  EXPECT_EQ(stats.total_messages, 32u);
}

}  // namespace
}  // namespace pac::mp
