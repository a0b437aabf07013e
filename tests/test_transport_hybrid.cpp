// Hybrid-transport tests: the same loopback multi-rank pattern as
// test_transport_socket (threads standing in for pac_launch'd processes,
// each with its own World), but on the hybrid backend — full socket mesh
// plus one shared-memory ring pair per same-host rank pair.  The suites
// re-assert the DESIGN.md determinism contract across the third backend,
// and the ShmRing section unit-tests the SPSC ring itself: wraparound,
// chained large frames, backpressure, and peer-death wakeups.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "autoclass/em.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"
#include "mp/comm.hpp"
#include "mp/transport/shm_ring.hpp"
#include "mp/transport/transport.hpp"
#include "transport_test_util.hpp"
#include "util/error.hpp"

namespace pac::mp {
namespace {

using testutil::collective_suite;
using testutil::cycle_suite;
using testutil::estep_suite;
using testutil::expect_bit_identical;
using testutil::HybridSegments;
using testutil::hybrid_config;
using testutil::run_hybrid_world;
using testutil::run_socket_world;
using testutil::run_world_threads;
using testutil::unique_address;

TEST(TransportHybrid, ValueRoundTripRoutesOverShm) {
  std::vector<transport::TransportStats> stats(2);
  run_hybrid_world(2, [&](Comm& comm) {
    EXPECT_TRUE(comm.distributed());
    EXPECT_STREQ(comm.backend_name(), "hybrid");
    std::vector<double> buf(64);
    if (comm.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.5);
      comm.send<double>(1, 3, buf);
      comm.send_value<int>(1, 9, 1234);
    } else {
      const Status st = comm.recv<double>(0, 3, buf);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(st.bytes, 64 * sizeof(double));
      EXPECT_DOUBLE_EQ(buf[63], 63.5);
      EXPECT_EQ(comm.recv_value<int>(0, 9), 1234);
    }
    comm.barrier();
    stats[static_cast<std::size_t>(comm.rank())] = comm.transport_stats();
  });
  for (int r = 0; r < 2; ++r) {
    const transport::TransportStats& s = stats[static_cast<std::size_t>(r)];
    // Both ranks share one host: ALL data frames must have routed over the
    // ring — socket traffic is the totals minus the shm breakdown.
    EXPECT_EQ(s.shm_peers, 1u) << "rank " << r;
    EXPECT_GT(s.shm_messages_sent, 0u) << "rank " << r;
    EXPECT_EQ(s.messages_sent, s.shm_messages_sent) << "rank " << r;
    EXPECT_EQ(s.messages_received, s.shm_messages_received) << "rank " << r;
    EXPECT_EQ(s.bytes_sent, s.shm_bytes_sent) << "rank " << r;
  }
}

TEST(TransportHybrid, MixedHostTokensFallBackToSocket) {
  // Two ranks with segments on the table but DIFFERENT host tokens: the
  // routing rule must silently keep the socket (a cross-host pair whose
  // launcher handed out fds by mistake must degrade, not die).
  constexpr int kRanks = 2;
  const std::string address = unique_address();
  const HybridSegments segs(kRanks);
  std::vector<transport::TransportStats> stats(kRanks);
  run_world_threads(
      kRanks,
      [&](int r) {
        World::Config cfg = hybrid_config(address, r, kRanks, segs);
        cfg.shm.host_token = segs.host_token + static_cast<std::uint64_t>(r);
        return cfg;
      },
      [&](Comm& comm) {
        if (comm.rank() == 0) comm.send_value<int>(1, 1, 42);
        if (comm.rank() == 1) {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 42);
        }
        comm.barrier();
        stats[static_cast<std::size_t>(comm.rank())] = comm.transport_stats();
      });
  for (const transport::TransportStats& s : stats) {
    EXPECT_EQ(s.shm_peers, 0u);
    EXPECT_EQ(s.shm_messages_sent, 0u);
    EXPECT_GT(s.messages_sent, 0u);
  }
}

TEST(TransportHybrid, CollectivesBitIdenticalAcrossAllThreeBackends) {
  constexpr int kRanks = 4;
  std::vector<std::vector<double>> hybrid_sink(kRanks), socket_sink(kRanks),
      modeled_sink(kRanks);
  run_hybrid_world(kRanks, [&](Comm& comm) {
    collective_suite(comm, hybrid_sink[static_cast<std::size_t>(comm.rank())]);
  });
  run_socket_world(kRanks, [&](Comm& comm) {
    collective_suite(comm, socket_sink[static_cast<std::size_t>(comm.rank())]);
  });
  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World world(cfg);
  world.run([&](Comm& comm) {
    collective_suite(comm,
                     modeled_sink[static_cast<std::size_t>(comm.rank())]);
  });
  expect_bit_identical(hybrid_sink, socket_sink);
  expect_bit_identical(hybrid_sink, modeled_sink);
}

TEST(TransportHybrid, CollectivesBitIdenticalThroughTinyRings) {
  // A 4 KiB ring forces every multi-KB collective payload through the
  // chained-chunk path; results must not change.
  constexpr int kRanks = 3;
  std::vector<std::vector<double>> tiny_sink(kRanks), modeled_sink(kRanks);
  run_hybrid_world(
      kRanks,
      [&](Comm& comm) {
        collective_suite(comm, tiny_sink[static_cast<std::size_t>(comm.rank())]);
      },
      /*ring_bytes=*/4096);
  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World world(cfg);
  world.run([&](Comm& comm) {
    collective_suite(comm,
                     modeled_sink[static_cast<std::size_t>(comm.rank())]);
  });
  expect_bit_identical(tiny_sink, modeled_sink);
}

TEST(TransportHybrid, EStepKernelBitIdenticalToInProcess) {
  constexpr int kRanks = 3;
  data::LabeledDataset ld = data::mixed_mixture(
      {{0.5, {0.0, 1.0}, {1.0, 0.5}, {{0.8, 0.2}, {0.1, 0.6, 0.3}}},
       {0.5, {3.0, -1.0}, {0.7, 1.2}, {{0.3, 0.7}, {0.5, 0.2, 0.3}}}},
      600, 11);
  data::inject_missing(ld.dataset, 0.05, 7);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  std::vector<std::vector<double>> hybrid(kRanks), modeled(kRanks);
  run_hybrid_world(kRanks, [&](Comm& comm) {
    estep_suite(comm, model, /*scalar=*/false,
                hybrid[static_cast<std::size_t>(comm.rank())]);
  });
  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World world(cfg);
  world.run([&](Comm& comm) {
    estep_suite(comm, model, /*scalar=*/false,
                modeled[static_cast<std::size_t>(comm.rank())]);
  });
  expect_bit_identical(hybrid, modeled);
}

TEST(TransportHybrid, EmCycleAndThreadsBitIdenticalAcrossBackends) {
  constexpr int kRanks = 3;
  data::LabeledDataset ld = data::mixed_mixture(
      {{0.5, {0.0, 1.0}, {1.0, 0.5}, {{0.8, 0.2}, {0.1, 0.6, 0.3}}},
       {0.5, {3.0, -1.0}, {0.7, 1.2}, {{0.3, 0.7}, {0.5, 0.2, 0.3}}}},
      600, 13);
  data::inject_missing(ld.dataset, 0.05, 8);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  std::vector<std::vector<double>> hybrid(kRanks), threaded(kRanks),
      modeled(kRanks);
  run_hybrid_world(kRanks, [&](Comm& comm) {
    cycle_suite(comm, model, /*scalar=*/false, /*threads=*/1,
                hybrid[static_cast<std::size_t>(comm.rank())]);
  });
  run_hybrid_world(kRanks, [&](Comm& comm) {
    cycle_suite(comm, model, /*scalar=*/false, /*threads=*/2,
                threaded[static_cast<std::size_t>(comm.rank())]);
  });
  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World world(cfg);
  world.run([&](Comm& comm) {
    cycle_suite(comm, model, /*scalar=*/false, /*threads=*/4,
                modeled[static_cast<std::size_t>(comm.rank())]);
  });
  expect_bit_identical(hybrid, threaded);
  expect_bit_identical(hybrid, modeled);
}

TEST(TransportHybrid, GroupSearchMergesBitIdenticalToInProcess) {
  // Try-parallel search on the hybrid transport: sub-world split, advisory
  // summary exchange, and final leaderboard merge all over shm rings.
  constexpr int kRanks = 4;
  const data::LabeledDataset ld = data::paper_dataset(500, 23);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config;
  config.start_j_list = {2, 4, 6};
  config.max_tries = 6;
  config.em.max_cycles = 30;
  config.seed = 2024;
  core::ParallelConfig parallel;
  parallel.try_groups = 2;

  const std::string address = unique_address();
  const HybridSegments segs(kRanks);
  std::vector<core::ParallelOutcome> outcomes(kRanks);
  std::vector<std::exception_ptr> errors(kRanks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        World world(hybrid_config(address, r, kRanks, segs));
        outcomes[static_cast<std::size_t>(r)] =
            core::run_parallel_search(world, model, config, parallel);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World reference(cfg);
  const core::ParallelOutcome expected =
      core::run_parallel_search(reference, model, config, parallel);

  const auto flatten = [](const ac::SearchResult& s) {
    std::vector<double> v;
    v.push_back(static_cast<double>(s.tries));
    v.push_back(static_cast<double>(s.total_cycles));
    v.push_back(static_cast<double>(s.best.size()));
    for (const ac::TryResult& e : s.best) {
      v.push_back(static_cast<double>(e.try_index));
      v.push_back(static_cast<double>(e.j_requested));
      v.push_back(e.classification.cs_score);
      v.push_back(e.classification.log_likelihood);
      const auto w = e.classification.weights();
      v.insert(v.end(), w.begin(), w.end());
      const auto p = e.classification.all_params();
      v.insert(v.end(), p.begin(), p.end());
    }
    return v;
  };
  std::vector<std::vector<double>> hybrid_boards, reference_boards;
  for (const core::ParallelOutcome& o : outcomes)
    hybrid_boards.push_back(flatten(o.search));
  for (int r = 0; r < kRanks; ++r)
    reference_boards.push_back(flatten(expected.search));
  ASSERT_FALSE(expected.search.best.empty());
  expect_bit_identical(hybrid_boards, reference_boards);
}

TEST(TransportHybrid, WorldIsReusableAcrossRuns) {
  // The hybrid mesh (sockets + rings) forms once and serves several run()
  // calls; the segment fds are consumed by the first formation only.
  const std::string address = unique_address();
  constexpr int kRanks = 2;
  const HybridSegments segs(kRanks);
  std::vector<std::thread> ranks;
  std::atomic<int> failures{0};
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        World world(hybrid_config(address, r, kRanks, segs));
        for (int round = 0; round < 3; ++round) {
          world.run([round, &failures](Comm& comm) {
            const double sum = comm.allreduce_scalar(
                static_cast<double>(comm.rank() + round));
            if (sum != static_cast<double>(1 + 2 * round))
              failures.fetch_add(1);
          });
        }
      } catch (...) {
        failures.fetch_add(100);
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TransportHybrid, WorldMetricsMergedAcrossProcesses) {
  testutil::expect_world_view(run_hybrid_world(3, testutil::world_view_body));
}

TEST(TransportHybrid, TransportCountersCoverOneRun) {
  const std::string address = unique_address();
  constexpr int kRanks = 2;
  const HybridSegments segs(kRanks);
  testutil::expect_counters_per_run(
      testutil::run_world_rounds(
          kRanks, 2,
          [&](int r) { return hybrid_config(address, r, kRanks, segs); },
          testutil::world_view_body),
      {"mp.transport.messages_sent", "mp.transport.bytes_sent",
       "mp.transport.shm.peers", "mp.transport.shm.messages_sent",
       "mp.transport.shm.bytes_sent"});
}

// ---------------------------------------------------------------------------
// ShmRing unit tests: the SPSC channel by itself, two ends of one segment
// in one process (dup'd fds, exactly how the world-level fixture works).

using transport::Fd;
using transport::ShmChannel;
using transport::ShmChannelOptions;

struct ChannelPair {
  std::unique_ptr<ShmChannel> lower, higher;
  explicit ChannelPair(std::size_t ring_bytes,
                       ShmChannelOptions opts = ShmChannelOptions{}) {
    const Fd seg = ShmChannel::create_segment(ring_bytes);
    lower = std::make_unique<ShmChannel>(Fd(::dup(seg.get())), /*lower=*/true,
                                         opts, "lower end");
    higher = std::make_unique<ShmChannel>(Fd(::dup(seg.get())),
                                          /*lower=*/false, opts, "higher end");
  }
};

Message make_msg(int source, int tag, std::size_t nbytes) {
  Message m;
  m.context = 1;
  m.source = source;
  m.tag = tag;
  m.payload.resize(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i)
    m.payload[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(tag)) & 0xff);
  return m;
}

void expect_msg_equal(const Message& got, const Message& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.tag, want.tag);
  ASSERT_EQ(got.payload.size(), want.payload.size());
  if (!want.payload.empty()) {
    EXPECT_EQ(std::memcmp(got.payload.data(), want.payload.data(),
                          want.payload.size()),
              0);
  }
}

TEST(ShmRing, WraparoundPreservesFrameStream) {
  // Hundreds of varied-size frames through a 4 KiB ring: the stream wraps
  // the capacity many times over and every frame must come out intact and
  // in order.
  ChannelPair pair(4096);
  constexpr int kFrames = 400;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i)
      pair.lower->send_message(
          make_msg(0, i, static_cast<std::size_t>((i * 137) % 600)));
    pair.lower->send_shutdown();
  });
  Message got;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(pair.higher->recv_message(got)) << "frame " << i;
    expect_msg_equal(got,
                     make_msg(0, i, static_cast<std::size_t>((i * 137) % 600)));
  }
  EXPECT_FALSE(pair.higher->recv_message(got));  // clean shutdown
  producer.join();
  const auto sent = pair.lower->stats();
  EXPECT_EQ(sent.frames_sent, static_cast<std::uint64_t>(kFrames));
}

TEST(ShmRing, ChainedLargeFrameStreamsThroughSmallRing) {
  // One frame an order of magnitude larger than the ring: the payload
  // streams through in capacity-sized chunks (the chained-chunk protocol).
  ChannelPair pair(4096);
  const Message big = make_msg(1, 7, 64 * 1024);
  std::thread producer([&] { pair.lower->send_message(big); });
  Message got;
  ASSERT_TRUE(pair.higher->recv_message(got));
  producer.join();
  expect_msg_equal(got, big);
}

TEST(ShmRing, FullRingBackpressureBlocksProducer) {
  // A sleeping consumer forces the producer to fill the ring and park; once
  // the consumer drains, the stream completes and the producer's stats
  // show at least one spin-gave-up wait.
  ShmChannelOptions opts;
  opts.spin_iters = 4;  // park fast so the test measures the futex path
  ChannelPair pair(4096, opts);
  const Message big = make_msg(0, 3, 32 * 1024);
  std::thread producer([&] {
    pair.lower->send_message(big);
    pair.lower->send_shutdown();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Message got;
  ASSERT_TRUE(pair.higher->recv_message(got));
  EXPECT_FALSE(pair.higher->recv_message(got));
  producer.join();
  expect_msg_equal(got, big);
  EXPECT_GE(pair.lower->stats().waits, 1u);
}

TEST(ShmRing, PeerDeathWhileBlockedRecvThrows) {
  // A receiver parked on an empty ring must be woken and thrown out when
  // the peer's death is reported via fail() — not sleep forever.
  ChannelPair pair(4096);
  std::exception_ptr thrown;
  std::thread consumer([&] {
    try {
      Message got;
      pair.higher->recv_message(got);
    } catch (...) {
      thrown = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.lower->fail("rank 0 died (test)");
  consumer.join();
  ASSERT_TRUE(thrown != nullptr);
  try {
    std::rethrow_exception(thrown);
  } catch (const TransportError& e) {
    // The reason string lives in the failing end's process; across the
    // segment only the failed flag travels, so the blocked end reports a
    // generic channel failure.  (In HybridTransport the local channel is
    // fail()'d with the real socket-EOF diagnosis, which DOES carry it.)
    EXPECT_NE(std::string(e.what()).find("shm channel failed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(pair.higher->failed());
}

TEST(ShmRing, PeerDeathWhileBlockedSendThrows) {
  // A producer blocked on a full ring (nobody consuming) must be woken and
  // thrown out when the peer dies.
  ShmChannelOptions opts;
  opts.spin_iters = 4;
  ChannelPair pair(4096, opts);
  std::exception_ptr thrown;
  std::thread producer([&] {
    try {
      pair.lower->send_message(make_msg(0, 1, 64 * 1024));
    } catch (...) {
      thrown = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.higher->fail("rank 1 died (test)");
  producer.join();
  ASSERT_TRUE(thrown != nullptr);
  EXPECT_THROW(std::rethrow_exception(thrown), TransportError);
  // Every later operation on either end fails fast, too.
  EXPECT_THROW(pair.lower->send_message(make_msg(0, 2, 8)), TransportError);
}

TEST(ShmRing, TruncatedSegmentRejected) {
  Fd seg = ShmChannel::create_segment(4096);
  ASSERT_EQ(::ftruncate(seg.get(), 2560), 0);
  EXPECT_THROW(ShmChannel(std::move(seg), true, ShmChannelOptions{}, "trunc"),
               TransportError);
}

TEST(ShmRing, GarbageSegmentRejected) {
  // A right-sized file that was never initialized as a segment must be a
  // typed error, not a hang on garbage control words.
  Fd seg = ShmChannel::create_segment(4096);
  // Zero the header: magic/version/ring_bytes all invalid.
  const std::vector<char> zeros(64, 0);
  ASSERT_EQ(::pwrite(seg.get(), zeros.data(), zeros.size(), 0),
            static_cast<ssize_t>(zeros.size()));
  EXPECT_THROW(ShmChannel(std::move(seg), true, ShmChannelOptions{}, "junk"),
               TransportError);
}

}  // namespace
}  // namespace pac::mp
