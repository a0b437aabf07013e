// SocketTransport tests: loopback multi-rank worlds where every rank is a
// thread of THIS process running its own World on the socket backend (the
// transport only sees file descriptors, so threads stand in for processes
// and the whole mesh — rendezvous, framing, reader threads, failure
// detection — is exercised for real).  True multi-process coverage lives in
// test_transport_launch.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "autoclass/em.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"
#include "mp/comm.hpp"
#include "mp/transport/env.hpp"
#include "mp/transport/frame.hpp"
#include "transport_test_util.hpp"
#include "util/error.hpp"

namespace pac::mp {
namespace {

using testutil::collective_suite;
using testutil::cycle_suite;
using testutil::estep_suite;
using testutil::expect_bit_identical;
using testutil::run_socket_world;
using testutil::socket_config;
using testutil::unique_address;

TEST(TransportSocket, ValueRoundTripAndStatus) {
  run_socket_world(2, [](Comm& comm) {
    EXPECT_TRUE(comm.distributed());
    EXPECT_STREQ(comm.backend_name(), "socket");
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
  });
}

TEST(TransportSocket, WildcardSourceAndTag) {
  run_socket_world(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value<int>(0, 10 + comm.rank(), comm.rank());
    } else {
      int mask = 0;
      for (int k = 0; k < 2; ++k) {
        Status st;
        const int v = comm.recv_value<int>(kAnySource, kAnyTag, &st);
        EXPECT_EQ(st.source, v);
        EXPECT_EQ(st.tag, 10 + v);
        mask |= 1 << v;
      }
      EXPECT_EQ(mask, 0b110);
    }
    comm.barrier();
  });
}

TEST(TransportSocket, TagMatchingOutOfOrderAndNonOvertaking) {
  run_socket_world(2, [](Comm& comm) {
    constexpr int kCount = 40;
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 10, 100);
      comm.send_value<int>(1, 20, 200);
      for (int i = 0; i < kCount; ++i) comm.send_value<int>(1, 4, i);
    } else {
      // Out of send order by tag; ordered within a (source, tag) stream.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
      for (int i = 0; i < kCount; ++i)
        EXPECT_EQ(comm.recv_value<int>(0, 4), i);
    }
  });
}

TEST(TransportSocket, ProbeAndIprobe) {
  run_socket_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1, 5, 2.75);
    } else {
      Status probed;
      while (!comm.iprobe(kAnySource, kAnyTag, probed))
        std::this_thread::yield();
      EXPECT_EQ(probed.source, 0);
      EXPECT_EQ(probed.tag, 5);
      EXPECT_EQ(probed.bytes, sizeof(double));
      Status st;
      EXPECT_TRUE(comm.iprobe(0, 5, st));
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_EQ(comm.recv_value<double>(0, 5), 2.75);
      EXPECT_FALSE(comm.iprobe(0, 5, st));
    }
    comm.barrier();
  });
}

TEST(TransportSocket, CollectivesBitIdenticalToInProcess) {
  constexpr int kRanks = 4;
  std::vector<std::vector<double>> socket_sink(kRanks), modeled_sink(kRanks);
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
  expect_bit_identical(socket_sink, modeled_sink);
}

TEST(TransportSocket, SplitFormsWorkingSubgroups) {
  run_socket_world(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 2);
    // Parity subgroup sum: even ranks {0,2} -> 2, odd {1,3} -> 4.
    const double sum = sub.allreduce_scalar(static_cast<double>(comm.rank()));
    EXPECT_DOUBLE_EQ(sum, comm.rank() % 2 == 0 ? 2.0 : 4.0);
    // Subgroup pt2pt stays isolated from world traffic.
    if (sub.rank() == 0) {
      sub.send_value<int>(1, 1, 77 + comm.rank());
    } else {
      EXPECT_EQ(sub.recv_value<int>(0, 1), 77 + (comm.rank() - 2));
    }
    // Opting out with a negative color must not desync the others.
    Comm none = comm.split(comm.rank() == 0 ? -1 : 0, comm.rank());
    EXPECT_EQ(none.valid(), comm.rank() != 0);
    if (none.valid()) {
      EXPECT_EQ(none.size(), 3);
    }
    comm.barrier();
  });
}

TEST(TransportSocket, RunStatsIdenticalOnEveryRank) {
  const std::vector<RunStats> stats =
      run_socket_world(3, [](Comm& comm) {
        comm.allreduce_scalar(1.0);
        if (comm.rank() == 0) comm.send_value<int>(2, 1, 5);
        if (comm.rank() == 2) (void)comm.recv_value<int>(0, 1);
        comm.barrier();
      });
  ASSERT_EQ(stats.size(), 3u);
  for (const RunStats& s : stats) {
    EXPECT_EQ(s.num_ranks, 3);
    ASSERT_EQ(s.rank_finish.size(), 3u);
    // End-of-run stat exchange: every rank reports the same world view.
    EXPECT_EQ(s.total_messages, stats[0].total_messages);
    EXPECT_EQ(s.total_bytes, stats[0].total_bytes);
    EXPECT_EQ(s.total_collectives, stats[0].total_collectives);
    EXPECT_EQ(s.rank_finish, stats[0].rank_finish);
  }
  EXPECT_GE(stats[0].total_messages, 1u);
  EXPECT_GE(stats[0].total_bytes, sizeof(int));
  EXPECT_GE(stats[0].total_collectives, 3u * 2u);  // allreduce + barrier
}

TEST(TransportSocket, WorldMetricsMergedAcrossProcesses) {
  testutil::expect_world_view(run_socket_world(3, testutil::world_view_body));
}

TEST(TransportSocket, TransportCountersCoverOneRun) {
  const std::string address = unique_address();
  testutil::expect_counters_per_run(
      testutil::run_world_rounds(
          2, 2, [&](int r) { return socket_config(address, r, 2); },
          testutil::world_view_body),
      {"mp.transport.messages_sent", "mp.transport.bytes_sent"});
}

TEST(TransportSocket, RecvSecondsExcludeComputeBeforeTheRecv) {
  // Rank 0 computes for 100 ms, then receives a message that arrived long
  // before: the gap is compute time (op_begin books it), so only the
  // receive itself counts as receive time.
  const std::vector<RunStats> stats = run_socket_world(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(0, 3, 42);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(comm.recv_value<int>(1, 3), 42);
  });
  const metrics::Histogram* recv =
      stats[0].metrics.find_histogram("mp.recv.seconds");
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(recv->count(), 1u);
  EXPECT_LT(recv->sum(), 0.05);
}

TEST(TransportSocket, EmptyCollectivesCountOncePerRank) {
  // Each kind with empty spans as the first collective of a fresh world.
  constexpr int kRanks = 3;
  for (const net::CollectiveKind kind : testutil::kMinimpiKinds) {
    const auto k = static_cast<std::size_t>(kind);
    SCOPED_TRACE(net::to_string(kind));
    const std::vector<RunStats> stats =
        run_socket_world(kRanks, [&](Comm& comm) {
          EXPECT_EQ(testutil::call_collective(comm, kind, 0), 0u);
        });
    // The world's start-up barrier adds one barrier per rank.
    const std::uint64_t calls =
        kind == net::CollectiveKind::kBarrier ? 2 * kRanks : kRanks;
    for (const RunStats& s : stats) {
      EXPECT_EQ(s.total_collectives, static_cast<std::uint64_t>(2 * kRanks));
      EXPECT_EQ(s.collective_calls[k], calls);
    }
  }
}

TEST(TransportSocket, WorldIsReusableAcrossRuns) {
  // The socket mesh forms once and serves several run() calls.
  const std::string address = unique_address();
  constexpr int kRanks = 2;
  std::vector<std::thread> ranks;
  std::atomic<int> failures{0};
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        World world(socket_config(address, r, kRanks));
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

TEST(TransportSocket, EStepKernelBitIdenticalToScalarAndInProcess) {
  // Kernel-vs-scalar smoke on the real transport: the batched E-step and the
  // per-item scalar oracle must agree bit for bit over socket reductions AND
  // match the in-process backend.  Full per-family kernel coverage lives in
  // test_ac_kernels; this runs a mixed real+discrete model with missing
  // values through the whole distributed pipeline.
  constexpr int kRanks = 3;
  data::LabeledDataset ld = data::mixed_mixture(
      {{0.5, {0.0, 1.0}, {1.0, 0.5}, {{0.8, 0.2}, {0.1, 0.6, 0.3}}},
       {0.5, {3.0, -1.0}, {0.7, 1.2}, {{0.3, 0.7}, {0.5, 0.2, 0.3}}}},
      600, 11);
  data::inject_missing(ld.dataset, 0.05, 7);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  std::vector<std::vector<double>> kernel(kRanks), scalar(kRanks),
      modeled(kRanks);
  run_socket_world(kRanks, [&](Comm& comm) {
    estep_suite(comm, model, /*scalar=*/false,
                kernel[static_cast<std::size_t>(comm.rank())]);
  });
  run_socket_world(kRanks, [&](Comm& comm) {
    estep_suite(comm, model, /*scalar=*/true,
                scalar[static_cast<std::size_t>(comm.rank())]);
  });
  World::Config cfg;
  cfg.num_ranks = kRanks;
  cfg.machine = net::ideal_machine();
  World world(cfg);
  world.run([&](Comm& comm) {
    estep_suite(comm, model, /*scalar=*/false,
                modeled[static_cast<std::size_t>(comm.rank())]);
  });
  expect_bit_identical(kernel, scalar);
  expect_bit_identical(kernel, modeled);
}

TEST(TransportSocket, MStepKernelAndThreadsBitIdenticalAcrossBackends) {
  // M-step smoke on the real transport: batched statistics vs the scalar
  // oracle, 1 vs 2 intra-rank threads, and the in-process modeled backend
  // must all agree bit for bit after socket reductions.  Full per-family
  // and thread-matrix coverage lives in test_ac_kernels; this pins the
  // hybrid ranks x threads layer to the distributed pipeline.
  constexpr int kRanks = 3;
  data::LabeledDataset ld = data::mixed_mixture(
      {{0.5, {0.0, 1.0}, {1.0, 0.5}, {{0.8, 0.2}, {0.1, 0.6, 0.3}}},
       {0.5, {3.0, -1.0}, {0.7, 1.2}, {{0.3, 0.7}, {0.5, 0.2, 0.3}}}},
      600, 13);
  data::inject_missing(ld.dataset, 0.05, 8);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  std::vector<std::vector<double>> kernel(kRanks), scalar(kRanks),
      threaded(kRanks), modeled(kRanks);
  run_socket_world(kRanks, [&](Comm& comm) {
    cycle_suite(comm, model, /*scalar=*/false, /*threads=*/1,
                kernel[static_cast<std::size_t>(comm.rank())]);
  });
  run_socket_world(kRanks, [&](Comm& comm) {
    cycle_suite(comm, model, /*scalar=*/true, /*threads=*/1,
                scalar[static_cast<std::size_t>(comm.rank())]);
  });
  run_socket_world(kRanks, [&](Comm& comm) {
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
  expect_bit_identical(kernel, scalar);
  expect_bit_identical(kernel, threaded);
  expect_bit_identical(kernel, modeled);
}

TEST(TransportSocket, GroupSearchMergesBitIdenticalToInProcess) {
  // Try-parallel search on the real transport: four socket ranks split into
  // two sub-worlds, with the advisory summary exchange riding world pt2pt
  // and the final merge riding the allgather.  The merged leaderboard must
  // be identical on every rank and bit-identical to the in-process modeled
  // backend at the same sub-world size.
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

  // Each rank thread owns a full World (what kRanks pac_launch'd processes
  // would do) and runs the whole search, capturing its own merged result.
  const std::string address = unique_address();
  std::vector<core::ParallelOutcome> outcomes(kRanks);
  std::vector<std::exception_ptr> errors(kRanks);
  std::vector<std::thread> ranks;
  for (int r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      try {
        World world(socket_config(address, r, kRanks));
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
  std::vector<std::vector<double>> socket_boards, reference_boards;
  for (const core::ParallelOutcome& o : outcomes)
    socket_boards.push_back(flatten(o.search));
  for (int r = 0; r < kRanks; ++r)
    reference_boards.push_back(flatten(expected.search));
  ASSERT_FALSE(expected.search.best.empty());
  expect_bit_identical(socket_boards, reference_boards);
}

TEST(TransportSocket, ConnectionRefusedThrowsTransportError) {
  // Rank 1 of a 2-rank world whose rank 0 never shows up: the rendezvous
  // retries until the timeout, then reports a typed, rank-naming error.
  World::Config cfg = socket_config(unique_address(), /*rank=*/1, /*size=*/2);
  cfg.socket.connect_timeout = 0.2;
  World world(cfg);
  try {
    world.run([](Comm&) {});
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Frame codec hardening: malformed frames must produce typed FrameErrors
// BEFORE any payload allocation, never a silent giant resize or a hang.

/// A connected stream pair (what one peer link of the mesh looks like).
struct StreamPair {
  transport::Fd a, b;
  StreamPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw pac::Error(std::string("socketpair: ") + std::strerror(errno));
    a = transport::Fd(fds[0]);
    b = transport::Fd(fds[1]);
  }
};

transport::FrameError::Kind read_frame_error(const transport::Fd& fd,
                                             const transport::FrameLimits& l) {
  transport::FrameHeader h;
  std::vector<std::byte> payload;
  try {
    transport::read_frame(fd, l, h, payload, "test stream");
  } catch (const transport::FrameError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected FrameError";
  return transport::FrameError::Kind::kBadMagic;
}

TEST(FrameCodec, RoundTripPreservesHeaderAndPayload) {
  StreamPair s;
  transport::FrameHeader h;
  h.context = 7;
  h.source = 3;
  h.tag = 42;
  h.seq = 9;
  const std::string body = "hello frames";
  transport::write_frame(s.a, h, body.data(), body.size(), {}, "send");
  transport::FrameHeader got;
  std::vector<std::byte> payload;
  ASSERT_TRUE(transport::read_frame(s.b, {}, got, payload, "recv"));
  EXPECT_EQ(got.context, 7);
  EXPECT_EQ(got.source, 3);
  EXPECT_EQ(got.tag, 42);
  EXPECT_EQ(got.seq, 9u);
  ASSERT_EQ(payload.size(), body.size());
  EXPECT_EQ(std::memcmp(payload.data(), body.data(), body.size()), 0);
}

TEST(FrameCodec, CleanEofAtFrameBoundaryReturnsFalse) {
  StreamPair s;
  s.a.close();
  transport::FrameHeader h;
  std::vector<std::byte> payload;
  EXPECT_FALSE(transport::read_frame(s.b, {}, h, payload, "recv"));
}

TEST(FrameCodec, OversizedLengthRejectedBeforeAllocation) {
  // An adversarial header declaring a 2^60-byte payload must be a typed
  // error; pre-hardening this resize()d an attacker-controlled length.
  StreamPair s;
  transport::FrameHeader h;
  h.nbytes = std::uint64_t{1} << 60;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  transport::FrameHeader got;
  std::vector<std::byte> payload;
  try {
    transport::read_frame(s.b, {}, got, payload, "recv");
    FAIL() << "expected FrameError";
  } catch (const transport::FrameError& e) {
    EXPECT_EQ(e.kind(), transport::FrameError::Kind::kOversized);
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
  }
  EXPECT_TRUE(payload.empty()) << "payload must not be allocated";
}

TEST(FrameCodec, TightLimitAppliesToDataFrames) {
  StreamPair s;
  transport::FrameHeader h;
  h.nbytes = 64;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  const transport::FrameLimits tight{32, true};
  EXPECT_EQ(read_frame_error(s.b, tight),
            transport::FrameError::Kind::kOversized);
}

TEST(FrameCodec, BadMagicRejected) {
  StreamPair s;
  transport::FrameHeader h;
  h.magic = 0xdeadbeef;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  EXPECT_EQ(read_frame_error(s.b, {}), transport::FrameError::Kind::kBadMagic);
}

TEST(FrameCodec, UnknownKindRejected) {
  StreamPair s;
  transport::FrameHeader h;
  h.kind = 99;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  EXPECT_EQ(read_frame_error(s.b, {}), transport::FrameError::Kind::kBadKind);
}

TEST(FrameCodec, ShutdownFrameWithPayloadRejected) {
  StreamPair s;
  transport::FrameHeader h;
  h.kind = transport::kFrameShutdown;
  h.nbytes = 8;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  EXPECT_EQ(read_frame_error(s.b, {}), transport::FrameError::Kind::kBadKind);
}

TEST(FrameCodec, ZeroLengthDataFramePolicy) {
  // The transport allows empty payloads (zero-byte collectives are legal);
  // stricter protocols (pac_serve) reject them.
  StreamPair allow;
  transport::FrameHeader h;
  transport::write_frame(allow.a, h, nullptr, 0, {}, "send");
  transport::FrameHeader got;
  std::vector<std::byte> payload;
  EXPECT_TRUE(transport::read_frame(allow.b, {}, got, payload, "recv"));

  StreamPair strict;
  transport::write_full(strict.a, &h, sizeof(h), "raw header");
  const transport::FrameLimits no_empty{1024, false};
  EXPECT_EQ(read_frame_error(strict.b, no_empty),
            transport::FrameError::Kind::kEmptyPayload);
}

TEST(FrameCodec, TruncatedHeaderIsTypedError) {
  StreamPair s;
  transport::FrameHeader h;
  transport::write_full(s.a, &h, sizeof(h) / 2, "partial header");
  s.a.close();
  EXPECT_EQ(read_frame_error(s.b, {}),
            transport::FrameError::Kind::kTruncated);
}

TEST(FrameCodec, TruncatedPayloadIsTypedError) {
  StreamPair s;
  transport::FrameHeader h;
  h.nbytes = 100;
  transport::write_full(s.a, &h, sizeof(h), "raw header");
  transport::write_full(s.a, "short", 5, "partial payload");
  s.a.close();
  EXPECT_EQ(read_frame_error(s.b, {}),
            transport::FrameError::Kind::kTruncated);
}

TEST(FrameCodec, SendSideLimitEnforced) {
  StreamPair s;
  transport::FrameHeader h;
  std::vector<std::byte> big(64);
  const transport::FrameLimits tight{32, true};
  EXPECT_THROW(
      transport::write_frame(s.a, h, big.data(), big.size(), tight, "send"),
      transport::FrameError);
}

TEST(FrameCodec, GarbageStreamDrainsToTypedErrorNotAllocation) {
  // A stream of random bytes (fuzz stand-in) must always end in a typed
  // FrameError or clean EOF — never a giant allocation or a hang.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 64; ++round) {
    StreamPair s;
    std::vector<std::byte> junk(sizeof(transport::FrameHeader) + 24);
    for (auto& b : junk) b = static_cast<std::byte>(next() & 0xff);
    transport::write_full(s.a, junk.data(), junk.size(), "junk");
    s.a.close();
    transport::FrameHeader h;
    std::vector<std::byte> payload;
    const transport::FrameLimits limits{1 << 20, true};
    try {
      while (transport::read_frame(s.b, limits, h, payload, "fuzz")) {
        EXPECT_LE(payload.size(), std::size_t{1} << 20);
      }
    } catch (const transport::FrameError&) {
      // expected for nearly every round
    }
  }
}

}  // namespace
}  // namespace pac::mp
