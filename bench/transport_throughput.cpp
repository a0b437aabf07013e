// pacnet transport throughput — two harnesses in one binary.
//
// LAUNCHED MODE (under pac_launch, any backend): the classic table of
// ping-pong latency/bandwidth and allreduce cost over a message-size
// sweep, measured on whatever world the environment provides:
//
//   pac_launch -n 4 ./transport_throughput                    # sockets
//   pac_launch -n 4 --backend hybrid ./transport_throughput   # shm rings
//
// STANDALONE MODE (no PACNET_* env): a google-benchmark suite that builds
// loopback 2-rank worlds in-process (threads standing in for ranks, real
// fds underneath — the transport cannot tell) and measures the same-host
// routing win directly.  Series:
//
//   BM_TransportPingPongSocket/<bytes>   full socket mesh, loopback TCP-less
//                                        unix stream pair
//   BM_TransportPingPongHybrid/<bytes>   hybrid: data frames over the SPSC
//                                        shm ring, sockets idle
//   BM_TransportShmRingPingPong/<bytes>  the raw ShmChannel, no mailbox or
//                                        matching on top
//
// All series use manual time (rank 0's wall clock around a block of round
// trips), so the JSON report feeds scripts/bench_diff.py ratio pairs: the
// committed acceptance bar is >= 2x small-message round-trip throughput
// for hybrid over socket.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "mp/comm.hpp"
#include "mp/transport/env.hpp"
#include "mp/transport/shm_ring.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int pingpong_iters_for(std::size_t bytes, bool smoke) {
  if (smoke) return 4;
  const auto budget = static_cast<std::size_t>(1) << 22;  // ~4 MB per side
  return static_cast<int>(std::clamp<std::size_t>(budget / bytes, 8, 256));
}

int allreduce_iters_for(std::size_t bytes, bool smoke) {
  if (smoke) return 2;
  const auto budget = static_cast<std::size_t>(1) << 20;
  return static_cast<int>(std::clamp<std::size_t>(budget / bytes, 4, 64));
}

// ---------------------------------------------------------------------------
// Launched mode: the original table harness, unchanged protocol.

struct Row {
  std::size_t bytes = 0;
  int pingpong_iters = 0;
  double pingpong_seconds = 0.0;  // total for pingpong_iters round trips
  int allreduce_iters = 0;
  double allreduce_seconds = 0.0;  // total for allreduce_iters calls
};

int run_launched_table(pac::mp::World::Config cfg, int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);
  const bool smoke = cli.get_bool("smoke", false);
  const bool primary = mp::transport::is_primary();
  const int procs = cfg.num_ranks;

  std::vector<std::size_t> sizes;
  for (const auto s : cli.get_int_list(
           "sizes", smoke ? std::vector<std::int64_t>{8, 1024, 65536}
                          : std::vector<std::int64_t>{8, 64, 1024, 16384,
                                                      262144, 1048576}))
    sizes.push_back(static_cast<std::size_t>(s));

  mp::World world(cfg);
  std::vector<Row> rows;
  std::mutex rows_mutex;
  std::string backend;

  world.run([&](mp::Comm& comm) {
    if (comm.rank() == 0) backend = comm.backend_name();
    constexpr int kTag = 7;
    for (const std::size_t bytes : sizes) {
      Row row;
      row.bytes = bytes;
      row.pingpong_iters = pingpong_iters_for(bytes, smoke);
      std::vector<std::uint8_t> buf(bytes, 0xA5);
      comm.barrier();
      if (comm.size() >= 2) {
        const int warmup = smoke ? 1 : 4;
        if (comm.rank() == 0) {
          for (int i = 0; i < warmup; ++i) {
            comm.send<std::uint8_t>(1, kTag, buf);
            comm.recv<std::uint8_t>(1, kTag, buf);
          }
          const auto t0 = Clock::now();
          for (int i = 0; i < row.pingpong_iters; ++i) {
            comm.send<std::uint8_t>(1, kTag, buf);
            comm.recv<std::uint8_t>(1, kTag, buf);
          }
          row.pingpong_seconds = seconds_since(t0);
        } else if (comm.rank() == 1) {
          for (int i = 0; i < warmup + row.pingpong_iters; ++i) {
            comm.recv<std::uint8_t>(0, kTag, buf);
            comm.send<std::uint8_t>(0, kTag, buf);
          }
        }
      }
      comm.barrier();

      std::vector<double> v(std::max<std::size_t>(1, bytes / sizeof(double)),
                            1.0);
      row.allreduce_iters = allreduce_iters_for(bytes, smoke);
      comm.allreduce_inplace<double>(v, mp::ReduceOp::kSum);  // warmup
      comm.barrier();
      const auto t1 = Clock::now();
      for (int i = 0; i < row.allreduce_iters; ++i)
        comm.allreduce_inplace<double>(v, mp::ReduceOp::kSum);
      row.allreduce_seconds = seconds_since(t1);
      comm.barrier();

      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(rows_mutex);
        rows.push_back(row);
      }
    }
  });

  if (!primary) return 0;

  std::cout << "# transport_throughput — backend " << backend << ", " << procs
            << " processes (host wall-clock time)\n";
  Table table("pt2pt ping-pong (ranks 0<->1) and allreduce, by message size");
  table.set_header({"bytes", "rt lat us", "bw MB/s", "allreduce us"});
  for (const Row& row : rows) {
    const double rt_us = row.pingpong_iters > 0
                             ? row.pingpong_seconds * 1e6 /
                                   static_cast<double>(row.pingpong_iters)
                             : 0.0;
    // One-way payload bytes moved per round trip = 2 * bytes.
    const double bw =
        row.pingpong_seconds > 0.0
            ? 2.0 * static_cast<double>(row.bytes) *
                  static_cast<double>(row.pingpong_iters) /
                  row.pingpong_seconds / 1e6
            : 0.0;
    const double ar_us = row.allreduce_seconds * 1e6 /
                         static_cast<double>(row.allreduce_iters);
    table.add_row({std::to_string(row.bytes), format_fixed(rt_us, 1),
                   format_fixed(bw, 1), format_fixed(ar_us, 1)});
  }
  table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Standalone mode: google-benchmark loopback worlds.

using pac::mp::Comm;
using pac::mp::World;

std::string unique_address() {
  static std::atomic<int> counter{0};
  return "unix:/tmp/pacnet_bench." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

World::Config loopback_config(const std::string& address, int rank) {
  World::Config cfg;
  cfg.num_ranks = 2;
  cfg.backend = World::Config::Backend::kSocket;
  cfg.socket.address = address;
  cfg.socket.rank = rank;
  cfg.socket.size = 2;
  return cfg;
}

/// rank 0 <-> rank 1 ping-pong driven by the benchmark state on the main
/// thread (which IS rank 0); rank 1 is an echo thread.  Each state
/// iteration times one block of round trips; a control message tells the
/// echoer the block length (-1 = done), so the world survives the whole
/// measurement and the rendezvous cost never pollutes the numbers.
void pingpong_world_bench(benchmark::State& state, bool hybrid) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const int block = pingpong_iters_for(bytes, /*smoke=*/false);
  constexpr int kCtlTag = 1;
  constexpr int kDataTag = 2;

  const std::string address = unique_address();
  World::Config cfg0 = loopback_config(address, 0);
  World::Config cfg1 = loopback_config(address, 1);
  if (hybrid) {
    static std::atomic<std::uint64_t> token_counter{1};
    const std::uint64_t token =
        ((static_cast<std::uint64_t>(::getpid()) << 20) ^
         token_counter.fetch_add(1)) |
        1u;
    const pac::mp::transport::Fd seg =
        pac::mp::transport::ShmChannel::create_segment(
            pac::mp::transport::kDefaultShmRingBytes);
    for (World::Config* cfg : {&cfg0, &cfg1}) {
      cfg->backend = World::Config::Backend::kHybrid;
      cfg->shm.host_token = token;
      cfg->shm.fds = {{cfg == &cfg0 ? 1 : 0, ::dup(seg.get())}};
    }
  }

  std::thread echo([&cfg1, bytes] {
    World world(cfg1);
    world.run([bytes](Comm& comm) {
      std::vector<std::uint8_t> buf(bytes, 0x5A);
      for (;;) {
        const auto n = comm.recv_value<std::int64_t>(0, kCtlTag);
        if (n < 0) return;
        for (std::int64_t i = 0; i < n; ++i) {
          comm.recv<std::uint8_t>(0, kDataTag, buf);
          comm.send<std::uint8_t>(0, kDataTag, buf);
        }
      }
    });
  });

  {
    World world(cfg0);
    world.run([&](Comm& comm) {
      std::vector<std::uint8_t> buf(bytes, 0xA5);
      auto block_of = [&](std::int64_t n) {
        comm.send_value<std::int64_t>(1, kCtlTag, n);
        for (std::int64_t i = 0; i < n; ++i) {
          comm.send<std::uint8_t>(1, kDataTag, buf);
          comm.recv<std::uint8_t>(1, kDataTag, buf);
        }
      };
      block_of(std::min(block, 16));  // warmup
      for (auto _ : state) {
        const auto t0 = Clock::now();
        block_of(block);
        state.SetIterationTime(seconds_since(t0));
      }
      comm.send_value<std::int64_t>(1, kCtlTag, -1);
    });
    // World teardown exchanges shutdown frames with the peer: rank 0's
    // world must die BEFORE joining the echo thread, whose own teardown
    // blocks until rank 0's shutdown arrives.
  }
  echo.join();

  state.SetItemsProcessed(state.iterations() * block);
  state.SetBytesProcessed(state.iterations() * block * 2 *
                          static_cast<std::int64_t>(bytes));
  state.counters["round_trips_per_iter"] = static_cast<double>(block);
}

void BM_TransportPingPongSocket(benchmark::State& state) {
  pingpong_world_bench(state, /*hybrid=*/false);
}
void BM_TransportPingPongHybrid(benchmark::State& state) {
  pingpong_world_bench(state, /*hybrid=*/true);
}

/// The raw SPSC channel with no mailbox/matching above it: upper bound for
/// what the hybrid transport can reach, and the number that isolates ring
/// protocol changes from runtime changes.
void BM_TransportShmRingPingPong(benchmark::State& state) {
  using pac::mp::Message;
  using pac::mp::transport::Fd;
  using pac::mp::transport::ShmChannel;
  using pac::mp::transport::ShmChannelOptions;

  const auto bytes = static_cast<std::size_t>(state.range(0));
  const int block = pingpong_iters_for(bytes, /*smoke=*/false);
  const Fd seg =
      ShmChannel::create_segment(pac::mp::transport::kDefaultShmRingBytes);
  ShmChannel lower(Fd(::dup(seg.get())), /*lower=*/true, ShmChannelOptions{},
                   "bench lower");
  ShmChannel higher(Fd(::dup(seg.get())), /*lower=*/false, ShmChannelOptions{},
                    "bench higher");

  std::thread echo([&higher] {
    Message m;
    while (higher.recv_message(m)) higher.send_message(m);
  });

  Message ping;
  ping.context = 1;
  ping.source = 0;
  ping.tag = 2;
  ping.payload.assign(bytes, std::byte{0xA5});
  Message pong;
  auto block_of = [&](int n) {
    for (int i = 0; i < n; ++i) {
      lower.send_message(ping);
      lower.recv_message(pong);
    }
  };
  block_of(std::min(block, 16));  // warmup
  for (auto _ : state) {
    const auto t0 = Clock::now();
    block_of(block);
    state.SetIterationTime(seconds_since(t0));
  }
  lower.send_shutdown();
  echo.join();

  state.SetItemsProcessed(state.iterations() * block);
  state.SetBytesProcessed(state.iterations() * block * 2 *
                          static_cast<std::int64_t>(bytes));
  state.counters["round_trips_per_iter"] = static_cast<double>(block);
}

constexpr std::int64_t kSweep[] = {8, 64, 1024, 65536, 1048576};

void register_benches() {
  for (const std::int64_t bytes : kSweep) {
    benchmark::RegisterBenchmark("BM_TransportPingPongSocket",
                                 BM_TransportPingPongSocket)
        ->Arg(bytes)
        ->UseManualTime();
    benchmark::RegisterBenchmark("BM_TransportPingPongHybrid",
                                 BM_TransportPingPongHybrid)
        ->Arg(bytes)
        ->UseManualTime();
    benchmark::RegisterBenchmark("BM_TransportShmRingPingPong",
                                 BM_TransportShmRingPingPong)
        ->Arg(bytes)
        ->UseManualTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pac;
  mp::World::Config cfg;
  cfg.num_ranks = 2;
  cfg.machine = net::ideal_machine();
  if (mp::transport::apply_env_backend(cfg))
    return run_launched_table(cfg, argc, argv);

  // Standalone: google-benchmark mode, same harness contract as
  // micro_kernels (--smoke maps to a minimal measurement time).
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  register_benches();
  benchmark::AddCustomContext("pac_simd", simd::describe());
#ifdef NDEBUG
  benchmark::AddCustomContext("pac_build", "release");
#else
  benchmark::AddCustomContext("pac_build", "debug");
#endif
  std::fprintf(stderr,
               "transport_throughput: loopback 2-rank worlds "
               "(socket vs hybrid shm)\n");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
