// Shared fixtures and equivalence suites for the transport test binaries.
//
// test_transport_socket and test_transport_hybrid both run loopback
// multi-rank worlds where every rank is a thread of the test process with
// its own World (exactly what N pac_launch'd processes would do — the
// transport only sees file descriptors), and both pin the same workloads
// (collectives, EM trajectories, group search) bit-identically against the
// in-process modeled backend.  This header holds the world harnesses and
// the workload suites so the two files assert against one source of truth.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autoclass/em.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"
#include "mp/comm.hpp"
#include "mp/transport/shm_ring.hpp"

namespace pac::mp::testutil {

/// Fresh rendezvous address per world: unix sockets need paths that do not
/// collide across tests (or across parallel ctest shards of this binary).
inline std::string unique_address() {
  static std::atomic<int> counter{0};
  return "unix:/tmp/pacnet_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

inline World::Config socket_config(const std::string& address, int rank,
                                   int size) {
  World::Config cfg;
  cfg.num_ranks = size;
  cfg.backend = World::Config::Backend::kSocket;
  cfg.socket.address = address;
  cfg.socket.rank = rank;
  cfg.socket.size = size;
  return cfg;
}

/// Shm segments for an n-rank same-host hybrid world, playing the part of
/// pac_launch: one segment per rank pair, a nonzero per-world host token,
/// and a dup'd fd per side so each rank's transport owns (and closes) its
/// own descriptor.
struct HybridSegments {
  std::uint64_t host_token = 0;
  /// rank -> (peer rank, owned segment fd) list for World::Config::shm.fds.
  std::vector<std::vector<std::pair<int, int>>> per_rank;

  explicit HybridSegments(int n,
                          std::size_t ring_bytes =
                              transport::kDefaultShmRingBytes) {
    static std::atomic<std::uint64_t> counter{1};
    host_token = (static_cast<std::uint64_t>(::getpid()) << 20) ^
                 counter.fetch_add(1);
    if (host_token == 0) host_token = 1;
    per_rank.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const transport::Fd seg =
            transport::ShmChannel::create_segment(ring_bytes);
        per_rank[static_cast<std::size_t>(i)].emplace_back(
            j, ::dup(seg.get()));
        per_rank[static_cast<std::size_t>(j)].emplace_back(
            i, ::dup(seg.get()));
        // `seg` closes here; the dup'd descriptors keep the memfd alive.
      }
    }
  }
};

inline World::Config hybrid_config(const std::string& address, int rank,
                                   int size, const HybridSegments& segs,
                                   std::uint32_t spin_iters = 0) {
  World::Config cfg = socket_config(address, rank, size);
  cfg.backend = World::Config::Backend::kHybrid;
  cfg.shm.host_token = segs.host_token;
  cfg.shm.fds = segs.per_rank[static_cast<std::size_t>(rank)];
  cfg.shm.spin_iters = spin_iters;
  return cfg;
}

/// Run `fn` `rounds` times on an n-rank world, one thread per rank, each
/// with its own World built by `make_config(rank)` and reused across the
/// rounds.  Rethrows the first rank failure; returns every rank's RunStats,
/// indexed [rank][round].
template <class MakeConfig, class Fn>
std::vector<std::vector<RunStats>> run_world_rounds(int n, int rounds,
                                                    MakeConfig make_config,
                                                    Fn fn) {
  std::vector<std::vector<RunStats>> stats(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    ranks.emplace_back([&, r] {
      try {
        World world(make_config(r));
        for (int round = 0; round < rounds; ++round)
          stats[static_cast<std::size_t>(r)].push_back(
              world.run([&](Comm& comm) { fn(comm); }));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : ranks) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return stats;
}

/// One round of run_world_rounds: every rank's RunStats.
template <class MakeConfig, class Fn>
std::vector<RunStats> run_world_threads(int n, MakeConfig make_config,
                                        Fn fn) {
  std::vector<RunStats> stats;
  for (std::vector<RunStats>& rank : run_world_rounds(n, 1, make_config, fn))
    stats.push_back(std::move(rank.front()));
  return stats;
}

/// Run `fn` on an n-rank socket world (threads standing in for processes).
template <class Fn>
std::vector<RunStats> run_socket_world(int n, Fn fn) {
  const std::string address = unique_address();
  return run_world_threads(
      n, [&](int r) { return socket_config(address, r, n); }, fn);
}

/// Run `fn` on an n-rank hybrid world: full socket mesh plus one shm ring
/// pair per rank pair, all same-host by construction.
template <class Fn>
std::vector<RunStats> run_hybrid_world(int n, Fn fn,
                                       std::size_t ring_bytes =
                                           transport::kDefaultShmRingBytes) {
  const std::string address = unique_address();
  const HybridSegments segs(n, ring_bytes);
  return run_world_threads(
      n, [&](int r) { return hybrid_config(address, r, n, segs); }, fn);
}

/// Per-rank deterministic inputs for the collective equivalence suite.
inline double input_value(int rank, std::size_t i) {
  // Not associativity-friendly: different fold orders give different bits.
  return (static_cast<double>(rank) + 1.0) * 0.1 +
         static_cast<double>(i) * 0.7;
}

/// Every collective once, results appended to `sink` (identical call
/// sequence on every backend, so the sinks must match bit for bit).
inline void collective_suite(Comm& comm, std::vector<double>& sink) {
  const int p = comm.size();
  const std::size_t n = 5;
  const auto up = static_cast<std::size_t>(p);
  std::vector<double> in(n), out(n, -7.0);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = input_value(comm.rank(), i);

  comm.barrier();
  std::vector<double> bcast = in;
  comm.broadcast<double>(bcast, /*root=*/p - 1);
  sink.insert(sink.end(), bcast.begin(), bcast.end());

  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax}) {
    std::fill(out.begin(), out.end(), -7.0);
    comm.allreduce<double>(in, out, op);
    sink.insert(sink.end(), out.begin(), out.end());
  }
  sink.push_back(comm.allreduce_scalar(in[0]));
  sink.push_back(comm.allreduce_scalar(in[1], ReduceOp::kMax));

  std::vector<double> gathered(up * n, -7.0);
  comm.allgather<double>(in, gathered);
  sink.insert(sink.end(), gathered.begin(), gathered.end());
  const std::vector<int> ranks = comm.allgather_value<int>(comm.rank() * 3);
  for (const int r : ranks) sink.push_back(static_cast<double>(r));
  comm.barrier();
}

/// The collective kinds minimpi issues.  The net model prices every
/// net::CollectiveKind; the per-kind runtime tests loop over these four.
inline constexpr net::CollectiveKind kMinimpiKinds[] = {
    net::CollectiveKind::kBarrier, net::CollectiveKind::kBcast,
    net::CollectiveKind::kAllreduce, net::CollectiveKind::kAllgather};

/// Call collective `kind` once with `n`-element blocks of doubles and
/// return the byte count it is charged for.  The broadcast uses root 1
/// (when the group has one), which is neither the reduction leader nor, in
/// the timing tests, the last rank to arrive.  n = 0 passes empty spans.
inline std::size_t call_collective(Comm& comm, net::CollectiveKind kind,
                                   std::size_t n) {
  const int p = comm.size();
  const int root = p > 1 ? 1 : 0;
  const std::size_t total = n * static_cast<std::size_t>(p);
  std::vector<double> in(total, 1.5), out(total, 0.0);
  const std::span<const double> block(in.data(), n);
  const std::span<double> out_block(out.data(), n);
  switch (kind) {
    case net::CollectiveKind::kBarrier:
      comm.barrier();
      return 0;
    case net::CollectiveKind::kBcast:
      comm.broadcast<double>(out_block, root);
      break;
    case net::CollectiveKind::kAllreduce:
      comm.allreduce<double>(block, out_block, ReduceOp::kSum);
      break;
    case net::CollectiveKind::kAllgather:
      comm.allgather<double>(block, out);
      break;
    default:
      ADD_FAILURE() << "minimpi does not issue " << net::to_string(kind);
      return 0;
  }
  return n * sizeof(double);
}

inline void expect_bit_identical(
    const std::vector<std::vector<double>>& actual,
    const std::vector<std::vector<double>>& reference) {
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), reference[r].size()) << "rank " << r;
    EXPECT_EQ(std::memcmp(actual[r].data(), reference[r].data(),
                          actual[r].size() * sizeof(double)),
              0)
        << "rank " << r << " diverged from the reference backend";
  }
}

/// One rank's E-step for the kernel-equality smoke: init + M-step + E-step
/// over this rank's block partition, appending the local membership weights,
/// the global class weights W_j, and the global log-likelihood to `sink`.
inline void estep_suite(Comm& comm, const ac::Model& model, bool scalar,
                        std::vector<double>& sink) {
  core::ParallelConfig pc;
  pc.charge_costs = false;
  core::ParallelReducer reducer(comm, model, pc);
  const data::ItemRange part = data::block_partition(
      model.dataset().num_items(), comm.size(), comm.rank());
  ac::EmWorker worker(model, part, reducer);
  ac::Classification c(model, 3);
  worker.random_init(c, 2026, 0, ac::EmConfig{});
  worker.update_parameters(c);
  const double loglike =
      scalar ? worker.update_wts_scalar(c) : worker.update_wts(c);
  const std::span<const double> w = worker.local_weights();
  sink.insert(sink.end(), w.begin(), w.end());
  for (std::size_t j = 0; j < c.num_classes(); ++j)
    sink.push_back(c.weight(j));
  sink.push_back(loglike);
}

/// One rank's full cycle for the M-step-kernel / thread smoke: init, M-step
/// (batch kernels or the scalar oracle), E-step — at a given intra-rank
/// thread count — appending the global statistics, the parameters, and the
/// E-step outputs to `sink`.
inline void cycle_suite(Comm& comm, const ac::Model& model, bool scalar,
                        int threads, std::vector<double>& sink) {
  core::ParallelConfig pc;
  pc.charge_costs = false;
  core::ParallelReducer reducer(comm, model, pc);
  const data::ItemRange part = data::block_partition(
      model.dataset().num_items(), comm.size(), comm.rank());
  ac::EmWorker worker(model, part, reducer);
  ac::Classification c(model, 3);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 2027, 0, config);
  if (scalar) {
    worker.update_parameters_scalar(c);
  } else {
    worker.update_parameters(c);
  }
  const std::span<const double> stats = worker.statistics();
  sink.insert(sink.end(), stats.begin(), stats.end());
  const std::span<const double> params = c.all_params();
  sink.insert(sink.end(), params.begin(), params.end());
  sink.push_back(worker.update_wts(c));
  const std::span<const double> w = worker.local_weights();
  sink.insert(sink.end(), w.begin(), w.end());
}

/// Body for the world-view checks: per-rank collectives and one message.
constexpr int kViewAllreduces = 4;
inline void world_view_body(Comm& comm) {
  for (int i = 0; i < kViewAllreduces; ++i)
    (void)comm.allreduce_scalar(static_cast<double>(comm.rank()));
  if (comm.rank() == 0) comm.send_value<int>(comm.size() - 1, 1, 5);
  if (comm.rank() == comm.size() - 1) (void)comm.recv_value<int>(0, 1);
}

/// Every process of a distributed world returns the same RunStats, and its
/// metrics are the merge of every rank's registry, not its own.
inline void expect_world_view(const std::vector<RunStats>& stats) {
  ASSERT_FALSE(stats.empty());
  const RunStats& first = stats.front();
  const auto p = static_cast<std::uint64_t>(stats.size());
  const auto allreduce =
      static_cast<std::size_t>(net::CollectiveKind::kAllreduce);
  EXPECT_EQ(first.metrics.counter_value("mp.allreduce.calls"),
            p * kViewAllreduces);
  EXPECT_EQ(first.collective_calls[allreduce], p * kViewAllreduces);
  EXPECT_EQ(first.metrics.counter_value("mp.send.calls"), 1u);
  EXPECT_EQ(first.metrics.counter_value("mp.recv.calls"), 1u);
  const std::string merged = metrics::encode(first.metrics);
  for (const RunStats& s : stats) {
    EXPECT_EQ(s.rank_finish, first.rank_finish);
    EXPECT_EQ(s.rank_compute, first.rank_compute);
    EXPECT_EQ(s.rank_comm, first.rank_comm);
    EXPECT_EQ(s.rank_idle, first.rank_idle);
    EXPECT_EQ(s.virtual_time, first.virtual_time);
    EXPECT_EQ(s.total_collectives, first.total_collectives);
    EXPECT_EQ(s.total_messages, first.total_messages);
    EXPECT_EQ(s.total_bytes, first.total_bytes);
    EXPECT_EQ(s.collective_calls, first.collective_calls);
    EXPECT_EQ(s.collective_seconds, first.collective_seconds);
    EXPECT_TRUE(metrics::encode(s.metrics) == merged)
        << "merged registries differ between processes";
  }
}

/// Two identical runs on one world book equal sent traffic under
/// `counters`: the mp.transport.* counters cover one run, not every run
/// since the world formed.
inline void expect_counters_per_run(
    const std::vector<std::vector<RunStats>>& runs,
    std::initializer_list<const char*> counters) {
  for (std::size_t r = 0; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), 2u);
    for (const char* name : counters) {
      SCOPED_TRACE(std::string(name) + " on rank " + std::to_string(r));
      const std::uint64_t first = runs[r][0].metrics.counter_value(name);
      EXPECT_GT(first, 0u);
      EXPECT_EQ(runs[r][1].metrics.counter_value(name), first);
    }
  }
}

}  // namespace pac::mp::testutil
