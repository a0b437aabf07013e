// The out-of-core determinism contract (DESIGN.md §10): at fixed block
// size, EM trajectories are memcmp-identical between the resident and
// chunk-backed Dataset backends — across intra-rank thread counts and
// across all three transports — even when the chunk budget is tiny enough
// to force continuous eviction mid-E-step.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autoclass/em.hpp"
#include "autoclass/search.hpp"
#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "transport_test_util.hpp"

namespace pac {
namespace {

/// Write the standard synthetic dataset to a .pacb with deliberately odd,
/// small chunks (so 256-item kernel blocks straddle chunk borders) and hand
/// back resident and chunked views of the same bytes.  The ~4 KB budget
/// holds about one chunk, forcing eviction throughout every E-step.
struct BackendPair {
  std::string path;
  data::Dataset resident;
  data::Dataset chunked;

  explicit BackendPair(std::size_t n, std::uint64_t seed)
      : path("/tmp/pac_ooc_" + std::to_string(::getpid()) + "_" +
             std::to_string(seed) + ".pacb"),
        resident(data::paper_dataset(n, seed).dataset) {
    data::format::write_pacb_file(path, resident, /*chunk_rows=*/193);
    chunked = data::Dataset(data::ChunkedStore::open(path,
                                                     /*budget_bytes=*/4096));
  }
  ~BackendPair() { std::remove(path.c_str()); }
};

/// Run `cycles` full EM cycles single-rank and append every weight,
/// parameter, class weight, and log-likelihood to `sink`.
std::vector<double> em_trajectory(const data::Dataset& dataset, int threads,
                                  int cycles) {
  const ac::Model model = ac::Model::default_model(dataset);
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, dataset.num_items()},
                      identity);
  ac::Classification c(model, 4);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 515, 0, config);
  std::vector<double> sink;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    worker.update_parameters(c);
    sink.push_back(worker.update_wts(c));
    const std::span<const double> w = worker.local_weights();
    sink.insert(sink.end(), w.begin(), w.end());
    const std::span<const double> params = c.all_params();
    sink.insert(sink.end(), params.begin(), params.end());
    for (std::size_t j = 0; j < c.num_classes(); ++j)
      sink.push_back(c.weight(j));
  }
  return sink;
}

void expect_same_trajectory(const std::vector<double>& a,
                            const std::vector<double>& b,
                            const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << label << ": chunked backend diverged from resident";
}

TEST(OutOfCore, EmTrajectoryBitIdenticalAcrossThreadCounts) {
  const BackendPair pair(1500, 51);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const std::vector<double> res = em_trajectory(pair.resident, threads, 4);
    const std::vector<double> chk = em_trajectory(pair.chunked, threads, 4);
    expect_same_trajectory(res, chk, "threads");
    // And the thread count itself must not matter (the existing invariant,
    // re-pinned on the chunked backend).
    expect_same_trajectory(chk, em_trajectory(pair.chunked, 1, 4),
                           "threads-vs-1");
  }
}

TEST(OutOfCore, SearchResultIdenticalAcrossBackends) {
  const BackendPair pair(1200, 52);
  ac::SearchConfig config;
  config.start_j_list = {3, 5};
  config.max_tries = 2;
  config.em.max_cycles = 20;
  const ac::SearchResult res =
      ac::sequential_search(ac::Model::default_model(pair.resident), config);
  const ac::SearchResult chk =
      ac::sequential_search(ac::Model::default_model(pair.chunked), config);
  ASSERT_EQ(res.best.size(), chk.best.size());
  for (std::size_t b = 0; b < res.best.size(); ++b) {
    const ac::Classification& rc = res.best[b].classification;
    const ac::Classification& cc = chk.best[b].classification;
    EXPECT_EQ(std::memcmp(&rc.cs_score, &cc.cs_score, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&rc.log_likelihood, &cc.log_likelihood,
                          sizeof(double)),
              0);
    ASSERT_EQ(rc.all_params().size(), cc.all_params().size());
    EXPECT_EQ(std::memcmp(rc.all_params().data(), cc.all_params().data(),
                          rc.all_params().size() * sizeof(double)),
              0)
        << "leaderboard entry " << b;
  }
}

/// One rank's cycle under a transport world, run over both backends.  Each
/// rank opens its own chunked view (ranks-as-threads share nothing, exactly
/// like pac_launch'd processes each mapping the file).
std::vector<std::vector<double>> transport_trajectories(
    const data::Dataset& dataset, int ranks, bool hybrid) {
  std::vector<std::vector<double>> sinks(
      static_cast<std::size_t>(ranks));
  const ac::Model model = ac::Model::default_model(dataset);
  const auto fn = [&](mp::Comm& comm) {
    mp::testutil::cycle_suite(comm, model, /*scalar=*/false, /*threads=*/2,
                              sinks[static_cast<std::size_t>(comm.rank())]);
  };
  if (hybrid) {
    mp::testutil::run_hybrid_world(ranks, fn);
  } else {
    mp::testutil::run_socket_world(ranks, fn);
  }
  return sinks;
}

TEST(OutOfCore, TransportsSeeIdenticalTrajectories) {
  const BackendPair pair(900, 53);
  for (const int ranks : {2, 4}) {
    SCOPED_TRACE(ranks);
    // In-process reference on the resident backend...
    std::vector<std::vector<double>> reference(
        static_cast<std::size_t>(ranks));
    {
      const ac::Model model = ac::Model::default_model(pair.resident);
      mp::World::Config cfg;
      cfg.num_ranks = ranks;
      mp::World world(cfg);
      world.run([&](mp::Comm& comm) {
        mp::testutil::cycle_suite(comm, model, /*scalar=*/false,
                                  /*threads=*/2,
                                  reference[static_cast<std::size_t>(
                                      comm.rank())]);
      });
    }
    // ...must match the chunked backend on every transport.
    mp::testutil::expect_bit_identical(
        transport_trajectories(pair.chunked, ranks, /*hybrid=*/false),
        reference);
    mp::testutil::expect_bit_identical(
        transport_trajectories(pair.chunked, ranks, /*hybrid=*/true),
        reference);
  }
}

TEST(OutOfCore, ChunkedBackendRefusesMutation) {
  const BackendPair pair(300, 54);
  data::Dataset chunked = pair.chunked;
  EXPECT_THROW(chunked.set_real(0, 0, 1.0), pac::Error);
}

}  // namespace
}  // namespace pac
