// The out-of-core determinism contract (DESIGN.md §10): at fixed block
// size, EM trajectories are memcmp-identical between the resident and
// chunk-backed Dataset backends — across intra-rank thread counts and
// across all three transports — even when the chunk budget is tiny enough
// to force continuous eviction mid-E-step.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
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

  BackendPair(std::size_t n, std::uint64_t seed)
      : BackendPair(data::paper_dataset(n, seed).dataset, seed) {}
  BackendPair(data::Dataset data, std::uint64_t seed)
      : path("/tmp/pac_ooc_" + std::to_string(::getpid()) + "_" +
             std::to_string(seed) + ".pacb"),
        resident(std::move(data)) {
    data::format::write_pacb_file(path, resident, /*chunk_rows=*/193);
    chunked = data::Dataset(data::ChunkedStore::open(path,
                                                     /*budget_bytes=*/4096));
  }
  ~BackendPair() { std::remove(path.c_str()); }
};

/// Run `cycles` full EM cycles single-rank and return the seed-item initial
/// weights, then per cycle every weight, parameter, class weight, and
/// log-likelihood.
std::vector<double> em_trajectory(const ac::Model& model, int threads,
                                  int cycles) {
  const data::Dataset& dataset = model.dataset();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, dataset.num_items()},
                      identity);
  ac::Classification c(model, 4);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 515, 0, config);
  const std::span<const double> init = worker.local_weights();
  std::vector<double> sink(init.begin(), init.end());
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
  const ac::Model resident = ac::Model::default_model(pair.resident);
  const ac::Model chunked = ac::Model::default_model(pair.chunked);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const std::vector<double> res = em_trajectory(resident, threads, 4);
    const std::vector<double> chk = em_trajectory(chunked, threads, 4);
    expect_same_trajectory(res, chk, "threads");
    // And the thread count itself must not matter (the existing invariant,
    // re-pinned on the chunked backend).
    expect_same_trajectory(chk, em_trajectory(chunked, 1, 4),
                           "threads-vs-1");
  }
}

TEST(OutOfCore, MixedFamiliesBitIdenticalToResident) {
  // All five term families, 5% missing values, 193-row chunks (so 256-item
  // blocks straddle chunk borders) under a 4 KiB budget: every family's
  // batched kernels, the lognormal term's per-block log x, and the
  // seed-distance init must see the resident values bit for bit.
  const BackendPair pair(data::five_family_mixture(1300, 56, 0.05).dataset,
                         56);
  const std::vector<ac::TermSpec> terms = {
      {ac::TermKind::kSingleNormal, {0}},
      {ac::TermKind::kSingleLognormal, {1}},
      {ac::TermKind::kMultiNormal, {2, 3}},
      {ac::TermKind::kIgnore, {4}},
      {ac::TermKind::kSingleMultinomial, {5}}};
  const ac::Model resident(pair.resident, terms);
  const ac::Model chunked(pair.chunked, terms);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    expect_same_trajectory(em_trajectory(resident, threads, 4),
                           em_trajectory(chunked, threads, 4), "mixed");
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

TEST(OutOfCore, MStepChunkErrorIsTypedOnPoolThreads) {
  // A chunk that fails its checksum when the next EM pass reloads it must
  // reach the caller as the typed FormatError naming it, on the pool as
  // without one — an exception escaping a pool thread would terminate the
  // process.  256-row chunks under a 2 KiB budget hold one chunk column at
  // a time, so chunk 9 is evicted by the time random_init returns.  The
  // M-step folds the partials random_init accumulated and reads no data;
  // the E-step after it, which also accumulates the next M-step's
  // statistics, reads chunk 9 back from the corrupted file.
  const data::Dataset source = data::paper_dataset(4096, 57).dataset;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::string path = "/tmp/pac_ooc_" + std::to_string(::getpid()) +
                             "_mstep_crc_" + std::to_string(threads) +
                             ".pacb";
    data::format::write_pacb_file(path, source, /*chunk_rows=*/256);
    const data::Dataset chunked(data::ChunkedStore::open(path, 2048));
    const ac::Model model = ac::Model::default_model(chunked);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, chunked.num_items()},
                        identity);
    ac::Classification c(model, 4);
    ac::EmConfig config;
    config.threads = threads;
    worker.random_init(c, 58, 0, config);
    {
      const data::format::PacbLayout layout = data::format::read_layout(path);
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(layout.column_data_offset(9, 0) + 5));
      char byte = 0;
      f.read(&byte, 1);
      f.seekp(-1, std::ios::cur);
      byte = static_cast<char>(byte ^ 0x40);
      f.write(&byte, 1);
    }
    try {
      worker.update_parameters(c);
      worker.update_wts(c);
      ADD_FAILURE() << "the corrupt chunk reload did not throw";
    } catch (const data::format::FormatError& e) {
      EXPECT_EQ(e.chunk(), 9);
      EXPECT_EQ(e.column(), 0);
      EXPECT_NE(std::string(e.what()).find("checksum mismatch in chunk 9, "
                                           "column 0"),
                std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
}

TEST(OutOfCore, OneCycleLoadsEachChunkColumnOnce) {
  // One thread, 4096 rows x 2 reals in 256-row chunks (one per EM block):
  // 32 chunk columns of 2 KiB under an 8 KiB budget, far below the 64 KiB
  // file, so every cycle must stream the file again.  The M-step folds the
  // partials its E-step accumulated from the rows and columns that block
  // pass had just fetched, so one cycle reads each chunk column once; a
  // separate M-step accumulation pass would read each of them a second
  // time.  Single-threaded, the count repeats exactly.
  const data::Dataset source = data::paper_dataset(4096, 61).dataset;
  const std::string path =
      "/tmp/pac_ooc_" + std::to_string(::getpid()) + "_cycle_loads.pacb";
  data::format::write_pacb_file(path, source, /*chunk_rows=*/256);
  const std::size_t chunk_columns = (4096 / 256) * source.num_attributes();
  const auto cycle_loads = [&] {
    const auto store = data::ChunkedStore::open(path, 8192);
    const data::Dataset chunked(store);
    const ac::Model model = ac::Model::default_model(chunked);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, chunked.num_items()},
                        identity);
    ac::Classification c(model, 4);
    ac::EmConfig config;
    config.threads = 1;
    worker.random_init(c, 62, 0, config);
    std::vector<std::size_t> loads;
    for (int cycle = 0; cycle < 3; ++cycle) {
      const std::size_t before = store->chunk_loads();
      worker.update_parameters(c);
      worker.update_wts(c);
      loads.push_back(store->chunk_loads() - before);
    }
    return loads;
  };
  const std::vector<std::size_t> first = cycle_loads();
  for (const std::size_t loads : first) EXPECT_EQ(loads, chunk_columns);
  EXPECT_EQ(cycle_loads(), first);
  std::remove(path.c_str());
}

TEST(OutOfCore, ChunkedBackendRefusesMutation) {
  const BackendPair pair(300, 54);
  data::Dataset chunked = pair.chunked;
  EXPECT_THROW(chunked.set_real(0, 0, 1.0), pac::Error);
}

}  // namespace
}  // namespace pac
