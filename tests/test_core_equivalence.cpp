// The paper's central semantic claim: P-AutoClass preserves the semantics of
// sequential AutoClass ("to maintain the same semantics of the sequential
// algorithm", Sec. 3).  These tests pin that down: for any processor count,
// strategy, and reduction granularity, the parallel engine must converge to
// the same classifications as the sequential engine (up to floating-point
// reassociation in the reductions).
#include <gtest/gtest.h>

#include <cmath>

#include "autoclass/report.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"

namespace pac::core {
namespace {

mp::World::Config ideal_world(int ranks) {
  mp::World::Config cfg;
  cfg.num_ranks = ranks;
  cfg.machine = net::ideal_machine();
  return cfg;
}

ac::SearchConfig small_search() {
  ac::SearchConfig config;
  config.start_j_list = {2, 4, 6};
  config.max_tries = 3;
  config.em.max_cycles = 40;
  config.seed = 2024;
  return config;
}

/// Relative closeness for scores that are O(1e3)-O(1e5) in magnitude.
void expect_close(double a, double b, double rel = 1e-9) {
  EXPECT_NEAR(a, b, rel * (1.0 + std::abs(a)));
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, ParallelSearchMatchesSequential) {
  const int procs = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(1200, 77);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = small_search();

  const ac::SearchResult sequential = ac::sequential_search(model, config);

  mp::World world(ideal_world(procs));
  const ParallelOutcome parallel = run_parallel_search(world, model, config);

  ASSERT_EQ(parallel.search.best.size(), sequential.best.size());
  EXPECT_EQ(parallel.search.tries, sequential.tries);
  EXPECT_EQ(parallel.search.duplicates, sequential.duplicates);
  for (std::size_t b = 0; b < sequential.best.size(); ++b) {
    const ac::Classification& s = sequential.best[b].classification;
    const ac::Classification& p = parallel.search.best[b].classification;
    ASSERT_EQ(p.num_classes(), s.num_classes());
    expect_close(p.cs_score, s.cs_score);
    expect_close(p.log_likelihood, s.log_likelihood);
    for (std::size_t j = 0; j < s.num_classes(); ++j) {
      expect_close(p.weight(j), s.weight(j), 1e-7);
      const auto sp = s.class_params(j);
      const auto pp = p.class_params(j);
      for (std::size_t k = 0; k < sp.size(); ++k)
        expect_close(pp[k], sp[k], 1e-6);
    }
  }
}

TEST_P(EquivalenceTest, HardAssignmentsMatchSequential) {
  const int procs = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(800, 78);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {4};
  config.max_tries = 1;

  const ac::SearchResult sequential = ac::sequential_search(model, config);
  mp::World world(ideal_world(procs));
  const ParallelOutcome parallel = run_parallel_search(world, model, config);

  const auto seq_labels = ac::assign_labels(sequential.top());
  const auto par_labels = ac::assign_labels(parallel.search.top());
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < seq_labels.size(); ++i)
    if (seq_labels[i] != par_labels[i]) ++disagreements;
  // FP reassociation may flip only borderline items (if any).
  EXPECT_LE(disagreements, seq_labels.size() / 200);
}

TEST_P(EquivalenceTest, WtsOnlyStrategyMatchesFull) {
  const int procs = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(900, 79);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.max_tries = 2;

  mp::World world(ideal_world(procs));
  ParallelConfig full;
  full.strategy = Strategy::kFull;
  ParallelConfig wts_only;
  wts_only.strategy = Strategy::kWtsOnly;

  const ParallelOutcome a = run_parallel_search(world, model, config, full);
  const ParallelOutcome b =
      run_parallel_search(world, model, config, wts_only);
  ASSERT_EQ(a.search.best.size(), b.search.best.size());
  expect_close(a.search.top().cs_score, b.search.top().cs_score, 1e-7);
  EXPECT_EQ(a.search.top().num_classes(), b.search.top().num_classes());
}

TEST_P(EquivalenceTest, GranularityDoesNotChangeResults) {
  const int procs = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(700, 80);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.max_tries = 2;

  mp::World world(ideal_world(procs));
  ParallelConfig per_term;
  per_term.granularity = ReduceGranularity::kPerTerm;
  ParallelConfig fused;
  fused.granularity = ReduceGranularity::kFused;

  const ParallelOutcome a =
      run_parallel_search(world, model, config, per_term);
  const ParallelOutcome b = run_parallel_search(world, model, config, fused);
  // Same reduction maths, different message layout: bit-identical results.
  EXPECT_EQ(a.search.top().cs_score, b.search.top().cs_score);
  EXPECT_EQ(a.search.top().num_classes(), b.search.top().num_classes());
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Equivalence, RunIsDeterministicAcrossRepeats) {
  const data::LabeledDataset ld = data::paper_dataset(600, 81);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const ac::SearchConfig config = small_search();
  mp::World world(ideal_world(4));
  const ParallelOutcome a = run_parallel_search(world, model, config);
  const ParallelOutcome b = run_parallel_search(world, model, config);
  EXPECT_EQ(a.search.top().cs_score, b.search.top().cs_score);  // bitwise
  EXPECT_EQ(a.stats.virtual_time, b.stats.virtual_time);
}

TEST(Equivalence, MixedTypesAcrossProcessorCounts) {
  std::vector<data::MixedComponent> mix(2);
  mix[0] = {0.5, {0.0}, {1.0}, {{0.85, 0.15}}};
  mix[1] = {0.5, {7.0}, {1.0}, {{0.2, 0.8}}};
  const data::LabeledDataset ld = data::mixed_mixture(mix, 1000, 83);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {2};
  config.max_tries = 1;

  const ac::SearchResult sequential = ac::sequential_search(model, config);
  for (int procs : {2, 5}) {
    mp::World world(ideal_world(procs));
    const ParallelOutcome parallel = run_parallel_search(world, model, config);
    expect_close(parallel.search.top().cs_score, sequential.top().cs_score,
                 1e-8);
  }
}

TEST(Equivalence, MultiNormalBlockAcrossProcessorCounts) {
  const double r = 0.9;
  const std::vector<data::CorrelatedComponent> mix = {
      {0.5, {0.0, 0.0}, {1.0, 0.0, r, std::sqrt(1 - r * r)}},
      {0.5, {5.0, 5.0}, {1.0, 0.0, -r, std::sqrt(1 - r * r)}},
  };
  const data::LabeledDataset ld = data::correlated_mixture(mix, 1000, 84);
  ac::TermSpec block;
  block.kind = ac::TermKind::kMultiNormal;
  block.attributes = {0, 1};
  const ac::Model model(ld.dataset, {block});
  ac::SearchConfig config = small_search();
  config.start_j_list = {2};
  config.max_tries = 1;

  const ac::SearchResult sequential = ac::sequential_search(model, config);
  for (int procs : {3, 8}) {
    mp::World world(ideal_world(procs));
    const ParallelOutcome parallel = run_parallel_search(world, model, config);
    expect_close(parallel.search.top().cs_score, sequential.top().cs_score,
                 1e-7);
  }
}

TEST(Equivalence, MissingDataAcrossProcessorCounts) {
  data::LabeledDataset ld = data::paper_dataset(1000, 85);
  data::inject_missing(ld.dataset, 0.1, 86);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {3};
  config.max_tries = 1;

  const ac::SearchResult sequential = ac::sequential_search(model, config);
  mp::World world(ideal_world(6));
  const ParallelOutcome parallel = run_parallel_search(world, model, config);
  expect_close(parallel.search.top().cs_score, sequential.top().cs_score,
               1e-8);
}

TEST(Equivalence, MoreRanksThanItemsStillWorks) {
  const data::LabeledDataset ld = data::paper_dataset(5, 87);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.min_class_weight = 0.0;
  mp::World world(ideal_world(8));  // 3 ranks own zero items
  const ParallelOutcome parallel = run_parallel_search(world, model, config);
  EXPECT_TRUE(std::isfinite(parallel.search.top().cs_score));
}

TEST(Equivalence, WtsOnlyUnevenPartitionsPadCorrectly) {
  // N not divisible by P exercises the padded Allgather of the weight
  // matrix in the WtsOnly baseline.
  const data::LabeledDataset ld = data::paper_dataset(997, 89);  // prime N
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {3};
  config.max_tries = 1;

  const ac::SearchResult sequential = ac::sequential_search(model, config);
  for (int procs : {3, 5, 7}) {
    mp::World world(ideal_world(procs));
    ParallelConfig wts_only;
    wts_only.strategy = Strategy::kWtsOnly;
    const ParallelOutcome parallel =
        run_parallel_search(world, model, config, wts_only);
    expect_close(parallel.search.top().cs_score, sequential.top().cs_score,
                 1e-8);
  }
}

TEST(Equivalence, ParallelResumeMatchesUninterrupted) {
  const data::LabeledDataset ld = data::paper_dataset(700, 90);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();

  mp::World world(ideal_world(4));
  config.max_tries = 3;
  const ParallelOutcome reference =
      run_parallel_search(world, model, config);

  config.max_tries = 1;
  const ParallelOutcome first = run_parallel_search(world, model, config);
  config.max_tries = 3;
  const ParallelOutcome resumed = run_parallel_search(
      world, model, config, ParallelConfig{}, &first.search);

  EXPECT_EQ(resumed.search.tries, reference.search.tries);
  ASSERT_EQ(resumed.search.best.size(), reference.search.best.size());
  for (std::size_t b = 0; b < reference.search.best.size(); ++b)
    EXPECT_EQ(resumed.search.best[b].classification.cs_score,
              reference.search.best[b].classification.cs_score);
}

TEST(Equivalence, RunStatsCountAllreducesByKind) {
  const data::LabeledDataset ld = data::paper_dataset(300, 91);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config = small_search();
  config.start_j_list = {4};
  config.max_tries = 1;
  mp::World world(ideal_world(3));
  const ParallelOutcome outcome = run_parallel_search(world, model, config);
  const auto allreduce_index =
      static_cast<std::size_t>(net::CollectiveKind::kAllreduce);
  // Every collective in P-AutoClass's Full strategy is an Allreduce.
  EXPECT_EQ(outcome.stats.collective_calls[allreduce_index],
            outcome.stats.total_collectives);
  EXPECT_GT(outcome.stats.collective_calls[allreduce_index], 0u);
}

TEST(Equivalence, StrategyNamesRoundTrip) {
  EXPECT_STREQ(to_string(Strategy::kFull), "full");
  EXPECT_STREQ(to_string(Strategy::kWtsOnly), "wts-only");
  EXPECT_STREQ(to_string(ReduceGranularity::kPerTerm), "per-term");
  EXPECT_STREQ(to_string(ReduceGranularity::kFused), "fused");
}

}  // namespace
}  // namespace pac::core
