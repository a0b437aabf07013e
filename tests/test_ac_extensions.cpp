// Tests for the AutoClass extensions: log-normal and ignore model terms,
// prediction on foreign data, and checkpoint/resume.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "autoclass/checkpoint.hpp"
#include "autoclass/report.hpp"
#include "autoclass/search.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pac::ac {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;

// ---- log-normal term ----

Dataset lognormal_dataset(std::size_t n, double mu, double sigma,
                          std::uint64_t seed) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), n);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    d.set_real(i, 0, std::exp(mu + sigma * normal01(rng)));
  return d;
}

Model lognormal_model(const Dataset& d) {
  TermSpec spec;
  spec.kind = TermKind::kSingleLognormal;
  spec.attributes = {0};
  return Model(d, {spec});
}

TEST(Lognormal, FitRecoversLogSpaceMoments) {
  const Dataset d = lognormal_dataset(20000, 1.5, 0.4, 1);
  const Model model = lognormal_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < d.num_items(); ++i)
    term.accumulate(i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  EXPECT_NEAR(params[0], 1.5, 0.02);
  EXPECT_NEAR(params[1], 0.4, 0.02);
}

TEST(Lognormal, DensityIntegratesToOne) {
  const Dataset d = lognormal_dataset(10, 0.0, 0.5, 2);
  const Model model = lognormal_model(d);
  // p(x) = N(log x | m, s) / x, times rel_error; integrate over x > 0.
  // One rebound model evaluates the density over the whole probe grid.
  const std::vector<double> params = {0.0, 0.5, std::log(0.5)};
  const double dx = 1e-3;
  std::vector<double> grid;
  for (double x = dx; x < 20.0; x += dx) grid.push_back(x);
  Dataset probe(d.schema(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) probe.set_real(i, 0, grid[i]);
  const Model on_grid = model.rebound(probe);
  double integral = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i)
    integral += std::exp(on_grid.term(0).log_prob(i, params)) * dx;
  EXPECT_NEAR(integral, 0.01, 1e-4);  // = rel_error
}

TEST(Lognormal, RejectsNonPositiveValues) {
  Dataset d(Schema({Attribute::real("x", 0.01)}), 2);
  d.set_real(0, 0, 1.0);
  d.set_real(1, 0, -2.0);
  EXPECT_THROW(lognormal_model(d), pac::Error);
  d.set_real(1, 0, 0.0);
  EXPECT_THROW(lognormal_model(d), pac::Error);
}

TEST(Lognormal, LogLikelihoodOfStatsMatchesDirectSum) {
  const Dataset d = lognormal_dataset(100, 0.5, 0.8, 3);
  const Model model = lognormal_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  std::vector<double> weights(100);
  for (std::size_t i = 0; i < 100; ++i) {
    weights[i] = 0.2 + 0.007 * static_cast<double>(i);
    term.accumulate(i, weights[i], stats);
  }
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  double direct = 0.0;
  for (std::size_t i = 0; i < 100; ++i)
    direct += weights[i] * term.log_prob(i, params);
  EXPECT_NEAR(term.log_likelihood_of_stats(stats, params), direct, 1e-8);
}

TEST(Lognormal, HandlesMissingValues) {
  Dataset d = lognormal_dataset(100, 0.0, 0.3, 4);
  d.set_missing(7, 0);
  const Model model = lognormal_model(d);
  std::vector<double> params = {0.0, 0.3, std::log(0.3)};
  EXPECT_EQ(model.term(0).log_prob(7, params), 0.0);
}

TEST(Lognormal, SeparatesScaleClusters) {
  // Two clusters differing by scale (1x vs 100x): trivial in log space.
  Dataset d(Schema({Attribute::real("x", 0.01)}), 2000);
  std::vector<std::int32_t> truth(2000);
  Xoshiro256ss rng(5);
  for (std::size_t i = 0; i < 2000; ++i) {
    const bool big = i % 2 == 0;
    truth[i] = big ? 1 : 0;
    const double mu = big ? std::log(100.0) : 0.0;
    d.set_real(i, 0, std::exp(mu + 0.3 * normal01(rng)));
  }
  const Model model = lognormal_model(d);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 2;
  config.em.max_cycles = 50;
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.top().num_classes(), 2u);
  EXPECT_GT(data::adjusted_rand_index(truth, assign_labels(result.top())),
            0.99);
}

TEST(Lognormal, MarginalFiniteAndBelowMaxLikelihood) {
  const Dataset d = lognormal_dataset(500, 1.0, 0.5, 6);
  const Model model = lognormal_model(d);
  const Term& term = model.term(0);
  std::vector<double> stats(term.stats_size(), 0.0);
  for (std::size_t i = 0; i < 500; ++i) term.accumulate(i, 1.0, stats);
  std::vector<double> params(term.param_size(), 0.0);
  term.update_params(stats, params);
  const double marginal = term.log_marginal(stats);
  const double maxlike = term.log_likelihood_of_stats(stats, params);
  EXPECT_TRUE(std::isfinite(marginal));
  EXPECT_LT(marginal, maxlike);
  std::vector<double> empty(term.stats_size(), 0.0);
  EXPECT_EQ(term.log_marginal(empty), 0.0);
}

// ---- ignore term ----

TEST(Ignore, ExcludedAttributeDoesNotAffectClustering) {
  // Attribute 0 carries the clusters; attribute 1 is pure noise that we
  // ignore.  Classification must match the one without attribute 1.
  const std::vector<data::GaussianComponent> mix = {
      {0.5, {0.0, 0.0}, {0.5, 5.0}}, {0.5, {10.0, 0.0}, {0.5, 5.0}}};
  const data::LabeledDataset ld = data::gaussian_mixture(mix, 1000, 7);

  TermSpec keep;
  keep.kind = TermKind::kSingleNormal;
  keep.attributes = {0};
  TermSpec drop;
  drop.kind = TermKind::kIgnore;
  drop.attributes = {1};
  const Model model(ld.dataset, {keep, drop});
  EXPECT_EQ(model.params_per_class(), 3u);  // only the normal term

  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.max_cycles = 50;
  const SearchResult result = sequential_search(model, config);
  EXPECT_EQ(result.top().num_classes(), 2u);
  EXPECT_GT(data::adjusted_rand_index(ld.labels, assign_labels(result.top())),
            0.99);
}

TEST(Ignore, ZeroFootprint) {
  const data::LabeledDataset ld = data::paper_dataset(50, 8);
  TermSpec keep;
  keep.kind = TermKind::kSingleNormal;
  keep.attributes = {0};
  TermSpec drop;
  drop.kind = TermKind::kIgnore;
  drop.attributes = {1};
  const Model model(ld.dataset, {keep, drop});
  const Term& ignore = model.term(1);
  EXPECT_EQ(ignore.param_size(), 0u);
  EXPECT_EQ(ignore.stats_size(), 0u);
  EXPECT_EQ(ignore.free_params(), 0u);
  EXPECT_EQ(ignore.log_prob(0, {}), 0.0);
  EXPECT_EQ(ignore.influence({}), 0.0);
  EXPECT_EQ(ignore.describe({}), "(ignored)");
}

TEST(Ignore, TermKindNamesComplete) {
  EXPECT_STREQ(to_string(TermKind::kSingleLognormal), "single_lognormal");
  EXPECT_STREQ(to_string(TermKind::kIgnore), "ignore");
}

// ---- prediction ----

TEST(Predict, OnTrainingDataMatchesAssignLabels) {
  const data::LabeledDataset ld = data::paper_dataset(600, 9);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {4};
  config.max_tries = 1;
  config.em.max_cycles = 40;
  const SearchResult result = sequential_search(model, config);
  const auto trained = assign_labels(result.top());
  const auto predicted = predict_labels(result.top(), ld.dataset);
  ASSERT_EQ(trained.size(), predicted.size());
  for (std::size_t i = 0; i < trained.size(); ++i)
    EXPECT_EQ(trained[i], predicted[i]);
}

TEST(Predict, GeneralizesToFreshDraws) {
  const data::LabeledDataset train = data::paper_dataset(3000, 10);
  const data::LabeledDataset test = data::paper_dataset(1000, 11);
  const Model model = Model::default_model(train.dataset);
  SearchConfig config;
  config.start_j_list = {5};
  config.max_tries = 2;
  config.em.max_cycles = 60;
  const SearchResult result = sequential_search(model, config);
  const auto predicted = predict_labels(result.top(), test.dataset);
  EXPECT_GT(data::adjusted_rand_index(test.labels, predicted), 0.75);
}

TEST(Predict, MembershipSumsToOne) {
  const data::LabeledDataset train = data::paper_dataset(500, 12);
  const data::LabeledDataset test = data::paper_dataset(50, 13);
  const Model model = Model::default_model(train.dataset);
  SearchConfig config;
  config.start_j_list = {3};
  config.max_tries = 1;
  config.em.max_cycles = 30;
  const SearchResult result = sequential_search(model, config);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto m = predict_membership(result.top(), test.dataset, i);
    double sum = 0.0;
    for (const double v : m) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Predict, HeldOutLikelihoodPrefersTrueishModel) {
  const data::LabeledDataset train = data::paper_dataset(2000, 14);
  const data::LabeledDataset test = data::paper_dataset(800, 15);
  const Model model = Model::default_model(train.dataset);
  SearchConfig config;
  config.max_tries = 1;
  config.em.max_cycles = 50;
  config.start_j_list = {5};
  const SearchResult good = sequential_search(model, config);
  config.start_j_list = {1};
  const SearchResult trivial = sequential_search(model, config);
  EXPECT_GT(predict_log_likelihood(good.top(), test.dataset),
            predict_log_likelihood(trivial.top(), test.dataset));
}

TEST(Predict, SchemaMismatchThrows) {
  const data::LabeledDataset train = data::paper_dataset(100, 16);
  const Model model = Model::default_model(train.dataset);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.max_cycles = 10;
  const SearchResult result = sequential_search(model, config);
  Dataset other(Schema({Attribute::real("different", 0.5)}), 3);
  EXPECT_THROW(predict_labels(result.top(), other), pac::Error);
}

// ---- case report ----

TEST(CaseReport, ListsBestAndSecondClasses) {
  const data::LabeledDataset ld = data::paper_dataset(100, 23);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {3};
  config.max_tries = 1;
  config.em.max_cycles = 20;
  const SearchResult result = sequential_search(model, config);
  std::ostringstream os;
  write_case_report(os, result.top(), 10);
  const std::string report = os.str();
  EXPECT_NE(report.find("case report"), std::string::npos);
  EXPECT_NE(report.find("90 more items"), std::string::npos);
  // 10 item lines + header + truncation note.
  std::size_t lines = 0;
  for (const char ch : report)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 12u);
}

TEST(CaseReport, FullListingWhenMaxIsZero) {
  const data::LabeledDataset ld = data::paper_dataset(20, 24);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.max_cycles = 10;
  const SearchResult result = sequential_search(model, config);
  std::ostringstream os;
  write_case_report(os, result.top());
  std::size_t lines = 0;
  for (const char ch : os.str())
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 21u);  // header + 20 items, no truncation note
}

// ---- checkpoint / resume ----

TEST(Checkpoint, ClassificationRoundTripsExactly) {
  const data::LabeledDataset ld = data::paper_dataset(400, 17);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {3};
  config.max_tries = 1;
  config.em.max_cycles = 30;
  const SearchResult result = sequential_search(model, config);
  const Classification& original = result.top();

  std::stringstream buffer;
  save_classification(buffer, original);
  const Classification loaded = load_classification(buffer, model);

  ASSERT_EQ(loaded.num_classes(), original.num_classes());
  EXPECT_EQ(loaded.cs_score, original.cs_score);  // bitwise
  EXPECT_EQ(loaded.log_likelihood, original.log_likelihood);
  EXPECT_EQ(loaded.cycles, original.cycles);
  for (std::size_t j = 0; j < original.num_classes(); ++j) {
    EXPECT_EQ(loaded.log_pi(j), original.log_pi(j));
    EXPECT_EQ(loaded.weight(j), original.weight(j));
    const auto a = original.class_params(j);
    const auto b = loaded.class_params(j);
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
  // Labels from the loaded classification are identical.
  const auto la = assign_labels(original);
  const auto lb = assign_labels(loaded);
  for (std::size_t i = 0; i < la.size(); ++i) ASSERT_EQ(la[i], lb[i]);
}

TEST(Checkpoint, SearchResultRoundTrips) {
  const data::LabeledDataset ld = data::paper_dataset(400, 18);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 4};
  config.max_tries = 2;
  config.em.max_cycles = 25;
  const SearchResult result = sequential_search(model, config);

  std::stringstream buffer;
  save_search_result(buffer, result);
  const SearchResult loaded = load_search_result(buffer, model);
  EXPECT_EQ(loaded.tries, result.tries);
  EXPECT_EQ(loaded.duplicates, result.duplicates);
  EXPECT_EQ(loaded.total_cycles, result.total_cycles);
  ASSERT_EQ(loaded.best.size(), result.best.size());
  for (std::size_t b = 0; b < result.best.size(); ++b) {
    EXPECT_EQ(loaded.best[b].classification.cs_score,
              result.best[b].classification.cs_score);
    EXPECT_EQ(loaded.best[b].try_index, result.best[b].try_index);
    EXPECT_EQ(loaded.best[b].j_requested, result.best[b].j_requested);
    EXPECT_EQ(loaded.best[b].converged, result.best[b].converged);
  }
}

TEST(Checkpoint, ResumeMatchesUninterruptedSearch) {
  const data::LabeledDataset ld = data::paper_dataset(500, 19);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2, 4, 6, 3};
  config.em.max_cycles = 25;

  // Reference: all 4 tries in one go.
  config.max_tries = 4;
  const SearchResult reference = sequential_search(model, config);

  // Interrupted: 2 tries, checkpoint through a stream, resume for 4.
  config.max_tries = 2;
  const SearchResult half = sequential_search(model, config);
  std::stringstream buffer;
  save_search_result(buffer, half);
  const SearchResult restored = load_search_result(buffer, model);

  Reducer identity;
  EmWorker worker(model, data::ItemRange{0, 500}, identity);
  config.max_tries = 4;
  const TryRunner runner = [&](int try_index, int j) {
    TryResult out{Classification(model, static_cast<std::size_t>(j))};
    worker.random_init(out.classification, config.seed,
                       static_cast<std::uint64_t>(try_index), config.em);
    out.converged = worker.converge(out.classification, config.em).converged;
    out.classification = worker.prune_and_refit(out.classification, config.em);
    return out;
  };
  const SearchResult resumed =
      resume_search(model, config, runner, restored);

  EXPECT_EQ(resumed.tries, reference.tries);
  EXPECT_EQ(resumed.duplicates, reference.duplicates);
  ASSERT_EQ(resumed.best.size(), reference.best.size());
  for (std::size_t b = 0; b < reference.best.size(); ++b)
    EXPECT_EQ(resumed.best[b].classification.cs_score,
              reference.best[b].classification.cs_score);
}

TEST(Checkpoint, RejectsStructureMismatch) {
  const data::LabeledDataset ld = data::paper_dataset(100, 20);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.max_cycles = 10;
  const SearchResult result = sequential_search(model, config);
  std::stringstream buffer;
  save_classification(buffer, result.top());

  // A model with a different per-class footprint must be rejected.
  TermSpec keep;
  keep.kind = TermKind::kSingleNormal;
  keep.attributes = {0};
  TermSpec drop;
  drop.kind = TermKind::kIgnore;
  drop.attributes = {1};
  const Model other(ld.dataset, {keep, drop});
  EXPECT_THROW(load_classification(buffer, other), pac::Error);
}

TEST(Checkpoint, RejectsGarbageInput) {
  const data::LabeledDataset ld = data::paper_dataset(50, 21);
  const Model model = Model::default_model(ld.dataset);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_THROW(load_classification(garbage, model), pac::Error);
  std::stringstream truncated("pac-classification v1\nclasses 3");
  EXPECT_THROW(load_classification(truncated, model), pac::Error);
}

TEST(Checkpoint, FileRoundTrip) {
  const data::LabeledDataset ld = data::paper_dataset(200, 22);
  const Model model = Model::default_model(ld.dataset);
  SearchConfig config;
  config.start_j_list = {3};
  config.max_tries = 1;
  config.em.max_cycles = 15;
  const SearchResult result = sequential_search(model, config);
  const std::string path = "/tmp/pac_test_checkpoint.search";
  save_search_result_file(path, result);
  const SearchResult loaded = load_search_result_file(path, model);
  EXPECT_EQ(loaded.top().cs_score, result.top().cs_score);
  EXPECT_THROW(load_search_result_file("/nonexistent/x.search", model),
               pac::Error);
}

}  // namespace
}  // namespace pac::ac
