// google-benchmark micro suite: the numeric kernels and runtime primitives
// that dominate P-AutoClass's host-side cost.  Wall-clock (not virtual)
// time, for performance-regression tracking of the implementation itself.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autoclass/em.hpp"
#include "autoclass/report.hpp"
#include "data/format.hpp"
#include "data/synth.hpp"
#include "mp/comm.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace pac;

void BM_LogSumExp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(1);
  std::vector<double> v(n);
  for (double& x : v) x = uniform_in(rng, -30.0, 0.0);
  for (auto _ : state) benchmark::DoNotOptimize(logsumexp(v));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LogSumExp)->Arg(8)->Arg(64)->Arg(512);

// ---- E-step row normalization: per-row oracle vs lanes = items ----

/// One 256-item E-step block of log joints at J classes (range(0)), spread
/// like a fitted mixture's rows: the max class near 0, the rest tens below.
std::vector<double> normalize_bench_block(std::size_t n, std::size_t j) {
  Xoshiro256ss rng(8);
  std::vector<double> lj(n * j);
  for (double& x : lj) x = uniform_in(rng, -40.0, -1.0);
  return lj;
}

void BM_NormalizeRowsScalar(benchmark::State& state) {
  // The scalar oracle: item-major rows, logsumexp + pac::exp per row (what
  // EmWorker::normalize_row runs per item).
  constexpr std::size_t n = 256;
  const auto j = static_cast<std::size_t>(state.range(0));
  const std::vector<double> rows = normalize_bench_block(n, j);
  std::vector<double> out(n * j);
  for (auto _ : state) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* row = rows.data() + r * j;
      const double lse = logsumexp(std::span<const double>(row, j));
      for (std::size_t k = 0; k < j; ++k)
        out[r * j + k] = pac::exp(row[k] - lse);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}
BENCHMARK(BM_NormalizeRowsScalar)->Arg(4)->Arg(16);

void BM_NormalizeRowsLanes(benchmark::State& state) {
  // The same block class-major through the lane normalizer the E-step
  // runs (bit-identical output), at the host's best dispatch level.
  constexpr std::size_t n = 256;
  const auto j = static_cast<std::size_t>(state.range(0));
  const simd::ScopedForceLevel pin(simd::Level::kAvx2);
  const std::vector<double> lj = normalize_bench_block(n, j);
  std::vector<double> out(n * j), lse(n), scratch(2 * n);
  for (auto _ : state) {
    ac::normalize_log_joint(lj.data(), n, j, out.data(), lse.data(),
                            scratch.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}
BENCHMARK(BM_NormalizeRowsLanes)->Arg(4)->Arg(16);

void BM_KahanSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(2);
  std::vector<double> v(n);
  for (double& x : v) x = uniform_in(rng, -1.0, 1.0);
  for (auto _ : state) {
    KahanSum k;
    for (const double x : v) k.add(x);
    benchmark::DoNotOptimize(k.value());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KahanSum)->Arg(1024)->Arg(65536);

void BM_CounterRng(benchmark::State& state) {
  const CounterRng rng(3);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(1, i++));
}
BENCHMARK(BM_CounterRng);

void BM_Cholesky(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(4);
  std::vector<double> base(d * d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j)
      base[i * d + j] = base[j * d + i] = uniform_in(rng, -0.2, 0.2);
    base[i * d + i] += static_cast<double>(d);
  }
  for (auto _ : state) {
    std::vector<double> a = base;
    benchmark::DoNotOptimize(spd::cholesky(a, d));
  }
}
BENCHMARK(BM_Cholesky)->Arg(2)->Arg(8)->Arg(32);

void BM_NormalLogProb(benchmark::State& state) {
  const data::LabeledDataset ld = data::paper_dataset(10000, 5);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  const std::vector<double> params = {0.0, 1.0, 0.0};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.term(0).log_prob(i, params));
    i = (i + 1) % 10000;
  }
}
BENCHMARK(BM_NormalLogProb);

// ---- E-step kernel benches: batched update_wts vs the scalar oracle ----

/// Gaussian-heavy workload for the headline kernel-vs-scalar comparison:
/// 8 real attributes x 8 classes is 64 per-item log_prob evaluations per
/// E-step pass, the regime the batched term kernels were built for.
data::LabeledDataset gaussian_heavy_dataset(std::size_t n) {
  constexpr std::size_t kDim = 8;
  std::vector<data::GaussianComponent> mix(4);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, 0.0);
    mix[c].sigma.assign(kDim, 1.0);
    for (std::size_t a = 0; a < kDim; ++a) {
      mix[c].mean[a] = static_cast<double>((c + a) % 4) * 2.5;
      mix[c].sigma[a] = 0.6 + 0.1 * static_cast<double>(a % 3);
    }
  }
  data::LabeledDataset ld = data::gaussian_mixture(mix, n, 17);
  data::inject_missing(ld.dataset, 0.02, 5);
  return ld;
}

/// One full E-step per iteration from a fixed post-M-step state.  `scalar`
/// selects the per-item reference path instead of the batch kernels;
/// `level` pins the SIMD dispatch for the whole measurement so the legacy
/// benches keep scalar-batch-kernel semantics on vector-capable hosts and
/// the *Simd variants measure the vector tier (clamped to what the host
/// supports, so they degenerate to the scalar numbers on scalar-only CPUs).
/// The worker is WtsOnly (partition_params = false): the default worker's
/// E-step also accumulates the next M-step's statistics, which the
/// BM_UpdateParams* gates time on their own, while the WtsOnly E-step only
/// adds one copy of the rows into its full weight matrix (on one rank the
/// same rows).  BM_EmBaseCycle and BM_OocCycle* time the one-pass cycle.
void run_update_wts(benchmark::State& state, const ac::Model& model,
                    std::size_t j, bool scalar,
                    simd::Level level = simd::Level::kScalar) {
  const simd::ScopedForceLevel pin(level);
  const std::size_t n = model.dataset().num_items();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity,
                      /*partition_params=*/false);
  ac::Classification c(model, j);
  worker.random_init(c, 7, 0, ac::EmConfig{});
  worker.update_parameters(c);
  for (auto _ : state)
    benchmark::DoNotOptimize(scalar ? worker.update_wts_scalar(c)
                                    : worker.update_wts(c));
  state.SetItemsProcessed(state.iterations() * n * j);
}

void BM_UpdateWtsGaussian(benchmark::State& state) {
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 8, false);
}
BENCHMARK(BM_UpdateWtsGaussian);

void BM_UpdateWtsScalarGaussian(benchmark::State& state) {
  // The oracle on the identical workload: the kernel acceptance bar is
  // BM_UpdateWtsGaussian at >= 2x this throughput.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 8, true);
}
BENCHMARK(BM_UpdateWtsScalarGaussian);

void BM_UpdateWtsGaussianSimd(benchmark::State& state) {
  // The vectorized E-step on the headline workload; bit-identical results
  // to BM_UpdateWtsGaussian, measured at the host's best dispatch level.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 8, false,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsGaussianSimd);

void BM_UpdateWtsMultinomial(benchmark::State& state) {
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 4, false);
}
BENCHMARK(BM_UpdateWtsMultinomial);

void BM_UpdateWtsMultiNormal(benchmark::State& state) {
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  // No missing values: the multi_normal term requires complete rows.
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_wts(state, ac::Model::correlated_model(ld.dataset), 4, false);
}
BENCHMARK(BM_UpdateWtsMultiNormal);

void BM_UpdateWtsMultiNormalSimd(benchmark::State& state) {
  // Lane-parallel forward-solve E-step for the correlated block term.
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_wts(state, ac::Model::correlated_model(ld.dataset), 4, false,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsMultiNormalSimd);

void BM_UpdateWtsLognormal(benchmark::State& state) {
  const std::size_t n = 4000;
  data::Dataset d(data::Schema({data::Attribute::real("x", 0.01),
                                data::Attribute::real("y", 0.01)}),
                  n);
  Xoshiro256ss rng(23);
  for (std::size_t i = 0; i < n; ++i) {
    d.set_real(i, 0, std::exp(0.4 + 0.5 * normal01(rng)));
    d.set_real(i, 1, std::exp(-0.2 + 0.3 * normal01(rng)));
  }
  const ac::Model model(d, {{ac::TermKind::kSingleLognormal, {0}},
                            {ac::TermKind::kSingleLognormal, {1}}});
  run_update_wts(state, model, 4, false);
}
BENCHMARK(BM_UpdateWtsLognormal);

void BM_UpdateWtsMultinomialSimd(benchmark::State& state) {
  // Masked-gather table lookup E-step for the discrete term.
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_wts(state, ac::Model::default_model(ld.dataset), 4, false,
                 simd::Level::kAvx2);
}
BENCHMARK(BM_UpdateWtsMultinomialSimd);

void BM_UpdateWtsMixed(benchmark::State& state) {
  // Mixed real + discrete + ignored attribute: exercises every kernel
  // dispatch shape the default and explicit models produce.
  std::vector<data::MixedComponent> mix(2);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean = {static_cast<double>(c) * 2.0, 1.0 - static_cast<double>(c)};
    mix[c].sigma = {1.0, 0.7};
    mix[c].probs = {{0.2 + 0.5 * static_cast<double>(c),
                     0.8 - 0.5 * static_cast<double>(c)}};
  }
  data::LabeledDataset ld = data::mixed_mixture(mix, 4000, 27);
  data::inject_missing(ld.dataset, 0.02, 5);
  const ac::Model model(ld.dataset, {{ac::TermKind::kSingleNormal, {0}},
                                     {ac::TermKind::kIgnore, {1}},
                                     {ac::TermKind::kSingleMultinomial, {2}}});
  run_update_wts(state, model, 4, false);
}
BENCHMARK(BM_UpdateWtsMixed);

// ---- M-step kernel benches: batched update_parameters vs the oracle ----

/// One full M-step accumulation per iteration from a fixed post-E-step
/// state.  The default worker accumulates its statistics inside the E-step
/// and its update_parameters only folds them, so these benches use the
/// WtsOnly worker (partition_params = false), whose M-step keeps the
/// standalone pass: on one rank its gathered weight matrix is the local
/// one, so each iteration runs accumulate_batch over every block, the
/// block-ordered fold and the MAP update.  `scalar` selects the per-item
/// virtual accumulate chain instead of the accumulate_batch kernels;
/// `threads` sizes the intra-rank pool.  `level` pins the SIMD dispatch
/// for the whole measurement: the default measures the lanes = classes
/// kernels at the host's best level, and the *Portable variants their
/// per-class portable loops (the two are bit-identical).
void run_update_params(benchmark::State& state, const ac::Model& model,
                       std::size_t j, bool scalar, int threads = 1,
                       simd::Level level = simd::Level::kAvx2) {
  const simd::ScopedForceLevel pin(level);
  const std::size_t n = model.dataset().num_items();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity,
                      /*partition_params=*/false);
  ac::Classification c(model, j);
  ac::EmConfig config;
  config.threads = threads;
  worker.random_init(c, 7, 0, config);
  worker.update_parameters(c);
  worker.update_wts(c);
  for (auto _ : state) {
    if (scalar) {
      worker.update_parameters_scalar(c);
    } else {
      worker.update_parameters(c);
    }
    benchmark::DoNotOptimize(c.all_params().data());
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}

void BM_UpdateParamsGaussian(benchmark::State& state) {
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8, false);
}
BENCHMARK(BM_UpdateParamsGaussian);

void BM_UpdateParamsGaussianPortable(benchmark::State& state) {
  // The same kernels forced to the portable per-class loops: the
  // mstep-lanes gate pair measures lanes = classes against this.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8, false, 1,
                    simd::Level::kScalar);
}
BENCHMARK(BM_UpdateParamsGaussianPortable);

void BM_UpdateParamsGaussianJ16(benchmark::State& state) {
  // The search's top J: four full class vectors per stats slot.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 16, false);
}
BENCHMARK(BM_UpdateParamsGaussianJ16);

void BM_UpdateParamsGaussianPortableJ16(benchmark::State& state) {
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 16, false,
                    1, simd::Level::kScalar);
}
BENCHMARK(BM_UpdateParamsGaussianPortableJ16);

void BM_UpdateParamsScalarGaussian(benchmark::State& state) {
  // The oracle on the identical workload: the kernel acceptance bar is
  // BM_UpdateParamsGaussian at >= 2x this throughput at 1 thread.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8, true);
}
BENCHMARK(BM_UpdateParamsScalarGaussian);

void BM_UpdateParamsGaussianThreads4(benchmark::State& state) {
  // The hybrid layer on the same workload.  Wall-clock scaling tracks the
  // host's core count (a single-core container shows none); results are
  // bit-identical to the 1-thread bench by construction.
  const data::LabeledDataset ld = gaussian_heavy_dataset(4000);
  run_update_params(state, ac::Model::default_model(ld.dataset), 8, false,
                    4);
}
BENCHMARK(BM_UpdateParamsGaussianThreads4);

void BM_UpdateParamsMultinomial(benchmark::State& state) {
  std::vector<data::CategoricalComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    for (std::size_t a = 0; a < 6; ++a) {
      std::vector<double> p(4, 0.15);
      p[(a + c) % 4] = 0.55;
      mix[c].probs.push_back(std::move(p));
    }
  }
  data::LabeledDataset ld = data::categorical_mixture(mix, 4000, 19);
  data::inject_missing(ld.dataset, 0.02, 5);
  run_update_params(state, ac::Model::default_model(ld.dataset), 4, false);
}
BENCHMARK(BM_UpdateParamsMultinomial);

void BM_UpdateParamsMultiNormal(benchmark::State& state) {
  constexpr std::size_t kDim = 4;
  std::vector<data::CorrelatedComponent> mix(3);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean.assign(kDim, static_cast<double>(c) * 3.0);
    mix[c].chol.assign(kDim * kDim, 0.0);
    for (std::size_t i = 0; i < kDim; ++i) {
      mix[c].chol[i * kDim + i] = 0.8;
      if (i > 0) mix[c].chol[i * kDim + i - 1] = 0.2;
    }
  }
  const data::LabeledDataset ld = data::correlated_mixture(mix, 4000, 21);
  run_update_params(state, ac::Model::correlated_model(ld.dataset), 4,
                    false);
}
BENCHMARK(BM_UpdateParamsMultiNormal);

void BM_UpdateParamsLognormal(benchmark::State& state) {
  const std::size_t n = 4000;
  data::Dataset d(data::Schema({data::Attribute::real("x", 0.01),
                                data::Attribute::real("y", 0.01)}),
                  n);
  Xoshiro256ss rng(23);
  for (std::size_t i = 0; i < n; ++i) {
    d.set_real(i, 0, std::exp(0.4 + 0.5 * normal01(rng)));
    d.set_real(i, 1, std::exp(-0.2 + 0.3 * normal01(rng)));
  }
  const ac::Model model(d, {{ac::TermKind::kSingleLognormal, {0}},
                            {ac::TermKind::kSingleLognormal, {1}}});
  run_update_params(state, model, 4, false);
}
BENCHMARK(BM_UpdateParamsLognormal);

void BM_UpdateParamsMixed(benchmark::State& state) {
  std::vector<data::MixedComponent> mix(2);
  for (std::size_t c = 0; c < mix.size(); ++c) {
    mix[c].weight = 1.0;
    mix[c].mean = {static_cast<double>(c) * 2.0, 1.0 - static_cast<double>(c)};
    mix[c].sigma = {1.0, 0.7};
    mix[c].probs = {{0.2 + 0.5 * static_cast<double>(c),
                     0.8 - 0.5 * static_cast<double>(c)}};
  }
  data::LabeledDataset ld = data::mixed_mixture(mix, 4000, 27);
  data::inject_missing(ld.dataset, 0.02, 5);
  const ac::Model model(ld.dataset, {{ac::TermKind::kSingleNormal, {0}},
                                     {ac::TermKind::kIgnore, {1}},
                                     {ac::TermKind::kSingleMultinomial, {2}}});
  run_update_params(state, model, 4, false);
}
BENCHMARK(BM_UpdateParamsMixed);

// ---- Out-of-core EM cycle: chunk-backed vs resident data ----

/// All five term families over data::five_family_mixture.
std::vector<ac::TermSpec> five_family_terms() {
  return {{ac::TermKind::kSingleNormal, {0}},
          {ac::TermKind::kSingleLognormal, {1}},
          {ac::TermKind::kMultiNormal, {2, 3}},
          {ac::TermKind::kIgnore, {4}},
          {ac::TermKind::kSingleMultinomial, {5}}};
}

/// The five-family bench data on the resident backend, or read back from a
/// .pacb whose 2000-row chunks straddle the 256-item blocks, under a 128 KiB
/// chunk budget (about a third of the file), so every chunk is evicted and
/// reloaded on every pass.
class OocData {
 public:
  explicit OocData(bool chunked)
      : dataset_(data::five_family_mixture(8192, 31, 0.05).dataset) {
    if (!chunked) return;
    path_ = "/tmp/pac_micro_ooc_" + std::to_string(::getpid()) + ".pacb";
    data::format::write_pacb_file(path_, dataset_, /*chunk_rows=*/2000);
    dataset_ = data::Dataset(data::ChunkedStore::open(path_, 128 << 10));
  }
  ~OocData() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  OocData(const OocData&) = delete;
  OocData& operator=(const OocData&) = delete;

  const data::Dataset& dataset() const { return dataset_; }

 private:
  data::Dataset dataset_;
  std::string path_;
};

/// One EM cycle per iteration — update_parameters, then update_wts — on the
/// five-family model at J = 8 with EmConfig::threads = 2, at the host's
/// SIMD level.  The resident run is the reference; the chunked run's extra
/// time is the out-of-core data path: chunk lookups, pread, CRC
/// verification and the lognormal term's per-block log x.
void run_ooc_cycle(benchmark::State& state, bool chunked) {
  const OocData data(chunked);
  const ac::Model model(data.dataset(), five_family_terms());
  const std::size_t n = data.dataset().num_items();
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity);
  ac::Classification c(model, 8);
  ac::EmConfig config;
  config.threads = 2;
  worker.random_init(c, 7, 0, config);
  for (auto _ : state) {
    worker.update_parameters(c);
    benchmark::DoNotOptimize(worker.update_wts(c));
  }
  state.SetItemsProcessed(state.iterations() * n * 8);
}

void BM_OocCycleResident(benchmark::State& state) {
  run_ooc_cycle(state, false);
}
BENCHMARK(BM_OocCycleResident);

void BM_OocCycleChunked(benchmark::State& state) {
  run_ooc_cycle(state, true);
}
BENCHMARK(BM_OocCycleChunked);

/// The data path alone: every 256-item block of every column of the
/// five-family data, block-major as the EM passes read them, each value
/// summed once and no E/M work.  Resident, a block is a span into memory;
/// chunked under the evicting budget, every pass looks up, reads and
/// CRC-checks each chunk column again.
void run_ooc_scan(benchmark::State& state, bool chunked) {
  const OocData data(chunked);
  const data::Dataset& dataset = data.dataset();
  const std::size_t n = dataset.num_items();
  const std::size_t attrs = dataset.num_attributes();
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t begin = 0; begin < n; begin += 256) {
      const data::ItemRange block{begin, std::min(begin + 256, n)};
      for (std::size_t a = 0; a < attrs; ++a) {
        if (dataset.schema().at(a).kind == data::AttributeKind::kReal) {
          const auto view = dataset.real_block(a, block);
          for (std::size_t i = 0; i < view.size(); ++i) sum += view[i];
        } else {
          const auto view = dataset.discrete_block(a, block);
          for (std::size_t i = 0; i < view.size(); ++i) sum += view[i];
        }
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n * attrs);
}

void BM_OocScanResident(benchmark::State& state) {
  run_ooc_scan(state, false);
}
BENCHMARK(BM_OocScanResident);

void BM_OocScanChunked(benchmark::State& state) {
  run_ooc_scan(state, true);
}
BENCHMARK(BM_OocScanChunked);

// ---- chunk checksums: slicing-by-8 vs the PCLMULQDQ fold ----

/// CRC-32 of one 16 KiB buffer, a 2048-row chunk column of doubles, at the
/// pinned dispatch level: the scalar level runs slicing-by-8, AVX2 the
/// carry-less-multiplication fold (same value).
void run_crc32(benchmark::State& state, simd::Level level) {
  const simd::ScopedForceLevel pin(level);
  std::vector<unsigned char> buf(16 << 10);
  Xoshiro256ss rng(16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng() >> 56);
  for (auto _ : state)
    benchmark::DoNotOptimize(data::format::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_Crc32Portable(benchmark::State& state) {
  run_crc32(state, simd::Level::kScalar);
}
BENCHMARK(BM_Crc32Portable);

void BM_Crc32(benchmark::State& state) { run_crc32(state, simd::Level::kAvx2); }
BENCHMARK(BM_Crc32);

void BM_EmBaseCycle(benchmark::State& state) {
  // Host throughput of one full base_cycle (sequential), items x classes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const int j = static_cast<int>(state.range(1));
  const data::LabeledDataset ld = data::paper_dataset(n, 6);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::Reducer identity;
  ac::EmWorker worker(model, data::ItemRange{0, n}, identity);
  ac::Classification c(model, static_cast<std::size_t>(j));
  worker.random_init(c, 7, 0, ac::EmConfig{});
  for (auto _ : state) {
    worker.update_parameters(c);
    benchmark::DoNotOptimize(worker.update_wts(c));
    worker.update_approximations(c);
  }
  state.SetItemsProcessed(state.iterations() * n * j);
}
BENCHMARK(BM_EmBaseCycle)->Args({2000, 4})->Args({2000, 16})->Args({10000, 8});

void BM_Allreduce(benchmark::State& state) {
  // Host-side cost of the deterministic allreduce (4 rank threads).
  const auto n = static_cast<std::size_t>(state.range(0));
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  for (auto _ : state) {
    world.run([n](mp::Comm& comm) {
      std::vector<double> v(n, 1.0);
      for (int i = 0; i < 16; ++i)
        comm.allreduce_inplace<double>(v, mp::ReduceOp::kSum);
    });
  }
  state.SetItemsProcessed(state.iterations() * 16 * n);
}
BENCHMARK(BM_Allreduce)->Arg(16)->Arg(4096);

void BM_AllreduceScalarHot(benchmark::State& state) {
  // The EM hot path in miniature: thousands of tiny scalar allreduces per
  // search.  Guards the thread-local scratch reuse in the collective folds
  // (no per-call temporary vector).
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  for (auto _ : state) {
    world.run([](mp::Comm& comm) {
      double acc = 1.0;
      for (int i = 0; i < 256; ++i)
        acc = comm.allreduce_scalar(acc, mp::ReduceOp::kMax);
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AllreduceScalarHot);

/// Smoke-tier correctness gate for the scratch-buffer fold path: the small
/// collectives the EM loop hammers must still produce exact results after
/// the allocation-free rewrite.  Returns false (and prints) on mismatch.
bool check_scratch_fold_path() {
  mp::World::Config cfg;
  cfg.num_ranks = 4;
  cfg.machine = net::ideal_machine();
  mp::World world(cfg);
  std::atomic<int> failures{0};
  world.run([&failures](mp::Comm& comm) {
    for (int i = 1; i <= 64; ++i) {
      const double sum = comm.allreduce_scalar(static_cast<double>(i));
      if (sum != 4.0 * i) failures.fetch_add(1);
      const auto gathered = comm.allgather_value<int>(comm.rank() + i);
      for (int r = 0; r < comm.size(); ++r)
        if (gathered[static_cast<std::size_t>(r)] != r + i)
          failures.fetch_add(1);
    }
  });
  if (failures.load() != 0) {
    std::fprintf(stderr,
                 "micro_kernels: scratch fold check FAILED (%d mismatches)\n",
                 failures.load());
    return false;
  }
  return true;
}

/// Smoke-tier correctness gate for the batched E-step: update_wts and the
/// scalar oracle must produce bit-identical weights and log-likelihood on
/// the same workload the headline bench measures.
bool check_estep_kernel_equality() {
  const data::LabeledDataset ld = gaussian_heavy_dataset(1000);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::Reducer ra, rb;
  ac::EmWorker a(model, data::ItemRange{0, 1000}, ra);
  ac::EmWorker b(model, data::ItemRange{0, 1000}, rb);
  ac::Classification ca(model, 6), cb(model, 6);
  a.random_init(ca, 9, 0, ac::EmConfig{});
  b.random_init(cb, 9, 0, ac::EmConfig{});
  a.update_parameters(ca);
  b.update_parameters(cb);
  const double la = a.update_wts(ca);
  const double lb = b.update_wts_scalar(cb);
  const auto wa = a.local_weights();
  const auto wb = b.local_weights();
  if (la != lb || wa.size() != wb.size() ||
      std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "micro_kernels: E-step kernel-vs-scalar equality FAILED\n");
    return false;
  }
  return true;
}

/// Smoke-tier correctness gate for the batched M-step: update_parameters
/// and the scalar oracle must produce bit-identical statistics and
/// parameters on the bench workload, at 1 thread and through the pool.
bool check_mstep_kernel_equality() {
  const data::LabeledDataset ld = gaussian_heavy_dataset(1000);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  std::vector<std::vector<double>> stats, params;
  struct Variant {
    bool scalar;
    int threads;
    simd::Level level;
  };
  for (const Variant v : {Variant{false, 1, simd::Level::kAvx2},
                          Variant{true, 1, simd::Level::kAvx2},
                          Variant{false, 4, simd::Level::kAvx2},
                          Variant{false, 1, simd::Level::kScalar}}) {
    const simd::ScopedForceLevel pin(v.level);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, 1000}, identity);
    ac::Classification c(model, 6);
    ac::EmConfig config;
    config.threads = v.threads;
    worker.random_init(c, 9, 0, config);
    if (v.scalar) {
      worker.update_parameters_scalar(c);
    } else {
      worker.update_parameters(c);
    }
    const auto s = worker.statistics();
    stats.emplace_back(s.begin(), s.end());
    const auto p = c.all_params();
    params.emplace_back(p.begin(), p.end());
  }
  for (std::size_t v = 1; v < stats.size(); ++v) {
    if (stats[v].size() != stats[0].size() ||
        std::memcmp(stats[v].data(), stats[0].data(),
                    stats[0].size() * sizeof(double)) != 0 ||
        params[v].size() != params[0].size() ||
        std::memcmp(params[v].data(), params[0].data(),
                    params[0].size() * sizeof(double)) != 0) {
      std::fprintf(
          stderr,
          "micro_kernels: M-step kernel-vs-scalar equality FAILED (%zu)\n",
          v);
      return false;
    }
  }
  return true;
}

/// Smoke-tier correctness gate for the SIMD tier: the E-step under the
/// host's best dispatch level must be bit-identical to the forced-scalar
/// batch kernels on the bench workload.  Degenerates to a self-comparison
/// on scalar-only hosts (still exercises the dispatch plumbing).
bool check_simd_kernel_equality() {
  const data::LabeledDataset ld = gaussian_heavy_dataset(1000);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  std::vector<std::vector<double>> weights;
  std::vector<double> loglikes;
  for (const pac::simd::Level level :
       {pac::simd::Level::kAvx2, pac::simd::Level::kScalar}) {
    const pac::simd::ScopedForceLevel pin(level);
    ac::Reducer identity;
    ac::EmWorker worker(model, data::ItemRange{0, 1000}, identity);
    ac::Classification c(model, 6);
    worker.random_init(c, 9, 0, ac::EmConfig{});
    worker.update_parameters(c);
    loglikes.push_back(worker.update_wts(c));
    const auto w = worker.local_weights();
    weights.emplace_back(w.begin(), w.end());
  }
  if (loglikes[0] != loglikes[1] || weights[0].size() != weights[1].size() ||
      std::memcmp(weights[0].data(), weights[1].data(),
                  weights[0].size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "micro_kernels: SIMD-vs-scalar E-step equality FAILED\n");
    return false;
  }
  return true;
}

}  // namespace

// BENCHMARK_MAIN() plus a --smoke flag: the CI tier maps it to a minimal
// measurement time so every kernel still executes once under sanitizers.
// --print-simd reports the resolved dispatch level and exits (used by
// scripts/check.sh to label its output).  The resolved level is also
// attached to the JSON context as "pac_simd" so committed baselines record
// what they measured.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--print-simd") == 0) {
      std::printf("%s\n", pac::simd::describe());
      return 0;
    }
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
  benchmark::AddCustomContext("pac_simd", pac::simd::describe());
  // The project's own build flavor (context.library_build_type describes
  // the google-benchmark library, not this code).  bench_diff.py matches
  // candidate and baseline on this key: debug and release runs have very
  // different kernel-vs-oracle ratios.
#ifdef NDEBUG
  benchmark::AddCustomContext("pac_build", "release");
#else
  benchmark::AddCustomContext("pac_build", "debug");
#endif
  std::fprintf(stderr, "micro_kernels: %s\n", pac::simd::describe());
  if (smoke && !check_scratch_fold_path()) return 1;
  if (smoke && !check_estep_kernel_equality()) return 1;
  if (smoke && !check_mstep_kernel_equality()) return 1;
  if (smoke && !check_simd_kernel_equality()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
