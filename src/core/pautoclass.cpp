#include "core/pautoclass.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "autoclass/checkpoint.hpp"
#include "mp/wire.hpp"
#include "util/error.hpp"

namespace pac::core {

const char* to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kFull: return "full";
    case Strategy::kWtsOnly: return "wts-only";
  }
  return "?";
}

const char* to_string(ReduceGranularity g) noexcept {
  switch (g) {
    case ReduceGranularity::kPerTerm: return "per-term";
    case ReduceGranularity::kFused: return "fused";
  }
  return "?";
}

ParallelReducer::ParallelReducer(mp::Comm& comm, const ac::Model& model,
                                 const ParallelConfig& config)
    : comm_(&comm), model_(&model), config_(config) {}

void ParallelReducer::reduce_weights(std::span<double> weights_and_loglike) {
  // One Allreduce of [W_0..W_{J-1}, logL] — paper Fig. 4.
  comm_->allreduce_inplace(weights_and_loglike, mp::ReduceOp::kSum);
}

void ParallelReducer::reduce_statistics(std::span<double> stats,
                                        std::size_t num_classes) {
  const std::size_t spc = model_->stats_per_class();
  PAC_CHECK(stats.size() == num_classes * spc);
  if (config_.granularity == ReduceGranularity::kFused) {
    comm_->allreduce_inplace(stats, mp::ReduceOp::kSum);
    return;
  }
  // Per-term: one Allreduce per (class, term), mirroring the placement of
  // the Allreduce inside the class/attribute loops of paper Fig. 5.
  for (std::size_t j = 0; j < num_classes; ++j) {
    double* class_stats = stats.data() + j * spc;
    for (std::size_t t = 0; t < model_->num_terms(); ++t) {
      comm_->allreduce_inplace(
          std::span<double>(class_stats + model_->stats_offset(t),
                            model_->term(t).stats_size()),
          mp::ReduceOp::kSum);
    }
  }
}

void ParallelReducer::gather_weight_matrix(std::span<const double> local,
                                           std::span<double> full,
                                           data::ItemRange range,
                                           std::size_t j) {
  const int p = comm_->size();
  const std::size_t n = full.size() / j;
  PAC_CHECK(full.size() == n * j);
  PAC_CHECK(local.size() == range.size() * j);
  if (p == 1) {
    std::copy(local.begin(), local.end(), full.begin());
    return;
  }
  // Blocks differ by at most one row; pad to the widest and Allgather.
  const std::size_t pad_rows = data::block_partition(n, p, 0).size();
  std::vector<double> padded(pad_rows * j, 0.0);
  std::copy(local.begin(), local.end(), padded.begin());
  std::vector<double> gathered(static_cast<std::size_t>(p) * pad_rows * j);
  comm_->allgather<double>(padded, std::span<double>(gathered));
  for (int r = 0; r < p; ++r) {
    const data::ItemRange rr = data::block_partition(n, p, r);
    std::copy_n(gathered.begin() + static_cast<std::size_t>(r) * pad_rows * j,
                rr.size() * j, full.begin() + rr.begin * j);
  }
}

void ParallelReducer::charge(const ac::PhaseWork& work) {
  if (!config_.charge_costs) return;
  const net::CostBook& costs = comm_->costs();
  const auto items = static_cast<double>(work.items);
  const auto classes = static_cast<double>(work.classes);
  const auto attrs = static_cast<double>(work.attributes);
  double seconds = 0.0;
  double* bucket = &profile_.overhead;
  switch (work.phase) {
    case ac::Phase::kUpdateWts:
      seconds = items * (classes * attrs * costs.wts_per_item_class_attr +
                         costs.wts_per_item);
      bucket = &profile_.wts;
      break;
    case ac::Phase::kUpdateParams:
      // Accumulation over local items + the replicated MAP update.
      seconds = items * classes * attrs * costs.params_per_item_class_attr +
                classes * attrs * costs.params_update_per_class_attr;
      bucket = &profile_.params;
      break;
    case ac::Phase::kUpdateApprox:
      seconds = classes * costs.approx_per_class;
      bucket = &profile_.approx;
      break;
    case ac::Phase::kCycleOverhead:
      seconds = costs.per_cycle_overhead;
      break;
    case ac::Phase::kTryOverhead:
      seconds = costs.per_try_overhead + items * costs.wts_per_item;
      break;
  }
  comm_->charge(seconds);
  *bucket += seconds;
}

namespace {

/// Partition selection: the paper's equal-size block split, or the skewed
/// variant for the load-imbalance ablation.
data::ItemRange partition_for(const ac::Model& model, const mp::Comm& comm,
                              const ParallelConfig& parallel) {
  const std::size_t n = model.dataset().num_items();
  if (parallel.partition_skew == 1.0)
    return data::block_partition(n, comm.size(), comm.rank());
  PAC_REQUIRE_MSG(parallel.strategy == Strategy::kFull,
                  "partition_skew requires the Full strategy");
  return data::skewed_partition(n, comm.size(), comm.rank(),
                                parallel.partition_skew);
}

/// The per-try body shared by both entry points.
ac::TryResult run_try(ac::EmWorker& worker, const ac::Model& model,
                      const ac::SearchConfig& config, int try_index, int j,
                      trace::Recorder* rec) {
  PAC_TRACE_SCOPE(rec, "search", "try");
  if (rec != nullptr) rec->metrics().counter("search.tries").add(1);
  ac::TryResult out{
      ac::Classification(model, static_cast<std::size_t>(j))};
  worker.random_init(out.classification, config.seed,
                     static_cast<std::uint64_t>(try_index), config.em);
  const ac::ConvergeOutcome outcome =
      worker.converge(out.classification, config.em);
  out.converged = outcome.converged;
  out.classification = worker.prune_and_refit(out.classification, config.em);
  return out;
}

// ---- try-parallel search (group mode) ----
//
// The world splits into G equal sub-worlds.  Sub-world g runs the global
// tries {t : t % G == g} from the shared scheduled_j sequence, each try
// block-partitioned over the sub-world's ranks exactly like the classic
// path.  Group leaders (sub-rank 0) periodically push a serialized
// snapshot of their group's SearchResult to the other leaders over world
// pt2pt (framed blobs, checkpoint codec); leaders re-broadcast drained
// snapshots inside their sub-world so every rank of a group keeps making
// identical decisions.  The exchange is *advisory*: it powers cross-world
// duplicate marking, the patience bar, and the shared cycle budget, but
// never changes what reaches the final reduction — group boards are
// append-only (every completed try enters, duplicates only marked, no
// truncation), and the final all-world allgather + ac::merge_leaderboards
// is the single authority that eliminates duplicates and truncates to
// keep_best.  The merged leaderboard therefore depends only on
// (seed, completed try set) and not on message timing or on G (at fixed
// sub-world size; see DESIGN.md for why the sub-world size pins the FP
// fold shape).

/// World-comm tag reserved for cross-sub-world leaderboard summaries (the
/// EM phases use only collectives, so no other world pt2pt exists to
/// collide with).
constexpr int kExchangeTag = 0x5EA7C4;
/// wire `kind` of a serialized group SearchResult snapshot.
constexpr std::uint32_t kSummaryKind = 0x53524573;  // "SREs"

std::string encode_group_summary(const ac::SearchResult& result) {
  std::ostringstream os;
  ac::save_search_result(os, result);
  return os.str();
}

ac::SearchResult decode_group_summary(const std::string& payload,
                                      const ac::Model& model) {
  std::istringstream is(payload);
  return ac::load_search_result(is, model);
}

/// Leader-side drain of queued foreign summaries, re-broadcast inside the
/// sub-world, and replicated update of the per-group foreign view.
/// Returns the number of drained messages (identical on all sub ranks).
int drain_foreign_summaries(mp::Comm& comm, mp::Comm& sub, int sub_size,
                            const ac::Model& model,
                            std::vector<ac::SearchResult>& foreign) {
  std::vector<std::uint64_t> sources;
  std::vector<std::string> payloads;
  if (sub.rank() == 0) {
    std::string payload;
    mp::Status st;
    while (mp::wire::try_recv_blob(comm, mp::kAnySource, kExchangeTag,
                                   kSummaryKind, payload, &st)) {
      sources.push_back(static_cast<std::uint64_t>(st.source));
      payloads.push_back(std::move(payload));
    }
  }
  std::uint64_t count = sources.size();
  sub.broadcast<std::uint64_t>(std::span<std::uint64_t>(&count, 1), 0);
  sources.resize(count);
  payloads.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    sub.broadcast<std::uint64_t>(std::span<std::uint64_t>(&sources[i], 1), 0);
    mp::wire::broadcast_blob(sub, payloads[i], 0);
    // Sender leaders live at world rank g * sub_size.  Per-pair FIFO means
    // a later snapshot from the same group overwrites an earlier one.
    const auto g = static_cast<std::size_t>(sources[i]) /
                   static_cast<std::size_t>(sub_size);
    PAC_CHECK(g < foreign.size());
    foreign[g] = decode_group_summary(payloads[i], model);
  }
  return static_cast<int>(count);
}

ac::SearchResult run_group_search(mp::Comm& comm, const ac::Model& model,
                                  const ac::SearchConfig& config,
                                  const ParallelConfig& parallel,
                                  const ac::SearchResult* resume,
                                  PhaseProfile& profile_out) {
  const int groups = parallel.try_groups;
  PAC_REQUIRE_MSG(groups >= 1 && groups <= comm.size(),
                  "try_groups (" << groups << ") must be in [1, world size "
                                 << comm.size() << "]");
  PAC_REQUIRE_MSG(comm.size() % groups == 0,
                  "try_groups (" << groups << ") must divide the world size ("
                                 << comm.size() << ")");
  PAC_REQUIRE(config.max_tries >= 1 && config.keep_best >= 1);
  const int sub_size = comm.size() / groups;
  const int group = comm.rank() / sub_size;
  mp::Comm sub = comm.split(group, comm.rank());
  const bool leader = sub.rank() == 0;

  ParallelReducer reducer(sub, model, parallel);
  const data::ItemRange range = partition_for(model, sub, parallel);
  ac::EmWorker worker(model, range, reducer,
                      parallel.strategy == Strategy::kFull);
  trace::Recorder* rec = comm.recorder();
  PAC_TRACE_SCOPE(rec, "search", "group_loop");

  // Replicated-per-group state: every rank of a sub-world computes the
  // identical trajectory (collective results are bit-identical, and the
  // foreign view below is leader-broadcast before use).
  ac::SearchResult local;  // this group's own tries + append-only board
  int base_tries = 0;
  int base_duplicates = 0;
  std::int64_t base_cycles = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  if (resume != nullptr) {
    base_tries = resume->tries;
    base_duplicates = resume->duplicates;
    base_cycles = resume->total_cycles;
    // The stored leaderboard seeds every group's duplicate elimination;
    // the final merge dedups the G replicated copies by try index.
    for (const ac::TryResult& entry : resume->best)
      local.best.push_back(ac::TryResult{entry.classification,
                                         entry.try_index, entry.j_requested,
                                         entry.converged, entry.duplicate});
    if (!local.best.empty())
      best_score = ac::score_of(local.best.front().classification,
                                config.score);
  }

  std::vector<ac::SearchResult> foreign(static_cast<std::size_t>(groups));
  const int exchange_period = std::max(1, parallel.exchange_period);
  int since_exchange = 0;
  int stale_tries = 0;

  // First global try owned by this group at or past base_tries.
  int t = base_tries + (((group - base_tries) % groups) + groups) % groups;
  for (; t < config.max_tries; t += groups) {
    const int drained =
        groups > 1
            ? drain_foreign_summaries(comm, sub, sub_size, model, foreign)
            : 0;
    if (rec != nullptr && drained > 0)
      rec->metrics().counter("search.exchange.drained").add(
          static_cast<std::uint64_t>(drained));
    // A foreign group's best raises the bar patience measures against.
    for (const ac::SearchResult& f : foreign)
      if (!f.best.empty())
        best_score = std::max(
            best_score, ac::score_of(f.best.front().classification,
                                     config.score));
    // Shared budget: what this group knows of the global cycle count.
    std::int64_t known_cycles = base_cycles + local.total_cycles;
    for (const ac::SearchResult& f : foreign) known_cycles += f.total_cycles;
    if (config.max_total_cycles > 0 && known_cycles >= config.max_total_cycles)
      break;

    const int j = ac::scheduled_j(config, t);
    ac::TryResult attempt = run_try(worker, model, config, t, j, rec);
    attempt.try_index = t;
    attempt.j_requested = j;
    ++local.tries;
    local.total_cycles += attempt.classification.cycles;
    known_cycles += attempt.classification.cycles;
    const bool over_budget = config.max_total_cycles > 0 &&
                             known_cycles >= config.max_total_cycles;

    attempt.classification.sort_classes_by_weight();
    const auto duplicate_of = [&](const ac::TryResult& b) {
      return attempt.classification.is_duplicate_of(
          b.classification, config.duplicate_score_tolerance,
          config.duplicate_weight_tolerance);
    };
    // Duplicate detection during the run is *advisory* (it feeds the
    // patience bar and telemetry).  The attempt always enters the local
    // board, only marked: dropping a local duplicate or truncating the
    // board here would make the entry set reaching the final merge depend
    // on how the tries were grouped (the duplicate relation is not
    // transitive), breaking the G-invariance contract.  The final canonical
    // merge is the single authority that eliminates duplicates and
    // truncates to keep_best.
    const bool dup_local =
        std::any_of(local.best.begin(), local.best.end(), duplicate_of);
    bool dup_foreign = false;
    if (!dup_local) {
      for (const ac::SearchResult& f : foreign)
        dup_foreign = dup_foreign || std::any_of(f.best.begin(),
                                                 f.best.end(), duplicate_of);
    }
    attempt.duplicate = dup_local || dup_foreign;
    if (dup_foreign && rec != nullptr)
      rec->metrics().counter("search.cross_world_duplicates").add(1);
    const double attempt_score =
        ac::score_of(attempt.classification, config.score);
    local.best.push_back(std::move(attempt));
    // Keep the canonical order (score descending, try ascending) so
    // front() is the group's best for the advisory exchange.
    std::sort(local.best.begin(), local.best.end(),
              [&](const ac::TryResult& a, const ac::TryResult& b) {
                const double sa =
                    ac::score_of(a.classification, config.score);
                const double sb =
                    ac::score_of(b.classification, config.score);
                if (sa != sb) return sa > sb;
                return a.try_index < b.try_index;
              });

    if (dup_local || dup_foreign) {
      if (!over_budget && config.patience > 0 &&
          ++stale_tries >= config.patience)
        break;
    } else if (attempt_score > best_score) {
      best_score = attempt_score;
      stale_tries = 0;
    } else if (!over_budget && config.patience > 0 &&
               ++stale_tries >= config.patience) {
      break;
    }

    if (leader && groups > 1 && ++since_exchange >= exchange_period) {
      since_exchange = 0;
      const std::string snapshot = encode_group_summary(local);
      for (int g = 0; g < groups; ++g) {
        if (g == group) continue;
        mp::wire::send_blob(comm, g * sub_size, kExchangeTag, kSummaryKind,
                            snapshot);
        if (rec != nullptr)
          rec->metrics().counter("search.exchange.sent").add(1);
      }
    }
    if (over_budget) break;
  }

  // Final deterministic reduction.  The barrier closes the try phase on
  // every rank; leftover advisory summaries are drained and discarded so a
  // reused World does not start its next run with a stale mailbox.
  comm.barrier();
  if (leader && groups > 1) {
    std::string discard;
    while (mp::wire::try_recv_blob(comm, mp::kAnySource, kExchangeTag,
                                   kSummaryKind, discard)) {
    }
  }
  // Leaders contribute their group's snapshot; other ranks contribute an
  // empty blob.  Gathered in world-rank order, so group order — every rank
  // decodes the same sequence and computes the identical merge.
  const std::vector<std::string> blobs = mp::wire::allgather_blobs(
      comm, leader ? encode_group_summary(local) : std::string());
  ac::SearchResult out;
  out.tries = base_tries;
  out.duplicates = base_duplicates;
  out.total_cycles = base_cycles;
  std::vector<ac::TryResult> entries;
  std::set<int> seen_tries;
  for (const std::string& blob : blobs) {
    if (blob.empty()) continue;
    ac::SearchResult s = decode_group_summary(blob, model);
    out.tries += s.tries;
    out.duplicates += s.duplicates;
    out.total_cycles += s.total_cycles;
    for (ac::TryResult& entry : s.best) {
      // A resume-seeded entry is replicated on every group's board; it is
      // the same try, not a duplicate — keep the first copy only.
      if (!seen_tries.insert(entry.try_index).second) continue;
      entries.push_back(std::move(entry));
    }
  }
  ac::MergedLeaderboard merged =
      ac::merge_leaderboards(config, std::move(entries));
  out.best = std::move(merged.best);
  out.duplicates += merged.duplicates;
  if (config.max_total_cycles > 0)
    out.cycle_overshoot = std::max<std::int64_t>(
        0, out.total_cycles - config.max_total_cycles);
  PAC_CHECK_MSG(!out.best.empty(),
                "group search kept no classifications (all duplicates?)");
  profile_out = reducer.profile();
  return out;
}

}  // namespace

ParallelOutcome run_parallel_search(mp::World& world, const ac::Model& model,
                                    const ac::SearchConfig& config,
                                    const ParallelConfig& parallel,
                                    const ac::SearchResult* resume) {
  std::optional<ac::SearchResult> rank0_result;
  std::optional<PhaseProfile> rank0_profile;
  std::mutex result_mutex;

  mp::RunStats stats = world.run([&](mp::Comm& comm) {
    ac::SearchResult result;
    PhaseProfile profile;
    if (parallel.try_groups > 0) {
      // Try-parallel mode: disjoint slices of the shared schedule on split
      // sub-worlds, merged with the canonical leaderboard rule.
      result = run_group_search(comm, model, config, parallel, resume,
                                profile);
    } else {
      ParallelReducer reducer(comm, model, parallel);
      const data::ItemRange range = partition_for(model, comm, parallel);
      ac::EmWorker worker(model, range, reducer,
                          parallel.strategy == Strategy::kFull);
      trace::Recorder* rec = comm.recorder();
      const ac::TryRunner runner = [&, rec](int try_index, int j) {
        return run_try(worker, model, config, try_index, j, rec);
      };
      PAC_TRACE_SCOPE(rec, "search", "big_loop");
      // The search loop runs replicated: every rank makes identical
      // decisions because every input to a decision is a globally reduced
      // value.  A resumed state is copied per rank so each replica owns its
      // mutable leaderboard.
      ac::SearchResult seed;
      if (resume) {
        seed.tries = resume->tries;
        seed.duplicates = resume->duplicates;
        seed.total_cycles = resume->total_cycles;
        for (const ac::TryResult& entry : resume->best)
          seed.best.push_back(ac::TryResult{entry.classification,
                                            entry.try_index,
                                            entry.j_requested,
                                            entry.converged, entry.duplicate});
      }
      result = ac::run_search_from(model, config, runner, std::move(seed));
      profile = reducer.profile();
    }
    // On the distributed backend every process hosts one rank and must
    // produce its own outcome (the search is replicated: collective results
    // are bit-identical on every rank, so so is the classification).
    if (comm.rank() == 0 || comm.distributed()) {
      std::lock_guard<std::mutex> lock(result_mutex);
      rank0_result = std::move(result);
      rank0_profile = profile;
    }
  });

  PAC_CHECK(rank0_result.has_value());
  ParallelOutcome outcome{std::move(*rank0_result), std::move(stats),
                          *rank0_profile};
  return outcome;
}

EmPhaseBreakdown EmPhaseBreakdown::from(const metrics::Registry& metrics) {
  EmPhaseBreakdown out;
  out.update_wts = metrics.histogram_sum("em.update_wts");
  out.update_parameters = metrics.histogram_sum("em.update_parameters");
  out.update_approximations =
      metrics.histogram_sum("em.update_approximations");
  out.random_init = metrics.histogram_sum("em.random_init");
  out.base_cycle = metrics.histogram_sum("em.base_cycle");
  out.cycles = metrics.counter_value("em.cycles");
  out.convergence_checks = metrics.counter_value("em.convergence_checks");
  return out;
}

bool write_reports(std::ostream& text_out, const mp::RunStats& stats,
                   const std::string& chrome_json_path) {
  if (!stats.instrumented) return false;
  metrics::write_report(text_out, stats.metrics, "instrumented run");
  if (stats.events_dropped > 0)
    text_out << "!! " << stats.events_dropped
             << " event(s) dropped to ring overflow — raise "
                "World::Config::instrument_ring for a complete trace\n";
  if (!chrome_json_path.empty()) {
    std::ofstream os(chrome_json_path);
    PAC_REQUIRE_MSG(os.good(),
                    "cannot write chrome trace '" << chrome_json_path << "'");
    trace::write_chrome_trace(os, stats.events);
  }
  return true;
}

BaseCycleMeasurement measure_base_cycle(mp::World& world,
                                        const ac::Model& model, int j,
                                        int cycles, std::uint64_t seed,
                                        const ParallelConfig& parallel) {
  PAC_REQUIRE(j >= 1 && cycles >= 1);
  std::optional<PhaseProfile> rank0_profile;
  std::mutex result_mutex;
  ac::EmConfig em;

  mp::RunStats stats = world.run([&](mp::Comm& comm) {
    ParallelReducer reducer(comm, model, parallel);
    const data::ItemRange range = partition_for(model, comm, parallel);
    ac::EmWorker worker(model, range, reducer,
                        parallel.strategy == Strategy::kFull);
    ac::Classification c(model, static_cast<std::size_t>(j));
    worker.random_init(c, seed, 0, em);
    for (int cycle = 0; cycle < cycles; ++cycle) {
      worker.update_parameters(c);
      worker.update_wts(c);
      worker.update_approximations(c);
    }
    if (comm.rank() == 0 || comm.distributed()) {
      std::lock_guard<std::mutex> lock(result_mutex);
      rank0_profile = reducer.profile();
    }
  });

  BaseCycleMeasurement out;
  out.stats = std::move(stats);
  out.profile = *rank0_profile;
  // The whole run's virtual time, random_init's one-off try overhead
  // included, divided by the cycle count: the init cost is small, and the
  // scaleup figure (Golden.fig8_scaleup) is pinned on this definition.
  out.seconds_per_cycle = out.stats.virtual_time / static_cast<double>(cycles);
  return out;
}

}  // namespace pac::core
