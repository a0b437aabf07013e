#include "autoclass/search.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pac::ac {

namespace {
constexpr std::uint64_t kJStream = 0x5E1EC7;
}

const Classification& SearchResult::top() const {
  PAC_REQUIRE_MSG(!best.empty(), "search produced no classifications");
  return best.front().classification;
}

double score_of(const Classification& c, ScoreKind kind) {
  return kind == ScoreKind::kCheesemanStutz ? c.cs_score : c.bic_score;
}

int select_j(const SearchConfig& config, int try_index,
             const std::vector<int>& best_js) {
  PAC_REQUIRE(!config.start_j_list.empty());
  const auto list_size = static_cast<int>(config.start_j_list.size());
  if (try_index < list_size) {
    const int j = config.start_j_list[try_index];
    PAC_REQUIRE_MSG(j >= 1, "start_j_list entries must be >= 1");
    return j;
  }
  if (best_js.size() < 2) {
    // Not enough evidence to fit a distribution; cycle the list.
    return config.start_j_list[try_index % list_size];
  }
  // AutoClass samples new Js from a log-normal fitted to the best Js so far.
  double mean_log = 0.0;
  for (const int j : best_js) mean_log += std::log(static_cast<double>(j));
  mean_log /= static_cast<double>(best_js.size());
  double var_log = 0.0;
  for (const int j : best_js)
    var_log += sq(std::log(static_cast<double>(j)) - mean_log);
  var_log /= static_cast<double>(best_js.size());
  const double sigma = std::sqrt(std::max(var_log, 0.01));

  const CounterRng rng(config.seed);
  // Box-Muller from two counter-based uniforms (deterministic in try_index).
  double u1 = rng.uniform(kJStream, static_cast<std::uint64_t>(try_index), 0);
  const double u2 =
      rng.uniform(kJStream, static_cast<std::uint64_t>(try_index), 1);
  if (u1 <= 0.0) u1 = 0.5;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * kPi * u2);
  const double j_sample = std::exp(mean_log + sigma * z);
  const int max_j =
      *std::max_element(config.start_j_list.begin(), config.start_j_list.end());
  return std::clamp(static_cast<int>(std::lround(j_sample)), 2, 2 * max_j);
}

int scheduled_j(const SearchConfig& config, int try_index) {
  PAC_REQUIRE(try_index >= 0);
  // Below the start list the schedule is identical to select_j; past it the
  // log-normal is fitted to the start list itself rather than the
  // leaderboard — the leaderboard is not shared state across sub-worlds,
  // the start list is, so the whole schedule is a pure function of
  // (config.seed, try_index) and can be sliced across G groups.
  return select_j(config, try_index, config.start_j_list);
}

MergedLeaderboard merge_leaderboards(const SearchConfig& config,
                                     std::vector<TryResult> entries) {
  PAC_REQUIRE(config.keep_best >= 1);
  // Canonical order: score descending, then global try index ascending (a
  // total order — two tries never share an index — so the merge does not
  // depend on the order entries arrived in).
  std::sort(entries.begin(), entries.end(),
            [&](const TryResult& a, const TryResult& b) {
              const double sa = score_of(a.classification, config.score);
              const double sb = score_of(b.classification, config.score);
              if (sa != sb) return sa > sb;
              return a.try_index < b.try_index;
            });
  MergedLeaderboard out;
  for (TryResult& e : entries) {
    bool duplicate = false;
    for (const TryResult& kept : out.best) {
      if (e.classification.is_duplicate_of(
              kept.classification, config.duplicate_score_tolerance,
              config.duplicate_weight_tolerance)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++out.duplicates;
      continue;
    }
    out.best.push_back(std::move(e));
  }
  // Deduplicate over the whole set first, truncate after: a low-ranked
  // entry must still be recognized as a duplicate of a kept one even when
  // the board is already full, or the duplicate count (and therefore the
  // merge) would depend on arrival order.
  while (out.best.size() > static_cast<std::size_t>(config.keep_best))
    out.best.pop_back();
  return out;
}

SearchResult run_search(const Model& model, const SearchConfig& config,
                        const TryRunner& runner) {
  return run_search_from(model, config, runner, SearchResult{});
}

SearchResult run_search_from(const Model& model, const SearchConfig& config,
                             const TryRunner& runner, SearchResult state) {
  PAC_REQUIRE(config.max_tries >= 1);
  PAC_REQUIRE(config.keep_best >= 1);
  PAC_REQUIRE(config.patience >= 0);
  (void)model;
  SearchResult result = std::move(state);
  int stale_tries = 0;
  double best_score = result.best.empty()
                          ? -std::numeric_limits<double>::infinity()
                          : score_of(result.best.front().classification,
                                     config.score);
  for (int t = result.tries; t < config.max_tries; ++t) {
    if (config.max_total_cycles > 0 &&
        result.total_cycles >= config.max_total_cycles)
      break;
    std::vector<int> best_js;
    for (const TryResult& b : result.best)
      best_js.push_back(static_cast<int>(b.classification.num_classes()));
    const int j = select_j(config, t, best_js);

    TryResult attempt = runner(t, j);
    attempt.try_index = t;
    attempt.j_requested = j;
    ++result.tries;
    result.total_cycles += attempt.classification.cycles;
    // Re-check the budget after accumulating: a try runs to completion (EM
    // is never interrupted mid-try), so the try that crosses the budget is
    // still recorded, but no further try starts and the overshoot is
    // reported below.
    const bool over_budget = config.max_total_cycles > 0 &&
                             result.total_cycles >= config.max_total_cycles;

    // Duplicate elimination (paper Fig. 2, "duplicates elimination").
    bool duplicate = false;
    for (const TryResult& b : result.best) {
      if (attempt.classification.is_duplicate_of(
              b.classification, config.duplicate_score_tolerance,
              config.duplicate_weight_tolerance)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++result.duplicates;
      if (over_budget) break;
      if (config.patience > 0 && ++stale_tries >= config.patience) break;
      continue;
    }

    attempt.classification.sort_classes_by_weight();
    result.best.push_back(std::move(attempt));
    std::stable_sort(result.best.begin(), result.best.end(),
                     [&](const TryResult& a, const TryResult& b) {
                       return score_of(a.classification, config.score) >
                              score_of(b.classification, config.score);
                     });
    while (result.best.size() > static_cast<std::size_t>(config.keep_best))
      result.best.pop_back();

    // Early-stop bookkeeping: did this try advance the best score?
    const double top =
        score_of(result.best.front().classification, config.score);
    if (top > best_score) {
      best_score = top;
      stale_tries = 0;
    } else if (config.patience > 0 && ++stale_tries >= config.patience) {
      break;
    }
    if (over_budget) break;
  }
  if (config.max_total_cycles > 0)
    result.cycle_overshoot = std::max<std::int64_t>(
        0, result.total_cycles - config.max_total_cycles);
  PAC_CHECK_MSG(!result.best.empty(),
                "search kept no classifications (all duplicates?)");
  return result;
}

SearchResult sequential_search(const Model& model,
                               const SearchConfig& config) {
  Reducer identity;
  const data::ItemRange whole{0, model.dataset().num_items()};
  EmWorker worker(model, whole, identity);
  const TryRunner runner = [&](int try_index, int j) {
    TryResult out{Classification(model, static_cast<std::size_t>(j))};
    worker.random_init(out.classification, config.seed,
                       static_cast<std::uint64_t>(try_index), config.em);
    const ConvergeOutcome outcome =
        worker.converge(out.classification, config.em);
    out.converged = outcome.converged;
    out.classification =
        worker.prune_and_refit(out.classification, config.em);
    return out;
  };
  return run_search(model, config, runner);
}

}  // namespace pac::ac
