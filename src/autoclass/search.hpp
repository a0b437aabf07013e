// Model-level search: the paper's BIG_LOOP (Fig. 2).
//
// The loop repeatedly (1) selects a class count J from start_j_list — and,
// once the list is exhausted, from a log-normal fitted to the Js of the best
// classifications found so far, as AutoClass does — (2) runs a "new
// classification try" (random init + EM to convergence + empty-class
// pruning), (3) eliminates duplicates of already-stored classifications, and
// (4) keeps the best few by score.
//
// The loop body is pure, deterministic logic over TryResult values, so it is
// shared verbatim by the sequential and the SPMD-parallel drivers: every
// rank replays the identical search decisions (the control flow in
// P-AutoClass is fully replicated; only the EM inside a try is distributed).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "autoclass/em.hpp"

namespace pac::ac {

enum class ScoreKind {
  kCheesemanStutz,  // AutoClass's marginal approximation (default)
  kBic,             // Laplace/BIC-style penalized likelihood
};

struct SearchConfig {
  /// The paper's experiment grid: start_j_list = 2, 4, 8, 16, 24, 50, 64.
  std::vector<int> start_j_list = {2, 4, 8, 16, 24, 50, 64};
  /// Total classification tries (the paper repeats each run 10 times).
  int max_tries = 10;
  /// Early stop (the BIG_LOOP's "check the stopping conditions", paper
  /// Fig. 1): give up after this many consecutive tries that neither enter
  /// the leaderboard's top spot nor improve the best score.  0 disables.
  int patience = 0;
  /// Stop once the accumulated *modeled* EM cycles exceed this budget
  /// (proxy for AutoClass's wall-clock stopping rule).  0 disables.
  std::int64_t max_total_cycles = 0;
  /// Best classifications kept (AutoClass stores a short leaderboard).
  int keep_best = 3;
  ScoreKind score = ScoreKind::kCheesemanStutz;
  std::uint64_t seed = 1234;
  /// Duplicate-elimination tolerances (see Classification::is_duplicate_of).
  double duplicate_score_tolerance = 1e-4;
  double duplicate_weight_tolerance = 5e-3;
  EmConfig em;
};

struct TryResult {
  Classification classification;
  int try_index = 0;
  int j_requested = 0;
  bool converged = false;
  bool duplicate = false;  // filled by the search loop
};

struct SearchResult {
  /// Best non-duplicate classifications, descending by score.
  std::vector<TryResult> best;
  int tries = 0;
  int duplicates = 0;
  std::int64_t total_cycles = 0;
  /// Modeled EM cycles by which the run exceeded max_total_cycles (0 when
  /// under budget or the budget is disabled).  A try is never interrupted
  /// mid-EM, so the budget can be overshot by up to one try's cycles; the
  /// overshoot is reported so cross-world budget sharing stays honest.
  /// (Transient: not part of the checkpoint format.)
  std::int64_t cycle_overshoot = 0;

  const Classification& top() const;
};

/// Runs one try: must initialize, converge, and prune a J-class
/// classification.  The sequential and parallel drivers supply this.
using TryRunner = std::function<TryResult(int try_index, int j)>;

/// The shared BIG_LOOP.  `model` is only used for scoring metadata.
SearchResult run_search(const Model& model, const SearchConfig& config,
                        const TryRunner& runner);

/// BIG_LOOP continuation: runs tries `state.tries .. max_tries-1`, seeding
/// duplicate elimination and J selection with the leaderboard in `state`.
/// run_search is this with an empty state; checkpoint.hpp's resume_search
/// loads the state from disk.
SearchResult run_search_from(const Model& model, const SearchConfig& config,
                             const TryRunner& runner, SearchResult state);

/// Convenience sequential driver: whole dataset, identity Reducer.
SearchResult sequential_search(const Model& model, const SearchConfig& config);

/// The J the search would pick for try `t` given the Js of the current best
/// classifications (exposed for tests; deterministic in (config.seed, t)).
int select_j(const SearchConfig& config, int try_index,
             const std::vector<int>& best_js);

/// The shared (seed, J) try schedule for try-parallel search: a pure
/// function of (config, try_index) with no leaderboard feedback, so G
/// sub-worlds can each run a disjoint slice of the same global sequence
/// without coordinating.  Tries below start_j_list.size() take the listed J
/// (identical to select_j); later tries sample the log-normal fitted to the
/// start list itself, drawn from the counter-RNG keyed by the *global* try
/// index — draws never collide across sub-worlds because the try indices
/// are disjoint.
int scheduled_j(const SearchConfig& config, int try_index);

/// Canonical leaderboard merge: a pure function of the entry *set* (order
/// of `entries` does not matter).  Entries are ranked by (score descending,
/// try_index ascending), then greedily kept unless duplicate of an
/// already-kept entry, and the board is truncated to keep_best.  This is
/// the determinism anchor of try-parallel search: merging the per-group
/// boards yields the same leaderboard regardless of how tries were split
/// into groups.  Note the rule differs from the serial loop's insertion
/// order (which keeps the *first-seen* of a duplicate pair): the canonical
/// rule keeps the higher-scoring one, because "first seen" depends on
/// execution order.
struct MergedLeaderboard {
  std::vector<TryResult> best;
  int duplicates = 0;  // entries eliminated as duplicates by this merge
};
MergedLeaderboard merge_leaderboards(const SearchConfig& config,
                                     std::vector<TryResult> entries);

double score_of(const Classification& c, ScoreKind kind);

}  // namespace pac::ac
