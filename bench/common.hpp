// Shared plumbing for the figure-reproduction harnesses.
//
// Every figure binary runs the same protocol as the paper — the synthetic
// two-real-attribute dataset, the start_j_list grid, P = 1..10 on the
// modeled Meiko CS-2 — but at a reduced default scale so the whole bench
// suite finishes in seconds on a laptop.  Pass --paper for the full-scale
// grid (sizes to 100 000 tuples, start_j_list to 64); virtual times scale
// linearly with the knobs, so the reduced grid preserves every shape the
// paper reports.  EXPERIMENTS.md records both scales.
#pragma once

#include <cstdint>
#include <iostream>
#include <vector>

#include "autoclass/search.hpp"
#include "core/pautoclass.hpp"
#include "data/synth.hpp"
#include "mp/transport/env.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace pac::bench {

struct GridConfig {
  std::vector<std::int64_t> sizes;    // dataset sizes (tuples)
  std::vector<std::int64_t> procs;    // processor counts
  std::vector<int> start_j_list;      // the paper's class-count ladder
  int tries = 0;                      // classification tries per run
  int cycles = 0;                     // fixed EM cycles per try
  /// Repetitions with different search seeds, averaged (the paper repeats
  /// each classification 10 times and reports means).
  int repeats = 1;
  net::Machine machine;
  std::uint64_t seed = 42;
};

/// True when the harness runs in the CI smoke tier: tiny inputs so every
/// collective and EM path executes (under sanitizers) in well under a
/// second.  Every bench binary accepts --smoke.
inline bool smoke_mode(const Cli& cli) { return cli.get_bool("smoke", false); }

/// Under pac_launch the world size is fixed by the environment: collapse
/// the processor sweep to the real world size (a distributed bench measures
/// one configuration per launch).  No-op in a plain (modeled) run.
inline void finalize_grid(GridConfig& grid) {
  if (!mp::transport::pacnet_launched()) return;
  grid.procs = {static_cast<std::int64_t>(mp::transport::pacnet_size())};
}

/// Parse the common flags.  Defaults: reduced grid; --paper: the grid of
/// the paper's Sec. 4 (plus --machine to retarget the simulation);
/// --smoke: the tiny CI tier.
inline GridConfig parse_grid(const Cli& cli) {
  GridConfig grid;
  const bool paper = cli.get_bool("paper", false);
  if (smoke_mode(cli)) {
    grid.sizes = cli.get_int_list("sizes", {300});
    grid.start_j_list = {2, 4};
    grid.tries = static_cast<int>(cli.get_int("tries", 1));
    grid.cycles = static_cast<int>(cli.get_int("cycles", 2));
    grid.procs = cli.get_int_list("procs", {1, 2, 4});
    grid.machine =
        net::machine_by_name(cli.get_string("machine", "meiko-cs2"));
    grid.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    grid.repeats = 1;
    if (cli.has("jlist")) {
      grid.start_j_list.clear();
      for (const auto j : cli.get_int_list("jlist", {}))
        grid.start_j_list.push_back(static_cast<int>(j));
    }
    finalize_grid(grid);
    return grid;
  }
  if (paper) {
    grid.sizes = cli.get_int_list(
        "sizes", {5000, 10000, 20000, 40000, 60000, 80000, 100000});
    grid.start_j_list = {2, 4, 8, 16, 24, 50, 64};
    grid.tries = static_cast<int>(cli.get_int("tries", 7));
    grid.cycles = static_cast<int>(cli.get_int("cycles", 30));
  } else {
    grid.sizes = cli.get_int_list("sizes", {1000, 2000, 5000, 10000});
    grid.start_j_list = {2, 4, 8};
    grid.tries = static_cast<int>(cli.get_int("tries", 3));
    grid.cycles = static_cast<int>(cli.get_int("cycles", 12));
  }
  grid.procs = cli.get_int_list("procs", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  if (cli.has("jlist")) {
    grid.start_j_list.clear();
    for (const auto j : cli.get_int_list("jlist", {}))
      grid.start_j_list.push_back(static_cast<int>(j));
  }
  grid.machine = net::machine_by_name(
      cli.get_string("machine", "meiko-cs2"));
  grid.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  grid.repeats = static_cast<int>(
      cli.get_int("repeats", cli.get_bool("paper", false) ? 10 : 1));
  finalize_grid(grid);
  return grid;
}

/// Search configuration for one grid cell (fixed-cycle EM so run lengths
/// are comparable across processor counts, exactly like the paper's
/// repeated classifications).
inline ac::SearchConfig search_for(const GridConfig& grid) {
  ac::SearchConfig config;
  config.start_j_list = grid.start_j_list;
  config.max_tries = grid.tries;
  config.seed = grid.seed;
  config.em.max_cycles = grid.cycles;
  config.em.min_cycles = 2;
  return config;
}

/// Modeled elapsed seconds of a full classification run of `model` on
/// `procs` processors of the grid's machine.
inline core::ParallelOutcome run_cell(const ac::Model& model, int procs,
                                      const GridConfig& grid,
                                      const core::ParallelConfig& pcfg = {}) {
  mp::World::Config cfg;
  cfg.num_ranks = procs;
  cfg.machine = grid.machine;
  mp::World world(cfg);
  return core::run_parallel_search(world, model, search_for(grid), pcfg);
}

/// Mean modeled elapsed time over grid.repeats repetitions with distinct
/// search seeds (the paper's averaged-classifications protocol).
inline double mean_elapsed(const ac::Model& model, int procs,
                           const GridConfig& grid,
                           const core::ParallelConfig& pcfg = {}) {
  mp::World::Config cfg;
  cfg.num_ranks = procs;
  cfg.machine = grid.machine;
  mp::World world(cfg);
  double total = 0.0;
  for (int rep = 0; rep < grid.repeats; ++rep) {
    ac::SearchConfig config = search_for(grid);
    config.seed = grid.seed + static_cast<std::uint64_t>(rep) * 7919;
    total += core::run_parallel_search(world, model, config, pcfg)
                 .stats.virtual_time;
  }
  return total / static_cast<double>(grid.repeats);
}

/// Emit the observability output of an instrumented run: the metrics
/// report to stdout and the chrome://tracing JSON to `<name>.trace.json`
/// (path overridable with --trace-json, empty string disables the file).
/// No-op when the run kept no events (PAUTOCLASS_TRACE unset and the
/// harness did not set World::Config::instrument).
inline void emit_instrumentation(const Cli& cli, const mp::RunStats& stats,
                                 const std::string& name) {
  if (!stats.instrumented) return;
  const std::string json =
      cli.get_string("trace-json", name + ".trace.json");
  std::cout << "\n";
  core::write_reports(std::cout, stats, json);
  if (!json.empty())
    std::cout << "chrome trace (" << stats.events.size() << " events) -> "
              << json << "\n";
}

inline void print_grid_banner(const char* figure, const GridConfig& grid) {
  std::cout << "# " << figure << " — machine " << grid.machine.name
            << ", start_j_list {";
  for (std::size_t i = 0; i < grid.start_j_list.size(); ++i)
    std::cout << (i ? "," : "") << grid.start_j_list[i];
  std::cout << "}, tries " << grid.tries << ", cycles/try " << grid.cycles
            << ", repeats " << grid.repeats
            << "\n# (times are modeled multicomputer seconds; use --paper "
               "for the full-scale grid)\n";
}

}  // namespace pac::bench
