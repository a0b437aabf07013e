// Communication breakdown: where the modeled time goes as processors grow.
//
// Supports the discussion around the paper's Fig. 7 ("the processors are
// not effectively used and the communication costs increase"): per
// processor count, the split of the slowest rank's virtual time into
// compute / network / idle, plus the Allreduce traffic that P-AutoClass
// generates per EM cycle.
//
// The traffic columns come from the *measured* per-collective counters
// (mp.allreduce.calls / .bytes / .wait_seconds) that every rank's registry
// records inside the Comm itself, not from a hand-derived formula.  The
// harness also switches the event ring on, so it ends with the metrics
// report and chrome trace of the largest processor count.
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);
  const bool smoke = bench::smoke_mode(cli);
  const auto items =
      static_cast<std::size_t>(cli.get_int("items", smoke ? 300 : 5000));
  const auto procs = cli.get_int_list(
      "procs", smoke ? std::vector<std::int64_t>{1, 2, 4}
                     : std::vector<std::int64_t>{1, 2, 4, 8, 10});
  const auto j = static_cast<int>(cli.get_int("clusters", smoke ? 4 : 16));
  const auto cycles =
      static_cast<int>(cli.get_int("cycles", smoke ? 2 : 10));
  const net::Machine machine =
      net::machine_by_name(cli.get_string("machine", "meiko-cs2"));

  const data::LabeledDataset ld = data::paper_dataset(items, 42);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  std::cout << "# Communication breakdown — " << items << " tuples, J=" << j
            << ", " << cycles << " base_cycles on " << machine.name << "\n";
  Table table("Virtual-time split of the slowest rank");
  table.set_header({"procs", "total [s]", "compute", "network", "idle",
                    "allreduces", "allreduce B/cycle", "mean wait [us]"});

  mp::RunStats last_stats;
  for (const auto p : procs) {
    mp::World::Config cfg;
    cfg.num_ranks = static_cast<int>(p);
    cfg.machine = machine;
    // Keep events too: the report below ends with the chrome trace.
    cfg.instrument = true;
    mp::World world(cfg);
    const auto m = core::measure_base_cycle(world, model, j, cycles, 42);
    const auto& stats = m.stats;
    // Slowest rank = the one whose clock defines virtual_time.
    std::size_t slow = 0;
    for (std::size_t r = 1; r < stats.rank_finish.size(); ++r)
      if (stats.rank_finish[r] > stats.rank_finish[slow]) slow = r;
    const double total = stats.rank_finish[slow];
    const auto pct = [&](double v) {
      return format_fixed(total > 0 ? 100.0 * v / total : 0.0, 1) + "%";
    };

    // Merged counters sum over ranks; divide by p for the per-rank view.
    const double per_rank_allreduces =
        static_cast<double>(
            stats.metrics.counter_value("mp.allreduce.calls")) /
        static_cast<double>(p);
    const double bytes_per_cycle =
        static_cast<double>(
            stats.metrics.counter_value("mp.allreduce.bytes")) /
        static_cast<double>(p) / static_cast<double>(cycles);
    double mean_wait_us = 0.0;
    if (const metrics::Histogram* h =
            stats.metrics.find_histogram("mp.allreduce.wait_seconds");
        h != nullptr && h->count() > 0)
      mean_wait_us = 1e6 * h->mean();
    table.add_row(
        {std::to_string(p), format_fixed(total, 3),
         pct(stats.rank_compute[slow]), pct(stats.rank_comm[slow]),
         pct(stats.rank_idle[slow]),
         format_fixed(per_rank_allreduces / cycles, 1) + "/cycle",
         format_fixed(bytes_per_cycle, 0), format_fixed(mean_wait_us, 2)});
    if (p == procs.back()) last_stats = m.stats;
  }
  table.print(std::cout);

  // Full metrics report + chrome trace for the largest processor count.
  bench::emit_instrumentation(cli, last_stats, "comm_breakdown");
  return 0;
}
