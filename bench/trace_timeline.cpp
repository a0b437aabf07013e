// Trace demo: record every instrumented span of a few base_cycles and
// print a per-rank timeline summary plus the longest recorded spans.
// With --csv FILE the raw event log is dumped for offline tools; the
// chrome://tracing JSON goes to --trace-json (default
// trace_timeline.trace.json, load it at chrome://tracing or ui.perfetto.dev).
//
// This is the observability story for the simulator: the same run that
// produces Fig. 6-8 numbers can explain *where* each rank's time went.
// The events come from the instrumentation layer (util/trace.hpp) —
// per-rank ring buffers of virtual-time spans covering every collective,
// point-to-point message, and EM sub-phase.
#include <fstream>

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);
  const bool smoke = bench::smoke_mode(cli);
  const auto items =
      static_cast<std::size_t>(cli.get_int("items", smoke ? 500 : 5000));
  const int procs = static_cast<int>(cli.get_int("procs", smoke ? 2 : 4));
  const auto j = static_cast<int>(cli.get_int("clusters", smoke ? 4 : 8));
  const auto cycles =
      static_cast<int>(cli.get_int("cycles", smoke ? 1 : 2));
  const net::Machine machine =
      net::machine_by_name(cli.get_string("machine", "meiko-cs2"));

  const data::LabeledDataset ld = data::paper_dataset(items, 42);
  const ac::Model model = ac::Model::default_model(ld.dataset);

  mp::World::Config cfg;
  cfg.num_ranks = procs;
  cfg.machine = machine;
  cfg.instrument = true;  // this binary *is* the tracing demo
  mp::World world(cfg);
  const auto m = core::measure_base_cycle(world, model, j, cycles, 42);

  std::cout << "# Trace of " << cycles << " base_cycles, " << items
            << " tuples, J=" << j << ", " << procs << " ranks on "
            << machine.name << "\n";

  std::cout << "# " << m.stats.events.size() << " events, virtual time "
            << format_fixed(m.stats.virtual_time, 4) << " s\n\n";

  // Per-rank summary.
  Table per_rank("Per-rank span profile");
  per_rank.set_header({"rank", "events", "comm [ms]", "idle [ms]",
                       "finish [s]"});
  std::vector<std::size_t> event_count(static_cast<std::size_t>(procs), 0);
  for (const trace::Event& e : m.stats.events)
    ++event_count[static_cast<std::size_t>(e.rank)];
  for (int r = 0; r < procs; ++r) {
    per_rank.add_row(
        {std::to_string(r),
         std::to_string(event_count[static_cast<std::size_t>(r)]),
         format_fixed(1e3 * m.stats.rank_comm[r], 2),
         format_fixed(1e3 * m.stats.rank_idle[r], 2),
         format_fixed(m.stats.rank_finish[r], 4)});
  }
  per_rank.print(std::cout);

  // The most expensive recorded spans.
  std::vector<trace::Event> events = m.stats.events;
  std::sort(events.begin(), events.end(),
            [](const trace::Event& a, const trace::Event& b) {
              return (a.end - a.start) > (b.end - b.start);
            });
  std::cout << "\n";
  Table top("Longest recorded spans");
  top.set_header({"rank", "category", "name", "start [ms]", "dur [us]"});
  for (std::size_t i = 0; i < events.size() && i < 8; ++i) {
    const trace::Event& e = events[i];
    top.add_row({std::to_string(e.rank), e.category, e.name,
                 format_fixed(1e3 * e.start, 3),
                 format_fixed(1e6 * (e.end - e.start), 1)});
  }
  top.print(std::cout);

  const std::string csv_path = cli.get_string("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    PAC_REQUIRE_MSG(out.good(), "cannot write '" << csv_path << "'");
    trace::write_events_csv(out, m.stats.events);
    std::cout << "\nraw events -> " << csv_path << "\n";
  }

  bench::emit_instrumentation(cli, m.stats, "trace_timeline");
  return 0;
}
