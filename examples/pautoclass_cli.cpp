// pautoclass_cli — the AutoClass-style command-line front end: read a
// header (.hd2-style) and data (.db2-style) file, search for the best
// classification, and write reports.  With --generate it first emits a
// demo dataset so the tool is runnable out of the box.
//
//   # self-contained demo: generate files, cluster them, print the report
//   ./pautoclass_cli --generate /tmp/demo --items 2000
//
//   # cluster your own files
//   ./pautoclass_cli --header my.hd2 --data my.db2 --procs 8
//                    --jlist 2,4,8 --tries 5 --labels-out labels.txt
#include <fstream>
#include <iostream>

#include "autoclass/checkpoint.hpp"
#include "autoclass/report.hpp"
#include "core/pautoclass.hpp"
#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "mp/transport/env.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);

  // Under pac_launch this process is one rank of a multi-process world:
  // gate stdout and file side effects to rank 0 so the run behaves like a
  // single program.
  const bool launched = mp::transport::pacnet_launched();
  const bool primary = mp::transport::is_primary();
  std::ofstream devnull;
  if (!primary) {
    devnull.open("/dev/null");
    std::cout.rdbuf(devnull.rdbuf());
  }

  std::string header_path = cli.get_string("header", "");
  std::string data_path = cli.get_string("data", "");

  if (cli.has("generate") && launched) {
    // Every rank reads the dataset, so generating inside a distributed run
    // would race all ranks writing the same files.  Generate first, then
    // launch: pac_launch -n 4 pautoclass_cli --data PREFIX.db2 ...
    std::cerr << "pautoclass_cli: --generate cannot run under pac_launch; "
                 "generate the dataset in a plain run first\n";
    return 2;
  }
  if (cli.has("generate")) {
    // Emit a demo dataset next to the given prefix (--binary: one .pacb
    // file instead of the .hd2/.db2 ASCII pair).
    const std::string prefix = cli.get_string("generate", "/tmp/pac_demo");
    const auto items = static_cast<std::size_t>(cli.get_int("items", 2000));
    const data::LabeledDataset demo = data::paper_dataset(items, 42);
    if (cli.get_bool("binary", false)) {
      data_path = prefix + ".pacb";
      data::format::write_pacb_file(data_path, demo.dataset);
      std::cout << "generated " << items << " tuples -> " << data_path
                << "\n";
    } else {
      header_path = prefix + ".hd2";
      data_path = prefix + ".db2";
      data::write_header_file(header_path, demo.dataset.schema());
      data::write_data_file(data_path, demo.dataset);
      std::cout << "generated " << items << " tuples -> " << header_path
                << ", " << data_path << "\n";
    }
  }

  const auto has_suffix = [&](const char* suffix) {
    const std::string s(suffix);
    return data_path.size() > s.size() &&
           data_path.compare(data_path.size() - s.size(), s.size(), s) == 0;
  };
  const bool have_binary = has_suffix(".pacb");
  const bool have_csv = has_suffix(".csv");
  if (data_path.empty() ||
      (header_path.empty() && !have_binary && !have_csv)) {
    std::cerr << "usage: pautoclass_cli --header FILE.hd2 --data FILE.db2\n"
                 "       (or --data FILE.pacb / FILE.csv, self-contained)\n"
                 "       [--procs N] [--machine meiko-cs2] [--jlist 2,4,8]\n"
                 "       [--tries 5] [--max-cycles 100] [--seed 1234]\n"
                 "       [--data-budget-mb N]  # stream a .pacb out of core\n"
                 "       [--try-groups G]      # try-parallel: G sub-worlds\n"
                 "       [--labels-out FILE] [--report-out FILE]\n"
                 "       [--checkpoint FILE]   # save/resume search state\n"
                 "   or: pautoclass_cli --generate PREFIX [--items N]\n";
    return 2;
  }

  // 1. Load through the unified entry point: open_dataset sniffs .pacb /
  //    .csv / ASCII and switches to the chunk-backed out-of-core backend
  //    when a budget is configured (--data-budget-mb or PAC_DATA_BUDGET_MB).
  const data::Dataset dataset = [&] {
    data::OpenOptions options;
    options.header_path = header_path;
    options.budget_mb =
        static_cast<std::size_t>(cli.get_int("data-budget-mb", 0));
    return data::open_dataset(data_path, options);
  }();
  if (!dataset.resident())
    std::cout << "out-of-core: streaming " << data_path
              << " under the chunk-cache budget\n";
  const data::Schema& schema = dataset.schema();
  std::cout << "loaded " << dataset.num_items() << " tuples x "
            << dataset.num_attributes() << " attributes ("
            << schema.num_real() << " real, " << schema.num_discrete()
            << " discrete)\n";
  PAC_REQUIRE_MSG(dataset.num_items() > 0, "dataset is empty");

  // 2. Configure the search.
  const ac::Model model = ac::Model::default_model(dataset);
  ac::SearchConfig search;
  search.start_j_list.clear();
  for (const auto j : cli.get_int_list("jlist", {2, 4, 8}))
    search.start_j_list.push_back(static_cast<int>(j));
  search.max_tries = static_cast<int>(cli.get_int("tries", 5));
  search.em.max_cycles = static_cast<int>(cli.get_int("max-cycles", 100));
  search.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1234));

  // 3. Run (parallel if requested), resuming from a checkpoint if present.
  // pac_launch's environment switches the world to the socket backend and
  // overrides --procs with the real world size.
  int procs = static_cast<int>(cli.get_int("procs", 1));
  mp::World::Config cfg;
  cfg.num_ranks = procs;
  cfg.machine = net::machine_by_name(
      cli.get_string("machine", "meiko-cs2"));
  if (mp::transport::apply_env_backend(cfg)) procs = cfg.num_ranks;
  mp::World world(cfg);

  const std::string checkpoint_path = cli.get_string("checkpoint", "");
  ac::SearchResult resume_state;
  const ac::SearchResult* resume = nullptr;
  if (!checkpoint_path.empty()) {
    std::ifstream probe(checkpoint_path);
    if (probe.good()) {
      resume_state = ac::load_search_result(probe, model);
      resume = &resume_state;
      std::cout << "resuming from " << checkpoint_path << " ("
                << resume_state.tries << " tries already done)\n";
    }
  }
  core::ParallelConfig parallel;
  parallel.try_groups = static_cast<int>(cli.get_int("try-groups", 0));
  if (parallel.try_groups > 0)
    std::cout << "try-parallel search: " << parallel.try_groups
              << " sub-world(s) of " << procs / parallel.try_groups
              << " rank(s)\n";
  const core::ParallelOutcome outcome =
      core::run_parallel_search(world, model, search, parallel, resume);
  const ac::SearchResult& result = outcome.search;
  if (!checkpoint_path.empty() && primary) {
    ac::save_search_result_file(checkpoint_path, result);
    std::cout << "search state -> " << checkpoint_path << "\n";
  }

  // 4. Report.
  std::cout << "\nsearch: " << result.tries << " tries, "
            << result.duplicates << " duplicates eliminated, "
            << result.total_cycles << " EM cycles total\n";
  std::cout << (launched ? "measured time on " : "modeled time on ") << procs
            << (launched ? " processes" : "x ")
            << (launched ? std::string() : cfg.machine.name)
            << ": " << format_hms(outcome.stats.virtual_time)
            << "  (host wall: " << format_fixed(outcome.stats.wall_seconds, 2)
            << " s)\n\n";
  Table leaderboard("Best classifications");
  leaderboard.set_header({"rank", "classes", "CS score", "log L", "cycles"});
  for (std::size_t b = 0; b < result.best.size(); ++b) {
    const ac::Classification& c = result.best[b].classification;
    leaderboard.add_row({std::to_string(b + 1),
                         std::to_string(c.num_classes()),
                         format_fixed(c.cs_score, 1),
                         format_fixed(c.log_likelihood, 1),
                         std::to_string(c.cycles)});
  }
  leaderboard.print(std::cout);
  std::cout << "\n";

  const std::string report_path = cli.get_string("report-out", "");
  if (!report_path.empty() && primary) {
    std::ofstream out(report_path);
    PAC_REQUIRE_MSG(out.good(), "cannot write '" << report_path << "'");
    ac::print_report(out, result.top());
    std::cout << "full report -> " << report_path << "\n";
  } else if (report_path.empty()) {
    ac::print_report(std::cout, result.top());
  }

  // 5. Hard assignments.
  const std::string labels_path = cli.get_string("labels-out", "");
  if (!labels_path.empty() && primary) {
    const auto labels = ac::assign_labels(result.top());
    std::ofstream out(labels_path);
    PAC_REQUIRE_MSG(out.good(), "cannot write '" << labels_path << "'");
    for (const auto l : labels) out << l << "\n";
    std::cout << "labels -> " << labels_path << "\n";
  }
  return 0;
}
