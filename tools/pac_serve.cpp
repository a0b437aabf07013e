// pac_serve — long-lived classification server.
//
// Loads a trained classification checkpoint (either a bare
// pac-classification or a pac-search-result, in which case the best entry
// serves), binds it to the training dataset's model, and answers
// predict / membership / info / top-influence queries from concurrent
// pac_client connections.  Predicts that queue while a batch runs are
// served together as the next batch (at most --max-batch rows); a request
// that reaches an idle server runs at once, with no batching delay.  With
// --watch it polls the checkpoint file and hot-swaps the model when a
// retrain lands, without dropping in-flight requests.
//
//   pac_serve --header d.hd2 --data d.db2 --checkpoint best.ckpt
//             [--listen 127.0.0.1:0] [--watch] [--max-batch 256]
//             [--max-queue-rows 16384] [--watch-interval 0.25]
//             [--address-out FILE]
//
// The concrete bound address (useful with an ephemeral port) is printed on
// stdout and, with --address-out, written to a file for scripts to pick up.
// An unknown flag prints the usage and exits with code 2.
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autoclass/checkpoint.hpp"
#include "data/io.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: pac_serve --header FILE.hd2 --data FILE.db2\n"
    "                 (or --data FILE.pacb / FILE.csv)\n"
    "                 --checkpoint FILE [--listen HOST:PORT]\n"
    "                 [--watch] [--watch-interval SECONDS]\n"
    "                 [--max-batch ROWS] [--max-queue-rows ROWS]\n"
    "                 [--address-out FILE]\n";

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

bool has_suffix(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() > suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);
  const std::vector<std::string> unknown = cli.unknown_flags(
      {"header", "data", "checkpoint", "listen", "watch", "watch-interval",
       "max-batch", "max-queue-rows", "address-out"});
  if (!unknown.empty()) {
    std::cerr << "pac_serve: unknown flag --" << unknown.front() << "\n"
              << kUsage;
    return 2;
  }

  const std::string header_path = cli.get_string("header", "");
  const std::string data_path = cli.get_string("data", "");
  const std::string checkpoint_path = cli.get_string("checkpoint", "");
  if (data_path.empty() || checkpoint_path.empty() ||
      (header_path.empty() && !has_suffix(data_path, ".pacb") &&
       !has_suffix(data_path, ".csv"))) {
    std::cerr << kUsage;
    return 2;
  }

  try {
    const data::Dataset dataset = [&] {
      data::OpenOptions options;
      options.header_path = header_path;
      return data::open_dataset(data_path, options);
    }();
    const ac::Model model = ac::Model::default_model(dataset);

    // Initial load: same magic sniff the watcher uses.
    std::ifstream in(checkpoint_path);
    PAC_REQUIRE_MSG(in.good(),
                    "cannot open checkpoint '" << checkpoint_path << "'");
    std::string first;
    in >> first;
    in.clear();
    in.seekg(0);
    std::optional<ac::Classification> initial;
    if (first == "pac-search-result") {
      ac::SearchResult sr = ac::load_search_result(in, model);
      PAC_REQUIRE_MSG(!sr.best.empty(),
                      "checkpoint '" << checkpoint_path
                                     << "' has an empty leaderboard");
      initial.emplace(std::move(sr.best.front().classification));
    } else {
      initial.emplace(ac::load_classification(in, model));
    }

    serve::ServerOptions opts;
    opts.address = cli.get_string("listen", "127.0.0.1:0");
    opts.max_batch_rows =
        static_cast<std::size_t>(cli.get_int("max-batch", 256));
    opts.max_queue_rows =
        static_cast<std::size_t>(cli.get_int("max-queue-rows", 16384));
    if (cli.get_bool("watch", false)) {
      opts.watch_path = checkpoint_path;
      opts.watch_interval_s = cli.get_double("watch-interval", 0.25);
    }

    serve::Server server(model, std::move(*initial), opts);
    server.start();

    std::cout << "pac_serve: " << dataset.num_items() << " training tuples, "
              << server.generation() << " generation(s), listening on "
              << server.bound_address() << "\n";
    std::cout.flush();
    const std::string address_out = cli.get_string("address-out", "");
    if (!address_out.empty()) {
      std::ofstream out(address_out);
      out << server.bound_address() << "\n";
    }

    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.stop();
    metrics::write_report(std::cout, server.metrics(), "pac_serve");
    std::cout << "final generation " << server.generation()
              << ", reload failures " << server.reload_failures()
              << ", busy rejections " << server.busy_rejections() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pac_serve: " << e.what() << "\n";
    return 1;
  }
}
