// pac_client — query CLI for a running pac_serve.
//
//   pac_client --connect HOST:PORT --info
//   pac_client --connect HOST:PORT --predict rows.db2 --header d.hd2
//              [--membership] [--labels-out FILE]
//   pac_client --connect HOST:PORT --top-influence 10
//   pac_client --connect HOST:PORT --stats
//   pac_client --connect HOST:PORT --reload
//   pac_client --connect HOST:PORT --bench-predict rows.db2 --header d.hd2
//              --repeat 100       # sustained-load driver for scripts
//
// Rows for --predict come from the same .hd2/.db2 (or .pacb/.csv) formats
// the training tools use; the schema must match the server's.  --timeout
// bounds the connect retries (seconds, default 10).  An unknown flag
// prints the usage and exits with code 2.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "data/io.hpp"
#include "serve/client.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kUsage =
    "usage: pac_client --connect HOST:PORT [--timeout SECONDS]\n"
    "         --info | --stats | --reload\n"
    "       | --top-influence K\n"
    "       | --predict ROWS.db2 --header H.hd2 [--membership]\n"
    "         [--labels-out FILE]\n"
    "       | --bench-predict ROWS.db2 --header H.hd2\n"
    "         [--repeat N] [--membership]\n";

pac::data::Dataset load_rows(const pac::Cli& cli, const std::string& path) {
  using namespace pac;
  data::OpenOptions options;
  options.header_path = cli.get_string("header", "");
  return data::open_dataset(path, options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pac;
  const Cli cli(argc, argv);
  const std::vector<std::string> unknown = cli.unknown_flags(
      {"connect", "timeout", "info", "stats", "reload", "top-influence",
       "predict", "bench-predict", "header", "membership", "labels-out",
       "repeat"});
  if (!unknown.empty()) {
    std::cerr << "pac_client: unknown flag --" << unknown.front() << "\n"
              << kUsage;
    return 2;
  }

  const std::string address = cli.get_string("connect", "");
  if (address.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  try {
    serve::Client client(address, cli.get_double("timeout", 10.0));

    if (cli.has("info")) {
      const serve::InfoResponse info = client.info();
      std::cout << "generation " << info.generation << "\n"
                << "classes " << info.num_classes << "\n"
                << "log_likelihood " << info.log_likelihood << "\n"
                << "cs_score " << info.cs_score << "\n"
                << "bic_score " << info.bic_score << "\n";
      for (const serve::AttributeInfo& a : info.attributes) {
        std::cout << (a.discrete ? "discrete " : "real ") << a.name;
        if (a.discrete) std::cout << " range " << a.num_values;
        std::cout << "\n";
      }
      return 0;
    }

    if (cli.has("stats")) {
      std::cout << client.stats_text();
      return 0;
    }

    if (cli.has("reload")) {
      const serve::ReloadResponse r = client.reload();
      std::cout << (r.reloaded ? "reloaded" : "not reloaded")
                << ", generation " << r.generation << ": " << r.message
                << "\n";
      return r.reloaded ? 0 : 1;
    }

    if (cli.has("top-influence")) {
      const auto k =
          static_cast<std::uint32_t>(cli.get_int("top-influence", 10));
      const serve::TopInfluenceResponse r = client.top_influence(k);
      std::cout << "generation " << r.generation << "\n";
      for (const serve::InfluenceEntryWire& e : r.entries)
        std::cout << "class " << e.class_index << "  " << e.description
                  << "  influence " << e.influence << "\n";
      return 0;
    }

    if (cli.has("predict") || cli.has("bench-predict")) {
      const bool bench = cli.has("bench-predict");
      const std::string rows_path =
          cli.get_string(bench ? "bench-predict" : "predict", "");
      const data::Dataset rows = load_rows(cli, rows_path);
      const bool membership = cli.get_bool("membership", false);
      const int repeat = bench ? static_cast<int>(cli.get_int("repeat", 100))
                               : 1;
      serve::PredictResponse resp;
      for (int i = 0; i < repeat; ++i)
        resp = client.predict(rows, membership);
      if (bench) {
        std::cout << "ok " << repeat << " requests x " << rows.num_items()
                  << " rows, final generation " << resp.generation << "\n";
        return 0;
      }
      std::cout << "generation " << resp.generation << "\n";
      const std::string labels_path = cli.get_string("labels-out", "");
      std::ofstream labels_file;
      std::ostream* out = &std::cout;
      if (!labels_path.empty()) {
        labels_file.open(labels_path);
        PAC_REQUIRE_MSG(labels_file.good(),
                        "cannot write '" << labels_path << "'");
        out = &labels_file;
      }
      for (std::size_t i = 0; i < resp.labels.size(); ++i) {
        *out << resp.labels[i];
        if (membership)
          for (std::uint32_t j = 0; j < resp.num_classes; ++j)
            *out << " " << resp.membership[i * resp.num_classes + j];
        *out << "\n";
      }
      return 0;
    }

    std::cerr << "pac_client: no command given (--info / --predict / "
                 "--top-influence / --stats / --reload)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pac_client: " << e.what() << "\n";
    return 1;
  }
}
