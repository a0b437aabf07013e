// pac_perfbench: host-time benchmark of P-AutoClass search and serving.
//
//   pac_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--corrupt-reference] [--work-dir DIR]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (perfbench/README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the set its mode prints.  For a
// search, an operation is one search; for serve_mixed, one open-loop
// predict request (latency) and closed-loop rows (throughput).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"autoclass.estep_s", "s"},
    {"autoclass.estep_cells_per_s", "1/s"},
    {"autoclass.mstep_s", "s"},
    {"autoclass.approx_s", "s"},
    {"autoclass.init_s", "s"},
    {"autoclass.refit_s", "s"},
    {"autoclass.cycles", "count"},
    {"autoclass.tries", "count"},
    {"autoclass.search_control_s", "s"},
    {"autoclass.checkpoint_save_s", "s"},
    {"autoclass.checkpoint_bytes", "B"},
    {"mp.reduce_calls", "count"},
    {"mp.reduce_bytes", "B"},
    {"mp.reduce_wait_s", "s"},
    {"mp.reduce_transfer_s", "s"},
    {"mp.world_setup_s", "s"},
    {"core.rank_busy_imbalance", "ratio"},
    {"data.open_s", "s"},
    {"data.chunk_loads", "count"},
    {"data.chunk_reload_ratio", "ratio"},
    {"data.bytes_read_computed", "B"},
    {"serve.predict_batch_s", "s"},
    {"serve.rtt_overhead_s", "s"},
    {"serve.batches", "count"},
    {"serve.rows_per_batch", "count"},
    {"serve.busy_rejections", "count"},
    {"serve.fd_growth", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.reload_visible_ms", "ms"},
    {"self.mp_s", "s"},
    {"self.core_s", "s"},
    {"self.autoclass_s", "s"},
    {"self.serve_s", "s"},
    {"self.bench_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pac_perfbench: %s\nusage: pac_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt-reference] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  if (!is_search_workload(o.workload) && o.workload != "serve_mixed")
    usage(("unknown workload " + o.workload).c_str());
  return o;
}

int run(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // PAC_SIMD must not change a workload: pin the dispatch to what the CPU
  // supports, whatever the environment says.
  const pac::simd::ScopedForceLevel simd(pac::simd::detected_level());
  std::printf("context: workload=%s seed=%llu seconds=%g trace=%d%s nproc=%u "
              "simd=\"%s\" build=%s compiler=\"%s\"\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "",
              std::thread::hardware_concurrency(), pac::simd::describe(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  Result res = is_search_workload(options.workload)
                   ? run_search_workload(options)
                   : run_serve_workload(options);

  for (const std::string& line : res.notes) std::printf("%s\n", line.c_str());
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(res.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  bool correct = res.failed == 0 && res.attempted > 0;
  std::string json = "{";
  bool first = true;
  const auto emit = [&](const MetricDef& m, bool required) {
    const auto it = res.values.find(m.name);
    double v = it == res.values.end() ? 0.0 : it->second;
    if ((required && it == res.values.end()) || !std::isfinite(v)) {
      std::printf("metric %s was not measured\n", m.name);
      correct = false;
      v = 0.0;
    }
    std::printf("%s\n", describe(m.name, v, m.unit).c_str());
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (options.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, true);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, res.attempted)),
              static_cast<unsigned long long>(res.failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pac_perfbench: %s\n", e.what());
    return 1;
  }
}
