// Shared pieces of the perfbench program: options, timing, sample
// statistics, and the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases, for the benchmark's own smoke tests.
  bool smoke = false;
  /// Gate self-test: flip one byte of the correctness reference, so every
  /// operation must fail the gate.
  bool corrupt_reference = false;
  /// Directory (inside the checkout) for prepared inputs and span files.
  std::string work_dir = ".bench_build/work";
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Measured values by metric name; main.cpp picks the end-to-end set
  /// (untraced) or the per-layer set (traced) from them.
  std::map<std::string, double> values;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  /// Count one operation; a failed one is also explained in the notes
  /// (only the first few, so a broken build cannot flood the output).
  void record(bool ok, const std::string& why = "") {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) notes.push_back("FAILED: " + why);
  }
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process in MiB since the last
/// reset_peak_rss().
double peak_rss_mb();

/// Return freed heap to the system and restart the peak-RSS high-water
/// mark at the current resident set, so the prep before it is not counted.
void reset_peak_rss();

/// A fixed, benchmark-owned compute kernel shaped like an EM cycle (see
/// common.cpp).  Timed next to each operation, it tracks how fast the
/// shared host runs at that moment.  The program under test never runs it,
/// so a change to the program cannot move it.  The buffer lives as long as
/// the object, so create it before reset_peak_rss(): peak_rss_mb then
/// carries it as a constant 2.4 MiB.
class Calibration {
 public:
  /// The kernel's items are split over `threads` threads.
  explicit Calibration(int threads);
  /// Wall seconds of one run of the kernel.
  double seconds();

 private:
  int threads_;
  std::vector<double> weights_;
};

/// "name value unit" for human-readable output.
std::string describe(const char* name, double value, const char* unit);

/// The workloads (search.cpp, serve.cpp).
bool is_search_workload(const std::string& name);
Result run_search_workload(const Options& options);
Result run_serve_workload(const Options& options);

}  // namespace perfbench
