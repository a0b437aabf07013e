#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void reset_peak_rss() {
  ::malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0+).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear.good())
    throw std::runtime_error("perfbench: cannot reset VmHWM via clear_refs");
}

namespace {
// A miniature EM cycle: 16 Gaussian classes over 20 000 items, the row
// normalisation with std::exp, then the weighted moments per class.  The
// items are split over the threads, so the weight matrix is 2.4 MiB, as in
// the search workloads, whatever the thread count.  About 40 ms on the
// reference host.
constexpr std::size_t kCalibrationItems = 20000;
constexpr std::size_t kClasses = 16;
}  // namespace

Calibration::Calibration(int threads)
    : threads_(std::max(1, threads)),
      weights_(kCalibrationItems * kClasses, 0.0) {}

double Calibration::seconds() {
  const auto n = static_cast<std::size_t>(threads_);
  const std::size_t share = kCalibrationItems / n;
  const int passes = 8 * threads_;
  std::vector<double> sums(n, 0.0);
  const auto kernel = [&](std::size_t t) {
    double* w = weights_.data() + t * share * kClasses;
    std::array<double, 3 * kClasses> moments{};
    for (int pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < share; ++i) {
        const double x = -4.0 + 8.0 * static_cast<double>(i % 997) / 997.0;
        double* row = w + i * kClasses;
        double top = -INFINITY;
        for (std::size_t k = 0; k < kClasses; ++k) {
          const double r = (x - (static_cast<double>(k) - 7.5) * 0.5) * 1.25;
          row[k] = -0.5 * r * r - 0.1 * static_cast<double>(k);
          top = std::max(top, row[k]);
        }
        double total = 0.0;
        for (std::size_t k = 0; k < kClasses; ++k) {
          row[k] = std::exp(row[k] - top);
          total += row[k];
        }
        for (std::size_t k = 0; k < kClasses; ++k) row[k] /= total;
      }
      for (std::size_t k = 0; k < kClasses; ++k)
        for (std::size_t i = 0; i < share; ++i) {
          const double x = -4.0 + 8.0 * static_cast<double>(i % 997) / 997.0;
          const double wk = w[i * kClasses + k];
          moments[3 * k] += wk;
          moments[3 * k + 1] += wk * x;
          moments[3 * k + 2] += wk * x * x;
        }
    }
    for (const double m : moments) sums[t] += m;
  };
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 1; t < sums.size(); ++t) workers.emplace_back(kernel, t);
    kernel(0);
  }
  const double seconds = seconds_between(t0, Clock::now());
  for (const double s : sums)
    if (!(s > 0.0)) throw std::logic_error("perfbench: calibration kernel");
  return seconds;
}

std::string describe(const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %14.6g %s", name, value, unit);
  return buf;
}

}  // namespace perfbench
