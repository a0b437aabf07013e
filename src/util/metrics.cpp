#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <ostream>

#include "util/error.hpp"

namespace pac::metrics {

namespace {

int bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;
  const int exponent = static_cast<int>(std::floor(std::log2(v)));
  const int index = exponent - Histogram::kBucketExponentOffset;
  return std::clamp(index, 0, Histogram::kBuckets - 1);
}

// Blob: u64 words, doubles by bit pattern.  A magic word, then the counters
// and the histograms, each as a record count and records in name order.  A
// record is the name (a length word and the bytes) and the value: one word
// for a counter; count, sum, min, max and the buckets for a histogram.
constexpr std::uint64_t kBlobMagic = 0x31525445'4d434150;  // "PACMETR1"
constexpr std::size_t kCounterWords = 2;
constexpr std::size_t kHistogramWords = 5 + Histogram::kBuckets;

void put(std::string& out, std::uint64_t word) {
  out.append(reinterpret_cast<const char*>(&word), sizeof word);
}

}  // namespace

double Histogram::bucket_upper_bound(int i) noexcept {
  return std::ldexp(1.0, i + kBucketExponentOffset + 1);
}

void Histogram::observe(double v) noexcept {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
}

double Histogram::quantile(double q) const noexcept {
  // No samples -> no quantile.  NaN (not 0.0) so consumers cannot mistake
  // "never measured" for "measured instantaneous" — serve stats and
  // bench_diff both render/skip it explicitly.
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank with interpolation).
  const double target = q * static_cast<double>(count_);
  std::uint64_t below = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(below + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : bucket_upper_bound(i - 1);
      const double hi = bucket_upper_bound(i);
      const double within =
          (target - static_cast<double>(below)) /
          static_cast<double>(in_bucket);
      const double v = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
      return std::clamp(v, min_, max_);
    }
    below += in_bucket;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

std::uint64_t Registry::counter_value(std::string_view name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

const Histogram* Registry::find_histogram(
    std::string_view name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

double Registry::histogram_sum(std::string_view name) const noexcept {
  const Histogram* h = find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value);
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(h);
}

std::string encode(const Registry& registry) {
  std::string out;
  put(out, kBlobMagic);
  put(out, registry.counters().size());
  for (const auto& [name, c] : registry.counters()) {
    put(out, name.size());
    out += name;
    put(out, c.value);
  }
  put(out, registry.histograms().size());
  for (const auto& [name, h] : registry.histograms()) {
    put(out, name.size());
    out += name;
    put(out, h.count());
    for (const double v : {h.sum(), h.min(), h.max()})
      put(out, std::bit_cast<std::uint64_t>(v));
    for (int i = 0; i < Histogram::kBuckets; ++i) put(out, h.bucket(i));
  }
  return out;
}

Registry decode(std::string_view bytes) {
  // Every read is bounded by the bytes left.
  const auto word = [&bytes] {
    PAC_REQUIRE_MSG(bytes.size() >= 8, "metrics blob truncated");
    std::uint64_t w;
    std::memcpy(&w, bytes.data(), 8);
    bytes.remove_prefix(8);
    return w;
  };
  const auto name = [&] {
    const std::uint64_t n = word();
    PAC_REQUIRE_MSG(n <= bytes.size(), "metrics blob truncated");
    const std::string_view s = bytes.substr(0, n);
    bytes.remove_prefix(n);
    return s;
  };
  const auto records = [&](std::size_t min_words) {
    const std::uint64_t n = word();
    PAC_REQUIRE_MSG(n <= bytes.size() / (8 * min_words),
                    "metrics blob declares " << n << " records in "
                                             << bytes.size() << " bytes");
    return n;
  };
  PAC_REQUIRE_MSG(word() == kBlobMagic, "not a metrics blob");
  Registry registry;
  for (std::uint64_t n = records(kCounterWords); n > 0; --n) {
    Counter& c = registry.counter(name());
    c.value = word();
  }
  for (std::uint64_t n = records(kHistogramWords); n > 0; --n) {
    Histogram& h = registry.histogram(name());
    h.count_ = word();
    h.sum_ = std::bit_cast<double>(word());
    h.min_ = std::bit_cast<double>(word());
    h.max_ = std::bit_cast<double>(word());
    std::uint64_t in_buckets = 0;
    for (std::uint64_t& b : h.buckets_) {
      b = word();
      PAC_REQUIRE_MSG(b <= h.count_ - in_buckets,
                      "metrics blob histogram buckets exceed its count");
      in_buckets += b;
    }
    PAC_REQUIRE_MSG(in_buckets == h.count_,
                    "metrics blob histogram buckets miss its count");
  }
  PAC_REQUIRE_MSG(bytes.empty(), "metrics blob has trailing bytes");
  return registry;
}

void write_report(std::ostream& os, const Registry& registry,
                  std::string_view title) {
  os << "== metrics report: " << title << " ==\n";
  if (registry.empty()) {
    os << "(no metrics recorded)\n";
    return;
  }
  // Zero-valued entries are pre-registered handles that never fired (e.g.
  // collectives the run did not use); keep the report to what happened.
  if (!registry.counters().empty()) {
    os << "-- counters --\n";
    for (const auto& [name, c] : registry.counters()) {
      if (c.value == 0) continue;
      os << "  " << std::left << std::setw(40) << name << std::right
         << std::setw(16) << c.value << "\n";
    }
  }
  if (!registry.histograms().empty()) {
    os << "-- histograms --\n  " << std::left << std::setw(40) << "name"
       << std::right << std::setw(10) << "count" << std::setw(14) << "sum"
       << std::setw(14) << "mean" << std::setw(14) << "min" << std::setw(14)
       << "max" << "\n";
    const auto old_precision = os.precision(6);
    for (const auto& [name, h] : registry.histograms()) {
      if (h.count() == 0) continue;
      os << "  " << std::left << std::setw(40) << name << std::right
         << std::setw(10) << h.count() << std::setw(14) << h.sum()
         << std::setw(14) << h.mean() << std::setw(14) << h.min()
         << std::setw(14) << h.max() << "\n";
    }
    os.precision(old_precision);
  }
}

}  // namespace pac::metrics
