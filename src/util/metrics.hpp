// Monotonic counters and streaming histograms for the instrumented runtime.
//
// A Registry is a named collection of Counters and Histograms owned by ONE
// rank (thread): recording never takes a lock.  Every mp::World rank keeps
// one as its only counter store, and mp::RunStats is derived from them after
// the SPMD ranks have joined, via Registry::merge_from — the same pattern
// the paper's per-processor timers would use (gather at the end of the run,
// never during it); ranks in other processes ship theirs through encode.
// Counters and histograms are returned by stable reference, so hot paths
// can resolve a handle once and record through the pointer.
//
// Everything here is deterministic: names are ordered (std::map), merges
// fold in call order, and no wall-clock source is involved — callers feed
// the values (virtual seconds, byte counts) themselves.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace pac::metrics {

class Registry;

/// A monotonically increasing count (calls, bytes, cycles, ...).
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t delta = 1) noexcept { value += delta; }
};

/// Streaming summary of a sample stream: count / sum / min / max plus
/// power-of-two magnitude buckets (for latency distributions).  Values are
/// whatever unit the caller uses consistently — seconds for phase timers,
/// bytes for message sizes.
class Histogram {
 public:
  /// Buckets cover [2^-26, 2^13) seconds (~15 ns .. ~2.3 h) when samples
  /// are seconds; out-of-range samples clamp to the end buckets.
  static constexpr int kBuckets = 40;
  static constexpr int kBucketExponentOffset = -26;

  void observe(double v) noexcept;
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Inclusive upper bound of bucket i (2^(i + offset + 1)).
  static double bucket_upper_bound(int i) noexcept;

  /// Approximate q-quantile (q in [0, 1]) with linear interpolation inside
  /// the bucket holding the target rank, clamped to the observed [min, max]
  /// so coarse buckets never report a value outside the sample range.
  /// Returns NaN for an empty histogram (no samples -> no quantile).  The
  /// pac_serve latency reports (p50, p99) come from here.
  double quantile(double q) const noexcept;

 private:
  friend Registry decode(std::string_view bytes);

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Named counters + histograms of one rank (or the merged run).
class Registry {
 public:
  /// Find-or-create; the returned reference is stable for the Registry's
  /// lifetime (map nodes never move).
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of a counter, 0 when absent.
  std::uint64_t counter_value(std::string_view name) const noexcept;
  /// Histogram lookup; nullptr when absent.
  const Histogram* find_histogram(std::string_view name) const noexcept;
  /// Sum of a histogram, 0 when absent.
  double histogram_sum(std::string_view name) const noexcept;

  /// Fold another rank's registry into this one (counters add, histograms
  /// merge).  Used once per rank at finalize.
  void merge_from(const Registry& other);

  bool empty() const noexcept {
    return counters_.empty() && histograms_.empty();
  }

  const std::map<std::string, Counter, std::less<>>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms()
      const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Binary form of a Registry for another process (World finalize on the
/// socket and hybrid backends), in native byte order like every transport
/// frame; decode(encode(r)) equals r, zero-valued entries included.
std::string encode(const Registry& registry);

/// Inverse of encode.  Every count and length is bounded by the bytes left
/// before allocating; malformed, truncated or over-long input throws
/// pac::Error.
Registry decode(std::string_view bytes);

/// Plain-text report: every counter, then every histogram with its summary
/// statistics.  Deterministic (alphabetical) ordering.
void write_report(std::ostream& os, const Registry& registry,
                  std::string_view title);

}  // namespace pac::metrics
