// The tracing half of the instrumented runtime: per-rank event ring buffers,
// scoped phase timers, and the chrome://tracing exporter.
//
// Design rules (see DESIGN.md §6):
//
//   * Deterministic.  Timestamps are *virtual* seconds supplied by the
//     caller (the rank's modeled clock), never wall time, so two runs of
//     the same experiment produce byte-identical traces — the property the
//     ranks-as-threads engine guarantees for every other output.
//   * Per-rank ownership.  A Recorder belongs to one rank's thread; events
//     and metrics are recorded lock-free and merged only after the ranks
//     join (mp::World::run finalize).
//   * Metrics always, events on request.  Every rank of every mp::World has
//     a Recorder, and its metrics Registry is the rank's only counter store:
//     RunStats is derived from it.  The event ring is the opt-in part:
//     World::Config::instrument (default: the PAUTOCLASS_TRACE environment
//     toggle) sizes it, and with it off no ring is allocated and recording
//     a span costs one branch.  Code running outside a World (a null
//     Recorder) records nothing.
//
// Event names/categories are static strings ("em"/"update_wts",
// "mp"/"allreduce", ...) so recording never allocates for the event itself.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "util/metrics.hpp"

namespace pac::trace {

/// The PAUTOCLASS_TRACE environment toggle (unset/0/false/off/no = off),
/// read once and cached.
bool env_enabled();

/// One completed span on a rank's virtual timeline.
struct Event {
  const char* category = "";  // "mp", "em", "search"
  const char* name = "";      // "allreduce", "update_wts", ...
  int rank = 0;
  double start = 0.0;  // virtual seconds
  double end = 0.0;
};

/// Fixed-capacity ring of Events: the newest events win, the number dropped
/// is reported so a truncated trace is never mistaken for a complete one.
/// Capacity 0 is the switched-off ring: it allocates nothing and keeps no
/// events.
class EventRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit EventRing(std::size_t capacity = kDefaultCapacity);

  bool enabled() const noexcept { return capacity_ > 0; }
  void record(const Event& e);
  /// Total events ever recorded (>= size()).
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring overflow (oldest first).
  std::uint64_t dropped() const noexcept {
    return recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
  }
  std::size_t size() const noexcept;
  /// Retained events, oldest to newest.
  std::vector<Event> snapshot() const;

 private:
  std::vector<Event> ring_;
  std::uint64_t capacity_ = 0;
  std::uint64_t recorded_ = 0;
};

/// Per-rank instrumentation sink: a metrics Registry plus an event ring and
/// the rank's virtual-clock source.  Owned by exactly one rank thread.
/// `ring_capacity` 0 keeps metrics only (record_span is a no-op).
class Recorder {
 public:
  explicit Recorder(int rank,
                    std::size_t ring_capacity = EventRing::kDefaultCapacity);

  int rank() const noexcept { return rank_; }

  /// Install the virtual-clock source (e.g. the rank's Comm clock).  Spans
  /// opened before a clock is set read time 0.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  double now() const { return clock_ ? clock_() : 0.0; }

  metrics::Registry& metrics() noexcept { return metrics_; }
  const metrics::Registry& metrics() const noexcept { return metrics_; }
  EventRing& events() noexcept { return events_; }
  const EventRing& events() const noexcept { return events_; }

  /// Append a completed span with explicit timestamps (the mp layer knows
  /// its clock values directly); a no-op when the ring is off.
  void record_span(const char* category, const char* name, double start,
                   double end) {
    if (events_.enabled())
      events_.record(Event{category, name, rank_, start, end});
  }

  /// Close a span opened at `start` at the current clock: appends the event
  /// and observes the duration in the "<category>.<name>" histogram.
  void end_phase(const char* category, const char* name, double start);

 private:
  int rank_ = 0;
  std::function<double()> clock_;
  metrics::Registry metrics_;
  EventRing events_;
};

/// RAII phase timer over virtual time.  Null recorder = no-op.
class ScopedPhase {
 public:
  ScopedPhase(Recorder* recorder, const char* category, const char* name)
      : recorder_(recorder),
        category_(category),
        name_(name),
        start_(recorder ? recorder->now() : 0.0) {}
  ~ScopedPhase() {
    if (recorder_ != nullptr) recorder_->end_phase(category_, name_, start_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Recorder* recorder_;
  const char* category_;
  const char* name_;
  double start_;
};

/// chrome://tracing (and Perfetto) "trace event" JSON: one complete ("X")
/// event per span, timestamps in virtual microseconds, tid = rank.
void write_chrome_trace(std::ostream& os, std::span<const Event> events);

/// Flat CSV export (rank,category,name,start,end) for offline tools.
void write_events_csv(std::ostream& os, std::span<const Event> events);

}  // namespace pac::trace

#define PAC_TRACE_CAT2(a, b) a##b
#define PAC_TRACE_CAT(a, b) PAC_TRACE_CAT2(a, b)

/// Opens a scoped phase timer named after the enclosing line.
#define PAC_TRACE_SCOPE(recorder_expr, category, name)          \
  ::pac::trace::ScopedPhase PAC_TRACE_CAT(pac_trace_scope_,     \
                                          __LINE__)((recorder_expr), \
                                                    (category), (name))
