// In-memory span recording for the traced runs.
//
// Spans are taken from the benchmark's own code around its calls into the
// repository's layers.  Each thread that records owns one Track; a span has
// a name, a layer, start and end (steady_clock) and a parent, which may sit
// on another track (a rank's root span is a child of the host thread's
// World::run span).  Nothing is written until the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The repository layers the benchmark times calls into, plus its own
/// load generator.  `data` has no spans: its calls happen inside the
/// autoclass kernels, so it is measured by counts and set-up time instead.
enum class Layer : std::uint8_t { kMp, kCore, kAutoclass, kServe, kBench };
inline constexpr std::size_t kNumLayers = 5;
const char* to_string(Layer layer) noexcept;

struct SpanRef {
  std::int32_t track = -1;
  std::int32_t index = -1;
  bool valid() const noexcept { return track >= 0; }
};

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  Clock::time_point start;
  Clock::time_point end;
  SpanRef parent;

  double seconds() const { return seconds_between(start, end); }
};

class Track {
 public:
  Track(std::int32_t id, std::string name) : id_(id), name_(std::move(name)) {}

  /// Open a span starting now under the innermost open span of this track
  /// (or under `parent` when nothing is open).
  SpanRef open(const char* name, Layer layer, SpanRef parent = {});
  void close(SpanRef span);
  /// Record an already finished span under the innermost open span.
  SpanRef add(const char* name, Layer layer, Clock::time_point start,
              Clock::time_point end);

  std::int32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  const Span& at(SpanRef ref) const { return spans_[static_cast<std::size_t>(ref.index)]; }

 private:
  SpanRef current() const;

  std::int32_t id_;
  std::string name_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Closes its span at scope exit.
class Scope {
 public:
  Scope(Track& track, const char* name, Layer layer, SpanRef parent = {})
      : track_(track), ref_(track.open(name, layer, parent)) {}
  ~Scope() { track_.close(ref_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  SpanRef ref() const noexcept { return ref_; }

 private:
  Track& track_;
  SpanRef ref_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children.  Indexed [track][span]; `tracks`
/// must be ordered by Track::id.
std::vector<std::vector<double>> self_seconds(
    const std::vector<const Track*>& tracks);

/// Sum of self time per layer.
std::array<double, kNumLayers> layer_self_seconds(
    const std::vector<const Track*>& tracks);

/// Write every span as a Chrome trace ("X" events, one tid per track, span
/// and parent ids in args) plus the per-layer self seconds.
void write_spans_json(const std::string& path,
                      const std::vector<const Track*>& tracks);

}  // namespace perfbench
