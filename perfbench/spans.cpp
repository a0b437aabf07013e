#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

const char* to_string(Layer layer) noexcept {
  switch (layer) {
    case Layer::kMp: return "mp";
    case Layer::kCore: return "core";
    case Layer::kAutoclass: return "autoclass";
    case Layer::kServe: return "serve";
    case Layer::kBench: return "bench";
  }
  return "?";
}

SpanRef Track::current() const {
  if (open_.empty()) return {};
  return SpanRef{id_, open_.back()};
}

SpanRef Track::open(const char* name, Layer layer, SpanRef parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = Clock::now();
  s.parent = open_.empty() ? parent : current();
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return SpanRef{id_, index};
}

void Track::close(SpanRef span) {
  if (open_.empty() || open_.back() != span.index)
    throw std::logic_error("perfbench: spans closed out of order on " + name_);
  spans_[static_cast<std::size_t>(span.index)].end = Clock::now();
  open_.pop_back();
}

SpanRef Track::add(const char* name, Layer layer, Clock::time_point start,
                   Clock::time_point end) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = start;
  s.end = end;
  s.parent = current();
  spans_.push_back(s);
  return SpanRef{id_, static_cast<std::int32_t>(spans_.size() - 1)};
}

std::vector<std::vector<double>> self_seconds(
    const std::vector<const Track*>& tracks) {
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::vector<std::vector<std::vector<Interval>>> children(tracks.size());
  for (std::size_t t = 0; t < tracks.size(); ++t)
    children[t].resize(tracks[t]->spans().size());
  for (const Track* track : tracks)
    for (const Span& s : track->spans())
      if (s.parent.valid())
        children[static_cast<std::size_t>(s.parent.track)]
                [static_cast<std::size_t>(s.parent.index)]
                    .emplace_back(s.start, s.end);

  std::vector<std::vector<double>> self(tracks.size());
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const std::vector<Span>& spans = tracks[t]->spans();
    self[t].resize(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::vector<Interval>& kids = children[t][i];
      std::sort(kids.begin(), kids.end());
      // Union of the children, clipped to the parent's interval.
      double covered = 0.0;
      Clock::time_point reach = spans[i].start;
      for (const Interval& k : kids) {
        const Clock::time_point lo = std::max(k.first, reach);
        const Clock::time_point hi = std::min(k.second, spans[i].end);
        if (hi > lo) {
          covered += seconds_between(lo, hi);
          reach = hi;
        }
      }
      self[t][i] = spans[i].seconds() - covered;
    }
  }
  return self;
}

std::array<double, kNumLayers> layer_self_seconds(
    const std::vector<const Track*>& tracks) {
  std::array<double, kNumLayers> out{};
  const auto self = self_seconds(tracks);
  for (std::size_t t = 0; t < tracks.size(); ++t)
    for (std::size_t i = 0; i < self[t].size(); ++i)
      out[static_cast<std::size_t>(tracks[t]->spans()[i].layer)] += self[t][i];
  return out;
}

void write_spans_json(const std::string& path,
                      const std::vector<const Track*>& tracks) {
  std::ofstream os(path);
  if (!os.good()) throw std::runtime_error("perfbench: cannot write " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Track* track : tracks)
    for (const Span& s : track->spans()) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point tp) {
    return std::chrono::duration<double, std::micro>(tp - origin).count();
  };
  const auto self = self_seconds(tracks);
  char buf[512];
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", t, tracks[t]->name().c_str());
    os << buf;
    first = false;
    const std::vector<Span>& spans = tracks[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":"
                    "\"%zu:%zu\",\"parent\":\"%d:%d\",\"self_us\":%.3f}}",
                    s.name, to_string(s.layer), t, us(s.start),
                    us(s.end) - us(s.start), t, i, s.parent.track,
                    s.parent.index, self[t][i] * 1e6);
      os << buf;
    }
  }
  os << "\n],\"selfSeconds\":{";
  const auto layers = layer_self_seconds(tracks);
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9f", l == 0 ? "" : ",",
                  to_string(static_cast<Layer>(l)), layers[l]);
    os << buf;
  }
  os << "}}\n";
  if (!os.good()) throw std::runtime_error("perfbench: write failed: " + path);
}

}  // namespace perfbench
