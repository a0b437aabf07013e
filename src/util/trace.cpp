#include "util/trace.hpp"

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>

namespace pac::trace {

bool env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("PAUTOCLASS_TRACE");
    if (v == nullptr) return false;
    return !(std::strcmp(v, "") == 0 || std::strcmp(v, "0") == 0 ||
             std::strcmp(v, "false") == 0 || std::strcmp(v, "off") == 0 ||
             std::strcmp(v, "no") == 0);
  }();
  return enabled;
}

EventRing::EventRing(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void EventRing::record(const Event& e) {
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[static_cast<std::size_t>(recorded_ % capacity_)] = e;
  }
  ++recorded_;
}

std::size_t EventRing::size() const noexcept { return ring_.size(); }

std::vector<Event> EventRing::snapshot() const {
  if (recorded_ <= capacity_) return ring_;
  // The ring has wrapped: the oldest retained event is at recorded_ %
  // capacity_.
  std::vector<Event> out;
  out.reserve(ring_.size());
  const std::size_t head = static_cast<std::size_t>(recorded_ % capacity_);
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

Recorder::Recorder(int rank, std::size_t ring_capacity)
    : rank_(rank), events_(ring_capacity) {}

void Recorder::end_phase(const char* category, const char* name,
                         double start) {
  const double end = now();
  record_span(category, name, start, end);
  std::string key;
  key.reserve(std::strlen(category) + std::strlen(name) + 1);
  key.append(category).append(1, '.').append(name);
  metrics_.histogram(key).observe(end - start);
}

namespace {

void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << "\\u0020";  // control chars never appear in our names
        else
          os << c;
    }
  }
  os << '"';
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const Event> events) {
  const auto old_precision = os.precision(12);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so the timeline labels rows as ranks.
  int max_rank = -1;
  for (const Event& e : events) max_rank = e.rank > max_rank ? e.rank : max_rank;
  for (int r = 0; r <= max_rank; ++r) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  for (const Event& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":";
    write_json_string(os, e.name);
    os << ",\"cat\":";
    write_json_string(os, e.category);
    // Virtual seconds -> microseconds (the trace-event time unit).
    os << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.rank
       << ",\"ts\":" << e.start * 1e6 << ",\"dur\":" << (e.end - e.start) * 1e6
       << "}";
  }
  os << "]}";
  os.precision(old_precision);
}

void write_events_csv(std::ostream& os, std::span<const Event> events) {
  const auto old_precision = os.precision(12);
  os << "rank,category,name,start,end\n";
  for (const Event& e : events)
    os << e.rank << ',' << e.category << ',' << e.name << ',' << e.start
       << ',' << e.end << '\n';
  os.precision(old_precision);
}

}  // namespace pac::trace
