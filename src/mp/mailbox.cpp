#include "mp/mailbox.hpp"

#include <algorithm>
#include <sstream>

namespace pac::mp {

void Mailbox::throw_starved(int source, int tag) const {
  std::ostringstream os;
  if (!failure_reason_.empty()) {
    os << "transport failed: " << failure_reason_;
  } else if (source != kAnySource) {
    os << "rank " << source << " closed its connection while a receive";
    if (tag == kAnyTag)
      os << " (tag=any)";
    else
      os << " (tag=" << tag << ")";
    os << " from it was pending";
  } else {
    os << "every peer closed its connection while a wildcard receive";
    if (tag != kAnyTag) os << " (tag=" << tag << ")";
    os << " was pending";
  }
  throw TransportError(os.str());
}

void Mailbox::push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int context, int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (aborted_) throw Aborted{};
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [&](const Message& m) {
                                   return matches(m, context, source, tag);
                                 });
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      return out;
    }
    if (starved(source)) throw_starved(source, tag);
    cv_.wait(lock);
  }
}

bool Mailbox::try_pop(int context, int source, int tag, Message& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (aborted_) throw Aborted{};
  const auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [&](const Message& m) { return matches(m, context, source, tag); });
  if (it == queue_.end()) {
    if (starved(source)) throw_starved(source, tag);
    return false;
  }
  out = std::move(*it);
  queue_.erase(it);
  return true;
}

bool Mailbox::try_peek(int context, int source, int tag, int& matched_source,
                       int& matched_tag, std::size_t& matched_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (aborted_) throw Aborted{};
  const auto it = std::find_if(
      queue_.begin(), queue_.end(),
      [&](const Message& m) { return matches(m, context, source, tag); });
  if (it == queue_.end()) {
    if (starved(source)) throw_starved(source, tag);
    return false;
  }
  matched_source = it->source;
  matched_tag = it->tag;
  matched_bytes = it->payload.size();
  return true;
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Mailbox::abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  cv_.notify_all();
}

void Mailbox::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_.clear();
  aborted_ = false;
  closed_sources_.clear();
  failure_reason_.clear();
}

void Mailbox::set_expected_sources(int n) {
  std::lock_guard<std::mutex> lock(mutex_);
  expected_sources_ = n;
}

void Mailbox::mark_source_closed(int source) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_sources_.insert(source);
  }
  cv_.notify_all();
}

void Mailbox::fail(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failure_reason_.empty()) failure_reason_ = reason;
  }
  cv_.notify_all();
}

}  // namespace pac::mp
