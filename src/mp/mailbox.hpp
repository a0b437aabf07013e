// Per-rank message queue for minimpi point-to-point communication.
//
// A Mailbox is the receive side of one rank: senders push tagged payloads,
// the owner blocks in pop() until a matching message arrives.  Matching
// follows MPI semantics: (context, source, tag) with wildcards, and
// non-overtaking order between any fixed (source, tag) pair — pop always
// takes the earliest match in arrival order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "mp/status.hpp"

namespace pac::mp {

/// One in-flight message.  `send_time` is the sender's virtual clock at the
/// moment the message left (after the send-overhead charge); the receiver
/// uses it to advance its own clock by the modeled transfer time.  On the
/// collective plane it carries the sender's arrival time or the leader's
/// completion time instead (comm_dist.cpp).
struct Message {
  int context = 0;
  int source = 0;
  int tag = 0;
  double send_time = 0.0;
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  /// Deliver a message (called from the sender's thread).
  void push(Message msg);

  /// Block until a message matching (context, source, tag) is available and
  /// remove it.  Wildcards: source == kAnySource, tag == kAnyTag.
  /// Throws Aborted if the world is torn down while waiting.
  Message pop(int context, int source, int tag);

  /// Non-blocking variant; returns false if no match is queued.
  /// InProcessTransport::recv polls with it before it parks in pop().
  bool try_pop(int context, int source, int tag, Message& out);

  /// Non-blocking match *without* consuming: fills source/tag/size of the
  /// earliest matching message; returns false if none is queued.  Backs
  /// Transport::try_peek, i.e. Comm::iprobe.
  bool try_peek(int context, int source, int tag, int& matched_source,
                int& matched_tag, std::size_t& matched_bytes);

  /// Number of queued messages (diagnostics / leak checks).
  std::size_t pending() const;

  /// Wake all waiters with Aborted.
  void abort();

  /// Clear queue and abort flag (between World runs).
  void reset();

  // ---- transport failure awareness (used by the socket backend; the
  //      in-process path never calls these, so its behavior is unchanged) --

  /// Declare how many distinct sources can feed this mailbox (world size).
  /// Enables the all-sources-closed diagnosis for wildcard receives.
  void set_expected_sources(int n);

  /// Record that `source` can never deliver again (its stream reached a
  /// clean shutdown or died).  A blocked pop waiting specifically on
  /// that source — or a wildcard wait once every source is closed — throws
  /// TransportError instead of hanging forever.
  void mark_source_closed(int source);

  /// Hard transport failure (short read, protocol violation, reset): every
  /// current and future blocking call throws TransportError(reason).
  void fail(const std::string& reason);

 private:
  bool matches(const Message& m, int context, int source, int tag) const {
    return m.context == context &&
           (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  /// True when a wait matching (source, tag) can never be satisfied again:
  /// the named source is closed (or, for wildcard waits, every source is).
  /// Caller holds mutex_.
  bool starved(int source) const {
    if (!failure_reason_.empty()) return true;
    if (source != kAnySource) return closed_sources_.count(source) > 0;
    return expected_sources_ > 0 &&
           static_cast<int>(closed_sources_.size()) >= expected_sources_;
  }

  /// Caller holds mutex_.  Throws the appropriate typed error for a wait
  /// that can never complete.
  [[noreturn]] void throw_starved(int source, int tag) const;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
  int expected_sources_ = 0;
  std::set<int> closed_sources_;
  std::string failure_reason_;
};

}  // namespace pac::mp
