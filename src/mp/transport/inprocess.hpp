// The default pacnet backend: ranks are threads of one process and a send
// is a push into the destination rank's Mailbox.  Point-to-point messages
// and the frames of every collective (comm_dist.cpp) travel this path; it
// stays deterministic and virtual-time so every modeled figure remains
// byte-identical.
#pragma once

#include <thread>
#include <vector>

#include "mp/transport/transport.hpp"

namespace pac::mp::transport {

class InProcessTransport final : public Transport {
 public:
  /// `boxes[r]` is world rank r's mailbox; `rank` is the owning rank (the
  /// only rank allowed to call recv/try_peek on this instance).
  InProcessTransport(std::vector<Mailbox*> boxes, int rank)
      : boxes_(std::move(boxes)), rank_(rank) {}

  const char* name() const noexcept override { return "in-process"; }
  int world_rank() const noexcept override { return rank_; }
  int world_size() const noexcept override {
    return static_cast<int>(boxes_.size());
  }

  void send(int dest_world_rank, Message msg) override {
    boxes_[static_cast<std::size_t>(dest_world_rank)]->push(std::move(msg));
  }

  Message recv(int context, int source_world_rank, int tag) override {
    // Poll briefly before parking.  Collectives are leader-based over these
    // mailboxes, so a parked leader would put a second thread wake-up on
    // every collective's critical path, while the frames it waits for
    // usually arrive within microseconds.  Yielding keeps worlds with more
    // ranks than cores fair.
    Message msg;
    for (int i = 0; i < kPollsBeforePark; ++i) {
      if (inbox().try_pop(context, source_world_rank, tag, msg)) return msg;
      std::this_thread::yield();
    }
    return inbox().pop(context, source_world_rank, tag);
  }

  bool try_peek(int context, int source_world_rank, int tag,
                int& matched_source, int& matched_tag,
                std::size_t& matched_bytes) override {
    return inbox().try_peek(context, source_world_rank, tag, matched_source,
                            matched_tag, matched_bytes);
  }

 private:
  static constexpr int kPollsBeforePark = 64;

  Mailbox& inbox() { return *boxes_[static_cast<std::size_t>(rank_)]; }

  std::vector<Mailbox*> boxes_;
  int rank_;
};

}  // namespace pac::mp::transport
