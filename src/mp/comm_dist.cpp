// The collectives of Comm, one implementation for every backend: each is
// a leader-based algorithm over point-to-point frames on the comm's private
// collective context, so the Transport interface is all a backend needs to
// provide (the in-process mailboxes, sockets, shared-memory rings).
//
// Algorithms are linear and rooted at a leader — group rank 0, or the
// broadcast's root.  An allreduce gathers every contribution at the leader
// and folds r = 0, 1, ..., P-1 elementwise, one fold for every backend, so
// results match across backends by construction.  Eager buffered sends make
// the exchanges deadlock-free.
//
// Time: every frame a rank contributes carries its arrival time in
// Message::send_time; the leader stamps each release frame with the
// completion time max(arrivals) + collective_time(kind, bytes, P), so on
// the modeled clock every rank leaves at the same instant, like a blocking
// collective on a real multicomputer, with the wait booked as idle time.
// Internal hops are never charged or counted as messages.  On the wall
// clock the stamps are ignored and op_end measures the elapsed time instead
// (see Comm::op_end).

#include <algorithm>
#include <cstring>

#include "mp/comm.hpp"
#include "mp/transport/transport.hpp"

namespace pac::mp {

namespace {

/// memcpy that tolerates empty (possibly null) spans.
void copy_bytes(void* dst, const void* src, std::size_t nbytes) {
  if (nbytes > 0) std::memcpy(dst, src, nbytes);
}

/// Block `r` of a buffer of `nbytes`-sized blocks.
std::byte* block(void* base, int r, std::size_t nbytes) {
  return static_cast<std::byte*>(base) + static_cast<std::size_t>(r) * nbytes;
}
const std::byte* block(const void* base, int r, std::size_t nbytes) {
  return static_cast<const std::byte*>(base) +
         static_cast<std::size_t>(r) * nbytes;
}

/// Rank-ordered fold of the `p` contiguous `nbytes` blocks at `all` into
/// `out`.
void fold_rank_ordered(const std::byte* all, void* out, std::size_t nbytes,
                       int p, const detail::Reduction& reduction) {
  copy_bytes(out, all, nbytes);
  const std::size_t n = nbytes / reduction.elem_size;
  for (int r = 1; r < p; ++r)
    reduction.combine(reduction.op, out, block(all, r, nbytes), n);
}

}  // namespace

Comm::Round Comm::coll_begin(net::CollectiveKind kind, std::size_t bytes) {
  const double arrival = op_begin();
  return Round{kind, bytes, arrival,
               network_->collective_time(kind, bytes, size()),
               static_cast<int>(coll_seq_++)};
}

void Comm::coll_end(const Round& round, double done) {
  const Charged charged = op_end(round.arrival, done, round.cost,
                                 done - round.arrival - round.cost);
  const detail::MpMetricHandles::PerCollective& h =
      state_->mp.collective[static_cast<std::size_t>(round.kind)];
  h.calls->add(1);
  h.bytes->add(round.bytes);
  h.seconds->observe(charged.comm);
  h.wait_seconds->observe(charged.idle);
  state_->recorder->record_span("mp", net::to_string(round.kind),
                                round.arrival, state_->clock);
}

void Comm::coll_send(int dest, int tag, const void* bytes, std::size_t nbytes,
                     double stamp) {
  Message msg;
  msg.context = coll_context();
  msg.source = state_->world_rank;
  msg.tag = tag;
  msg.send_time = stamp;
  msg.payload.resize(nbytes);
  copy_bytes(msg.payload.data(), bytes, nbytes);
  transport_->send(group_[dest], std::move(msg));
}

double Comm::coll_recv(int source, int tag, void* buffer,
                       std::size_t nbytes) {
  Message msg = transport_->recv(coll_context(), group_[source], tag);
  PAC_REQUIRE_MSG(msg.payload.size() == nbytes,
                  "collective frame from rank "
                      << group_[source] << " (tag=" << tag << ") carries "
                      << msg.payload.size() << " bytes, expected " << nbytes
                      << " — mismatched collective call across ranks?");
  copy_bytes(buffer, msg.payload.data(), nbytes);
  return msg.send_time;
}

double Comm::coll_gather(const Round& round, const void* in, void* all,
                         std::size_t nbytes) {
  copy_bytes(block(all, group_rank_, nbytes), in, nbytes);
  double latest = round.arrival;
  for (int r = 0; r < size(); ++r)
    if (r != group_rank_)
      latest = std::max(latest, coll_recv(r, round.tag, block(all, r, nbytes),
                                          nbytes));
  return latest;
}

void Comm::coll_release(const Round& round, const void* bytes,
                        std::size_t nbytes, double done) {
  for (int r = 0; r < size(); ++r)
    if (r != group_rank_) coll_send(r, round.tag, bytes, nbytes, done);
}

double Comm::coll_exchange(const Round& round, int leader, const void* up,
                           std::size_t up_bytes, void* down,
                           std::size_t down_bytes) {
  coll_send(leader, round.tag, up, up_bytes, round.arrival);
  return coll_recv(leader, round.tag, down, down_bytes);
}

void Comm::barrier() {
  PAC_REQUIRE(valid());
  const Round round = coll_begin(net::CollectiveKind::kBarrier, 0);
  double done;
  if (group_rank_ == 0) {
    done = coll_gather(round, nullptr, nullptr, 0) + round.cost;
    coll_release(round, nullptr, 0, done);
  } else {
    done = coll_exchange(round, 0, nullptr, 0, nullptr, 0);
  }
  coll_end(round, done);
}

void Comm::broadcast_bytes(void* data, std::size_t nbytes, int root) {
  const Round round = coll_begin(net::CollectiveKind::kBcast, nbytes);
  double done;
  if (group_rank_ == root) {
    // Empty arrival frames: the root must not leave before the last rank
    // arrives.
    done = coll_gather(round, nullptr, nullptr, 0) + round.cost;
    coll_release(round, data, nbytes, done);
  } else {
    done = coll_exchange(round, root, nullptr, 0, data, nbytes);
  }
  coll_end(round, done);
}

void Comm::allreduce_bytes(const void* in, void* out, std::size_t nbytes,
                           const detail::Reduction& reduction) {
  const Round round = coll_begin(net::CollectiveKind::kAllreduce, nbytes);
  const int p = size();
  double done;
  if (group_rank_ == 0) {
    std::byte* all =
        detail::scratch_buffer(nbytes * static_cast<std::size_t>(p));
    done = coll_gather(round, in, all, nbytes) + round.cost;
    fold_rank_ordered(all, out, nbytes, p, reduction);
    coll_release(round, out, nbytes, done);
  } else {
    done = coll_exchange(round, 0, in, nbytes, out, nbytes);
  }
  coll_end(round, done);
}

void Comm::allgather_bytes(const void* in, void* out, std::size_t nbytes) {
  const Round round = coll_begin(net::CollectiveKind::kAllgather, nbytes);
  const std::size_t total = nbytes * static_cast<std::size_t>(size());
  double done;
  if (group_rank_ == 0) {
    done = coll_gather(round, in, out, nbytes) + round.cost;
    coll_release(round, out, total, done);
  } else {
    done = coll_exchange(round, 0, in, nbytes, out, total);
  }
  coll_end(round, done);
}

}  // namespace pac::mp
