// The collectives of Comm, one implementation for every backend: each is
// a leader-based algorithm over point-to-point frames on the comm's private
// collective context, so the Transport interface is all a backend needs to
// provide (the in-process mailboxes, sockets, shared-memory rings).
//
// Algorithms are linear and rooted at a leader — group rank 0, or the
// user's root for the rooted kinds.  Reductions gather every contribution
// at the leader and fold r = 0, 1, ..., P-1 (the compensated Kahan path
// included), so results match across backends by construction.  Eager
// buffered sends make the exchanges deadlock-free; alltoall is the one
// leaderless exchange.
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
  if (reduction.kahan) {
    const std::size_t n = nbytes / sizeof(double);
    double* dst = static_cast<double*>(out);
    for (std::size_t i = 0; i < n; ++i) {
      KahanSum k;
      for (int r = 0; r < p; ++r)
        k.add(reinterpret_cast<const double*>(block(all, r, nbytes))[i]);
      dst[i] = k.value();
    }
    return;
  }
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

void Comm::coll_release(const Round& round, const void* blocks,
                        std::size_t stride, std::size_t nbytes, double done) {
  for (int r = 0; r < size(); ++r)
    if (r != group_rank_)
      coll_send(r, round.tag, block(blocks, r, stride), nbytes, done);
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
    coll_release(round, nullptr, 0, 0, done);
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
    coll_release(round, data, 0, nbytes, done);
  } else {
    done = coll_exchange(round, root, nullptr, 0, data, nbytes);
  }
  coll_end(round, done);
}

void Comm::reduce_bytes(const void* in, void* out, std::size_t nbytes,
                        const detail::Reduction& reduction, int root) {
  const Round round = coll_begin(net::CollectiveKind::kReduce, nbytes);
  const int p = size();
  double done;
  if (group_rank_ == root) {
    std::byte* all =
        detail::scratch_buffer(0, nbytes * static_cast<std::size_t>(p));
    done = coll_gather(round, in, all, nbytes) + round.cost;
    coll_release(round, nullptr, 0, 0, done);
    fold_rank_ordered(all, out, nbytes, p, reduction);
  } else {
    done = coll_exchange(round, root, in, nbytes, nullptr, 0);
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
        detail::scratch_buffer(0, nbytes * static_cast<std::size_t>(p));
    done = coll_gather(round, in, all, nbytes) + round.cost;
    fold_rank_ordered(all, out, nbytes, p, reduction);
    coll_release(round, out, 0, nbytes, done);
  } else {
    done = coll_exchange(round, 0, in, nbytes, out, nbytes);
  }
  coll_end(round, done);
}

void Comm::gather_bytes(const void* in, void* out, std::size_t nbytes,
                        int root) {
  const Round round = coll_begin(net::CollectiveKind::kGather, nbytes);
  double done;
  if (group_rank_ == root) {
    done = coll_gather(round, in, out, nbytes) + round.cost;
    coll_release(round, nullptr, 0, 0, done);
  } else {
    done = coll_exchange(round, root, in, nbytes, nullptr, 0);
  }
  coll_end(round, done);
}

void Comm::allgather_bytes(const void* in, void* out, std::size_t nbytes) {
  const Round round = coll_begin(net::CollectiveKind::kAllgather, nbytes);
  const std::size_t total = nbytes * static_cast<std::size_t>(size());
  double done;
  if (group_rank_ == 0) {
    done = coll_gather(round, in, out, nbytes) + round.cost;
    coll_release(round, out, 0, total, done);
  } else {
    done = coll_exchange(round, 0, in, nbytes, out, total);
  }
  coll_end(round, done);
}

void Comm::scatter_bytes(const void* in, void* out, std::size_t nbytes,
                         int root) {
  const Round round = coll_begin(net::CollectiveKind::kScatter, nbytes);
  double done;
  if (group_rank_ == root) {
    done = coll_gather(round, nullptr, nullptr, 0) + round.cost;
    coll_release(round, in, nbytes, nbytes, done);
    copy_bytes(out, block(in, root, nbytes), nbytes);
  } else {
    done = coll_exchange(round, root, nullptr, 0, out, nbytes);
  }
  coll_end(round, done);
}

void Comm::scan_bytes(const void* in, void* out, std::size_t nbytes,
                      const detail::Reduction& reduction, bool exclusive) {
  const Round round = coll_begin(exclusive ? net::CollectiveKind::kExscan
                                           : net::CollectiveKind::kScan,
                                 nbytes);
  const int p = size();
  double done;
  if (group_rank_ == 0) {
    std::byte* all =
        detail::scratch_buffer(0, nbytes * static_cast<std::size_t>(p));
    done = coll_gather(round, in, all, nbytes) + round.cost;
    std::byte* running = detail::scratch_buffer(1, nbytes);
    copy_bytes(running, all, nbytes);
    // Rank 0: inclusive scan is its own input; exclusive leaves out alone.
    if (!exclusive) copy_bytes(out, running, nbytes);
    const std::size_t n = nbytes / reduction.elem_size;
    for (int r = 1; r < p; ++r) {
      if (exclusive) coll_send(r, round.tag, running, nbytes, done);
      reduction.combine(reduction.op, running, block(all, r, nbytes), n);
      if (!exclusive) coll_send(r, round.tag, running, nbytes, done);
    }
  } else {
    done = coll_exchange(round, 0, in, nbytes, out, nbytes);
  }
  coll_end(round, done);
}

void Comm::alltoall_bytes(const void* in, void* out, std::size_t block_bytes) {
  const Round round = coll_begin(net::CollectiveKind::kAlltoall, block_bytes);
  // Leaderless: every rank sees every arrival, so each computes the same
  // completion time.
  for (int d = 0; d < size(); ++d)
    if (d != group_rank_)
      coll_send(d, round.tag, block(in, d, block_bytes), block_bytes,
                round.arrival);
  const double latest =
      coll_gather(round, block(in, group_rank_, block_bytes), out,
                  block_bytes);
  coll_end(round, latest + round.cost);
}

void Comm::reduce_scatter_bytes(const void* in, void* out,
                                std::size_t block_bytes,
                                const detail::Reduction& reduction) {
  const Round round =
      coll_begin(net::CollectiveKind::kReduceScatter, block_bytes);
  const int p = size();
  const std::size_t total = block_bytes * static_cast<std::size_t>(p);
  double done;
  if (group_rank_ == 0) {
    std::byte* all =
        detail::scratch_buffer(0, total * static_cast<std::size_t>(p));
    done = coll_gather(round, in, all, total) + round.cost;
    std::byte* folded = detail::scratch_buffer(1, total);
    fold_rank_ordered(all, folded, total, p, reduction);
    coll_release(round, folded, block_bytes, block_bytes, done);
    copy_bytes(out, folded, block_bytes);
  } else {
    done = coll_exchange(round, 0, in, total, out, block_bytes);
  }
  coll_end(round, done);
}

}  // namespace pac::mp
