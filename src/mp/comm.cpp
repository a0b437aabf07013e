#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>

#include "mp/transport/transport.hpp"

namespace pac::mp {

namespace detail {

void RankState::init_recorder(std::size_t ring_capacity) {
  recorder = std::make_unique<trace::Recorder>(world_rank, ring_capacity);
  // The rank's virtual clock is the trace time base (deterministic across
  // runs); `this` is stable for the run — World keeps each rank's state in
  // place until the run ends.
  recorder->set_clock([this] { return clock; });
  metrics::Registry& reg = recorder->metrics();
  std::string name;
  for (std::size_t k = 0; k < kNumCollectiveKinds; ++k) {
    const char* kind = net::to_string(static_cast<net::CollectiveKind>(k));
    name.assign("mp.").append(kind);
    MpMetricHandles::PerCollective& h = mp.collective[k];
    h.calls = &reg.counter(name + ".calls");
    h.bytes = &reg.counter(name + ".bytes");
    h.seconds = &reg.histogram(name + ".seconds");
    h.wait_seconds = &reg.histogram(name + ".wait_seconds");
  }
  mp.send_calls = &reg.counter("mp.send.calls");
  mp.send_bytes = &reg.counter("mp.send.bytes");
  mp.send_seconds = &reg.histogram("mp.send.seconds");
  mp.recv_calls = &reg.counter("mp.recv.calls");
  mp.recv_bytes = &reg.counter("mp.recv.bytes");
  mp.recv_seconds = &reg.histogram("mp.recv.seconds");
}

std::byte* scratch_buffer(std::size_t bytes) {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  return arena.data();
}

}  // namespace detail

double RunStats::max_compute() const {
  double m = 0.0;
  for (double v : rank_compute) m = std::max(m, v);
  return m;
}

double RunStats::max_comm() const {
  double m = 0.0;
  for (double v : rank_comm) m = std::max(m, v);
  return m;
}

const char* Comm::backend_name() const noexcept {
  return transport_ != nullptr ? transport_->name() : "in-process";
}

transport::TransportStats Comm::transport_stats() const noexcept {
  return transport_ != nullptr ? transport_->stats()
                               : transport::TransportStats{};
}

int Comm::group_rank_of(int world_rank) const noexcept {
  for (std::size_t r = 0; r < group_.size(); ++r)
    if (group_[r] == world_rank) return static_cast<int>(r);
  return 0;
}

double Comm::op_begin() {
  if (distributed_) {
    const double t = time_->now();
    if (t > state_->clock) {
      state_->compute_time += t - state_->clock;
      state_->clock = t;
    }
  }
  return state_->clock;
}

Comm::Charged Comm::op_end(double start, double ready, double cost,
                           double wait) {
  if (distributed_) {
    // Wall mode cannot split waiting from transfer: all of it is comm.
    const double end = time_->now();
    const double elapsed = end > start ? end - start : 0.0;
    if (end > state_->clock) state_->clock = end;
    state_->comm_time += elapsed;
    return {elapsed, 0.0};
  }
  if (ready > state_->clock) state_->clock = ready;
  state_->comm_time += cost;
  if (wait > 0.0) state_->idle_time += wait;
  return {cost, wait > 0.0 ? wait : 0.0};
}

void Comm::deliver(int dest_group_rank, int tag, const void* bytes,
                   std::size_t nbytes) {
  const double start = op_begin();
  // The message departs once the sender's software overhead is paid.
  const double overhead = network_->send_overhead();
  const double departs = start + overhead;
  Message msg;
  msg.context = context_;
  msg.source = state_->world_rank;
  msg.tag = tag;
  msg.send_time = departs;
  msg.payload.resize(nbytes);
  if (nbytes > 0) std::memcpy(msg.payload.data(), bytes, nbytes);
  transport_->send(group_[dest_group_rank], std::move(msg));
  const Charged charged = op_end(start, departs, overhead, 0.0);
  state_->mp.send_calls->add(1);
  state_->mp.send_bytes->add(nbytes);
  state_->mp.send_seconds->observe(charged.comm);
  state_->recorder->record_span("mp", "send", start, state_->clock);
}

Status Comm::recv_bytes(int source, int tag, void* buffer,
                        std::size_t capacity) {
  // Timed from op_begin, which books the gap since the previous operation
  // as compute on the wall clock, not as receive time.
  const double start = op_begin();
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  const Message msg = transport_->recv(context_, world_source, tag);
  const std::size_t nbytes = msg.payload.size();
  PAC_REQUIRE_MSG(nbytes <= capacity, "recv buffer too small: "
                                          << capacity
                                          << " bytes < message of " << nbytes);
  if (nbytes > 0) std::memcpy(buffer, msg.payload.data(), nbytes);
  Status st;
  st.source = group_rank_of(msg.source);
  st.tag = msg.tag;
  st.bytes = nbytes;
  // Modeled: the message is available at send_time + transfer.
  const double transfer =
      network_->pt2pt_time(nbytes, st.source, group_rank_, size());
  const double available = msg.send_time + transfer;
  op_end(start, available, transfer, available - start);
  state_->mp.recv_calls->add(1);
  state_->mp.recv_bytes->add(nbytes);
  state_->mp.recv_seconds->observe(state_->clock - start);
  state_->recorder->record_span("mp", "recv", start, state_->clock);
  return st;
}

bool Comm::iprobe(int source, int tag, Status& status) {
  PAC_REQUIRE(valid());
  PAC_REQUIRE(source == kAnySource || (source >= 0 && source < size()));
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  int matched_source = 0, matched_tag = 0;
  std::size_t matched_bytes = 0;
  if (!transport_->try_peek(context_, world_source, tag, matched_source,
                            matched_tag, matched_bytes))
    return false;
  status.source = group_rank_of(matched_source);
  status.tag = matched_tag;
  status.bytes = matched_bytes;
  return true;
}

Comm Comm::split(int color, int key) {
  PAC_REQUIRE(valid());
  // Exchange (color, key) so every rank can compute every group.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> all(group_.size());
  const Entry mine{color, key, group_rank_};
  allgather<Entry>(std::span<const Entry>(&mine, 1), std::span<Entry>(all));

  const int seq = split_seq_++;
  if (color < 0) return Comm{};  // this rank opts out

  std::vector<Entry> members;
  for (const Entry& e : all)
    if (e.color == color) members.push_back(e);
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  Comm sub;
  sub.state_ = state_;
  sub.network_ = network_;
  sub.costs_ = costs_;
  sub.transport_ = transport_;
  sub.time_ = time_;
  sub.distributed_ = distributed_;
  sub.group_.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    sub.group_.push_back(group_[members[i].rank]);
    if (members[i].rank == group_rank_)
      sub.group_rank_ = static_cast<int>(i);
  }
  // Every member derives the same context deterministically from (parent
  // context, split seq, color), with no registry to consult: ranks may be
  // separate processes.  The result stays below 1 << 28: the collective
  // plane (coll_context) lives above that offset and must not collide
  // with user contexts.
  std::uint32_t h = 0x9e3779b9u;
  for (std::uint32_t v : {static_cast<std::uint32_t>(context_),
                          static_cast<std::uint32_t>(seq),
                          static_cast<std::uint32_t>(color)})
    h ^= v + 0x9e3779b9u + (h << 6) + (h >> 2);
  int derived = static_cast<int>(h & ((1u << 28) - 1));
  if (derived == 0) derived = 1;  // 0 is the world context
  sub.context_ = derived;
  return sub;
}

}  // namespace pac::mp
