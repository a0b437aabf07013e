#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>

#include "mp/transport/transport.hpp"

namespace pac::mp {

namespace detail {

void RankState::init_instrumentation(std::size_t ring_capacity) {
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
  mp.wait_calls = &reg.counter("mp.wait.calls");
  mp.wait_seconds = &reg.histogram("mp.wait.seconds");
}

std::byte* scratch_buffer(std::size_t slot, std::size_t bytes) {
  constexpr std::size_t kSlots = 4;
  thread_local std::array<std::vector<std::byte>, kSlots> arenas;
  PAC_CHECK(slot < kSlots);
  std::vector<std::byte>& arena = arenas[slot];
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
  ++state_->messages_sent;
  state_->bytes_sent += nbytes;
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      state_->mp.send_calls->add(1);
      state_->mp.send_bytes->add(nbytes);
      state_->mp.send_seconds->observe(charged.comm);
      rec->record_span("mp", "send", start, state_->clock);
    }
  }
}

Status Comm::absorb(Message&& msg, void* buffer, std::size_t capacity,
                    double start) {
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
  if constexpr (trace::compiled_in()) {
    if (trace::Recorder* rec = state_->recorder.get()) {
      state_->mp.recv_calls->add(1);
      state_->mp.recv_bytes->add(nbytes);
      state_->mp.recv_seconds->observe(state_->clock - start);
      rec->record_span("mp", "recv", start, state_->clock);
    }
  }
  return st;
}

Status Comm::recv_bytes(int source, int tag, void* buffer,
                        std::size_t capacity) {
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  const double start = op_begin();
  Message msg = transport_->recv(context_, world_source, tag);
  return absorb(std::move(msg), buffer, capacity, start);
}

void Comm::wait(Request& request) {
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(request.kind_ != Request::Kind::kNone,
                  "wait on a default-constructed Request");
  if (request.done_) return;
  const double wait_start = state_->clock;
  request.status_ =
      recv_bytes(request.source_, request.tag_, request.buffer_,
                 request.capacity_);
  request.done_ = true;
  if constexpr (trace::compiled_in()) {
    if (state_->recorder != nullptr) {
      state_->mp.wait_calls->add(1);
      state_->mp.wait_seconds->observe(state_->clock - wait_start);
    }
  }
}

bool Comm::test(Request& request) {
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(request.kind_ != Request::Kind::kNone,
                  "test on a default-constructed Request");
  if (request.done_) return true;
  const int world_source = request.source_ == kAnySource
                               ? kAnySource
                               : group_[request.source_];
  Message msg;
  if (!transport_->try_recv(context_, world_source, request.tag_, msg))
    return false;
  request.status_ =
      absorb(std::move(msg), request.buffer_, request.capacity_, op_begin());
  request.done_ = true;
  return true;
}

Status Comm::probe(int source, int tag) {
  PAC_REQUIRE(valid());
  PAC_REQUIRE(source == kAnySource || (source >= 0 && source < size()));
  const int world_source = source == kAnySource ? kAnySource : group_[source];
  int matched_source = 0, matched_tag = 0;
  std::size_t matched_bytes = 0;
  // Blocked-probe time is communication time on the wall clock; the
  // modeled clock does not move.
  const double start = op_begin();
  transport_->peek(context_, world_source, tag, matched_source, matched_tag,
                   matched_bytes);
  op_end(start, start, 0.0, 0.0);
  Status st;
  st.source = group_rank_of(matched_source);
  st.tag = matched_tag;
  st.bytes = matched_bytes;
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
  sub.kahan_ = kahan_;
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
