// minimpi: an MPI-flavoured message-passing runtime with ranks-as-threads
// and modeled (virtual) time.
//
// A World owns P ranks.  World::run(fn) executes fn(Comm&) on every rank
// concurrently — SPMD, exactly like `mpirun -np P`.  Ranks communicate only
// through their Comm:
//
//   * tagged point-to-point send/recv with MPI matching semantics,
//   * deterministic collectives (Barrier, Bcast, Reduce, Allreduce, Gather,
//     Allgather, Scatter, Scan, Alltoall, ReduceScatter, Exscan) that
//     combine contributions in rank order, and
//   * communicator splitting (Comm::split) for subgroup algorithms.
//
// Every collective has one implementation for every backend: a leader-based
// algorithm over point-to-point frames on the communicator's private
// collective context (comm_dist.cpp), so the in-process, socket and hybrid
// backends fold the same bytes in the same order.  What differs is the
// clock, and only the time-accounting helpers (now, charge, op_begin,
// op_end) look at it.
//
// On the default in-process backend each rank carries a virtual clock.
// Compute sections advance it through Comm::charge() using the Machine's
// cost book; communication advances it by the Machine's network model.
// Collectives synchronize clocks the way a real blocking collective does:
// everyone leaves at max(arrivals) + network cost.  RunStats reports
// per-rank compute/communication/idle breakdowns — that is the data from
// which the paper's Figures 6-8 are rebuilt.  Per-operation records (an
// "mp" span per send, recv and collective, with metrics beside them) come
// from one place: the per-rank trace::Recorder that World::Config::
// instrument switches on, merged into RunStats::events at finalize.
//
// Thread-safety contract: a Comm belongs to its rank's thread.  A rank must
// never touch another rank's Comm or data; all sharing is via messages.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/mailbox.hpp"
#include "mp/status.hpp"
#include "mp/transport/time_source.hpp"
#include "net/machine.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pac::mp {

namespace transport {
class Transport;
class SocketTransport;
struct TransportStats;
}  // namespace transport

using net::kNumCollectiveKinds;

class World;
class Comm;

/// Handle for a nonblocking operation (isend/irecv).  Sends complete
/// immediately (minimpi buffers); receives complete in wait()/test() when a
/// matching message has arrived.  A Request must be completed (wait/test
/// returning true) before its buffer is reused.
class Request {
 public:
  Request() = default;
  bool done() const noexcept { return done_; }
  /// Valid once done(): source/tag/bytes of the matched message.
  const Status& status() const noexcept { return status_; }

 private:
  friend class Comm;
  enum class Kind { kNone, kSend, kRecv };
  Kind kind_ = Kind::kNone;
  void* buffer_ = nullptr;
  std::size_t capacity_ = 0;
  int source_ = kAnySource;
  int tag_ = kAnyTag;
  bool done_ = false;
  Status status_;
};

namespace detail {

/// Cached metric handles for the message-passing hot paths, resolved once
/// per rank when instrumentation is switched on so recording a collective
/// costs four pointer dereferences, not four map lookups.
struct MpMetricHandles {
  struct PerCollective {
    metrics::Counter* calls = nullptr;
    metrics::Counter* bytes = nullptr;
    metrics::Histogram* seconds = nullptr;       // modeled network cost
    metrics::Histogram* wait_seconds = nullptr;  // idle waiting on arrivals
  };
  std::array<PerCollective, kNumCollectiveKinds> collective{};
  metrics::Counter* send_calls = nullptr;
  metrics::Counter* send_bytes = nullptr;
  metrics::Histogram* send_seconds = nullptr;  // sender software overhead
  metrics::Counter* recv_calls = nullptr;
  metrics::Counter* recv_bytes = nullptr;
  metrics::Histogram* recv_seconds = nullptr;  // transfer + blocked time
  metrics::Counter* wait_calls = nullptr;
  metrics::Histogram* wait_seconds = nullptr;  // nonblocking-wait latency
};

/// Per-rank mutable state shared by all communicators of that rank.
struct RankState {
  int world_rank = 0;
  double clock = 0.0;         // virtual seconds
  double compute_time = 0.0;  // sum of charge() calls
  double comm_time = 0.0;     // modeled network time
  double idle_time = 0.0;     // waiting on slower ranks in collectives
  std::uint64_t collectives = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Per-CollectiveKind call counts and modeled time (indexed by the enum).
  std::array<std::uint64_t, kNumCollectiveKinds> collective_calls{};
  std::array<double, kNumCollectiveKinds> collective_seconds{};
  /// Instrumentation sink (null unless the World instruments this run).
  /// Owned by this rank's thread; merged by World::run after the join.
  std::unique_ptr<trace::Recorder> recorder;
  MpMetricHandles mp;

  /// Create the recorder and resolve the metric handles (comm.cpp).
  void init_instrumentation(std::size_t ring_capacity);
};

template <class T>
T apply_op(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return static_cast<T>(a + b);
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return a < b ? b : a;
    case ReduceOp::kProd: return static_cast<T>(a * b);
  }
  return a;
}

/// Type-erased elementwise fold used by the collectives: combine `n`
/// elements of `src` into `acc` with `op`.  One instantiation per element
/// type, selected by the Comm templates.
using CombineFn = void (*)(ReduceOp, void* acc, const void* src,
                           std::size_t n);

template <class T>
void combine_elems(ReduceOp op, void* acc, const void* src,
                   std::size_t n) noexcept {
  T* a = static_cast<T*>(acc);
  const T* s = static_cast<const T*>(src);
  for (std::size_t i = 0; i < n; ++i) a[i] = apply_op(op, a[i], s[i]);
}

/// How a reducing collective folds its contributions.
struct Reduction {
  ReduceOp op = ReduceOp::kSum;
  CombineFn combine = nullptr;
  std::size_t elem_size = 1;
  /// Compensated (Kahan) summation; only ever set for double sums.
  bool kahan = false;
};

template <class T>
Reduction reduction_for(ReduceOp op, bool kahan) noexcept {
  return Reduction{op, &combine_elems<T>, sizeof(T),
                   kahan && op == ReduceOp::kSum && std::is_same_v<T, double>};
}

/// Thread-local grow-only scratch arenas.  The EM hot path runs thousands
/// of small allreduces per search; the leaders' folds borrow these instead
/// of allocating per call.  Slots let one operation use several disjoint
/// buffers; alignment is operator-new's (sufficient for every trivially
/// copyable element type minimpi moves).  May return nullptr for 0 bytes.
std::byte* scratch_buffer(std::size_t slot, std::size_t bytes);

}  // namespace detail

/// Per-run statistics, the raw material for speedup/scaleup tables.
struct RunStats {
  int num_ranks = 0;
  /// Virtual completion time of the run: max over ranks of the final clock.
  double virtual_time = 0.0;
  /// Host wall-clock seconds spent executing the run.
  double wall_seconds = 0.0;
  std::vector<double> rank_finish;
  std::vector<double> rank_compute;
  std::vector<double> rank_comm;
  std::vector<double> rank_idle;
  std::uint64_t total_collectives = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  /// Aggregate per-kind collective counts / modeled seconds across ranks
  /// (indexed by net::CollectiveKind).
  std::array<std::uint64_t, kNumCollectiveKinds> collective_calls{};
  std::array<double, kNumCollectiveKinds> collective_seconds{};
  /// True when the run was instrumented (Config::instrument and the layer
  /// compiled in): `metrics` holds the merged per-rank registries and
  /// `events` the merged per-rank ring buffers, sorted by (start, rank).
  bool instrumented = false;
  metrics::Registry metrics;
  std::vector<trace::Event> events;
  /// Events lost to ring overflow across all ranks (0 = complete trace).
  std::uint64_t events_dropped = 0;

  double max_compute() const;
  double max_comm() const;
};

/// The communicator handed to SPMD code.  Copyable handles share rank state.
class Comm {
 public:
  /// Rank within this communicator's group.
  int rank() const noexcept { return group_rank_; }
  /// Number of ranks in this communicator's group.
  int size() const noexcept { return static_cast<int>(group_.size()); }
  /// World rank of this rank (stable across splits).
  int world_rank() const noexcept { return state_->world_rank; }

  /// Current time of this rank (seconds): virtual on the modeled backend,
  /// wall-clock since world formation on the socket backend.
  double now() const noexcept {
    return distributed_ ? time_->now() : state_->clock;
  }
  /// Advance the virtual clock by a modeled compute duration.  On the
  /// distributed (wall-clock) backend this is a no-op: real time advances
  /// by itself, and compute time is measured as the gaps between
  /// communication operations instead.
  void charge(double seconds) {
    PAC_REQUIRE(seconds >= 0.0);
    if (distributed_) return;
    state_->clock += seconds;
    state_->compute_time += seconds;
  }

  /// True when this communicator runs on a multi-process transport (socket
  /// backend): every rank is an OS process and time is wall-clock.  False
  /// on the default modeled (in-process, virtual-time) backend.
  bool distributed() const noexcept { return distributed_; }

  /// Transport backend name ("in-process", "socket", "hybrid").
  const char* backend_name() const noexcept;

  /// Cumulative wire-traffic counters of the underlying transport since
  /// world formation (zeros on the modeled backend; the hybrid backend
  /// additionally fills the per-route shm_* breakdown).
  transport::TransportStats transport_stats() const noexcept;

  const net::NetworkModel& network() const noexcept { return *network_; }
  const net::CostBook& costs() const noexcept { return *costs_; }

  /// This rank's instrumentation sink, or nullptr when the run is not
  /// instrumented (shared by all communicators of the rank, split or not).
  trace::Recorder* recorder() const noexcept {
    return state_ == nullptr ? nullptr : state_->recorder.get();
  }

  // ---- point-to-point ----

  /// Send `data` to group rank `dest` under `tag`.  Blocking-buffered: the
  /// payload is copied out, so the call returns immediately.
  template <class T>
  void send(int dest, int tag, std::span<const T> data);

  /// Convenience: send one trivially-copyable value.
  template <class T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Receive into `buffer` from group rank `source` (or kAnySource) under
  /// `tag` (or kAnyTag).  The matched payload must fit in `buffer`.
  template <class T>
  Status recv(int source, int tag, std::span<T> buffer);

  /// Convenience: receive one value.
  template <class T>
  T recv_value(int source, int tag, Status* status = nullptr) {
    T v{};
    Status st = recv<T>(source, tag, std::span<T>(&v, 1));
    if (status) *status = st;
    return v;
  }

  /// Nonblocking send: identical to send (minimpi sends are buffered), but
  /// returns a completed Request for symmetry with MPI code.
  template <class T>
  Request isend(int dest, int tag, std::span<const T> data) {
    send<T>(dest, tag, data);
    Request req;
    req.kind_ = Request::Kind::kSend;
    req.done_ = true;
    return req;
  }

  /// Nonblocking receive: posts the (source, tag, buffer) triple; the
  /// message is matched and copied in wait()/test().
  template <class T>
  Request irecv(int source, int tag, std::span<T> buffer) {
    static_assert(std::is_trivially_copyable_v<T>);
    PAC_REQUIRE(valid());
    PAC_REQUIRE(source == kAnySource || (source >= 0 && source < size()));
    Request req;
    req.kind_ = Request::Kind::kRecv;
    req.buffer_ = buffer.data();
    req.capacity_ = buffer.size_bytes();
    req.source_ = source;
    req.tag_ = tag;
    return req;
  }

  /// Block until `request` completes.
  void wait(Request& request);

  /// Nonblocking completion test; true if the request is (now) complete.
  bool test(Request& request);

  /// Wait for every request in the span.
  void wait_all(std::span<Request> requests) {
    for (Request& r : requests) wait(r);
  }

  /// Block until a matching message is available without receiving it;
  /// returns its source/tag/size (MPI_Probe).  The caller can then size a
  /// buffer and recv with the exact envelope.
  Status probe(int source, int tag);

  /// Non-blocking probe (MPI_Iprobe); true if a matching message is queued.
  bool iprobe(int source, int tag, Status& status);

  /// Combined exchange, deadlock-free for symmetric neighbour patterns.
  template <class T>
  Status sendrecv(int dest, int send_tag, std::span<const T> send_data,
                  int source, int recv_tag, std::span<T> recv_buffer) {
    send<T>(dest, send_tag, send_data);
    return recv<T>(source, recv_tag, recv_buffer);
  }

  // ---- collectives (must be called by every rank of the group, with
  //      matching arguments, in the same order) ----

  void barrier();

  /// Replicate `data` from `root` to all ranks (in place).
  template <class T>
  void broadcast(std::span<T> data, int root);

  /// Elementwise reduction into `out` at `root` (other ranks may pass an
  /// empty span).  Deterministic: folds rank 0, 1, ..., P-1.
  template <class T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op, int root);

  /// Reduction delivered to every rank (the workhorse of P-AutoClass).
  template <class T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// In-place allreduce (input and output alias).
  template <class T>
  void allreduce_inplace(std::span<T> io, ReduceOp op) {
    allreduce<T>(std::span<const T>(io.data(), io.size()), io, op);
  }

  /// Scalar allreduce convenience.
  double allreduce_scalar(double value, ReduceOp op = ReduceOp::kSum) {
    double out = 0.0;
    allreduce<double>(std::span<const double>(&value, 1),
                      std::span<double>(&out, 1), op);
    return out;
  }

  /// Concatenate every rank's `in` block at `root` (out size = P * in size).
  template <class T>
  void gather(std::span<const T> in, std::span<T> out, int root);

  /// Concatenate every rank's block on every rank.
  template <class T>
  void allgather(std::span<const T> in, std::span<T> out);

  /// Convenience: allgather a single value per rank.
  template <class T>
  std::vector<T> allgather_value(const T& value) {
    std::vector<T> out(group_.size());
    allgather<T>(std::span<const T>(&value, 1), std::span<T>(out));
    return out;
  }

  /// Distribute contiguous blocks of `in` at `root` (in size = P * out size).
  template <class T>
  void scatter(std::span<const T> in, std::span<T> out, int root);

  /// Inclusive prefix reduction: out on rank r = fold(in_0 .. in_r).
  template <class T>
  void scan(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Personalized exchange: block s of rank r's `in` lands as block r of
  /// rank s's `out`; both spans have size P * block.
  template <class T>
  void alltoall(std::span<const T> in, std::span<T> out, std::size_t block);

  /// Elementwise reduction of P*block inputs followed by a scatter: rank r
  /// receives block r of the reduced vector (MPI_Reduce_scatter_block).
  template <class T>
  void reduce_scatter(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Exclusive prefix reduction: rank 0's output is untouched; rank r > 0
  /// gets fold(in_0 .. in_{r-1}) (MPI_Exscan).
  template <class T>
  void exscan(std::span<const T> in, std::span<T> out, ReduceOp op);

  /// Partition the group by `color` (ranks with equal color form a new
  /// communicator, ordered by (key, rank)).  A negative color yields an
  /// invalid Comm (valid() == false) for that rank.
  Comm split(int color, int key);

  /// False for the result of split() with negative color.
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class World;

  Comm() = default;

  void deliver(int dest_group_rank, int tag, const void* bytes,
               std::size_t nbytes);

  /// Blocking type-erased receive core (shared by recv and wait).
  Status recv_bytes(int source, int tag, void* buffer, std::size_t capacity);

  /// Copy a matched message into `buffer`, close the receive begun at
  /// `start` (op_end: modeled transfer or measured wall time), and build the
  /// Status.  The single completion path of recv, wait and test.
  Status absorb(Message&& msg, void* buffer, std::size_t capacity,
                double start);

  /// Group rank of member `world_rank`.
  int group_rank_of(int world_rank) const noexcept;

  // ---- time accounting: the only code that tells the backends apart ----

  /// Communication and idle seconds one operation was charged.
  struct Charged {
    double comm = 0.0;
    double idle = 0.0;
  };

  /// Start an operation and return its start time.  On the wall clock the
  /// gap since the previous operation is first booked as compute time.
  double op_begin();

  /// Close an operation begun at `start`.  Modeled clock: the rank moves to
  /// `ready` (never backwards), `cost` is communication time and a positive
  /// `wait` idle time.  Wall clock: the measured span is communication time
  /// and the modeled figures are ignored.
  Charged op_end(double start, double ready, double cost, double wait);

  // ---- collectives (comm_dist.cpp): one leader-based algorithm per kind
  //      over pt2pt frames on coll_context(), for every backend ----

  /// Context reserved for this comm's internal collective traffic, so user
  /// wildcard receives/probes never observe collective frames.
  int coll_context() const noexcept { return context_ + (1 << 28); }

  /// One collective call in flight: what it is charged for, when this rank
  /// arrived, and the tag of its frames.
  struct Round {
    net::CollectiveKind kind;
    std::size_t bytes;
    double arrival;
    double cost;  // modeled network time of the whole collective
    int tag;
  };

  Round coll_begin(net::CollectiveKind kind, std::size_t bytes);
  /// Leave the collective at completion time `done` (modeled) and book it.
  void coll_end(const Round& round, double done);

  /// Frame helpers.  Internal hops are neither charged nor counted as
  /// messages: the enclosing collective books itself.  `stamp` travels in
  /// Message::send_time (an arrival or a completion time).
  void coll_send(int dest, int tag, const void* bytes, std::size_t nbytes,
                 double stamp);
  /// Receive exactly `nbytes` from `source`; returns the frame's stamp.
  double coll_recv(int source, int tag, void* buffer, std::size_t nbytes);

  /// Leader side: land every rank's `nbytes` contribution in block r of
  /// `all` (the leader's own copied from `in`) and return the latest
  /// arrival.
  double coll_gather(const Round& round, const void* in, void* all,
                     std::size_t nbytes);
  /// Leader side: send every other rank r `nbytes` from `blocks + r *
  /// stride` (stride 0: the same bytes to all), stamped `done`.
  void coll_release(const Round& round, const void* blocks,
                    std::size_t stride, std::size_t nbytes, double done);
  /// Non-leader side: send `up` stamped with the arrival, receive `down`
  /// from `leader`, and return the completion time it carries.
  double coll_exchange(const Round& round, int leader, const void* up,
                       std::size_t up_bytes, void* down,
                       std::size_t down_bytes);

  void broadcast_bytes(void* data, std::size_t nbytes, int root);
  void reduce_bytes(const void* in, void* out, std::size_t nbytes,
                    const detail::Reduction& reduction, int root);
  void allreduce_bytes(const void* in, void* out, std::size_t nbytes,
                       const detail::Reduction& reduction);
  void gather_bytes(const void* in, void* out, std::size_t nbytes, int root);
  void allgather_bytes(const void* in, void* out, std::size_t nbytes);
  void scatter_bytes(const void* in, void* out, std::size_t nbytes, int root);
  void scan_bytes(const void* in, void* out, std::size_t nbytes,
                  const detail::Reduction& reduction, bool exclusive);
  void alltoall_bytes(const void* in, void* out, std::size_t block_bytes);
  void reduce_scatter_bytes(const void* in, void* out,
                            std::size_t block_bytes,
                            const detail::Reduction& reduction);

  detail::RankState* state_ = nullptr;
  const net::NetworkModel* network_ = nullptr;
  const net::CostBook* costs_ = nullptr;
  transport::Transport* transport_ = nullptr;
  transport::TimeSource* time_ = nullptr;  // wall clock (socket backend)
  std::vector<int> group_;  // group rank -> world rank
  int group_rank_ = 0;
  int context_ = 0;
  int split_seq_ = 0;  // per-comm counter for deterministic split keys
  std::uint32_t coll_seq_ = 0;  // tag counter for collective frames
  bool kahan_ = false;
  bool distributed_ = false;
};

/// A modeled multicomputer running SPMD jobs.
class World {
 public:
  struct Config {
    /// Message-passing backend.  kInProcess is the default modeled runtime
    /// (ranks as threads, virtual time, deterministic); kSocket runs this
    /// process as ONE rank of a multi-process world over real sockets
    /// (wall-clock time); kHybrid is kSocket with same-host peers routed
    /// over shared-memory rings — see src/mp/transport/.
    enum class Backend { kInProcess, kSocket, kHybrid };

    int num_ranks = 1;
    net::Machine machine = net::ideal_machine();
    /// Use compensated summation in floating-point sum reductions.
    bool kahan_reductions = false;
    /// Unused: per-operation events come from `instrument` (RunStats::
    /// events).  Kept only because perfbench/search.cpp still sets it.
    bool trace = false;
    /// Build a per-rank trace::Recorder (metrics + event ring) and merge
    /// them into RunStats at finalize.  Defaults to the PAUTOCLASS_TRACE
    /// environment toggle; a no-op when the layer is compiled out
    /// (PAC_TRACE=OFF).
    bool instrument = trace::env_enabled();
    /// Per-rank event-ring capacity when instrumenting.
    std::size_t instrument_ring = trace::EventRing::kDefaultCapacity;

    Backend backend = Backend::kInProcess;
    /// Socket-backend parameters; normally filled from the pac_launch
    /// environment by transport::apply_env_backend().  With kSocket,
    /// num_ranks must equal socket.size (this process is rank socket.rank).
    struct Socket {
      std::string address;  // rendezvous: "unix:/path" or "host:port"
      int rank = -1;
      int size = 0;
      double connect_timeout = 30.0;  // seconds to retry the rendezvous
    } socket;
    /// Hybrid-backend parameters (ignored unless backend == kHybrid);
    /// normally filled from the pac_launch environment (PACNET_HOST_TOKEN,
    /// PACNET_SHM_FDS, PACNET_SHM_SPIN) by transport::apply_env_backend().
    struct Shm {
      /// Host identity advertised in the rendezvous (0 = socket-only).
      std::uint64_t host_token = 0;
      /// (peer world rank, inherited segment fd) pairs; ownership passes
      /// to the transport when the world forms.
      std::vector<std::pair<int, int>> fds;
      /// Ring-waiter spin iterations before parking (0 = default).
      std::uint32_t spin_iters = 0;
    } shm;
  };

  explicit World(Config config);
  ~World();

  /// Run `fn` as rank 0..P-1 concurrently; blocks until all finish.
  /// If any rank throws, the world is aborted and the first error rethrown.
  /// On the socket backend this process executes only its own rank, and the
  /// call blocks until every rank of the distributed world reaches the
  /// final stats exchange.
  RunStats run(const std::function<void(Comm&)>& fn);

  const Config& config() const noexcept { return config_; }
  int num_ranks() const noexcept { return config_.num_ranks; }

 private:
  friend class Comm;

  Mailbox& mailbox(int world_rank) { return *mailboxes_[world_rank]; }

  RunStats run_modeled(const std::function<void(Comm&)>& fn);
  RunStats run_distributed(const std::function<void(Comm&)>& fn);

  Config config_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  /// Lazily-formed socket world, reused across run() calls (world formation
  /// is a heavyweight rendezvous; tests run several searches per process).
  std::unique_ptr<transport::SocketTransport> socket_transport_;
};

// ---- template implementations ----

template <class T>
void Comm::send(int dest, int tag, std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>,
                "minimpi transfers raw bytes; T must be trivially copyable");
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(dest >= 0 && dest < size(), "send dest out of range");
  PAC_REQUIRE(tag >= 0);
  deliver(dest, tag, data.data(), data.size_bytes());
}

template <class T>
Status Comm::recv(int source, int tag, std::span<T> buffer) {
  static_assert(std::is_trivially_copyable_v<T>,
                "minimpi transfers raw bytes; T must be trivially copyable");
  PAC_REQUIRE(valid());
  PAC_REQUIRE_MSG(source == kAnySource || (source >= 0 && source < size()),
                  "recv source out of range");
  return recv_bytes(source, tag, buffer.data(), buffer.size_bytes());
}

template <class T>
void Comm::broadcast(std::span<T> data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(root >= 0 && root < size());
  broadcast_bytes(data.data(), data.size_bytes(), root);
}

template <class T>
void Comm::reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                  int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(root >= 0 && root < size());
  if (rank() == root) PAC_REQUIRE(out.size() == in.size());
  reduce_bytes(in.data(), out.data(), in.size_bytes(),
               detail::reduction_for<T>(op, /*kahan=*/false), root);
}

template <class T>
void Comm::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size());
  allreduce_bytes(in.data(), out.data(), in.size_bytes(),
                  detail::reduction_for<T>(op, kahan_));
}

template <class T>
void Comm::gather(std::span<const T> in, std::span<T> out, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(root >= 0 && root < size());
  if (rank() == root)
    PAC_REQUIRE(out.size() == in.size() * static_cast<std::size_t>(size()));
  gather_bytes(in.data(), out.data(), in.size_bytes(), root);
}

template <class T>
void Comm::allgather(std::span<const T> in, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size() * static_cast<std::size_t>(size()));
  allgather_bytes(in.data(), out.data(), in.size_bytes());
}

template <class T>
void Comm::scatter(std::span<const T> in, std::span<T> out, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(root >= 0 && root < size());
  if (rank() == root)
    PAC_REQUIRE(in.size() == out.size() * static_cast<std::size_t>(size()));
  scatter_bytes(in.data(), out.data(), out.size_bytes(), root);
}

template <class T>
void Comm::scan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size());
  scan_bytes(in.data(), out.data(), in.size_bytes(),
             detail::reduction_for<T>(op, /*kahan=*/false),
             /*exclusive=*/false);
}

template <class T>
void Comm::alltoall(std::span<const T> in, std::span<T> out,
                    std::size_t block) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  const auto p = static_cast<std::size_t>(size());
  PAC_REQUIRE(in.size() == block * p);
  PAC_REQUIRE(out.size() == block * p);
  alltoall_bytes(in.data(), out.data(), block * sizeof(T));
}

template <class T>
void Comm::reduce_scatter(std::span<const T> in, std::span<T> out,
                          ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(in.size() == out.size() * static_cast<std::size_t>(size()));
  reduce_scatter_bytes(in.data(), out.data(), out.size_bytes(),
                       detail::reduction_for<T>(op, /*kahan=*/false));
}

template <class T>
void Comm::exscan(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size());
  scan_bytes(in.data(), out.data(), in.size_bytes(),
             detail::reduction_for<T>(op, /*kahan=*/false),
             /*exclusive=*/true);
}

}  // namespace pac::mp
