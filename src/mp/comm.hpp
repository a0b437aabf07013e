// minimpi: an MPI-flavoured message-passing runtime with ranks-as-threads
// and modeled (virtual) time.
//
// A World owns P ranks.  World::run(fn) executes fn(Comm&) on every rank
// concurrently — SPMD, exactly like `mpirun -np P`.  Ranks communicate only
// through their Comm:
//
//   * tagged point-to-point send/recv and a non-blocking probe (iprobe)
//     with MPI matching semantics,
//   * deterministic collectives (Barrier, Bcast, Allreduce, Allgather) that
//     combine contributions in rank order, and
//   * communicator splitting (Comm::split) for subgroup algorithms.
//
// That is the whole surface P-AutoClass calls: local sums plus an Allreduce
// per EM step, and Bcast/Allgather/Barrier/split and tagged messages around
// the search.  Add an operation when a program needs it.
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
// which the paper's Figures 6-8 are rebuilt.  Every count and per-operation
// record comes from each rank's trace::Recorder: its registry (always on)
// holds the "mp.<op>.*" entries RunStats' totals are derived from, and its
// event ring (an "mp" span per send, recv and collective) is kept only when
// World::Config::instrument asks for it.
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

namespace detail {

/// Cached metric handles for the message-passing hot paths, resolved once
/// per rank so recording a collective costs four pointer dereferences, not
/// four map lookups.
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
};

/// Per-rank mutable state shared by all communicators of that rank.
struct RankState {
  int world_rank = 0;
  /// The clock and its ledger are the time model, with no registry twin;
  /// as registry entries they would add lines to the golden reports.
  double clock = 0.0;         // virtual seconds
  double compute_time = 0.0;  // sum of charge() calls
  double comm_time = 0.0;     // modeled network time
  double idle_time = 0.0;     // waiting on slower ranks in collectives
  /// The rank's only counter store and its event sink, owned by this rank's
  /// thread; World::run derives RunStats from it after the join.
  std::unique_ptr<trace::Recorder> recorder;
  MpMetricHandles mp;

  /// Create the recorder (`ring_capacity` 0: no event ring) and resolve
  /// the metric handles (comm.cpp).
  void init_recorder(std::size_t ring_capacity);
};

template <class T>
T apply_op(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return static_cast<T>(a + b);
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return a < b ? b : a;
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

/// How a reducing collective folds its contributions: one rank-ordered
/// elementwise fold, the same on every backend.
struct Reduction {
  ReduceOp op = ReduceOp::kSum;
  CombineFn combine = nullptr;
  std::size_t elem_size = 1;
};

template <class T>
Reduction reduction_for(ReduceOp op) noexcept {
  return Reduction{op, &combine_elems<T>, sizeof(T)};
}

/// Thread-local grow-only scratch arena.  The EM hot path runs thousands
/// of small allreduces per search; the leader's fold borrows it instead of
/// allocating per call.  Alignment is operator-new's (sufficient for every
/// trivially copyable element type minimpi moves).  May return nullptr for
/// 0 bytes.
std::byte* scratch_buffer(std::size_t bytes);

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
  /// Every rank's registry merged in rank order, on every backend; the
  /// totals above are read from its "mp.*" entries.
  metrics::Registry metrics;
  /// True when events were kept (Config::instrument): `events` holds the
  /// merged rings sorted by (start, rank), on the socket and hybrid
  /// backends this process's rank only.
  bool instrumented = false;
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

  const net::CostBook& costs() const noexcept { return *costs_; }

  /// This rank's instrumentation sink (shared by all communicators of the
  /// rank, split or not); nullptr only on an invalid Comm.
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

  /// Non-blocking probe (MPI_Iprobe); true if a matching message is queued,
  /// with its source/tag/size in `status`.  wire::try_recv_blob drains the
  /// group search's leaderboard exchange through it.
  bool iprobe(int source, int tag, Status& status);

  // ---- collectives (must be called by every rank of the group, with
  //      matching arguments, in the same order) ----

  void barrier();

  /// Replicate `data` from `root` to all ranks (in place).
  template <class T>
  void broadcast(std::span<T> data, int root);

  /// Elementwise reduction delivered to every rank (the workhorse of
  /// P-AutoClass).  Deterministic: folds rank 0, 1, ..., P-1.
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

  /// Blocking type-erased receive core: match, copy the message into
  /// `buffer`, close the receive (op_end: modeled transfer or measured wall
  /// time), and build the Status.
  Status recv_bytes(int source, int tag, void* buffer, std::size_t capacity);

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
  /// wildcard receives and iprobes never observe collective frames.
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
  /// Leader side: send every other rank the same `nbytes` from `bytes`,
  /// stamped `done`.
  void coll_release(const Round& round, const void* bytes,
                    std::size_t nbytes, double done);
  /// Non-leader side: send `up` stamped with the arrival, receive `down`
  /// from `leader`, and return the completion time it carries.
  double coll_exchange(const Round& round, int leader, const void* up,
                       std::size_t up_bytes, void* down,
                       std::size_t down_bytes);

  void broadcast_bytes(void* data, std::size_t nbytes, int root);
  void allreduce_bytes(const void* in, void* out, std::size_t nbytes,
                       const detail::Reduction& reduction);
  void allgather_bytes(const void* in, void* out, std::size_t nbytes);

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
    /// Unused: per-operation events come from `instrument` (RunStats::
    /// events).  Kept only because perfbench/search.cpp still sets it.
    bool trace = false;
    /// Keep a per-rank event ring and merge it into RunStats::events at
    /// finalize.  Only the ring: every rank's registry is always on.
    /// Defaults to the PAUTOCLASS_TRACE environment toggle.
    bool instrument = trace::env_enabled();
    /// Per-rank event-ring capacity when instrumenting (0: no events).
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
void Comm::allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size());
  allreduce_bytes(in.data(), out.data(), in.size_bytes(),
                  detail::reduction_for<T>(op));
}

template <class T>
void Comm::allgather(std::span<const T> in, std::span<T> out) {
  static_assert(std::is_trivially_copyable_v<T>);
  PAC_REQUIRE(valid());
  PAC_REQUIRE(out.size() == in.size() * static_cast<std::size_t>(size()));
  allgather_bytes(in.data(), out.data(), in.size_bytes());
}

}  // namespace pac::mp
