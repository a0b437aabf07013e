#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "mp/comm.hpp"
#include "mp/transport/hybrid_transport.hpp"
#include "mp/transport/inprocess.hpp"
#include "mp/transport/socket_transport.hpp"
#include "util/log.hpp"

namespace pac::mp {

World::World(Config config) : config_(std::move(config)) {
  PAC_REQUIRE_MSG(config_.num_ranks >= 1 && config_.num_ranks <= 4096,
                  "num_ranks must be in [1, 4096], got "
                      << config_.num_ranks);
  PAC_REQUIRE(config_.machine.network != nullptr);
  mailboxes_.reserve(config_.num_ranks);
  for (int r = 0; r < config_.num_ranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

World::~World() = default;

RunStats World::run(const std::function<void(Comm&)>& fn) {
  PAC_REQUIRE(fn != nullptr);
  if (config_.backend == Config::Backend::kSocket ||
      config_.backend == Config::Backend::kHybrid)
    return run_distributed(fn);
  return run_modeled(fn);
}

RunStats World::run_modeled(const std::function<void(Comm&)>& fn) {
  const int p = config_.num_ranks;
  // One state per rank, in place for the whole run (never resized).
  std::vector<detail::RankState> ranks(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) ranks[r].world_rank = r;
  for (auto& box : mailboxes_) box->reset();
  if constexpr (trace::compiled_in()) {
    if (config_.instrument)
      for (auto& rs : ranks) rs.init_instrumentation(config_.instrument_ring);
  }

  std::vector<std::exception_ptr> errors(p);
  std::vector<char> aborted(p, 0);

  // The mailbox data path, factored behind the Transport interface: one
  // instance per rank so recv/peek always act on the owner's inbox.
  std::vector<Mailbox*> boxes;
  boxes.reserve(p);
  for (auto& box : mailboxes_) boxes.push_back(box.get());
  std::vector<transport::InProcessTransport> transports;
  transports.reserve(p);
  for (int r = 0; r < p; ++r) transports.emplace_back(boxes, r);

  const auto start = std::chrono::steady_clock::now();
  auto body = [&](int rank) {
    Comm comm;
    comm.state_ = &ranks[rank];
    comm.network_ = config_.machine.network.get();
    comm.costs_ = &config_.machine.costs;
    comm.transport_ = &transports[rank];
    comm.kahan_ = config_.kahan_reductions;
    comm.group_.resize(p);
    for (int r = 0; r < p; ++r) comm.group_[r] = r;
    comm.group_rank_ = rank;
    comm.context_ = 0;
    try {
      fn(comm);
    } catch (const Aborted&) {
      aborted[rank] = 1;
    } catch (...) {
      errors[rank] = std::current_exception();
      // Every blocked rank, in a collective or not, waits in a mailbox.
      for (auto& box : mailboxes_) box->abort();
    }
  };

  if (p == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(p);
    for (int r = 0; r < p; ++r) threads.emplace_back(body, r);
    for (auto& t : threads) t.join();
  }
  const auto stop = std::chrono::steady_clock::now();

  for (int r = 0; r < p; ++r)
    if (errors[r]) std::rethrow_exception(errors[r]);

  RunStats stats;
  stats.num_ranks = p;
  stats.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  stats.rank_finish.resize(p);
  stats.rank_compute.resize(p);
  stats.rank_comm.resize(p);
  stats.rank_idle.resize(p);
  for (int r = 0; r < p; ++r) {
    const auto& rs = ranks[r];
    stats.rank_finish[r] = rs.clock;
    stats.rank_compute[r] = rs.compute_time;
    stats.rank_comm[r] = rs.comm_time;
    stats.rank_idle[r] = rs.idle_time;
    stats.virtual_time = std::max(stats.virtual_time, rs.clock);
    stats.total_collectives += rs.collectives;
    stats.total_messages += rs.messages_sent;
    stats.total_bytes += rs.bytes_sent;
    for (std::size_t k = 0; k < rs.collective_calls.size(); ++k) {
      stats.collective_calls[k] += rs.collective_calls[k];
      stats.collective_seconds[k] += rs.collective_seconds[k];
    }
  }
  // Finalize the instrumented run: fold every rank's registry and event
  // ring into the merged RunStats view (ranks have joined; no locks
  // needed).  Deterministic: ranks fold in rank order and the event sort
  // is stable over a rank-ordered concatenation.
  if constexpr (trace::compiled_in()) {
    if (config_.instrument) {
      stats.instrumented = true;
      for (auto& rs : ranks) {
        if (rs.recorder == nullptr) continue;
        stats.metrics.merge_from(rs.recorder->metrics());
        const std::vector<trace::Event> events = rs.recorder->events().snapshot();
        stats.events.insert(stats.events.end(), events.begin(), events.end());
        stats.events_dropped += rs.recorder->events().dropped();
      }
      std::stable_sort(stats.events.begin(), stats.events.end(),
                       [](const trace::Event& a, const trace::Event& b) {
                         return a.start < b.start;
                       });
    }
  }
  // Leaked (never received) messages indicate a protocol bug in user code.
  for (int r = 0; r < p; ++r) {
    if (mailboxes_[r]->pending() > 0) {
      PAC_LOG_WARN << "rank " << r << " finished with "
                   << mailboxes_[r]->pending() << " undelivered message(s)";
    }
  }
  return stats;
}

namespace {

/// Per-rank stats snapshot exchanged at the end of a distributed run so
/// every process returns the same RunStats.  Trivially copyable on purpose.
struct StatBlock {
  double finish = 0.0;
  double compute = 0.0;
  double comm = 0.0;
  double idle = 0.0;
  std::uint64_t collectives = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, kNumCollectiveKinds> calls{};
  std::array<double, kNumCollectiveKinds> seconds{};
};

}  // namespace

RunStats World::run_distributed(const std::function<void(Comm&)>& fn) {
  const Config::Socket& sock = config_.socket;
  PAC_REQUIRE_MSG(sock.size >= 1 && sock.rank >= 0 && sock.rank < sock.size,
                  "socket backend needs a valid rank/size pair; run under "
                  "pac_launch (transport::apply_env_backend) or fill "
                  "Config::socket explicitly");
  PAC_REQUIRE_MSG(config_.num_ranks == sock.size,
                  "socket backend: num_ranks ("
                      << config_.num_ranks << ") must equal socket.size ("
                      << sock.size << ")");
  if (socket_transport_ == nullptr) {
    transport::SocketOptions opts;
    opts.address = sock.address;
    opts.rank = sock.rank;
    opts.size = sock.size;
    opts.connect_timeout = sock.connect_timeout;
    if (config_.backend == Config::Backend::kHybrid) {
      transport::HybridOptions hopts;
      opts.host_token = config_.shm.host_token;
      hopts.socket = opts;
      hopts.shm_fds = config_.shm.fds;
      hopts.shm_spin = config_.shm.spin_iters;
      // Segment fds transfer to the transport; a second world formation in
      // this process must not hand them over again.
      config_.shm.fds.clear();
      socket_transport_ =
          std::make_unique<transport::HybridTransport>(std::move(hopts));
    } else {
      socket_transport_ = std::make_unique<transport::SocketTransport>(opts);
    }
  }
  const int p = sock.size;
  const int me = sock.rank;

  // This process hosts exactly one rank; peers run in their own processes.
  detail::RankState rs;
  rs.world_rank = me;
  if constexpr (trace::compiled_in()) {
    if (config_.instrument) rs.init_instrumentation(config_.instrument_ring);
  }

  Comm comm;
  comm.state_ = &rs;
  comm.network_ = config_.machine.network.get();
  comm.costs_ = &config_.machine.costs;
  comm.transport_ = socket_transport_.get();
  comm.time_ = &socket_transport_->time();
  comm.distributed_ = true;
  comm.kahan_ = config_.kahan_reductions;
  comm.group_.resize(p);
  std::iota(comm.group_.begin(), comm.group_.end(), 0);
  comm.group_rank_ = me;
  comm.context_ = 0;

  const auto start = std::chrono::steady_clock::now();
  comm.barrier();  // align rank start times before user work
  fn(comm);

  // Snapshot local stats, then allgather so every rank reports the whole
  // world (the exchange itself is excluded from the snapshot).
  StatBlock mine;
  mine.finish = rs.clock;
  mine.compute = rs.compute_time;
  mine.comm = rs.comm_time;
  mine.idle = rs.idle_time;
  mine.collectives = rs.collectives;
  mine.messages = rs.messages_sent;
  mine.bytes = rs.bytes_sent;
  mine.calls = rs.collective_calls;
  mine.seconds = rs.collective_seconds;
  std::vector<StatBlock> all(p);
  comm.allgather<StatBlock>(std::span<const StatBlock>(&mine, 1),
                            std::span<StatBlock>(all));
  const auto stop = std::chrono::steady_clock::now();

  RunStats stats;
  stats.num_ranks = p;
  stats.wall_seconds = std::chrono::duration<double>(stop - start).count();
  stats.rank_finish.resize(p);
  stats.rank_compute.resize(p);
  stats.rank_comm.resize(p);
  stats.rank_idle.resize(p);
  for (int r = 0; r < p; ++r) {
    const StatBlock& b = all[r];
    stats.rank_finish[r] = b.finish;
    stats.rank_compute[r] = b.compute;
    stats.rank_comm[r] = b.comm;
    stats.rank_idle[r] = b.idle;
    stats.virtual_time = std::max(stats.virtual_time, b.finish);
    stats.total_collectives += b.collectives;
    stats.total_messages += b.messages;
    stats.total_bytes += b.bytes;
    for (std::size_t k = 0; k < b.calls.size(); ++k) {
      stats.collective_calls[k] += b.calls[k];
      stats.collective_seconds[k] += b.seconds[k];
    }
  }
  // The instrumentation view is per-process: only this rank's events and
  // metrics are available locally (peers live in other address spaces).
  if constexpr (trace::compiled_in()) {
    if (config_.instrument && rs.recorder != nullptr) {
      stats.instrumented = true;
      trace::Recorder& rec = *rs.recorder;
      // Wire-level route breakdown from the transport (cumulative since
      // world formation — the recorder is fresh per run, so these read as
      // totals at the end of this run).
      const transport::TransportStats ts = socket_transport_->stats();
      auto& reg = rec.metrics();
      reg.counter("mp.transport.messages_sent").add(ts.messages_sent);
      reg.counter("mp.transport.bytes_sent").add(ts.bytes_sent);
      reg.counter("mp.transport.messages_received").add(ts.messages_received);
      reg.counter("mp.transport.bytes_received").add(ts.bytes_received);
      if (ts.shm_peers > 0) {
        reg.counter("mp.transport.shm.peers").add(ts.shm_peers);
        reg.counter("mp.transport.shm.messages_sent").add(ts.shm_messages_sent);
        reg.counter("mp.transport.shm.bytes_sent").add(ts.shm_bytes_sent);
        reg.counter("mp.transport.shm.messages_received")
            .add(ts.shm_messages_received);
        reg.counter("mp.transport.shm.bytes_received")
            .add(ts.shm_bytes_received);
        reg.counter("mp.transport.shm.wakeups").add(ts.shm_wakeups);
        reg.counter("mp.transport.shm.waits").add(ts.shm_waits);
      }
      stats.metrics.merge_from(rec.metrics());
      stats.events = rec.events().snapshot();
      stats.events_dropped = rec.events().dropped();
    }
  }
  return stats;
}

}  // namespace pac::mp
