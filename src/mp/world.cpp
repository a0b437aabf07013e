#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "mp/comm.hpp"
#include "mp/transport/hybrid_transport.hpp"
#include "mp/transport/inprocess.hpp"
#include "mp/transport/socket_transport.hpp"
#include "mp/wire.hpp"
#include "util/log.hpp"

namespace pac::mp {

namespace {

/// What one rank contributes to its world's RunStats: its clock ledger, its
/// registry, and its event ring where this process holds it.
struct RankShare {
  double ledger[4];  // finish, compute, comm, idle
  const metrics::Registry* metrics;
  const trace::EventRing* events;  // null: held by another process
};

RankShare share_of(const detail::RankState& rs) {
  return {{rs.clock, rs.compute_time, rs.comm_time, rs.idle_time},
          &rs.recorder->metrics(),
          &rs.recorder->events()};
}

/// Builds RunStats on every backend.  Ranks fold in rank order, so every
/// merged sum adds the per-rank sums in one fixed order (the exact
/// VirtualTime.* expectations pin it), and the event sort is stable over a
/// rank-ordered concatenation.
RunStats finalize(std::span<const RankShare> ranks, double wall_seconds,
                  bool instrumented) {
  RunStats stats;
  stats.num_ranks = static_cast<int>(ranks.size());
  stats.wall_seconds = wall_seconds;
  stats.instrumented = instrumented;
  for (const RankShare& rs : ranks) {
    stats.rank_finish.push_back(rs.ledger[0]);
    stats.rank_compute.push_back(rs.ledger[1]);
    stats.rank_comm.push_back(rs.ledger[2]);
    stats.rank_idle.push_back(rs.ledger[3]);
    stats.virtual_time = std::max(stats.virtual_time, rs.ledger[0]);
    stats.metrics.merge_from(*rs.metrics);
    if (rs.events == nullptr) continue;
    const std::vector<trace::Event> events = rs.events->snapshot();
    stats.events.insert(stats.events.end(), events.begin(), events.end());
    stats.events_dropped += rs.events->dropped();
  }
  std::stable_sort(stats.events.begin(), stats.events.end(),
                   [](const trace::Event& a, const trace::Event& b) {
                     return a.start < b.start;
                   });
  for (std::size_t k = 0; k < kNumCollectiveKinds; ++k) {
    const std::string name =
        std::string("mp.") +
        net::to_string(static_cast<net::CollectiveKind>(k));
    stats.collective_calls[k] = stats.metrics.counter_value(name + ".calls");
    stats.collective_seconds[k] =
        stats.metrics.histogram_sum(name + ".seconds");
    stats.total_collectives += stats.collective_calls[k];
  }
  stats.total_messages = stats.metrics.counter_value("mp.send.calls");
  stats.total_bytes = stats.metrics.counter_value("mp.send.bytes");
  return stats;
}

/// Book one run's wire traffic.  The transport counts from world formation
/// on, so a run's share is the difference of two snapshots; the shm peer
/// count is fixed at bootstrap and stays absolute.
void record_transport(metrics::Registry& reg,
                      const transport::TransportStats& before,
                      const transport::TransportStats& after) {
  using TS = transport::TransportStats;
  const auto add = [&](const char* name, std::uint64_t TS::*field) {
    reg.counter(name).add(after.*field - before.*field);
  };
  add("mp.transport.messages_sent", &TS::messages_sent);
  add("mp.transport.bytes_sent", &TS::bytes_sent);
  add("mp.transport.messages_received", &TS::messages_received);
  add("mp.transport.bytes_received", &TS::bytes_received);
  if (after.shm_peers == 0) return;
  reg.counter("mp.transport.shm.peers").add(after.shm_peers);
  add("mp.transport.shm.messages_sent", &TS::shm_messages_sent);
  add("mp.transport.shm.bytes_sent", &TS::shm_bytes_sent);
  add("mp.transport.shm.messages_received", &TS::shm_messages_received);
  add("mp.transport.shm.bytes_received", &TS::shm_bytes_received);
  add("mp.transport.shm.wakeups", &TS::shm_wakeups);
  add("mp.transport.shm.waits", &TS::shm_waits);
}

/// The blob the distributed finalize exchanges: the ledger, then
/// metrics::encode of the registry.
std::string encode_share(const RankShare& share) {
  return std::string(reinterpret_cast<const char*>(share.ledger),
                     sizeof share.ledger) +
         metrics::encode(*share.metrics);
}

/// Inverse of encode_share, decoding into `registry`; throws pac::Error on a
/// malformed blob.
RankShare decode_share(std::string_view blob, metrics::Registry& registry) {
  RankShare share{{}, &registry, nullptr};
  PAC_REQUIRE_MSG(blob.size() >= sizeof share.ledger,
                  "finalize blob of " << blob.size() << " bytes is truncated");
  std::memcpy(share.ledger, blob.data(), sizeof share.ledger);
  registry = metrics::decode(blob.substr(sizeof share.ledger));
  return share;
}

}  // namespace

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
  for (int r = 0; r < p; ++r) {
    ranks[r].world_rank = r;
    ranks[r].init_recorder(config_.instrument ? config_.instrument_ring : 0);
  }
  for (auto& box : mailboxes_) box->reset();

  std::vector<std::exception_ptr> errors(p);
  std::vector<char> aborted(p, 0);

  // The mailbox data path, factored behind the Transport interface: one
  // instance per rank so recv and try_peek always act on the owner's inbox.
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

  std::vector<RankShare> shares;
  for (const detail::RankState& rs : ranks) shares.push_back(share_of(rs));
  RunStats stats =
      finalize(shares, std::chrono::duration<double>(stop - start).count(),
               config_.instrument);
  // Leaked (never received) messages indicate a protocol bug in user code.
  for (int r = 0; r < p; ++r) {
    if (mailboxes_[r]->pending() > 0) {
      PAC_LOG_WARN << "rank " << r << " finished with "
                   << mailboxes_[r]->pending() << " undelivered message(s)";
    }
  }
  return stats;
}

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
  rs.init_recorder(config_.instrument ? config_.instrument_ring : 0);

  Comm comm;
  comm.state_ = &rs;
  comm.network_ = config_.machine.network.get();
  comm.costs_ = &config_.machine.costs;
  comm.transport_ = socket_transport_.get();
  comm.time_ = &socket_transport_->time();
  comm.distributed_ = true;
  comm.group_.resize(p);
  std::iota(comm.group_.begin(), comm.group_.end(), 0);
  comm.group_rank_ = me;
  comm.context_ = 0;

  const transport::TransportStats wire_before = socket_transport_->stats();
  const auto start = std::chrono::steady_clock::now();
  comm.barrier();  // align rank start times before user work
  fn(comm);

  // Encode this rank's share before the exchange, so the exchange itself
  // stays uncounted, then rebuild every rank's share from the blobs: every
  // process returns the same RunStats.
  record_transport(rs.recorder->metrics(), wire_before,
                   socket_transport_->stats());
  const std::vector<std::string> blobs =
      wire::allgather_blobs(comm, encode_share(share_of(rs)));
  const auto stop = std::chrono::steady_clock::now();
  std::vector<metrics::Registry> registries(blobs.size());
  std::vector<RankShare> shares;
  for (std::size_t r = 0; r < blobs.size(); ++r)
    shares.push_back(decode_share(blobs[r], registries[r]));
  // Events stay per-process: only this rank's ring is at hand.
  shares[static_cast<std::size_t>(me)].events = &rs.recorder->events();
  return finalize(shares, std::chrono::duration<double>(stop - start).count(),
                  config_.instrument);
}

}  // namespace pac::mp
