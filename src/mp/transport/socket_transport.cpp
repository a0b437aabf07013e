#include "mp/transport/socket_transport.hpp"

#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace pac::mp::transport {

namespace {

constexpr std::uint32_t kMagic = kFrameMagic;
// v2 added the host token to HelloFrame and the token table to the
// rendezvous reply (hybrid same-host routing).
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kAddrBytes = 120;
// Message frames (header layout, validation, payload-size hardening) live
// in mp/transport/frame.{hpp,cpp}; this file keeps only the rendezvous
// handshake frames.

/// Rendezvous hello from rank r > 0 to rank 0.
struct HelloFrame {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::int32_t rank = -1;
  std::int32_t size = 0;
  char listen_addr[kAddrBytes] = {};
  std::uint64_t host_token = 0;
};
static_assert(std::is_trivially_copyable_v<HelloFrame>);

/// Mesh-completion hello (identifies the connecting rank to its acceptor).
struct PeerHelloFrame {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::int32_t rank = -1;
};
static_assert(std::is_trivially_copyable_v<PeerHelloFrame>);

void copy_addr(char (&dst)[kAddrBytes], const std::string& addr) {
  if (addr.size() + 1 > kAddrBytes)
    throw TransportError("listen address too long for the handshake frame: " +
                         addr);
  std::memcpy(dst, addr.c_str(), addr.size() + 1);
}

}  // namespace

SocketTransport::SocketTransport(const SocketOptions& options)
    : SocketTransport(options, /*start_reader_threads=*/true) {}

SocketTransport::SocketTransport(const SocketOptions& options,
                                 bool start_reader_threads)
    : opts_(options) {
  if (opts_.size < 1 || opts_.rank < 0 || opts_.rank >= opts_.size)
    throw TransportError("invalid socket world: rank " +
                         std::to_string(opts_.rank) + " of " +
                         std::to_string(opts_.size));
  peers_.resize(static_cast<std::size_t>(opts_.size));
  peer_tokens_.assign(static_cast<std::size_t>(opts_.size), 0);
  send_mutexes_.resize(static_cast<std::size_t>(opts_.size));
  for (auto& m : send_mutexes_) m = std::make_unique<std::mutex>();
  send_seq_.assign(static_cast<std::size_t>(opts_.size), 0);
  inbox_.set_expected_sources(opts_.size - 1);
  rendezvous();
  if (start_reader_threads) start_readers();
}

void SocketTransport::start_readers() {
  readers_.reserve(static_cast<std::size_t>(opts_.size));
  for (int peer = 0; peer < opts_.size; ++peer) {
    if (peer == opts_.rank) continue;
    readers_.emplace_back([this, peer] { reader_loop(peer); });
  }
}

void SocketTransport::rendezvous() {
  const Endpoint rv = parse_endpoint(opts_.address);
  const int p = opts_.size;
  const int rank = opts_.rank;
  peer_tokens_[static_cast<std::size_t>(rank)] = opts_.host_token;
  if (p == 1) return;  // single-rank world: no peers, no listener

  // 1. Open this rank's listener.
  listen_ep_ = rv;
  if (rank != 0) {
    if (rv.is_unix)
      listen_ep_.path = rv.path + "." + std::to_string(rank);
    else
      listen_ep_.port = "0";  // ephemeral
  }
  std::string advertised;
  Fd listener = listen_on(listen_ep_, advertised);
  // Re-parse: for TCP the bound port may differ from the requested one.
  listen_ep_ = parse_endpoint(advertised);

  std::vector<std::string> table(static_cast<std::size_t>(p));
  table[0] = rank == 0 ? advertised : opts_.address;

  // The rendezvous reply: p address entries followed by p host tokens.
  const std::size_t wire_bytes = static_cast<std::size_t>(p) * kAddrBytes +
                                 static_cast<std::size_t>(p) * sizeof(std::uint64_t);

  if (rank == 0) {
    // 2/3. Collect hellos, then distribute the address + token tables.
    for (int i = 1; i < p; ++i) {
      Fd conn = accept_from(listener);
      HelloFrame hello;
      if (!read_full(conn, &hello, sizeof(hello), "rendezvous hello"))
        throw TransportError(
            "rendezvous: peer disconnected before sending its hello");
      if (hello.magic != kMagic)
        throw TransportError("rendezvous: bad magic in hello (wrong program "
                             "or byte order at the other end)");
      if (hello.version != kVersion)
        throw TransportError("rendezvous: protocol version mismatch (ours " +
                             std::to_string(kVersion) + ", theirs " +
                             std::to_string(hello.version) + ")");
      if (hello.size != p)
        throw TransportError(
            "rendezvous: world size mismatch: rank " +
            std::to_string(hello.rank) + " believes the world has " +
            std::to_string(hello.size) + " ranks, rank 0 expects " +
            std::to_string(p));
      if (hello.rank < 1 || hello.rank >= p)
        throw TransportError("rendezvous: hello from out-of-range rank " +
                             std::to_string(hello.rank));
      auto& slot = peers_[static_cast<std::size_t>(hello.rank)];
      if (slot.valid())
        throw TransportError("rendezvous: duplicate hello from rank " +
                             std::to_string(hello.rank));
      hello.listen_addr[kAddrBytes - 1] = '\0';
      table[static_cast<std::size_t>(hello.rank)] = hello.listen_addr;
      peer_tokens_[static_cast<std::size_t>(hello.rank)] = hello.host_token;
      slot = std::move(conn);
    }
    std::vector<char> wire(wire_bytes, '\0');
    for (int r = 0; r < p; ++r) {
      char entry[kAddrBytes] = {};
      copy_addr(entry, table[static_cast<std::size_t>(r)]);
      std::memcpy(wire.data() + static_cast<std::size_t>(r) * kAddrBytes,
                  entry, kAddrBytes);
    }
    std::memcpy(wire.data() + static_cast<std::size_t>(p) * kAddrBytes,
                peer_tokens_.data(),
                static_cast<std::size_t>(p) * sizeof(std::uint64_t));
    for (int r = 1; r < p; ++r)
      write_full(peers_[static_cast<std::size_t>(r)], wire.data(),
                 wire.size(), "rendezvous address table");
  } else {
    // 2. Hello to rank 0 over what becomes the 0<->rank data channel.
    Fd conn = [&] {
      try {
        return connect_to(rv, opts_.connect_timeout);
      } catch (const TransportError& e) {
        throw TransportError("rendezvous: rank " + std::to_string(rank) +
                             " cannot reach rank 0: " + e.what());
      }
    }();
    HelloFrame hello;
    hello.rank = rank;
    hello.size = p;
    copy_addr(hello.listen_addr, advertised);
    hello.host_token = opts_.host_token;
    write_full(conn, &hello, sizeof(hello), "rendezvous hello");
    std::vector<char> wire(wire_bytes);
    if (!read_full(conn, wire.data(), wire.size(),
                   "rendezvous address table"))
      throw TransportError(
          "rendezvous: rank 0 closed the connection before sending the "
          "address table (world size mismatch or duplicate rank?)");
    for (int r = 0; r < p; ++r) {
      const char* entry =
          wire.data() + static_cast<std::size_t>(r) * kAddrBytes;
      table[static_cast<std::size_t>(r)] =
          std::string(entry, strnlen(entry, kAddrBytes));
    }
    std::memcpy(peer_tokens_.data(),
                wire.data() + static_cast<std::size_t>(p) * kAddrBytes,
                static_cast<std::size_t>(p) * sizeof(std::uint64_t));
    peers_[0] = std::move(conn);

    // 4. Complete the mesh: connect to every lower-ranked peer, accept
    //    from every higher-ranked one.
    for (int q = 1; q < rank; ++q) {
      Fd fd = [&] {
        try {
          return connect_to(
              parse_endpoint(table[static_cast<std::size_t>(q)]),
              opts_.connect_timeout);
        } catch (const TransportError& e) {
          throw TransportError("mesh: rank " + std::to_string(rank) +
                               " cannot reach rank " + std::to_string(q) +
                               ": " + e.what());
        }
      }();
      PeerHelloFrame ph;
      ph.rank = rank;
      write_full(fd, &ph, sizeof(ph), "mesh hello");
      peers_[static_cast<std::size_t>(q)] = std::move(fd);
    }
    for (int q = rank + 1; q < p; ++q) {
      Fd fd = accept_from(listener);
      PeerHelloFrame ph;
      if (!read_full(fd, &ph, sizeof(ph), "mesh hello"))
        throw TransportError("mesh: peer disconnected during handshake");
      if (ph.magic != kMagic || ph.version != kVersion)
        throw TransportError("mesh: bad hello from a connecting peer");
      if (ph.rank <= rank || ph.rank >= p)
        throw TransportError("mesh: hello from unexpected rank " +
                             std::to_string(ph.rank));
      auto& slot = peers_[static_cast<std::size_t>(ph.rank)];
      if (slot.valid())
        throw TransportError("mesh: duplicate connection from rank " +
                             std::to_string(ph.rank));
      slot = std::move(fd);
    }
  }
  listener.close();
  cleanup_endpoint(listen_ep_);
  // connect_to/accept_from enable TCP_NODELAY by default; honour an explicit
  // opt-out (measurement / debugging) by clearing it on every peer stream.
  if (!opts_.nodelay)
    for (auto& fd : peers_)
      if (fd.valid()) set_nodelay(fd, false);
}

std::uint64_t SocketTransport::peer_host_token(int rank) const noexcept {
  if (rank < 0 || rank >= opts_.size) return 0;
  return peer_tokens_[static_cast<std::size_t>(rank)];
}

SocketTransport::~SocketTransport() { shutdown_streams(); }

void SocketTransport::shutdown_streams() noexcept {
  // Clean shutdown: tell every peer no more frames are coming, then wait
  // for their matching shutdown (the reader threads exit on it).  A peer
  // that died instead produces an EOF, which also ends its reader.
  // Idempotent so a derived destructor can run it early, before its own
  // members (and vtable) disappear.
  if (streams_shut_.exchange(true)) return;
  for (int peer = 0; peer < opts_.size; ++peer) {
    if (peer == opts_.rank || !peers_[static_cast<std::size_t>(peer)].valid())
      continue;
    try {
      send_frame(peer, kFrameShutdown, nullptr);
    } catch (const TransportError&) {
      // Peer already gone; its reader will see the EOF.
    }
  }
  for (std::thread& t : readers_)
    if (t.joinable()) t.join();
}

void SocketTransport::on_peer_shutdown(int peer) {
  inbox_.mark_source_closed(peer);
}

void SocketTransport::on_peer_death(int peer, const std::string& reason) {
  inbox_.fail(reason);
  inbox_.mark_source_closed(peer);
}

void SocketTransport::send_frame(int peer, std::uint32_t kind,
                                 const Message* msg) {
  const auto idx = static_cast<std::size_t>(peer);
  std::lock_guard<std::mutex> lock(*send_mutexes_[idx]);
  FrameHeader h;
  h.kind = kind;
  h.seq = send_seq_[idx]++;
  if (msg != nullptr) {
    h.context = msg->context;
    h.source = msg->source;
    h.tag = msg->tag;
  }
  std::ostringstream label;
  label << "send to rank " << peer;
  if (msg != nullptr) label << " (tag=" << msg->tag << ")";
  const FrameLimits limits{opts_.max_frame_payload, true};
  write_frame(peers_[idx], h,
              msg != nullptr ? msg->payload.data() : nullptr,
              msg != nullptr ? msg->payload.size() : 0, limits, label.str());
  if (kind == kFrameData) {
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(
        sizeof(h) + (msg != nullptr ? msg->payload.size() : 0),
        std::memory_order_relaxed);
  }
}

void SocketTransport::reader_loop(int peer) {
  const auto idx = static_cast<std::size_t>(peer);
  const FrameLimits limits{opts_.max_frame_payload, true};
  std::uint64_t expected_seq = 0;
  std::ostringstream label;
  label << "recv from rank " << peer;
  const std::string what = label.str();
  try {
    for (;;) {
      FrameHeader h;
      Message m;
      if (!read_frame(peers_[idx], limits, h, m.payload, what)) {
        // EOF with no shutdown frame: the peer process died.
        on_peer_death(peer,
                      "rank " + std::to_string(peer) +
                          " closed its connection without shutdown (process "
                          "died?)");
        return;
      }
      if (h.kind == kFrameShutdown) {
        on_peer_shutdown(peer);
        return;
      }
      if (h.source != peer)
        throw TransportError(what + ": frame claims source rank " +
                             std::to_string(h.source));
      if (h.seq != expected_seq)
        throw TransportError(
            what + ": sequence gap (expected " +
            std::to_string(expected_seq) + ", got " + std::to_string(h.seq) +
            ") — frames lost or stream corrupt");
      ++expected_seq;
      m.context = h.context;
      m.source = h.source;
      m.tag = h.tag;
      m.send_time = 0.0;
      messages_received_.fetch_add(1, std::memory_order_relaxed);
      bytes_received_.fetch_add(sizeof(h) + h.nbytes,
                                std::memory_order_relaxed);
      inbox_.push(std::move(m));
    }
  } catch (const TransportError& e) {
    on_peer_death(peer, e.what());
  }
}

void SocketTransport::send(int dest_world_rank, Message msg) {
  if (dest_world_rank == opts_.rank) {
    inbox_.push(std::move(msg));
    return;
  }
  send_frame(dest_world_rank, kFrameData, &msg);
}

Message SocketTransport::recv(int context, int source_world_rank, int tag) {
  return inbox_.pop(context, source_world_rank, tag);
}

bool SocketTransport::try_peek(int context, int source_world_rank, int tag,
                               int& matched_source, int& matched_tag,
                               std::size_t& matched_bytes) {
  return inbox_.try_peek(context, source_world_rank, tag, matched_source,
                         matched_tag, matched_bytes);
}

TransportStats SocketTransport::stats() const noexcept {
  TransportStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.messages_received = messages_received_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pac::mp::transport
