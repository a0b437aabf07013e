// SocketTransport: pacnet's real multi-process backend.
//
// Each world rank is an OS process.  World formation is a rank-0 rendezvous:
//
//   1. every rank opens a listening socket (rank 0 at the well-known
//      rendezvous address; others at a derived address — an ephemeral TCP
//      port or "<path>.<rank>" for Unix sockets);
//   2. ranks 1..P-1 connect to rank 0 and send a Hello{magic, version,
//      rank, world size, listen address, host token};
//   3. rank 0 validates the hellos (protocol version, matching world size,
//      distinct ranks) and replies with the full address table plus every
//      rank's host token;
//   4. the mesh is completed pairwise: rank r connects to every q < r
//      (the rank-0 channels from step 2 are kept as the 0<->r links), so
//      every pair of ranks shares one ordered stream.
//
// The host token is an opaque host-identity value (0 = unset).  The socket
// backend only records it; HybridTransport uses matching tokens to decide,
// per peer, whether the pair shares a host and can route data frames over
// a shared-memory ring instead of this socket (see hybrid_transport.hpp).
//
// Messages travel as length-prefixed frames (magic, kind, context, source,
// tag, sequence number, payload length, payload).  One reader thread per
// peer decodes frames into a Mailbox, which supplies MPI matching semantics
// (wildcards + non-overtaking) exactly as in the in-process backend; TCP /
// Unix stream ordering plus the per-peer sequence check give the
// non-overtaking guarantee across the wire.
//
// Failure model: a clean shutdown frame marks the peer closed; an EOF
// without one (the process died) or a short/invalid frame marks the stream
// failed.  Any receive that can no longer complete throws TransportError
// naming the rank (and tag) instead of hanging — see Mailbox.  Subclasses
// hook these events through on_peer_shutdown / on_peer_death (a hybrid
// peer has two streams, so "closed" means both reached end-of-stream).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mp/transport/frame.hpp"
#include "mp/transport/socket.hpp"
#include "mp/transport/time_source.hpp"
#include "mp/transport/transport.hpp"

namespace pac::mp::transport {

struct SocketOptions {
  /// Rendezvous address: rank 0's listener ("unix:/path" or "host:port").
  std::string address;
  int rank = -1;
  int size = 0;
  /// Seconds to keep retrying the rendezvous connect before giving up.
  double connect_timeout = 30.0;
  /// Largest payload a peer may declare in one frame.  A frame above this
  /// is a typed FrameError (stream marked failed), not an allocation.
  std::uint64_t max_frame_payload = kDefaultMaxFramePayload;
  /// Opaque host identity advertised in the handshake (0 = unset).  Ranks
  /// sharing a nonzero token are on the same host (pac_launch mints one
  /// token per launch); the hybrid backend routes such pairs over shm.
  std::uint64_t host_token = 0;
  /// Disable Nagle's algorithm on TCP peer streams (small frames — barrier
  /// tokens, scalar reductions — must not wait for coalescing).  No-op for
  /// Unix-domain streams.
  bool nodelay = true;
};

class SocketTransport : public Transport {
 public:
  /// Forms the world: blocks until the full mesh is connected.  Throws
  /// TransportError on rendezvous failure (refused, version/size mismatch,
  /// duplicate rank).
  explicit SocketTransport(const SocketOptions& options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  const char* name() const noexcept override { return "socket"; }
  int world_rank() const noexcept override { return opts_.rank; }
  int world_size() const noexcept override { return opts_.size; }

  void send(int dest_world_rank, Message msg) override;
  Message recv(int context, int source_world_rank, int tag) override;
  bool try_peek(int context, int source_world_rank, int tag,
                int& matched_source, int& matched_tag,
                std::size_t& matched_bytes) override;
  TransportStats stats() const noexcept override;

  /// Wall clock started at world formation (shared time base of this rank).
  TimeSource& time() noexcept { return time_; }

  /// Host token `rank` advertised during rendezvous (0 = unset).
  std::uint64_t peer_host_token(int rank) const noexcept;

 protected:
  /// Subclass constructor: forms the mesh but defers the reader threads so
  /// a derived class can finish its own setup (e.g. attach shm channels)
  /// before frames start flowing into the hooks below.  The subclass MUST
  /// call start_readers() before returning from its constructor.
  SocketTransport(const SocketOptions& options, bool start_reader_threads);

  /// Spawn one reader thread per peer stream.  Call exactly once.
  void start_readers();

  /// Idempotent teardown of the socket mesh: send every peer a shutdown
  /// frame (best effort) and join the reader threads.  A derived class
  /// calls this from its own destructor — after that, frames can no longer
  /// arrive, so the base destructor cannot virtual-dispatch into a
  /// destroyed subclass.
  void shutdown_streams() noexcept;

  /// A peer's socket stream reached a clean shutdown frame.  Default: the
  /// peer is gone, mark its mailbox source closed.  Called on the peer's
  /// reader thread.
  virtual void on_peer_shutdown(int peer);

  /// A peer's stream died without shutdown (EOF, short read, protocol
  /// violation).  Default: poison the mailbox with `reason` and mark the
  /// source closed.  Called on the peer's reader thread.
  virtual void on_peer_death(int peer, const std::string& reason);

  void rendezvous();
  void reader_loop(int peer);
  /// Serialize one frame onto the peer's stream (caller must NOT hold the
  /// peer's send mutex).  kind: kData | kShutdown.
  void send_frame(int peer, std::uint32_t kind, const Message* msg);

  SocketOptions opts_;
  Endpoint listen_ep_{};             // this rank's listener (for cleanup)
  std::vector<Fd> peers_;            // world rank -> stream (invalid at self)
  std::vector<std::uint64_t> peer_tokens_;  // world rank -> host token
  std::vector<std::unique_ptr<std::mutex>> send_mutexes_;
  std::vector<std::uint64_t> send_seq_;  // guarded by the peer's send mutex
  std::vector<std::thread> readers_;
  std::atomic<bool> streams_shut_{false};
  Mailbox inbox_;
  WallClockTimeSource time_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

}  // namespace pac::mp::transport
