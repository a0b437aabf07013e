// pacnet: the transport abstraction under minimpi's point-to-point layer.
//
// A Transport moves tagged messages between world ranks and answers the
// mailbox-style matching queries (blocking/non-blocking receive and probe
// with MPI wildcard semantics).  Two backends implement it:
//
//   * InProcessTransport — the original ranks-as-threads path: send pushes
//     straight into the destination rank's Mailbox.  Deterministic,
//     virtual-time, byte-identical to the pre-transport runtime.
//   * SocketTransport    — ranks as separate OS processes exchanging
//     length-prefixed frames over TCP or Unix-domain sockets (see
//     socket_transport.hpp).  Wall-clock time.
//   * HybridTransport    — SocketTransport whose same-host peers (matching
//     host tokens from the rendezvous) exchange data frames over shared-
//     memory SPSC rings instead of the socket (hybrid_transport.hpp).
//
// Comm is written against this interface only: its pt2pt core and, on
// every backend, its collectives, which are layered on pt2pt frames in a
// reserved context (comm_dist.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mp/mailbox.hpp"
#include "mp/status.hpp"

namespace pac::mp::transport {

/// Cumulative wire traffic of a transport (all contexts, collectives
/// included).  The socket backend counts real framed bytes; the in-process
/// backend leaves this zero (its traffic is accounted in virtual time).
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;

  // Per-route breakdown of the totals above, filled by the hybrid backend
  // only: traffic that went over shared-memory rings rather than sockets.
  // (socket traffic = totals minus the shm_* fields.)
  std::uint64_t shm_messages_sent = 0;
  std::uint64_t shm_bytes_sent = 0;
  std::uint64_t shm_messages_received = 0;
  std::uint64_t shm_bytes_received = 0;
  std::uint64_t shm_wakeups = 0;  // futex wakes issued to peers
  std::uint64_t shm_waits = 0;    // spins that gave up and parked
  std::uint64_t shm_peers = 0;    // peers routed over shm at bootstrap
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Backend name for reports ("in-process", "socket").
  virtual const char* name() const noexcept = 0;
  virtual int world_rank() const noexcept = 0;
  virtual int world_size() const noexcept = 0;

  /// Deliver `msg` (whose source/context/tag fields are already filled in)
  /// to `dest_world_rank`.  Sends are buffered: the call returns once the
  /// payload is owned by the transport.  Throws TransportError if the
  /// destination's channel is down.
  virtual void send(int dest_world_rank, Message msg) = 0;

  /// Block until a message matching (context, source, tag) is available and
  /// consume it.  Wildcards: kAnySource / kAnyTag.  Throws TransportError
  /// if the wait can never be satisfied (peer death, transport failure).
  virtual Message recv(int context, int source_world_rank, int tag) = 0;

  /// Non-blocking receive; false if no match is queued.
  virtual bool try_recv(int context, int source_world_rank, int tag,
                        Message& out) = 0;

  /// Blocking match without consuming (MPI_Probe).
  virtual void peek(int context, int source_world_rank, int tag,
                    int& matched_source, int& matched_tag,
                    std::size_t& matched_bytes) = 0;

  /// Non-blocking peek (MPI_Iprobe); false if no match is queued.
  virtual bool try_peek(int context, int source_world_rank, int tag,
                        int& matched_source, int& matched_tag,
                        std::size_t& matched_bytes) = 0;

  /// Wire-level traffic counters (zeros for the in-process backend).
  virtual TransportStats stats() const noexcept { return {}; }
};

}  // namespace pac::mp::transport
