// Framed byte-blob messaging on top of Comm: the small serialization
// helper used by try-parallel search to ship ASCII-encoded classifications
// (the checkpoint codec) between sub-worlds.
//
// A blob travels as one message: a fixed 16-byte header (magic, a
// caller-chosen kind word, payload size) followed by the payload bytes.
// The header exists so a receiver can (a) reject a message that is not a
// blob of the kind it expected — a tag collision or a truncated frame
// fails loudly instead of feeding garbage into a parser — and (b) bound
// the declared size before allocating.  The payload itself is opaque here:
// pac_mp stays ignorant of what is inside (layering: the classification
// codec lives in autoclass, not in the runtime).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mp/comm.hpp"

namespace pac::mp::wire {

/// Hard cap on one blob's payload.  Blobs arrive from other ranks (on the
/// socket backend: other processes), so the declared size is bounded
/// before any allocation, like the checkpoint parser's caps.
inline constexpr std::size_t kMaxBlobBytes = std::size_t{1} << 26;  // 64 MiB

/// Send `payload` to `dest` as one framed message under `tag`.  `kind` is
/// an application-chosen discriminator checked by the receiver.
void send_blob(Comm& comm, int dest, int tag, std::uint32_t kind,
               std::string_view payload);

/// Non-blocking receive of one framed blob (source/tag may be the
/// wildcards): false (and `payload` untouched) when no matching message is
/// queued; throws pac::Error when the frame is malformed or not of
/// `expected_kind`.
bool try_recv_blob(Comm& comm, int source, int tag,
                   std::uint32_t expected_kind, std::string& payload,
                   Status* status = nullptr);

/// Broadcast root's blob to every rank of `comm` (size first, then bytes).
void broadcast_blob(Comm& comm, std::string& payload, int root);

/// Allgather of variable-size blobs: every rank contributes one payload
/// (possibly empty) and receives all of them in rank order.  Internally
/// pads to the widest payload, like ParallelReducer::gather_weight_matrix.
std::vector<std::string> allgather_blobs(Comm& comm, std::string_view mine);

}  // namespace pac::mp::wire
