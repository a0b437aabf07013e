#include "mp/wire.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"

namespace pac::mp::wire {

namespace {

constexpr std::uint32_t kBlobMagic = 0x70616342;  // "pacB"
constexpr std::size_t kHeaderBytes = 16;

struct BlobHeader {
  std::uint32_t magic = kBlobMagic;
  std::uint32_t kind = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(BlobHeader) == kHeaderBytes);
static_assert(std::is_trivially_copyable_v<BlobHeader>);

/// Validate an arrived frame against the envelope size and the expected
/// kind; returns the payload size.
std::size_t check_frame(const BlobHeader& header, std::size_t message_bytes,
                        std::uint32_t expected_kind) {
  PAC_REQUIRE_MSG(header.magic == kBlobMagic,
                  "wire: message is not a framed blob (bad magic)");
  PAC_REQUIRE_MSG(header.kind == expected_kind,
                  "wire: blob kind mismatch (got " << header.kind
                                                   << ", expected "
                                                   << expected_kind << ")");
  PAC_REQUIRE_MSG(header.payload_bytes <= kMaxBlobBytes,
                  "wire: blob declares " << header.payload_bytes
                                         << " bytes (cap " << kMaxBlobBytes
                                         << ")");
  PAC_REQUIRE_MSG(message_bytes == kHeaderBytes + header.payload_bytes,
                  "wire: blob size mismatch (message "
                      << message_bytes << " bytes, declared payload "
                      << header.payload_bytes << ")");
  return static_cast<std::size_t>(header.payload_bytes);
}

/// Receive the already-probed message `st` and unwrap the payload.
std::string receive_frame(Comm& comm, const Status& st,
                          std::uint32_t expected_kind) {
  PAC_REQUIRE_MSG(st.bytes >= kHeaderBytes,
                  "wire: message too short for a blob header (" << st.bytes
                                                                << " bytes)");
  PAC_REQUIRE_MSG(st.bytes <= kHeaderBytes + kMaxBlobBytes,
                  "wire: message exceeds the blob cap (" << st.bytes
                                                         << " bytes)");
  std::vector<char> buf(st.bytes);
  // Receive the exact envelope we probed (never the wildcards, which could
  // match a different message that arrived in between).
  comm.recv<char>(st.source, st.tag, buf);
  BlobHeader header;
  std::memcpy(&header, buf.data(), kHeaderBytes);
  const std::size_t n = check_frame(header, buf.size(), expected_kind);
  return std::string(buf.data() + kHeaderBytes, n);
}

}  // namespace

void send_blob(Comm& comm, int dest, int tag, std::uint32_t kind,
               std::string_view payload) {
  PAC_REQUIRE_MSG(payload.size() <= kMaxBlobBytes,
                  "wire: payload exceeds the blob cap (" << payload.size()
                                                         << " bytes)");
  BlobHeader header;
  header.kind = kind;
  header.payload_bytes = payload.size();
  std::vector<char> buf(kHeaderBytes + payload.size());
  std::memcpy(buf.data(), &header, kHeaderBytes);
  std::copy(payload.begin(), payload.end(), buf.begin() + kHeaderBytes);
  comm.send<char>(dest, tag, buf);
}

bool try_recv_blob(Comm& comm, int source, int tag,
                   std::uint32_t expected_kind, std::string& payload,
                   Status* status) {
  Status st;
  if (!comm.iprobe(source, tag, st)) return false;
  if (status != nullptr) *status = st;
  payload = receive_frame(comm, st, expected_kind);
  return true;
}

void broadcast_blob(Comm& comm, std::string& payload, int root) {
  std::uint64_t size = payload.size();
  comm.broadcast<std::uint64_t>(std::span<std::uint64_t>(&size, 1), root);
  PAC_REQUIRE_MSG(size <= kMaxBlobBytes,
                  "wire: broadcast blob exceeds the cap (" << size
                                                           << " bytes)");
  if (comm.rank() != root) payload.resize(static_cast<std::size_t>(size));
  if (size > 0)
    comm.broadcast<char>(std::span<char>(payload.data(), payload.size()),
                         root);
}

std::vector<std::string> allgather_blobs(Comm& comm, std::string_view mine) {
  PAC_REQUIRE_MSG(mine.size() <= kMaxBlobBytes,
                  "wire: allgather blob exceeds the cap (" << mine.size()
                                                           << " bytes)");
  const int p = comm.size();
  const std::vector<std::uint64_t> sizes =
      comm.allgather_value<std::uint64_t>(mine.size());
  std::uint64_t widest = 0;
  for (const std::uint64_t s : sizes) {
    PAC_REQUIRE_MSG(s <= kMaxBlobBytes,
                    "wire: peer blob exceeds the cap (" << s << " bytes)");
    widest = std::max(widest, s);
  }
  std::vector<std::string> out(static_cast<std::size_t>(p));
  if (widest == 0) return out;
  // Blobs differ in size; pad to the widest and Allgather once.
  std::vector<char> padded(static_cast<std::size_t>(widest), '\0');
  std::copy(mine.begin(), mine.end(), padded.begin());
  std::vector<char> gathered(static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(widest));
  comm.allgather<char>(padded, std::span<char>(gathered));
  for (int r = 0; r < p; ++r) {
    const std::size_t n = static_cast<std::size_t>(sizes[static_cast<std::size_t>(r)]);
    out[static_cast<std::size_t>(r)].assign(
        gathered.data() +
            static_cast<std::size_t>(r) * static_cast<std::size_t>(widest),
        n);
  }
  return out;
}

}  // namespace pac::mp::wire
