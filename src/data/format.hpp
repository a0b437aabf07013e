// The .pacb on-disk format: binary, columnar, chunked, checksummed.
//
// Layout (all integers little-endian host order, guarded by an endianness
// probe; doubles are raw IEEE-754 bits so values round-trip exactly):
//
//   header   magic "PACB" | u32 version=2 | u32 endian probe 0x01020304
//            | u64 num_items | u32 num_attrs | u32 chunk_rows
//   schema   per attribute: u8 kind | i32 num_values | f64 rel_error
//            | u16 name_len | name bytes            ... then u32 CRC32
//   chunks   ceil(num_items / chunk_rows) chunks, in item order.  Chunk c
//            holds rows_c = min(chunk_rows, num_items - c*chunk_rows) rows:
//              u32 rows_c | u32 crc[attr] per column | column segments in
//              attribute order (rows_c f64 for real, rows_c i32 for
//              discrete; NaN / -1 encode missing)
//   profile  per attribute: u64 known | u64 missing, then for real
//            f64 mean|variance|min|max, for discrete u32 L | f64 counts[L]
//            ... then u32 CRC32
//   trailer  u64 num_items echo | magic "bcap"
//
// Only the last chunk may be partial, so every chunk and column offset is a
// pure function of (num_items, chunk_rows, schema): readers seek without a
// stored index, and writers stream append-only with no backpatching.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "util/error.hpp"

namespace pac::data::format {

inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::uint32_t kDefaultChunkRows = 8192;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320): simd::crc32, a PCLMULQDQ
/// fold at the AVX2 level and slicing-by-8 otherwise, with the bytewise
/// table loop's values, so stored checksums are unchanged.  `seed` chains
/// incremental updates: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// Malformed / corrupt .pacb input.  When the failure is localized to one
/// chunk or column, chunk() / column() name it (and the message includes the
/// attribute name); -1 means "not specific to one".
class FormatError : public pac::Error {
 public:
  explicit FormatError(const std::string& msg, std::ptrdiff_t chunk = -1,
                       std::ptrdiff_t column = -1)
      : pac::Error(msg), chunk_(chunk), column_(column) {}

  std::ptrdiff_t chunk() const noexcept { return chunk_; }
  std::ptrdiff_t column() const noexcept { return column_; }

 private:
  std::ptrdiff_t chunk_ = -1;
  std::ptrdiff_t column_ = -1;
};

/// Everything a seeking reader needs, parsed from header + schema + profile
/// blocks (the trailer is validated too, so truncation is caught up front).
struct PacbLayout {
  Schema schema;
  std::uint64_t num_items = 0;
  std::uint32_t chunk_rows = kDefaultChunkRows;
  std::uint64_t chunks_offset = 0;          // file offset of chunk 0
  std::vector<std::size_t> elem_bytes;      // per attr: 8 (real) or 4
  std::vector<std::size_t> row_bytes_prefix;  // per attr: sum of earlier
  std::size_t row_bytes = 0;                // sum over all attributes
  std::vector<ColumnProfile> profiles;

  std::size_t num_chunks() const noexcept;
  std::size_t rows_in_chunk(std::size_t c) const noexcept;
  std::uint64_t chunk_offset(std::size_t c) const noexcept;
  /// Offset of chunk c's stored CRC for column a.
  std::uint64_t column_crc_offset(std::size_t c, std::size_t a) const noexcept;
  /// Offset of chunk c's value segment for column a.
  std::uint64_t column_data_offset(std::size_t c, std::size_t a) const noexcept;
};

/// Parse and validate the non-chunk blocks of a .pacb file (header, schema,
/// profiles, trailer); chunk payloads are CRC-verified lazily on load by
/// ChunkedStore.  Throws FormatError on any malformation.
PacbLayout read_layout(const std::string& path);

/// Streaming writer: declare the schema and total item count up front, then
/// append() row slabs in item order and finish().  Chunks flush as they
/// fill, so peak memory is one chunk regardless of num_items — this is how
/// pac_convert emits datasets larger than RAM.
class PacbWriter {
 public:
  PacbWriter(std::ostream& out, Schema schema, std::uint64_t num_items,
             std::uint32_t chunk_rows = kDefaultChunkRows);
  ~PacbWriter();

  PacbWriter(const PacbWriter&) = delete;
  PacbWriter& operator=(const PacbWriter&) = delete;

  /// Append all rows of `slab` (its schema must equal the declared one).
  void append(const Dataset& slab);
  /// Flush the final partial chunk, the profile block, and the trailer.
  /// Must be called exactly once, after exactly num_items appended rows.
  void finish();

 private:
  void flush_chunk();

  std::ostream* out_;
  Schema schema_;
  std::uint64_t num_items_ = 0;
  std::uint32_t chunk_rows_ = kDefaultChunkRows;
  std::uint64_t written_ = 0;
  bool finished_ = false;
  std::vector<ProfileBuilder> builders_;
  // Pending chunk, one buffer per column (the unused alternative stays
  // empty).  pending_ rows are buffered across append() calls.
  std::vector<std::vector<double>> real_buf_;
  std::vector<std::vector<std::int32_t>> disc_buf_;
  std::size_t pending_ = 0;
};

/// One-shot writer / reader over streams (resident datasets).  read_pacb
/// validates every CRC and the trailer and installs the stored profiles.
/// Files are read through data::open_dataset (io.hpp), which also picks
/// the backend.
void write_pacb(std::ostream& out, const Dataset& dataset,
                std::uint32_t chunk_rows = kDefaultChunkRows);
Dataset read_pacb(std::istream& in);
void write_pacb_file(const std::string& path, const Dataset& dataset,
                     std::uint32_t chunk_rows = kDefaultChunkRows);

}  // namespace pac::data::format
