#include "data/format.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace pac::data::format {

namespace {

constexpr char kMagic[4] = {'P', 'A', 'C', 'B'};
constexpr char kTrailerMagic[4] = {'b', 'c', 'a', 'p'};
constexpr std::uint32_t kEndianProbe = 0x01020304u;
constexpr std::uint32_t kMaxChunkRows = 1u << 28;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

template <class T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& in, const char* what) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in.good())
    throw FormatError(std::string(".pacb truncated while reading ") + what);
  return value;
}

/// Canonical byte serialization of the schema block (without its CRC).
/// The reader re-serializes what it parsed and compares CRCs; f64/i32
/// fields round-trip bit-exactly, so this reproduces the on-disk bytes.
std::string serialize_schema(const Schema& schema) {
  std::ostringstream os(std::ios::binary);
  for (const Attribute& a : schema.attributes()) {
    write_pod<std::uint8_t>(os, a.kind == AttributeKind::kReal ? 0 : 1);
    write_pod<std::int32_t>(os, a.num_values);
    write_pod<double>(os, a.rel_error);
    write_pod<std::uint16_t>(os, static_cast<std::uint16_t>(a.name.size()));
    os.write(a.name.data(), static_cast<std::streamsize>(a.name.size()));
  }
  return os.str();
}

std::string serialize_profiles(const Schema& schema,
                               const std::vector<ColumnProfile>& profiles) {
  std::ostringstream os(std::ios::binary);
  for (std::size_t a = 0; a < schema.size(); ++a) {
    const ColumnProfile& p = profiles[a];
    write_pod<std::uint64_t>(os, p.known);
    write_pod<std::uint64_t>(os, p.missing);
    if (schema.at(a).kind == AttributeKind::kReal) {
      write_pod<double>(os, p.stats.mean);
      write_pod<double>(os, p.stats.variance);
      write_pod<double>(os, p.stats.min);
      write_pod<double>(os, p.stats.max);
    } else {
      write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(p.counts.size()));
      for (const double c : p.counts) write_pod<double>(os, c);
    }
  }
  return os.str();
}

struct Header {
  std::uint64_t num_items = 0;
  std::uint32_t num_attrs = 0;
  std::uint32_t chunk_rows = 0;
};

Header read_header(std::istream& in) {
  char magic[4] = {};
  in.read(magic, 4);
  if (!in.good() || !std::equal(magic, magic + 4, kMagic))
    throw FormatError("not a pac binary dataset (bad magic)");
  const auto version = read_pod<std::uint32_t>(in, "version");
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported binary dataset version " << version << " (want "
       << kVersion << ")";
    throw FormatError(os.str());
  }
  const auto endian = read_pod<std::uint32_t>(in, "endianness probe");
  if (endian != kEndianProbe)
    throw FormatError("binary dataset written with a different byte order");
  Header h;
  h.num_items = read_pod<std::uint64_t>(in, "item count");
  h.num_attrs = read_pod<std::uint32_t>(in, "attribute count");
  if (h.num_attrs < 1 || h.num_attrs >= 100000) {
    std::ostringstream os;
    os << "implausible attribute count " << h.num_attrs;
    throw FormatError(os.str());
  }
  h.chunk_rows = read_pod<std::uint32_t>(in, "chunk rows");
  if (h.chunk_rows < 1 || h.chunk_rows > kMaxChunkRows) {
    std::ostringstream os;
    os << "implausible chunk row count " << h.chunk_rows;
    throw FormatError(os.str());
  }
  return h;
}

Schema read_schema_block(std::istream& in, std::uint32_t num_attrs) {
  std::vector<Attribute> attributes;
  attributes.reserve(num_attrs);
  for (std::uint32_t a = 0; a < num_attrs; ++a) {
    const auto kind = read_pod<std::uint8_t>(in, "attribute kind");
    if (kind > 1) throw FormatError("corrupt attribute kind");
    const auto num_values = read_pod<std::int32_t>(in, "value count");
    const auto error = read_pod<double>(in, "attribute error");
    const auto name_len = read_pod<std::uint16_t>(in, "name length");
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in.good()) throw FormatError(".pacb truncated in attribute names");
    if (kind == 0) {
      Attribute attr = Attribute::real(std::move(name), error);
      // Preserve the stored bits exactly (factories may clamp defaults).
      attr.rel_error = error;
      attributes.push_back(std::move(attr));
    } else {
      attributes.push_back(Attribute::discrete(std::move(name), num_values));
    }
  }
  Schema schema(std::move(attributes));
  const std::string bytes = serialize_schema(schema);
  const auto stored = read_pod<std::uint32_t>(in, "schema checksum");
  if (stored != crc32(bytes.data(), bytes.size()))
    throw FormatError(".pacb schema block checksum mismatch");
  return schema;
}

std::vector<ColumnProfile> read_profile_block(std::istream& in,
                                              const Schema& schema) {
  std::vector<ColumnProfile> profiles(schema.size());
  for (std::size_t a = 0; a < schema.size(); ++a) {
    ColumnProfile& p = profiles[a];
    p.known = read_pod<std::uint64_t>(in, "profile known count");
    p.missing = read_pod<std::uint64_t>(in, "profile missing count");
    if (schema.at(a).kind == AttributeKind::kReal) {
      p.stats.mean = read_pod<double>(in, "profile mean");
      p.stats.variance = read_pod<double>(in, "profile variance");
      p.stats.min = read_pod<double>(in, "profile min");
      p.stats.max = read_pod<double>(in, "profile max");
      p.stats.known = p.known;
    } else {
      const auto l = read_pod<std::uint32_t>(in, "profile symbol count");
      if (l != static_cast<std::uint32_t>(schema.at(a).num_values)) {
        std::ostringstream os;
        os << "profile symbol count " << l << " does not match schema ("
           << schema.at(a).num_values << ") for column " << a << " '"
           << schema.at(a).name << "'";
        throw FormatError(os.str(), -1, static_cast<std::ptrdiff_t>(a));
      }
      p.counts.resize(l);
      for (std::uint32_t i = 0; i < l; ++i)
        p.counts[i] = read_pod<double>(in, "profile count");
    }
  }
  const std::string bytes = serialize_profiles(schema, profiles);
  const auto stored = read_pod<std::uint32_t>(in, "profile checksum");
  if (stored != crc32(bytes.data(), bytes.size()))
    throw FormatError(".pacb profile block checksum mismatch");
  return profiles;
}

void read_trailer(std::istream& in, std::uint64_t num_items) {
  const auto echo = read_pod<std::uint64_t>(in, "trailer item count");
  char magic[4] = {};
  in.read(magic, 4);
  if (!in.good() || !std::equal(magic, magic + 4, kTrailerMagic))
    throw FormatError(".pacb trailer missing or corrupt (truncated file?)");
  if (echo != num_items)
    throw FormatError(".pacb trailer item count does not match the header");
}

void fill_layout_geometry(PacbLayout& layout) {
  layout.elem_bytes.clear();
  layout.row_bytes_prefix.clear();
  layout.row_bytes = 0;
  for (const Attribute& a : layout.schema.attributes()) {
    layout.row_bytes_prefix.push_back(layout.row_bytes);
    const std::size_t e =
        a.kind == AttributeKind::kReal ? sizeof(double) : sizeof(std::int32_t);
    layout.elem_bytes.push_back(e);
    layout.row_bytes += e;
  }
}

std::size_t chunk_header_bytes(const PacbLayout& layout) {
  return sizeof(std::uint32_t) * (1 + layout.schema.size());
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::size_t PacbLayout::num_chunks() const noexcept {
  if (num_items == 0) return 0;
  return static_cast<std::size_t>((num_items + chunk_rows - 1) / chunk_rows);
}

std::size_t PacbLayout::rows_in_chunk(std::size_t c) const noexcept {
  const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk_rows;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_rows, num_items - begin));
}

std::uint64_t PacbLayout::chunk_offset(std::size_t c) const noexcept {
  // Only the last chunk may be partial, so all earlier chunks are full-size
  // and every offset is computable without a stored index.
  const std::uint64_t full = chunk_header_bytes(*this) +
                             static_cast<std::uint64_t>(chunk_rows) * row_bytes;
  return chunks_offset + c * full;
}

std::uint64_t PacbLayout::column_crc_offset(std::size_t c,
                                            std::size_t a) const noexcept {
  return chunk_offset(c) + sizeof(std::uint32_t) * (1 + a);
}

std::uint64_t PacbLayout::column_data_offset(std::size_t c,
                                             std::size_t a) const noexcept {
  return chunk_offset(c) + chunk_header_bytes(*this) +
         rows_in_chunk(c) * row_bytes_prefix[a];
}

PacbLayout read_layout(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PAC_REQUIRE_MSG(in.good(), "cannot open binary dataset '" << path << "'");
  const Header h = read_header(in);
  PacbLayout layout;
  layout.num_items = h.num_items;
  layout.chunk_rows = h.chunk_rows;
  layout.schema = read_schema_block(in, h.num_attrs);
  fill_layout_geometry(layout);
  layout.chunks_offset = static_cast<std::uint64_t>(in.tellg());

  // Seek past the (analytically sized) chunk region, then require the
  // profile block and trailer to parse — catching truncation up front even
  // though chunk payloads verify lazily.
  const std::uint64_t chunks_end =
      layout.num_chunks() == 0
          ? layout.chunks_offset
          : layout.chunk_offset(layout.num_chunks() - 1) +
                chunk_header_bytes(layout) +
                layout.rows_in_chunk(layout.num_chunks() - 1) *
                    layout.row_bytes;
  in.seekg(static_cast<std::streamoff>(chunks_end));
  if (!in.good())
    throw FormatError("'" + path + "' truncated before its profile block");
  layout.profiles = read_profile_block(in, layout.schema);
  read_trailer(in, layout.num_items);
  return layout;
}

// ---- PacbWriter ----

PacbWriter::PacbWriter(std::ostream& out, Schema schema,
                       std::uint64_t num_items, std::uint32_t chunk_rows)
    : out_(&out),
      schema_(std::move(schema)),
      num_items_(num_items),
      chunk_rows_(chunk_rows) {
  PAC_REQUIRE_MSG(chunk_rows_ >= 1 && chunk_rows_ <= kMaxChunkRows,
                  "chunk_rows " << chunk_rows_ << " out of range");
  PAC_REQUIRE_MSG(!schema_.empty(), "cannot write a dataset with no attributes");
  out_->write(kMagic, 4);
  write_pod<std::uint32_t>(*out_, kVersion);
  write_pod<std::uint32_t>(*out_, kEndianProbe);
  write_pod<std::uint64_t>(*out_, num_items_);
  write_pod<std::uint32_t>(*out_, static_cast<std::uint32_t>(schema_.size()));
  write_pod<std::uint32_t>(*out_, chunk_rows_);
  const std::string schema_bytes = serialize_schema(schema_);
  out_->write(schema_bytes.data(),
              static_cast<std::streamsize>(schema_bytes.size()));
  write_pod<std::uint32_t>(*out_,
                           crc32(schema_bytes.data(), schema_bytes.size()));
  real_buf_.resize(schema_.size());
  disc_buf_.resize(schema_.size());
  builders_.reserve(schema_.size());
  for (const Attribute& a : schema_.attributes()) {
    builders_.emplace_back(a);
    if (a.kind == AttributeKind::kReal) {
      real_buf_[builders_.size() - 1].reserve(chunk_rows_);
    } else {
      disc_buf_[builders_.size() - 1].reserve(chunk_rows_);
    }
  }
  PAC_REQUIRE_MSG(out_->good(), "binary dataset write failed");
}

PacbWriter::~PacbWriter() = default;

void PacbWriter::append(const Dataset& slab) {
  PAC_REQUIRE(!finished_);
  PAC_REQUIRE_MSG(slab.schema() == schema_,
                  "slab schema does not match the declared schema");
  std::size_t off = 0;
  while (off < slab.num_items()) {
    const std::size_t take = std::min<std::size_t>(
        chunk_rows_ - pending_, slab.num_items() - off);
    const ItemRange window{off, off + take};
    for (std::size_t a = 0; a < schema_.size(); ++a) {
      if (schema_.at(a).kind == AttributeKind::kReal) {
        const auto view = slab.real_block(a, window);
        for (std::size_t r = 0; r < take; ++r) {
          real_buf_[a].push_back(view[r]);
          builders_[a].add_real(view[r]);
        }
      } else {
        const auto view = slab.discrete_block(a, window);
        for (std::size_t r = 0; r < take; ++r) {
          disc_buf_[a].push_back(view[r]);
          builders_[a].add_discrete(view[r]);
        }
      }
    }
    pending_ += take;
    off += take;
    written_ += take;
    PAC_REQUIRE_MSG(written_ <= num_items_,
                    "appended more rows than the declared " << num_items_);
    if (pending_ == chunk_rows_) flush_chunk();
  }
}

void PacbWriter::flush_chunk() {
  write_pod<std::uint32_t>(*out_, static_cast<std::uint32_t>(pending_));
  for (std::size_t a = 0; a < schema_.size(); ++a) {
    if (schema_.at(a).kind == AttributeKind::kReal) {
      write_pod<std::uint32_t>(
          *out_, crc32(real_buf_[a].data(), pending_ * sizeof(double)));
    } else {
      write_pod<std::uint32_t>(
          *out_, crc32(disc_buf_[a].data(), pending_ * sizeof(std::int32_t)));
    }
  }
  for (std::size_t a = 0; a < schema_.size(); ++a) {
    if (schema_.at(a).kind == AttributeKind::kReal) {
      out_->write(reinterpret_cast<const char*>(real_buf_[a].data()),
                  static_cast<std::streamsize>(pending_ * sizeof(double)));
      real_buf_[a].clear();
    } else {
      out_->write(reinterpret_cast<const char*>(disc_buf_[a].data()),
                  static_cast<std::streamsize>(pending_ * sizeof(std::int32_t)));
      disc_buf_[a].clear();
    }
  }
  pending_ = 0;
  PAC_REQUIRE_MSG(out_->good(), "binary dataset write failed");
}

void PacbWriter::finish() {
  PAC_REQUIRE(!finished_);
  PAC_REQUIRE_MSG(written_ == num_items_,
                  "finish() after " << written_ << " rows, declared "
                                    << num_items_);
  if (pending_ > 0) flush_chunk();
  std::vector<ColumnProfile> profiles;
  profiles.reserve(schema_.size());
  for (const ProfileBuilder& b : builders_) profiles.push_back(b.finish());
  const std::string bytes = serialize_profiles(schema_, profiles);
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  write_pod<std::uint32_t>(*out_, crc32(bytes.data(), bytes.size()));
  write_pod<std::uint64_t>(*out_, num_items_);
  out_->write(kTrailerMagic, 4);
  PAC_REQUIRE_MSG(out_->good(), "binary dataset write failed");
  finished_ = true;
}

// ---- one-shot stream I/O ----

void write_pacb(std::ostream& out, const Dataset& dataset,
                std::uint32_t chunk_rows) {
  PacbWriter writer(out, dataset.schema(), dataset.num_items(), chunk_rows);
  writer.append(dataset);
  writer.finish();
}

Dataset read_pacb(std::istream& in) {
  const Header h = read_header(in);
  PacbLayout layout;
  layout.num_items = h.num_items;
  layout.chunk_rows = h.chunk_rows;
  layout.schema = read_schema_block(in, h.num_attrs);
  fill_layout_geometry(layout);

  auto store = std::make_shared<ResidentStore>(
      layout.schema, static_cast<std::size_t>(layout.num_items));
  // Grab the raw columns once; profiles are installed afterwards.
  std::vector<std::span<double>> real_cols(layout.schema.size());
  std::vector<std::span<std::int32_t>> disc_cols(layout.schema.size());
  for (std::size_t a = 0; a < layout.schema.size(); ++a) {
    if (layout.schema.at(a).kind == AttributeKind::kReal) {
      real_cols[a] = store->mutable_real(a);
    } else {
      disc_cols[a] = store->mutable_discrete(a);
    }
  }

  std::vector<std::uint32_t> crcs(layout.schema.size());
  for (std::size_t c = 0; c < layout.num_chunks(); ++c) {
    const std::size_t rows = layout.rows_in_chunk(c);
    const auto stored_rows = read_pod<std::uint32_t>(in, "chunk row count");
    if (stored_rows != rows) {
      std::ostringstream os;
      os << "chunk " << c << " declares " << stored_rows << " rows, expected "
         << rows;
      throw FormatError(os.str(), static_cast<std::ptrdiff_t>(c));
    }
    for (std::size_t a = 0; a < layout.schema.size(); ++a)
      crcs[a] = read_pod<std::uint32_t>(in, "chunk column checksum");
    const std::size_t base = c * layout.chunk_rows;
    for (std::size_t a = 0; a < layout.schema.size(); ++a) {
      const Attribute& attr = layout.schema.at(a);
      char* dst = attr.kind == AttributeKind::kReal
                      ? reinterpret_cast<char*>(real_cols[a].data() + base)
                      : reinterpret_cast<char*>(disc_cols[a].data() + base);
      const std::size_t bytes = rows * layout.elem_bytes[a];
      in.read(dst, static_cast<std::streamsize>(bytes));
      if (!in.good()) {
        std::ostringstream os;
        os << ".pacb truncated in chunk " << c << ", column " << a << " '"
           << attr.name << "'";
        throw FormatError(os.str(), static_cast<std::ptrdiff_t>(c),
                          static_cast<std::ptrdiff_t>(a));
      }
      if (crc32(dst, bytes) != crcs[a]) {
        std::ostringstream os;
        os << ".pacb checksum mismatch in chunk " << c << ", column " << a
           << " '" << attr.name << "'";
        throw FormatError(os.str(), static_cast<std::ptrdiff_t>(c),
                          static_cast<std::ptrdiff_t>(a));
      }
      if (attr.kind == AttributeKind::kDiscrete) {
        for (std::size_t r = 0; r < rows; ++r) {
          const std::int32_t v = disc_cols[a][base + r];
          if (v != kMissingDiscrete && (v < 0 || v >= attr.num_values)) {
            std::ostringstream os;
            os << ".pacb chunk " << c << ", column " << a << " '" << attr.name
               << "': discrete value " << v << " out of range [0, "
               << attr.num_values << ")";
            throw FormatError(os.str(), static_cast<std::ptrdiff_t>(c),
                              static_cast<std::ptrdiff_t>(a));
          }
        }
      }
    }
  }

  store->adopt_profiles(read_profile_block(in, layout.schema));
  read_trailer(in, layout.num_items);
  return Dataset(std::move(store));
}

void write_pacb_file(const std::string& path, const Dataset& dataset,
                     std::uint32_t chunk_rows) {
  std::ofstream out(path, std::ios::binary);
  PAC_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_pacb(out, dataset, chunk_rows);
}

}  // namespace pac::data::format
