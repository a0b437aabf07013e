// Tests for the .pacb binary columnar format and the ColumnStore backends:
// exact round trips across every term-family column type, corruption and
// truncation rejection with chunk/column attribution, chunked-vs-resident
// block equality under eviction, and open_dataset sniffing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/format.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "util/rng.hpp"

namespace pac::data {
namespace {

/// Force a resident load whatever PAC_DATA_BUDGET_MB says.
OpenOptions resident_only() {
  OpenOptions options;
  options.backend = Backend::kResident;
  return options;
}

std::string temp_path(const char* tag) {
  static int counter = 0;
  return "/tmp/pac_fmt_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter++);
}

/// A dataset covering every term family's column needs — a Gaussian real,
/// a strictly positive (lognormal) real, two discrete columns, and a
/// correlated real pair — with missing values sprinkled over the columns
/// that admit them.
Dataset mixed_dataset(std::size_t n) {
  std::vector<Attribute> attrs = {
      Attribute::real("g", 0.1),          Attribute::real("ln", 0.05),
      Attribute::discrete("d", 3),        Attribute::discrete("id", 7),
      Attribute::real("c0", 0.05),        Attribute::real("c1", 0.05),
  };
  Dataset table(Schema(attrs), n);
  Xoshiro256ss rng(404);
  for (std::size_t i = 0; i < n; ++i) {
    table.set_real(i, 0, normal01(rng) * 3.0 + 1.0);
    table.set_real(i, 1, std::exp(normal01(rng) * 0.4));
    table.set_discrete(i, 2, static_cast<std::int32_t>(uniform_index(rng, 3)));
    table.set_discrete(i, 3, static_cast<std::int32_t>(uniform_index(rng, 7)));
    const double z1 = normal01(rng), z2 = normal01(rng);
    table.set_real(i, 4, z1);
    table.set_real(i, 5, 0.8 * z1 + 0.6 * z2);
    if (i % 17 == 3) table.set_missing(i, 0);
    if (i % 23 == 5) table.set_missing(i, 1);
    if (i % 19 == 7) table.set_missing(i, 2);
  }
  return table;
}

void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  const ItemRange all{0, a.num_items()};
  for (std::size_t attr = 0; attr < a.num_attributes(); ++attr) {
    if (a.schema().at(attr).kind == AttributeKind::kReal) {
      const auto va = a.real_block(attr, all);
      const auto vb = b.real_block(attr, all);
      // memcmp, not ==: NaN (missing) must round-trip bit for bit too.
      EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                            va.size() * sizeof(double)),
                0)
          << "real column " << attr;
    } else {
      const auto va = a.discrete_block(attr, all);
      const auto vb = b.discrete_block(attr, all);
      EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                            va.size() * sizeof(std::int32_t)),
                0)
          << "discrete column " << attr;
    }
  }
}

TEST(PacbFormat, BinaryRoundTripIsExact) {
  const Dataset original = mixed_dataset(500);
  const std::string path = temp_path("rt") + ".pacb";
  format::write_pacb_file(path, original, /*chunk_rows=*/64);
  const Dataset loaded = open_dataset(path, resident_only());
  expect_identical(original, loaded);
  std::remove(path.c_str());
}

TEST(PacbFormat, AsciiAndBinaryLoadersAgreeBitForBit) {
  // The same rows through the ASCII (.hd2/.db2, 17-digit decimal) path and
  // the binary path must load memcmp-identically — the determinism contract
  // extends to the choice of on-disk format.
  const Dataset original = mixed_dataset(300);
  const std::string hd2 = temp_path("a") + ".hd2";
  const std::string db2 = temp_path("a") + ".db2";
  const std::string pacb = temp_path("a") + ".pacb";
  write_header_file(hd2, original.schema());
  write_data_file(db2, original);
  format::write_pacb_file(pacb, original);

  OpenOptions ascii_options;
  ascii_options.header_path = hd2;
  const Dataset from_ascii = open_dataset(db2, ascii_options);
  const Dataset from_binary = open_dataset(pacb);
  expect_identical(from_ascii, from_binary);
  expect_identical(original, from_binary);
  std::remove(hd2.c_str());
  std::remove(db2.c_str());
  std::remove(pacb.c_str());
}

TEST(PacbFormat, StoredProfilesMatchResidentScan) {
  const Dataset original = mixed_dataset(400);
  const std::string path = temp_path("prof") + ".pacb";
  format::write_pacb_file(path, original, /*chunk_rows=*/128);
  const Dataset chunked(ChunkedStore::open(path));
  for (std::size_t a = 0; a < original.num_attributes(); ++a) {
    const ColumnProfile& rp = original.profile(a);
    const ColumnProfile& cp = chunked.profile(a);
    EXPECT_EQ(rp.known, cp.known) << "attr " << a;
    EXPECT_EQ(rp.missing, cp.missing) << "attr " << a;
    EXPECT_EQ(rp.stats.mean, cp.stats.mean) << "attr " << a;
    EXPECT_EQ(rp.stats.variance, cp.stats.variance) << "attr " << a;
    EXPECT_EQ(rp.counts, cp.counts) << "attr " << a;
  }
  std::remove(path.c_str());
}

TEST(PacbFormat, StreamedSlabsEqualOneShotFile) {
  // PacbWriter fed arbitrary slab boundaries must produce byte-identical
  // output to the one-shot writer: chunking is a property of the file, not
  // of how append() calls happened to be sized.
  const Dataset original = mixed_dataset(350);
  std::ostringstream one_shot, slabbed;
  format::write_pacb(one_shot, original, /*chunk_rows=*/100);
  format::PacbWriter writer(slabbed, original.schema(), original.num_items(),
                            /*chunk_rows=*/100);
  for (std::size_t begin = 0, step = 1; begin < original.num_items();
       begin += step, step = step * 2 + 1) {
    const std::size_t end = std::min(begin + step, original.num_items());
    writer.append(original.slice(begin, end));
  }
  writer.finish();
  EXPECT_EQ(one_shot.str(), slabbed.str());
}

TEST(PacbFormat, TruncationIsRejectedAtEveryLength) {
  const Dataset original = mixed_dataset(120);
  std::ostringstream full;
  format::write_pacb(full, original, /*chunk_rows=*/32);
  const std::string bytes = full.str();
  // Every strict prefix must be rejected: the trailer check catches cut
  // files even when all earlier blocks happen to parse.
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                          bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 9, bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, len));
    EXPECT_THROW(format::read_pacb(in), format::FormatError)
        << "prefix of " << len << " bytes";
  }
  std::istringstream in(bytes);
  EXPECT_NO_THROW(format::read_pacb(in));
}

TEST(PacbFormat, BadMagicAndVersionAreRejected) {
  const Dataset original = mixed_dataset(50);
  std::ostringstream out;
  format::write_pacb(out, original);
  std::string bytes = out.str();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  std::istringstream m(bad_magic);
  EXPECT_THROW(format::read_pacb(m), format::FormatError);

  std::string bad_version = bytes;
  bad_version[4] = 99;  // u32 version little-endian low byte
  std::istringstream v(bad_version);
  EXPECT_THROW(format::read_pacb(v), format::FormatError);
}

TEST(PacbFormat, CorruptChunkNamesChunkAndColumn) {
  const Dataset original = mixed_dataset(200);
  const std::string path = temp_path("crc") + ".pacb";
  format::write_pacb_file(path, original, /*chunk_rows=*/64);

  // Flip one byte inside chunk 2's segment for column 4 ('c0').
  const format::PacbLayout layout = format::read_layout(path);
  const std::size_t target_chunk = 2, target_column = 4;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        layout.column_data_offset(target_chunk, target_column) + 5));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }

  // The resident one-shot reader verifies every CRC up front.
  EXPECT_THROW(open_dataset(path, resident_only()), format::FormatError);

  // The chunked store verifies lazily: clean chunks still load, and the
  // corrupt one throws a FormatError naming exactly where the rot is.
  const Dataset chunked(ChunkedStore::open(path));
  EXPECT_NO_THROW(chunked.real_block(4, ItemRange{0, 64}));
  try {
    chunked.real_block(4, ItemRange{140, 180});
    FAIL() << "corrupt chunk load did not throw";
  } catch (const format::FormatError& e) {
    EXPECT_EQ(e.chunk(), static_cast<std::ptrdiff_t>(target_chunk));
    EXPECT_EQ(e.column(), static_cast<std::ptrdiff_t>(target_column));
    EXPECT_NE(std::string(e.what()).find("c0"), std::string::npos)
        << "message should name the attribute: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(ChunkedStore, BlocksMatchResidentIncludingStraddlesAndEviction) {
  const Dataset original = mixed_dataset(701);
  const std::string path = temp_path("blk") + ".pacb";
  // Odd chunk size so kernel-style 256-item blocks straddle chunk borders.
  format::write_pacb_file(path, original, /*chunk_rows=*/37);
  // A budget of one chunk's worth of bytes forces constant eviction.
  auto store = ChunkedStore::open(path, /*budget_bytes=*/4096);
  const Dataset chunked(store);

  const std::size_t n = original.num_items();
  for (std::size_t begin = 0; begin < n; begin += 256) {
    const ItemRange range{begin, std::min(begin + 256, n)};
    for (std::size_t a = 0; a < original.num_attributes(); ++a) {
      if (original.schema().at(a).kind == AttributeKind::kReal) {
        const auto r = original.real_block(a, range);
        const auto c = chunked.real_block(a, range);
        ASSERT_EQ(r.size(), c.size());
        EXPECT_EQ(std::memcmp(r.data(), c.data(), r.size() * sizeof(double)),
                  0)
            << "attr " << a << " block at " << begin;
      } else {
        const auto r = original.discrete_block(a, range);
        const auto c = chunked.discrete_block(a, range);
        ASSERT_EQ(r.size(), c.size());
        EXPECT_EQ(
            std::memcmp(r.data(), c.data(), r.size() * sizeof(std::int32_t)),
            0)
            << "attr " << a << " block at " << begin;
      }
    }
  }
  // Scalar access agrees too (EM init paths touch single items).
  for (std::size_t i = 0; i < n; i += 97) {
    const double rv = original.real_value(i, 0);
    const double cv = chunked.real_value(i, 0);
    EXPECT_EQ(std::memcmp(&rv, &cv, sizeof(double)), 0) << "item " << i;
    EXPECT_EQ(original.discrete_value(i, 2), chunked.discrete_value(i, 2));
  }
  // loads > distinct chunks proves the budget actually evicted and reloaded.
  const std::size_t distinct =
      store->num_chunks() * original.num_attributes();
  EXPECT_GT(store->chunk_loads(), distinct)
      << "budget never forced an eviction";
  EXPECT_LE(store->cached_bytes(), std::size_t{4096} + 37 * sizeof(double));
  std::remove(path.c_str());
}

TEST(OpenDataset, SniffsFormatsAndSelectsBackends) {
  const Dataset original = mixed_dataset(150);
  const std::string pacb = temp_path("open") + ".pacb";
  format::write_pacb_file(pacb, original);

  // Default: resident, regardless of format.
  const Dataset resident = open_dataset(pacb);
  EXPECT_TRUE(resident.resident());
  expect_identical(original, resident);

  // Explicit chunked backend.
  OpenOptions chunked_options;
  chunked_options.backend = Backend::kChunked;
  chunked_options.budget_mb = 1;
  const Dataset chunked = open_dataset(pacb, chunked_options);
  EXPECT_FALSE(chunked.resident());
  expect_identical(original, chunked);

  // kAuto + budget also goes chunked.
  OpenOptions auto_options;
  auto_options.budget_mb = 1;
  EXPECT_FALSE(open_dataset(pacb, auto_options).resident());

  // Chunked needs a .pacb: ASCII input must be rejected loudly.
  const std::string hd2 = temp_path("open") + ".hd2";
  const std::string db2 = temp_path("open") + ".db2";
  write_header_file(hd2, original.schema());
  write_data_file(db2, original);
  OpenOptions ascii_chunked;
  ascii_chunked.backend = Backend::kChunked;
  ascii_chunked.header_path = hd2;
  EXPECT_THROW(open_dataset(db2, ascii_chunked), pac::Error);

  std::remove(pacb.c_str());
  std::remove(hd2.c_str());
  std::remove(db2.c_str());
}

}  // namespace
}  // namespace pac::data
