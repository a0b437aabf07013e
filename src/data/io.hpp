// AutoClass-style ASCII dataset I/O.
//
// AutoClass C reads a header file (.hd2) describing the attributes and a
// data file (.db2) holding one tuple per line.  We implement the same split
// in a simplified grammar:
//
//   header:   one declaration per line
//             real <name> [error <float>]
//             discrete <name> range <int>
//             '#' starts a comment; blank lines ignored
//
//   data:     one item per line, values separated by spaces or commas;
//             '?' marks a missing value; '#' starts a comment
//
// Writers emit files the readers accept (round-trip tested).  Files are
// opened through open_dataset() below, the one entry point for every
// format and backend; the stream parsers stay public for in-memory input.
// The binary .pacb format lives in format.hpp.
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace pac::data {

/// Parse a header stream; throws pac::Error with a line number on bad input.
Schema read_header(std::istream& in);

/// Parse a data stream against `schema`.
Dataset read_data(std::istream& in, const Schema& schema);

/// Write the header / data formats accepted by the readers above.
void write_header(std::ostream& out, const Schema& schema);
void write_data(std::ostream& out, const Dataset& dataset);
void write_header_file(const std::string& path, const Schema& schema);
void write_data_file(const std::string& path, const Dataset& dataset);

// ---- CSV import ----
//
// Comma-separated files with a header row of attribute names.  Column types
// are inferred: a column whose every known value parses as a number becomes
// a real attribute; anything else becomes a discrete attribute whose
// distinct strings are dictionary-encoded (first-appearance order).  Empty
// fields, "?", "NA", and "NaN" are missing.  Real attribute errors default
// to 1% of the column's standard deviation.

struct CsvResult {
  Dataset dataset;
  /// For each discrete attribute (by schema index): symbol -> string label.
  /// Real attributes have an empty entry.
  std::vector<std::vector<std::string>> categories;
};

CsvResult read_csv(std::istream& in);

// ---- unified construction ----
//
// open_dataset() is the one entry point for files: it sniffs the on-disk
// format and returns a Dataset on the right backend.

enum class Backend {
  kAuto,      // resident, unless a .pacb file and a budget is configured
  kResident,  // load everything into memory
  kChunked,   // stream a .pacb under the PAC_DATA_BUDGET_MB byte budget
};

struct OpenOptions {
  Backend backend = Backend::kAuto;
  /// Chunk-cache budget in MiB for the chunked backend; 0 defers to the
  /// PAC_DATA_BUDGET_MB environment variable (default 256 MiB).
  std::size_t budget_mb = 0;
  /// Header path for ASCII .db2 data; empty means "data path with its
  /// extension swapped for .hd2".
  std::string header_path;
};

/// Open `path` as a Dataset.  Files starting with the "PACB" magic load as
/// binary (.pacb); a ".csv" suffix loads as CSV; anything else is ASCII
/// .db2 + .hd2.  Backend::kChunked (or kAuto with a budget configured)
/// requires a .pacb file.
Dataset open_dataset(const std::string& path, const OpenOptions& options = {});

}  // namespace pac::data
