#include "data/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "data/format.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace pac::data {

namespace {

/// Strip comments and surrounding whitespace; returns true if content left.
bool clean_line(std::string& line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    line.clear();
    return false;
  }
  const auto last = line.find_last_not_of(" \t\r\n");
  line = line.substr(first, last - first + 1);
  return true;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string token;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == ',') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

double parse_double(const std::string& token, int line_no) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  PAC_REQUIRE_MSG(end && *end == '\0',
                  "line " << line_no << ": expected a number, got '" << token
                          << "'");
  return v;
}

int parse_int(const std::string& token, int line_no) {
  int v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  PAC_REQUIRE_MSG(ec == std::errc() && ptr == token.data() + token.size(),
                  "line " << line_no << ": expected an integer, got '"
                          << token << "'");
  return v;
}

}  // namespace

Schema read_header(std::istream& in) {
  std::vector<Attribute> attributes;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!clean_line(line)) continue;
    const auto tokens = tokenize(line);
    PAC_REQUIRE_MSG(tokens.size() >= 2,
                    "line " << line_no << ": malformed declaration '" << line
                            << "'");
    if (tokens[0] == "real") {
      double error = 1e-2;
      if (tokens.size() >= 4 && tokens[2] == "error")
        error = parse_double(tokens[3], line_no);
      else
        PAC_REQUIRE_MSG(tokens.size() == 2,
                        "line " << line_no
                                << ": real syntax is 'real <name> [error <float>]'");
      attributes.push_back(Attribute::real(tokens[1], error));
    } else if (tokens[0] == "discrete") {
      PAC_REQUIRE_MSG(tokens.size() == 4 && tokens[2] == "range",
                      "line " << line_no
                              << ": discrete syntax is 'discrete <name> range <int>'");
      attributes.push_back(
          Attribute::discrete(tokens[1], parse_int(tokens[3], line_no)));
    } else {
      PAC_REQUIRE_MSG(false, "line " << line_no << ": unknown attribute kind '"
                                     << tokens[0] << "'");
    }
  }
  PAC_REQUIRE_MSG(!attributes.empty(), "header declares no attributes");
  return Schema(std::move(attributes));
}

Dataset read_data(std::istream& in, const Schema& schema) {
  // Two passes are avoided by buffering parsed rows.
  struct Cell {
    bool missing = false;
    double real = 0.0;
    std::int32_t discrete = 0;
  };
  std::vector<std::vector<Cell>> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!clean_line(line)) continue;
    const auto tokens = tokenize(line);
    PAC_REQUIRE_MSG(tokens.size() == schema.size(),
                    "line " << line_no << ": expected " << schema.size()
                            << " values, got " << tokens.size());
    std::vector<Cell> row(schema.size());
    for (std::size_t a = 0; a < schema.size(); ++a) {
      if (tokens[a] == "?") {
        row[a].missing = true;
        continue;
      }
      if (schema.at(a).kind == AttributeKind::kReal) {
        row[a].real = parse_double(tokens[a], line_no);
      } else {
        const int v = parse_int(tokens[a], line_no);
        PAC_REQUIRE_MSG(v >= 0 && v < schema.at(a).num_values,
                        "line " << line_no << ": value " << v
                                << " out of range for discrete attribute '"
                                << schema.at(a).name << "'");
        row[a].discrete = v;
      }
    }
    rows.push_back(std::move(row));
  }
  Dataset out(schema, rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t a = 0; a < schema.size(); ++a) {
      const Cell& c = rows[i][a];
      if (c.missing) continue;  // already missing by construction
      if (schema.at(a).kind == AttributeKind::kReal) {
        out.set_real(i, a, c.real);
      } else {
        out.set_discrete(i, a, c.discrete);
      }
    }
  }
  return out;
}

void write_header(std::ostream& out, const Schema& schema) {
  out << "# pac header (AutoClass .hd2-style)\n";
  for (const Attribute& a : schema.attributes()) {
    if (a.kind == AttributeKind::kReal) {
      out << "real " << a.name << " error " << a.rel_error << "\n";
    } else {
      out << "discrete " << a.name << " range " << a.num_values << "\n";
    }
  }
}

void write_data(std::ostream& out, const Dataset& dataset) {
  const Schema& schema = dataset.schema();
  std::ostringstream line;
  line.precision(17);
  for (std::size_t i = 0; i < dataset.num_items(); ++i) {
    line.str("");
    for (std::size_t a = 0; a < schema.size(); ++a) {
      if (a > 0) line << ' ';
      if (dataset.is_missing(i, a)) {
        line << '?';
      } else if (schema.at(a).kind == AttributeKind::kReal) {
        line << dataset.real_value(i, a);
      } else {
        line << dataset.discrete_value(i, a);
      }
    }
    out << line.str() << '\n';
  }
}

namespace {

/// Split one CSV line on commas (no quoting; fields are trimmed).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  auto flush = [&] {
    const auto first = field.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      fields.emplace_back();
    } else {
      const auto last = field.find_last_not_of(" \t\r");
      fields.push_back(field.substr(first, last - first + 1));
    }
    field.clear();
  };
  for (const char c : line) {
    if (c == ',') {
      flush();
    } else {
      field.push_back(c);
    }
  }
  flush();
  return fields;
}

bool csv_missing(const std::string& token) {
  return token.empty() || token == "?" || token == "NA" || token == "NaN";
}

bool parses_as_number(const std::string& token, double& value) {
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  return end && *end == '\0' && end != token.c_str();
}

}  // namespace

CsvResult read_csv(std::istream& in) {
  std::string line;
  PAC_REQUIRE_MSG(std::getline(in, line), "CSV input is empty");
  const std::vector<std::string> names = csv_fields(line);
  PAC_REQUIRE_MSG(!names.empty() && !names[0].empty(),
                  "CSV header row is malformed");
  const std::size_t k = names.size();

  // Buffer all rows as strings, inferring numeric-ness per column.
  std::vector<std::vector<std::string>> rows;
  std::vector<bool> numeric(k, true);
  std::vector<bool> any_known(k, false);
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::vector<std::string> fields = csv_fields(line);
    PAC_REQUIRE_MSG(fields.size() == k, "CSV line " << line_no << " has "
                                                    << fields.size()
                                                    << " fields, expected "
                                                    << k);
    for (std::size_t a = 0; a < k; ++a) {
      if (csv_missing(fields[a])) continue;
      any_known[a] = true;
      double ignored = 0.0;
      if (!parses_as_number(fields[a], ignored)) numeric[a] = false;
    }
    rows.push_back(std::move(fields));
  }

  // Build dictionaries for discrete columns (first-appearance order).
  std::vector<std::vector<std::string>> categories(k);
  for (std::size_t a = 0; a < k; ++a) {
    if (numeric[a] && any_known[a]) continue;
    for (const auto& row : rows) {
      if (csv_missing(row[a])) continue;
      if (std::find(categories[a].begin(), categories[a].end(), row[a]) ==
          categories[a].end())
        categories[a].push_back(row[a]);
    }
    // A discrete attribute needs >= 2 symbols; pad degenerate columns.
    while (categories[a].size() < 2)
      categories[a].push_back("__unused" +
                              std::to_string(categories[a].size()));
  }

  // Column statistics for the real attributes' default errors.
  std::vector<Attribute> attributes;
  for (std::size_t a = 0; a < k; ++a) {
    if (numeric[a] && any_known[a]) {
      WeightedMoments m;
      for (const auto& row : rows) {
        double v = 0.0;
        if (!csv_missing(row[a]) && parses_as_number(row[a], v)) m.add(v, 1.0);
      }
      const double sd = std::sqrt(std::max(m.variance(), 0.0));
      attributes.push_back(
          Attribute::real(names[a], std::max(1e-6, 0.01 * sd)));
    } else {
      attributes.push_back(Attribute::discrete(
          names[a], static_cast<int>(categories[a].size())));
    }
  }

  CsvResult result{Dataset(Schema(std::move(attributes)), rows.size()),
                   std::move(categories)};
  const Schema& schema = result.dataset.schema();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t a = 0; a < k; ++a) {
      if (csv_missing(rows[i][a])) continue;
      if (schema.at(a).kind == AttributeKind::kReal) {
        double v = 0.0;
        PAC_CHECK(parses_as_number(rows[i][a], v));
        result.dataset.set_real(i, a, v);
      } else {
        const auto& dict = result.categories[a];
        const auto it = std::find(dict.begin(), dict.end(), rows[i][a]);
        PAC_CHECK(it != dict.end());
        result.dataset.set_discrete(
            i, a, static_cast<std::int32_t>(it - dict.begin()));
      }
    }
  }
  return result;
}

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Open `path` for reading; throws "cannot open <what> '<path>'".
std::ifstream open_input(const std::string& path, const char* what,
                         std::ios::openmode mode = std::ios::in) {
  std::ifstream in(path, mode);
  PAC_REQUIRE_MSG(in.good(), "cannot open " << what << " '" << path << "'");
  return in;
}

/// True when the file starts with the .pacb magic (sniffed, not by name, so
/// converted files keep working under any extension).
bool sniff_pacb(const std::string& path) {
  std::ifstream in = open_input(path, "dataset", std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  return in.gcount() == 4 && magic[0] == 'P' && magic[1] == 'A' &&
         magic[2] == 'C' && magic[3] == 'B';
}

std::string default_header_path(const std::string& data_path) {
  const auto dot = data_path.rfind('.');
  const auto slash = data_path.find_last_of('/');
  const std::string stem =
      (dot == std::string::npos || (slash != std::string::npos && dot < slash))
          ? data_path
          : data_path.substr(0, dot);
  return stem + ".hd2";
}

}  // namespace

Dataset open_dataset(const std::string& path, const OpenOptions& options) {
  const std::size_t budget_bytes = budget_bytes_from_mb(options.budget_mb);
  const bool is_pacb = sniff_pacb(path);
  const bool budget_configured =
      options.budget_mb > 0 ||
      (std::getenv("PAC_DATA_BUDGET_MB") != nullptr &&
       *std::getenv("PAC_DATA_BUDGET_MB") != '\0');
  const bool want_chunked =
      options.backend == Backend::kChunked ||
      (options.backend == Backend::kAuto && budget_configured);
  if (want_chunked)
    PAC_REQUIRE_MSG(is_pacb, "the chunked backend requires a .pacb file; '"
                                 << path
                                 << "' is not one (run pac_convert first)");
  if (is_pacb) {
    if (want_chunked)
      return Dataset(ChunkedStore::open(path, budget_bytes));
    std::ifstream in = open_input(path, "binary dataset", std::ios::binary);
    return format::read_pacb(in);
  }
  if (has_suffix(path, ".csv")) {
    std::ifstream in = open_input(path, "CSV file");
    return read_csv(in).dataset;
  }
  const std::string header = options.header_path.empty()
                                 ? default_header_path(path)
                                 : options.header_path;
  std::ifstream header_in = open_input(header, "header file");
  const Schema schema = read_header(header_in);
  std::ifstream data_in = open_input(path, "data file");
  return read_data(data_in, schema);
}

void write_header_file(const std::string& path, const Schema& schema) {
  std::ofstream out(path);
  PAC_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_header(out, schema);
}

void write_data_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  PAC_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_data(out, dataset);
}

}  // namespace pac::data
