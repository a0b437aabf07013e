#include "autoclass/checkpoint.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace pac::ac {

namespace {

constexpr const char* kClassificationMagic = "pac-classification";
constexpr const char* kSearchMagic = "pac-search-result";
constexpr int kVersion = 1;

void write_doubles(std::ostream& out, std::span<const double> values) {
  out << std::setprecision(17);
  for (std::size_t i = 0; i < values.size(); ++i)
    out << (i ? " " : "") << values[i];
  out << "\n";
}

/// Tokenizer that tracks the 1-based line number so every parse failure
/// can name the offending line and field (CheckpointError).  Characters
/// are consumed one at a time — newlines inside skipped whitespace count —
/// which `in >> token` cannot do.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) : in_(in) {}

  std::size_t line() const noexcept { return line_; }

  [[noreturn]] void fail(const std::string& field,
                         const std::string& detail) const {
    throw CheckpointError(line_, field,
                          "checkpoint parse error at line " +
                              std::to_string(line_) + ", field '" + field +
                              "': " + detail);
  }

  /// Next whitespace-delimited token; fails on end of stream.
  std::string next(const std::string& field) {
    int ch = in_.get();
    while (ch != std::istream::traits_type::eof() &&
           std::isspace(static_cast<unsigned char>(ch))) {
      if (ch == '\n') ++line_;
      ch = in_.get();
    }
    if (ch == std::istream::traits_type::eof())
      fail(field, "unexpected end of checkpoint");
    std::string token;
    while (ch != std::istream::traits_type::eof() &&
           !std::isspace(static_cast<unsigned char>(ch))) {
      token.push_back(static_cast<char>(ch));
      ch = in_.get();
    }
    if (ch == '\n') ++line_;
    return token;
  }

  /// Consume a literal structural token ("weights", "end", ...).
  void expect(const std::string& literal) {
    const std::string token = next(literal);
    if (token != literal)
      fail(literal, "expected '" + literal + "', got '" + token + "'");
  }

  double read_double(const std::string& field) {
    const std::string token = next(field);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty())
      fail(field, "malformed number '" + token + "'");
    return v;
  }

  long long read_int(const std::string& field) {
    const std::string token = next(field);
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || token.empty() ||
        errno == ERANGE)
      fail(field, "malformed integer '" + token + "'");
    return v;
  }

  /// Non-negative count with an explicit upper bound: declared sizes are
  /// attacker-controlled under hot-reload and bounded before allocation.
  std::size_t read_count(const std::string& field, std::size_t max) {
    const long long v = read_int(field);
    if (v < 0) fail(field, "negative count " + std::to_string(v));
    if (static_cast<unsigned long long>(v) > max)
      fail(field, "count " + std::to_string(v) + " exceeds the limit of " +
                      std::to_string(max));
    return static_cast<std::size_t>(v);
  }

  void read_doubles(std::span<double> values, const std::string& field) {
    for (double& v : values) v = read_double(field);
  }

 private:
  std::istream& in_;
  std::size_t line_ = 1;
};

Classification load_classification_from(TokenReader& r, const Model& model) {
  r.expect(kClassificationMagic);
  r.expect("v1");
  r.expect("classes");
  const std::size_t num_classes =
      r.read_count("class count", kMaxCheckpointClasses);
  if (num_classes == 0) r.fail("class count", "a classification needs >= 1 class");
  r.expect("params_per_class");
  const std::size_t ppc =
      r.read_count("params_per_class", std::numeric_limits<std::size_t>::max() / 2);
  if (ppc != model.params_per_class())
    r.fail("params_per_class",
           "checkpoint was written for a different model structure (" +
               std::to_string(ppc) + " params/class vs " +
               std::to_string(model.params_per_class()) + ")");
  Classification c(model, num_classes);
  r.expect("scores");
  c.log_likelihood = r.read_double("log_likelihood");
  c.cs_score = r.read_double("cs_score");
  c.bic_score = r.read_double("bic_score");
  c.cycles = static_cast<int>(r.read_int("cycles"));
  c.initial_classes = static_cast<int>(r.read_int("initial_classes"));
  r.expect("log_pi");
  r.read_doubles(c.mutable_log_pis(), "log_pi");
  r.expect("weights");
  r.read_doubles(c.mutable_weights(), "weights");
  r.expect("params");
  r.read_doubles(c.all_params_mutable(), "params");
  r.expect("end");
  return c;
}

}  // namespace

void save_classification(std::ostream& out, const Classification& c) {
  out << kClassificationMagic << " v" << kVersion << "\n";
  out << "classes " << c.num_classes() << " params_per_class "
      << c.model().params_per_class() << "\n";
  out << "scores " << std::setprecision(17) << c.log_likelihood << " "
      << c.cs_score << " " << c.bic_score << " " << c.cycles << " "
      << c.initial_classes << "\n";
  out << "log_pi ";
  write_doubles(out, c.log_pis());
  out << "weights ";
  write_doubles(out, c.weights());
  out << "params ";
  write_doubles(out, c.all_params());
  out << "end\n";
}

Classification load_classification(std::istream& in, const Model& model) {
  TokenReader r(in);
  return load_classification_from(r, model);
}

void save_search_result(std::ostream& out, const SearchResult& result) {
  out << kSearchMagic << " v" << kVersion << "\n";
  out << "tries " << result.tries << " duplicates " << result.duplicates
      << " total_cycles " << result.total_cycles << " best "
      << result.best.size() << "\n";
  for (const TryResult& entry : result.best) {
    out << "try " << entry.try_index << " " << entry.j_requested << " "
        << (entry.converged ? 1 : 0) << "\n";
    save_classification(out, entry.classification);
  }
  out << "end\n";
}

SearchResult load_search_result(std::istream& in, const Model& model) {
  TokenReader r(in);
  r.expect(kSearchMagic);
  r.expect("v1");
  SearchResult result;
  r.expect("tries");
  result.tries = static_cast<int>(r.read_int("tries"));
  r.expect("duplicates");
  result.duplicates = static_cast<int>(r.read_int("duplicates"));
  r.expect("total_cycles");
  result.total_cycles = r.read_int("total_cycles");
  r.expect("best");
  const std::size_t count =
      r.read_count("leaderboard size", kMaxCheckpointLeaderboard);
  for (std::size_t b = 0; b < count; ++b) {
    r.expect("try");
    const int try_index = static_cast<int>(r.read_int("try index"));
    const int j_requested = static_cast<int>(r.read_int("j requested"));
    const int converged = static_cast<int>(r.read_int("converged flag"));
    TryResult entry{load_classification_from(r, model)};
    entry.try_index = try_index;
    entry.j_requested = j_requested;
    entry.converged = converged != 0;
    result.best.push_back(std::move(entry));
  }
  r.expect("end");
  return result;
}

void save_search_result_file(const std::string& path,
                             const SearchResult& result) {
  std::ofstream out(path);
  PAC_REQUIRE_MSG(out.good(), "cannot open '" << path << "' for writing");
  save_search_result(out, result);
  out.flush();
  PAC_REQUIRE_MSG(out.good(), "failed writing checkpoint '" << path << "'");
}

SearchResult load_search_result_file(const std::string& path,
                                     const Model& model) {
  std::ifstream in(path);
  PAC_REQUIRE_MSG(in.good(), "cannot open checkpoint file '" << path << "'");
  return load_search_result(in, model);
}

SearchResult resume_search(const Model& model, const SearchConfig& config,
                           const TryRunner& runner,
                           const SearchResult& resume_from) {
  SearchResult state;
  state.tries = resume_from.tries;
  state.duplicates = resume_from.duplicates;
  state.total_cycles = resume_from.total_cycles;
  for (const TryResult& entry : resume_from.best) {
    TryResult copy{Classification(entry.classification)};
    copy.try_index = entry.try_index;
    copy.j_requested = entry.j_requested;
    copy.converged = entry.converged;
    state.best.push_back(std::move(copy));
  }
  return run_search_from(model, config, runner, std::move(state));
}

}  // namespace pac::ac
