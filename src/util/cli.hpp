// Tiny command-line flag parser for the examples and figure harnesses.
//
// Supported forms: --name value, --name=value, and bare boolean --name.
// The parser accepts any flag name; rejecting unknown ones is the caller's
// check (unknown_flags against the flags it reads), because a typo that
// silently changes an experiment or a server setting is worse than a hard
// stop.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pac {

class Cli {
 public:
  /// Parse argv; throws pac::Error on a malformed flag.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed getters with defaults; throw pac::Error on a malformed value.
  std::string get_string(const std::string& name,
                         const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Comma-separated integer list, e.g. --sizes 5000,10000.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line (for --help style listings).
  std::vector<std::string> names() const;

  /// Names seen on the command line that are not in `known`, in name
  /// order; empty when every flag is known.
  std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace pac
