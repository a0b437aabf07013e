#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/error.hpp"

namespace pac {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    PAC_REQUIRE_MSG(!name.empty(), "bare '--' is not a flag");
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      values_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get_string(const std::string& name,
                            const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  PAC_REQUIRE_MSG(end && *end == '\0',
                  "--" << name << " expects an integer, got '" << it->second
                       << "'");
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  PAC_REQUIRE_MSG(end && *end == '\0',
                  "--" << name << " expects a number, got '" << it->second
                       << "'");
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  PAC_REQUIRE_MSG(false, "--" << name << " expects a boolean, got '" << v
                              << "'");
  return def;
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    if (!tok.empty()) {
      char* end = nullptr;
      const std::int64_t v = std::strtoll(tok.c_str(), &end, 10);
      PAC_REQUIRE_MSG(end && *end == '\0',
                      "--" << name << " has a non-integer element '" << tok
                           << "'");
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  PAC_REQUIRE_MSG(!out.empty(), "--" << name << " list is empty");
  return out;
}

std::vector<std::string> Cli::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> Cli::unknown_flags(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_)
    if (std::find(known.begin(), known.end(), k) == known.end())
      out.push_back(k);
  return out;
}

}  // namespace pac
