// Checkpointing: serialize classifications and search state to ASCII
// streams (the paper's Fig. 1 step 4 / Fig. 2 "store partial results").
//
// AutoClass C persists its search across invocations in .results/.search
// files; the reproduction does the same with a simple versioned text
// format.  Values round-trip exactly (printed with 17 significant digits),
// so a resumed search continues bit-for-bit where the stored one stopped.
//
// A Classification only stores parameters, weights, and scores — it is
// re-bound to a Model (and therefore a Dataset) at load time, which must
// have the same term structure (checked).
#pragma once

#include <iosfwd>

#include "autoclass/search.hpp"
#include "util/error.hpp"

namespace pac::ac {

/// A malformed checkpoint.  Names the 1-based line and the field being
/// parsed when the stream went wrong, so a corrupt checkpoint surfaced by
/// a pac_serve hot-reload is diagnosable from the message alone
/// ("checkpoint parse error at line 4, field 'weights': ...").  Subclasses
/// pac::Error, so existing catch sites keep working.
class CheckpointError : public pac::Error {
 public:
  CheckpointError(std::size_t line, std::string field,
                  const std::string& what)
      : pac::Error(what), line_(line), field_(std::move(field)) {}
  /// 1-based line of the ASCII checkpoint where parsing failed.
  std::size_t line() const noexcept { return line_; }
  /// The field (token or value name) being read when parsing failed.
  const std::string& field() const noexcept { return field_; }

 private:
  std::size_t line_;
  std::string field_;
};

/// Hard caps on counts a checkpoint may declare.  A checkpoint is parsed
/// from an untrusted file (hot-reload watches a path anyone may write), so
/// declared sizes are bounded before any allocation.
inline constexpr std::size_t kMaxCheckpointClasses = 4096;
inline constexpr std::size_t kMaxCheckpointLeaderboard = 4096;

void save_classification(std::ostream& out, const Classification& c);

/// Load one classification and bind it to `model`; throws CheckpointError
/// (naming line and field) on malformed input or structure mismatch.
Classification load_classification(std::istream& in, const Model& model);

void save_search_result(std::ostream& out, const SearchResult& result);

SearchResult load_search_result(std::istream& in, const Model& model);

/// Convenience file variants.  The save throws pac::Error naming `path` when
/// the file cannot be opened or the write fails (e.g. a full device).
void save_search_result_file(const std::string& path,
                             const SearchResult& result);
SearchResult load_search_result_file(const std::string& path,
                                     const Model& model);

/// Continue a search from a stored result: the stored leaderboard seeds the
/// duplicate elimination and the J-selection evidence, and `tries` continue
/// counting from the stored value (so the same try indices are not rerun).
SearchResult resume_search(const Model& model, const SearchConfig& config,
                           const TryRunner& runner,
                           const SearchResult& resume_from);

}  // namespace pac::ac
