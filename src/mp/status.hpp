// Shared vocabulary types for the minimpi message-passing runtime.
#pragma once

#include <cstddef>
#include <exception>

#include "util/error.hpp"

namespace pac::mp {

/// Wildcard source for recv (matches any sender), like MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;
/// Wildcard tag for recv, like MPI_ANY_TAG.
inline constexpr int kAnyTag = -1;

/// Result of a receive: who sent it, under which tag, and how many bytes.
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Built-in reduction operators.  The EM reductions are all sums; kMin and
/// kMax serve extrema (micro_kernels' hot scalar allreduce uses kMax) and a
/// cross-rank divergence guard needs both.
enum class ReduceOp { kSum, kMin, kMax };

/// Thrown inside rank threads when the world is torn down because another
/// rank failed.  The World swallows these and rethrows the original error.
class Aborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "minimpi world aborted (another rank failed)";
  }
};

/// Typed error for everything that can go wrong on a real (multi-process)
/// transport: connection refused during rendezvous, a peer rank dying
/// mid-collective, a short read on a framed stream, a send into a closed
/// socket.  Carries a human-readable diagnosis naming the rank(s) and,
/// where known, the tag involved, so a failed collective is debuggable
/// from the message alone.
class TransportError : public pac::Error {
 public:
  explicit TransportError(const std::string& what) : pac::Error(what) {}
};

}  // namespace pac::mp
