// Common index types, error handling, and small utilities shared by every
// rsketch module.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rsketch {

/// Signed index type used for all matrix dimensions and nonzero counts.
/// Signed so loop arithmetic (`j + b - 1`, reverse loops) is safe, 64-bit so
/// paper-scale matrices (nnz up to 4.6e7, products up to 1e12) never overflow.
using index_t = std::int64_t;

/// Exception thrown for structurally invalid inputs (dimension mismatches,
/// malformed sparse structures, bad configuration values).
class invalid_argument_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when a file cannot be parsed (Matrix Market I/O).
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Exception thrown when a computation breaks down numerically and cannot be
/// recovered (NaN/Inf propagation, exhausted re-sketch attempts in the
/// guarded solver). Distinct from invalid_argument_error: the inputs were
/// structurally fine, the arithmetic went bad.
class numeric_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throw invalid_argument_error with `msg` unless `cond` holds.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw invalid_argument_error(msg);
}
/// The same for a literal message: a check that holds builds no std::string,
/// which matters in validate() loops that check every stored entry.
inline void require(bool cond, const char* msg) {
  if (!cond) throw invalid_argument_error(msg);
}

/// Integer ceiling division for nonnegative values.
constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

}  // namespace rsketch
