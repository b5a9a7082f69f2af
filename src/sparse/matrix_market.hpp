// Matrix Market (.mtx) coordinate I/O — enough of the format to load the
// SuiteSparse collection matrices the paper benchmarks (coordinate
// real/integer/pattern, general or symmetric).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "dense/dense_matrix.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// The reader pulls its input in chunks of this many bytes, into a buffer
/// it never zero-fills; a line that crosses a chunk boundary is carried over
/// into the next one. Memory is O(chunk + longest line) plus the parsed
/// entries, never the whole file.
inline constexpr std::size_t kMatrixMarketReadChunk = std::size_t{1} << 18;

/// Each thread of the dense writer holds at most this many bytes of
/// formatted text that has not been written yet (one piece, below).
inline constexpr std::size_t kMatrixMarketWriteRound = std::size_t{1} << 20;

/// The dense writer formats pieces of this many column-major positions.
/// Threads claim pieces in order, and each piece is written, in order, by
/// the thread that formatted it while later ones are still being formatted.
inline constexpr index_t kMatrixMarketWritePiece = 4096;

/// Parse a Matrix Market coordinate stream into CSC. Supports field types
/// real/integer/pattern (pattern entries become 1.0) and symmetry
/// general/symmetric/skew-symmetric (mirrored entries are materialized).
/// Throws io_error on malformed input: a token with trailing characters, a
/// NaN/Inf or overflowing value, an out-of-range index, or a duplicate (i, j).
template <typename T>
CscMatrix<T> read_matrix_market(std::istream& in);

/// Load a .mtx file from disk. Throws io_error if the file cannot be opened
/// or parsed.
template <typename T>
CscMatrix<T> read_matrix_market_file(const std::string& path);

/// Write CSC as "matrix coordinate real general" with 1-based indices. Values
/// are the shortest text that reads back to the same bits.
template <typename T>
void write_matrix_market(std::ostream& out, const CscMatrix<T>& a);

template <typename T>
void write_matrix_market_file(const std::string& path, const CscMatrix<T>& a);

/// Write the nonzeros of a dense matrix in the same format and column-major
/// order as the CSC writer, with no sparse copy. Threads format pieces of
/// kMatrixMarketWritePiece positions, and the pieces are written in order,
/// so the bytes written do not depend on the thread count.
template <typename T>
void write_matrix_market_file(const std::string& path, const DenseMatrix<T>& a);

}  // namespace rsketch
