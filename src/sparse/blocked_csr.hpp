// Blocked CSR: the auxiliary structure required by Algorithm 4 (§II-B2,
// §III-B of the paper). The matrix is partitioned into vertical blocks of
// b_n columns; within each block the entries are stored in CSR so the kernel
// can walk nonempty rows and reuse one regenerated column of S across the
// whole row.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace rsketch {

/// Non-owning CSR view of one vertical slab A[:, col0 : col0 + cols): what
/// the jki kernel walks. BlockedCsr::slab(b) gives one of its blocks;
/// transposed_slab() gives a CSC matrix's transpose.
template <typename T>
struct CsrSlab {
  index_t col0 = 0;            ///< first global column of the slab
  index_t rows = 0;
  index_t cols = 0;
  const index_t* row_ptr = nullptr;  ///< rows + 1 offsets
  const index_t* col_idx = nullptr;  ///< slab-local column indices
  const T* values = nullptr;
  index_t nnz = 0;
  index_t nonempty_rows = 0;   ///< rows with >= 1 entry
};

/// Aᵀ as a one-slab CSR: A's CSC arrays read as they are (column k of A is
/// row k of Aᵀ), copying nothing. The view lives as long as `a` does.
template <typename T>
CsrSlab<T> transposed_slab(const CscMatrix<T>& a) {
  index_t nonempty = 0;
  for (index_t k = 0; k < a.cols(); ++k) nonempty += a.col_nnz(k) > 0;
  return {0,
          a.cols(),
          a.rows(),
          a.col_ptr().data(),
          a.row_idx().data(),
          a.values().data(),
          a.nnz(),
          nonempty};
}

/// Vertical-block partition of an m×n CSC matrix with per-block CSR storage.
template <typename T>
class BlockedCsr {
 public:
  /// One vertical slab A[:, col0 : col0 + csr.cols()).
  struct Block {
    index_t col0 = 0;       ///< first global column covered by this block
    CsrMatrix<T> csr;       ///< m × width slab in CSR (local column indices)
    /// Structure metadata precomputed at conversion so the jki kernel's
    /// counter accounting never re-walks row_ptr (it used to cost a second
    /// full O(m) pass per block per i-block).
    index_t nnz = 0;            ///< stored entries in this slab
    index_t nonempty_rows = 0;  ///< rows with >= 1 entry (columns of S the
                                ///< kernel regenerates per i-block)
  };

  BlockedCsr() = default;

  /// Sequential construction; cost O(⌈n/b_n⌉·m + nnz) as analyzed in §III-B.
  static BlockedCsr from_csc(const CscMatrix<T>& a, index_t block_cols);

  /// Parallel construction: blocks are built independently, one per task.
  static BlockedCsr from_csc_parallel(const CscMatrix<T>& a,
                                      index_t block_cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t block_cols() const { return block_cols_; }
  index_t num_blocks() const { return static_cast<index_t>(blocks_.size()); }
  const Block& block(index_t b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }

  /// Block b as the view the jki kernel walks.
  CsrSlab<T> slab(index_t b) const {
    const Block& blk = block(b);
    return {blk.col0,
            blk.csr.rows(),
            blk.csr.cols(),
            blk.csr.row_ptr().data(),
            blk.csr.col_idx().data(),
            blk.csr.values().data(),
            blk.nnz,
            blk.nonempty_rows};
  }

  index_t nnz() const;
  std::size_t memory_bytes() const;

 private:
  static Block build_block(const CscMatrix<T>& a, index_t col0, index_t width);

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_cols_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace rsketch
