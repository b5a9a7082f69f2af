// The memory-efficient but cache-unfriendly prior approach the paper
// contrasts against (§II-A): pylspack-style (1, m, 1)-blocking that
// generates one column of S at a time and applies it as a rank-1 update to
// the ENTIRE output Â (Sobczyk & Gallopoulos, 2022).
#pragma once

#include "dense/dense_matrix.hpp"
#include "sketch/config.hpp"
#include "sparse/csr.hpp"

namespace rsketch {

/// Compute Â = S·A with (1, m, 1)-blocking. A must be given in CSR (the
/// streaming loop needs row access). Only cfg.d / seed / dist / backend are
/// honoured — there are no blocks to size, which is precisely this
/// approach's weakness: every rank-1 update touches all d×n of Â.
template <typename T>
SketchStats streaming_sketch(const SketchConfig& cfg, const CsrMatrix<T>& a,
                             DenseMatrix<T>& a_hat);

}  // namespace rsketch
