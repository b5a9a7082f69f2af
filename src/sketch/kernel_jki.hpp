// Algorithm 4 of the paper: compute-kernel variant `jki` with on-the-fly
// random number generation and sample reuse.
//
// For one outer block pair (row block [i0, i0+d1) of Â, one vertical CSR
// slab of A): walk the rows of the block; for every NONEMPTY row j,
// regenerate v = S[i0 : i0+d1, j] once and reuse it for every stored entry
// A[j, k] in the row via rank-1 updates Â[i0 : i0+d1, col0+k] += A[j,k]·v.
// Generates far fewer samples than kji (§III-B) at the price of
// sparsity-pattern-dependent column jumps in Â (§II-B2).
#pragma once

#include "dense/dense_matrix.hpp"
#include "rng/distributions.hpp"
#include "sparse/blocked_csr.hpp"
#include "support/timer.hpp"

namespace rsketch {

/// Apply the jki kernel for row block [i0, i0+d1) of Â against one vertical
/// slab of A (a BlockedCsr block, or the whole of Aᵀ read from A's CSC).
/// `v` is caller scratch of at least d1 elements. Sample timing
/// as in kernel_kji; work counters are taken per block by the outer driver.
template <typename T>
void kernel_jki(DenseMatrix<T>& a_hat, index_t i0, index_t d1,
                const CsrSlab<T>& slab, SketchSampler<T>& sampler, T* v,
                AccumTimer* sample_timer = nullptr);

}  // namespace rsketch
