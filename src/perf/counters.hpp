// Plain software-counter aggregate filled by the sketch kernels.
//
// Kept separate from perf.hpp so low-level headers (sketch/config.hpp) can
// embed it without pulling in the thread-local registry machinery. All fields
// are exact counts derived from the sparse structure — the kernels compute
// them per outer-block call (outside the nonzero loop), so collecting them
// costs O(block columns) extra work, not O(nnz·d).
#pragma once

#include <cstdint>

namespace rsketch::perf {

/// Exact work/traffic accounting for one or more kernel invocations.
///
/// `elems_moved` counts matrix elements of A and Â read or written (the unit
/// of the paper's one-layer cache model, §III-A); `rng_samples` counts
/// entries of S generated on the fly (never loaded from memory). The
/// measured computational intensity comparable to `roofline.cpp`'s modeled
/// CI is therefore flops / (elems_moved + rng_samples).
struct KernelCounters {
  std::uint64_t rng_samples = 0;      ///< entries of S generated on the fly
  std::uint64_t nnz_processed = 0;    ///< stored entries of A consumed
  std::uint64_t flops = 0;            ///< 2·d1 per consumed nonzero (axpy)
  std::uint64_t elems_moved = 0;      ///< elements of A and Â read or written
  std::uint64_t bytes_moved = 0;      ///< the same traffic in bytes (values + indices)
  std::uint64_t bytes_generated = 0;  ///< bytes of S produced (never stored)
  std::uint64_t kernel_blocks = 0;    ///< kernel invocations (outer block pairs)

  /// Charge one outer block of a sketch kernel: `columns` regenerated
  /// d1-long columns of S and `nnz` consumed stored entries of A, each
  /// reading its value and one 64-bit index and updating d1 elements of the
  /// output (read + write), plus `index_bytes` of structure walked on top
  /// (row or column pointers; 0 when none).
  template <typename T>
  void add_block(std::uint64_t columns, std::uint64_t nnz, std::uint64_t d1,
                 std::uint64_t index_bytes) {
    rng_samples += columns * d1;
    nnz_processed += nnz;
    flops += 2 * nnz * d1;
    elems_moved += nnz * (2 * d1 + 1);
    bytes_moved +=
        nnz * (2 * d1 * sizeof(T) + sizeof(T) + sizeof(std::int64_t)) +
        index_bytes;
    bytes_generated += columns * d1 * sizeof(T);
    kernel_blocks += 1;
  }

  void merge(const KernelCounters& o) {
    rng_samples += o.rng_samples;
    nnz_processed += o.nnz_processed;
    flops += o.flops;
    elems_moved += o.elems_moved;
    bytes_moved += o.bytes_moved;
    bytes_generated += o.bytes_generated;
    kernel_blocks += o.kernel_blocks;
  }

  /// Measured CI in the paper's units: flops per element moved or generated.
  double intensity_per_element() const {
    const double denom =
        static_cast<double>(elems_moved) + static_cast<double>(rng_samples);
    return denom > 0.0 ? static_cast<double>(flops) / denom : 0.0;
  }

  /// Measured CI against actual memory traffic only (flops per byte) — the
  /// number to put on a DRAM roofline next to hardware counters.
  double intensity_per_byte() const {
    return bytes_moved > 0
               ? static_cast<double>(flops) / static_cast<double>(bytes_moved)
               : 0.0;
  }

  bool empty() const {
    return rng_samples == 0 && nnz_processed == 0 && flops == 0 &&
           elems_moved == 0 && kernel_blocks == 0;
  }
};

}  // namespace rsketch::perf
