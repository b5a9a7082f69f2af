// An arena hook that moves the fake run-control clock on each allocation, so
// a deadline passes between two phases of a solve that poll it.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

#include "support/aligned_buffer.hpp"
#include "support/arena.hpp"
#include "testdata/faults.hpp"

namespace rsketch {

/// Serves AlignedBuffer allocations from the heap and, from the second one
/// on, moves the fake clock forward by `step_ms`. Inside a SAP solve the
/// first allocation on the calling thread is the sketch's staged Â, made
/// before the sketch's first poll (its kernel scratch bypasses the hook); the
/// next ones come from the factorization, after the sketch's last poll and
/// before LSQR's first.
class ClockAdvancingArena final : public ArenaHook {
 public:
  ClockAdvancingArena(faults::ScheduledFault& clock, double step_ms)
      : clock_(clock), step_ms_(step_ms) {}
  void* arena_acquire(std::size_t bytes) override {
    if (acquired_++ > 0) clock_.advance_ms(step_ms_);
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  void arena_release(void* p) noexcept override { std::free(p); }
  int acquired() const { return acquired_; }

 private:
  faults::ScheduledFault& clock_;
  double step_ms_;
  int acquired_ = 0;
};

}  // namespace rsketch
