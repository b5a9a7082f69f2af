// Cooperative run control: cancellation, wall-clock deadlines, and workspace
// byte budgets for the sketching and solver pipelines.
//
// A RunControl is a passive handle the caller owns; the pipelines poll it at
// block granularity (one relaxed atomic load per outer block, nothing at all
// when no handle is attached) and abandon the run with a run_stopped_error
// carrying the cause. Outputs follow clean-throw semantics: a stopped run
// leaves the caller's output untouched (the sketch paths stage into a private
// buffer and move it out only on success). Budgets are enforced
// charge-before-allocate through the AlignedBuffer hook below and through
// MemoryTracker::attach(); on budget pressure the sketch path can instead walk
// a degradation ladder (sketch/sketch.cpp) toward a configuration that fits.
// See docs/ROBUSTNESS.md ("Run control") for the semantics table.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rsketch {

/// Why a controlled run stopped (None = still running / completed).
enum class StopCause {
  None = 0,
  Cancelled,         ///< RunControl::request_cancel() was called
  DeadlineExceeded,  ///< the wall-clock deadline passed
  BudgetExceeded,    ///< a workspace charge would exceed the byte budget
};

std::string to_string(StopCause cause);

/// Thrown when a controlled run is abandoned. Distinct from numeric_error
/// (the math was fine) and invalid_argument_error (the inputs were fine):
/// the caller's bound fired. what() carries context; cause() is machine-
/// readable for exit-code mapping (examples/sketch_tool.cpp).
class run_stopped_error : public std::runtime_error {
 public:
  run_stopped_error(StopCause cause, const std::string& msg)
      : std::runtime_error(msg), cause_(cause) {}
  StopCause cause() const { return cause_; }

 private:
  StopCause cause_;
};

namespace detail {

/// Fake monotonic clock for the deterministic deadline tests
/// (testdata/faults.hpp arms it via ScheduledFault): when >= 0, RunControl
/// reads this value as "now" in nanoseconds instead of the steady clock.
/// Negative = disarmed (the normal state); one relaxed load per deadline
/// check either way.
inline std::atomic<long long> fake_clock_ns{-1};

}  // namespace detail

/// Cooperative cancellation token + deadline + workspace budget.
///
/// Thread-safe: any thread may request_cancel() / charge() / poll()
/// concurrently. Controls can chain (set_parent): a child is considered
/// stopped when it or any ancestor is, and charges propagate to every
/// ancestor holding a budget — how the tuner's pilot sub-deadline composes
/// with the caller's outer bounds without ever loosening them.
class RunControl {
 public:
  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Arm a wall-clock deadline `ms` milliseconds from now (ms <= 0 disarms).
  void set_deadline_ms(double ms);

  /// Arm a workspace byte budget (0 disarms). Charges already outstanding
  /// are kept.
  void set_budget_bytes(std::size_t bytes);

  /// Request cooperative cancellation; pollers stop within one outer block.
  void request_cancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  bool has_budget() const {
    return budget_.load(std::memory_order_relaxed) != 0;
  }
  /// True when this control (or an ancestor) carries a budget.
  bool budget_armed() const;

  /// First stop cause found walking this control then its ancestors
  /// (None = keep running). Cancel and budget flags are one relaxed load
  /// each; the deadline costs one clock read only when armed.
  StopCause stop_cause() const;

  /// Throw run_stopped_error when stop_cause() != None.
  void poll() const;

  /// Try to reserve `bytes` of workspace against this control's and every
  /// ancestor's budget. On failure nothing is charged anywhere, the
  /// budget-exceeded latch is set (so pollers see BudgetExceeded), and
  /// false is returned.
  bool try_charge(std::size_t bytes);

  /// Reserve or throw run_stopped_error(BudgetExceeded).
  void charge(std::size_t bytes);

  /// Return `bytes` previously charged. noexcept: called from destructors.
  void uncharge(std::size_t bytes) noexcept;

  /// Milliseconds until the tightest deadline in the chain (clamped at 0;
  /// +infinity when no deadline is armed anywhere). The tuner slices pilot
  /// sub-deadlines off this.
  double deadline_remaining_ms() const;

  std::size_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }
  std::size_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  /// Uncommitted budget of the tightest budget-holding control in the chain
  /// (SIZE_MAX when no budget is armed anywhere).
  std::size_t remaining_bytes() const;

  /// Chain to an outer control (nullptr detaches). The parent must outlive
  /// this control. Not thread-safe against concurrent polls — set up the
  /// chain before handing the control to workers.
  void set_parent(RunControl* parent) { parent_ = parent; }
  const RunControl* parent() const { return parent_; }

  /// Monotonic "now" in nanoseconds — the fake clock when armed
  /// (detail::fake_clock_ns), the steady clock otherwise.
  static long long now_ns();

 private:
  std::atomic<bool> cancel_{false};
  std::atomic<bool> budget_hit_{false};
  std::atomic<long long> deadline_ns_{0};  ///< steady epoch ns; 0 = none
  std::atomic<std::size_t> budget_{0};     ///< 0 = none
  std::atomic<std::size_t> charged_{0};
  RunControl* parent_ = nullptr;
};

/// RSKETCH_DEADLINE_MS / RSKETCH_BUDGET_MB, read once per process (0 = unset).
/// They back-stop configs that set no explicit bound; an explicit
/// SketchConfig value always wins.
double env_deadline_ms();
std::size_t env_budget_bytes();

/// Stack-resolved effective control for one entry point: combines an
/// optional external handle with config/env deadline+budget knobs. When any
/// bound is set, owns a local RunControl chained to the external one;
/// otherwise passes the external handle (possibly nullptr) through, keeping
/// the unarmed path allocation- and atomics-free.
class ResolvedRunControl {
 public:
  ResolvedRunControl(RunControl* external, double deadline_ms,
                     std::size_t budget_bytes);

  /// Effective control to poll/charge, or nullptr when nothing is armed.
  RunControl* get() { return run_; }

 private:
  RunControl local_;
  RunControl* run_ = nullptr;
};

/// Shared stop latch for one parallel region: every thread calls
/// should_skip() once per outer block (one relaxed load when already
/// stopped, or when `run` is nullptr one branch and nothing else); after the
/// join the master calls throw_if_stopped(). This is how the OpenMP loops
/// convert a mid-region stop into a single post-join exception instead of
/// throwing across the parallel region (which would terminate).
class CooperativeStop {
 public:
  /// True when the block body must be skipped because the run stopped.
  bool should_skip(const RunControl* run) {
    if (run == nullptr) return false;
    if (stopped_.load(std::memory_order_relaxed)) return true;
    const StopCause c = run->stop_cause();
    if (c == StopCause::None) return false;
    int expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<int>(c),
                                   std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_relaxed);
    return true;
  }

  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }
  StopCause cause() const {
    return static_cast<StopCause>(cause_.load(std::memory_order_relaxed));
  }

  /// Throw run_stopped_error (with `what` as context) when any thread
  /// latched a stop. Call after the parallel region joined.
  void throw_if_stopped(const char* what) const;

 private:
  std::atomic<bool> stopped_{false};
  std::atomic<int> cause_{0};
};

/// Count one stop into the perf catalog: run_cancelled, run_deadline_hits
/// or run_budget_hits by cause (None counts nothing). The sketch frame calls
/// this once per stopped call, the guarded solver once per stopped solve.
void count_stop(StopCause cause);

namespace detail {

/// Thread-local charge target for the AlignedBuffer charge-before-allocate
/// hook. Install with ScopedBudgetScope; nullptr (the default) keeps
/// allocations untracked.
inline thread_local RunControl* budget_scope = nullptr;

}  // namespace detail

/// RAII: route AlignedBuffer allocations on this thread through
/// `run->charge()` for the scope's lifetime. Nesting restores the previous
/// scope on destruction.
class ScopedBudgetScope {
 public:
  explicit ScopedBudgetScope(RunControl* run)
      : previous_(detail::budget_scope) {
    detail::budget_scope = run;
  }
  ~ScopedBudgetScope() { detail::budget_scope = previous_; }
  ScopedBudgetScope(const ScopedBudgetScope&) = delete;
  ScopedBudgetScope& operator=(const ScopedBudgetScope&) = delete;

 private:
  RunControl* previous_;
};

/// RAII: charge `bytes` now (throwing on budget exhaustion), uncharge on
/// destruction. For workspace that is not AlignedBuffer-backed (std::vector
/// structures like the blocked-CSR conversion and the LSQR recurrence).
class ScopedCharge {
 public:
  ScopedCharge(RunControl* run, std::size_t bytes) : run_(run), bytes_(bytes) {
    if (run_ != nullptr) run_->charge(bytes_);
  }
  ~ScopedCharge() {
    if (run_ != nullptr) run_->uncharge(bytes_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

 private:
  RunControl* run_;
  std::size_t bytes_;
};

}  // namespace rsketch
