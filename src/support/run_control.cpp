#include "support/run_control.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "perf/perf.hpp"
#include "support/common.hpp"

namespace rsketch {

std::string to_string(StopCause cause) {
  switch (cause) {
    case StopCause::None: return "none";
    case StopCause::Cancelled: return "cancelled";
    case StopCause::DeadlineExceeded: return "deadline_exceeded";
    case StopCause::BudgetExceeded: return "budget_exceeded";
  }
  return "?";
}

long long RunControl::now_ns() {
  const long long fake = detail::fake_clock_ns.load(std::memory_order_relaxed);
  if (fake >= 0) return fake;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunControl::set_deadline_ms(double ms) {
  if (ms <= 0.0) {
    deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  long long deadline = now_ns() + static_cast<long long>(ms * 1e6);
  // now() + ms could legitimately land on 0 only under the fake clock;
  // nudge off the "disarmed" sentinel.
  if (deadline == 0) deadline = 1;
  deadline_ns_.store(deadline, std::memory_order_relaxed);
}

void RunControl::set_budget_bytes(std::size_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
}

bool RunControl::budget_armed() const {
  for (const RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    if (rc->has_budget()) return true;
  }
  return false;
}

StopCause RunControl::stop_cause() const {
  for (const RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    if (rc->cancel_.load(std::memory_order_relaxed)) {
      return StopCause::Cancelled;
    }
    if (rc->budget_hit_.load(std::memory_order_relaxed)) {
      return StopCause::BudgetExceeded;
    }
    const long long deadline =
        rc->deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 && now_ns() >= deadline) {
      return StopCause::DeadlineExceeded;
    }
  }
  return StopCause::None;
}

void RunControl::poll() const {
  const StopCause c = stop_cause();
  if (c != StopCause::None) {
    throw run_stopped_error(c, "run stopped: " + to_string(c));
  }
}

bool RunControl::try_charge(std::size_t bytes) {
  if (bytes == 0) return true;
  // Reserve against each budget-holding control from this one outward; on a
  // failure, roll back the controls already charged so nothing leaks.
  for (RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    const std::size_t budget = rc->budget_.load(std::memory_order_relaxed);
    if (budget == 0) continue;
    const std::size_t prev =
        rc->charged_.fetch_add(bytes, std::memory_order_relaxed);
    if (prev + bytes > budget) {
      rc->charged_.fetch_sub(bytes, std::memory_order_relaxed);
      rc->budget_hit_.store(true, std::memory_order_relaxed);
      // Roll back the controls charged before rc (walk again up to rc).
      for (RunControl* back = this; back != rc; back = back->parent_) {
        if (back->budget_.load(std::memory_order_relaxed) != 0) {
          back->charged_.fetch_sub(bytes, std::memory_order_relaxed);
        }
      }
      return false;
    }
  }
  return true;
}

void RunControl::charge(std::size_t bytes) {
  if (!try_charge(bytes)) {
    throw run_stopped_error(
        StopCause::BudgetExceeded,
        "workspace budget exceeded: charge of " + std::to_string(bytes) +
            " bytes over a " + std::to_string(budget_bytes()) +
            "-byte budget with " + std::to_string(charged_bytes()) +
            " bytes outstanding");
  }
}

void RunControl::uncharge(std::size_t bytes) noexcept {
  if (bytes == 0) return;
  for (RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    if (rc->budget_.load(std::memory_order_relaxed) == 0) continue;
    // Saturate rather than wrap if a caller ever double-releases.
    std::size_t cur = rc->charged_.load(std::memory_order_relaxed);
    while (true) {
      const std::size_t next = bytes > cur ? 0 : cur - bytes;
      if (rc->charged_.compare_exchange_weak(cur, next,
                                             std::memory_order_relaxed)) {
        break;
      }
    }
  }
}

double RunControl::deadline_remaining_ms() const {
  double remaining = std::numeric_limits<double>::infinity();
  for (const RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    const long long deadline = rc->deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == 0) continue;
    const double ms = static_cast<double>(deadline - now_ns()) / 1e6;
    remaining = std::min(remaining, ms > 0.0 ? ms : 0.0);
  }
  return remaining;
}

std::size_t RunControl::remaining_bytes() const {
  std::size_t remaining = std::numeric_limits<std::size_t>::max();
  for (const RunControl* rc = this; rc != nullptr; rc = rc->parent_) {
    const std::size_t budget = rc->budget_.load(std::memory_order_relaxed);
    if (budget == 0) continue;
    const std::size_t charged = rc->charged_.load(std::memory_order_relaxed);
    const std::size_t left = charged >= budget ? 0 : budget - charged;
    if (left < remaining) remaining = left;
  }
  return remaining;
}

void RunControl::arm(const RunBounds& bounds) {
  require(bounds.deadline_ms >= 0.0,  // NaN fails too
          "RunBounds: deadline_ms must be >= 0 (0 = no deadline)");
  set_parent(bounds.control);
  set_deadline_ms(bounds.deadline_ms);
  set_budget_bytes(bounds.workspace_budget_bytes);
}

/// Set while a ResolvedRunControl is alive on this thread.
static thread_local bool in_bounded_call = false;

ResolvedRunControl::ResolvedRunControl(const RunBounds& bounds)
    : outermost_(!in_bounded_call) {
  // Any nonzero deadline goes through arm(), which rejects a bad one.
  const bool own =
      bounds.deadline_ms != 0.0 || bounds.workspace_budget_bytes > 0;
  if (own) local_.arm(bounds);
  run_ = own ? &local_ : bounds.control;
  in_bounded_call = true;
}

ResolvedRunControl::~ResolvedRunControl() {
  if (outermost_) in_bounded_call = false;
}

void CooperativeStop::throw_if_stopped(const char* what) const {
  if (!stopped()) return;
  const StopCause c = cause();
  throw run_stopped_error(c, std::string(what) + ": run stopped between "
                                                 "outer blocks: " +
                                 to_string(c));
}

void ResolvedRunControl::count_stop(StopCause cause) const {
  if (!outermost_) return;
  switch (cause) {
    case StopCause::Cancelled:
      perf::add(perf::Counter::RunCancelled, 1);
      break;
    case StopCause::DeadlineExceeded:
      perf::add(perf::Counter::RunDeadlineHits, 1);
      break;
    case StopCause::BudgetExceeded:
      perf::add(perf::Counter::RunBudgetHits, 1);
      break;
    case StopCause::None:
      break;
  }
}

}  // namespace rsketch
