#include "sketch/batch.hpp"

#include "perf/perf.hpp"
#include "perf/trace.hpp"

namespace rsketch {

namespace {

std::uint32_t depth_trace_id() {
  // One interned id for every emission: per-job dynamic names would grow
  // the intern table without bound on a long-lived server.
  static const std::uint32_t id = perf::trace::intern("batch_queue_depth");
  return id;
}

}  // namespace

// ---- JobHandle -------------------------------------------------------------

void JobHandle::wait() const {
  detail::BatchJob& j = *job_;
  std::unique_lock<std::mutex> lock(j.mu);
  j.cv.wait(lock, [&j] { return j.finished; });
}

bool JobHandle::done() const {
  detail::BatchJob& j = *job_;
  std::lock_guard<std::mutex> lock(j.mu);
  return j.finished;
}

bool JobHandle::failed() const {
  wait();
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->error != nullptr;
}

std::exception_ptr JobHandle::error() const {
  wait();
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->error;
}

const SketchStats& JobHandle::stats() const {
  wait();
  std::lock_guard<std::mutex> lock(job_->mu);
  if (job_->error != nullptr) std::rethrow_exception(job_->error);
  return job_->stats;
}

// ---- SketchBatch -----------------------------------------------------------

SketchBatch::SketchBatch(BatchOptions options)
    : options_(options),
      cache_bytes_(detect_cache_bytes()),
      exec_(options.workers) {
  if (options_.deadline_ms > 0.0) control_.set_deadline_ms(options_.deadline_ms);
  if (options_.workspace_budget_bytes > 0) {
    control_.set_budget_bytes(options_.workspace_budget_bytes);
  }
  control_.set_parent(options_.control);
}

SketchBatch::~SketchBatch() {
  // Stop-then-drain: queued jobs fail their first poll in microseconds, so
  // destruction is prompt even with a deep queue. Callers who want the
  // results call wait_all() first.
  cancel();
  // exec_ (last member) drains and joins in its destructor, while the
  // arena, control, and mutexes above it are still alive.
}

std::size_t SketchBatch::wait_all() {
  std::vector<std::shared_ptr<detail::BatchJob>> snapshot;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    snapshot = jobs_;
  }
  std::size_t failed = 0;
  for (const auto& job : snapshot) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&job] { return job->finished; });
    if (job->error != nullptr) ++failed;
  }
  return failed;
}

std::uint64_t SketchBatch::jobs_submitted() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return next_id_;
}

JobHandle SketchBatch::enqueue(std::function<SketchStats(RunControl*)> body,
                               bool large) {
  auto job = std::make_shared<detail::BatchJob>();
  job->control.set_parent(&control_);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->id = next_id_++;
    jobs_.push_back(job);
  }
  perf::add(perf::Counter::BatchJobs, 1);
  auto task = [this, job, body = std::move(body), large] {
    SketchStats stats;
    std::exception_ptr error;
    {
      // One span per job: it lands in the span table (latency histogram)
      // AND, when tracing is armed, as a batch/job slice on the worker's
      // timeline. The span must close BEFORE finished is published: a
      // waiter may snapshot the trace the moment wait() returns, and the
      // end event has to already be in this worker's ring by then.
      perf::Span span("batch/job");
      try {
        // Fail fast on jobs that were cancelled (or missed the deadline)
        // while queued: the body never runs, the output is never touched,
        // and the stop surfaces on the handle exactly once.
        job->control.poll();
        std::unique_lock<std::mutex> omp_gate(large_mu_, std::defer_lock);
        if (large) omp_gate.lock();
        stats = body(&job->control);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->stats = stats;
      job->error = error;
      job->finished = true;
    }
    job->cv.notify_all();
    if (perf::trace::armed()) {
      perf::trace::counter(depth_trace_id(),
                           static_cast<double>(exec_.queue_depth()));
    }
  };
  if (options_.submit_worker >= 0) {
    exec_.submit_to(options_.submit_worker, std::move(task));
  } else {
    exec_.submit(std::move(task));
  }
  if (perf::trace::armed()) {
    perf::trace::counter(depth_trace_id(),
                         static_cast<double>(exec_.queue_depth()));
  }
  return JobHandle(job);
}

}  // namespace rsketch
