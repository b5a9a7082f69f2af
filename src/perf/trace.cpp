#include "perf/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

#include "support/env.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define RSKETCH_TRACE_HAS_TSC 1
#endif

namespace rsketch::perf::trace {

namespace {

constexpr std::size_t kDefaultCapacity = 1u << 16;

std::atomic<bool> g_armed{false};

// ---- trace clock ----------------------------------------------------------
// steady_clock nanoseconds since a process-wide epoch by default. On x86-64,
// RSKETCH_TRACE_CLOCK=tsc switches the per-event read to rdtsc (cheaper and
// finer-grained than a vDSO clock call) with a ticks-per-nanosecond
// calibration taken at arm time; invariant-TSC hosts only — the steady
// default never misorders across frequency changes.

std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

#ifdef RSKETCH_TRACE_HAS_TSC
bool g_use_tsc = false;
std::uint64_t g_tsc_epoch = 0;
double g_ns_per_tick = 0.0;

void calibrate_tsc() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t c0 = __rdtsc();
  // ~2 ms busy window: long enough for a sub-percent rate estimate, short
  // enough that arming is imperceptible.
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::milliseconds(2)) {
  }
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t c1 = __rdtsc();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  g_ns_per_tick = c1 > c0 ? ns / static_cast<double>(c1 - c0) : 0.0;
  g_tsc_epoch = c0;
  g_use_tsc = g_ns_per_tick > 0.0;
}
#endif

inline std::uint64_t now_ns() {
#ifdef RSKETCH_TRACE_HAS_TSC
  if (g_use_tsc) {
    const std::uint64_t ticks = __rdtsc() - g_tsc_epoch;
    return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                      g_ns_per_tick);
  }
#endif
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

// ---- string interning -----------------------------------------------------
// Ids index g_names; the deque-of-strings never moves a stored string, so
// name_of() references stay valid without holding the lock. Cold path only.

struct InternTable {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::unique_ptr<std::string>> names;

  static InternTable& instance() {
    static InternTable* t = new InternTable;  // intentionally leaked: events
    return *t;                                // may outlive static dtors
  }
};

const std::string& unknown_name() {
  static const std::string q = "?";
  return q;
}

// ---- per-thread ring buffers ----------------------------------------------

/// Frees a ring's raw storage.
struct RingFree {
  void operator()(Event* p) const { ::operator delete(p); }
};

struct ThreadTrace {
  /// capacity slots, allocated at registration and never filled: record()
  /// constructs each event in place, and only written slots are read.
  std::unique_ptr<Event, RingFree> ring;
  std::size_t capacity = 0;
  std::uint64_t written = 0;
  int tid = 0;
  std::string thread_name;

  /// Events still in the ring, oldest first.
  void collect(std::vector<Event>& out) const {
    if (capacity == 0) return;
    const std::uint64_t kept = std::min<std::uint64_t>(written, capacity);
    for (std::uint64_t k = written - kept; k < written; ++k) {
      out.push_back(ring.get()[static_cast<std::size_t>(k % capacity)]);
    }
  }

  std::uint64_t dropped() const {
    return capacity == 0 || written <= capacity ? 0 : written - capacity;
  }
};

/// A thread's trace preserved after exit: full event list in order.
struct RetiredTrace {
  std::vector<Event> events;
  std::uint64_t written = 0;
  std::uint64_t dropped = 0;
  int tid = 0;
  std::string thread_name;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadTrace*> live;
  std::vector<RetiredTrace> retired;
  std::size_t capacity = 0;  // resolved at first registration or arm()
  int next_tid = 0;

  std::size_t resolve_capacity() {
    if (capacity == 0) {
      const long long env = env_int("RSKETCH_TRACE_BUF",
                                    static_cast<long long>(kDefaultCapacity));
      capacity = std::bit_ceil(static_cast<std::size_t>(
          std::max<long long>(8, env)));
    }
    return capacity;
  }

  static Registry& instance() {
    static Registry* r = new Registry;  // leaked: see InternTable
    return *r;
  }
};

/// Merge a live ring into the retired list (registry lock held) and reset
/// it. One RetiredTrace per tid: repeated retirements of the same thread —
/// a pool worker parking between batches, then finally exiting — append to
/// the same record instead of multiplying thread entries in the export.
void merge_retired_locked(Registry& reg, ThreadTrace& rec) {
  if (rec.written == 0 && rec.thread_name.empty()) return;
  RetiredTrace* dst = nullptr;
  for (RetiredTrace& rt : reg.retired) {
    if (rt.tid == rec.tid) {
      dst = &rt;
      break;
    }
  }
  if (dst == nullptr) {
    if (rec.written == 0 && rec.thread_name.empty()) return;
    reg.retired.emplace_back();
    dst = &reg.retired.back();
    dst->tid = rec.tid;
  }
  rec.collect(dst->events);
  dst->written += rec.written;
  dst->dropped += rec.dropped();
  if (!rec.thread_name.empty()) dst->thread_name = rec.thread_name;
  rec.written = 0;
}

struct ThreadTraceHolder {
  ThreadTrace rec;

  ThreadTraceHolder() {
    Registry& reg = Registry::instance();
    std::size_t capacity = 0;
    {
      std::lock_guard<std::mutex> lock(reg.mu);
      capacity = reg.resolve_capacity();
    }
    // Allocated outside the lock: threads that start tracing together do not
    // wait on one another's ring.
    rec.ring.reset(
        static_cast<Event*>(::operator new(capacity * sizeof(Event))));
    rec.capacity = capacity;
    std::lock_guard<std::mutex> lock(reg.mu);
    rec.tid = reg.next_tid++;
    reg.live.push_back(&rec);
  }

  ~ThreadTraceHolder() {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    merge_retired_locked(reg, rec);
    reg.live.erase(std::remove(reg.live.begin(), reg.live.end(), &rec),
                   reg.live.end());
  }
};

ThreadTrace& local_trace() {
  thread_local ThreadTraceHolder holder;
  return holder.rec;
}

inline void record(EventType type, std::uint32_t name_id, double value) {
  ThreadTrace& tt = local_trace();
  Event* const slot = tt.ring.get() + tt.written % tt.capacity;
  ::new (slot) Event{now_ns(), name_id, type, value};
  ++tt.written;
}

// ---- at-exit export -------------------------------------------------------

std::string& output_path() {
  static std::string* p = new std::string;  // leaked: used from atexit
  return *p;
}

void write_at_exit() {
  if (!output_path().empty()) write(output_path());
}

std::once_flag g_atexit_once;

/// RSKETCH_TRACE=<path> arms tracing at startup and exports on exit.
const bool g_env_armed = [] {
  const char* v = std::getenv("RSKETCH_TRACE");
  if (v == nullptr || *v == '\0') return false;
  set_output(v);
  arm();
  return true;
}();

const char* phase_token(EventType t) {
  switch (t) {
    case EventType::Begin: return "B";
    case EventType::End: return "E";
    case EventType::Complete: return "X";
    case EventType::Instant: return "i";
    case EventType::Counter: return "C";
  }
  return "i";
}

}  // namespace

bool armed() { return g_armed.load(std::memory_order_relaxed); }

void arm(std::size_t capacity_events) {
  {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (capacity_events > 0 && reg.capacity == 0) {
      reg.capacity = std::bit_ceil(std::max<std::size_t>(8, capacity_events));
    }
    (void)reg.resolve_capacity();
  }
#ifdef RSKETCH_TRACE_HAS_TSC
  if (!armed() && env_string("RSKETCH_TRACE_CLOCK", "steady") == "tsc") {
    calibrate_tsc();
  }
#endif
  std::call_once(g_atexit_once, [] { std::atexit(write_at_exit); });
  g_armed.store(true, std::memory_order_relaxed);
}

void disarm() { g_armed.store(false, std::memory_order_relaxed); }

void clear() {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.retired.clear();
  for (ThreadTrace* tt : reg.live) {
    tt->written = 0;
    tt->thread_name.clear();
  }
}

void set_output(const std::string& path) { output_path() = path; }

const std::string& output() { return output_path(); }

std::uint32_t intern(const std::string& name) {
  InternTable& t = InternTable::instance();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(t.names.size());
  t.names.push_back(std::make_unique<std::string>(name));
  t.ids.emplace(name, id);
  return id;
}

const std::string& name_of(std::uint32_t id) {
  InternTable& t = InternTable::instance();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.names.size()) return unknown_name();
  return *t.names[id];  // stable address: entries are never moved or freed
}

void begin(std::uint32_t name_id) {
  if (!armed()) return;
  record(EventType::Begin, name_id, 0.0);
}

void end(std::uint32_t name_id) {
  if (!armed()) return;
  record(EventType::End, name_id, 0.0);
}

void complete(std::uint32_t name_id, double seconds) {
  if (!armed()) return;
  record(EventType::Complete, name_id, seconds * 1e9);
}

void instant(std::uint32_t name_id, double value) {
  if (!armed()) return;
  record(EventType::Instant, name_id, value);
}

void counter(std::uint32_t name_id, double value) {
  if (!armed()) return;
  record(EventType::Counter, name_id, value);
}

void set_thread_name(const std::string& name) {
  if (!armed()) return;
  local_trace().thread_name = name;
}

void set_thread_name_if_unset(const std::string& name) {
  if (!armed()) return;
  ThreadTrace& rec = local_trace();
  if (rec.thread_name.empty()) rec.thread_name = name;
}

void retire_current_thread() {
  if (!armed()) return;
  ThreadTrace& rec = local_trace();
  if (rec.written == 0) return;
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  // Keep the live record's name: the ring resets, the label must not. The
  // merge copies (not moves) thread_name, so both records stay labelled.
  merge_retired_locked(reg, rec);
}

std::uint64_t dropped_events() {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t total = 0;
  for (const ThreadTrace* tt : reg.live) total += tt->dropped();
  for (const RetiredTrace& rt : reg.retired) total += rt.dropped;
  return total;
}

std::uint64_t recorded_events() {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t total = 0;
  for (const ThreadTrace* tt : reg.live) total += tt->written;
  for (const RetiredTrace& rt : reg.retired) total += rt.written;
  return total;
}

Json chrome_trace_json() {
  // Snapshot every buffer under the registry lock, then build JSON unlocked.
  struct ThreadDump {
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    int tid = 0;
    std::string thread_name;
  };
  std::vector<ThreadDump> dumps;
  {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const ThreadTrace* tt : reg.live) {
      if (tt->written == 0) {
        // A parked pool worker already flushed everything (events AND name)
        // into its retired record; emitting the empty live ring too would
        // double-count the thread.
        bool retired_has_tid = false;
        for (const RetiredTrace& rt : reg.retired) {
          if (rt.tid == tt->tid) {
            retired_has_tid = true;
            break;
          }
        }
        if (retired_has_tid) continue;
      }
      ThreadDump d;
      tt->collect(d.events);
      d.dropped = tt->dropped();
      d.tid = tt->tid;
      d.thread_name = tt->thread_name;
      dumps.push_back(std::move(d));
    }
    for (const RetiredTrace& rt : reg.retired) {
      ThreadDump d;
      d.events = rt.events;
      d.dropped = rt.dropped;
      d.tid = rt.tid;
      d.thread_name = rt.thread_name;
      dumps.push_back(std::move(d));
    }
  }

  const long long pid = static_cast<long long>(getpid());
  Json events = Json::array();
  std::uint64_t total_dropped = 0;
  for (const ThreadDump& d : dumps) {
    total_dropped += d.dropped;
    {
      Json meta = Json::object();
      meta["name"] = "thread_name";
      meta["ph"] = "M";
      meta["pid"] = pid;
      meta["tid"] = static_cast<long long>(d.tid);
      Json args = Json::object();
      args["name"] = d.thread_name.empty()
                         ? "thread-" + std::to_string(d.tid)
                         : d.thread_name;
      meta["args"] = std::move(args);
      events.push_back(std::move(meta));
    }
    if (d.dropped > 0) {
      // Perfetto renders this as a counter track; the summarizer reads it to
      // report per-thread loss next to otherData.dropped_events.
      Json c = Json::object();
      c["name"] = "dropped_events";
      c["ph"] = "C";
      c["ts"] = d.events.empty()
                    ? 0.0
                    : static_cast<double>(d.events.front().ts_ns) / 1e3;
      c["pid"] = pid;
      c["tid"] = static_cast<long long>(d.tid);
      Json args = Json::object();
      args["value"] = static_cast<unsigned long long>(d.dropped);
      c["args"] = std::move(args);
      events.push_back(std::move(c));
    }
    for (const Event& e : d.events) {
      Json j = Json::object();
      j["name"] = name_of(e.name_id);
      j["cat"] = "rsketch";
      j["ph"] = phase_token(e.type);
      // Chrome trace timestamps are microseconds (double).
      const double ts_us = static_cast<double>(e.ts_ns) / 1e3;
      switch (e.type) {
        case EventType::Complete:
          // The recorder stamps X events at their END; Chrome wants the start.
          j["ts"] = ts_us - e.value / 1e3;
          j["dur"] = e.value / 1e3;
          break;
        case EventType::Instant: {
          j["ts"] = ts_us;
          j["s"] = "t";
          Json args = Json::object();
          args["value"] = e.value;
          j["args"] = std::move(args);
          break;
        }
        case EventType::Counter: {
          j["ts"] = ts_us;
          Json args = Json::object();
          args["value"] = e.value;
          j["args"] = std::move(args);
          break;
        }
        default:
          j["ts"] = ts_us;
          break;
      }
      j["pid"] = pid;
      j["tid"] = static_cast<long long>(d.tid);
      events.push_back(std::move(j));
    }
  }

  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  Json other = Json::object();
  other["dropped_events"] = static_cast<unsigned long long>(total_dropped);
  other["threads"] = static_cast<long long>(dumps.size());
#ifdef RSKETCH_TRACE_HAS_TSC
  other["clock"] = g_use_tsc ? "tsc" : "steady";
#else
  other["clock"] = "steady";
#endif
  doc["otherData"] = std::move(other);
  return doc;
}

std::string write(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return "";
  }
  out << chrome_trace_json().dump(0) << "\n";
  out.close();
  std::printf("trace: %s\n", path.c_str());
  return path;
}

}  // namespace rsketch::perf::trace
