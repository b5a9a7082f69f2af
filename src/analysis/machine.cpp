#include "analysis/machine.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perf/perf.hpp"
#include "support/timer.hpp"

namespace rsketch {

namespace {

/// Defeat dead-code elimination of benchmark loops.
volatile double g_sink = 0.0;

}  // namespace

StreamResult stream_benchmark(index_t elems, int reps) {
  require(elems > 0 && reps > 0, "stream_benchmark: invalid parameters");
  perf::Span span("probe/stream");
  std::vector<double> a(static_cast<std::size_t>(elems), 1.0);
  std::vector<double> b(static_cast<std::size_t>(elems), 2.0);
  std::vector<double> c(static_cast<std::size_t>(elems), 0.0);
  const double scalar = 3.0;
  const double bytes = static_cast<double>(elems) * sizeof(double);

  StreamResult r;
  double t_copy = 1e300, t_scale = 1e300, t_add = 1e300, t_triad = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) c[i] = a[i];
    t_copy = std::min(t_copy, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) b[i] = scalar * c[i];
    t_scale = std::min(t_scale, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) c[i] = a[i] + b[i];
    t_add = std::min(t_add, t.seconds());

    t.reset();
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < elems; ++i) a[i] = b[i] + scalar * c[i];
    t_triad = std::min(t_triad, t.seconds());
  }
  g_sink = a[0] + b[0] + c[0];

  r.copy_gbps = 2.0 * bytes / t_copy / 1e9;
  r.scale_gbps = 2.0 * bytes / t_scale / 1e9;
  r.add_gbps = 3.0 * bytes / t_add / 1e9;
  r.triad_gbps = 3.0 * bytes / t_triad / 1e9;
  return r;
}

const StreamResult& cached_stream_result() {
  static const StreamResult r = stream_benchmark(index_t{1} << 21, 2);
  return r;
}

double rng_throughput(Dist dist, RngBackend backend, index_t vec_len,
                      int reps) {
  require(vec_len > 0 && reps > 0, "rng_throughput: invalid parameters");
  SketchSampler<float> sampler(12345, dist, backend);
  std::vector<float> v(static_cast<std::size_t>(vec_len));
  // Warm-up fill, then time `reps` checkpointed fills — the exact access
  // pattern the blocked kernels exercise (reseek + short-vector fill).
  sampler.fill(0, 0, v.data(), vec_len);
  Timer t;
  for (int rep = 0; rep < reps; ++rep) {
    sampler.fill(0, static_cast<index_t>(rep), v.data(), vec_len);
  }
  const double secs = t.seconds();
  g_sink = static_cast<double>(v[0]);
  return static_cast<double>(vec_len) * reps / secs;
}

double measure_h(Dist dist, RngBackend backend, const StreamResult& stream,
                 index_t vec_len) {
  perf::Span span("probe/h");
  const double samples_per_sec = rng_throughput(dist, backend, vec_len, 200);
  const double elems_per_sec = stream.copy_gbps * 1e9 / 4.0;  // 32-bit loads
  return elems_per_sec / samples_per_sec;
}

std::size_t detect_cache_bytes() {
  long size = 0;
#ifdef _SC_LEVEL2_CACHE_SIZE
  size = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  if (size <= 0) {
#ifdef _SC_LEVEL3_CACHE_SIZE
    size = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  }
  return size > 0 ? static_cast<std::size_t>(size) : std::size_t{1} << 20;
}

std::string machine_signature() {
  char host[256] = {0};
  if (gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  std::string sig(host[0] == '\0' ? "unknown" : host);
  sig += "|cpus=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  sig += "|omp=" + std::to_string(omp_get_max_threads());
  sig += "|cache=" + std::to_string(detect_cache_bytes());
  return sig;
}

}  // namespace rsketch
