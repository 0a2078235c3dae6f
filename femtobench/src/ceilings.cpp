#include "ceilings.hpp"

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "obs/wallclock.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/aligned.hpp"
#include "simd/vec.hpp"

namespace femtobench {

double triad_gbps(std::size_t footprint_bytes, double min_seconds) {
  const std::size_t n =
      std::max<std::size_t>(footprint_bytes / (3 * sizeof(double)), 1024);
  femto::simd::aligned_vector<double> a(n), b(n), c(n);
  femto::par::parallel_for_chunked(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 0.5;
  auto pass = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
  };
  // Passes per timing sample: enough that a sample lasts ~1 ms.
  const std::size_t reps = std::max<std::size_t>(1, 250000 / n);
  double best = 0.0;
  const femto::obs::Stopwatch total;
  do {
    const femto::obs::Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r)
      femto::par::parallel_for_chunked(0, n, pass);
    const double t = sw.seconds();
    best = std::max(best, static_cast<double>(reps * n * 4 * sizeof(double)) /
                              t / 1e9);
  } while (total.seconds() < min_seconds);
  return best;
}

double mul_add_gflops(double min_seconds) {
  using V = femto::simd::Vec<float, femto::simd::kWidth<float>>;
  constexpr int kChains = 12;     // independent chains hide the latency
  constexpr long kSteps = 1 << 20;
  const std::size_t workers = femto::par::ThreadPool::global().size();
  std::vector<float> sink(workers, 0.0f);
  double best = 0.0;
  const femto::obs::Stopwatch total;
  do {
    const femto::obs::Stopwatch sw;
    femto::par::parallel_for(0, workers, [&](std::size_t w) {
      V acc[kChains];
      for (int k = 0; k < kChains; ++k) acc[k] = V(1.0f + 0.001f * k);
      const V m(0.999999f), add(1e-7f);
      for (long i = 0; i < kSteps; ++i)
        for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * m + add;
      float s = 0.0f;
      for (int k = 0; k < kChains; ++k)
        for (int l = 0; l < femto::simd::kWidth<float>; ++l) s += acc[k][l];
      sink[w] = s;
    });
    const double t = sw.seconds();
    const double flops = 2.0 * femto::simd::kWidth<float> * kChains *
                         static_cast<double>(kSteps) *
                         static_cast<double>(workers);
    best = std::max(best, flops / t / 1e9);
  } while (total.seconds() < min_seconds);
  // Keep the chains observable so the loop cannot be dropped.
  volatile float keep = 0.0f;
  for (float s : sink) keep = keep + s;
  return best;
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

}  // namespace femtobench
