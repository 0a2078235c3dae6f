// femtolint-expect: clean
//
// A well-behaved kernel: charges flops and bytes, reduces through
// parallel_reduce, accumulates only into locally declared or subscripted
// storage, reaches per-thread scratch through a reference bound outside
// the parallel body, and carries an explicit suppression where it must
// cast.

#include <cstddef>
#include <cstring>
#include <vector>

namespace femto {

double norm2_clean(const std::vector<double>& x) {
  const double sum = par::parallel_reduce(
      0, x.size(), [&](std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += x[i] * x[i];
        return acc;
      });
  flops::add(2 * static_cast<long long>(x.size()));
  flops::add_bytes(8 * static_cast<long long>(x.size()));
  return sum;
}

void axpy_clean(std::vector<double>& y, const std::vector<double>& x,
                double a) {
  par::parallel_for(0, y.size(), [&](std::size_t i) {
    y[i] += a * x[i];
  });
  flops::add(2 * static_cast<long long>(y.size()));
  flops::add_bytes(24 * static_cast<long long>(y.size()));
}

void scale_via_bound_scratch(std::vector<double>& y, double a) {
  thread_local std::vector<double> scratch;
  std::vector<double>& s = scratch;
  s.assign(y.size(), a);
  par::parallel_for_chunked(
      0, y.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) y[i] *= s[i];
      },
      32);
  flops::add_bytes(24 * static_cast<long long>(y.size()));
}

void serialize(std::vector<char>& out, const double* src, std::size_t n) {
  out.resize(n * sizeof(double));
  // femtolint: allow(cast): byte-wise serialisation through char* is
  // aliasing-legal; memcpy never reinterprets the double representation.
  std::memcpy(out.data(), reinterpret_cast<const char*>(src), out.size());
}

}  // namespace femto
