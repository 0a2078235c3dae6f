// femtolint-expect: thread-local-in-parallel-body
//
// Per-thread scratch named inside a parallel_for_chunked body.  A lambda
// does not capture a thread_local: each pool worker that runs a chunk
// reads its OWN instance, which the caller never sized, so those chunks
// silently compute with empty scratch.  At one worker, or at a grain that
// gives one chunk, the body runs on the caller and the defect hides.  The
// fix binds a reference to the caller's instance outside the body:
//   auto& s = scratch;  ... [&](...) { s.data() ... }

#include <cstddef>
#include <vector>

namespace femto {

void scale_via_scratch(std::vector<double>& y, double a) {
  thread_local std::vector<double> scratch;
  scratch.assign(y.size(), a);
  par::parallel_for_chunked(
      0, y.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) y[i] *= scratch[i];
      },
      32);
  flops::add_bytes(24 * static_cast<long long>(y.size()));
}

}  // namespace femto
