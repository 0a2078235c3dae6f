#pragma once
// Machine ceilings measured in the traced run, on the repository's own
// thread pool: STREAM-style triad bandwidth at two footprints and the
// multiply-add peak at the compiled SIMD width.

#include <cstddef>

namespace femtobench {

/// Triad a = b + s * c over three double arrays whose combined size is
/// @p footprint_bytes, on every pool worker.  Returns the best GB/s of
/// repeated passes (reads of b and c plus the write-allocate of a: 4
/// words per element).
double triad_gbps(std::size_t footprint_bytes, double min_seconds);

/// Peak float multiply-add rate (2 flops per lane) of independent
/// Vec<float, kWidth> chains on every pool worker, in GFLOP/s.
double mul_add_gflops(double min_seconds);

/// Last-level cache size in bytes (0 if the system does not say).
std::size_t llc_bytes();

}  // namespace femtobench
