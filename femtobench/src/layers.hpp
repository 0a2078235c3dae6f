#pragma once
// The traced run: replays a workload stage by stage through the public
// entry points, timing every call into a layer, and reports the per-layer
// split (NOTES.md lists each metric and what it should move).

#include <cstdint>

#include "bench.hpp"

namespace femtobench {

void traced(const Workload& w, std::uint64_t seed, double seconds,
            Report& rep);

}  // namespace femtobench
