#pragma once
// Self-time reducer over a span snapshot.  A span's self time is its
// duration minus the part its direct children cover; spans nest by time
// containment on one thread.  Each span is also attributed to its nearest
// enclosing span of category "bench" (the benchmark's own spans around
// the calls into each layer), so one layer's kernels can be split by the
// stage that called them.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace femtobench {

struct Span {
  std::string category;
  std::string name;
  std::uint32_t tid = 0;
  std::int64_t t0_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Self seconds keyed by (enclosing bench span name or "", "category/name").
using SelfTimes = std::map<std::pair<std::string, std::string>, double>;

SelfTimes reduce_self_times(std::vector<Span> spans);

/// Sum of the self times of @p key ("category/name", or "category/*" for a
/// whole category) under bench scope @p scope ("*" for every scope).
double self_seconds(const SelfTimes& t, const std::string& scope,
                    const std::string& key);

/// Runs the reducer on a hand-built span tree with known nesting (siblings,
/// grandchildren, equal start times, a second thread, bench scopes) and
/// compares every self time against its known value.  Returns "" on
/// success, else what differed.
std::string reducer_self_check();

}  // namespace femtobench
