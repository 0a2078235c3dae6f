#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace femtobench {

SelfTimes reduce_self_times(std::vector<Span> spans) {
  // Parents sort before their children: by thread, then start time, then
  // longest first (a child may start on the same tick as its parent).
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.dur_ns > b.dur_ns;
  });

  struct Open {
    std::size_t index;
    std::int64_t end_ns;
    std::int64_t child_ns;
    std::string scope;  // nearest enclosing bench span, this one included
  };
  SelfTimes out;
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    const Span& s = spans[o.index];
    // The span's own bench scope is its parent's: a bench span is charged
    // to the stage that encloses it.
    const std::string none;
    const std::string& scope = s.category != "bench" ? o.scope
                               : stack.empty()       ? none
                                                     : stack.back().scope;
    const std::int64_t self = std::max<std::int64_t>(0, s.dur_ns - o.child_ns);
    out[{scope, s.category + "/" + s.name}] += static_cast<double>(self) * 1e-9;
  };

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() &&
           (spans[stack.back().index].tid != s.tid ||
            stack.back().end_ns <= s.t0_ns)) {
      const Open o = stack.back();
      stack.pop_back();
      close(o);
    }
    std::string scope = stack.empty() ? std::string() : stack.back().scope;
    if (s.category == "bench") scope = s.name;
    if (!stack.empty()) stack.back().child_ns += s.dur_ns;
    stack.push_back({i, s.t0_ns + s.dur_ns, 0, std::move(scope)});
  }
  while (!stack.empty()) {
    const Open o = stack.back();
    stack.pop_back();
    close(o);
  }
  return out;
}

double self_seconds(const SelfTimes& t, const std::string& scope,
                    const std::string& key) {
  const bool whole_category = key.size() >= 2 && key.ends_with("/*");
  const std::string prefix = key.substr(0, key.size() - 1);  // "cat/"
  double sum = 0.0;
  for (const auto& [k, v] : t) {
    if (scope != "*" && k.first != scope) continue;
    if (whole_category ? k.second.starts_with(prefix) : k.second == key)
      sum += v;
  }
  return sum;
}

std::string reducer_self_check() {
  // Thread 1 (times in ns):
  //   bench/cg     [0, 1000)
  //     solver/x   [0, 900)          equal start with its parent
  //       bench/op [100, 400)
  //         dirac/d  [100, 250)      equal start with its parent
  //         dirac/f  [300, 350)
  //       blas/a   [500, 600)
  //       bench/op [650, 850)
  //         dirac/d  [700, 800)
  //   blas/b       [1000, 1100)      touches the previous end: a sibling
  // Thread 2:
  //   dirac/d      [0, 500)          overlaps thread 1 in time only
  const std::vector<Span> spans = {
      {"bench", "cg", 1, 0, 1000},   {"solver", "x", 1, 0, 900},
      {"bench", "op", 1, 100, 300},  {"dirac", "d", 1, 100, 150},
      {"dirac", "f", 1, 300, 50},    {"blas", "a", 1, 500, 100},
      {"bench", "op", 1, 650, 200},  {"dirac", "d", 1, 700, 100},
      {"blas", "b", 1, 1000, 100},   {"dirac", "d", 2, 0, 500},
  };
  const SelfTimes t = reduce_self_times(spans);
  struct Expect {
    const char* scope;
    const char* key;
    double ns;
  };
  const Expect expect[] = {
      {"", "bench/cg", 100},          // 1000 - 900
      {"cg", "solver/x", 300},        // 900 - 300 - 100 - 200
      {"cg", "bench/op", 200},        // (300 - 200) + (200 - 100)
      {"op", "dirac/d", 250},         // 150 + 100
      {"op", "dirac/f", 50},
      {"cg", "blas/a", 100},
      {"", "blas/b", 100},
      {"", "dirac/d", 500},           // thread 2, no bench scope
  };
  std::string err;
  std::size_t matched = 0;
  for (const Expect& e : expect) {
    const auto it = t.find({e.scope, e.key});
    const double got = it == t.end() ? -1.0 : it->second * 1e9;
    if (std::fabs(got - e.ns) > 1e-6) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s|%s: got %.0f ns, want %.0f; ",
                    e.scope, e.key, got, e.ns);
      err += buf;
    } else {
      ++matched;
    }
  }
  if (t.size() != matched) err += "unexpected extra (scope, span) keys; ";
  if (std::fabs(self_seconds(t, "*", "dirac/*") * 1e9 - 800) > 1e-6)
    err += "category sum dirac/* != 800 ns; ";
  return err;
}

}  // namespace femtobench
