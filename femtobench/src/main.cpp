// femtobench: time to solution of the Mobius DWF solve (NOTES.md).
//
//   femtobench timed  <workload> <seed> <seconds>   end-to-end metrics
//   femtobench traced <workload> <seed> <seconds>   per-layer metrics
//   femtobench solo   <workload> <seed>             one solve, for the
//                                                   FEMTO_THREADS=1 child
//
// Every mode prints one JSON line (metrics with units, labels, and the
// oracle's checks) as its last line of output; run.py drives the modes,
// merges their results and prints the benchmark's report.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/wallclock.hpp"
#include "workloads.hpp"

namespace {

using namespace femtobench;

int usage() {
  std::fprintf(stderr,
               "usage: femtobench timed|traced <workload> <seed> <seconds>\n"
               "       femtobench solo <workload> <seed>\n");
  return 2;
}

void timed(const Workload& w, std::uint64_t seed, double seconds,
           Report& rep) {
  Setup s = set_up(w, seed, w.setup_repeats);
  TimedPhase t = w.service ? run_service(s, seconds) : run_direct(s, seconds);
  const Verdict v = verify(w, s, t);
  report_end_to_end(w, s, t, v, rep);
}

/// One solve of source 0 through DwfSolver::solve: the single-worker
/// baseline run.py starts with FEMTO_THREADS=1.
void solo(const Workload& w, std::uint64_t seed, Report& rep) {
  Setup s = set_up(w, seed, 1);
  femto::SpinorField<double> x(s.u->geom_ptr(), kMobius.l5,
                               femto::Subset::Full);
  const femto::obs::Stopwatch sw;
  const femto::SolveResult res = s.solver->solve(x, *s.sources.front());
  const double wall = sw.seconds();
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "%016" PRIx64, fnv1a(x));
  rep.metric("solve_s", wall, "s");
  rep.metric("iterations", res.iterations, "count");
  rep.label("fnv", fnv);
  rep.attempted = 1;
  rep.failed = res.converged ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string mode = argv[1];
  const Workload* w = find_workload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "femtobench: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const double seconds = argc > 4 ? std::strtod(argv[4], nullptr) : 0.0;

  Report rep;
  try {
    if (mode == "timed" && argc == 5) {
      timed(*w, seed, seconds, rep);
    } else if (mode == "traced" && argc == 5) {
      traced(*w, seed, seconds, rep);
    } else if (mode == "solo" && argc == 4 && !w->service) {
      solo(*w, seed, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "femtobench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
