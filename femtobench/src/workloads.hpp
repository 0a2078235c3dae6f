#pragma once
// The untraced workloads: set-up, the timed phase, and the correctness
// oracle.  End-to-end metrics come only from here (tracing off).

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "lattice/field.hpp"
#include "service/solve_service.hpp"
#include "solver/dwf_solve.hpp"

namespace femtobench {

/// Everything the timed phase needs, built before timing starts.
struct Setup {
  std::shared_ptr<const femto::GaugeField<double>> u;
  std::vector<std::shared_ptr<const femto::SpinorField<double>>> sources;
  std::unique_ptr<femto::DwfSolver> solver;      ///< direct workloads
  std::unique_ptr<femto::SolveService> service;  ///< service workload
  std::vector<double> setup_s;  ///< one wall time per set-up repeat
  double autotune_s = 0.0;      ///< last repeat's DwfSolver::autotune()
};

/// Set the workload up @p repeats times (keeping the last), timing each:
/// heatbath config + solver or service construction (+ autotune).
Setup set_up(const Workload& w, std::uint64_t seed, int repeats);

/// One completed solve as the caller saw it.  The solution is checked and
/// hashed as soon as it is out of the timed window, then dropped, so the
/// run's memory does not grow with its solve count.
struct Solve {
  std::size_t source = 0;
  double wall_s = 0.0;  ///< DwfSolver::solve call, or submit -> future ready
  std::uint64_t fnv = 0;
  double true_residual = 0.0;
  femto::SolveResult stats;
};

struct TimedPhase {
  double wall_s = 0.0;            ///< timed time only (checks excluded)
  std::vector<Solve> solves;      ///< in completion order
  std::vector<double> burst_s;    ///< service: one wall time per burst
};

/// Solve source 0 repeatedly through DwfSolver::solve until @p seconds
/// of solving have passed (at least once).
TimedPhase run_direct(Setup& s, double seconds);

/// Closed loop: submit a burst of kBurst sources, wait for every future,
/// repeat until @p seconds of bursts have passed (at least one burst).
TimedPhase run_service(Setup& s, double seconds);

/// Oracle verdict on the timed phase.
struct Verdict {
  int attempted = 0;
  int failed = 0;             ///< not converged, or true residual > bound
  double true_residual_max = 0.0;
  bool bitwise_ok = true;     ///< repeat / solo-reference identity held
  std::string detail;
};

/// Classify every solve and check bitwise identity: direct workloads
/// against their own repeats, service futures against a solo
/// DwfSolver::solve of the same source (the per-RHS contract).
Verdict verify(const Workload& w, const Setup& s, const TimedPhase& t);

/// Report the end-to-end metrics of an untraced run.
void report_end_to_end(const Workload& w, const Setup& s,
                       const TimedPhase& t, const Verdict& v, Report& rep);

}  // namespace femtobench
