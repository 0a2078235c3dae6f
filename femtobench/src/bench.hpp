#pragma once
// femtobench common vocabulary: the workload table, the fixed physics and
// solver settings every workload shares, seed derivation, the correctness
// oracle's primitives, and the named-metric report the binary prints.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dirac/mobius.hpp"
#include "lattice/field.hpp"
#include "solver/cg.hpp"

namespace femtobench {

/// One benchmark workload (NOTES.md says why each exists).
struct Workload {
  const char* name;
  int ls;                   ///< spatial extent (ls^3 x lt)
  int lt;
  femto::Precision sloppy;  ///< inner precision of the mixed CG
  bool autotune;            ///< DwfSolver::autotune() runs inside setup
  bool service;             ///< closed-loop bursts through SolveService
  /// Set-ups per timed run (setup_s is their median): enough that the
  /// set-up measurement lasts about a second.
  int setup_repeats;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

// Physics and solver settings shared by every workload.
inline constexpr femto::MobiusParams kMobius{8, -1.8, 1.5, 0.5, 0.05};
inline constexpr double kBeta = 6.0;
inline constexpr int kThermalSweeps = 10;
inline constexpr double kTol = 1e-10;
/// About twice the untuned solve_half iteration count: a solve that has
/// not converged by then has stalled and counts as failed.
inline constexpr int kMaxIter = 1300;
/// Bound on the true residual |D x - b| / |b| of the full 5D system,
/// recomputed with MobiusOperator<double>::apply_full.
inline constexpr double kTrueResidualBound = 1e-8;
/// service_burst_single: requests per closed-loop burst and batch bound.
inline constexpr std::size_t kBurst = 8;
inline constexpr std::size_t kMaxBatch = 4;
/// Requests whose service result is compared bitwise with a solo
/// DwfSolver::solve: the head of the first batch and the tail of the last
/// (a solo solve per request would double the run).
inline constexpr std::size_t kSoloChecked[] = {0, kBurst - 1};

femto::SolverParams solver_params(const Workload& w);

/// Independent 64-bit stream @p stream of the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The gauge configuration is one fixed member of the quenched ensemble,
/// as solver benchmarks fix theirs: at these volumes the iteration count
/// moves by ~23% (4^3x8) and ~6% (6^3x12) between configurations but by
/// ~3% between sources on one (NOTES.md), so a seed-drawn configuration
/// would swamp every code change.  The workload seed draws the sources.
inline constexpr std::uint64_t kEnsembleSeed = 2018;
/// Seed stream of source r.
inline std::uint64_t source_stream(std::size_t r) { return 100 + r; }

/// FNV-1a over the bytes of a solution (bitwise identity check).
std::uint64_t fnv1a(const femto::SpinorField<double>& x);

/// |D x - b| / |b| on the full 5D system, D the reference double operator.
double true_residual(const femto::MobiusOperator<double>& d,
                     const femto::SpinorField<double>& x,
                     const femto::SpinorField<double>& b);

/// Peak resident set of this process in MB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Named metrics with units plus the oracle's verdicts, printed as one
/// JSON line for run.py.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A label shown next to the metrics (e.g. the tuner's choice by name).
  void label(const std::string& name, const std::string& value);
  /// A correctness check; any failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);

  int attempted = 0;
  int failed = 0;

  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<Check> checks_;
};

}  // namespace femtobench
