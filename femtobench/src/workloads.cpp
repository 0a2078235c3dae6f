#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>

#include "autotune/autotune.hpp"
#include "lattice/gauge.hpp"
#include "obs/wallclock.hpp"

namespace femtobench {

using femto::GaugeField;
using femto::SpinorField;
using femto::Subset;

Setup set_up(const Workload& w, std::uint64_t seed, int repeats) {
  const auto geom = std::make_shared<const femto::Geometry>(w.ls, w.ls, w.ls,
                                                            w.lt);
  const std::size_t n_sources = w.service ? kBurst : 1;
  Setup s;
  for (std::size_t r = 0; r < n_sources; ++r) {
    auto b = std::make_shared<SpinorField<double>>(geom, kMobius.l5,
                                                   Subset::Full);
    b->gaussian(derive_seed(seed, source_stream(r)));
    s.sources.push_back(std::move(b));
  }

  for (int rep = 0; rep < repeats; ++rep) {
    // Drop the previous repeat's objects before timing the next build.
    s.solver.reset();
    s.service.reset();
    s.u.reset();
    if (w.autotune) femto::tune::Autotuner::global().clear();

    const femto::obs::Stopwatch sw;
    s.u = std::make_shared<const GaugeField<double>>(femto::quenched_config(
        geom, kBeta, kThermalSweeps, kEnsembleSeed));
    if (w.service) {
      femto::SolveServiceConfig cfg;
      cfg.max_batch = kMaxBatch;
      cfg.workers = 1;
      cfg.solver = solver_params(w);
      s.service = std::make_unique<femto::SolveService>(cfg);
    } else {
      s.solver =
          std::make_unique<femto::DwfSolver>(s.u, kMobius, solver_params(w));
      if (w.autotune) {
        const femto::obs::Stopwatch tune_sw;
        s.solver->autotune();
        s.autotune_s = tune_sw.seconds();
      }
    }
    s.setup_s.push_back(sw.seconds());
  }
  return s;
}

namespace {

/// Hash and check a finished solve's solution against the reference
/// double operator (default tuning, independent of what the solver ran).
Solve record(const femto::MobiusOperator<double>& reference,
             std::size_t source, double wall_s,
             const SpinorField<double>& x, const SpinorField<double>& b,
             femto::SolveResult stats) {
  return {source, wall_s, fnv1a(x), true_residual(reference, x, b),
          std::move(stats)};
}

}  // namespace

TimedPhase run_direct(Setup& s, double seconds) {
  TimedPhase t;
  const femto::MobiusOperator<double> reference(s.u, kMobius);
  const SpinorField<double>& b = *s.sources.front();
  SpinorField<double> x(b.geom_ptr(), b.l5(), Subset::Full);
  do {
    x.zero();
    const femto::obs::Stopwatch sw;
    femto::SolveResult res = s.solver->solve(x, b);
    const double wall = sw.seconds();
    t.wall_s += wall;
    t.solves.push_back(record(reference, 0, wall, x, b, std::move(res)));
  } while (t.wall_s < seconds);
  return t;
}

TimedPhase run_service(Setup& s, double seconds) {
  TimedPhase t;
  const femto::MobiusOperator<double> reference(s.u, kMobius);
  do {
    const femto::obs::Stopwatch burst;
    std::vector<std::future<femto::SolveOutcome>> futures;
    std::vector<double> submitted;
    for (const auto& b : s.sources) {
      submitted.push_back(burst.seconds());
      futures.push_back(s.service->submit({s.u, kMobius, b}));
    }
    // Batches complete in FIFO order, so waiting in submission order sees
    // each future become ready without waiting behind a later one.
    std::vector<double> latency;
    std::vector<femto::SolveOutcome> outcomes;
    for (std::size_t r = 0; r < futures.size(); ++r) {
      futures[r].wait();
      latency.push_back(burst.seconds() - submitted[r]);
      outcomes.push_back(futures[r].get());
    }
    const double wall = burst.seconds();
    t.burst_s.push_back(wall);
    t.wall_s += wall;
    for (std::size_t r = 0; r < outcomes.size(); ++r)
      t.solves.push_back(record(reference, r, latency[r], *outcomes[r].x,
                                *s.sources[r], std::move(outcomes[r].stats)));
  } while (t.wall_s < seconds);
  return t;
}

Verdict verify(const Workload& w, const Setup& s, const TimedPhase& t) {
  Verdict v;
  // Bitwise reference per source: a solo DwfSolver::solve for the service
  // (the per-RHS contract), the first repeat otherwise.
  std::map<std::size_t, std::pair<std::uint64_t, int>> expected;
  if (w.service) {
    femto::DwfSolver solo(s.u, kMobius, solver_params(w));
    for (std::size_t r : kSoloChecked) {
      SpinorField<double> x(s.u->geom_ptr(), kMobius.l5, Subset::Full);
      const femto::SolveResult res = solo.solve(x, *s.sources[r]);
      expected[r] = {fnv1a(x), res.iterations};
    }
  }

  for (const Solve& sv : t.solves) {
    ++v.attempted;
    v.true_residual_max = std::max(v.true_residual_max, sv.true_residual);
    if (!sv.stats.converged || sv.true_residual > kTrueResidualBound)
      ++v.failed;

    const std::pair<std::uint64_t, int> got{sv.fnv, sv.stats.iterations};
    const auto [it, first] = expected.emplace(sv.source, got);
    if (!first && it->second != got) {
      v.bitwise_ok = false;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "source %zu: fnv %016llx/%d iters, reference "
                    "%016llx/%d; ",
                    sv.source, static_cast<unsigned long long>(got.first),
                    got.second,
                    static_cast<unsigned long long>(it->second.first),
                    it->second.second);
      v.detail += buf;
    }
  }
  return v;
}

void report_end_to_end(const Workload& w, const Setup& s,
                       const TimedPhase& t, const Verdict& v, Report& rep) {
  std::vector<double> latency;
  for (const Solve& sv : t.solves) latency.push_back(sv.wall_s);
  // Per-RHS time to solution: the solve call itself, or for the service a
  // burst's wall time shared over its requests.
  std::vector<double> per_solve;
  if (w.service) {
    for (double b : t.burst_s)
      per_solve.push_back(b / static_cast<double>(kBurst));
  } else {
    per_solve = latency;
  }
  rep.metric("solve_s", median(per_solve), "s");
  rep.metric("solves_per_s",
             static_cast<double>(v.attempted - v.failed) / t.wall_s, "1/s");
  rep.metric("request_latency_s", median(latency), "s");
  rep.metric("setup_s", median(s.setup_s), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");

  rep.metric("info.solve_samples", static_cast<double>(per_solve.size()),
             "count");
  rep.metric("info.latency_samples", static_cast<double>(latency.size()),
             "count");
  rep.metric("info.failed_fraction",
             v.attempted ? static_cast<double>(v.failed) / v.attempted : 0.0,
             "ratio");
  // The highest percentile with at least 10 samples beyond it.
  if (latency.size() >= 20) {
    std::sort(latency.begin(), latency.end());
    const std::size_t n = latency.size();
    const int pct = static_cast<int>(100 * (n - 10) / n);
    const std::size_t idx = (static_cast<std::size_t>(pct) * n + 99) / 100 - 1;
    rep.metric("info.request_latency_s.p" + std::to_string(pct),
               latency[std::min(idx, n - 1)], "s");
  }
  rep.metric("info.true_residual_max", v.true_residual_max, "ratio");
  rep.metric("info.iterations", t.solves.front().stats.iterations, "count");
  if (w.autotune) rep.metric("info.autotune_s", s.autotune_s, "s");
  rep.attempted = v.attempted;
  rep.failed = v.failed;
  rep.check("bitwise_repeat", v.bitwise_ok,
            v.bitwise_ok ? "every repeat matched its reference bit for bit"
                         : v.detail);
}

}  // namespace femtobench
