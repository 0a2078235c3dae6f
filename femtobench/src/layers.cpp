#include "layers.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "autotune/autotune.hpp"
#include "autotune/blas_tunable.hpp"
#include "autotune/dslash_tunable.hpp"
#include "ceilings.hpp"
#include "lattice/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"
#include "simd/vec.hpp"
#include "solver/block_cg.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace femtobench {

namespace {

using femto::GaugeField;
using femto::SolveResult;
using femto::SpinorField;
using femto::Subset;
using femto::obs::Stopwatch;

/// One operator's calls, timed and counted from outside the operator.
struct OpTally {
  int calls = 0;  ///< launches (a batched call counts once)
  int rhs = 0;    ///< right-hand sides applied
  double seconds = 0.0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;

  template <typename F>
  void time(int nrhs, F&& apply) {
    const std::int64_t f0 = femto::flops::get(), b0 = femto::flops::bytes();
    const Stopwatch sw;
    apply();
    seconds += sw.seconds();
    flops += femto::flops::get() - f0;
    bytes += femto::flops::bytes() - b0;
    ++calls;
    rhs += nrhs;
  }
};

/// The operator pair a DwfSolver builds for this workload, rebuilt from
/// public pieces so the replay can wrap every call into it.
struct Operators {
  std::shared_ptr<const GaugeField<float>> u_f;
  femto::MobiusOperator<double> d;
  femto::MobiusOperator<float> f;
  femto::SolverParams sp;

  Operators(const Workload& w, std::shared_ptr<const GaugeField<double>> u)
      : u_f(std::make_shared<GaugeField<float>>(u->convert<float>())),
        d(u, kMobius),
        f(u_f, kMobius),
        sp(solver_params(w)) {
    if (!w.autotune) return;
    // The tuner's cached choice, exactly as DwfSolver::autotune installs it.
    d.tuning() = femto::tune::tuned_dslash_grain<double>(
        u, kMobius.l5, 0, femto::tune::FormatSet::kFullOnly);
    f.tuning() = femto::tune::tuned_dslash_grain<float>(
        u_f, kMobius.l5, 0, femto::tune::FormatSet::kAll);
    sp.gauge_format = f.tuning().format;
    sp.blas_grain = femto::tune::tuned_blas_grain<float>(
        u_f->geom_ptr(), kMobius.l5, Subset::Odd);
  }
};

struct Replay {
  OpTally normal_d, normal_f;
  double prep_s = 0.0;  ///< prepare_source + dagger apply_schur
  double cg_s = 0.0;
  double reconstruct_s = 0.0;
  std::int64_t cg_launches = 0;  ///< pool launches inside the CG
  std::vector<SolveResult> results;
  std::vector<std::uint64_t> fnv;  ///< FNV-1a of each reconstructed solution

  double wall_s() const { return prep_s + cg_s + reconstruct_s; }
  double op_s() const { return normal_d.seconds + normal_f.seconds; }
};

femto::obs::Counter& pool_launches() {
  return femto::obs::counter("pool.launches");
}

/// The stages of one DwfSolver::solve, each call into a layer timed.
void replay_direct(Operators& op, const SpinorField<double>& b, Replay& r) {
  const auto geom = b.geom_ptr();
  const int l5 = b.l5();
  SpinorField<double> rhs(geom, l5, Subset::Odd), y(geom, l5, Subset::Odd);
  {
    FEMTO_TRACE_SCOPE("bench", "prep");
    const Stopwatch sw;
    SpinorField<double> bhat(geom, l5, Subset::Odd);
    op.d.prepare_source(bhat, b);
    op.d.apply_schur(rhs, bhat, /*dagger=*/true);
    r.prep_s += sw.seconds();
  }
  {
    FEMTO_TRACE_SCOPE("bench", "cg");
    femto::ApplyFn<double> a_d = [&](SpinorField<double>& out,
                                     const SpinorField<double>& in) {
      FEMTO_TRACE_SCOPE("bench", "normal_d");
      r.normal_d.time(1, [&] { op.d.apply_normal(out, in); });
    };
    femto::ApplyFn<float> a_f = [&](SpinorField<float>& out,
                                    const SpinorField<float>& in) {
      FEMTO_TRACE_SCOPE("bench", "normal_f");
      r.normal_f.time(1, [&] { op.f.apply_normal(out, in); });
    };
    const std::int64_t l0 = pool_launches().get();
    const Stopwatch sw;
    r.results.push_back(femto::mixed_cg(a_d, a_f, y, rhs, op.sp));
    r.cg_s += sw.seconds();
    r.cg_launches += pool_launches().get() - l0;
  }
  {
    FEMTO_TRACE_SCOPE("bench", "reconstruct");
    const Stopwatch sw;
    SpinorField<double> x(geom, l5, Subset::Full);
    op.d.reconstruct(x, y, b);
    r.reconstruct_s += sw.seconds();
    r.fnv.push_back(fnv1a(x));
  }
}

/// The stages of one DwfSolver::solve_multi over @p b, as a service batch
/// runs them.
void replay_batch(Operators& op,
                  const std::vector<const SpinorField<double>*>& b,
                  Replay& r) {
  const std::size_t nb = b.size();
  const auto geom = b.front()->geom_ptr();
  const int l5 = b.front()->l5();
  std::vector<SpinorField<double>> bhat, rhs, y;
  for (std::size_t i = 0; i < nb; ++i) {
    bhat.emplace_back(geom, l5, Subset::Odd);
    rhs.emplace_back(geom, l5, Subset::Odd);
    y.emplace_back(geom, l5, Subset::Odd);
  }
  std::vector<SpinorField<double>*> rhsp, yp;
  std::vector<const SpinorField<double>*> cbhatp, crhsp;
  for (std::size_t i = 0; i < nb; ++i) {
    rhsp.push_back(&rhs[i]);
    yp.push_back(&y[i]);
    cbhatp.push_back(&bhat[i]);
    crhsp.push_back(&rhs[i]);
  }
  {
    FEMTO_TRACE_SCOPE("bench", "prep");
    const Stopwatch sw;
    for (std::size_t i = 0; i < nb; ++i) op.d.prepare_source(bhat[i], *b[i]);
    op.d.apply_schur_multi(rhsp, cbhatp, /*dagger=*/true);
    r.prep_s += sw.seconds();
  }
  {
    FEMTO_TRACE_SCOPE("bench", "cg");
    femto::MultiApplyFn<double> a_d =
        [&](std::span<SpinorField<double>* const> out,
            std::span<const SpinorField<double>* const> in) {
          FEMTO_TRACE_SCOPE("bench", "normal_d");
          r.normal_d.time(static_cast<int>(in.size()),
                          [&] { op.d.apply_normal_multi(out, in); });
        };
    femto::MultiApplyFn<float> a_f =
        [&](std::span<SpinorField<float>* const> out,
            std::span<const SpinorField<float>* const> in) {
          FEMTO_TRACE_SCOPE("bench", "normal_f");
          r.normal_f.time(static_cast<int>(in.size()),
                          [&] { op.f.apply_normal_multi(out, in); });
        };
    const std::int64_t l0 = pool_launches().get();
    const Stopwatch sw;
    std::vector<SolveResult> res =
        femto::block_mixed_cg(a_d, a_f, yp, crhsp, op.sp);
    r.cg_s += sw.seconds();
    r.cg_launches += pool_launches().get() - l0;
    for (SolveResult& s : res) r.results.push_back(std::move(s));
  }
  {
    FEMTO_TRACE_SCOPE("bench", "reconstruct");
    const Stopwatch sw;
    std::vector<SpinorField<double>> x;
    for (std::size_t i = 0; i < nb; ++i) {
      x.emplace_back(geom, l5, Subset::Full);
      op.d.reconstruct(x.back(), y[i], *b[i]);
    }
    r.reconstruct_s += sw.seconds();
    for (const SpinorField<double>& xi : x) r.fnv.push_back(fnv1a(xi));
  }
}

/// Snapshot the tracer into plain spans; flow spans (a request's queue
/// wait, which starts on the submitting thread's clock) do not nest and
/// are returned separately.
std::vector<Span> take_spans(std::vector<Span>* flows, std::uint64_t* dropped) {
  const femto::obs::TraceSnapshot snap = femto::obs::trace_snapshot();
  *dropped += snap.dropped;
  std::vector<Span> spans;
  for (const femto::obs::TraceEvent& e : snap.events) {
    Span s{e.category, e.name, e.tid, e.t0_ns, e.dur_ns};
    if (e.flow == femto::obs::FlowDir::None)
      spans.push_back(std::move(s));
    else if (flows != nullptr)
      flows->push_back(std::move(s));
  }
  femto::obs::trace_clear();
  return spans;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Tracer cost on the hot path: the float normal operator applied with
/// tracing off and on, alternating, median of each.
double trace_overhead_pct(Operators& op) {
  const auto geom = op.u_f->geom_ptr();
  SpinorField<float> in(geom, kMobius.l5, Subset::Odd),
      out(geom, kMobius.l5, Subset::Odd);
  in.gaussian(7);
  auto batch = [&](bool traced) {
    femto::obs::set_trace_enabled(traced);
    const Stopwatch sw;
    for (int i = 0; i < 20; ++i) op.f.apply_normal(out, in);
    const double t = sw.seconds();
    femto::obs::set_trace_enabled(false);
    return t;
  };
  std::vector<double> off, on;
  for (int rep = 0; rep < 7; ++rep) {
    off.push_back(batch(false));
    on.push_back(batch(true));
  }
  femto::obs::trace_clear();
  return 100.0 * (median(on) / median(off) - 1.0);
}

struct TuneProbe {
  double sweep_s = 0.0;
  int candidates = 0;
  femto::DslashTuning choice_f{0};  ///< grain 0: no choice was made
};

/// The autotune layer on this volume: the sweep DwfSolver::autotune runs,
/// and how many candidates it times.
TuneProbe probe_autotune(const Workload& w, const Setup& s,
                         const Operators& op) {
  using namespace femto::tune;
  TuneProbe p;
  if (w.autotune) {
    p.sweep_s = s.autotune_s;  // the sweep setup_s already paid
  } else {
    Autotuner::global().clear();
    femto::DwfSolver probe(s.u, kMobius, solver_params(w));
    const Stopwatch sw;
    probe.autotune();
    p.sweep_s = sw.seconds();
  }
  p.choice_f = tuned_dslash_grain<float>(op.u_f, kMobius.l5, 0,
                                         FormatSet::kAll);
  p.candidates =
      static_cast<int>(
          DslashTunable<double>(s.u, kMobius.l5, 0, FormatSet::kFullOnly)
              .candidates()
              .size() +
          DslashTunable<float>(op.u_f, kMobius.l5, 0, FormatSet::kAll)
              .candidates()
              .size());
  for (BlasKernel k : {BlasKernel::TripleCgUpdate, BlasKernel::AxpyZpbx,
                       BlasKernel::AxpyNorm2})
    p.candidates += static_cast<int>(
        BlasTunable<float>(op.u_f->geom_ptr(), kMobius.l5, Subset::Odd, k)
            .candidates()
            .size());
  return p;
}

}  // namespace

void traced(const Workload& w, std::uint64_t seed, double seconds,
            Report& rep) {
  (void)seconds;  // the traced run replays a fixed amount of work
  const std::string reducer_err = reducer_self_check();
  rep.check("span_reducer_self_check", reducer_err.empty(),
            reducer_err.empty() ? "hand-built span tree reduced exactly"
                                : reducer_err);

  Setup s = set_up(w, seed, 1);
  Operators op(w, s.u);
  femto::obs::set_trace_capacity(std::size_t{1} << 20);
  std::uint64_t dropped = 0;

  // 1. What the workload computes, through its own entry point; the replay
  // must reproduce it bit for bit.  The service burst runs traced: the
  // service's own spans give the queue wait and the batch time, and the
  // batch-size histogram is read as a delta.  The direct solve runs
  // untraced and is the single-worker baseline's reference.
  femto::obs::Histogram& h = femto::obs::histogram("solve_service.batch_size");
  const std::int64_t c0 = h.count(), s0 = h.sum();
  femto::obs::set_trace_enabled(w.service);
  const TimedPhase t = w.service ? run_service(s, 0.0) : run_direct(s, 0.0);
  femto::obs::set_trace_enabled(false);
  const std::int64_t batches = h.count() - c0;
  const std::int64_t batched_rhs = h.sum() - s0;
  double batch_span_s = 0.0, queue_wait_s = 0.0;
  std::vector<Span> flows;
  for (const Span& sp : take_spans(&flows, &dropped))
    if (sp.category == "service" && sp.name == "solve_batch")
      batch_span_s += static_cast<double>(sp.dur_ns) * 1e-9;
  for (const Span& f : flows)
    if (f.category == "service" && f.name == "queue_wait")
      queue_wait_s += static_cast<double>(f.dur_ns) * 1e-9;
  queue_wait_s /= static_cast<double>(std::max<std::size_t>(flows.size(), 1));
  if (w.service) {
    const Verdict v = verify(w, s, t);
    rep.check("service_matches_solo", v.bitwise_ok,
              v.bitwise_ok ? "checked futures equal a solo DwfSolver::solve"
                           : v.detail);
  } else {
    rep.label("fnv", hex(t.solves.front().fnv));
  }

  // 2. The traced replay, stage by stage, in the batches the service formed.
  Replay r;
  femto::obs::set_trace_enabled(true);
  if (w.service) {
    const std::size_t bsz =
        batches > 0 ? (kBurst + static_cast<std::size_t>(batches) - 1) /
                          static_cast<std::size_t>(batches)
                    : kMaxBatch;
    for (std::size_t lo = 0; lo < kBurst; lo += bsz) {
      std::vector<const SpinorField<double>*> b;
      for (std::size_t i = lo; i < std::min(kBurst, lo + bsz); ++i)
        b.push_back(s.sources[i].get());
      replay_batch(op, b, r);
    }
  } else {
    replay_direct(op, *s.sources.front(), r);
  }
  femto::obs::set_trace_enabled(false);
  const SelfTimes self = reduce_self_times(take_spans(nullptr, &dropped));

  bool replay_ok = r.fnv.size() == t.solves.size();
  double true_res_max = 0.0;
  double iters = 0.0, reliable = 0.0;
  int failed = 0;
  for (std::size_t i = 0; i < r.fnv.size() && replay_ok; ++i) {
    const Solve& sv = t.solves[i];
    replay_ok = r.fnv[i] == sv.fnv &&
                r.results[i].iterations == sv.stats.iterations;
    true_res_max = std::max(true_res_max, sv.true_residual);
    if (!sv.stats.converged || sv.true_residual > kTrueResidualBound) ++failed;
    iters += r.results[i].iterations;
    reliable += r.results[i].reliable_updates;
  }
  const double nrhs =
      static_cast<double>(std::max<std::size_t>(r.fnv.size(), 1));
  rep.check("traced_replay_matches_untraced", replay_ok,
            replay_ok ? "replayed solutions and iteration counts are bitwise "
                        "those of the workload's own entry point"
                      : "replay differs from the workload's own solve");
  rep.check("trace_ring_complete", dropped == 0,
            dropped == 0 ? "no spans dropped"
                         : std::to_string(dropped) + " spans dropped");
  rep.attempted = static_cast<int>(t.solves.size());
  rep.failed = failed;

  // 3. Layer probes outside the solve: autotune, tracer cost, ceilings.
  const TuneProbe tune = w.service ? TuneProbe{} : probe_autotune(w, s, op);
  const double overhead_pct = trace_overhead_pct(op);
  const std::size_t ws_bytes = static_cast<std::size_t>(
      r.normal_f.calls ? r.normal_f.bytes / r.normal_f.calls : 0);
  const std::size_t llc = llc_bytes();
  const std::size_t dram_bytes =
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  const double triad_ws = triad_gbps(ws_bytes, 0.5);
  const double triad_dram = triad_gbps(dram_bytes, 1.0);
  const double fma = mul_add_gflops(0.5);

  // 4. The per-layer report.
  const double op_s = r.op_s();
  const double applies = r.normal_d.rhs + r.normal_f.rhs;
  const double dslash_s = self_seconds(self, "*", "dirac/dslash") +
                          self_seconds(self, "*", "dirac/dslash_multi");
  const double solver_self = r.cg_s - op_s;
  const double blas_self = self_seconds(self, "cg", "blas/*");
  const double gbps = op_s > 0 ? static_cast<double>(r.normal_d.bytes +
                                                     r.normal_f.bytes) /
                                     op_s / 1e9
                               : 0.0;
  auto ms_per = [](const OpTally& tally, int n) {
    return n > 0 ? 1e3 * tally.seconds / n : 0.0;
  };
  rep.metric("dirac.normal_f.calls", r.normal_f.calls, "count");
  rep.metric("dirac.normal_f.ms", ms_per(r.normal_f, r.normal_f.calls), "ms");
  rep.metric("dirac.normal_d.calls", r.normal_d.calls, "count");
  rep.metric("dirac.normal_d.ms", ms_per(r.normal_d, r.normal_d.calls), "ms");
  rep.metric("dirac.normal_multi_f.ms_per_rhs",
             w.service ? ms_per(r.normal_f, r.normal_f.rhs) : 0.0, "ms");
  rep.metric("dirac.share", op_s / r.wall_s(), "ratio");
  rep.metric("dirac.dslash.self_s", dslash_s, "s");
  rep.metric("dirac.fifth_dim.self_s",
             self_seconds(self, "*", "dirac/fifth_dim_op"), "s");
  rep.metric("dirac.gflops_conventional",
             op_s > 0 ? applies * static_cast<double>(op.f.flops_per_normal()) /
                            op_s / 1e9
                      : 0.0,
             "GFLOP/s");
  rep.metric("dirac.gbps_computed", gbps, "GB/s");
  rep.metric("dirac.pct_of_bw_bound",
             triad_ws > 0 ? 100.0 * gbps / triad_ws : 0.0, "%");
  rep.metric("solver.iterations", iters / nrhs, "count");
  rep.metric("solver.reliable_updates", reliable / nrhs, "count");
  rep.metric("solver.self_s", solver_self, "s");
  rep.metric("solver.blas.self_s", blas_self, "s");
  rep.metric("solver.half_other_s", solver_self - blas_self, "s");
  rep.metric("solver.prep_s", r.prep_s + r.reconstruct_s, "s");
  rep.metric("solver.true_residual_max", true_res_max, "ratio");
  rep.metric("autotune.sweep_s", tune.sweep_s, "s");
  rep.metric("autotune.candidates", tune.candidates, "count");
  rep.metric("autotune.variant_f",
             static_cast<double>(tune.choice_f.variant), "enum");
  rep.metric("autotune.format_f", static_cast<double>(tune.choice_f.format),
             "enum");
  rep.metric("autotune.grain_f", static_cast<double>(tune.choice_f.grain),
             "sites");
  rep.metric("service.batch_mean",
             batches > 0 ? static_cast<double>(batched_rhs) / batches : 0.0,
             "rhs");
  rep.metric("service.batches", static_cast<double>(batches), "count");
  rep.metric("service.queue_wait_s", queue_wait_s, "s");
  rep.metric("service.overhead_s", w.service ? t.wall_s - batch_span_s : 0.0,
             "s");
  rep.metric("par.launches_per_iter",
             r.normal_d.calls + r.normal_f.calls > 0
                 ? static_cast<double>(r.cg_launches) /
                       (r.normal_d.calls + r.normal_f.calls)
                 : 0.0,
             "count");
  rep.metric("machine.triad_gbps_ws", triad_ws, "GB/s");
  rep.metric("machine.triad_gbps_dram", triad_dram, "GB/s");
  rep.metric("machine.fma_gflops", fma, "GFLOP/s");
  rep.metric("trace.overhead_pct", overhead_pct, "%");
  rep.metric("info.untraced_solve_s", w.service ? 0.0 : t.wall_s, "s");

  char buf[256];
  if (!w.service) {
    std::snprintf(buf, sizeof(buf), "%s/%s/%zu",
                  femto::to_string(tune.choice_f.variant),
                  femto::gauge_format_name(tune.choice_f.format),
                  tune.choice_f.grain);
    rep.label("autotune.choice_f", buf);
  }
  std::snprintf(buf, sizeof(buf),
                "working set %.2f MB (computed bytes per float normal call) "
                "vs LLC %.0f MB: cache-resident; DRAM triad footprint "
                "%.0f MB",
                static_cast<double>(ws_bytes) / 1e6,
                static_cast<double>(llc) / 1e6,
                static_cast<double>(dram_bytes) / 1e6);
  rep.label("machine.footprints", buf);
  std::snprintf(buf, sizeof(buf), "mul+add at %s, %d float lanes",
                femto::simd::kIsaName, femto::simd::kWidth<float>);
  rep.label("machine.fma_width", buf);
}

}  // namespace femtobench
