#include "solver/block_cg.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/check.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"
#include "solver/half.hpp"
#include "solver/solver_obs.hpp"

namespace femto {

namespace {

std::size_t resolve_grain(std::size_t blas_grain) {
  return blas_grain == 0 ? blas::kGrain : blas_grain;
}

// The half kernels chunk over 24-real blocks, not reals; derive their grain
// from the BLAS grain so one tunable covers both.
std::size_t half_grain(std::size_t blas_grain) {
  if (blas_grain == 0) return HalfSpinorField::kHalfGrain;
  return std::max<std::size_t>(1, blas_grain / kSpinorReals);
}

/// Pointer subsets for shrinking-block kernel calls.
template <typename T>
std::vector<SpinorField<T>*> select(std::vector<SpinorField<T>>& fs,
                                    const std::vector<std::size_t>& idx) {
  std::vector<SpinorField<T>*> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) out.push_back(&fs[i]);
  return out;
}

template <typename T>
std::vector<const SpinorField<T>*> cselect(std::vector<SpinorField<T>>& fs,
                                           const std::vector<std::size_t>& idx) {
  std::vector<const SpinorField<T>*> out;
  out.reserve(idx.size());
  for (std::size_t i : idx) out.push_back(&fs[i]);
  return out;
}

/// Split the joint flop/byte/wall totals equally across the block and
/// record each RHS under @p name (see header: block work is joint,
/// counters global).
void finalize_block(std::vector<SolveResult>& results, const char* name,
                    double seconds, std::int64_t flops_total,
                    std::int64_t bytes_total) {
  const auto nb = static_cast<std::int64_t>(results.size());
  for (auto& res : results) {
    res.seconds = seconds;
    res.flop_count = flops_total / nb;
    res.byte_count = bytes_total / nb;
    solver_obs::record(name, res);
  }
}

/// "<solver>: <what>", a FEMTO_CHECK text; built only when a check fails.
std::string check_text(const char* solver, const char* what) {
  return std::string(solver) + ": " + what;
}

/// A single-RHS ApplyFn as the MultiApplyFn of a batch of one.
template <typename T>
MultiApplyFn<T> per_rhs(const ApplyFn<T>& a) {
  return [&a](std::span<SpinorField<T>* const> out,
              std::span<const SpinorField<T>* const> in) {
    for (std::size_t r = 0; r < out.size(); ++r) a(*out[r], *in[r]);
  };
}

// The one implementation of each solver.  @p name is what the solve
// reports as everywhere — trace span, SolveRecord, log line and
// FEMTO_CHECK texts — so the single-RHS forwards at the end of this file
// keep reporting as cg / mixed_cg.

template <typename T>
std::vector<SolveResult> run_block_cg(const char* name,
                                      const MultiApplyFn<T>& a,
                                      std::span<SpinorField<T>* const> x,
                                      std::span<const SpinorField<T>* const> b,
                                      double tol, int max_iter,
                                      std::size_t blas_grain) {
  FEMTO_TRACE_SCOPE("solver", name);
  const std::size_t nb = x.size();
  FEMTO_ASSERT(b.size() == nb);
  std::vector<SolveResult> results(nb);
  if (nb == 0) return results;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  const std::size_t g = resolve_grain(blas_grain);

  // Per-RHS state: residual, search direction, matvec result.
  std::vector<SpinorField<T>> r, p, ap;
  r.reserve(nb);
  p.reserve(nb);
  ap.reserve(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    r.push_back(*b[i]);
    ap.emplace_back(b[i]->geom_ptr(), b[i]->l5(), b[i]->subset());
  }

  std::vector<double> b2(nb), rsq(nb), target(nb), xn(nb);
  {
    std::vector<const SpinorField<T>*> bp(b.begin(), b.end());
    blas::norm2_multi<T>(bp, b2, g);
  }
  {
    std::vector<const SpinorField<T>*> xp(x.begin(), x.end());
    blas::norm2_multi<T>(xp, xn, g);
  }
  // Warm starts: r = b - A x for the RHSs with a nonzero guess (the same
  // skip-if-zero convention for every RHS, batched over the warm subset).
  std::vector<std::size_t> warm;
  for (std::size_t i = 0; i < nb; ++i) {
    rsq[i] = b2[i];
    target[i] = tol * tol * b2[i];
    if (xn[i] > 0.0) warm.push_back(i);
  }
  if (!warm.empty()) {
    std::vector<SpinorField<T>*> wx;
    std::vector<const SpinorField<T>*> cwx;
    for (std::size_t i : warm) {
      wx.push_back(x[i]);
      cwx.push_back(x[i]);
    }
    auto wap = select(ap, warm);
    a(wap, cwx);
    std::vector<double> mone(warm.size(), -1.0), wrsq(warm.size());
    auto wr = select(r, warm);
    blas::axpy_norm2_multi<T>(mone, cselect(ap, warm), wr, wrsq, g);
    for (std::size_t k = 0; k < warm.size(); ++k) rsq[warm[k]] = wrsq[k];
  }
  for (std::size_t i = 0; i < nb; ++i) p.push_back(r[i]);

  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < nb; ++i)
    if (results[i].iterations < max_iter && rsq[i] > target[i])
      active.push_back(i);

  while (!active.empty()) {
    // Batched matvec over the surviving block, then the per-RHS CG
    // recurrences through one multi-kernel launch per fused operation.
    const auto na = active.size();
    auto pap_in = cselect(p, active);
    auto ap_out = select(ap, active);
    a(ap_out, pap_in);
    std::vector<double> pap(na), alpha(na), malpha(na), rsq_new(na), beta(na);
    blas::redot_multi<T>(pap_in, cselect(ap, active), pap, g);
    for (std::size_t k = 0; k < na; ++k) {
      ++results[active[k]].iterations;
      alpha[k] = rsq[active[k]] / pap[k];
      malpha[k] = -alpha[k];
    }
    auto ra = select(r, active);
    blas::axpy_norm2_multi<T>(malpha, cselect(ap, active), ra, rsq_new, g);
    for (std::size_t k = 0; k < na; ++k) {
      FEMTO_CHECK(std::isfinite(rsq_new[k]),
                  check_text(name,
                             "residual norm went NaN/Inf (diverging operator "
                             "or corrupt field data)")
                      .c_str());
      beta[k] = rsq_new[k] / rsq[active[k]];
      rsq[active[k]] = rsq_new[k];
    }
    std::vector<SpinorField<T>*> xa;
    for (std::size_t i : active) xa.push_back(x[i]);
    auto pa = select(p, active);
    blas::axpy_zpbx_multi<T>(alpha, pa, xa, cselect(r, active), beta, g);
    std::vector<std::size_t> still;
    for (std::size_t k = 0; k < na; ++k) {
      const std::size_t i = active[k];
      results[i].history.push_back(
          {results[i].iterations,
           b2[i] > 0.0 ? std::sqrt(rsq[i] / b2[i]) : 0.0, precision_of<T>(),
           false});
      if (results[i].iterations < max_iter && rsq[i] > target[i])
        still.push_back(i);
    }
    active.swap(still);
  }

  for (std::size_t i = 0; i < nb; ++i) {
    results[i].converged = rsq[i] <= target[i];
    results[i].final_rel_residual = std::sqrt(rsq[i] / b2[i]);
  }
  finalize_block(results, name, sw.seconds(), flops::get() - flops0,
                 flops::bytes() - bytes0);
  return results;
}

/// Per-RHS state of the block mixed-precision solve: the outer double
/// residual, the sloppy vectors, the 16-bit store, and the scalar
/// recurrence.
struct MixedRhs {
  SpinorField<double> r_d, tmp_d;
  SpinorField<float> r_s, p_s, ap_s, xs;
  HalfSpinorField hstore;
  double b2 = 0.0, r2_d = 0.0, target = 0.0;
  double rsq = 0.0, update_target = 0.0;
  int inner = 0;
  bool breakdown = false;  ///< sloppy pAp <= 0: force a reliable update
  bool done = false;

  explicit MixedRhs(const SpinorField<double>& b)
      : r_d(b),
        tmp_d(b.geom_ptr(), b.l5(), b.subset()),
        r_s(b.geom_ptr(), b.l5(), b.subset()),
        p_s(b.geom_ptr(), b.l5(), b.subset()),
        ap_s(b.geom_ptr(), b.l5(), b.subset()),
        xs(b.geom_ptr(), b.l5(), b.subset()),
        hstore(b.geom_ptr(), b.l5(), b.subset()) {}
};

std::vector<SolveResult> run_block_mixed_cg(
    const char* name, const MultiApplyFn<double>& a_double,
    const MultiApplyFn<float>& a_single,
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b,
    const SolverParams& params) {
  FEMTO_TRACE_SCOPE("solver", name);
  const std::size_t nb = x.size();
  FEMTO_ASSERT(b.size() == nb);
  std::vector<SolveResult> results(nb);
  if (nb == 0) return results;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  const std::size_t g = resolve_grain(params.blas_grain);
  const std::size_t hg = half_grain(params.blas_grain);
  const bool half = params.sloppy == Precision::Half;
  const Precision inner_prec = half ? Precision::Half : Precision::Single;

  std::vector<MixedRhs> st;
  st.reserve(nb);
  for (std::size_t i = 0; i < nb; ++i) st.emplace_back(*b[i]);

  {
    std::vector<double> b2(nb), xn(nb);
    std::vector<const SpinorField<double>*> bp(b.begin(), b.end());
    blas::norm2_multi<double>(bp, b2, g);
    std::vector<const SpinorField<double>*> xp(x.begin(), x.end());
    blas::norm2_multi<double>(xp, xn, g);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < nb; ++i) {
      st[i].b2 = b2[i];
      st[i].r2_d = b2[i];
      st[i].target = params.tol * params.tol * b2[i];
      if (xn[i] > 0.0) warm.push_back(i);
    }
    if (!warm.empty()) {
      std::vector<SpinorField<double>*> wtmp;
      std::vector<const SpinorField<double>*> cwx, cwtmp;
      std::vector<SpinorField<double>*> wr;
      for (std::size_t i : warm) {
        wtmp.push_back(&st[i].tmp_d);
        cwtmp.push_back(&st[i].tmp_d);
        cwx.push_back(x[i]);
        wr.push_back(&st[i].r_d);
      }
      a_double(wtmp, cwx);
      std::vector<double> mone(warm.size(), -1.0), wr2(warm.size());
      blas::axpy_norm2_multi<double>(mone, cwtmp, wr, wr2, g);
      for (std::size_t k = 0; k < warm.size(); ++k)
        st[warm[k]].r2_d = wr2[k];
    }
  }

  // (Re)start one RHS's inner solve from its true residual.  In half mode
  // the demoted residual is round-tripped through 16-bit storage and its
  // norm taken in the same pass.
  auto start_inner = [&](MixedRhs& s) {
    blas::copy(s.r_s, s.r_d, g);
    s.rsq = half ? s.hstore.roundtrip_norm2(s.r_s, hg)
                 : blas::norm2(s.r_s, g);
    blas::copy(s.p_s, s.r_s, g);
    s.xs.zero();
    s.update_target = s.rsq * params.delta * params.delta;
    s.inner = 0;
  };

  // Reliable update for one RHS: fold the sloppy solution into x,
  // recompute the true residual in double (a batch-of-one double matvec).
  auto reliable_update = [&](std::size_t i) {
    MixedRhs& s = st[i];
    SolveResult& res = results[i];
    blas::copy(s.tmp_d, s.xs, g);  // promote
    blas::axpy<double>(1.0, s.tmp_d, *x[i], g);
    SpinorField<double>* outp[1] = {&s.tmp_d};
    const SpinorField<double>* inp[1] = {x[i]};
    a_double(outp, inp);
    blas::copy(s.r_d, *b[i], g);
    s.r2_d = blas::axpy_norm2<double>(-1.0, s.tmp_d, s.r_d, g);
    FEMTO_CHECK(std::isfinite(s.r2_d),
                check_text(name,
                           "true residual norm went NaN/Inf at a reliable "
                           "update")
                    .c_str());
    ++res.reliable_updates;
    res.history.push_back({res.iterations,
                           s.b2 > 0.0 ? std::sqrt(s.r2_d / s.b2) : 0.0,
                           Precision::Double, true});
  };

  // Advance one RHS's control flow until it either joins the next sloppy
  // batch (returns true) or finishes.  Per RHS this is the loop nest of a
  // solo mixed-precision CG: inner-continue test, reliable update on inner
  // exit, outer convergence test, restart.  Each RHS steps through it on
  // its own scalars, so batch-mates never change its trajectory.
  auto ready = [&](std::size_t i) -> bool {
    MixedRhs& s = st[i];
    SolveResult& res = results[i];
    while (!s.done) {
      if (!s.breakdown) {
        const bool cont =
            res.iterations < params.max_iter &&
            (s.rsq > s.update_target || s.inner < params.min_inner_iter) &&
            s.rsq > 0.25 * s.target;
        if (cont) return true;
      }
      s.breakdown = false;
      reliable_update(i);
      // A zero-length inner solve means the target sits below the sloppy
      // precision floor; stop rather than spin.
      if (s.inner == 0 || s.r2_d <= s.target ||
          res.iterations >= params.max_iter) {
        s.done = true;
        break;
      }
      start_inner(s);
    }
    return false;
  };

  for (std::size_t i = 0; i < nb; ++i) {
    if (st[i].r2_d <= st[i].target || results[i].iterations >= params.max_iter)
      st[i].done = true;
    else
      start_inner(st[i]);
  }

  while (true) {
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < nb; ++i)
      if (ready(i)) batch.push_back(i);
    if (batch.empty()) break;

    // One batched sloppy matvec for every RHS mid-inner-solve.
    const auto na = batch.size();
    std::vector<SpinorField<float>*> bap;
    std::vector<const SpinorField<float>*> cbp, cbap;
    for (std::size_t i : batch) {
      bap.push_back(&st[i].ap_s);
      cbap.push_back(&st[i].ap_s);
      cbp.push_back(&st[i].p_s);
    }
    a_single(bap, cbp);
    std::vector<double> pap(na);
    blas::redot_multi<float>(cbp, cbap, pap, g);

    // Sloppy breakdowns (pAp <= 0) leave the stepping subset and take a
    // reliable update next; everyone else takes the fused vector updates.
    std::vector<std::size_t> step;
    for (std::size_t k = 0; k < na; ++k) {
      const std::size_t i = batch[k];
      ++results[i].iterations;
      ++st[i].inner;
      if (pap[k] > 0.0)
        step.push_back(k);
      else
        st[i].breakdown = true;
    }
    if (step.empty()) continue;

    std::vector<double> alpha(step.size()), rsq_new(step.size());
    for (std::size_t m = 0; m < step.size(); ++m)
      alpha[m] = st[batch[step[m]]].rsq / pap[step[m]];
    if (half) {
      // The 16-bit round-trip kernels fuse each update with its
      // quantisation per field; they stay per-RHS (their traffic is
      // per-RHS regardless — no cross-RHS reuse to fuse).
      for (std::size_t m = 0; m < step.size(); ++m) {
        MixedRhs& s = st[batch[step[m]]];
        s.hstore.axpy_roundtrip(alpha[m], s.p_s, s.xs, hg);
        rsq_new[m] =
            s.hstore.axpy_roundtrip_norm2(-alpha[m], s.ap_s, s.r_s, hg);
      }
    } else {
      std::vector<SpinorField<float>*> sx, sr;
      std::vector<const SpinorField<float>*> sp, sap;
      for (std::size_t m : step) {
        MixedRhs& s = st[batch[m]];
        sp.push_back(&s.p_s);
        sap.push_back(&s.ap_s);
        sx.push_back(&s.xs);
        sr.push_back(&s.r_s);
      }
      blas::triple_cg_update_multi<float>(alpha, sp, sap, sx, sr, rsq_new, g);
    }
    std::vector<double> beta(step.size());
    for (std::size_t m = 0; m < step.size(); ++m) {
      MixedRhs& s = st[batch[step[m]]];
      FEMTO_CHECK(std::isfinite(rsq_new[m]),
                  check_text(name, "sloppy residual norm went NaN/Inf")
                      .c_str());
      beta[m] = rsq_new[m] / s.rsq;
      s.rsq = rsq_new[m];
    }
    if (half) {
      for (std::size_t m = 0; m < step.size(); ++m) {
        MixedRhs& s = st[batch[step[m]]];
        s.hstore.xpay_roundtrip(s.r_s, beta[m], s.p_s, hg);
      }
    } else {
      std::vector<SpinorField<float>*> sps;
      std::vector<const SpinorField<float>*> srs;
      for (std::size_t m : step) {
        sps.push_back(&st[batch[m]].p_s);
        srs.push_back(&st[batch[m]].r_s);
      }
      blas::xpay_multi<float>(srs, beta, sps, g);
    }
    for (std::size_t m = 0; m < step.size(); ++m) {
      const std::size_t i = batch[step[m]];
      results[i].history.push_back(
          {results[i].iterations,
           st[i].b2 > 0.0 ? std::sqrt(st[i].rsq / st[i].b2) : 0.0, inner_prec,
           false});
    }
  }

  for (std::size_t i = 0; i < nb; ++i) {
    results[i].converged = st[i].r2_d <= st[i].target;
    results[i].final_rel_residual = std::sqrt(st[i].r2_d / st[i].b2);
  }
  finalize_block(results, name, sw.seconds(), flops::get() - flops0,
                 flops::bytes() - bytes0);
  return results;
}

}  // namespace

template <typename T>
std::vector<SolveResult> block_cg(const MultiApplyFn<T>& a,
                                  std::span<SpinorField<T>* const> x,
                                  std::span<const SpinorField<T>* const> b,
                                  double tol, int max_iter,
                                  std::size_t blas_grain) {
  return run_block_cg<T>("block_cg", a, x, b, tol, max_iter, blas_grain);
}

std::vector<SolveResult> block_mixed_cg(
    const MultiApplyFn<double>& a_double, const MultiApplyFn<float>& a_single,
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b,
    const SolverParams& params) {
  return run_block_mixed_cg("block_mixed_cg", a_double, a_single, x, b,
                            params);
}

// The single-RHS solvers are the batch of one.

template <typename T>
SolveResult cg(const ApplyFn<T>& a, SpinorField<T>& x,
               const SpinorField<T>& b, double tol, int max_iter,
               std::size_t blas_grain) {
  SpinorField<T>* xp[1] = {&x};
  const SpinorField<T>* bp[1] = {&b};
  auto res = run_block_cg<T>("cg", per_rhs(a), xp, bp, tol, max_iter,
                             blas_grain);
  return std::move(res[0]);
}

SolveResult mixed_cg(const ApplyFn<double>& a_double,
                     const ApplyFn<float>& a_single,
                     SpinorField<double>& x, const SpinorField<double>& b,
                     const SolverParams& params) {
  SpinorField<double>* xp[1] = {&x};
  const SpinorField<double>* bp[1] = {&b};
  auto res = run_block_mixed_cg("mixed_cg", per_rhs(a_double),
                                per_rhs(a_single), xp, bp, params);
  return std::move(res[0]);
}

template SolveResult cg<double>(const ApplyFn<double>&, SpinorField<double>&,
                                const SpinorField<double>&, double, int,
                                std::size_t);
template SolveResult cg<float>(const ApplyFn<float>&, SpinorField<float>&,
                               const SpinorField<float>&, double, int,
                               std::size_t);
template std::vector<SolveResult> block_cg<double>(
    const MultiApplyFn<double>&, std::span<SpinorField<double>* const>,
    std::span<const SpinorField<double>* const>, double, int, std::size_t);
template std::vector<SolveResult> block_cg<float>(
    const MultiApplyFn<float>&, std::span<SpinorField<float>* const>,
    std::span<const SpinorField<float>* const>, double, int, std::size_t);

}  // namespace femto
