#include "solver/dwf_solve.hpp"

#include <cmath>

#include "autotune/blas_tunable.hpp"
#include "autotune/dslash_tunable.hpp"
#include "core/check.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace femto {

namespace {

/// The normal operator Mhat^dag Mhat as a solver's matvec.
template <typename T>
ApplyFn<T> normal_op(const MobiusOperator<T>& op) {
  return [&op](SpinorField<T>& out, const SpinorField<T>& in) {
    op.apply_normal(out, in);
  };
}

template <typename T>
MultiApplyFn<T> normal_multi_op(const MobiusOperator<T>& op) {
  return [&op](std::span<SpinorField<T>* const> out,
               std::span<const SpinorField<T>* const> in) {
    op.apply_normal_multi(out, in);
  };
}

}  // namespace

void DwfSolver::autotune() {
  FEMTO_TRACE_SCOPE("autotune", "dwf_solver_autotune");
  // Reliable updates are pinned to full-18 double links (accuracy
  // contract, DESIGN.md §16): the double operator only sweeps exact
  // storage, while the sloppy float operator sweeps every tier and may
  // pick an approximate one.
  op_d_.tuning() = tune::tuned_dslash_grain<double>(
      u_d_, mobius_.l5, 0, tune::FormatSet::kFullOnly);
  op_f_.tuning() = tune::tuned_dslash_grain<float>(u_f_, mobius_.l5, 0,
                                                   tune::FormatSet::kAll);
  sparams_.gauge_format = op_f_.tuning().format;
  // Sloppy iterations dominate the BLAS phase, so the single-precision
  // winner sets the solver grain.
  sparams_.blas_grain = tune::tuned_blas_grain<float>(u_f_->geom_ptr(),
                                                     mobius_.l5, Subset::Odd);
  FEMTO_LOG_DEBUG("autotune",
                  "dwf_solver: dslash d=" << to_string(op_d_.tuning().variant)
                                          << "/" << op_d_.tuning().grain
                                          << " f="
                                          << to_string(op_f_.tuning().variant)
                                          << "/" << op_f_.tuning().grain
                                          << "/"
                                          << gauge_format_name(
                                                 op_f_.tuning().format)
                                          << ", blas grain "
                                          << sparams_.blas_grain);
}

std::size_t DwfSolver::autotune_multi(std::size_t bmax) {
  FEMTO_TRACE_SCOPE("autotune", "dwf_solver_autotune_multi");
  const tune::MultiRhsTuning td = tune::tuned_multi_rhs<double>(
      u_d_, mobius_.l5, bmax, 0, tune::FormatSet::kFullOnly);
  const tune::MultiRhsTuning tf = tune::tuned_multi_rhs<float>(
      u_f_, mobius_.l5, bmax, 0, tune::FormatSet::kAll);
  op_d_.tuning() = td.dslash;
  op_f_.tuning() = tf.dslash;
  sparams_.gauge_format = tf.dslash.format;
  sparams_.blas_grain = tune::tuned_blas_grain<float>(u_f_->geom_ptr(),
                                                     mobius_.l5, Subset::Odd);
  FEMTO_LOG_DEBUG("autotune",
                  "dwf_solver multi: d=" << to_string(td.dslash.variant)
                                         << "/" << td.dslash.grain << "/B"
                                         << td.nrhs << " f="
                                         << to_string(tf.dslash.variant)
                                         << "/" << tf.dslash.grain << "/B"
                                         << tf.nrhs << "/"
                                         << gauge_format_name(tf.dslash.format)
                                         << ", blas grain "
                                         << sparams_.blas_grain);
  return tf.nrhs;
}

DwfSolver::DwfSolver(std::shared_ptr<const GaugeField<double>> u,
                     MobiusParams params, SolverParams solver_params)
    : mobius_(params),
      sparams_(solver_params),
      u_d_(std::move(u)),
      u_f_(std::make_shared<GaugeField<float>>(u_d_->convert<float>())),
      op_d_(u_d_, mobius_),
      op_f_(u_f_, mobius_) {
  // Honour a caller-selected storage tier for the sloppy operator even
  // when autotune() is never called (the double operator stays full18).
  op_f_.tuning().format = sparams_.gauge_format;
}

std::vector<SolveResult> DwfSolver::solve_batch(
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b, const CgneFn& cgne,
    const char* nonfinite_msg) {
  // solver_params() is mutable: pick up a caller-set gauge_format.
  op_f_.tuning().format = sparams_.gauge_format;
  const std::size_t nb = x.size();
  FEMTO_ASSERT(b.size() == nb);
  if (nb == 0) return {};
  const auto geom = b[0]->geom_ptr();
  const int l5 = b[0]->l5();

  // Source prep stays per RHS (one-time cost); the CGNE right-hand sides
  // Mhat^dag bhat_r batch through the multi Schur operator.
  std::vector<SpinorField<double>> bhat, rhs, y;
  bhat.reserve(nb);
  rhs.reserve(nb);
  y.reserve(nb);
  for (std::size_t r = 0; r < nb; ++r) {
    assert(x[r]->subset() == Subset::Full && b[r]->subset() == Subset::Full);
    bhat.emplace_back(geom, l5, Subset::Odd);
    rhs.emplace_back(geom, l5, Subset::Odd);
    y.emplace_back(geom, l5, Subset::Odd);
    op_d_.prepare_source(bhat.back(), *b[r]);
  }
  std::vector<SpinorField<double>*> rhsp, yp;
  std::vector<const SpinorField<double>*> cbhatp, crhsp;
  for (std::size_t r = 0; r < nb; ++r) {
    rhsp.push_back(&rhs[r]);
    cbhatp.push_back(&bhat[r]);
    crhsp.push_back(&rhs[r]);
    yp.push_back(&y[r]);
  }
  op_d_.apply_schur_multi(rhsp, cbhatp, /*dagger=*/true);

  std::vector<SolveResult> res = cgne(yp, crhsp);
  for (std::size_t r = 0; r < nb; ++r) {
    FEMTO_CHECK(std::isfinite(res[r].final_rel_residual), nonfinite_msg);
    op_d_.reconstruct(*x[r], y[r], *b[r]);
  }
  return res;
}

// The four solves differ only in their CG.  The single-RHS ones run the
// pipeline on a batch of one with the single-RHS solver — itself the
// block solver on a batch of one — so they report as mixed_cg / cg.

SolveResult DwfSolver::solve(SpinorField<double>& x,
                             const SpinorField<double>& b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve");
  SpinorField<double>* xp[1] = {&x};
  const SpinorField<double>* bp[1] = {&b};
  return solve_batch(
      xp, bp,
      [this](std::span<SpinorField<double>* const> y,
             std::span<const SpinorField<double>* const> rhs) {
        return std::vector<SolveResult>{mixed_cg(
            normal_op(op_d_), normal_op(op_f_), *y[0], *rhs[0], sparams_)};
      },
      "DwfSolver::solve: mixed_cg returned a non-finite residual")[0];
}

SolveResult DwfSolver::solve_double(SpinorField<double>& x,
                                    const SpinorField<double>& b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve_double");
  SpinorField<double>* xp[1] = {&x};
  const SpinorField<double>* bp[1] = {&b};
  return solve_batch(
      xp, bp,
      [this](std::span<SpinorField<double>* const> y,
             std::span<const SpinorField<double>* const> rhs) {
        return std::vector<SolveResult>{
            cg<double>(normal_op(op_d_), *y[0], *rhs[0], sparams_.tol,
                       sparams_.max_iter, sparams_.blas_grain)};
      },
      "DwfSolver::solve_double: cg returned a non-finite residual")[0];
}

std::vector<SolveResult> DwfSolver::solve_multi(
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve_multi");
  return solve_batch(
      x, b,
      [this](std::span<SpinorField<double>* const> y,
             std::span<const SpinorField<double>* const> rhs) {
        return block_mixed_cg(normal_multi_op(op_d_), normal_multi_op(op_f_),
                              y, rhs, sparams_);
      },
      "DwfSolver::solve_multi: block_mixed_cg returned a non-finite "
      "residual");
}

std::vector<SolveResult> DwfSolver::solve_multi_double(
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve_multi_double");
  return solve_batch(
      x, b,
      [this](std::span<SpinorField<double>* const> y,
             std::span<const SpinorField<double>* const> rhs) {
        return block_cg<double>(normal_multi_op(op_d_), y, rhs, sparams_.tol,
                                sparams_.max_iter, sparams_.blas_grain);
      },
      "DwfSolver::solve_multi_double: block_cg returned a non-finite "
      "residual");
}

}  // namespace femto
