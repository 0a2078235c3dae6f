#include "dirac/mobius.hpp"

#include <algorithm>

#include "lattice/blas.hpp"

namespace femto {

namespace {

/// a*I + b*Lambda as a FifthDimOp.
FifthDimOp affine_lambda(int l5, double mf, double a, double b) {
  SMat lp = lambda_plus(l5, mf).scaled(b);
  SMat lm = lambda_minus(l5, mf).scaled(b);
  const SMat id = SMat::identity(l5).scaled(a);
  return {id + lp, id + lm};
}

/// out = in on every slice: one pool launch at the stencil grain, one
/// contiguous copy per (slice, chunk).
template <typename T>
void copy_sites(const SpinorView<T>& out, const SpinorView<const T>& in) {
  assert(out.sites == in.sites && out.l5 == in.l5);
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(out.sites),
      [&](std::size_t lo, std::size_t hi) {
        const auto i = static_cast<std::int64_t>(lo);
        const auto len = static_cast<std::int64_t>(hi - lo) * kSpinorReals;
        for (int s = 0; s < out.l5; ++s)
          std::copy_n(in.data + in.offset(s, i), len,
                      out.data + out.offset(s, i));
      },
      kStencilGrain);
  flops::add_bytes(2 * out.sites * out.l5 * kSpinorReals *
                   static_cast<std::int64_t>(sizeof(T)));
}

}  // namespace

template <typename T>
MobiusOperator<T>::MobiusOperator(std::shared_ptr<const GaugeField<T>> u,
                                  MobiusParams params, DslashTuning tune)
    : tiers_(std::move(u)),
      params_(params),
      tune_(tune),
      tmp_f_(geom_ptr(), params.l5, Subset::Full) {
  const int l5 = params_.l5;
  const double a = 4.0 + params_.m5;
  lambda_ = affine_lambda(l5, params_.mf, 0.0, 1.0);
  b_ = affine_lambda(l5, params_.mf, params_.b5, params_.c5);
  c_ = affine_lambda(l5, params_.mf, params_.b5 * a + 1.0,
                     params_.c5 * a - 1.0);
  cinv_ = c_.inverse();
  bcinv_ = b_ * cinv_;
  bt_ = b_.transpose();
  ct_ = c_.transpose();
  bcinvt_ = bcinv_.transpose();
}

template <typename T>
void MobiusOperator<T>::dslash_fmt(const SpinorView<T>& out,
                                   const SpinorView<const T>& in,
                                   int out_parity, bool dagger) const {
  tiers_.visit(tune_.format, [&](const auto& u) {
    dslash<T>(out, u, in, out_parity, dagger, tune_);
  });
}

template <typename T>
void MobiusOperator<T>::dslash_fmt_multi(
    std::span<const SpinorView<T>> out,
    std::span<const SpinorView<const T>> in, int out_parity,
    bool dagger) const {
  tiers_.visit(tune_.format, [&](const auto& u) {
    dslash_multi<T>(out, u, in, out_parity, dagger, tune_);
  });
}

template <typename T>
void MobiusOperator<T>::wilson_op_fmt(SpinorField<T>& out,
                                      const SpinorField<T>& in,
                                      bool dagger) const {
  tiers_.visit(tune_.format, [&](const auto& u) {
    wilson_op<T>(out, u, in, params_.m5, dagger, tune_);
  });
}

template <typename T>
void MobiusOperator<T>::apply_full(SpinorField<T>& out,
                                   const SpinorField<T>& in,
                                   bool dagger) const {
  assert(out.subset() == Subset::Full && in.subset() == Subset::Full);
  assert(out.l5() == params_.l5 && in.l5() == params_.l5);
  if (!dagger) {
    // out = D_W (B in) + (I - Lambda) in
    b_.apply<T>(view(tmp_f_), view(in));
    wilson_op_fmt(out, tmp_f_, false);
    lambda_.apply<T>(view(tmp_f_), view(in));
    blas::axpy<T>(-1.0, tmp_f_, out);
    blas::axpy<T>(1.0, in, out);
  } else {
    // out = B^T D_W^dag in + (I - Lambda)^T in
    wilson_op_fmt(tmp_f_, in, true);
    bt_.apply<T>(view(out), cview(tmp_f_));
    lambda_.transpose().apply<T>(view(tmp_f_), view(in));
    blas::axpy<T>(-1.0, tmp_f_, out);
    blas::axpy<T>(1.0, in, out);
  }
}

template <typename T>
void MobiusOperator<T>::apply_schur(SpinorField<T>& out,
                                    const SpinorField<T>& in,
                                    bool dagger) const {
  SpinorField<T>* o[1] = {&out};
  const SpinorField<T>* i[1] = {&in};
  apply_schur_multi(o, i, dagger);
}

template <typename T>
void MobiusOperator<T>::apply_normal(SpinorField<T>& out,
                                     const SpinorField<T>& in) const {
  SpinorField<T>* o[1] = {&out};
  const SpinorField<T>* i[1] = {&in};
  apply_normal_multi(o, i);
}

template <typename T>
void MobiusOperator<T>::ensure_multi(std::size_t n) const {
  while (mtmp_e_.size() < n) {
    mtmp_e_.emplace_back(geom_ptr(), params_.l5, Subset::Even);
    mtmp_e2_.emplace_back(geom_ptr(), params_.l5, Subset::Even);
    mtmp_o_.emplace_back(geom_ptr(), params_.l5, Subset::Odd);
    mtmp_mid_.emplace_back(geom_ptr(), params_.l5, Subset::Odd);
  }
}

template <typename T>
void MobiusOperator<T>::apply_schur_multi(
    std::span<SpinorField<T>* const> out,
    std::span<const SpinorField<T>* const> in, bool dagger) const {
  const std::size_t nb = out.size();
  assert(in.size() == nb);
  if (nb == 0) return;
  ensure_multi(nb);
  // Per-stage view batches over the RHS workspaces.
  std::vector<SpinorView<T>> ve, ve2, vo, vout;
  std::vector<SpinorView<const T>> cve, cve2, cvo, cvin;
  std::vector<const SpinorField<T>*> to;
  for (std::size_t r = 0; r < nb; ++r) {
    assert(out[r]->subset() == Subset::Odd && in[r]->subset() == Subset::Odd);
    ve.push_back(view(mtmp_e_[r]));
    ve2.push_back(view(mtmp_e2_[r]));
    vo.push_back(view(mtmp_o_[r]));
    vout.push_back(view(*out[r]));
    cve.push_back(cview(mtmp_e_[r]));
    cve2.push_back(cview(mtmp_e2_[r]));
    cvo.push_back(cview(mtmp_o_[r]));
    cvin.push_back(view(*in[r]));
    to.push_back(&mtmp_o_[r]);
  }
  // Every stage is one launch over the whole batch: the dslash stages load
  // each site's links once for all RHSs, the site-diagonal fifth-dim
  // matvecs and the closing update run over (RHS x site).  Each RHS sees
  // the same per-site arithmetic whatever the batch, so the batch never
  // moves a bit of its answer.
  if (!dagger) {
    // Mhat = C - 1/4 Dslash (B C^-1) Dslash B, applied right to left.
    b_.apply<T>(vo, cvin);
    dslash_fmt_multi(ve, cvo, /*out_parity=*/0, false);
    bcinv_.apply<T>(ve2, cve);
    dslash_fmt_multi(vout, cve2, /*out_parity=*/1, false);
    c_.apply<T>(vo, cvin);
  } else {
    dslash_fmt_multi(ve, cvin, /*out_parity=*/0, true);
    bcinvt_.apply<T>(ve2, cve);
    dslash_fmt_multi(vo, cve2, /*out_parity=*/1, true);
    bt_.apply<T>(vout, cvo);
    ct_.apply<T>(vo, cvin);
  }
  blas::axpby_multi<T>(1.0, to, -0.25, out);
}

template <typename T>
void MobiusOperator<T>::apply_normal_multi(
    std::span<SpinorField<T>* const> out,
    std::span<const SpinorField<T>* const> in) const {
  const std::size_t nb = out.size();
  assert(in.size() == nb);
  if (nb == 0) return;
  ensure_multi(nb);
  std::vector<SpinorField<T>*> mid;
  std::vector<const SpinorField<T>*> cmid;
  for (std::size_t r = 0; r < nb; ++r) {
    mid.push_back(&mtmp_mid_[r]);
    cmid.push_back(&mtmp_mid_[r]);
  }
  apply_schur_multi(mid, in, false);
  apply_schur_multi(out, cmid, true);
}

template <typename T>
void MobiusOperator<T>::prepare_source(SpinorField<T>& bhat_odd,
                                       const SpinorField<T>& b_full) const {
  assert(bhat_odd.subset() == Subset::Odd);
  assert(b_full.subset() == Subset::Full);
  ensure_multi(1);
  SpinorField<T>& tmp_e = mtmp_e_[0];
  SpinorField<T>& tmp_o = mtmp_o_[0];
  // tmp_e = (B C^-1) b_e
  bcinv_.apply<T>(view(tmp_e), parity_view(b_full, 0));
  // bhat = Dslash_oe tmp_e
  dslash_fmt(view(bhat_odd), cview(tmp_e), /*out_parity=*/1, false);
  // bhat = b_o + 1/2 bhat, with the odd half of b copied to tmp_o first.
  copy_sites<T>(view(tmp_o), parity_view(b_full, 1));
  blas::axpby<T>(1.0, tmp_o, 0.5, bhat_odd);
}

template <typename T>
void MobiusOperator<T>::reconstruct(SpinorField<T>& x_full,
                                    const SpinorField<T>& x_odd,
                                    const SpinorField<T>& b_full) const {
  assert(x_full.subset() == Subset::Full && x_odd.subset() == Subset::Odd);
  ensure_multi(1);
  SpinorField<T>& tmp_e = mtmp_e_[0];
  SpinorField<T>& tmp_e2 = mtmp_e2_[0];
  SpinorField<T>& tmp_o = mtmp_o_[0];
  // tmp_o = B x_o ; tmp_e = Dslash_eo tmp_o
  b_.apply<T>(view(tmp_o), view(x_odd));
  dslash_fmt(view(tmp_e), cview(tmp_o), /*out_parity=*/0, false);
  // tmp_e = b_e + 1/2 tmp_e
  copy_sites<T>(view(tmp_e2), parity_view(b_full, 0));
  blas::axpby<T>(1.0, tmp_e2, 0.5, tmp_e);
  // x_e = C^-1 tmp_e
  cinv_.apply<T>(parity_view(x_full, 0), cview(tmp_e));
  // x_o = x_odd
  copy_sites<T>(parity_view(x_full, 1), view(x_odd));
}

template <typename T>
std::int64_t MobiusOperator<T>::flops_per_schur() const {
  const std::int64_t volh = tiers_.geom().half_volume();
  const std::int64_t sites5 = volh * params_.l5;
  // Two dslash passes + three fifth-dim matvecs (B, BC^-1, C) + the axpby.
  return 2 * flops::kWilsonDslashPerSite * sites5 +
         3 * flops::fifth_dim_per_site(params_.l5) * volh + 3 * sites5 * 24;
}

template class MobiusOperator<double>;
template class MobiusOperator<float>;

}  // namespace femto
