#include "dirac/fifth_dim.hpp"

#include "obs/trace.hpp"

namespace femto {

SMat lambda_plus(int l5, double mf) {
  SMat m(l5);
  for (int s = 1; s < l5; ++s) m(s, s - 1) = 1.0;
  m(0, l5 - 1) = -mf;
  return m;
}

SMat lambda_minus(int l5, double mf) {
  SMat m(l5);
  for (int s = 0; s < l5 - 1; ++s) m(s, s + 1) = 1.0;
  m(l5 - 1, 0) = -mf;
  return m;
}

template <typename T>
void FifthDimOp::apply(std::span<const SpinorView<T>> out,
                       std::span<const SpinorView<const T>> in,
                       std::size_t grain) const {
  FEMTO_TRACE_SCOPE("dirac", "fifth_dim_op");
  const std::size_t nb = out.size();
  assert(in.size() == nb);
  if (nb == 0) return;
  const int n = l5();
  assert(n <= kMaxL5);
  const std::int64_t sites = out[0].sites;
  for (std::size_t r = 0; r < nb; ++r) {
    assert(out[r].l5 == n && in[r].l5 == n);
    assert(out[r].sites == sites && in[r].sites == sites);
  }
  const auto usites = static_cast<std::size_t>(sites);

  // Flat index k = r * sites + site; a chunk may straddle RHS boundaries.
  par::parallel_for_chunked(
      0, nb * usites,
      [&](std::size_t lo, std::size_t hi) {
        Spinor<T> buf[kMaxL5];
        for (std::size_t k = lo; k < hi; ++k) {
          const SpinorView<T>& o = out[k / usites];
          const SpinorView<const T>& v = in[k / usites];
          const auto site = static_cast<std::int64_t>(k % usites);
          for (int s = 0; s < n; ++s) buf[s] = v.load(s, site);
          for (int s = 0; s < n; ++s) {
            Spinor<T> acc;
            const double* rp = plus.row(s);
            const double* rm = minus.row(s);
            for (int sp = 0; sp < n; ++sp) {
              const T cp = static_cast<T>(rp[sp]);
              const T cm = static_cast<T>(rm[sp]);
              if (cp != T(0)) {
                for (int c = 0; c < kNc; ++c) {
                  acc[0][c] += cp * buf[sp][0][c];
                  acc[1][c] += cp * buf[sp][1][c];
                }
              }
              if (cm != T(0)) {
                for (int c = 0; c < kNc; ++c) {
                  acc[2][c] += cm * buf[sp][2][c];
                  acc[3][c] += cm * buf[sp][3][c];
                }
              }
            }
            o.store(s, site, acc);
          }
        }
      },
      grain);

  const auto sites_all = static_cast<std::int64_t>(nb) * sites;
  flops::add(flops::fifth_dim_per_site(n) * sites_all);
  // Compulsory traffic: the hopping matrices are L5 x L5 constants held in
  // cache; the field traffic is one read of in and one write of out.
  flops::add_bytes(2 * sites_all * n * kSpinorReals *
                   static_cast<std::int64_t>(sizeof(T)));
}

template void FifthDimOp::apply<double>(
    std::span<const SpinorView<double>>,
    std::span<const SpinorView<const double>>, std::size_t) const;
template void FifthDimOp::apply<float>(
    std::span<const SpinorView<float>>,
    std::span<const SpinorView<const float>>, std::size_t) const;

}  // namespace femto
