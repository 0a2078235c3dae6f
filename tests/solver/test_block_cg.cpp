// Block solver contract: solving B right-hand sides together must give,
// for every RHS, the SAME iterates the single-RHS solver produces — same
// iteration count, same residual history, bitwise-identical solution.
// Batching is a bandwidth optimisation, never a numerics change; this is
// what makes the solve service deterministic under any queue timing.

#include "solver/block_cg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dirac/mobius.hpp"
#include "lattice/gauge.hpp"
#include "solver/cg.hpp"
#include "solver/dwf_solve.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

const MobiusParams kParams{6, -1.8, 1.5, 0.5, 0.1};

std::shared_ptr<const GaugeField<double>> make_gauge(std::uint64_t seed) {
  auto u = std::make_shared<GaugeField<double>>(geom44());
  weak_gauge(*u, seed, 0.25);
  return u;
}

/// Textbook CG on the single-RHS BLAS kernels at their default grain: the
/// oracle for cg(), whose own body is block_cg on a batch of one.  A
/// nonzero x is a warm start.  Returns the iteration count and the final
/// |r|/|b|.
template <typename T>
std::pair<int, double> textbook_cg(const ApplyFn<T>& a, SpinorField<T>& x,
                                   const SpinorField<T>& b, double tol,
                                   int max_iter) {
  SpinorField<T> r = b;
  SpinorField<T> ap(b.geom_ptr(), b.l5(), b.subset());
  const double b2 = blas::norm2(b);
  double rsq = b2;
  if (blas::norm2(x) > 0.0) {
    a(ap, x);
    rsq = blas::axpy_norm2<T>(-1.0, ap, r);
  }
  SpinorField<T> p = r;
  int iterations = 0;
  while (iterations < max_iter && rsq > tol * tol * b2) {
    a(ap, p);
    ++iterations;
    const double alpha = rsq / blas::redot(p, ap);
    const double rsq_new = blas::axpy_norm2<T>(-alpha, ap, r);
    blas::axpy_zpbx<T>(alpha, p, x, r, rsq_new / rsq);  // x, then p
    rsq = rsq_new;
  }
  return {iterations, std::sqrt(rsq / b2)};
}

template <typename T>
void check_cg_matches_textbook(double tol) {
  auto ud = make_gauge(216);
  auto u = std::make_shared<const GaugeField<T>>(ud->template convert<T>());
  MobiusOperator<T> op(u, kParams);
  ApplyFn<T> a = [&](SpinorField<T>& out, const SpinorField<T>& in) {
    op.apply_normal(out, in);
  };
  for (bool warm : {false, true}) {
    SpinorField<T> b(u->geom_ptr(), kParams.l5, Subset::Odd),
        xo(u->geom_ptr(), kParams.l5, Subset::Odd),
        xc(u->geom_ptr(), kParams.l5, Subset::Odd);
    b.gaussian(350);
    if (warm) {
      xo.gaussian(351);
      blas::copy(xc, xo);
    }
    const auto [iterations, rel] = textbook_cg<T>(a, xo, b, tol, 400);
    const SolveResult res = cg<T>(a, xc, b, tol, 400);
    EXPECT_EQ(res.iterations, iterations) << "warm=" << warm;
    EXPECT_EQ(res.final_rel_residual, rel) << "warm=" << warm;
    EXPECT_EQ(res.converged, rel <= tol) << "warm=" << warm;
    for (std::int64_t k = 0; k < b.reals(); ++k)
      ASSERT_EQ(xc.data()[k], xo.data()[k]) << "warm=" << warm << " k=" << k;
  }
}

TEST(BlockCg, CgMatchesTextbookOracleDouble) {
  check_cg_matches_textbook<double>(1e-8);
}

TEST(BlockCg, CgMatchesTextbookOracleFloat) {
  check_cg_matches_textbook<float>(1e-5);
}

TEST(BlockCg, PerRhsMatchesSingleRhsCgBitwise) {
  auto u = make_gauge(211);
  MobiusOperator<double> op(u, kParams);

  const std::size_t nrhs = 3;
  std::vector<SpinorField<double>> b, xs, xb;
  for (std::size_t r = 0; r < nrhs; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    xs.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    xb.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    // Different scales per RHS so iteration counts can differ and the
    // shrinking active set is exercised.
    b.back().gaussian(300 + static_cast<std::uint64_t>(r));
    if (r == 1) blas::scal(1e-3, b.back());
  }

  ApplyFn<double> a1 = [&](SpinorField<double>& out,
                           const SpinorField<double>& in) {
    op.apply_normal(out, in);
  };
  MultiApplyFn<double> am =
      [&](std::span<SpinorField<double>* const> out,
          std::span<const SpinorField<double>* const> in) {
        op.apply_normal_multi(out, in);
      };

  std::vector<SolveResult> single;
  for (std::size_t r = 0; r < nrhs; ++r)
    single.push_back(cg<double>(a1, xs[r], b[r], 1e-8, 400));

  std::vector<SpinorField<double>*> xp;
  std::vector<const SpinorField<double>*> bp;
  for (std::size_t r = 0; r < nrhs; ++r) {
    xp.push_back(&xb[r]);
    bp.push_back(&b[r]);
  }
  std::vector<SolveResult> block = block_cg<double>(am, xp, bp, 1e-8, 400);

  ASSERT_EQ(block.size(), nrhs);
  for (std::size_t r = 0; r < nrhs; ++r) {
    EXPECT_TRUE(block[r].converged) << "r=" << r;
    EXPECT_EQ(block[r].iterations, single[r].iterations) << "r=" << r;
    EXPECT_EQ(block[r].final_rel_residual, single[r].final_rel_residual)
        << "r=" << r;
    for (std::int64_t k = 0; k < b[r].reals(); ++k)
      ASSERT_EQ(xb[r].data()[k], xs[r].data()[k]) << "r=" << r << " k=" << k;
  }
}

TEST(BlockCg, IndependentOfBatchComposition) {
  // Solving b0 alone and solving it inside a batch of three must give the
  // same trajectory: batch-mates must not perturb each other.
  auto u = make_gauge(212);
  MobiusOperator<double> op(u, kParams);
  MultiApplyFn<double> am =
      [&](std::span<SpinorField<double>* const> out,
          std::span<const SpinorField<double>* const> in) {
        op.apply_normal_multi(out, in);
      };

  std::vector<SpinorField<double>> b, x3, x1;
  for (std::size_t r = 0; r < 3; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    x3.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    b.back().gaussian(310 + static_cast<std::uint64_t>(r));
  }
  x1.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);

  std::vector<SpinorField<double>*> xp3;
  std::vector<const SpinorField<double>*> bp3;
  for (std::size_t r = 0; r < 3; ++r) {
    xp3.push_back(&x3[r]);
    bp3.push_back(&b[r]);
  }
  auto res3 = block_cg<double>(am, xp3, bp3, 1e-8, 400);

  SpinorField<double>* xp1[] = {&x1[0]};
  const SpinorField<double>* bp1[] = {&b[0]};
  auto res1 = block_cg<double>(am, xp1, bp1, 1e-8, 400);

  EXPECT_EQ(res3[0].iterations, res1[0].iterations);
  EXPECT_EQ(res3[0].final_rel_residual, res1[0].final_rel_residual);
  for (std::int64_t k = 0; k < b[0].reals(); ++k)
    ASSERT_EQ(x3[0].data()[k], x1[0].data()[k]) << "k=" << k;
}

TEST(BlockCg, WarmStartMatchesSingle) {
  auto u = make_gauge(213);
  MobiusOperator<double> op(u, kParams);
  ApplyFn<double> a1 = [&](SpinorField<double>& out,
                           const SpinorField<double>& in) {
    op.apply_normal(out, in);
  };
  MultiApplyFn<double> am =
      [&](std::span<SpinorField<double>* const> out,
          std::span<const SpinorField<double>* const> in) {
        op.apply_normal_multi(out, in);
      };
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Odd),
      xs(u->geom_ptr(), kParams.l5, Subset::Odd),
      xb(u->geom_ptr(), kParams.l5, Subset::Odd);
  b.gaussian(321);
  xs.gaussian(322);  // warm start
  blas::copy(xb, xs);

  auto rs = cg<double>(a1, xs, b, 1e-8, 400);
  SpinorField<double>* xp[] = {&xb};
  const SpinorField<double>* bp[] = {&b};
  auto rb = block_cg<double>(am, xp, bp, 1e-8, 400);
  EXPECT_EQ(rb[0].iterations, rs.iterations);
  for (std::int64_t k = 0; k < b.reals(); ++k)
    ASSERT_EQ(xb.data()[k], xs.data()[k]) << "k=" << k;
}

TEST(BlockMixedCg, SolveMultiMatchesSolveExactly) {
  // The full pipeline: DwfSolver::solve_multi per-RHS must reproduce
  // DwfSolver::solve bitwise — reliable updates, half-precision round
  // trips and all.
  auto u = make_gauge(214);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);

  const std::size_t nrhs = 3;
  std::vector<SpinorField<double>> b, xs, xb;
  for (std::size_t r = 0; r < nrhs; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    xs.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    xb.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    b.back().gaussian(330 + static_cast<std::uint64_t>(r));
  }

  std::vector<SolveResult> single;
  for (std::size_t r = 0; r < nrhs; ++r)
    single.push_back(solver.solve(xs[r], b[r]));

  std::vector<SpinorField<double>*> xp;
  std::vector<const SpinorField<double>*> bp;
  for (std::size_t r = 0; r < nrhs; ++r) {
    xp.push_back(&xb[r]);
    bp.push_back(&b[r]);
  }
  std::vector<SolveResult> block = solver.solve_multi(xp, bp);

  for (std::size_t r = 0; r < nrhs; ++r) {
    ASSERT_TRUE(block[r].converged) << "r=" << r;
    EXPECT_EQ(block[r].iterations, single[r].iterations) << "r=" << r;
    EXPECT_EQ(block[r].reliable_updates, single[r].reliable_updates)
        << "r=" << r;
    EXPECT_EQ(block[r].final_rel_residual, single[r].final_rel_residual)
        << "r=" << r;
    for (std::int64_t k = 0; k < b[r].reals(); ++k)
      ASSERT_EQ(xb[r].data()[k], xs[r].data()[k]) << "r=" << r << " k=" << k;
  }
}

TEST(BlockMixedCg, SolveMultiDoubleMatchesSolveDouble) {
  auto u = make_gauge(215);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);

  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      xs(u->geom_ptr(), kParams.l5, Subset::Full),
      xb(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(340);

  auto rs = solver.solve_double(xs, b);
  SpinorField<double>* xp[] = {&xb};
  const SpinorField<double>* bp[] = {&b};
  auto rb = solver.solve_multi_double(xp, bp);
  ASSERT_TRUE(rb[0].converged);
  EXPECT_EQ(rb[0].iterations, rs.iterations);
  for (std::int64_t k = 0; k < b.reals(); ++k)
    ASSERT_EQ(xb.data()[k], xs.data()[k]) << "k=" << k;
}

}  // namespace
}  // namespace femto
