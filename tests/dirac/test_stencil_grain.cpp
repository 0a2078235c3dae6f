// Launch sizing of the non-reducing stencil kernels at small volume.
//
// With default tuning, the dslash, the batched dslash and the fifth-dim
// matvecs run at kStencilGrain 4D sites per chunk, so one parity of a
// 4^3x8 lattice (256 sites) must split across the pool: each call raises
// the pool.launches counter whenever the pool has two or more workers,
// instead of running inline on the caller.  The output must match the
// one-chunk run bit for bit; a grain of the whole parity makes the pool
// run the body inline on the caller, which is exactly what a 1-worker
// pool runs.  The batched Schur operator makes one launch per stage
// whatever the batch, and each RHS matches apply_schur bit for bit.  ctest
// also registers these tests at FEMTO_THREADS=1, 2, 4.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dirac/fifth_dim.hpp"
#include "dirac/mobius.hpp"
#include "dirac/wilson.hpp"
#include "lattice/gauge.hpp"
#include "obs/metrics.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom448() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

std::int64_t launches() { return obs::counter("pool.launches").get(); }

/// Checks the launch count of @p run: at least one pool launch when the
/// pool has a second worker, none (inline) otherwise.
template <typename Fn>
void expect_pool_launch(Fn run, const char* what) {
  const std::int64_t before = launches();
  run();
  const std::int64_t made = launches() - before;
  if (par::ThreadPool::global().size() >= 2)
    EXPECT_GT(made, 0) << what << " ran inline on the caller";
  else
    EXPECT_EQ(made, 0) << what;
}

void expect_bitwise(const SpinorField<double>& got,
                    const SpinorField<double>& want, const char* what) {
  for (std::int64_t k = 0; k < want.reals(); ++k)
    ASSERT_EQ(got.data()[k], want.data()[k]) << what << " k=" << k;
}

TEST(StencilGrain, SplitsSmallParityAcrossPool) {
  static_assert(kStencilGrain <= 64, "256 sites must give >= 4 chunks");
  EXPECT_GE(geom448()->half_volume() / std::int64_t{kStencilGrain}, 4);
  EXPECT_EQ(DslashTuning{}.grain, kStencilGrain);
}

TEST(StencilGrain, DslashLaunchesAcrossPool) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 4401);
  const int l5 = 4;
  SpinorField<double> in(g, l5, Subset::Full), got(g, l5, Subset::Full),
      want(g, l5, Subset::Full);
  in.gaussian(4402);
  DslashTuning one_chunk;
  one_chunk.grain = static_cast<std::size_t>(g->half_volume());
  for (bool dagger : {false, true})
    for (int par = 0; par < 2; ++par) {
      dslash<double>(parity_view(want, par), u, parity_view(in, 1 - par),
                     par, dagger, one_chunk);
      expect_pool_launch(
          [&] {
            dslash<double>(parity_view(got, par), u,
                           parity_view(in, 1 - par), par, dagger);
          },
          "dslash");
    }
  expect_bitwise(got, want, "dslash");
}

TEST(StencilGrain, DslashMultiLaunchesAcrossPool) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 4403);
  const int l5 = 4;
  constexpr std::size_t kRhs = 3;
  std::vector<SpinorField<double>> in, got, want;
  for (std::size_t r = 0; r < kRhs; ++r) {
    in.emplace_back(g, l5, Subset::Full);
    got.emplace_back(g, l5, Subset::Full);
    want.emplace_back(g, l5, Subset::Full);
    in.back().gaussian(4404 + r);
  }
  DslashTuning one_chunk;
  one_chunk.grain = static_cast<std::size_t>(g->half_volume());
  for (bool dagger : {false, true})
    for (int par = 0; par < 2; ++par) {
      std::vector<SpinorView<double>> outs, wants;
      std::vector<SpinorView<const double>> ins;
      for (std::size_t r = 0; r < kRhs; ++r) {
        outs.push_back(parity_view(got[r], par));
        wants.push_back(parity_view(want[r], par));
        ins.push_back(parity_view(in[r], 1 - par));
      }
      dslash_multi<double>(wants, u, ins, par, dagger, one_chunk);
      expect_pool_launch(
          [&] { dslash_multi<double>(outs, u, ins, par, dagger); },
          "dslash_multi");
    }
  for (std::size_t r = 0; r < kRhs; ++r)
    expect_bitwise(got[r], want[r], "dslash_multi");
}

TEST(StencilGrain, FifthDimApplyLaunchesAcrossPool) {
  auto g = geom448();
  const int l5 = 8;
  constexpr std::size_t kRhs = 2;
  const FifthDimOp op{lambda_plus(l5, 0.1).scaled(0.5) + SMat::identity(l5),
                      lambda_minus(l5, 0.1).scaled(0.5) + SMat::identity(l5)};
  std::vector<SpinorField<double>> in, got, want;
  for (std::size_t r = 0; r < kRhs; ++r) {
    in.emplace_back(g, l5, Subset::Odd);
    got.emplace_back(g, l5, Subset::Odd);
    want.emplace_back(g, l5, Subset::Odd);
    in.back().gaussian(4406 + r);
  }
  const auto sites = static_cast<std::size_t>(g->half_volume());
  for (std::size_t r = 0; r < kRhs; ++r)
    op.apply<double>(view(want[r]), cview(in[r]), /*grain=*/sites);

  expect_pool_launch([&] { op.apply<double>(view(got[0]), cview(in[0])); },
                     "FifthDimOp::apply");
  expect_bitwise(got[0], want[0], "FifthDimOp::apply");

  // The batched form: one launch over (RHS x site), every RHS bitwise.
  for (auto& f : got) f.zero();
  std::vector<SpinorView<double>> outs;
  std::vector<SpinorView<const double>> ins;
  for (std::size_t r = 0; r < kRhs; ++r) {
    outs.push_back(view(got[r]));
    ins.push_back(cview(in[r]));
  }
  const std::int64_t before = launches();
  op.apply<double>(outs, ins);
  const std::int64_t made = launches() - before;
  EXPECT_LE(made, 1) << "the batch must share one launch";
  if (par::ThreadPool::global().size() >= 2) {
    EXPECT_EQ(made, 1);
  }
  for (std::size_t r = 0; r < kRhs; ++r)
    expect_bitwise(got[r], want[r], "batched FifthDimOp::apply");
}

TEST(StencilGrain, SchurMultiMakesOneLaunchPerStage) {
  auto g = geom448();
  auto u = std::make_shared<GaugeField<double>>(g);
  hot_gauge(*u, 4408);
  const MobiusParams params{8, -1.8, 1.5, 0.5, 0.05};
  MobiusOperator<double> op(u, params);
  constexpr std::size_t kRhs = 3;
  std::vector<SpinorField<double>> in, got, want;
  for (std::size_t r = 0; r < kRhs; ++r) {
    in.emplace_back(g, params.l5, Subset::Odd);
    got.emplace_back(g, params.l5, Subset::Odd);
    want.emplace_back(g, params.l5, Subset::Odd);
    in.back().gaussian(4409 + r);
  }
  const auto normal_multi_launches = [&](std::size_t nb) {
    std::vector<SpinorField<double>*> outs;
    std::vector<const SpinorField<double>*> ins;
    for (std::size_t r = 0; r < nb; ++r) {
      outs.push_back(&got[r]);
      ins.push_back(&in[r]);
    }
    const std::int64_t before = launches();
    op.apply_normal_multi(outs, ins);
    return launches() - before;
  };
  const std::int64_t one = normal_multi_launches(1);
  EXPECT_EQ(normal_multi_launches(kRhs), one);
  // Per Schur half: B, dslash, BC^-1, dslash, C and the closing update.
  if (par::ThreadPool::global().size() >= 2) {
    EXPECT_EQ(one, 12);
  }

  for (std::size_t r = 0; r < kRhs; ++r) op.apply_normal(want[r], in[r]);
  for (std::size_t r = 0; r < kRhs; ++r)
    expect_bitwise(got[r], want[r], "apply_normal_multi");
}

}  // namespace
}  // namespace femto
