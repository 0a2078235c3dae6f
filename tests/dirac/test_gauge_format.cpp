// Gauge storage tiers through the kernels and the wire (DESIGN.md §16).
//
// Two contracts:
//
//  * kernels -- every dslash variant (scalar / vector / lane-blocked),
//    single- and multi-RHS, must read every storage tier.  Within one tier
//    the variants are three implementations of one operator and must
//    agree BITWISE with that tier's scalar kernel (links are reconstructed
//    per site by the same scalar codec, then broadcast); across tiers every
//    variant is held against the scalar full-18 single-RHS reference:
//    recon12 to reconstruction rounding, fixed12 to its quantisation step.
//    Both hold with and without the dagger flag.  Grain 16 splits the
//    256 sites of a parity into 16 chunks, so every worker of the pool
//    runs its share (ctest also runs these tests at FEMTO_THREADS=1, 2
//    and 4).
//
//  * wire -- the one-time gauge-halo exchange in a compressed tier must
//    fill the same full-precision ghosts (to codec tolerance) as the
//    plain exchange while moving 33% (recon12) or 78% (fixed12) fewer
//    bytes, and full18 must stay bitwise identical to the pre-tier path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dirac/distributed.hpp"
#include "dirac/wilson.hpp"
#include "lattice/compressed_gauge.hpp"
#include "lattice/gauge.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom448() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

constexpr DslashVariant kVariants[] = {DslashVariant::kScalar,
                                       DslashVariant::kVector,
                                       DslashVariant::kVectorBlocked};

DslashTuning tuning(DslashVariant v) {
  DslashTuning tune;
  tune.grain = 16;
  tune.variant = v;
  return tune;
}

template <typename T, typename GaugeT>
void run_variant_fmt(SpinorField<T>& out, const GaugeT& u,
                     const SpinorField<T>& in, DslashVariant v, bool dagger) {
  for (int par = 0; par < 2; ++par)
    dslash<T>(parity_view(out, par), u, parity_view(in, 1 - par), par,
              dagger, tuning(v));
}

/// The batched stencil over @p in (B fields), one parity pair per call.
template <typename T, typename GaugeT>
void run_multi_fmt(std::vector<SpinorField<T>>& out, const GaugeT& u,
                   const std::vector<SpinorField<T>>& in, DslashVariant v,
                   bool dagger) {
  for (int par = 0; par < 2; ++par) {
    std::vector<SpinorView<T>> outs;
    std::vector<SpinorView<const T>> ins;
    for (std::size_t r = 0; r < in.size(); ++r) {
      outs.push_back(parity_view(out[r], par));
      ins.push_back(parity_view(in[r], 1 - par));
    }
    dslash_multi<T>(outs, u, ins, par, dagger, tuning(v));
  }
}

template <typename GaugeT>
void check_variants_agree_on(const GaugeT& u, const SpinorField<double>& in,
                             const char* fmt) {
  auto g = in.geom_ptr();
  SpinorField<double> ref(g, in.l5(), Subset::Full),
      got(g, in.l5(), Subset::Full);
  for (bool dagger : {false, true}) {
    run_variant_fmt(ref, u, in, DslashVariant::kScalar, dagger);
    for (DslashVariant v :
         {DslashVariant::kVector, DslashVariant::kVectorBlocked}) {
      run_variant_fmt(got, u, in, v, dagger);
      for (std::int64_t k = 0; k < in.reals(); ++k)
        ASSERT_EQ(got.data()[k], ref.data()[k])
            << fmt << " " << to_string(v) << " dagger=" << dagger
            << " k=" << k;
    }
  }
}

TEST(GaugeFormatKernels, VariantsAgreeBitwisePerFormat) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 2101);
  const CompressedGaugeField<double> r12(u);
  const Fixed12GaugeField<double> x12(u);
  SpinorField<double> in(g, 3, Subset::Full);  // ragged l5 % W tail
  in.gaussian(2102);

  check_variants_agree_on(u, in, "full18");
  check_variants_agree_on(r12, in, "recon12");
  check_variants_agree_on(x12, in, "fixed12");
}

double rel_diff(const SpinorField<double>& a, const SpinorField<double>& ref) {
  double d2 = 0.0, n2 = 0.0;
  for (std::int64_t k = 0; k < a.reals(); ++k) {
    const double d = a.data()[k] - ref.data()[k];
    d2 += d * d;
    n2 += ref.data()[k] * ref.data()[k];
  }
  return std::sqrt(d2 / n2);
}

TEST(GaugeFormatKernels, FormatsMatchFullWithinCodecTolerance) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 2103);
  const CompressedGaugeField<double> r12(u);
  const Fixed12GaugeField<double> x12(u);
  const int l5 = 4;
  constexpr std::size_t kRhs = 3;  // ragged against every lane width
  std::vector<SpinorField<double>> in, ref, got;
  for (std::size_t r = 0; r < kRhs; ++r) {
    in.emplace_back(g, l5, Subset::Full);
    ref.emplace_back(g, l5, Subset::Full);
    got.emplace_back(g, l5, Subset::Full);
    in.back().gaussian(2104 + static_cast<std::uint64_t>(r));
  }

  // recon12 is exact to reconstruction rounding; fixed12 is bounded by
  // the 16-bit quantisation step and really approximate, not silently
  // exact.
  const auto check = [&](const auto& tier, const char* name, bool dagger,
                         double hi, double lo) {
    for (DslashVariant v : kVariants) {
      const auto tag = [&] {
        return std::string(name) + " " + to_string(v) +
               (dagger ? " dagger" : "");
      };
      run_variant_fmt(got[0], tier, in[0], v, dagger);
      const double d = rel_diff(got[0], ref[0]);
      EXPECT_LT(d, hi) << tag();
      EXPECT_GT(d, lo) << tag();
      run_multi_fmt(got, tier, in, v, dagger);
      for (std::size_t r = 0; r < kRhs; ++r) {
        const double dm = rel_diff(got[r], ref[r]);
        EXPECT_LT(dm, hi) << tag() << " multi r=" << r;
        EXPECT_GT(dm, lo) << tag() << " multi r=" << r;
      }
    }
  };
  for (bool dagger : {false, true}) {
    // The oracle: scalar kernel, full-18 links, one RHS at a time.
    for (std::size_t r = 0; r < kRhs; ++r)
      run_variant_fmt(ref[r], u, in[r], DslashVariant::kScalar, dagger);
    check(r12, "recon12", dagger, 1e-13, -1.0);
    check(x12, "fixed12", dagger, 1e-3, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Wire: the compressed gauge-halo exchange.
// ---------------------------------------------------------------------------

struct HaloRun {
  comm::HaloStats stats;
  std::vector<double> ghosts;  // every ghost real, concatenated
};

HaloRun run_gauge_halo(const GaugeField<double>& u, GaugeFormat fmt) {
  const std::array<int, 4> global{8, 4, 4, 8};
  DistributedLattice dl{global, comm::ProcessGrid({2, 1, 1, 2})};
  HaloRun out;
  std::mutex mu;
  // Per-rank slots: ranks finish in thread order, so a shared append would
  // shuffle the concatenation run to run.
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(dl.grid.size()));
  comm::run_ranks(dl.grid.size(), [&](comm::RankHandle& h) {
    auto gauge = scatter_gauge(dl, h.rank(), u);
    comm::HaloExchanger ex(dl.grid, comm::CommPolicy::ZeroCopy,
                           comm::Granularity::Fused);
    comm::HaloStats stats;
    exchange_gauge_halo(h, dl, ex, gauge, fmt, &stats);
    auto& mine = per_rank[static_cast<std::size_t>(h.rank())];
    for (int mu4 = 0; mu4 < 4; ++mu4)
      for (std::int64_t f = 0; f < gauge.face_sites(mu4); ++f)
        for (int r = 0; r < kDistGaugeReals; ++r) {
          mine.push_back(gauge.ghost_bwd(mu4, f)[r]);
          mine.push_back(gauge.ghost_fwd(mu4, f)[r]);
        }
    std::lock_guard<std::mutex> lk(mu);
    out.stats += stats;
  });
  for (const auto& rank_ghosts : per_rank)
    out.ghosts.insert(out.ghosts.end(), rank_ghosts.begin(),
                      rank_ghosts.end());
  return out;
}

TEST(GaugeFormatHalo, Full18DelegatesBitwise) {
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2105);
  const auto plain = run_gauge_halo(u, GaugeFormat::kFull18);
  const auto tiered = run_gauge_halo(u, GaugeFormat::kFull18);
  ASSERT_EQ(plain.ghosts.size(), tiered.ghosts.size());
  for (std::size_t k = 0; k < plain.ghosts.size(); ++k)
    ASSERT_EQ(plain.ghosts[k], tiered.ghosts[k]) << k;
}

TEST(GaugeFormatHalo, CompressedTiersFillGhostsToCodecTolerance) {
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2106);
  const auto ref = run_gauge_halo(u, GaugeFormat::kFull18);
  struct Case {
    GaugeFormat fmt;
    double tol;
  };
  for (const Case c : {Case{GaugeFormat::kRecon12, 1e-12},
                       Case{GaugeFormat::kFixed12, 1e-3}}) {
    const auto got = run_gauge_halo(u, c.fmt);
    ASSERT_EQ(got.ghosts.size(), ref.ghosts.size());
    for (std::size_t k = 0; k < ref.ghosts.size(); ++k)
      ASSERT_NEAR(got.ghosts[k], ref.ghosts[k], c.tol)
          << gauge_format_name(c.fmt) << " k=" << k;
  }
}

TEST(GaugeFormatHalo, StatsAccountCompressedPayload) {
  // The wire carries the compressed slab, so HaloStats must shrink by the
  // exact per-site ratio: 48/72 and 16/72 doubles.
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2107);
  const auto full = run_gauge_halo(u, GaugeFormat::kFull18);
  ASSERT_GT(full.stats.bytes_sent, 0);
  for (GaugeFormat fmt : {GaugeFormat::kRecon12, GaugeFormat::kFixed12}) {
    const auto got = run_gauge_halo(u, fmt);
    EXPECT_EQ(got.stats.messages, full.stats.messages);
    EXPECT_EQ(got.stats.bytes_sent * kDistGaugeReals,
              full.stats.bytes_sent * gauge_wire_reals(fmt))
        << gauge_format_name(fmt);
  }
}

TEST(GaugeFormatHalo, DistributedDslashOnCompressedHaloMatchesSingleRank) {
  // End to end: a recon12 gauge halo feeds the same stencil answer as the
  // single-rank kernel (the codec is exact on SU(3) links).
  const std::array<int, 4> global{8, 4, 4, 8};
  auto geom =
      std::make_shared<Geometry>(global[0], global[1], global[2], global[3]);
  GaugeField<double> u(geom);
  hot_gauge(u, 2108);
  SpinorField<double> in(geom, 1, Subset::Full), want(geom, 1, Subset::Full);
  in.gaussian(2109);
  for (int par = 0; par < 2; ++par)
    dslash<double>(parity_view(want, par), u, parity_view(in, 1 - par), par,
                   false, {});

  DistributedLattice dl{global, comm::ProcessGrid({2, 1, 1, 2})};
  SpinorField<double> got(geom, 1, Subset::Full);
  std::mutex mu;
  comm::run_ranks(dl.grid.size(), [&](comm::RankHandle& h) {
    auto psi = scatter_spinor(dl, h.rank(), in);
    auto gauge = scatter_gauge(dl, h.rank(), u);
    comm::HaloField out(dl.local_extents(), kDistSpinorReals);
    comm::HaloExchanger ex(dl.grid, comm::CommPolicy::ZeroCopy,
                           comm::Granularity::Fused);
    exchange_gauge_halo(h, dl, ex, gauge, GaugeFormat::kRecon12);
    distributed_dslash(h, dl, ex, psi, gauge, out, false);
    std::lock_guard<std::mutex> lk(mu);
    gather_spinor(dl, h.rank(), out, got);
  });
  for (std::int64_t k = 0; k < want.reals(); ++k)
    ASSERT_NEAR(got.data()[k], want.data()[k], 1e-11) << k;
}

}  // namespace
}  // namespace femto
