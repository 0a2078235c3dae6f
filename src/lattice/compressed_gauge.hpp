#pragma once
// Tiered gauge-link storage: QUDA's reconstruct-12 plus 16-bit
// fixed-point links (PAPER.md §1.2).  The dslash is bandwidth-bound, so
// every byte not stored is a byte not streamed:
//
//   format    stored/link          exact?   scheme
//   full18    18 reals             yes      plain GaugeField<T>
//   recon12   12 reals             yes*     rows 0-1; third row is the
//                                           conjugate cross product
//   fixed12   12 int16 + 1 float   no       recon12 quantised to 16-bit
//                                           fixed point with a per-link
//                                           max-abs scale (the spinor
//                                           scheme of solver/half.hpp)
//
// (* exact up to reconstruction rounding on unitary input.)
//
// recon12/fixed12 are only valid on SU(3) links -- under FEMTO_CHECKED,
// store() rejects non-unitary input loudly.  fixed12 is the approximate
// storage tier: solvers use it only where half-precision spinors are
// already allowed (the float inner iterations of mixed CG), never in the
// double reliable updates.
//
// The per-link codecs are free functions shared by the containers below
// and by the distributed gauge-halo wire packer (dirac/distributed.cpp),
// so wire format and storage format cannot drift apart.  GaugeTiers at
// the bottom is the one place that decides which container serves a
// format.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "lattice/field.hpp"
#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {

/// Gauge-link storage tier, threaded from field to solver to tuner.  The
/// ordinals are stable: they appear in femtotune cache keys, in the
/// `dslash.format_{f,d}` gauges (decoded by the femtoscope report), and in
/// SolverParams.  Ordinal 2 belonged to a deleted reconstruct-8 tier and
/// stays unused, so recorded ordinals keep their meaning.
enum class GaugeFormat : int {
  kFull18 = 0,
  kRecon12 = 1,
  kFixed12 = 3,
};

constexpr const char* gauge_format_name(GaugeFormat f) {
  switch (f) {
    case GaugeFormat::kFull18: return "full18";
    case GaugeFormat::kRecon12: return "recon12";
    case GaugeFormat::kFixed12: return "fixed12";
  }
  return "?";
}

/// Reconstruct the third row of an SU(3) matrix from the first two:
/// row2 = conj(row0 x row1).
template <typename T>
constexpr void reconstruct_third_row(ColorMat<T>& u) {
  u(2, 0) = conj(u(0, 1) * u(1, 2) - u(0, 2) * u(1, 1));
  u(2, 1) = conj(u(0, 2) * u(1, 0) - u(0, 0) * u(1, 2));
  u(2, 2) = conj(u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0));
}

/// Number of stored reals per link in reconstruct-12 format.
inline constexpr int kCompressedLinkReals = 12;
/// Number of stored int16 per link in fixed12 format (plus a float scale):
/// one per recon12 real.
inline constexpr int kFixed12LinkInts = kCompressedLinkReals;

namespace detail {
/// |z|^2 under a codec-private name: the femtolint name-based call graph
/// would fuse a call to `norm2` here with blas::norm2 (a kernel
/// launcher), dragging every `store`/`load` caller onto a kernel chain.
template <typename T>
constexpr T cnorm2(const Cplx<T>& z) {
  return z.re * z.re + z.im * z.im;
}
}  // namespace detail

/// ||u adj(u) - 1||_F^2: zero for unitary links.  The reconstruction
/// formulas assume unitarity, so this is the residual the FEMTO_CHECKED
/// store() guards test.
template <typename T>
constexpr T unitarity_residual2(const ColorMat<T>& u) {
  T s{};
  for (int i = 0; i < kNc; ++i)
    for (int j = 0; j < kNc; ++j) {
      Cplx<T> d{};
      for (int k = 0; k < kNc; ++k) d += u(i, k) * conj(u(j, k));
      if (i == j) d.re -= T(1);
      s += detail::cnorm2(d);
    }
  return s;
}

namespace detail {
template <typename T>
constexpr T unitarity_tol2() {
  // norm2-based residual: rounding of an SU(3) product is ~eps per entry.
  return std::is_same_v<T, float> ? T(1e-8) : T(1e-20);
}
#if FEMTO_CHECKED_ENABLED
template <typename T>
inline void check_unitary_link(const ColorMat<T>& u) {
  FEMTO_CHECK(unitarity_residual2(u) < unitarity_tol2<T>(),
              "gauge compression requires SU(3) input links");
}
#else
template <typename T>
inline void check_unitary_link(const ColorMat<T>&) {}
#endif
}  // namespace detail

// ---------------------------------------------------------------------------
// Per-link codecs (shared with the halo wire packer).
// ---------------------------------------------------------------------------

/// recon12: store rows 0-1 as 12 reals.
template <typename T>
constexpr void encode_recon12(const ColorMat<T>& u, T* q) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNc; ++c) {
      q[0] = u(r, c).re;
      q[1] = u(r, c).im;
      q += 2;
    }
}

template <typename T>
constexpr ColorMat<T> decode_recon12(const T* q) {
  ColorMat<T> u;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNc; ++c) {
      u(r, c) = {q[0], q[1]};
      q += 2;
    }
  reconstruct_third_row(u);
  return u;
}

/// fixed12: recon12 reals quantised to int16 with a per-link max-abs float
/// scale, mirroring solver/half.hpp.  Max is exact and the quantise loop
/// is scalar lrintf on purpose, so the stored contents are bitwise
/// SIMD-width-independent.
template <typename T>
inline void encode_fixed12(const ColorMat<T>& u, std::int16_t* q,
                           float* scale) {
  float vals[kFixed12LinkInts];
  int k = 0;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNc; ++c) {
      vals[k++] = static_cast<float>(u(r, c).re);
      vals[k++] = static_cast<float>(u(r, c).im);
    }
  float amax = 0.0f;
  for (int j = 0; j < kFixed12LinkInts; ++j)
    amax = std::max(amax, std::fabs(vals[j]));
  const float s = amax > 0.0f ? amax : 1.0f;
  *scale = s;
  const float inv = 32767.0f / s;
  // Scalar on purpose: lrintf's rounding must be identical at every SIMD
  // width, so the stored int16 never depend on the build.
  for (int j = 0; j < kFixed12LinkInts; ++j)
    q[j] = static_cast<std::int16_t>(std::lrintf(vals[j] * inv));
}

template <typename T>
inline ColorMat<T> decode_fixed12(const std::int16_t* q, float scale) {
  const float s = scale / 32767.0f;
  T vals[kCompressedLinkReals];
  for (int j = 0; j < kFixed12LinkInts; ++j)
    vals[j] = static_cast<T>(static_cast<float>(q[j]) * s);
  return decode_recon12(vals);
}

namespace detail {
/// Links per worker chunk for the parallel compression constructors.
inline constexpr std::size_t kCompressGrain = 1024;

/// Run @p body(link_index) over all 4*volume links on the pool.  Each
/// link writes disjoint storage, so the sweep is deterministic regardless
/// of chunking.  Callers charge the traffic (full read + stored write).
template <typename Body>
inline void compress_sweep(const Geometry& geom, const Body& body) {
  const auto n = static_cast<std::size_t>(4 * geom.volume());
  par::parallel_for_chunked(
      std::size_t{0}, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          body(static_cast<std::int64_t>(i));
      },
      kCompressGrain);
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Containers.  All expose the GaugeField surface the dslash kernels use --
// geom()/geom_ptr()/load()/bytes() -- so the container-generic stencil
// bodies in dirac/wilson.cpp read any tier.  bytes() reports true stored
// bytes, keeping flops::add_bytes charges and the femtoscope AI/GB/s
// derivations honest.
// ---------------------------------------------------------------------------

/// A gauge field stored in reconstruct-12 format.  Drop-in for the dslash
/// via load() (which reconstructs); storage is 2/3 of the full field.
template <typename T>
class CompressedGaugeField {
 public:
  static constexpr GaugeFormat kFormat = GaugeFormat::kRecon12;

  explicit CompressedGaugeField(const GaugeField<T>& full)
      : geom_(full.geom_ptr()) {
    data_.resize(static_cast<std::size_t>(4 * geom_->volume() *
                                          kCompressedLinkReals));
    detail::compress_sweep(*geom_, [&](std::int64_t i) {
      const int mu = static_cast<int>(i / geom_->volume());
      const std::int64_t s = i % geom_->volume();
      store(mu, s, full.load(mu, s));
    });
    flops::add_bytes(full.bytes() + bytes());
  }

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }

  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(T));
  }

  /// Store the first two rows only.
  void store(int mu, std::int64_t site, const ColorMat<T>& u) {
    detail::check_unitary_link(u);
    encode_recon12(u, data_.data() + offset(mu, site));
  }

  /// Load with third-row reconstruction.
  ColorMat<T> load(int mu, std::int64_t site) const {
    return decode_recon12(data_.data() + offset(mu, site));
  }

  /// Expand back to full 18-real storage.
  GaugeField<T> decompress() const {
    GaugeField<T> out(geom_);
    for (int mu = 0; mu < 4; ++mu)
      for (std::int64_t s = 0; s < geom_->volume(); ++s)
        out.store(mu, s, load(mu, s));
    return out;
  }

 private:
  std::int64_t offset(int mu, std::int64_t site) const {
    return (std::int64_t(mu) * geom_->volume() + site) *
           kCompressedLinkReals;
  }

  std::shared_ptr<const Geometry> geom_;
  std::vector<T> data_;
};

/// A gauge field stored in fixed12 format: 12 int16 + one float scale per
/// link (28 bytes).  Approximate (~4.5 decimal digits per real); allowed
/// only where half-precision spinors already are.
template <typename T>
class Fixed12GaugeField {
 public:
  static constexpr GaugeFormat kFormat = GaugeFormat::kFixed12;

  explicit Fixed12GaugeField(const GaugeField<T>& full)
      : geom_(full.geom_ptr()) {
    q_.resize(
        static_cast<std::size_t>(4 * geom_->volume() * kFixed12LinkInts));
    scale_.resize(static_cast<std::size_t>(4 * geom_->volume()));
    detail::compress_sweep(*geom_, [&](std::int64_t i) {
      const int mu = static_cast<int>(i / geom_->volume());
      const std::int64_t s = i % geom_->volume();
      store(mu, s, full.load(mu, s));
    });
    flops::add_bytes(full.bytes() + bytes());
  }

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }

  std::int64_t bytes() const {
    return static_cast<std::int64_t>(q_.size() * sizeof(std::int16_t) +
                                     scale_.size() * sizeof(float));
  }

  void store(int mu, std::int64_t site, const ColorMat<T>& u) {
    detail::check_unitary_link(u);
    const std::int64_t l = link(mu, site);
    encode_fixed12(u, q_.data() + l * kFixed12LinkInts,
                   scale_.data() + l);
  }

  ColorMat<T> load(int mu, std::int64_t site) const {
    const std::int64_t l = link(mu, site);
    return decode_fixed12<T>(q_.data() + l * kFixed12LinkInts,
                             scale_[static_cast<std::size_t>(l)]);
  }

  GaugeField<T> decompress() const {
    GaugeField<T> out(geom_);
    for (int mu = 0; mu < 4; ++mu)
      for (std::int64_t s = 0; s < geom_->volume(); ++s)
        out.store(mu, s, load(mu, s));
    return out;
  }

  /// Raw quantised storage (the width-independence tests compare these
  /// bitwise across builds).
  const std::vector<std::int16_t>& quantised() const { return q_; }
  const std::vector<float>& scales() const { return scale_; }

 private:
  std::int64_t link(int mu, std::int64_t site) const {
    return std::int64_t(mu) * geom_->volume() + site;
  }

  std::shared_ptr<const Geometry> geom_;
  std::vector<std::int16_t> q_;
  std::vector<float> scale_;
};

/// The storage tiers of one gauge field: the full field plus its recon12
/// and fixed12 copies, each compressed on first use and then kept for the
/// holder's lifetime (the links are immutable here).  visit() is the one
/// switch that maps a GaugeFormat to its container; operators and tuners
/// dispatch through it instead of keeping per-tier members.
///
/// Not thread-safe: a first visit of a tier mutates the holder, so one
/// holder serves one caller at a time (the contract of the operators and
/// tunables that own one).
template <typename T>
class GaugeTiers {
 public:
  explicit GaugeTiers(std::shared_ptr<const GaugeField<T>> full)
      : full_(std::move(full)) {}

  const GaugeField<T>& full() const { return *full_; }
  const Geometry& geom() const { return full_->geom(); }
  std::shared_ptr<const Geometry> geom_ptr() const {
    return full_->geom_ptr();
  }

  /// Call @p f with the container serving @p fmt, building it first if
  /// this is the tier's first use.  An ordinal no tier answers to (2, the
  /// deleted reconstruct-8 tier) fails FEMTO_CHECK and is otherwise served
  /// by the full field, the reference every tier approximates.
  template <typename F>
  decltype(auto) visit(GaugeFormat fmt, F&& f) const {
    switch (fmt) {
      case GaugeFormat::kRecon12:
        if (!r12_) r12_ = std::make_unique<CompressedGaugeField<T>>(*full_);
        return f(std::as_const(*r12_));
      case GaugeFormat::kFixed12:
        if (!x12_) x12_ = std::make_unique<Fixed12GaugeField<T>>(*full_);
        return f(std::as_const(*x12_));
      case GaugeFormat::kFull18:
        break;
    }
    FEMTO_CHECK(fmt == GaugeFormat::kFull18, "unknown GaugeFormat ordinal");
    return f(*full_);
  }

 private:
  std::shared_ptr<const GaugeField<T>> full_;
  mutable std::unique_ptr<CompressedGaugeField<T>> r12_;
  mutable std::unique_ptr<Fixed12GaugeField<T>> x12_;
};

}  // namespace femto
