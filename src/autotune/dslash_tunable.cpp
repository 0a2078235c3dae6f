#include "autotune/dslash_tunable.hpp"

#include <sstream>

#include "lattice/flops.hpp"
#include "obs/metrics.hpp"
#include "simd/vec.hpp"

namespace femto::tune {

std::vector<GaugeFormat> format_set_members(FormatSet s) {
  std::vector<GaugeFormat> f = {GaugeFormat::kFull18};
  if (s == FormatSet::kExact || s == FormatSet::kAll)
    f.push_back(GaugeFormat::kRecon12);
  if (s == FormatSet::kAll) f.push_back(GaugeFormat::kFixed12);
  return f;
}

namespace {

/// The stencil knobs of a dslash or dslash_multi candidate.  A parameter
/// without a grain knob runs at the shared stencil grain.
DslashTuning dslash_tuning_of(const TuneParam& p) {
  DslashTuning t;
  t.grain = static_cast<std::size_t>(p.get("grain", kStencilGrain));
  t.variant = static_cast<DslashVariant>(p.get("variant", 0));
  t.format = static_cast<GaugeFormat>(p.get("format", 0));
  return t;
}

}  // namespace

template <typename T>
std::string DslashTunable<T>::key() const {
  std::ostringstream os;
  const auto& d = tiers_.geom();
  // The ISA/width tag keeps femtotune cache entries from a vectorized
  // build out of a scalar (FEMTO_SIMD=OFF) build and vice versa: the
  // variant knob below only means something at the width it was tuned at.
  os << "dslash,vol=" << d.extent(0) << "x" << d.extent(1) << "x"
     << d.extent(2) << "x" << d.extent(3) << ",l5=" << l5_
     << ",parity=" << out_parity_ << ",prec=" << sizeof(T)
     << ",simd=" << simd::kIsaName << "/" << simd::kWidth<T>
     << ",fmt=" << static_cast<int>(formats_);
  return os.str();
}

template <typename T>
std::vector<TuneParam> DslashTunable<T>::candidates() const {
  // Variant is the outer loop (scalar first, so the first candidate is the
  // reference kernel at the smallest grain) and the grain sweep is inner,
  // ending with the whole half-volume in one chunk.  The vector variants
  // only enter the search when the build actually has lanes; at W == 1
  // they are the scalar arithmetic with extra gather overhead.
  std::vector<DslashVariant> variants = {DslashVariant::kScalar};
  if constexpr (simd::kWidth<T> > 1) {
    variants.push_back(DslashVariant::kVector);
    variants.push_back(DslashVariant::kVectorBlocked);
  }
  std::vector<TuneParam> cands;
  const std::int64_t volh = tiers_.geom().half_volume();
  // Format is the outermost axis (full18 first, so the reference kernel on
  // reference storage leads the search); every (format, variant) pair gets
  // the identical grain sweep.
  for (const GaugeFormat f : format_set_members(formats_)) {
    for (const DslashVariant v : variants) {
      std::size_t base = cands.size();
      for (std::int64_t grain = 16; grain <= volh; grain *= 4) {
        TuneParam p;
        p.knobs["format"] = static_cast<std::int64_t>(f);
        p.knobs["variant"] = static_cast<std::int64_t>(v);
        p.knobs["grain"] = grain;
        cands.push_back(p);
      }
      TuneParam whole;
      whole.knobs["format"] = static_cast<std::int64_t>(f);
      whole.knobs["variant"] = static_cast<std::int64_t>(v);
      whole.knobs["grain"] = volh;
      if (cands.size() == base || !(cands.back() == whole))
        cands.push_back(whole);
    }
  }
  return cands;
}

template <typename T>
void DslashTunable<T>::apply(const TuneParam& p) {
  const DslashTuning tune = dslash_tuning_of(p);
  tiers_.visit(tune.format, [&](const auto& u) {
    dslash<T>(view(out_), u, cview(in_), out_parity_, false, tune);
  });
}

template <typename T>
std::int64_t DslashTunable<T>::flops_per_call() const {
  return flops::kWilsonDslashPerSite * tiers_.geom().half_volume() * l5_;
}

template <typename T>
std::int64_t DslashTunable<T>::bytes_per_call() const {
  // Read 8 neighbour spinors + 8 links, write 1 spinor, per site and slice
  // (links re-read per slice in this layout).
  const std::int64_t volh = tiers_.geom().half_volume();
  const std::int64_t spinor = kSpinorReals * sizeof(T);
  const std::int64_t link = kLinkReals * sizeof(T);
  return volh * l5_ * (9 * spinor + 8 * link);
}

template <typename T>
DslashTuning tuned_dslash_grain(std::shared_ptr<const GaugeField<T>> u,
                                int l5, int out_parity, FormatSet formats) {
  DslashTunable<T> tunable(std::move(u), l5, out_parity, formats);
  const TuneEntry& e = Autotuner::global().tune(tunable);
  const DslashTuning t = dslash_tuning_of(e.param);
  // Surface the winners in the femtoscope registry; the run report's simd
  // block decodes the variant and format ordinals (see obs/report.cpp).
  const char* prec = sizeof(T) == 4 ? "f" : "d";
  obs::gauge(std::string("dslash.variant_") + prec)
      .set(static_cast<double>(e.param.get("variant", 0)));
  obs::gauge(std::string("dslash.format_") + prec)
      .set(static_cast<double>(e.param.get("format", 0)));
  obs::gauge(std::string("dslash.gbytes_") + prec).set(e.gbytes);
  return t;
}

template <typename T>
DslashMultiTunable<T>::DslashMultiTunable(
    std::shared_ptr<const GaugeField<T>> u, int l5, int out_parity,
    std::size_t bmax, FormatSet formats)
    : tiers_(std::move(u)),
      l5_(l5),
      out_parity_(out_parity),
      bmax_(bmax),
      formats_(formats) {
  FEMTO_CHECK(bmax_ >= 1, "DslashMultiTunable: bmax must be at least 1");
  const Subset in_sub = out_parity == 0 ? Subset::Odd : Subset::Even;
  const Subset out_sub = out_parity == 0 ? Subset::Even : Subset::Odd;
  in_.reserve(bmax_);
  out_.reserve(bmax_);
  for (std::size_t r = 0; r < bmax_; ++r) {
    in_.emplace_back(tiers_.geom_ptr(), l5, in_sub);
    out_.emplace_back(tiers_.geom_ptr(), l5, out_sub);
    in_.back().gaussian(0xD51A5 + static_cast<std::uint64_t>(r));
  }
}

template <typename T>
std::string DslashMultiTunable<T>::key() const {
  std::ostringstream os;
  const auto& d = tiers_.geom();
  os << "dslash_multi,vol=" << d.extent(0) << "x" << d.extent(1) << "x"
     << d.extent(2) << "x" << d.extent(3) << ",l5=" << l5_
     << ",parity=" << out_parity_ << ",prec=" << sizeof(T)
     << ",bmax=" << bmax_ << ",simd=" << simd::kIsaName << "/"
     << simd::kWidth<T> << ",fmt=" << static_cast<int>(formats_);
  return os.str();
}

template <typename T>
std::vector<TuneParam> DslashMultiTunable<T>::candidates() const {
  std::vector<DslashVariant> variants = {DslashVariant::kScalar};
  if constexpr (simd::kWidth<T> > 1) {
    variants.push_back(DslashVariant::kVector);
    variants.push_back(DslashVariant::kVectorBlocked);
  }
  std::vector<TuneParam> cands;
  const std::int64_t volh = tiers_.geom().half_volume();
  for (const GaugeFormat f : format_set_members(formats_)) {
    for (const DslashVariant v : variants) {
      for (std::size_t nrhs = 1; nrhs <= bmax_; nrhs *= 2) {
        std::size_t base = cands.size();
        for (std::int64_t grain = 16; grain <= volh; grain *= 4) {
          TuneParam p;
          p.knobs["format"] = static_cast<std::int64_t>(f);
          p.knobs["variant"] = static_cast<std::int64_t>(v);
          p.knobs["grain"] = grain;
          p.knobs["nrhs"] = static_cast<std::int64_t>(nrhs);
          cands.push_back(p);
        }
        TuneParam whole;
        whole.knobs["format"] = static_cast<std::int64_t>(f);
        whole.knobs["variant"] = static_cast<std::int64_t>(v);
        whole.knobs["grain"] = volh;
        whole.knobs["nrhs"] = static_cast<std::int64_t>(nrhs);
        if (cands.size() == base || !(cands.back() == whole))
          cands.push_back(whole);
      }
    }
  }
  return cands;
}

template <typename T>
void DslashMultiTunable<T>::apply(const TuneParam& p) {
  const DslashTuning tune = dslash_tuning_of(p);
  const std::size_t nrhs = static_cast<std::size_t>(p.get("nrhs", 1));
  for (std::size_t r0 = 0; r0 < bmax_; r0 += nrhs) {
    const std::size_t nb = std::min(nrhs, bmax_ - r0);
    std::vector<SpinorView<T>> outs;
    std::vector<SpinorView<const T>> ins;
    outs.reserve(nb);
    ins.reserve(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      outs.push_back(view(out_[r0 + i]));
      ins.push_back(cview(in_[r0 + i]));
    }
    tiers_.visit(tune.format, [&](const auto& u) {
      dslash_multi<T>(outs, u, ins, out_parity_, false, tune);
    });
  }
}

template <typename T>
std::int64_t DslashMultiTunable<T>::flops_per_call() const {
  return static_cast<std::int64_t>(bmax_) * flops::kWilsonDslashPerSite *
         tiers_.geom().half_volume() * l5_;
}

template <typename T>
std::int64_t DslashMultiTunable<T>::bytes_per_call() const {
  // Charged with the unamortised (B=1) traffic model so candidate gbytes
  // are comparable across batch sizes: a candidate that amortises link
  // loads shows up as HIGHER effective bandwidth, not lower traffic.
  const std::int64_t volh = tiers_.geom().half_volume();
  const std::int64_t spinor = kSpinorReals * sizeof(T);
  const std::int64_t link = kLinkReals * sizeof(T);
  return static_cast<std::int64_t>(bmax_) * volh * l5_ *
         (9 * spinor + 8 * link);
}

template <typename T>
MultiRhsTuning tuned_multi_rhs(std::shared_ptr<const GaugeField<T>> u,
                               int l5, std::size_t bmax, int out_parity,
                               FormatSet formats) {
  DslashMultiTunable<T> tunable(std::move(u), l5, out_parity, bmax, formats);
  const TuneEntry& e = Autotuner::global().tune(tunable);
  MultiRhsTuning t;
  t.dslash = dslash_tuning_of(e.param);
  t.nrhs = static_cast<std::size_t>(e.param.get("nrhs", 1));
  const char* prec = sizeof(T) == 4 ? "f" : "d";
  obs::gauge(std::string("dslash_multi.nrhs_") + prec)
      .set(static_cast<double>(t.nrhs));
  obs::gauge(std::string("dslash_multi.variant_") + prec)
      .set(static_cast<double>(e.param.get("variant", 0)));
  obs::gauge(std::string("dslash_multi.format_") + prec)
      .set(static_cast<double>(e.param.get("format", 0)));
  obs::gauge(std::string("dslash_multi.gbytes_") + prec).set(e.gbytes);
  return t;
}

template class DslashTunable<double>;
template class DslashTunable<float>;
template DslashTuning tuned_dslash_grain<double>(
    std::shared_ptr<const GaugeField<double>>, int, int, FormatSet);
template DslashTuning tuned_dslash_grain<float>(
    std::shared_ptr<const GaugeField<float>>, int, int, FormatSet);
template class DslashMultiTunable<double>;
template class DslashMultiTunable<float>;
template MultiRhsTuning tuned_multi_rhs<double>(
    std::shared_ptr<const GaugeField<double>>, int, std::size_t, int,
    FormatSet);
template MultiRhsTuning tuned_multi_rhs<float>(
    std::shared_ptr<const GaugeField<float>>, int, std::size_t, int,
    FormatSet);

}  // namespace femto::tune
