#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "lattice/blas.hpp"

namespace femtobench {

namespace {

// NOTES.md records why the benchmark carries each workload.
constexpr Workload kWorkloads[] = {
    {"solve_half", 6, 12, femto::Precision::Half, false, false, 9},
    {"service_burst_single", 4, 8, femto::Precision::Single, false, true, 25},
    {"tuned_solve_half", 6, 12, femto::Precision::Half, true, false, 3},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

femto::SolverParams solver_params(const Workload& w) {
  femto::SolverParams sp;
  sp.tol = kTol;
  sp.max_iter = kMaxIter;
  sp.sloppy = w.sloppy;
  return sp;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const femto::SpinorField<double>& x) {
  std::uint64_t h = 1469598103934665603ull;
  const double* d = x.data();
  const auto n = static_cast<std::size_t>(x.reals());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, d + i, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

double true_residual(const femto::MobiusOperator<double>& d,
                     const femto::SpinorField<double>& x,
                     const femto::SpinorField<double>& b) {
  femto::SpinorField<double> r(b.geom_ptr(), b.l5(), femto::Subset::Full);
  d.apply_full(r, x);
  femto::blas::axpy(-1.0, b, r);
  return std::sqrt(femto::blas::norm2(r) / femto::blas::norm2(b));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::label(const std::string& name, const std::string& value) {
  labels_.emplace_back(name, value);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

std::string Report::json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
           "\"}";
  }
  out += "}, \"labels\": {";
  for (std::size_t i = 0; i < labels_.size(); ++i)
    out += (i ? ", \"" : "\"") + json_escape(labels_[i].first) + "\": \"" +
           json_escape(labels_[i].second) + "\"";
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out += std::string(i ? ", " : "") + "{\"name\": \"" +
           json_escape(c.name) + "\", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": \"" + json_escape(c.detail) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace femtobench
