#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <limits>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

Tail tail_latency(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    t.value = v.back();
    return t;
  }
  const std::size_t idx = v.size() - 11;  // exactly ten samples beyond it
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  t.is_max = false;
  return t;
}

std::string describe(const Tail& t) {
  char buf[160];
  if (t.is_max)
    std::snprintf(buf, sizeof(buf),
                  "maximum of %zu samples (fewer than 11: no percentile has ten beyond it)",
                  t.samples);
  else
    std::snprintf(buf, sizeof(buf), "p%.2f of %zu samples (ten beyond it)", t.percentile,
                  t.samples);
  return buf;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Digest::add(const pe::poly::PolynomialSystem& sys) {
  add(std::uint64_t{sys.dimension()});
  for (const auto& p : sys.polynomials()) {
    add(std::uint64_t{p.num_monomials()});
    for (const auto& mono : p.monomials()) {
      add(mono.coefficient());
      for (const auto& f : mono.factors()) add((std::uint64_t{f.var} << 32) | f.exp);
    }
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double QdResidual::residual(std::span<const pe::cplx::Complex<double>> z) const {
  using CQ = pe::cplx::Complex<QD>;
  const std::size_t n = degrees_.size();
  if (z.size() != n + 1) return std::numeric_limits<double>::infinity();
  const CQ zn = CQ::from_double(z[n]);
  std::vector<CQ> x(n), values(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = CQ::from_double(z[i]) / zn;
  eval_.evaluate_values(std::span<const CQ>(x), std::span<CQ>(values));

  // The tracker's row lift: fhat_i = (z_n / m)^d_i f_i(x), m the largest
  // coordinate in |re| + |im|, the residual the largest |re| + |im|.
  QD m(0.0);
  for (const auto& c : z) m = std::max(m, pe::cplx::norm1(CQ::from_double(c)));
  const CQ w = zn / CQ(m);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    CQ lifted = values[i];
    for (unsigned e = 0; e < degrees_[i]; ++e) lifted = lifted * w;
    const double r = pe::cplx::norm1(lifted).to_double();
    // A NaN endpoint must fail the check, so NaN wins over any bound.
    if (!(r <= worst)) worst = r;
  }
  return worst;
}

SpanLog::Totals SpanLog::totals(const char* name) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  Totals t;
  const std::string want(name);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (want != spans_[i].name) continue;
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    ++t.count;
    t.total_us += dur * 1e-3;
    t.self_us += (dur - child_ns[i]) * 1e-3;
  }
  return t;
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::vector<double> out;
  const std::string want(name);
  for (const auto& s : spans_)
    if (want == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

void SpanLog::write_events(std::ostream& os, int tid, bool& first) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                  first ? "" : ",\n", s.name, tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent));
    os << buf;
    first = false;
  }
}

}  // namespace perfbench
