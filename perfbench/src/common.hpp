#pragma once

// Shared plumbing of the benchmark: the result record every workload
// fills, wall-clock helpers, the in-memory span log of the traced run,
// order statistics, bit digests and the higher-precision output checks.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ad/cpu_evaluator.hpp"
#include "cplx/complex.hpp"
#include "poly/system.hpp"
#include "prec/double_double.hpp"
#include "prec/quad_double.hpp"

namespace perfbench {

namespace pe = polyeval;
using Clock = std::chrono::steady_clock;
using DD = pe::prec::DoubleDouble;
using QD = pe::prec::QuadDouble;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by every thread of this process so far (exited
/// threads included).  Unlike wall time it does not grow while the host
/// deschedules the process's virtual CPUs, so host-cost figures taken on
/// it stay steady on a shared machine.
[[nodiscard]] double process_cpu_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  `metrics` are the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run); `fixed` holds the values
/// that must repeat exactly for one seed (digests, modeled clock, counts
/// over the workload's fixed quota) -- the self-tests compare them.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> fixed;
  std::string inputs_digest;
  std::string output_digest;
  std::vector<std::string> notes;  ///< human-readable lines, printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_fixed(std::string name, double value, std::string unit) {
    fixed.push_back({std::move(name), value, std::move(unit)});
  }
  /// A failed output check: the run's result is marked incorrect.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

// ----- order statistics ---------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: with n
/// samples that is the (n-10)-th order statistic at percentile
/// 100 (n-10)/n.  Fewer than eleven samples leave no such percentile;
/// the maximum is reported then (percentile 100) and flagged.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  bool is_max = true;
};
[[nodiscard]] Tail tail_latency(std::vector<double> v);
[[nodiscard]] std::string describe(const Tail& t);

[[nodiscard]] double peak_rss_mb();

// ----- digests ------------------------------------------------------------

/// FNV-1a over exact bit patterns: two runs that agree on the digest
/// agree bit for bit on everything fed in.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  void add(const DD& d) {
    add(d.hi());
    add(d.lo());
  }
  template <class T>
  void add(const pe::cplx::Complex<T>& z) {
    add(z.re());
    add(z.im());
  }
  void add(const pe::poly::PolynomialSystem& sys);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ----- output checks ------------------------------------------------------

/// Residual of a projective endpoint z (n+1 coordinates) re-evaluated
/// in quad-double: f(x) by ad::CpuEvaluator at x = z / z_n, each row
/// lifted as the tracker lifts its homogeneous rows, so the value is the
/// tracker's own residual measure without the rounding of its
/// double-precision evaluation.
class QdResidual {
 public:
  explicit QdResidual(const pe::poly::PolynomialSystem& system)
      : eval_(system), degrees_(system.degrees()) {}

  [[nodiscard]] double residual(std::span<const pe::cplx::Complex<double>> z) const;

 private:
  pe::ad::CpuEvaluator<QD> eval_;
  std::vector<unsigned> degrees_;
};

/// Largest residual a converged endpoint may show under the quad-double
/// re-check: ten times the loosest tolerance the tracker accepts a
/// converged endpoint at (the Cauchy endgame's corrector tolerance,
/// 1e-8), the margin covering the rounding of its double evaluation.
inline constexpr double kEndpointResidualBound = 1e-7;

// ----- traced-run span log ------------------------------------------------

/// Spans recorded from the benchmark's own thread around calls into a
/// layer: name, start, end and parent (the enclosing open span).  Kept
/// in memory; written as Chrome trace events at the end of the run.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  std::size_t begin(const char* name) {
    const auto parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t idx) {
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< duration minus the time children cover
  };
  [[nodiscard]] Totals totals(const char* name) const;
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;
  /// Chrome trace events of this log on thread track `tid`, each
  /// preceded by a comma unless `first` (which the call clears).
  void write_events(std::ostream& os, int tid, bool& first) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns, end_ns, parent;
  };
  /// One origin for every log, so several logs share one timeline.
  [[nodiscard]] static std::int64_t now_ns() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
  }
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null log records nothing (the untraced twin of a pass).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), idx_(log != nullptr ? log->begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t idx_;
};

/// Seed mixing for per-item input streams (splitmix64 finalizer).
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + item + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
