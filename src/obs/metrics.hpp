#pragma once

/// \file metrics.hpp
/// The metrics half of the observability layer: a registry of named
/// counters, gauges and fixed-bucket histograms with Prometheus-style
/// text exposition.
///
/// Design contract (the reason this file exists at all, given that
/// `ServiceStats` already counts a few things):
///
///  - **Registration may allocate, observation never does.**  Callers
///    resolve instruments once (`registry.counter("x")` returns a
///    stable reference) and then increment through the handle from hot
///    loops -- a relaxed atomic add, no lock, no lookup, no
///    allocation.  This is what lets the lockstep tracker keep its
///    zero-steady-state-allocation gate while instrumented.
///  - **Instruments are write-concurrent.**  Shard rounds run on pool
///    threads; counters and histograms take relaxed atomic updates
///    from any number of writers.  Exposition is a racy-but-coherent
///    snapshot (each value individually atomic), which is exactly the
///    Prometheus scrape contract.
///  - **Labeled lookups are allocation-free on the hit path.**  The
///    per-kernel families (`launches{kernel="fused_full"}`) are found
///    by transparent `string_view` comparison under a shared lock;
///    only the first observation of a new label value allocates.
///
/// Naming follows the Prometheus conventions: `polyeval_<noun>_<unit>`
/// with a `_total` suffix on counters, labels for the per-kernel /
/// per-status / per-direction splits (see docs/ARCHITECTURE.md,
/// "The observability layer").

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace polyeval::obs {

/// Monotonically increasing integer counter (relaxed atomic).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Monotonically increasing floating-point counter -- modeled-µs
/// totals accumulate fractional charges, so an integer counter would
/// truncate them.  CAS-add keeps it portable across libstdc++ levels.
class FloatCounter {
 public:
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Last-write-wins instantaneous value (queue depth, cache hit rate).
class Gauge {
 public:
  void set(double d) noexcept { v_.store(d, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: upper bounds are set at registration and
/// never change, so `observe` is a linear scan over a handful of
/// doubles plus three relaxed atomic adds -- allocation-free.
/// Prometheus `le` semantics: a value lands in the first bucket whose
/// bound is >= value; the implicit last bucket is +Inf.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds)
      : bounds_(upper_bounds.begin(), upper_bounds.end()),
        buckets_(bounds_.size() + 1) {}

  void observe(double v) noexcept {
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::span<const double> bounds() const noexcept {
    return bounds_;
  }
  /// Count in bucket `i` alone (i == bounds().size() is the +Inf bucket).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Registry of metric families.  A family is one exposition name with
/// one type; it holds either a single unlabeled instrument or a set of
/// instruments keyed by one label value.  References returned by the
/// accessors are stable for the registry's lifetime (instruments live
/// behind unique_ptr).  Re-registering a name with a different type
/// throws std::logic_error -- that is always a programming bug.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = {});
  Counter& counter(std::string_view name, std::string_view label_key,
                   std::string_view label_value, std::string_view help = {});
  FloatCounter& float_counter(std::string_view name,
                              std::string_view help = {});
  FloatCounter& float_counter(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value,
                              std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view label_key,
               std::string_view label_value, std::string_view help = {});
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds,
                       std::string_view help = {});

  /// Prometheus text exposition (one `# TYPE` line per family, then
  /// one sample line per instrument; histograms expand into
  /// `_bucket{le=...}` / `_sum` / `_count`).  Safe to call while
  /// writers are incrementing.
  void expose(std::ostream& os) const;

 private:
  enum class Kind : unsigned char { kCounter, kFloatCounter, kGauge,
                                    kHistogram };

  struct Instrument {
    std::string label_value;  ///< empty for the unlabeled singleton
    Counter counter;
    FloatCounter float_counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    std::string label_key;  ///< empty when the family is unlabeled
    Kind kind = Kind::kCounter;
    std::vector<double> bounds;  ///< histogram bucket upper bounds
    std::vector<std::unique_ptr<Instrument>> instruments;
    std::map<std::string, Instrument*, std::less<>> by_label;
  };

  Instrument& resolve(std::string_view name, Kind kind,
                      std::string_view label_key,
                      std::string_view label_value, std::string_view help,
                      std::span<const double> bounds);

  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;  ///< exposition order
  std::map<std::string, Family*, std::less<>> by_name_;
};

/// Pre-resolved instrument handles for the lockstep tracker's round
/// loop (see homotopy::BatchPathTracker::set_metrics).  One struct is
/// shared by every shard of a service: the counters are service-wide
/// aggregates and every update is a relaxed atomic, so concurrent
/// shard rounds just add up.  All pointers are non-null after
/// from_registry; a default-constructed instance (all null) means "not
/// instrumented" and must not be attached.
struct TrackerMetrics {
  Counter* rounds = nullptr;              ///< evaluation rounds (one evaluation per live path)
  Counter* steps_accepted = nullptr;      ///< predictor/corrector accepts
  Counter* steps_rejected = nullptr;      ///< step-control rejections
  Counter* endgame_entries = nullptr;     ///< Cauchy endgame attempts armed
  /// Endgame attempts by outcome, labeled in this index order: closed
  /// (classified), lost (a circle sample's corrector failed), exhausted
  /// (max_windings loops without closure).  After a run with no
  /// cancellation the outcomes sum to endgame_entries.
  enum EndgameOutcome : std::size_t { kClosed, kLost, kExhausted, kEndgameOutcomes };
  Counter* endgame_attempts[kEndgameOutcomes] = {};
  Counter* endgame_samples = nullptr;     ///< circle samples corrected
  Counter* newton_iterations = nullptr;   ///< Newton updates applied, total
  /// Paths retired, labeled by homotopy::PathStatus.  Index order is
  /// the enum order: converged, at_infinity, stalled, diverged,
  /// cancelled (pinned against homotopy::to_string in test_obs).
  static constexpr std::size_t kStatuses = 5;
  Counter* retired_by_status[kStatuses] = {};
  Histogram* newton_iterations_per_path = nullptr;  ///< per finished Newton solve
  Histogram* path_steps = nullptr;                  ///< accepted steps at retire
  Histogram* accept_streak = nullptr;  ///< growth streak length at rejection

  /// Registers (or re-finds) every family and resolves the handles.
  [[nodiscard]] static TrackerMetrics from_registry(MetricsRegistry& r);
};

}  // namespace polyeval::obs
