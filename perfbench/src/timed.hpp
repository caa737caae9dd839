#pragma once

// Forwarding timing decorator over a device evaluator: every
// evaluate_range / evaluate_values_range call runs inside a span (none
// when the log is null), and its points and the launches its device log
// snapshot shows are counted where the work happens.

#include <span>
#include <vector>

#include "common.hpp"
#include "poly/eval_result.hpp"

namespace perfbench {

template <class S, class Eval>
class TimedEvaluator {
  using C = pe::cplx::Complex<S>;

 public:
  TimedEvaluator(Eval& inner, SpanLog* log) : inner_(inner), log_(log) {}

  [[nodiscard]] unsigned dimension() const noexcept { return inner_.dimension(); }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return inner_.batch_capacity(); }

  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<pe::poly::EvalResult<S>> out) {
    ScopedSpan span(log_, "core.evaluate_range");
    inner_.evaluate_range(points, first, count, out);
    launches_ += inner_.last_log().kernels.size();
    points_ += count;
  }
  void evaluate_values_range(const std::vector<std::vector<C>>& points, std::size_t first,
                             std::size_t count, std::span<C> out) {
    ScopedSpan span(log_, "core.evaluate_values_range");
    inner_.evaluate_values_range(points, first, count, out);
    launches_ += inner_.last_log().kernels.size();
    points_ += count;
  }

  [[nodiscard]] std::uint64_t launches() const noexcept { return launches_; }
  [[nodiscard]] std::uint64_t points() const noexcept { return points_; }

 private:
  Eval& inner_;
  SpanLog* log_;
  std::uint64_t launches_ = 0;
  std::uint64_t points_ = 0;
};

}  // namespace perfbench
