#pragma once

/// \file timer.hpp
/// Wall-clock measurement helpers for the benchmark harnesses.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace polyeval::benchutil {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Seconds since construction or the last reset.
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Run fn repeatedly until at least min_seconds elapsed (at least once);
/// returns the average seconds per call.
template <class Fn>
[[nodiscard]] double time_per_call(Fn&& fn, double min_seconds = 0.05) {
  Timer total;
  std::size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (total.seconds() < min_seconds);
  return total.seconds() / static_cast<double>(calls);
}

/// Seconds per call of each of `fns`: the median of `windows` (at least
/// one) time_per_call windows of min_seconds each.  The windows go
/// round-robin over the callables, so each one's windows spread over the
/// whole measurement.  A stretch of host load moves a single window's
/// mean outright; it must cover most of the measurement to move these
/// medians.
[[nodiscard]] inline std::vector<double> median_times_per_call(
    std::span<const std::function<void()>> fns, double min_seconds = 0.05,
    unsigned windows = 5) {
  std::vector<std::vector<double>> samples(fns.size());
  for (unsigned w = 0; w < std::max(windows, 1u); ++w)
    for (std::size_t i = 0; i < fns.size(); ++i)
      samples[i].push_back(time_per_call(fns[i], min_seconds));
  std::vector<double> medians;
  for (auto& sample : samples) {
    const auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
    std::nth_element(sample.begin(), mid, sample.end());
    medians.push_back(*mid);
  }
  return medians;
}

}  // namespace polyeval::benchutil
