#pragma once

/// \file batch_evaluator.hpp
/// Extension beyond the paper: evaluate ONE system at MANY points per
/// kernel launch.  The kernel-breakdown bench shows ~70-85% of the
/// modeled per-evaluation time is the fixed floor (three launches plus
/// the PCIe round trip); path trackers that can batch predictor points
/// or track many paths in lockstep amortize that floor.  Grids grow by
/// the batch factor: block index = point * blocks_per_point + chunk.
///
/// The kernels are kernels.hpp's three builders, launched with
/// blocks_per_point; at batch 1 with GpuEvaluator's block and layout, a
/// launch log equals GpuEvaluator's.  The two hosts differ in what they
/// expose, not in arithmetic: this one picks its block size and layout
/// by measured tuning and backs ShardedEvaluator's three-kernel shards,
/// while GpuEvaluator pins the paper's 32-thread block and carries the
/// paper-table ablations.

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"
#include "poly/eval_result.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::core {

template <prec::RealScalar S>
class BatchGpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// 0 = auto: measured tuning (or the paper's one-warp 32-thread
    /// seed in kHeuristic mode).  Nonzero pins it.
    unsigned block_size = 0;
    ExponentEncoding encoding = ExponentEncoding::kChar;
    /// Element layout of the CommonFactors/Mons interchange buffers;
    /// results are bitwise identical under either (see layout.hpp).
    /// nullopt = auto (tuned, or AoS in kHeuristic mode).
    std::optional<InterchangeLayout> interchange;
    /// Tuned resolution applies only when both geometry knobs are auto;
    /// pinning either one pins the other to the heuristic seed (a
    /// half-pinned key would poison the cache).
    tune::TuningMode tuning = tune::TuningMode::kMeasured;
  };

  /// Packs the system and sizes the device arrays for `batch_capacity`
  /// simultaneous points.
  BatchGpuEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
                    unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(options),
        capacity_(batch_capacity),
        packed_(pack_system(system)),
        layout_(packed_.structure) {
    if (capacity_ == 0)
      throw std::invalid_argument("BatchGpuEvaluator: zero batch capacity");
    resolve_options(system);
    const auto s = packed_.structure;

    bufs_ = detail::make_device_buffers<S>(device_, packed_, layout_, options_.encoding,
                                           *options_.interchange, capacity_, "[batch]");

    // Persistent host-side scratch: steady-state evaluate() calls reuse
    // these and perform zero heap allocations.
    flat_.reserve(std::size_t{capacity_} * s.n);
    host_outputs_.reserve(std::size_t{capacity_} * layout_.num_outputs());

    blocks_per_point_ = static_cast<unsigned>(
        (layout_.total_monomials() + options_.block_size - 1) / options_.block_size);
    out_blocks_per_point_ = static_cast<unsigned>(
        (layout_.num_outputs() + options_.block_size - 1) / options_.block_size);
    shared1_ = std::size_t{s.n} * s.d * sizeof(C);
    shared2_ = (std::size_t{s.n} + std::size_t{options_.block_size} * (s.k + 1)) * sizeof(C);
    kernel1_ = make_common_factor_kernel<S>(bufs_, layout_, options_.encoding,
                                            blocks_per_point_);
    kernel2_ = make_speelpenning_kernel<S>(bufs_, layout_, blocks_per_point_);
    kernel3_ = make_summation_kernel<S>(bufs_, layout_, out_blocks_per_point_);
  }

  [[nodiscard]] unsigned dimension() const noexcept { return packed_.structure.n; }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return layout_; }
  /// Resolved options: block_size is nonzero and interchange engaged.
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Launches issued per evaluate_range call (shard schedulers pre-size
  /// device logs with this).
  static constexpr unsigned kLaunchesPerBatch = 3;
  [[nodiscard]] unsigned launches_per_batch() const noexcept {
    return kLaunchesPerBatch;
  }

  /// Evaluate at points.size() <= batch_capacity() points with one
  /// upload, three launches and one download.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    if (points.empty() || points.size() > capacity_)
      throw std::invalid_argument("BatchGpuEvaluator: bad batch size");
    results.resize(points.size());
    evaluate_range(points, 0, points.size(), std::span<poly::EvalResult<S>>(results));
  }

  /// Evaluate the `count` points starting at points[first], writing
  /// out[i] for the i-th point of the range: the shard-facing staging
  /// entry a ShardedEvaluator drives (see fused_evaluator.hpp for the
  /// range/merge contract).  Grids cover only the range, so a chunk of
  /// c points costs c * blocks_per_point blocks, and each point's
  /// arithmetic is independent of its chunk -- bitwise identical under
  /// any chunking.
  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<S>> out) {
    const unsigned s_n = packed_.structure.n;
    if (count == 0 || count > capacity_)
      throw std::invalid_argument("BatchGpuEvaluator: bad batch size");
    if (first > points.size() || count > points.size() - first || out.size() < count)
      throw std::invalid_argument("BatchGpuEvaluator: bad point range");
    const auto batch = static_cast<unsigned>(count);
    for (std::size_t p = first; p < first + count; ++p)
      if (points[p].size() != s_n)
        throw std::invalid_argument("BatchGpuEvaluator: point has wrong dimension");

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    flat_.resize(std::size_t{batch} * s_n);
    for (unsigned p = 0; p < batch; ++p)
      std::copy(points[first + p].begin(), points[first + p].end(),
                flat_.begin() + std::size_t{p} * s_n);
    device_.upload(bufs_.x, std::span<const C>(flat_));

    (void)device_.launch(kernel1_,
                         {batch * blocks_per_point_, options_.block_size, shared1_});
    (void)device_.launch(kernel2_,
                         {batch * blocks_per_point_, options_.block_size, shared2_});
    (void)device_.launch(kernel3_,
                         {batch * out_blocks_per_point_, options_.block_size, 0});

    host_outputs_.resize(std::size_t{batch} * layout_.num_outputs());
    device_.download(bufs_.outputs, std::span<C>(host_outputs_));

    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(layout_, std::span<const C>(host_outputs_),
                                std::size_t{p} * layout_.num_outputs(), out[p]);

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  /// Resolve the auto knobs before any allocation consumes them.  The
  /// heuristic seed is the paper's one-warp block; measured mode probes
  /// block sizes x interchange layouts on a scratch device (same spec,
  /// same host workers) with a full-capacity zero-point batch (values
  /// cannot move an access pattern).  Candidates whose kernel-2 shared
  /// tile overflows the per-block limit throw LaunchError and read as
  /// infeasible.
  void resolve_options(const poly::PolynomialSystem& system) {
    const bool auto_block = options_.block_size == 0;
    const bool auto_layout = !options_.interchange.has_value();
    if (!auto_block && !auto_layout) return;
    constexpr unsigned kSeedBlock = 32;  // the paper's block size
    if (options_.tuning == tune::TuningMode::kHeuristic || !auto_block ||
        !auto_layout) {
      if (auto_block) options_.block_size = kSeedBlock;
      if (auto_layout) options_.interchange = InterchangeLayout::kAoS;
      return;
    }
    const auto st = packed_.structure;
    const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
    const auto key = tune::TuneKey::make(tune::TunedSchedule::kBatch, st,
                                         capacity_, 0, width, device_.spec());
    const unsigned blocks[] = {32, 64, 128};
    const unsigned streams[] = {2};
    const auto candidates = tune::standard_candidates(kSeedBlock, blocks, streams);
    const auto decision = tune::Autotuner::global().tune(
        key, std::span<const tune::TuneCandidate>(candidates),
        [&](const tune::TuneCandidate& cand) -> std::optional<tune::ProbeOutcome> {
          simt::Device probe_device(device_.spec(), device_.host_workers());
          Options copt = options_;
          copt.block_size = cand.block_size;
          copt.interchange = cand.interchange;
          copt.tuning = tune::TuningMode::kHeuristic;
          try {
            BatchGpuEvaluator probe(probe_device, system, capacity_, copt);
            std::vector<std::vector<C>> pts(capacity_, std::vector<C>(st.n, C{}));
            std::vector<poly::EvalResult<S>> res(capacity_);
            probe.evaluate_range(pts, 0, capacity_,
                                 std::span<poly::EvalResult<S>>(res));
            simt::GpuCostModel cost;
            cost.scalar_cost_factor = simt::scalar_cost_factor_for_width(width);
            tune::ProbeOutcome outcome;
            outcome.modeled_us = simt::estimate_log_us(probe.last_log(),
                                                       probe_device.spec(), cost);
            outcome.log = probe.last_log();
            return outcome;
          } catch (const simt::LaunchError&) {
            return std::nullopt;  // shared tile scales with block size
          }
        });
    options_.block_size = decision.choice.block_size;
    options_.interchange = decision.choice.interchange;
  }

  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  PackedSystem packed_;
  SystemLayout layout_;

  DeviceBuffers<S> bufs_;
  simt::Kernel kernel1_, kernel2_, kernel3_;
  std::size_t shared1_ = 0, shared2_ = 0;
  unsigned blocks_per_point_ = 0, out_blocks_per_point_ = 0;
  std::vector<C> flat_;          ///< packed upload staging, reused
  std::vector<C> host_outputs_;  ///< download staging, reused
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
