#pragma once

/// \file gpu_evaluator.hpp
/// Host-side orchestration of the three-kernel pipeline: packs the
/// system, holds the device-resident state for the lifetime of a path
/// tracking run (coefficients, encodings and the zero padding of Mons are
/// uploaded exactly once), and per evaluation uploads the point, launches
/// the kernels and downloads values + Jacobian.

#include <span>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"
#include "poly/eval_result.hpp"

namespace polyeval::core {

template <prec::RealScalar S>
class GpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  /// Section 3.1's design alternative for the powers table.
  enum class PowersStrategy {
    /// The paper's choice: every block recomputes the powers into its
    /// shared memory inside the common-factor kernel.
    kPerBlockShared,
    /// The rejected alternative: a dedicated kernel tabulates the powers
    /// once into global memory; the common-factor kernel reads them back
    /// (one extra launch, scattered global reads).
    kSeparateKernel,
  };

  struct Options {
    unsigned block_size = 32;  ///< the paper uses the warp size
    ExponentEncoding encoding = ExponentEncoding::kChar;
    MonsLayout mons_layout = MonsLayout::kTransposed;
    PowersStrategy powers = PowersStrategy::kPerBlockShared;
    /// Element layout of the CommonFactors/Mons interchange buffers;
    /// results are bitwise identical under either (see layout.hpp).
    InterchangeLayout interchange = InterchangeLayout::kAoS;
  };

  /// Packs and uploads the system.  Throws std::invalid_argument for
  /// non-uniform systems and simt::ConstantMemoryOverflow when the
  /// encoded supports exceed the 64 KB budget (the paper's 2048-monomial
  /// failure).
  GpuEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
               Options options = {})
      : device_(device),
        options_(options),
        packed_(pack_system(system)),
        layout_(packed_.structure, options.mons_layout) {
    const auto s = packed_.structure;
    if (options_.block_size == 0)
      throw std::invalid_argument("GpuEvaluator: block size must be positive");

    bufs_ = detail::make_device_buffers<S>(device_, packed_, layout_, options_.encoding,
                                           options_.interchange, 1, "");

    // One point per pass: each kernel's blocks per point is its whole grid.
    const auto blocks_for = [&](std::uint64_t work) {
      return static_cast<unsigned>((work + options_.block_size - 1) / options_.block_size);
    };

    if (options_.powers == PowersStrategy::kSeparateKernel) {
      bufs_.powers = device_.alloc_global<C>(std::size_t{s.n} * s.d, "Powers");
      kernel0_ = make_powers_kernel<S>(bufs_, layout_);
      cfg0_ = {blocks_for(s.n), options_.block_size, 0};
      kernel1_ = make_common_factor_from_global_kernel<S>(bufs_, layout_,
                                                          options_.encoding);
      cfg1_ = {blocks_for(layout_.total_monomials()), options_.block_size, 0};
    } else {
      cfg1_ = {blocks_for(layout_.total_monomials()), options_.block_size,
               std::size_t{s.n} * s.d * sizeof(C)};
      kernel1_ = make_common_factor_kernel<S>(bufs_, layout_, options_.encoding,
                                              cfg1_.grid_blocks);
    }
    cfg2_ = {blocks_for(layout_.total_monomials()), options_.block_size,
             (std::size_t{s.n} + std::size_t{options_.block_size} * (s.k + 1)) * sizeof(C)};
    cfg3_ = {blocks_for(layout_.num_outputs()), options_.block_size, 0};
    cfg_values_ = {blocks_for(layout_.total_monomials()), options_.block_size,
                   std::size_t{s.n} * sizeof(C)};
    cfg_values_sum_ = {blocks_for(s.n), options_.block_size, 0};
    kernel2_ = make_speelpenning_kernel<S>(bufs_, layout_, cfg2_.grid_blocks);
    kernel3_ = make_summation_kernel<S>(bufs_, layout_, cfg3_.grid_blocks);
    values_kernel_ = make_values_kernel<S>(bufs_, layout_, cfg_values_.grid_blocks);
    values_sum_kernel_ =
        make_values_summation_kernel<S>(bufs_, layout_, cfg_values_sum_.grid_blocks);

    host_outputs_.resize(layout_.num_outputs());
  }

  [[nodiscard]] const SystemLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] const PackedSystem& packed() const noexcept { return packed_; }
  [[nodiscard]] unsigned dimension() const noexcept { return packed_.structure.n; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Evaluate values and Jacobian at x (x.size() == dimension()).
  void evaluate(std::span<const C> x, poly::EvalResult<S>& out) {
    if (x.size() != packed_.structure.n)
      throw std::invalid_argument("GpuEvaluator: point has wrong dimension");

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    device_.upload(bufs_.x, x);
    if (options_.powers == PowersStrategy::kSeparateKernel)
      (void)device_.launch(kernel0_, cfg0_);
    (void)device_.launch(kernel1_, cfg1_);
    (void)device_.launch(kernel2_, cfg2_);
    (void)device_.launch(kernel3_, cfg3_);
    device_.download(bufs_.outputs, std::span<C>(host_outputs_));
    detail::unpack_outputs<S>(layout_, std::span<const C>(host_outputs_), 0, out);
    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  [[nodiscard]] poly::EvalResult<S> evaluate(std::span<const C> x) {
    poly::EvalResult<S> out(dimension());
    evaluate(x, out);
    return out;
  }

  /// Values-only evaluation f(x) (no Jacobian): the common-factor kernel,
  /// a k+1-multiplication product kernel and an n-output summation --
  /// for residual probes that do not need derivatives.
  void evaluate_values(std::span<const C> x, std::span<C> values) {
    if (x.size() != packed_.structure.n || values.size() != packed_.structure.n)
      throw std::invalid_argument("GpuEvaluator: wrong dimension");

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    device_.upload(bufs_.x, x);
    if (options_.powers == PowersStrategy::kSeparateKernel)
      (void)device_.launch(kernel0_, cfg0_);
    (void)device_.launch(kernel1_, cfg1_);
    (void)device_.launch(values_kernel_, cfg_values_);
    (void)device_.launch(values_sum_kernel_, cfg_values_sum_);
    device_.download(bufs_.outputs, values);  // only the first n entries
    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Kernel statistics and transfer volumes of the last evaluate() call,
  /// the input of simt::estimate_log_us.
  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

  /// Direct read of the device-side Mons array (tests use this to verify
  /// the zero slots and the transposed ordering).
  [[nodiscard]] std::vector<C> debug_mons() const {
    std::vector<C> host(layout_.mons_size());
    for (std::size_t i = 0; i < host.size(); ++i) host[i] = bufs_.mons.host_read(i);
    return host;
  }

 private:
  simt::Device& device_;
  Options options_;
  PackedSystem packed_;
  SystemLayout layout_;
  DeviceBuffers<S> bufs_;
  simt::Kernel kernel0_, kernel1_, kernel2_, kernel3_;
  simt::Kernel values_kernel_, values_sum_kernel_;
  simt::LaunchConfig cfg0_, cfg1_, cfg2_, cfg3_, cfg_values_, cfg_values_sum_;
  std::vector<C> host_outputs_;
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
