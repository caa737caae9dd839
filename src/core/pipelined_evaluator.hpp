#pragma once

/// \file pipelined_evaluator.hpp
/// Double-buffered, stream-pipelined fused evaluation.
///
/// The paper's pipeline pays one PCIe round trip per batch; its
/// follow-ons (Verschelde & Yu's GPU Newton in dd/qd arithmetic,
/// Chen's GPU path tracker) hide that latency behind kernel execution
/// with streams.  This evaluator is that schedule on the simulator's
/// stream/event subsystem (simt/stream.hpp): a batch is split into
/// micro-chunks of `Options::micro_chunk` points and walked through a
/// two-buffer software pipeline on two (or three) streams
///
///     copy stream:    up(0) up(1) dn(0) up(2) dn(1) ... dn(last)
///     compute stream:   k(0)  k(1)  k(2) ...
///
/// so upload(i+1) and download(i-1) ride the DMA engines while
/// compute(i) owns the compute engine.  With `Options::streams == 3`
/// the downloads move to a stream of their own
///
///     up stream:      up(0) up(1) up(2) ...
///     compute stream:   k(0)  k(1)  k(2) ...
///     down stream:        dn(0)  dn(1)  ...
///
/// so dn(c-1) no longer queues behind up(c) on a shared FIFO: each
/// download starts at max(d2h engine free, its kernel done), which on
/// transfer-bound shapes is strictly earlier.  The engines are the same
/// either way (one DMA engine per direction); only the per-stream
/// ordering constraint is relaxed, so results stay bitwise identical.
/// Cross-stream ordering is by
/// events only: compute(i) waits upload(i); upload(i+2) waits
/// compute(i) (X slot reuse); compute(i+2) waits download(i) (output
/// slot reuse) -- the classic double-buffer hazard set.
///
/// The system state (constant tables, folded coefficients, Mons
/// scratch) is the shared detail::FusedSystemState; only the X and
/// Outputs buffers are doubled, with one fused kernel bound to each
/// slot, and each of the four kernels keeps its own block statistics
/// memo, keyed by block class (see fused_evaluator.hpp).  Every point's
/// arithmetic is the fused kernel's, unchanged, so results are BITWISE
/// identical to FusedGpuEvaluator (and to the synchronous sharded path)
/// for every scalar type, chunk size and shard count -- the streams
/// reorder *modeled time*, never data.
///
/// Two clocks, as everywhere in this repo: on the HOST wall clock the
/// simulator executes stream commands eagerly, so this evaluator costs
/// what the synchronous micro-chunked path costs (plus timeline
/// bookkeeping); the MODELED device clock is where the overlap shows,
/// and `modeled_pipelined_us()` vs `modeled_synchronous_us()` quantify
/// it (bench_pipeline gates the ratio).
///
/// Zero allocation: staging, device buffers, kernels, streams and
/// events are built in the constructor; steady-state evaluate() touches
/// only pre-sized storage.  The device launch log still grows by one
/// entry per micro-chunk (clear it periodically, as with every
/// evaluator); stream logs/timelines are reset (capacity kept) every
/// call.

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/fused_evaluator.hpp"
#include "simt/stream.hpp"

namespace polyeval::core {

template <prec::RealScalar S>
class PipelinedFusedEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// Threads per block; 0 = auto: measured tuning, or the
    /// pick_block_size(n, m, k, micro_chunk) seed in kHeuristic mode --
    /// the grid of one launch is the micro-chunk, so under-full grids
    /// widen automatically.
    unsigned block_size = 0;
    /// Points per pipeline stage (upload/compute/download unit); the
    /// batch capacity is walked in ceil(capacity / micro_chunk)
    /// launches.  Clamped to the batch capacity.
    unsigned micro_chunk = 8;
    ExponentEncoding encoding = ExponentEncoding::kChar;
    /// nullopt = auto (tuned, or AoS in kHeuristic mode).
    std::optional<InterchangeLayout> interchange;
    /// Pipeline streams: 2 (shared copy stream) or 3 (dedicated
    /// download stream); 0 = auto (tuned, or 2 in kHeuristic mode).
    /// Bitwise-identical results either way -- only modeled time moves.
    unsigned streams = 0;
    /// Tuned resolution applies only when block_size, interchange and
    /// streams are ALL auto; pinning any one of them pins the others to
    /// their heuristic seeds (a half-pinned key would poison the cache).
    tune::TuningMode tuning = tune::TuningMode::kMeasured;
    bool detect_races = false;
    /// Cost model pricing the modeled stream timeline.
    simt::GpuCostModel cost{};
  };

  PipelinedFusedEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
                          unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(resolve_options(device, system, batch_capacity, options)),
        capacity_(batch_capacity),
        micro_(std::min(options_.micro_chunk, batch_capacity)),
        sys_(device, pack_system(system), std::max(micro_, 1u), options_.encoding,
             options_.interchange.value_or(InterchangeLayout::kAoS)),
        copy_stream_(device, options_.cost),
        compute_stream_(device, options_.cost),
        down_stream_(device, options_.cost) {
    if (capacity_ == 0)
      throw std::invalid_argument("PipelinedFusedEvaluator: zero batch capacity");
    if (options_.micro_chunk == 0)
      throw std::invalid_argument("PipelinedFusedEvaluator: zero micro_chunk");
    if (options_.streams != 2 && options_.streams != 3)
      throw std::invalid_argument("PipelinedFusedEvaluator: streams must be 0, 2 or 3");
    const auto s = sys_.layout.structure();

    const std::uint64_t outs = sys_.layout.num_outputs();
    for (unsigned b = 0; b < 2; ++b) {
      x_[b] = device_.alloc_global<C>(std::size_t{micro_} * s.n,
                                      b == 0 ? "X[pipe0]" : "X[pipe1]");
      outputs_[b] = device_.alloc_global<C>(std::size_t{micro_} * outs,
                                            b == 0 ? "Outputs[pipe0]" : "Outputs[pipe1]");
      values_[b] = device_.alloc_global<C>(std::size_t{micro_} * s.n,
                                           b == 0 ? "Values[pipe0]" : "Values[pipe1]");
      kernels_[b] = detail::build_fused_kernel<S>(sys_, x_[b], outputs_[b]);
      values_kernels_[b] = detail::build_fused_values_kernel<S>(sys_, x_[b], values_[b]);
      memos_[b] = detail::make_fused_memo<S>(sys_, outs, 1, micro_, device_.spec());
      values_memos_[b] = detail::make_fused_memo<S>(sys_, s.n, 1, micro_, device_.spec());
      flat_[b].reserve(std::size_t{micro_} * s.n);
      host_outputs_[b].reserve(std::size_t{micro_} * outs);
    }

    // Worst-case command pattern of one full-capacity evaluate call,
    // reserved once so steady-state enqueues stay off the allocator.
    const std::size_t chunks = launches_per_batch();
    copy_stream_.reserve(0, 8 * chunks + 8);
    compute_stream_.reserve(chunks, 8 * chunks + 8);
    down_stream_.reserve(0, 8 * chunks + 8);
  }

  [[nodiscard]] unsigned dimension() const noexcept { return sys_.layout.structure().n; }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  [[nodiscard]] unsigned micro_chunk() const noexcept { return micro_; }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return sys_.layout; }
  /// Resolved options: block_size nonzero, interchange engaged, streams
  /// 2 or 3.
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Streams the schedule runs on (2 or 3, resolved).
  [[nodiscard]] unsigned streams() const noexcept { return options_.streams; }

  /// Kernel launches one full-capacity evaluate_range call issues (one
  /// per micro-chunk); shard schedulers pre-size device logs with this.
  [[nodiscard]] unsigned launches_per_batch() const noexcept {
    return (capacity_ + micro_ - 1) / micro_;
  }

  /// Evaluate at points.size() <= batch_capacity() points through the
  /// double-buffered pipeline.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    if (points.empty() || points.size() > capacity_)
      throw std::invalid_argument("PipelinedFusedEvaluator: bad batch size");
    results.resize(points.size());
    evaluate_range(points, 0, points.size(), std::span<poly::EvalResult<S>>(results));
  }

  /// Evaluate the `count` points starting at points[first], writing
  /// out[i] for the i-th point of the range -- the same shard-facing
  /// contract as FusedGpuEvaluator::evaluate_range (bitwise identical
  /// results under any chunking), with the range itself walked through
  /// the two-stream pipeline in micro-chunks.
  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<S>> out) {
    validate_range(points, first, count, out.size(), count);

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    run_pipeline(points, first, count, kernels_, memos_,
                 [&](std::size_t c) { drain_chunk(c, count, out); });

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Values-only counterpart of evaluate_range: f at the `count` points
  /// starting at points[first], walked through the same two-stream
  /// double-buffered schedule with the fused VALUES kernel
  /// (build_fused_values_kernel), out[i*n + q] receiving value q of the
  /// i-th point of the range.  The per-chunk downloads are micro_chunk*n
  /// values instead of micro_chunk*(n^2+n) outputs, so values-only
  /// batches leave the DMA engines almost idle for the neighbouring full
  /// batches to fill.  Values are bitwise identical to
  /// FusedGpuEvaluator's (full or values-only) for every chunking.
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::size_t first, std::size_t count, std::span<C> out) {
    validate_range(points, first, count, out.size(),
                   count * sys_.layout.structure().n);

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    run_pipeline(points, first, count, values_kernels_, values_memos_,
                 [&](std::size_t c) { drain_values_chunk(c, count, out); });

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Single-point values-only convenience: a batch of one.
  void evaluate_values(std::span<const C> x, std::span<C> values) {
    if (x.size() != sys_.layout.structure().n)
      throw std::invalid_argument("PipelinedFusedEvaluator: point has wrong dimension");
    single_point_.resize(1);
    single_point_[0].assign(x.begin(), x.end());
    evaluate_values_range(single_point_, 0, 1, values);
  }

  /// Single-point convenience (tracker-corrector interface): a batch of
  /// one, i.e. a one-chunk pipeline.
  void evaluate(std::span<const C> x, poly::EvalResult<S>& out) {
    if (x.size() != sys_.layout.structure().n)
      throw std::invalid_argument("PipelinedFusedEvaluator: point has wrong dimension");
    single_point_.resize(1);
    single_point_[0].assign(x.begin(), x.end());
    evaluate(single_point_, single_result_);
    out = single_result_[0];
  }

  [[nodiscard]] poly::EvalResult<S> evaluate(std::span<const C> x) {
    poly::EvalResult<S> out(dimension());
    evaluate(x, out);
    return out;
  }

  // -- modeled-clock introspection (the pipelining claim) ---------------
  /// Modeled makespan of the last evaluate call's stream schedule:
  /// copies overlapping kernels, engines serializing (stream.hpp).
  [[nodiscard]] double modeled_pipelined_us() const noexcept { return makespan_us_; }
  /// What the same micro-chunked work costs on the synchronous
  /// upload-launch-download schedule: every command end to end, no
  /// overlap (the pre-stream evaluators' schedule).
  [[nodiscard]] double modeled_synchronous_us() const {
    return simt::estimate_log_us(last_log_, device_.spec(), options_.cost);
  }
  /// Synchronous / pipelined modeled time; > 1 is hidden latency.
  [[nodiscard]] double modeled_overlap() const {
    return makespan_us_ > 0.0 ? modeled_synchronous_us() / makespan_us_ : 1.0;
  }

  [[nodiscard]] const simt::Stream& copy_stream() const noexcept { return copy_stream_; }
  [[nodiscard]] const simt::Stream& compute_stream() const noexcept {
    return compute_stream_;
  }

  /// Kernel statistics and transfer volumes of the last evaluate call
  /// (all micro-chunks; the union of both streams' logs).
  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  /// Resolve the auto knobs (block_size == 0, interchange == nullopt,
  /// streams == 0) before any member consumes them.  Measured mode (all
  /// three auto): probe candidate (block, layout, streams) triples on a
  /// SCRATCH device (same spec, same host workers) by running a
  /// full-capacity zero-point batch through a candidate pipeline,
  /// statistics-only, and scoring its modeled MAKESPAN -- the quantity
  /// streams exist to shrink -- so the tuner sees exactly the overlap
  /// each schedule buys.  Heuristic mode, or any knob pinned:
  /// pick_block_size seed, AoS, 2 streams.  Probes carry kHeuristic and
  /// pinned knobs, so resolution can never recurse.
  [[nodiscard]] static Options resolve_options(simt::Device& device,
                                               const poly::PolynomialSystem& system,
                                               unsigned capacity, Options options) {
    const bool auto_block = options.block_size == 0;
    const bool auto_layout = !options.interchange.has_value();
    const bool auto_streams = options.streams == 0;
    if (capacity == 0 || options.micro_chunk == 0)
      return options;  // the ctor body throws the real error
    const unsigned micro = std::min(options.micro_chunk, capacity);
    const auto st = pack_system(system).structure;
    const unsigned seed =
        pick_block_size(st.n, st.m, st.k, micro, device.spec().multiprocessors);
    if (options.tuning == tune::TuningMode::kHeuristic || !auto_block ||
        !auto_layout || !auto_streams) {
      if (auto_block) options.block_size = seed;
      if (auto_layout) options.interchange = InterchangeLayout::kAoS;
      if (auto_streams) options.streams = 2;
      return options;
    }

    const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
    const auto key = tune::TuneKey::make(tune::TunedSchedule::kPipelined, st,
                                         capacity, micro, width, device.spec());
    const unsigned blocks[] = {32, 64, 128};
    const unsigned streams[] = {2, 3};
    const auto candidates = tune::standard_candidates(seed, blocks, streams);
    const auto decision = tune::Autotuner::global().tune(
        key, std::span<const tune::TuneCandidate>(candidates),
        [&](const tune::TuneCandidate& cand) -> std::optional<tune::ProbeOutcome> {
          simt::Device probe_device(device.spec(), device.host_workers());
          Options copt = options;
          copt.block_size = cand.block_size;
          copt.interchange = cand.interchange;
          copt.streams = cand.streams;
          copt.tuning = tune::TuningMode::kHeuristic;
          PipelinedFusedEvaluator probe(probe_device, system, capacity, copt);
          probe.statistics_only_ = true;
          std::vector<std::vector<C>> pts(capacity, std::vector<C>(st.n, C{}));
          std::vector<poly::EvalResult<S>> res;
          probe.evaluate(pts, res);
          tune::ProbeOutcome outcome;
          outcome.modeled_us = probe.modeled_pipelined_us();
          outcome.log = probe.last_log();
          return outcome;
        });
    options.block_size = decision.choice.block_size;
    options.interchange = decision.choice.interchange;
    options.streams = decision.choice.streams;
    return options;
  }

  /// Shared validation of the two range entry points: batch capacity,
  /// range bounds, the caller's output span (sized `out_needed`) and
  /// point dimensions.  Throws before any device work.
  void validate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::size_t out_size,
                      std::size_t out_needed) const {
    const unsigned s_n = sys_.layout.structure().n;
    if (count == 0 || count > capacity_)
      throw std::invalid_argument("PipelinedFusedEvaluator: bad batch size");
    if (first > points.size() || count > points.size() - first ||
        out_size < out_needed)
      throw std::invalid_argument("PipelinedFusedEvaluator: bad point range");
    for (std::size_t p = first; p < first + count; ++p)
      if (points[p].size() != s_n)
        throw std::invalid_argument(
            "PipelinedFusedEvaluator: point has wrong dimension");
  }

  /// The ONE copy of the two-stream double-buffer schedule, shared by
  /// the full and values-only ranges (they differ only in the kernel
  /// pair, its memos and the drain): upload chunk c into slot c&1
  /// behind the slot's c-2 kernel (X reuse), launch behind the upload
  /// and the slot's c-2 download (output reuse), drain chunk c-1 under
  /// compute(c), then drain the tail and record the modeled makespan.
  template <class DrainChunk>
  void run_pipeline(const std::vector<std::vector<C>>& points, std::size_t first,
                    std::size_t count, simt::Kernel (&kernels)[2],
                    simt::BlockStatsMemo (&memos)[2], DrainChunk&& drain) {
    const unsigned s_n = sys_.layout.structure().n;

    // Fresh modeled timeline for this call (capacities kept).
    copy_stream_.reset();
    compute_stream_.reset();
    down_stream_.reset();
    device_.engine_clocks().reset();
    for (unsigned b = 0; b < 2; ++b) {
      up_done_[b].reset();
      kernel_done_[b].reset();
      down_done_[b].reset();
    }

    const std::size_t chunks = (count + micro_ - 1) / micro_;
    for (std::size_t c = 0; c < chunks; ++c) {
      const unsigned buf = static_cast<unsigned>(c & 1);
      const std::size_t base = c * micro_;
      const std::size_t cnt = std::min<std::size_t>(micro_, count - base);

      // Upload chunk c into X[buf]; the slot is reused from chunk c-2,
      // whose kernel must have consumed it (modeled hazard; host-side
      // the eager order already guarantees it).
      if (c >= 2) copy_stream_.wait(kernel_done_[buf]);
      flat_[buf].resize(cnt * s_n);
      for (std::size_t p = 0; p < cnt; ++p)
        std::copy(points[first + base + p].begin(), points[first + base + p].end(),
                  flat_[buf].begin() + p * s_n);
      copy_stream_.copy_to_device_async(x_[buf], std::span<const C>(flat_[buf]));
      copy_stream_.record(up_done_[buf]);

      // Compute chunk c behind its upload; the output slot is reused
      // from chunk c-2, whose download must have drained it.
      compute_stream_.wait(up_done_[buf]);
      if (c >= 2) compute_stream_.wait(down_done_[buf]);
      simt::LaunchConfig cfg{static_cast<unsigned>(cnt), options_.block_size,
                             sys_.shared_bytes};
      cfg.detect_races = options_.detect_races;
      cfg.memo.table = &memos[buf];
      cfg.statistics_only = statistics_only_;
      (void)compute_stream_.launch(kernels[buf], cfg);
      compute_stream_.record(kernel_done_[buf]);

      // Download chunk c-1 under compute(c).
      if (c >= 1) drain(c - 1);
    }
    drain(chunks - 1);

    makespan_us_ = std::max({copy_stream_.modeled_now_us(),
                             compute_stream_.modeled_now_us(),
                             down_stream_.modeled_now_us()});
  }

  /// The stream downloads ride on: the shared copy stream (2-stream
  /// schedule) or the dedicated third stream.
  [[nodiscard]] simt::Stream& download_stream() noexcept {
    return options_.streams == 3 ? down_stream_ : copy_stream_;
  }

  void drain_chunk(std::size_t c, std::size_t count,
                   std::span<poly::EvalResult<S>> out) {
    const std::uint64_t outs = sys_.layout.num_outputs();
    const unsigned buf = static_cast<unsigned>(c & 1);
    const std::size_t base = c * micro_;
    const std::size_t cnt = std::min<std::size_t>(micro_, count - base);

    auto& dn = download_stream();
    dn.wait(kernel_done_[buf]);
    host_outputs_[buf].resize(cnt * outs);
    dn.copy_from_device_async(outputs_[buf], std::span<C>(host_outputs_[buf]));
    dn.record(down_done_[buf]);

    // Host data is ready (eager execution); unpack into the caller's
    // point-order slices, the deterministic-merge contract.
    for (std::size_t p = 0; p < cnt; ++p)
      detail::unpack_outputs<S>(sys_.layout,
                                std::span<const C>(host_outputs_[buf]), p * outs,
                                out[base + p]);
  }

  /// drain_chunk for the values-only pipeline: Values[buf] lands
  /// directly in the caller's point-major span (no unpacking needed).
  void drain_values_chunk(std::size_t c, std::size_t count, std::span<C> out) {
    const unsigned s_n = sys_.layout.structure().n;
    const unsigned buf = static_cast<unsigned>(c & 1);
    const std::size_t base = c * micro_;
    const std::size_t cnt = std::min<std::size_t>(micro_, count - base);

    auto& dn = download_stream();
    dn.wait(kernel_done_[buf]);
    dn.copy_from_device_async(values_[buf], out.subspan(base * s_n, cnt * s_n));
    dn.record(down_done_[buf]);
  }

  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  unsigned micro_;
  detail::FusedSystemState<S> sys_;

  simt::GlobalBuffer<C> x_[2], outputs_[2], values_[2];
  simt::Kernel kernels_[2], values_kernels_[2];
  simt::BlockStatsMemo memos_[2], values_memos_[2];  ///< one per kernel
  /// Set on autotuner probes only (see FusedGpuEvaluator's).
  bool statistics_only_ = false;
  simt::Stream copy_stream_, compute_stream_, down_stream_;
  simt::Event up_done_[2], kernel_done_[2], down_done_[2];
  std::vector<C> flat_[2];          ///< per-slot upload staging, reused
  std::vector<C> host_outputs_[2];  ///< per-slot download staging, reused
  std::vector<std::vector<C>> single_point_;        ///< single-point staging
  std::vector<poly::EvalResult<S>> single_result_;  ///< single-point staging
  double makespan_us_ = 0.0;
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
