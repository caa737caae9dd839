// The double-buffered stream pipeline: results BITWISE identical to the
// synchronous FusedGpuEvaluator for double, double-double and
// quad-double across micro-chunk sizes and shard counts 1/2/4, and the
// modeled schedule overlaps copies under kernels deterministically.

#include <gtest/gtest.h>

#include <string>

#include "core/pipelined_evaluator.hpp"
#include "core/sharded_evaluator.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem make_system(unsigned n, unsigned m, unsigned k, unsigned d,
                                   std::uint64_t seed = 77) {
  poly::SystemSpec spec;
  spec.dimension = n;
  spec.monomials_per_polynomial = m;
  spec.variables_per_monomial = k;
  spec.max_exponent = d;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

template <prec::RealScalar S>
std::vector<std::vector<cplx::Complex<S>>> points_for(unsigned batch, unsigned dim,
                                                      std::uint64_t seed) {
  std::vector<std::vector<cplx::Complex<S>>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<S>(dim, seed + p));
  return points;
}

template <prec::RealScalar S>
void expect_bitwise(const std::vector<poly::EvalResult<S>>& want,
                    const std::vector<poly::EvalResult<S>>& got, const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t p = 0; p < want.size(); ++p)
    EXPECT_EQ(poly::max_abs_diff(want[p], got[p]), 0.0) << label << ", point " << p;
}

/// Pipelined vs synchronous fused, same device class, across micro-chunks.
template <prec::RealScalar S>
void run_chunk_parity(unsigned n, unsigned m, unsigned k, unsigned d, unsigned batch) {
  const auto sys = make_system(n, m, k, d);
  const auto points = points_for<S>(batch, n, 4200);

  std::vector<poly::EvalResult<S>> want;
  {
    simt::Device device;
    typename core::FusedGpuEvaluator<S>::Options opt;
    opt.detect_races = true;
    core::FusedGpuEvaluator<S> fused(device, sys, batch, opt);
    fused.evaluate(points, want);
  }

  for (const unsigned micro : {1u, 2u, 3u, 5u, 8u, batch}) {
    simt::Device device;
    typename core::PipelinedFusedEvaluator<S>::Options opt;
    opt.micro_chunk = micro;
    opt.detect_races = true;  // parity runs with the journals on
    core::PipelinedFusedEvaluator<S> pipelined(device, sys, batch, opt);
    std::vector<poly::EvalResult<S>> got;
    pipelined.evaluate(points, got);
    expect_bitwise(want, got,
                   (std::string("micro_chunk=") + std::to_string(micro)).c_str());
  }
}

TEST(PipelinedParity, DoubleAcrossMicroChunks) { run_chunk_parity<double>(8, 6, 4, 3, 10); }
TEST(PipelinedParity, DoubleWideSystem) { run_chunk_parity<double>(16, 10, 9, 2, 12); }
TEST(PipelinedParity, DoubleDoubleAcrossMicroChunks) {
  run_chunk_parity<prec::DoubleDouble>(6, 4, 3, 2, 10);
}
TEST(PipelinedParity, QuadDoubleAcrossMicroChunks) {
  run_chunk_parity<prec::QuadDouble>(5, 3, 2, 2, 10);
}

TEST(PipelinedParity, AsShardedBackendAcrossShardCounts) {
  // The sharded evaluator drives the pipelined evaluator through the
  // same evaluate_range contract; every shard count must reproduce the
  // synchronous fused results bitwise.
  const auto sys = make_system(8, 6, 4, 3);
  const auto points = points_for<double>(22, 8, 9100);

  std::vector<poly::EvalResult<double>> want;
  {
    simt::Device device;
    core::FusedGpuEvaluator<double> fused(device, sys, 22);
    fused.evaluate(points, want);
  }

  for (const unsigned shards : {1u, 2u, 4u}) {
    using Sharded = core::ShardedEvaluator<double, core::PipelinedFusedEvaluator<double>>;
    Sharded::Options opt;
    opt.shards = shards;
    opt.chunk_points = 5;       // partial tail chunk (22 = 4*5 + 2)
    opt.backend.micro_chunk = 2;  // several pipeline stages per chunk
    Sharded sharded(sys, opt);
    std::vector<poly::EvalResult<double>> got;
    sharded.evaluate(points, got);
    expect_bitwise(want, got,
                   (std::string("shards=") + std::to_string(shards)).c_str());
  }
}

TEST(Pipelined, ModeledScheduleOverlapsAndIsDeterministic) {
  // Transfer-heavy structure (few shallow monomials, full Jacobian
  // download): the pipelined makespan must beat the synchronous
  // schedule, repeat to the bit, and the claimed overlap must match
  // the timelines.
  const auto sys = make_system(16, 4, 2, 2);
  const auto points = points_for<double>(32, 16, 55);

  simt::Device device;
  core::PipelinedFusedEvaluator<double>::Options opt;
  opt.micro_chunk = 8;
  core::PipelinedFusedEvaluator<double> pipelined(device, sys, 32, opt);

  std::vector<poly::EvalResult<double>> results;
  pipelined.evaluate(points, results);
  const double first_pipe = pipelined.modeled_pipelined_us();
  const double first_sync = pipelined.modeled_synchronous_us();
  EXPECT_GT(first_pipe, 0.0);
  EXPECT_GT(first_sync, first_pipe);  // overlap hides transfer latency
  EXPECT_GT(pipelined.modeled_overlap(), 1.0);

  device.clear_log();
  pipelined.evaluate(points, results);
  EXPECT_DOUBLE_EQ(pipelined.modeled_pipelined_us(), first_pipe);
  EXPECT_DOUBLE_EQ(pipelined.modeled_synchronous_us(), first_sync);

  // The makespan is the max end over both stream timelines.
  double max_end = 0.0;
  for (const auto& e : pipelined.copy_stream().timeline())
    max_end = std::max(max_end, e.end_us);
  for (const auto& e : pipelined.compute_stream().timeline())
    max_end = std::max(max_end, e.end_us);
  EXPECT_DOUBLE_EQ(max_end, first_pipe);
}

TEST(Pipelined, LogsCoverEveryMicroChunk) {
  const auto sys = make_system(8, 6, 4, 3);
  const auto points = points_for<double>(10, 8, 77);

  simt::Device device;
  core::PipelinedFusedEvaluator<double>::Options opt;
  opt.micro_chunk = 3;  // chunks: 3 + 3 + 3 + 1
  core::PipelinedFusedEvaluator<double> pipelined(device, sys, 10, opt);
  EXPECT_EQ(pipelined.launches_per_batch(), 4u);

  std::vector<poly::EvalResult<double>> results;
  pipelined.evaluate(points, results);

  const auto& log = pipelined.last_log();
  EXPECT_EQ(log.kernels.size(), 4u);
  std::uint64_t blocks = 0;
  for (const auto& k : log.kernels) {
    EXPECT_EQ(k.kernel, "fused_eval");
    blocks += k.blocks;
  }
  EXPECT_EQ(blocks, 10u);  // one block per point, every point once
  EXPECT_EQ(log.transfers.transfers_to_device, 4u);
  EXPECT_EQ(log.transfers.transfers_from_device, 4u);
  EXPECT_EQ(log.transfers.bytes_to_device,
            10u * 8u * sizeof(cplx::Complex<double>));

  // Streams split the traffic: uploads+downloads on the copy stream,
  // kernels on the compute stream.
  EXPECT_EQ(pipelined.copy_stream().log().transfers.transfers_to_device, 4u);
  EXPECT_EQ(pipelined.copy_stream().log().transfers.transfers_from_device, 4u);
  EXPECT_EQ(pipelined.copy_stream().log().kernels.size(), 0u);
  EXPECT_EQ(pipelined.compute_stream().log().kernels.size(), 4u);
}

TEST(Pipelined, SinglePointAndEvaluateRangeContracts) {
  const auto sys = make_system(6, 4, 3, 2);
  const auto points = points_for<double>(6, 6, 31);

  simt::Device ref_device;
  core::FusedGpuEvaluator<double> fused(ref_device, sys, 6);
  std::vector<poly::EvalResult<double>> want;
  fused.evaluate(points, want);

  simt::Device device;
  core::PipelinedFusedEvaluator<double>::Options opt;
  opt.micro_chunk = 2;
  core::PipelinedFusedEvaluator<double> pipelined(device, sys, 6, opt);

  // Single-point convenience (the tracker-corrector interface).
  poly::EvalResult<double> one;
  pipelined.evaluate(std::span<const cplx::Complex<double>>(points[3]), one);
  EXPECT_EQ(poly::max_abs_diff(want[3], one), 0.0);

  // Sub-ranges write only their slice of the caller's buffer.
  std::vector<poly::EvalResult<double>> got(6);
  pipelined.evaluate_range(points, 2, 3, std::span<poly::EvalResult<double>>(got).subspan(2, 3));
  for (unsigned p = 2; p < 5; ++p)
    EXPECT_EQ(poly::max_abs_diff(want[p], got[p]), 0.0) << p;
}

TEST(Pipelined, ValidatesArguments) {
  const auto sys = make_system(6, 4, 3, 2);
  simt::Device device;
  EXPECT_THROW(core::PipelinedFusedEvaluator<double>(device, sys, 0),
               std::invalid_argument);
  {
    core::PipelinedFusedEvaluator<double>::Options opt;
    opt.micro_chunk = 0;
    EXPECT_THROW(core::PipelinedFusedEvaluator<double>(device, sys, 4, opt),
                 std::invalid_argument);
  }

  core::PipelinedFusedEvaluator<double> pipelined(device, sys, 4);
  std::vector<std::vector<cplx::Complex<double>>> none;
  std::vector<poly::EvalResult<double>> results;
  EXPECT_THROW(pipelined.evaluate(none, results), std::invalid_argument);
  auto points = points_for<double>(5, 6, 3);
  EXPECT_THROW(pipelined.evaluate(points, results), std::invalid_argument);  // > capacity
  std::vector<std::vector<cplx::Complex<double>>> wrong_dim = {
      std::vector<cplx::Complex<double>>(5)};
  EXPECT_THROW(pipelined.evaluate(wrong_dim, results), std::invalid_argument);
}

}  // namespace
