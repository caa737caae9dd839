// Parity tests for the fast paths: the fused single-launch pipeline and
// the SoA interchange layout must reproduce the three-kernel AoS
// baseline BITWISE (the arithmetic is identical in order and operation;
// only storage and scheduling differ) -- across double, double-double
// and quad-double.  The tenant-routed fused kernels must reproduce each
// point's own tenant's single-tenant evaluator, also bit for bit.  The
// batched three-kernel host at batch 1 must reproduce the single-point
// host's launch log and transfers exactly (both launch the kernels.hpp
// builders).  The memoized launches (simt::BlockStatsMemo), whose hits
// run bare, must report exactly the statistics and produce exactly the
// outputs of the checked, fully instrumented path.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <optional>
#include <type_traits>

#include "core/batch_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "core/gpu_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
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

/// Baseline: the paper's three-kernel pipeline, AoS interchange.
template <prec::RealScalar S>
std::vector<poly::EvalResult<S>> baseline(const poly::PolynomialSystem& sys,
                                          const std::vector<std::vector<cplx::Complex<S>>>& points) {
  simt::Device device;
  core::GpuEvaluator<S> gpu(device, sys);
  std::vector<poly::EvalResult<S>> results;
  for (const auto& x : points)
    results.push_back(gpu.evaluate(std::span<const cplx::Complex<S>>(x)));
  return results;
}

template <prec::RealScalar S>
std::vector<std::vector<cplx::Complex<S>>> points_for(unsigned batch, unsigned dim,
                                                      std::uint64_t seed) {
  std::vector<std::vector<cplx::Complex<S>>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<S>(dim, seed + p));
  return points;
}

/// Equal object representations (T is built of doubles only, so it has
/// no padding): unlike a zero max_abs_diff, which a NaN on one side
/// also gives, this catches every bit.
template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % sizeof(double) == 0);
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <prec::RealScalar S>
void expect_bitwise(const std::vector<poly::EvalResult<S>>& want,
                    const std::vector<poly::EvalResult<S>>& got, const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(poly::max_abs_diff(want[p], got[p]), 0.0) << label << ", point " << p;
    EXPECT_TRUE(same_bits(want[p].values, got[p].values) &&
                same_bits(want[p].jacobian, got[p].jacobian))
        << label << ", point " << p;
  }
}

/// A second system of `sys`'s structure: a different coefficient and
/// support draw, the other tenant of the routed checks.
poly::PolynomialSystem other_tenant(const poly::PolynomialSystem& sys) {
  const auto s = core::pack_system(sys).structure;
  return make_system(s.n, s.m, s.k, s.d, 1234);
}

/// A tenant-routed evaluator with race detection on and `systems`
/// installed as tenants 0, 1, ...
template <prec::RealScalar S>
core::FusedGpuEvaluator<S> make_routed(
    simt::Device& device, const std::vector<poly::PolynomialSystem>& systems,
    unsigned batch, std::optional<core::InterchangeLayout> layout = std::nullopt) {
  typename core::FusedGpuEvaluator<S>::Options opt;
  opt.detect_races = true;
  opt.interchange = layout;
  core::FusedGpuEvaluator<S> ev(device, core::pack_system(systems[0]).structure,
                                static_cast<unsigned>(systems.size()), batch, opt);
  for (unsigned t = 0; t < systems.size(); ++t) ev.set_tenant(t, systems[t]);
  return ev;
}

/// Each tenant's single-tenant fused results at every point.
template <prec::RealScalar S>
std::vector<std::vector<poly::EvalResult<S>>> per_tenant_results(
    const std::vector<poly::PolynomialSystem>& systems,
    const std::vector<std::vector<cplx::Complex<S>>>& points) {
  std::vector<std::vector<poly::EvalResult<S>>> want(systems.size());
  for (std::size_t t = 0; t < systems.size(); ++t) {
    simt::Device device;
    core::FusedGpuEvaluator<S> single(device, systems[t],
                                      static_cast<unsigned>(points.size()));
    single.evaluate(points, want[t]);
  }
  return want;
}

/// Run `ev` over `points` routed by `tenants` (full and values-only) and
/// require every point to equal its tenant's single-tenant result.
template <prec::RealScalar S>
void expect_routed_bitwise(core::FusedGpuEvaluator<S>& ev,
                           const std::vector<std::vector<poly::EvalResult<S>>>& want,
                           const std::vector<std::vector<cplx::Complex<S>>>& points,
                           const std::vector<unsigned>& tenants, const char* label) {
  using C = cplx::Complex<S>;
  const std::size_t batch = points.size();
  const unsigned n = ev.dimension();
  ev.bind_tenants(std::span<const unsigned>(tenants));

  std::vector<poly::EvalResult<S>> got(batch);
  ev.evaluate_range(points, 0, batch, std::span<poly::EvalResult<S>>(got));
  ASSERT_EQ(ev.last_log().kernels.size(), 1u) << label;
  EXPECT_EQ(ev.last_log().kernels[0].kernel, "mt_fused") << label;
  for (std::size_t p = 0; p < batch; ++p)
    EXPECT_EQ(poly::max_abs_diff(want[tenants[p]][p], got[p]), 0.0)
        << label << ", point " << p << " (tenant " << tenants[p] << ")";

  std::vector<C> values(batch * n);
  ev.evaluate_values_range(points, 0, batch, std::span<C>(values));
  EXPECT_EQ(ev.last_log().kernels[0].kernel, "mt_fused_vals") << label;
  for (std::size_t p = 0; p < batch; ++p)
    for (unsigned q = 0; q < n; ++q)
      EXPECT_EQ(cplx::max_abs_diff(want[tenants[p]][p].values[q], values[p * n + q]), 0.0)
          << label << " values, point " << p << ", value " << q;
}

/// Two tenants of `sys`'s structure under interleaved routing, then the
/// routing flipped so every point slot switches tenant between launches
/// (the stale-derivative hazard the routed kernel re-zeroes against).
template <prec::RealScalar S>
void run_routed_parity(const poly::PolynomialSystem& sys,
                       const std::vector<std::vector<cplx::Complex<S>>>& points) {
  const std::vector<poly::PolynomialSystem> systems = {sys, other_tenant(sys)};
  const auto want = per_tenant_results<S>(systems, points);
  simt::Device device;
  auto routed = make_routed<S>(device, systems, static_cast<unsigned>(points.size()));
  std::vector<unsigned> tenants(points.size()), flipped(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    tenants[p] = static_cast<unsigned>(p % 2);
    flipped[p] = 1 - tenants[p];
  }
  expect_routed_bitwise(routed, want, points, tenants, "routed");
  expect_routed_bitwise(routed, want, points, flipped, "routed, flipped");
}

/// Every KernelStats field of `got` equals `want`'s.
void expect_same_stats(const simt::KernelStats& want, const simt::KernelStats& got,
                       const std::string& label) {
#define POLYEVAL_EXPECT_FIELD(f) EXPECT_EQ(want.f, got.f) << label << ": " #f
  POLYEVAL_EXPECT_FIELD(kernel);
  POLYEVAL_EXPECT_FIELD(blocks);
  POLYEVAL_EXPECT_FIELD(threads);
  POLYEVAL_EXPECT_FIELD(warps);
  POLYEVAL_EXPECT_FIELD(complex_mul_total);
  POLYEVAL_EXPECT_FIELD(complex_add_total);
  POLYEVAL_EXPECT_FIELD(complex_mul_per_thread_max);
  POLYEVAL_EXPECT_FIELD(complex_add_per_thread_max);
  POLYEVAL_EXPECT_FIELD(global_load_requests);
  POLYEVAL_EXPECT_FIELD(global_load_transactions);
  POLYEVAL_EXPECT_FIELD(global_store_requests);
  POLYEVAL_EXPECT_FIELD(global_store_transactions);
  POLYEVAL_EXPECT_FIELD(global_bytes_loaded);
  POLYEVAL_EXPECT_FIELD(global_bytes_stored);
  POLYEVAL_EXPECT_FIELD(shared_requests);
  POLYEVAL_EXPECT_FIELD(shared_cycles);
  POLYEVAL_EXPECT_FIELD(constant_reads);
  POLYEVAL_EXPECT_FIELD(inactive_lane_phases);
  POLYEVAL_EXPECT_FIELD(race_hazards);
  POLYEVAL_EXPECT_FIELD(warps_per_block);
  POLYEVAL_EXPECT_FIELD(concurrent_blocks_per_sm);
  POLYEVAL_EXPECT_FIELD(waves);
  POLYEVAL_EXPECT_FIELD(warps_on_busiest_sm);
  POLYEVAL_EXPECT_FIELD(shared_bytes_per_block);
#undef POLYEVAL_EXPECT_FIELD
}

/// The two logs launched the same kernels with the same statistics.
void expect_same_logs(const simt::LaunchLog& want, const simt::LaunchLog& got,
                      const std::string& label) {
  ASSERT_EQ(want.kernels.size(), got.kernels.size()) << label;
  for (std::size_t i = 0; i < want.kernels.size(); ++i)
    expect_same_stats(want.kernels[i], got.kernels[i],
                      label + ", launch " + std::to_string(i));
}

/// The two logs moved the same bytes in the same number of transfers.
void expect_same_transfers(const simt::TransferStats& want, const simt::TransferStats& got,
                           const std::string& label) {
  EXPECT_EQ(want.bytes_to_device, got.bytes_to_device) << label;
  EXPECT_EQ(want.bytes_from_device, got.bytes_from_device) << label;
  EXPECT_EQ(want.transfers_to_device, got.transfers_to_device) << label;
  EXPECT_EQ(want.transfers_from_device, got.transfers_from_device) << label;
}

/// Run the full and values kernels of `memo` (unchecked: memoized) and
/// `checked` (detect_races: the reference path) over points [0, count)
/// three times -- the first launch fills the memo, the others hit it and
/// run bare -- and require identical statistics and bit-identical
/// results and values every time.  Each side writes its own buffers, and
/// each launch scales the points by its own factor, so an output a bare
/// launch failed to write cannot pass as the one an earlier launch left.
/// Returns the checked full-kernel log of the last round.
template <class Evaluator, prec::RealScalar S>
simt::LaunchLog expect_memo_matches_checked(
    Evaluator& memo, Evaluator& checked,
    const std::vector<std::vector<cplx::Complex<S>>>& points, std::size_t count,
    const std::string& label) {
  using C = cplx::Complex<S>;
  std::vector<poly::EvalResult<S>> memo_results(count), checked_results(count);
  std::vector<C> memo_values(count * memo.dimension()),
      checked_values(count * memo.dimension());
  simt::LaunchLog full;
  for (int launch = 0; launch < 3; ++launch) {
    const std::string at = label + ", launch " + std::to_string(launch);
    auto scaled = points;
    const S factor = prec::ScalarTraits<S>::from_double(1.0 + 0.25 * launch);
    for (auto& x : scaled)
      for (auto& z : x) z = z * factor;

    memo.evaluate_range(scaled, 0, count, std::span<poly::EvalResult<S>>(memo_results));
    checked.evaluate_range(scaled, 0, count,
                           std::span<poly::EvalResult<S>>(checked_results));
    expect_same_logs(checked.last_log(), memo.last_log(), at);
    expect_bitwise(checked_results, memo_results, at.c_str());
    full = checked.last_log();

    memo.evaluate_values_range(scaled, 0, count, std::span<C>(memo_values));
    checked.evaluate_values_range(scaled, 0, count, std::span<C>(checked_values));
    expect_same_logs(checked.last_log(), memo.last_log(), at + " values");
    for (std::size_t i = 0; i < memo_values.size(); ++i)
      EXPECT_EQ(cplx::max_abs_diff(checked_values[i], memo_values[i]), 0.0)
          << at << " values, entry " << i;
  }
  return full;
}

using Layouts = std::vector<std::optional<core::InterchangeLayout>>;

/// Memoized statistics and outputs against the checked path for `sys`:
/// the plain evaluator (AoS and SoA, the full batch and then a partial
/// one); then, under each of `layouts` (nullopt: the evaluators' own
/// resolution), the routed evaluator under interleaved and then flipped
/// routing, and the pipelined evaluator in `micro_chunk`-point chunks (a
/// partial tail chunk unless it divides the batch).
template <prec::RealScalar S>
void run_memo_parity(const poly::PolynomialSystem& sys,
                     const std::vector<std::vector<cplx::Complex<S>>>& points,
                     const Layouts& layouts = {std::nullopt}, unsigned micro_chunk = 2) {
  const auto batch = static_cast<unsigned>(points.size());
  for (const auto layout : {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA}) {
    const std::string label =
        layout == core::InterchangeLayout::kSoA ? "memo SoA" : "memo AoS";
    simt::Device memo_device, checked_device;
    typename core::FusedGpuEvaluator<S>::Options opt;
    opt.interchange = layout;
    core::FusedGpuEvaluator<S> memo(memo_device, sys, batch, opt);
    opt.detect_races = true;
    core::FusedGpuEvaluator<S> checked(checked_device, sys, batch, opt);
    expect_memo_matches_checked(memo, checked, points, batch, label);
    expect_memo_matches_checked(memo, checked, points, batch - 1, label + " partial");
  }
  for (const auto layout : layouts) {
    const std::string soa = layout == core::InterchangeLayout::kSoA ? " SoA" : "";
    {
      const std::vector<poly::PolynomialSystem> systems = {sys, other_tenant(sys)};
      const auto st = core::pack_system(sys).structure;
      simt::Device memo_device, checked_device;
      typename core::FusedGpuEvaluator<S>::Options ropt;
      ropt.interchange = layout;
      core::FusedGpuEvaluator<S> memo(memo_device, st, 2, batch, ropt);
      auto checked = make_routed<S>(checked_device, systems, batch, layout);
      for (unsigned t = 0; t < 2; ++t) memo.set_tenant(t, systems[t]);
      std::vector<unsigned> tenants(batch), flipped(batch);
      for (unsigned p = 0; p < batch; ++p) {
        tenants[p] = p % 2;
        flipped[p] = 1 - tenants[p];
      }
      for (const auto* routing : {&tenants, &flipped}) {
        memo.bind_tenants(std::span<const unsigned>(*routing));
        checked.bind_tenants(std::span<const unsigned>(*routing));
        expect_memo_matches_checked(
            memo, checked, points, batch,
            (routing == &tenants ? "memo routed" : "memo flipped") + soa);
      }
    }
    {
      simt::Device memo_device, checked_device;
      typename core::PipelinedFusedEvaluator<S>::Options popt;
      popt.micro_chunk = micro_chunk;
      popt.interchange = layout;
      core::PipelinedFusedEvaluator<S> memo(memo_device, sys, batch, popt);
      popt.detect_races = true;
      core::PipelinedFusedEvaluator<S> checked(checked_device, sys, batch, popt);
      expect_memo_matches_checked(memo, checked, points, batch, "memo pipelined" + soa);
    }
  }
}

/// Statistics-only launches of the fused full and values kernels, built
/// the way the evaluators build them (FusedSystemState, build_fused_*,
/// make_fused_memo), against detect_races launches of the same kernels:
/// every KernelStats field equal, on the cold launch (the lowest block
/// of each class runs, every other block adds its class's entry) and on
/// the warm ones (no block runs).  `grids` are the launches' block
/// counts over a `capacity`-point state; non-empty `tenants` routes
/// block b to tenants[b] over a state holding `systems` (the routed
/// kernel), and a capacity below the batch is a pipeline slot's chunk.
template <prec::RealScalar S>
void expect_statistics_only_matches_checked(
    const std::vector<poly::PolynomialSystem>& systems, unsigned capacity,
    std::initializer_list<unsigned> grids, core::InterchangeLayout layout,
    const std::vector<unsigned>& tenants, const std::string& label) {
  using C = cplx::Complex<S>;
  simt::Device device;
  const auto st = core::pack_system(systems[0]).structure;
  const auto slots = static_cast<unsigned>(systems.size());
  core::detail::FusedSystemState<S> sys(device, st, slots, capacity,
                                        core::ExponentEncoding::kChar, layout);
  for (unsigned t = 0; t < slots; ++t) sys.install(device, t, core::pack_system(systems[t]));
  const std::uint64_t outs = sys.layout.num_outputs();
  const auto x = device.alloc_global<C>(std::size_t{capacity} * st.n, "X");
  const auto outputs = device.alloc_global<C>(std::size_t{capacity} * outs, "Outputs");
  const auto values = device.alloc_global<C>(std::size_t{capacity} * st.n, "Values");
  simt::GlobalBuffer<unsigned> ids;
  if (!tenants.empty()) {
    ids = device.alloc_global<unsigned>(capacity, "Tenants");
    device.upload(ids, std::span<const unsigned>(tenants.data(), capacity));
  }
  const unsigned block =
      core::pick_block_size(st.n, st.m, st.k, capacity, device.spec().multiprocessors);
  struct Case {
    simt::Kernel kernel;
    simt::BlockStatsMemo memo;
    const char* what;
  };
  Case cases[] = {
      {core::detail::build_fused_kernel<S>(sys, x, outputs, ids),
       core::detail::make_fused_memo<S>(sys, outs, slots, capacity, device.spec()), "full"},
      {core::detail::build_fused_values_kernel<S>(sys, x, values, ids),
       core::detail::make_fused_memo<S>(sys, st.n, slots, capacity, device.spec()),
       "values"}};
  for (auto& c : cases) {
    for (const unsigned grid : grids) {
      simt::LaunchConfig cfg{grid, block, sys.shared_bytes};
      if (!tenants.empty()) cfg.memo.rows = std::span<const unsigned>(tenants.data(), grid);
      cfg.detect_races = true;
      const auto want = device.launch(c.kernel, cfg);
      cfg.detect_races = false;
      cfg.memo.table = &c.memo;
      cfg.statistics_only = true;
      const auto got = device.launch(c.kernel, cfg);
      expect_same_stats(want, got,
                        label + " " + c.what + ", grid " + std::to_string(grid));
    }
  }
}

/// The class key (simt::BlockStatsMemo keyed by block class): pin each
/// layout's period for the shape, then run 19 points -- more than the
/// largest period and not a multiple of it -- through the memoized plain,
/// routed and pipelined (9-point chunks) evaluators against the checked
/// path, plus statistics-only launches of each one's kernels.
template <prec::RealScalar S>
void run_class_key_parity(unsigned n, unsigned m, unsigned k, unsigned d,
                          std::initializer_list<core::InterchangeLayout> layouts,
                          std::initializer_list<unsigned> periods) {
  constexpr unsigned kBatch = 19, kMicro = 9;
  const auto sys = make_system(n, m, k, d);
  const auto points = points_for<S>(kBatch, n, 4600);
  ASSERT_EQ(layouts.size(), periods.size());
  const auto* period = periods.begin();
  for (const auto layout : layouts) {
    simt::Device device;
    core::detail::FusedSystemState<S> state(device, core::pack_system(sys), kBatch,
                                            core::ExponentEncoding::kChar, layout);
    for (const std::uint64_t outs : {state.layout.num_outputs(), std::uint64_t{n}})
      EXPECT_EQ(core::detail::make_fused_memo<S>(state, outs, 1, kBatch, device.spec())
                    .period(),
                *period)
          << "outputs per point " << outs;
    ++period;
  }

  run_memo_parity<S>(sys, points, Layouts(layouts.begin(), layouts.end()), kMicro);

  const std::vector<poly::PolynomialSystem> systems = {sys, other_tenant(sys)};
  std::vector<unsigned> tenants(kBatch);
  for (unsigned p = 0; p < kBatch; ++p) tenants[p] = (p / 3) % 2;
  for (const auto layout : layouts) {
    const std::string at = layout == core::InterchangeLayout::kSoA ? " SoA" : " AoS";
    expect_statistics_only_matches_checked<S>({sys}, kBatch, {kBatch, kBatch, kBatch - 4},
                                              layout, {}, "plain" + at);
    expect_statistics_only_matches_checked<S>(systems, kBatch, {kBatch, kBatch}, layout,
                                              tenants, "routed" + at);
    expect_statistics_only_matches_checked<S>({sys}, kMicro,
                                              {kMicro, kMicro, kBatch % kMicro}, layout,
                                              {}, "pipeline slot" + at);
  }
}

TEST(FusedMemoClassKey, PeriodOne) {
  run_class_key_parity<double>(8, 6, 4, 3, {core::InterchangeLayout::kAoS,
                                            core::InterchangeLayout::kSoA},
                               {1, 1});
}
TEST(FusedMemoClassKey, QuadDoublePeriodTwo) {
  run_class_key_parity<prec::QuadDouble>(5, 3, 2, 3, {core::InterchangeLayout::kSoA},
                                         {2});
}
TEST(FusedMemoClassKey, PeriodFourAndEight) {
  run_class_key_parity<double>(6, 5, 3, 2, {core::InterchangeLayout::kAoS,
                                            core::InterchangeLayout::kSoA},
                               {4, 8});
}
TEST(FusedMemoClassKey, PeriodEight) {
  for (const auto& [n, m, k, d] :
       {std::array<unsigned, 4>{3, 3, 2, 2}, std::array<unsigned, 4>{5, 3, 2, 3}})
    run_class_key_parity<double>(n, m, k, d, {core::InterchangeLayout::kAoS,
                                              core::InterchangeLayout::kSoA},
                                 {8, 8});
}

/// `scale` multiplies every coordinate: a power of two far from 1 moves
/// the points toward the overflow or underflow edge without rounding.
template <prec::RealScalar S>
void run_parity(unsigned n, unsigned m, unsigned k, unsigned d, double scale = 1.0) {
  const auto sys = make_system(n, m, k, d);
  const unsigned batch = 3;
  auto points = points_for<S>(batch, n, 4200);
  if (scale != 1.0)
    for (auto& x : points)
      for (auto& z : x) z = z * prec::ScalarTraits<S>::from_double(scale);
  const auto want = baseline<S>(sys, points);
  std::vector<poly::EvalResult<S>> got;

  {  // single-point pipeline, SoA interchange
    simt::Device device;
    typename core::GpuEvaluator<S>::Options opt;
    opt.interchange = core::InterchangeLayout::kSoA;
    core::GpuEvaluator<S> gpu(device, sys, opt);
    got.clear();
    for (const auto& x : points)
      got.push_back(gpu.evaluate(std::span<const cplx::Complex<S>>(x)));
    expect_bitwise(want, got, "GpuEvaluator SoA");
  }
  {  // batched host at batch 1, pinned to the single-point geometry: the
     // single-point host's launch log, transfers and bits
    for (const auto layout :
         {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA}) {
      const std::string label =
          layout == core::InterchangeLayout::kSoA ? "Batch@1 SoA" : "Batch@1 AoS";
      simt::Device single_device, batch_device;
      typename core::GpuEvaluator<S>::Options gopt;
      gopt.interchange = layout;
      core::GpuEvaluator<S> single(single_device, sys, gopt);
      typename core::BatchGpuEvaluator<S>::Options bopt;
      bopt.block_size = gopt.block_size;
      bopt.interchange = layout;
      bopt.tuning = tune::TuningMode::kHeuristic;
      core::BatchGpuEvaluator<S> batched(batch_device, sys, 1, bopt);
      (void)single.evaluate(std::span<const cplx::Complex<S>>(points[0]));
      got.assign(1, poly::EvalResult<S>{});
      batched.evaluate_range(points, 0, 1, std::span<poly::EvalResult<S>>(got));
      expect_same_logs(single.last_log(), batched.last_log(), label);
      expect_same_transfers(single.last_log().transfers, batched.last_log().transfers,
                            label);
      expect_bitwise({want[0]}, got, label.c_str());
    }
  }
  {  // batched three-kernel pipeline, AoS and SoA
    for (const auto layout :
         {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA}) {
      simt::Device device;
      typename core::BatchGpuEvaluator<S>::Options opt;
      opt.interchange = layout;
      core::BatchGpuEvaluator<S> gpu(device, sys, batch, opt);
      gpu.evaluate(points, got);
      expect_bitwise(want, got,
                     layout == core::InterchangeLayout::kSoA ? "Batch SoA" : "Batch AoS");
    }
  }
  {  // fused single-launch pipeline, checked, AoS and SoA
    for (const auto layout :
         {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA}) {
      simt::Device device;
      typename core::FusedGpuEvaluator<S>::Options opt;
      opt.detect_races = true;  // parity runs with the race journals on
      opt.interchange = layout;
      core::FusedGpuEvaluator<S> gpu(device, sys, batch, opt);
      gpu.evaluate(points, got);
      expect_bitwise(want, got,
                     layout == core::InterchangeLayout::kSoA ? "Fused SoA" : "Fused AoS");
      EXPECT_EQ(gpu.last_log().kernels.size(), 1u) << "fused pipeline must be one launch";
    }
  }
  run_routed_parity<S>(sys, points);
  run_memo_parity<S>(sys, points);
}

TEST(FusedParity, DoubleGeneralSystem) { run_parity<double>(8, 6, 4, 3); }
TEST(FusedParity, DoubleWideSystem) { run_parity<double>(16, 10, 9, 2); }
TEST(FusedParity, DoubleUnivariateMonomials) { run_parity<double>(6, 4, 1, 3); }
TEST(FusedParity, DoubleBivariateMonomials) { run_parity<double>(6, 4, 2, 2); }
TEST(FusedParity, DoubleDegreeOne) { run_parity<double>(6, 4, 3, 1); }

TEST(FusedParity, DoubleDouble) { run_parity<prec::DoubleDouble>(6, 4, 3, 2); }
// On an FMA host the fused double-double kernels run simt::Phase's FMA
// entries and the three-kernel reference does not: the same bits at
// the edges of the range too.  The monomials have degree 3 to 6.  At
// |x| ~ 2^-330 the degree-3 ones are ~1e-298, so the two_prod error
// terms and half the outputs' low parts are subnormal (higher degrees
// underflow); at |x| ~ 2^+166 the degree-6 values reach ~1e+300.
TEST(FusedParity, DoubleDoubleNearUnderflow) {
  run_parity<prec::DoubleDouble>(6, 4, 3, 2, 0x1p-330);
}
TEST(FusedParity, DoubleDoubleNearOverflow) {
  run_parity<prec::DoubleDouble>(6, 4, 3, 2, 0x1p+166);
}
TEST(FusedParity, QuadDouble) { run_parity<prec::QuadDouble>(5, 3, 2, 2); }

/// The values-only contract: evaluate_values_range must reproduce the
/// VALUES of a full evaluation bit for bit (the values kernel repeats
/// the full kernel's value arithmetic), over every k regime the value
/// path branches on, and in ONE launch downloading only batch*n values.
template <prec::RealScalar S>
void run_values_parity(unsigned n, unsigned m, unsigned k, unsigned d) {
  using C = cplx::Complex<S>;
  const auto sys = make_system(n, m, k, d);
  const unsigned batch = 3;
  const auto points = points_for<S>(batch, n, 4300);

  simt::Device device;
  typename core::FusedGpuEvaluator<S>::Options opt;
  opt.detect_races = true;
  core::FusedGpuEvaluator<S> fused(device, sys, batch, opt);

  std::vector<poly::EvalResult<S>> full;
  fused.evaluate(points, full);

  std::vector<C> values(std::size_t{batch} * n);
  fused.evaluate_values_range(points, 0, batch, std::span<C>(values));
  ASSERT_EQ(fused.last_log().kernels.size(), 1u) << "values path must be one launch";
  EXPECT_EQ(fused.last_log().kernels[0].kernel, "fused_values");
  EXPECT_EQ(fused.last_log().transfers.bytes_from_device,
            std::size_t{batch} * n * sizeof(C));

  for (unsigned p = 0; p < batch; ++p)
    for (unsigned q = 0; q < n; ++q)
      EXPECT_EQ(cplx::max_abs_diff(full[p].values[q], values[std::size_t{p} * n + q]),
                0.0)
          << "point " << p << ", value " << q;

  // The pipelined evaluator's micro-chunked values path: same bits.
  simt::Device pipe_device;
  typename core::PipelinedFusedEvaluator<S>::Options popt;
  popt.micro_chunk = 2;  // forces a partial tail chunk on batch 3
  core::PipelinedFusedEvaluator<S> piped(pipe_device, sys, batch, popt);
  std::vector<C> pvalues(std::size_t{batch} * n);
  piped.evaluate_values_range(points, 0, batch, std::span<C>(pvalues));
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(cplx::max_abs_diff(values[i], pvalues[i]), 0.0) << "entry " << i;

  // Single-point convenience on both evaluators: a batch of one, same
  // bits as the point's slot in the full batch.
  std::vector<C> single(n);
  fused.evaluate_values(std::span<const C>(points[1]), std::span<C>(single));
  for (unsigned q = 0; q < n; ++q)
    EXPECT_EQ(cplx::max_abs_diff(values[std::size_t{1} * n + q], single[q]), 0.0)
        << "fused single-point value " << q;
  piped.evaluate_values(std::span<const C>(points[2]), std::span<C>(single));
  for (unsigned q = 0; q < n; ++q)
    EXPECT_EQ(cplx::max_abs_diff(values[std::size_t{2} * n + q], single[q]), 0.0)
        << "pipelined single-point value " << q;

  run_routed_parity<S>(sys, points);
  run_memo_parity<S>(sys, points);
}

TEST(FusedValuesParity, DoubleGeneralSystem) { run_values_parity<double>(8, 6, 4, 3); }
TEST(FusedValuesParity, DoubleUnivariateMonomials) {
  run_values_parity<double>(6, 4, 1, 3);
}
TEST(FusedValuesParity, DoubleBivariateMonomials) {
  run_values_parity<double>(6, 4, 2, 2);
}
TEST(FusedValuesParity, DoubleDegreeOne) { run_values_parity<double>(6, 4, 3, 1); }
TEST(FusedValuesParity, DoubleDouble) { run_values_parity<prec::DoubleDouble>(6, 4, 3, 2); }
TEST(FusedValuesParity, QuadDouble) { run_values_parity<prec::QuadDouble>(5, 3, 2, 2); }

TEST(MultiTenantEvaluator, MatchesSingleTenantEvaluatorsBitwise) {
  // The coalescing primitive: one routed launch over interleaved tenant
  // ids must reproduce each tenant's single-tenant evaluator bit for bit
  // (same fold, same kernel arithmetic, tables selected by id).
  const std::vector<poly::PolynomialSystem> systems = {make_system(3, 3, 2, 2, 99),
                                                       make_system(3, 3, 2, 2, 1234)};
  const auto points = points_for<double>(6, 3, 500);
  const auto want = per_tenant_results<double>(systems, points);

  simt::Device device;
  auto routed = make_routed<double>(device, systems, 6);
  expect_routed_bitwise(routed, want, points, {0, 1, 1, 0, 1, 0}, "interleaved");

  // Structure mismatch is rejected at install time.
  EXPECT_THROW(routed.set_tenant(1, make_system(4, 3, 2, 2, 5)), std::invalid_argument);
}

TEST(MultiTenantEvaluator, SetTenantReplacesAnOccupiedSlot) {
  // Re-installing an occupied slot with a different system of the same
  // structure: the next launches must see only the new tables.  Its
  // monomials' supports differ from the old tenant's, so the derivative
  // slots the old tenant wrote at these point slots are stale unless
  // the routed kernel re-zeroes them.
  const auto sys_a = make_system(8, 6, 4, 3, 77);
  const auto sys_b = make_system(8, 6, 4, 3, 78);
  const auto sys_c = make_system(8, 6, 4, 3, 79);
  const auto points = points_for<double>(4, 8, 4400);
  const std::vector<unsigned> tenants = {0, 1, 1, 0};

  simt::Device device;
  auto routed = make_routed<double>(device, {sys_a, sys_b}, 4);
  expect_routed_bitwise(routed, per_tenant_results<double>({sys_a, sys_b}, points),
                        points, tenants, "before replacement");
  routed.set_tenant(1, sys_c);
  expect_routed_bitwise(routed, per_tenant_results<double>({sys_a, sys_c}, points),
                        points, tenants, "after replacement");
}

TEST(MultiTenantEvaluator, SetTenantInvalidatesMemoizedStatistics) {
  // A slot re-installed with a system of another support must not
  // replay the old tenant's memoized statistics: its blocks touch other
  // shared words and derivative slots, so every launch after set_tenant
  // must again match the checked path.
  const auto sys_a = make_system(8, 6, 4, 3, 77);
  const auto sys_b = make_system(8, 6, 4, 3, 78);
  const auto sys_c = make_system(8, 6, 4, 3, 79);
  const auto st = core::pack_system(sys_a).structure;
  const auto points = points_for<double>(4, 8, 4500);
  const std::vector<unsigned> tenants = {0, 1, 1, 0};

  simt::Device memo_device, checked_device;
  core::FusedGpuEvaluator<double> memo(memo_device, st, 2, 4);
  auto checked = make_routed<double>(checked_device, {sys_a, sys_b}, 4);
  memo.set_tenant(0, sys_a);
  memo.set_tenant(1, sys_b);
  memo.bind_tenants(std::span<const unsigned>(tenants));
  checked.bind_tenants(std::span<const unsigned>(tenants));
  const auto before =
      expect_memo_matches_checked(memo, checked, points, 4, "before replacement");

  memo.set_tenant(1, sys_c);
  checked.set_tenant(1, sys_c);
  const auto after =
      expect_memo_matches_checked(memo, checked, points, 4, "after replacement");
  // The replacement must move the statistics, or this test proves nothing.
  const auto& b = before.kernels.at(0);
  const auto& a = after.kernels.at(0);
  EXPECT_TRUE(b.shared_cycles != a.shared_cycles ||
              b.global_store_transactions != a.global_store_transactions);
}

TEST(MultiTenantEvaluator, ValidatesTenantsAndRouting) {
  const auto sys = make_system(6, 4, 3, 2);
  const auto st = core::pack_system(sys).structure;
  simt::Device device;
  EXPECT_THROW(core::FusedGpuEvaluator<double>(device, st, 0, 2), std::invalid_argument);
  EXPECT_THROW(core::FusedGpuEvaluator<double>(device, st, 2, 0), std::invalid_argument);
  typename core::FusedGpuEvaluator<double>::Options nibble;
  nibble.encoding = core::ExponentEncoding::kPacked4Bit;
  EXPECT_THROW(core::FusedGpuEvaluator<double>(device, st, 2, 2, nibble),
               std::invalid_argument);

  core::FusedGpuEvaluator<double> routed(device, st, 2, 2);
  EXPECT_THROW(routed.set_tenant(2, sys), std::invalid_argument);
  routed.set_tenant(0, sys);
  const auto points = points_for<double>(2, 6, 700);
  std::vector<poly::EvalResult<double>> results(2);
  const auto run = [&] {
    routed.evaluate_range(points, 0, 2, std::span<poly::EvalResult<double>>(results));
  };
  EXPECT_THROW(run(), std::invalid_argument);  // nothing bound yet
  const std::vector<unsigned> absent = {0, 1};
  routed.bind_tenants(std::span<const unsigned>(absent));
  EXPECT_THROW(run(), std::invalid_argument);  // tenant 1 never installed
  const std::vector<unsigned> present = {0, 0};
  routed.bind_tenants(std::span<const unsigned>(present));
  EXPECT_NO_THROW(run());
  routed.clear_tenant(0);
  EXPECT_THROW(run(), std::invalid_argument);  // slot freed

  // The system constructor has no tenant slots.
  core::FusedGpuEvaluator<double> plain(device, sys, 2);
  EXPECT_THROW(plain.set_tenant(0, sys), std::invalid_argument);
}

TEST(FusedParity, SinglePointApiMatchesBatchOfOne) {
  const auto sys = make_system(8, 6, 4, 3);
  const auto x = poly::make_random_point<double>(8, 31);
  simt::Device d1, d2;
  core::GpuEvaluator<double> single(d1, sys);
  core::FusedGpuEvaluator<double> fused(d2, sys, 1);
  const auto want = single.evaluate(std::span<const cplx::Complex<double>>(x));
  const auto got = fused.evaluate(std::span<const cplx::Complex<double>>(x));
  EXPECT_EQ(poly::max_abs_diff(want, got), 0.0);
}

TEST(FusedParity, OneUploadOneLaunchOneDownload) {
  const auto sys = make_system(8, 6, 4, 3);
  simt::Device device;
  core::FusedGpuEvaluator<double> fused(device, sys, 8);
  const auto points = points_for<double>(8, 8, 500);
  std::vector<poly::EvalResult<double>> results;
  fused.evaluate(points, results);

  const auto& log = fused.last_log();
  ASSERT_EQ(log.kernels.size(), 1u);
  EXPECT_EQ(log.kernels[0].kernel, "fused_eval");
  EXPECT_EQ(log.kernels[0].blocks, 8u);  // one block per point
  EXPECT_EQ(log.transfers.transfers_to_device, 1u);
  EXPECT_EQ(log.transfers.transfers_from_device, 1u);
  EXPECT_EQ(log.transfers.bytes_to_device,
            8u * 8u * sizeof(cplx::Complex<double>));
  EXPECT_EQ(log.transfers.bytes_from_device,
            8u * (8u * 8u + 8u) * sizeof(cplx::Complex<double>));
}

TEST(FusedParity, ValidatesArguments) {
  const auto sys = make_system(6, 4, 3, 2);
  simt::Device device;
  EXPECT_THROW(core::FusedGpuEvaluator<double>(device, sys, 0), std::invalid_argument);

  core::FusedGpuEvaluator<double> fused(device, sys, 2);
  std::vector<poly::EvalResult<double>> results;
  std::vector<std::vector<cplx::Complex<double>>> none;
  EXPECT_THROW(fused.evaluate(none, results), std::invalid_argument);
  auto too_many = points_for<double>(3, 6, 1);
  EXPECT_THROW(fused.evaluate(too_many, results), std::invalid_argument);
  std::vector<std::vector<cplx::Complex<double>>> wrong_dim = {
      std::vector<cplx::Complex<double>>(5)};
  EXPECT_THROW(fused.evaluate(wrong_dim, results), std::invalid_argument);
}

TEST(FusedParity, PartialBatchAllowed) {
  const auto sys = make_system(6, 4, 3, 2);
  simt::Device device;
  core::FusedGpuEvaluator<double> fused(device, sys, 8);
  const auto points = points_for<double>(2, 6, 600);
  std::vector<poly::EvalResult<double>> results;
  EXPECT_NO_THROW(fused.evaluate(points, results));
  EXPECT_EQ(results.size(), 2u);
}

}  // namespace
