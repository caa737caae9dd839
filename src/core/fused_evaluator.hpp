#pragma once

/// \file fused_evaluator.hpp
/// Single-launch fused evaluation pipeline.
///
/// The paper's central design argument (section 3.1) is that fusing the
/// powers computation INTO the common-factor kernel beats a separate
/// powers kernel, because the fusion avoids a global-memory round trip.
/// This evaluator applies the same argument one level up and fuses all
/// three kernels into one launch:
///
///   * one thread block owns one evaluation point and loops over all of
///     the point's monomials (a persistent-block schedule, instead of
///     the paper's one-thread-per-monomial grid);
///   * the common factor never travels through global memory -- it is
///     computed from the shared powers table and consumed in the same
///     register in which the Speelpenning derivatives are scaled,
///     eliminating the CommonFactors store+load round trip entirely;
///   * the phase barrier between the monomial loop and the summation
///     loop replaces the kernel-2/kernel-3 launch boundary, so one
///     launch (not three) covers the whole evaluation.
///
/// The cost: a block must cover a whole point, which caps per-point
/// parallelism at one block -- throughput comes from batching points
/// (grid = batch), which is exactly the workload of a path tracker
/// advancing many paths in lockstep.  The three-kernel pipeline stays
/// available (GpuEvaluator / BatchGpuEvaluator) as the ablation
/// baseline.
///
/// Tenant routing.  The same evaluator carries the solve service's
/// cross-request rounds: built by the tenant constructor, it holds up to
/// `max_tenants` systems sharing one uniform (n, m, k, d) structure.
/// Uniform structure makes every tenant's table strides identical, so
/// the systems' positions/exponents (constant memory) and folded
/// coefficients (global memory) concatenate, and a per-point tenant-id
/// buffer routes each block to its own tables: ONE launch evaluates
/// points of several requests, amortizing the per-launch overhead over
/// requests as batching amortizes it over points.  Routing is the same
/// kernel builders with a tenant-id buffer bound; a tenant's base
/// offset changes WHICH table entries a block reads, never the operation
/// order, so a routed point is bit-identical to the same point through
/// its tenant's own single-tenant evaluator.
///
/// The device-resident state (constant tables, folded coefficients,
/// Mons scratch) and the kernel construction live in
/// detail::FusedSystemState / detail::build_fused_kernel so the
/// pipelined double-buffered variant (pipelined_evaluator.hpp) can
/// share them while owning two X/Outputs buffer pairs.
///
/// Memoized block statistics.  A fused block's memory-access pattern is
/// fixed by its block index and its tenant's tables, never by the point
/// (see build_fused), and the block index enters only through where the
/// block's slices of X, the outputs and Mons start -- so blocks b and
/// b + P count the same, with P the kernel's block_stats_period
/// (make_fused_memo).  Each kernel carries a simt::BlockStatsMemo with
/// one row per tenant slot, keyed by (tenant, b mod P): the lowest block
/// of a (tenant, class) pair runs instrumented once and every other
/// block bare, and set_tenant forgets the tenant's row.  Unchecked
/// launches pay the access bookkeeping once per pair instead of once per
/// block; detect_races launches bypass it.  The phases are generic
/// lambdas, so a bare block runs the same phase code over the lean
/// simt::BareThread context.
///
/// Steady-state evaluate() calls perform zero heap allocations: the
/// packed system, kernels, staging vectors and device buffers are all
/// built once in the constructor, and tenant tables upload at
/// set_tenant (admission time).  The exception is the Device launch
/// log, which grows by one entry per launch -- long-running callers
/// should clear it periodically (Device::clear_log keeps capacity).

#include <algorithm>
#include <array>
#include <cstddef>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/kernels.hpp"
#include "poly/eval_result.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::core {

/// The fused pipeline's block-geometry HEURISTIC -- since the measured
/// autotuner (tune/autotuner.hpp) landed, this is the cache-miss seed
/// (candidate zero of every tuned sweep) and the
/// `TuningMode::kHeuristic` escape hatch, not the default decision
/// maker.  Choose the block size from the system structure (n, m, k),
/// the batch size and the device's SM count.  One block owns one point,
/// so the grid IS the batch: once the batch covers the SMs, inter-block
/// parallelism hides per-thread serial depth and the narrowest block
/// (one warp) minimizes per-block overhead.  An under-full grid instead
/// widens the block, moving the idle SMs' worth of parallelism inside
/// the point: enough threads that the busier of the two per-point loops
/// (nm monomials in phase 2, n^2+n outputs in phase 3) runs only a few
/// trips per thread -- deep monomials (~5k multiplications each, large
/// k) keep a lane busy across more trips -- but never wider than the
/// narrower loop, whose surplus lanes would idle a whole phase.
[[nodiscard]] constexpr unsigned pick_block_size(unsigned n, unsigned m, unsigned k,
                                                 unsigned batch,
                                                 unsigned sm_count) noexcept {
  constexpr unsigned kWarp = 32;
  constexpr std::uint64_t kMaxBlock = 256;
  if (sm_count == 0) sm_count = 1;
  if (batch >= sm_count) return kWarp;
  const std::uint64_t monomials = std::uint64_t{n} * m;
  const std::uint64_t outputs = std::uint64_t{n} * (n + 1);
  const std::uint64_t trips = k >= 6 ? 8 : 4;
  std::uint64_t threads = (std::max(monomials, outputs) + trips - 1) / trips;
  threads = std::min({threads, std::min(monomials, outputs), kMaxBlock});
  return static_cast<unsigned>((std::max<std::uint64_t>(threads, 1) + kWarp - 1) /
                               kWarp) *
         kWarp;
}

/// The historical 4-argument form, pinned to the paper's C2050 (14
/// SMs).  Callers that know their device pass its SM count instead --
/// the evaluators feed spec().multiprocessors, so a heterogeneous
/// registry no longer tunes every shard for a Fermi.
[[nodiscard]] constexpr unsigned pick_block_size(unsigned n, unsigned m, unsigned k,
                                                 unsigned batch) noexcept {
  return pick_block_size(n, m, k, batch, 14u);  // DeviceSpec::tesla_c2050
}

namespace detail {

/// Device-resident state every fused-pipeline variant shares: constant
/// tables and folded coefficients for N tenant systems of one uniform
/// structure, the per-point Mons scratch (written and read inside one
/// launch, so one copy serves any number of in-flight point buffers) and
/// the shared-memory budget.  Tenant t's positions/exponents start at
/// t * support_stride and its coefficient portions at
/// t * layout.coeffs_size(); a one-tenant state is the plain system.
/// The X and Outputs buffers stay with the evaluator: the plain
/// evaluator owns one pair, the pipelined evaluator double-buffers two.
template <prec::RealScalar S>
struct FusedSystemState {
  using C = cplx::Complex<S>;

  SystemLayout layout;
  ExponentEncoding encoding;
  std::uint64_t support_stride;  ///< support entries per tenant (n*m*k)
  simt::ConstantBuffer<unsigned char> positions, exponents;
  simt::GlobalBuffer<C> coeffs;
  InterchangeBuffer<S> mons;
  /// Shared memory: the point (n) and the powers table (n*d).  Unlike
  /// the paper's kernel 2, the per-thread L_1..L_{k+1} strip lives in
  /// registers/local memory: it is thread-private, so shared memory
  /// buys it nothing but bank pressure, and keeping it local lifts the
  /// shared-capacity ceiling on the block size.
  std::size_t shared_bytes;
  /// Host mirrors of the three tables: install() splices one tenant in
  /// and re-uploads each table whole.
  std::vector<unsigned char> host_positions, host_exponents;
  std::vector<C> host_coeffs;

  /// Size zeroed tables for `tenant_slots` systems of `structure`;
  /// nothing is uploaded until install() or upload_tables().
  FusedSystemState(simt::Device& device, const poly::UniformStructure& structure,
                   unsigned tenant_slots, unsigned batch_capacity,
                   ExponentEncoding enc, InterchangeLayout interchange)
      : layout(structure),
        encoding(enc),
        support_stride(layout.total_monomials() * structure.k),
        shared_bytes(std::size_t{structure.n} * (1 + structure.d) * sizeof(C)),
        host_positions(support_stride * tenant_slots, 0),
        host_exponents(encoded_exponent_bytes(enc, support_stride) * tenant_slots, 0),
        host_coeffs(layout.coeffs_size() * tenant_slots, C{}) {
    positions = device.alloc_constant<unsigned char>(host_positions.size(), "Positions");
    exponents = device.alloc_constant<unsigned char>(host_exponents.size(), "Exponents");
    coeffs = device.alloc_global<C>(host_coeffs.size(), "Coeffs");
    mons.allocate(device, std::size_t{batch_capacity} * layout.mons_size(),
                  "Mons[batch]", interchange);
    mons.fill_zero(device);
  }

  /// One system, installed as the only tenant.
  FusedSystemState(simt::Device& device, const PackedSystem& packed,
                   unsigned batch_capacity, ExponentEncoding enc,
                   InterchangeLayout interchange)
      : FusedSystemState(device, packed.structure, 1, batch_capacity, enc, interchange) {
    install(device, 0, packed);
  }

  /// Install (or replace) tenant `tenant`: splice its positions and
  /// encoded exponents into the mirrors, fold its exponent factors into
  /// the coefficient portions in the working precision (portion j < k
  /// holds c * a_j, portion k holds c) and upload the three tables.
  void install(simt::Device& device, unsigned tenant, const PackedSystem& packed) {
    const auto s = layout.structure();
    if (!(packed.structure == s))
      throw std::invalid_argument("FusedGpuEvaluator: tenant structure mismatch");
    const auto encoded = encode_exponents(encoding, packed.exponents);
    std::copy(packed.positions.begin(), packed.positions.end(),
              host_positions.begin() + tenant * support_stride);
    std::copy(encoded.begin(), encoded.end(),
              host_exponents.begin() + tenant * encoded.size());
    const std::size_t stride = layout.coeffs_size();
    fold_coefficients(packed, layout, std::span<C>(host_coeffs).subspan(tenant * stride, stride));
    upload_tables(device);
  }

  void upload_tables(simt::Device& device) const {
    device.upload_constant(positions, std::span<const unsigned char>(host_positions));
    device.upload_constant(exponents, std::span<const unsigned char>(host_exponents));
    device.upload(coeffs, std::span<const C>(host_coeffs));
  }
};

/// Phase 1 shared by the full and values-only fused kernels: one
/// coalesced read of the block's point serves both the shared copy of
/// the variables and the powers table (row 0 ones, row e holding x^e).
/// One lambda serves both kernels, so the tables the values kernel's
/// bitwise contract depends on cannot drift from the full kernel's.
template <prec::RealScalar S>
[[nodiscard]] auto make_fused_point_phase(simt::GlobalBuffer<cplx::Complex<S>> x,
                                          unsigned n, unsigned d,
                                          std::size_t svars_off,
                                          std::size_t powers_off) {
  using C = cplx::Complex<S>;
  return [x, n, d, svars_off, powers_off](auto& ctx) {
    const std::size_t point = ctx.block_index();
    auto svars = ctx.template shared_array<C>(svars_off, n);
    auto powers = ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
    bool worked = false;
    for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
      worked = true;
      const C xv = ctx.load(x, point * n + v);
      svars.set(v, xv);
      powers.set(v, C(S(1.0)));  // row 0: x^0
      if (d >= 2) {
        powers.set(std::size_t{n} + v, xv);
        for (unsigned e = 2; e < d; ++e) {
          const C next = powers.get(std::size_t{e - 1} * n + v) * xv;
          ctx.op_cmul();
          powers.set(std::size_t{e} * n + v, next);
        }
      }
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// Phase 2 shared by the full and values-only fused kernels (kernels 1
/// and 2 fused): each thread loops over its share of the point's
/// monomials, loads the monomial's support and forms its common factor
/// from the shared powers table -- in-register, no global interchange.
/// kJacobian selects the rest: the full kernel's Speelpenning
/// derivatives and k+1 coefficient products, or the values kernel's one
/// product (see build_fused_values_kernel).
///
/// A valid `tenant_ids` buffer turns on tenant routing: every thread
/// loads its block's tenant id once, and every table index shifts by
/// that tenant's base offset.  The full kernel then also re-zeroes each
/// monomial's derivative slots before its sparse stores: a previous
/// launch may have run a DIFFERENT tenant on this point slot, leaving
/// derivatives at variable positions this tenant's monomial never
/// writes.  Without routing the positions never change, so the
/// construction-time zero fill suffices.
template <prec::RealScalar S, bool kJacobian>
[[nodiscard]] auto make_fused_monomial_phase(const FusedSystemState<S>& sys,
                                             simt::GlobalBuffer<unsigned> tenant_ids,
                                             std::size_t svars_off,
                                             std::size_t powers_off) {
  using C = cplx::Complex<S>;
  const auto layout = sys.layout;
  const auto s = layout.structure();
  const unsigned n = s.n, d = s.d, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();
  const std::uint64_t support_stride = sys.support_stride;
  const std::uint64_t coeff_stride = layout.coeffs_size();
  const bool routed = tenant_ids.valid();
  const auto enc = sys.encoding;
  const auto coeffs = sys.coeffs;
  const auto mons = sys.mons;
  const auto positions = sys.positions;
  const auto exponents = sys.exponents;

  return [mons, coeffs, positions, exponents, tenant_ids, enc, layout, n, d, k,
          monomials, support_stride, coeff_stride, routed, svars_off,
          powers_off](auto& ctx) {
    const std::size_t point = ctx.block_index();
    std::uint64_t support_base = 0, coeff_base = 0;
    if (routed) {
      const std::uint64_t tenant = ctx.load(tenant_ids, point);
      support_base = tenant * support_stride;
      coeff_base = tenant * coeff_stride;
    }
    auto svars = ctx.template shared_array<C>(svars_off, n);
    auto powers = ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
    // Thread-private L_1..L_{k+1} strip and position cache
    // (registers/local memory, not shared -- see the shared-memory note
    // in FusedSystemState).  Entries below k are always written before
    // they are read; the values kernel needs one slot, its product.
    // The strip is raw bytes rather than a std::array<C>, whose default
    // member initializers would zero-fill all 257 entries on every call.
    // C is implicit-lifetime (trivially copyable and destructible), so
    // the byte array implicitly creates the C objects, values unset.
    static_assert(std::is_trivially_copyable_v<C> &&
                  std::is_trivially_destructible_v<C>);
    alignas(C) std::byte ell_bytes[(kJacobian ? 257 : 1) * sizeof(C)];
    C* const ell = std::launder(reinterpret_cast<C*>(ell_bytes));
    std::array<unsigned, 256> pos;
    const std::size_t mons_base = point * layout.mons_size();

    bool worked = false;
    for (std::uint64_t g = ctx.thread_index(); g < monomials; g += ctx.block_dim()) {
      worked = true;

      for (unsigned j = 0; j < k; ++j)
        pos[j] = ctx.load_constant(positions, support_base + layout.support_index(g, j));
      const auto var = [&](unsigned j) { return svars.get(pos[j]); };
      const auto coeff = [&](unsigned portion) {
        return ctx.load(coeffs, coeff_base + layout.coeff_index(portion, g));
      };

      // Common factor from the powers table: k-1 multiplications.
      C cf(S(1.0));
      for (unsigned j = 0; j < k; ++j) {
        const unsigned em1 = load_exponent(ctx, exponents, enc,
                                           support_base + layout.support_index(g, j));
        const C val = powers.get(std::size_t{em1} * n + pos[j]);
        if (j == 0) {
          cf = val;
        } else {
          cf = cf * val;
          ctx.op_cmul();
        }
      }

      if constexpr (kJacobian) {
        // Speelpenning derivatives into L_1..L_k: 3k-6 for k >= 3.
        if (k == 2) {
          ell[0] = var(1);
          ell[1] = var(0);
        } else if (k >= 3) {
          ell[1] = var(0);
          for (unsigned r = 2; r < k; ++r) {
            ell[r] = ell[r - 1] * var(r - 1);
            ctx.op_cmul();
          }
          C q = var(k - 1);
          ell[k - 2] = ell[k - 2] * q;
          ctx.op_cmul();
          for (unsigned r = 1; r + 2 < k; ++r) {
            q = q * var(k - 1 - r);
            ctx.op_cmul();
            ell[k - 2 - r] = ell[k - 2 - r] * q;
            ctx.op_cmul();
          }
          ell[0] = q * var(1);
          ctx.op_cmul();
        }

        // Scale by the in-register common factor (k multiplications;
        // for k == 1 the derivative IS the factor).
        if (k == 1) {
          ell[0] = cf;
        } else {
          for (unsigned j = 0; j < k; ++j) {
            ell[j] = ell[j] * cf;
            ctx.op_cmul();
          }
        }

        // Monomial value from its last derivative (1 multiplication).
        ell[k] = ell[k - 1] * var(k - 1);
        ctx.op_cmul();

        // Coefficient products (k+1 multiplications).
        for (unsigned j = 0; j <= k; ++j) {
          ell[j] = ell[j] * coeff(j);
          ctx.op_cmul();
        }

        if (routed)
          for (unsigned q = 0; q < n; ++q)
            mons.store(ctx, mons_base + layout.mons_deriv_index(g, q), C{});
        mons.store(ctx, mons_base + layout.mons_value_index(g), ell[k]);
        for (unsigned j = 0; j < k; ++j)
          mons.store(ctx, mons_base + layout.mons_deriv_index(g, pos[j]), ell[j]);
      } else {
        // The full kernel's value: ((var(0)..var(k-2)) * cf) * var(k-1)
        // -- its last Speelpenning derivative scaled by the factor,
        // times the last variable.  k == 1 degenerates to cf * var(0).
        C& p = ell[0];
        p = cf;
        if (k >= 2) {
          p = var(0);
          for (unsigned r = 2; r < k; ++r) {
            p = p * var(r - 1);
            ctx.op_cmul();
          }
          p = p * cf;
          ctx.op_cmul();
        }
        p = p * var(k - 1);
        ctx.op_cmul();

        // Value coefficient (portion k), as in the full kernel.
        p = p * coeff(k);
        ctx.op_cmul();

        mons.store(ctx, mons_base + layout.mons_value_index(g), p);
      }
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// Summation phase shared by the full and values-only fused kernels
/// (kernel 3 behind the block barrier): each thread sums its share of
/// the point's first `out_count` outputs -- n^2+n for the full kernel,
/// n (the value rows only) for the values kernel -- into
/// out_buf[point * out_count + out].  One lambda, one accumulation
/// order, so the two kernels' sums cannot drift.
template <prec::RealScalar S>
[[nodiscard]] auto make_fused_summation_phase(InterchangeBuffer<S> mons,
                                              simt::GlobalBuffer<cplx::Complex<S>> out_buf,
                                              SystemLayout layout, unsigned m,
                                              std::uint64_t out_count) {
  using C = cplx::Complex<S>;
  return [mons, out_buf, layout, m, out_count](auto& ctx) {
    const std::size_t point = ctx.block_index();
    const std::size_t mons_base = point * layout.mons_size();
    bool worked = false;
    for (std::uint64_t out = ctx.thread_index(); out < out_count;
         out += ctx.block_dim()) {
      worked = true;
      C sum = mons.load(ctx, mons_base + layout.mons_index(out, 0));
      for (unsigned j = 1; j < m; ++j) {
        sum += mons.load(ctx, mons_base + layout.mons_index(out, j));
        ctx.op_cadd();
      }
      ctx.store(out_buf, point * out_count + out, sum);
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// A fused phase as a simt::Phase: with the FMA entries when the
/// scalar's inline arithmetic calls std::fma (double-double), so its
/// products inline the instruction on an FMA host.  Other scalars keep
/// the baseline entries (see simt::Phase for why double does).
template <prec::RealScalar S, class F>
[[nodiscard]] simt::Phase fused_phase(F f) {
  if constexpr (prec::ScalarTraits<S>::inline_fma)
    return {std::move(f), true};
  else
    return f;
}

/// The three phases of one fused kernel over the given point/output
/// buffer pair, `out_count` outputs per point.
///
/// The BlockStatsMemo contract: a block's access stream -- which
/// addresses, shared words and constant entries each thread touches, in
/// which order, and every operation it counts -- depends only on its
/// block index and its tenant's tables (positions and exponents), never
/// on the point's or the coefficients' values.  The evaluators key their
/// memos on that pair, the block index reduced to its class
/// (make_fused_memo); a phase that branched on a loaded value would
/// break it, and the memo guard would throw at the first launch that
/// took the other branch.  The make_fused_*_phase functions return
/// generic lambdas (`auto& ctx`): simt::Phase compiles each over
/// ThreadContext for checked and memo-miss launches and over BareThread
/// for memo hits, one body for both.  The plain, routed and
/// pipelined evaluators all build here, so a double-double kernel takes
/// the FMA entries on every one of them (fused_phase); the three-kernel
/// evaluators, the bitwise reference, keep the baseline entries.
template <prec::RealScalar S, bool kJacobian>
[[nodiscard]] simt::Kernel build_fused(const FusedSystemState<S>& sys, const char* name,
                                       simt::GlobalBuffer<cplx::Complex<S>> x,
                                       simt::GlobalBuffer<cplx::Complex<S>> out_buf,
                                       std::uint64_t out_count,
                                       simt::GlobalBuffer<unsigned> tenant_ids) {
  const auto s = sys.layout.structure();
  // Shared layout offsets (bytes): the point, then the powers table.
  const std::size_t svars_off = 0;
  const std::size_t powers_off = std::size_t{s.n} * sizeof(cplx::Complex<S>);
  simt::Kernel kernel;
  kernel.name = name;
  kernel.phases = {
      fused_phase<S>(make_fused_point_phase<S>(x, s.n, s.d, svars_off, powers_off)),
      fused_phase<S>(
          make_fused_monomial_phase<S, kJacobian>(sys, tenant_ids, svars_off, powers_off)),
      fused_phase<S>(
          make_fused_summation_phase<S>(sys.mons, out_buf, sys.layout, s.m, out_count)),
  };
  return kernel;
}

/// Build the fused single-launch kernel over the given point/output
/// buffer pair: all n^2+n outputs of every point.  The pipelined
/// evaluator calls this twice (one kernel per double-buffer slot); the
/// buffers are cheap handles captured by value in the phase closures.
/// Binding `tenant_ids` (one id per point) builds the routed kernel.
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel build_fused_kernel(const FusedSystemState<S>& sys,
                                              simt::GlobalBuffer<cplx::Complex<S>> x,
                                              simt::GlobalBuffer<cplx::Complex<S>> outputs_buf,
                                              simt::GlobalBuffer<unsigned> tenant_ids = {}) {
  // <= 15 chars: KernelStats copies the name per launch, and an
  // SSO-sized string keeps that copy off the allocator.
  return build_fused<S, true>(sys, tenant_ids.valid() ? "mt_fused" : "fused_eval", x,
                              outputs_buf, sys.layout.num_outputs(), tenant_ids);
}

/// The statistics memo of a fused kernel over `sys` with `out_count`
/// outputs per point: `rows` rows of `blocks` blocks, keyed by the
/// block class of the kernel's per-point buffers -- X and the outputs
/// (out_count elements per point) and Mons at its interchange element
/// size (see simt::block_stats_period).  The routed tenant id, which
/// every lane of a block reads at one address, does not enter.
template <prec::RealScalar S>
[[nodiscard]] simt::BlockStatsMemo make_fused_memo(const FusedSystemState<S>& sys,
                                                   std::uint64_t out_count, unsigned rows,
                                                   unsigned blocks,
                                                   const simt::DeviceSpec& spec) {
  using C = cplx::Complex<S>;
  const std::uint64_t mons_element =
      sys.mons.layout == InterchangeLayout::kAoS ? sizeof(C) : sizeof(S);
  const std::uint64_t strides[] = {std::uint64_t{sys.layout.structure().n} * sizeof(C),
                                   out_count * sizeof(C),
                                   sys.layout.mons_size() * mons_element};
  return simt::BlockStatsMemo(rows, blocks,
                              simt::block_stats_period(spec, strides, blocks));
}

/// Build the fused VALUES-ONLY kernel over the given point/values buffer
/// pair: one launch computes f(x) for every point of the batch, skipping
/// all Jacobian work and the n^2 derivative sums a residual discards.
/// The trackers do not launch it (a lockstep round's cap and stall
/// probes read the values of its one full launch); perfbench's values
/// figures, kernel_audit and the evaluator tests do.
///
/// Bitwise contract: every value is computed with EXACTLY the full
/// kernel's operation order -- common factor from the powers table, the
/// forward prefix product var(0)..var(k-2) (the full kernel's L_{k-1}
/// before suffix scaling), then * cf, * var(k-1), * value coefficient --
/// so values-only results equal the values of a full evaluation bit for
/// bit, and a caller may mix the two paths freely.  Only the value
/// slots of Mons are written; the summation phase reads only the n value
/// rows (outputs [0, n)), never the stale derivative slots.
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel build_fused_values_kernel(
    const FusedSystemState<S>& sys, simt::GlobalBuffer<cplx::Complex<S>> x,
    simt::GlobalBuffer<cplx::Complex<S>> values_buf,
    simt::GlobalBuffer<unsigned> tenant_ids = {}) {
  return build_fused<S, false>(sys, tenant_ids.valid() ? "mt_fused_vals" : "fused_values",
                               x, values_buf, sys.layout.structure().n, tenant_ids);
}

}  // namespace detail

template <prec::RealScalar S>
class FusedGpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// Threads per block; 0 (the default) resolves through the measured
    /// autotuner (or, under TuningMode::kHeuristic, to
    /// pick_block_size(n, m, k, batch_capacity, SMs) -- one warp once
    /// the batch fills the SMs, wider blocks for under-full grids).
    unsigned block_size = 0;
    ExponentEncoding encoding = ExponentEncoding::kChar;
    /// Element layout of the Mons interchange buffer (the only
    /// interchange left once the common factor stays in registers);
    /// nullopt (the default) resolves with the block size: measured
    /// tuning picks per workload, the heuristic pins AoS.  Results are
    /// bitwise identical under either layout.
    std::optional<InterchangeLayout> interchange;
    /// How the auto knobs above resolve.  Measured tuning may change
    /// TIMING only -- results are pinned bitwise identical across the
    /// modes (tests/test_tune.cpp).  Tuned resolution applies when both
    /// geometry knobs are auto; pinning either one pins the other to
    /// the heuristic seed (a half-pinned key would poison the cache).
    /// The tenant constructor always resolves heuristically.
    tune::TuningMode tuning = tune::TuningMode::kMeasured;
    /// The race journals are a debugging aid (the cuda-memcheck
    /// analogue); the production fast path skips the per-access
    /// bookkeeping.  Parity tests run with detection on.
    bool detect_races = false;
  };

  /// Packs the system and sizes the device arrays for `batch_capacity`
  /// simultaneous points.
  FusedGpuEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
                    unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(resolve_options(device, system, batch_capacity, options)),
        capacity_(batch_capacity),
        sys_(device, pack_system(system), batch_capacity, options_.encoding,
             *options_.interchange) {
    if (capacity_ == 0)
      throw std::invalid_argument("FusedGpuEvaluator: zero batch capacity");
    build(/*routed=*/false);
  }

  /// The tenant-routed evaluator: zeroed tables for `max_tenants`
  /// systems of `structure`, installed later by set_tenant, and a
  /// per-point tenant id (bind_tenants) choosing each point's tables.
  /// Geometry never probes: pinned knobs stay, auto ones take the
  /// pick_block_size seed and AoS (the service pins the structure's
  /// tuned winner, resolved once per SystemCache entry).  Tenant
  /// strides assume one byte per support entry, so only
  /// ExponentEncoding::kChar is accepted.
  FusedGpuEvaluator(simt::Device& device, const poly::UniformStructure& structure,
                    unsigned max_tenants, unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(resolve_tenant_options(device, structure, max_tenants, batch_capacity,
                                        options)),
        capacity_(batch_capacity),
        sys_(device, structure, max_tenants, batch_capacity, options_.encoding,
             *options_.interchange) {
    tenant_present_.assign(max_tenants, 0);
    build(/*routed=*/true);
    sys_.upload_tables(device_);
    staged_tenants_.resize(capacity_);
  }

  [[nodiscard]] unsigned dimension() const noexcept { return sys_.layout.structure().n; }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  /// Tenant slots; 0 unless built by the tenant constructor.
  [[nodiscard]] unsigned max_tenants() const noexcept {
    return static_cast<unsigned>(tenant_present_.size());
  }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return sys_.layout; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Launches issued per evaluate_range call (shard schedulers pre-size
  /// device logs with this).
  static constexpr unsigned kLaunchesPerBatch = 1;
  [[nodiscard]] unsigned launches_per_batch() const noexcept {
    return kLaunchesPerBatch;
  }

  /// Install (or replace) tenant `tenant`'s system, which must share the
  /// evaluator's structure: fold it into the tenant's slot and re-upload
  /// the three tables.  An admission-time cost, not a per-round one.
  /// The tenant's memoized block statistics describe the old tables, so
  /// its memo rows are forgotten.  Only the tenant constructor has
  /// tenant slots.
  void set_tenant(unsigned tenant, const poly::PolynomialSystem& system) {
    if (tenant >= tenant_present_.size())
      throw std::invalid_argument("FusedGpuEvaluator: bad tenant");
    sys_.install(device_, tenant, pack_system(system));
    memo_.invalidate_row(tenant);
    values_memo_.invalidate_row(tenant);
    tenant_present_[tenant] = 1;
  }

  /// Mark a tenant slot free (host bookkeeping only -- the tables stay
  /// until a new tenant overwrites them).
  void clear_tenant(unsigned tenant) {
    if (tenant < tenant_present_.size()) tenant_present_[tenant] = 0;
  }

  /// Per-point tenant routing for the NEXT evaluate call(s): point
  /// `first + i` of the call belongs to tenants[first + i].  The span
  /// must stay valid (and at least first + count long) until the call.
  void bind_tenants(std::span<const unsigned> tenants) noexcept { bound_ = tenants; }

  /// Evaluate at points.size() <= batch_capacity() points with one
  /// upload, ONE launch and one download.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    if (points.empty() || points.size() > capacity_)
      throw std::invalid_argument("FusedGpuEvaluator: bad batch size");
    results.resize(points.size());
    evaluate_range(points, 0, points.size(), std::span<poly::EvalResult<S>>(results));
  }

  /// Evaluate the `count` points starting at points[first], writing
  /// out[i] for the i-th point of the range -- the shard-facing entry
  /// point: a ShardedEvaluator hands each shard contiguous point ranges
  /// and the matching slices of the caller's result buffer, so merged
  /// results land in point-index (deterministic) order no matter which
  /// shard computed them.  One upload (plus the tenant ids when
  /// routed), ONE launch, one download; each point's arithmetic is
  /// independent of the range it rode in (one block per point), so
  /// results are bitwise identical under any chunking.
  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<S>> out) {
    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;
    const unsigned batch = stage_range(points, first, count, out.size(), count);
    launch(kernel_, memo_, batch);

    host_outputs_.resize(std::size_t{batch} * sys_.layout.num_outputs());
    device_.download(outputs_, std::span<C>(host_outputs_));

    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(sys_.layout, std::span<const C>(host_outputs_),
                                std::size_t{p} * sys_.layout.num_outputs(), out[p]);

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Values-only counterpart of evaluate_range: f at the `count` points
  /// starting at points[first] in ONE launch of the fused values kernel,
  /// out[i*n + q] receiving value q of the i-th point of the range.  No
  /// Jacobian work runs and only batch*n values ride the PCIe download,
  /// while every value is bitwise identical to a full evaluation's
  /// (build_fused_values_kernel).  Callers: perfbench's values figures,
  /// kernel_audit and the evaluator tests.
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::size_t first, std::size_t count, std::span<C> out) {
    const unsigned s_n = dimension();
    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;
    const unsigned batch = stage_range(points, first, count, out.size(), count * s_n);
    launch(values_kernel_, values_memo_, batch);

    device_.download(values_, out.subspan(0, std::size_t{batch} * s_n));

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Single-point values-only convenience: a batch of one.
  void evaluate_values(std::span<const C> x, std::span<C> values) {
    if (x.size() != dimension())
      throw std::invalid_argument("FusedGpuEvaluator: point has wrong dimension");
    single_point_.resize(1);
    single_point_[0].assign(x.begin(), x.end());
    evaluate_values_range(single_point_, 0, 1, values);
  }

  /// Single-point convenience: a batch of one.
  void evaluate(std::span<const C> x, poly::EvalResult<S>& out) {
    if (x.size() != dimension())
      throw std::invalid_argument("FusedGpuEvaluator: point has wrong dimension");
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

  /// Kernel statistics and transfer volumes of the last evaluate() call.
  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  /// Heuristic geometry: pinned knobs stay, an auto block size takes the
  /// pick_block_size seed for the device's SM count, an auto layout AoS.
  [[nodiscard]] static Options heuristic_options(const simt::Device& device,
                                                 const poly::UniformStructure& st,
                                                 unsigned capacity, Options options) {
    if (options.block_size == 0)
      options.block_size =
          pick_block_size(st.n, st.m, st.k, capacity, device.spec().multiprocessors);
    if (!options.interchange) options.interchange = InterchangeLayout::kAoS;
    return options;
  }

  /// Resolve the auto geometry knobs (block_size == 0, interchange ==
  /// nullopt) before any member consumes them.  Measured mode (both
  /// knobs auto): route through the global Autotuner -- on a cache miss
  /// each candidate geometry is probed on a SCRATCH device (same spec,
  /// same host workers) with a full-capacity zero-point batch (values
  /// cannot move a memory access, so zeros measure exactly the steady
  /// state's statistics) and scored by estimate_log_us under the
  /// scalar's cost factor.  The probe launch is statistics-only: it
  /// runs one block per block class and discards its outputs.
  /// Heuristic mode, or any knob pinned: heuristic_options.  Candidate
  /// probes construct themselves with kHeuristic and explicit geometry,
  /// so resolution can never recurse.
  [[nodiscard]] static Options resolve_options(simt::Device& device,
                                               const poly::PolynomialSystem& system,
                                               unsigned capacity, Options options) {
    // Fully pinned (every tuning probe): nothing to resolve, skip the pack.
    if (options.block_size != 0 && options.interchange.has_value()) return options;
    const auto st = pack_system(system).structure;
    if (options.tuning == tune::TuningMode::kHeuristic || options.block_size != 0 ||
        options.interchange.has_value() || capacity == 0)
      return heuristic_options(device, st, capacity, options);

    const unsigned seed =
        pick_block_size(st.n, st.m, st.k, capacity, device.spec().multiprocessors);
    const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
    const auto key = tune::TuneKey::make(tune::TunedSchedule::kFused, st, capacity,
                                         0, width, device.spec());
    const unsigned blocks[] = {32, 64, 128, 256};
    const unsigned streams[] = {2};
    const auto candidates = tune::standard_candidates(seed, blocks, streams);
    const auto decision = tune::Autotuner::global().tune(
        key, std::span<const tune::TuneCandidate>(candidates),
        [&](const tune::TuneCandidate& cand) -> std::optional<tune::ProbeOutcome> {
          simt::Device probe_device(device.spec(), device.host_workers());
          Options copt = options;
          copt.block_size = cand.block_size;
          copt.interchange = cand.interchange;
          copt.tuning = tune::TuningMode::kHeuristic;
          FusedGpuEvaluator probe(probe_device, system, capacity, copt);
          probe.statistics_only_ = true;
          std::vector<std::vector<C>> pts(capacity, std::vector<C>(st.n, C{}));
          std::vector<poly::EvalResult<S>> res(capacity);
          probe.evaluate_range(pts, 0, capacity,
                               std::span<poly::EvalResult<S>>(res));
          simt::GpuCostModel cost;
          cost.scalar_cost_factor = simt::scalar_cost_factor_for_width(width);
          tune::ProbeOutcome outcome;
          outcome.modeled_us =
              simt::estimate_log_us(probe.last_log(), probe_device.spec(), cost);
          outcome.log = probe.last_log();
          return outcome;
        });
    options.block_size = decision.choice.block_size;
    options.interchange = decision.choice.interchange;
    return options;
  }

  /// The tenant constructor's resolution, validating before any device
  /// allocation.
  [[nodiscard]] static Options resolve_tenant_options(const simt::Device& device,
                                                      const poly::UniformStructure& st,
                                                      unsigned max_tenants,
                                                      unsigned capacity, Options options) {
    if (max_tenants == 0) throw std::invalid_argument("FusedGpuEvaluator: zero tenants");
    if (capacity == 0)
      throw std::invalid_argument("FusedGpuEvaluator: zero batch capacity");
    if (options.encoding != ExponentEncoding::kChar)
      throw std::invalid_argument("FusedGpuEvaluator: tenant tables need kChar exponents");
    return heuristic_options(device, st, capacity, options);
  }

  /// Shared constructor tail: the point/output buffers (plus the
  /// per-point tenant ids when routed), the two kernels over them, their
  /// statistics memos (a row per tenant slot, one row unrouted) and the
  /// reused host staging.
  void build(bool routed) {
    const unsigned n = dimension();
    const std::uint64_t outs = sys_.layout.num_outputs();
    x_ = device_.alloc_global<C>(std::size_t{capacity_} * n, "X[batch]");
    outputs_ = device_.alloc_global<C>(std::size_t{capacity_} * outs, "Outputs[batch]");
    values_ = device_.alloc_global<C>(std::size_t{capacity_} * n, "Values[batch]");
    if (routed) tenant_ids_ = device_.alloc_global<unsigned>(capacity_, "Tenants[batch]");
    kernel_ = detail::build_fused_kernel<S>(sys_, x_, outputs_, tenant_ids_);
    values_kernel_ = detail::build_fused_values_kernel<S>(sys_, x_, values_, tenant_ids_);
    const unsigned rows = routed ? max_tenants() : 1;
    memo_ = detail::make_fused_memo<S>(sys_, outs, rows, capacity_, device_.spec());
    values_memo_ = detail::make_fused_memo<S>(sys_, n, rows, capacity_, device_.spec());

    flat_.reserve(std::size_t{capacity_} * n);
    host_outputs_.reserve(std::size_t{capacity_} * outs);
  }

  /// Shared head of the two range entry points: validate the range
  /// against the batch capacity, the caller's output span (sized
  /// `out_needed`) and, when routed, the bound tenant ids; pack the
  /// points into the staging buffer and upload X (and the ids).  Throws
  /// before any device work; returns the batch size.
  unsigned stage_range(const std::vector<std::vector<C>>& points, std::size_t first,
                       std::size_t count, std::size_t out_size,
                       std::size_t out_needed) {
    const unsigned s_n = dimension();
    const bool routed = tenant_ids_.valid();
    if (count == 0 || count > capacity_)
      throw std::invalid_argument("FusedGpuEvaluator: bad batch size");
    if (first > points.size() || count > points.size() - first ||
        out_size < out_needed)
      throw std::invalid_argument("FusedGpuEvaluator: bad point range");
    if (routed && bound_.size() < first + count)
      throw std::invalid_argument("FusedGpuEvaluator: bind_tenants span too short");
    const auto batch = static_cast<unsigned>(count);
    for (std::size_t p = first; p < first + count; ++p) {
      if (points[p].size() != s_n)
        throw std::invalid_argument("FusedGpuEvaluator: point has wrong dimension");
      if (!routed) continue;
      const unsigned tenant = bound_[p];
      if (tenant >= tenant_present_.size() || tenant_present_[tenant] == 0)
        throw std::invalid_argument("FusedGpuEvaluator: point bound to absent tenant");
      staged_tenants_[p - first] = tenant;
    }

    flat_.resize(std::size_t{batch} * s_n);
    for (unsigned p = 0; p < batch; ++p)
      std::copy(points[first + p].begin(), points[first + p].end(),
                flat_.begin() + std::size_t{p} * s_n);
    device_.upload(x_, std::span<const C>(flat_));
    if (routed)
      device_.upload(tenant_ids_,
                     std::span<const unsigned>(staged_tenants_.data(), batch));
    return batch;
  }

  /// Launch `kernel` over the staged batch; routed blocks key `memo` by
  /// their staged tenant id.
  void launch(const simt::Kernel& kernel, simt::BlockStatsMemo& memo, unsigned batch) {
    simt::LaunchConfig cfg{batch, options_.block_size, sys_.shared_bytes};
    cfg.detect_races = options_.detect_races;
    cfg.memo.table = &memo;
    cfg.statistics_only = statistics_only_;
    if (tenant_ids_.valid())
      cfg.memo.rows = std::span<const unsigned>(staged_tenants_.data(), batch);
    (void)device_.launch(kernel, cfg);
  }

  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  detail::FusedSystemState<S> sys_;

  simt::GlobalBuffer<C> x_, outputs_, values_;
  simt::GlobalBuffer<unsigned> tenant_ids_;  ///< valid only when routed
  simt::Kernel kernel_, values_kernel_;
  simt::BlockStatsMemo memo_, values_memo_;  ///< one per kernel, beside it
  /// Set on autotuner probes only: their launches gather statistics and
  /// leave the outputs unwritten (simt::LaunchConfig::statistics_only).
  bool statistics_only_ = false;
  std::vector<C> flat_;          ///< packed upload staging, reused
  std::vector<C> host_outputs_;  ///< download staging, reused
  std::vector<std::vector<C>> single_point_;        ///< single-point staging
  std::vector<poly::EvalResult<S>> single_result_;  ///< single-point staging
  simt::LaunchLog last_log_;

  std::vector<unsigned char> tenant_present_;  ///< by slot; empty unless routed
  std::span<const unsigned> bound_;            ///< per-point tenant routing
  std::vector<unsigned> staged_tenants_;       ///< compacted id upload staging
};

}  // namespace polyeval::core
