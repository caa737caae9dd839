#pragma once

/// \file kernels.hpp
/// The paper's three kernels, expressed for the SIMT simulator.
///
/// Kernel 1 (section 3.1) -- common factors.  Phase one: the block's
/// threads tabulate powers x_v^0 .. x_v^{d-1} of every variable into the
/// shared Powers array ((e, v) indexing so warp writes spread over
/// banks).  Phase two: one thread per monomial multiplies k precomputed
/// powers into the common factor x_{i1}^{a1-1}...x_{ik}^{ak-1}, writing
/// coalesced to global memory.  Every block recomputes the powers -- the
/// paper argues this beats a separate powers kernel round-tripping
/// through global memory.
///
/// Kernel 2 (section 3.2) -- one thread per monomial evaluates the
/// Speelpenning product's k derivatives in 3k-6 multiplications
/// (forward prefix products in shared locations L, backward suffix
/// product in register Q), multiplies by the common factor (k), recovers
/// the monomial value (1), folds in the coefficients (k+1): 5k-4 total.
/// Writes land scattered in the transposed Mons array -- the price of
/// kernel 3's coalesced reads.
///
/// Kernel 3 (section 3.3) -- one thread per output polynomial (n^2+n of
/// them) adds exactly m terms, structural zeros included, keeping every
/// warp lane on the same path; reads coalesce by construction.
///
/// The three kernels serve both three-kernel hosts.  Each builder, the
/// values-only pair included, takes the grid's blocks per point `bpp`:
/// block b serves point b / bpp (see detail::point_thread), and X,
/// CommonFactors, Mons and Outputs are offset by that point's stride.
/// GpuEvaluator launches a one-point grid (bpp = its whole grid, every
/// offset 0); BatchGpuEvaluator grows the grid by the batch.  The
/// section-3.1 ablation kernels (powers_global, common_factors_global)
/// serve one point.  The batched kernels' names stay <= 15 characters:
/// KernelStats copies the name per launch, and an SSO-sized string keeps
/// that copy off the allocator (the zero-alloc steady state).

#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/encoding.hpp"
#include "core/layout.hpp"
#include "poly/eval_result.hpp"
#include "simt/device.hpp"

namespace polyeval::core {

/// A kernel-to-kernel interchange buffer that can live in either the
/// paper's AoS layout (Complex<S> elements) or the vectorization-friendly
/// SoA layout (a re plane followed by an im plane), selected at
/// allocation time by the layout.hpp-level InterchangeLayout switch.
/// Device-side access goes through load/store so the engine's coalescing
/// instrumentation sees the actual per-layout memory instructions; both
/// take any thread context (ThreadContext or, in a fused kernel's bare
/// entry, BareThread).
template <prec::RealScalar S>
struct InterchangeBuffer {
  using C = cplx::Complex<S>;

  InterchangeLayout layout = InterchangeLayout::kAoS;
  std::size_t count = 0;
  simt::GlobalBuffer<C> aos;
  simt::GlobalBuffer<S> planes;  ///< 2*count scalars when layout == kSoA

  void allocate(simt::Device& device, std::size_t n, std::string name,
                InterchangeLayout lay) {
    layout = lay;
    count = n;
    if (lay == InterchangeLayout::kAoS)
      aos = device.alloc_global<C>(n, std::move(name));
    else
      planes = device.alloc_global<S>(2 * n, std::move(name));
  }

  /// Device-side fill (cudaMemset analogue); used for the structural
  /// zeros of Mons.
  void fill_zero(simt::Device& device) const {
    if (layout == InterchangeLayout::kAoS)
      device.fill(aos, C{});
    else
      device.fill(planes, S(0.0));
  }

  [[nodiscard]] C load(auto& ctx, std::size_t i) const {
    if (layout == InterchangeLayout::kAoS) return ctx.load(aos, i);
    const S re = ctx.load(planes, i);
    const S im = ctx.load(planes, count + i);
    return C(re, im);
  }

  void store(auto& ctx, std::size_t i, const C& v) const {
    if (layout == InterchangeLayout::kAoS) {
      ctx.store(aos, i, v);
      return;
    }
    ctx.store(planes, i, v.re());
    ctx.store(planes, count + i, v.im());
  }

  /// Host-side read bypassing instrumentation (tests, debug dumps).
  [[nodiscard]] C host_read(std::size_t i) const {
    if (layout == InterchangeLayout::kAoS) return aos.raw()[i];
    return C(planes.raw()[i], planes.raw()[count + i]);
  }
};

/// Device-resident state of a packed system.
template <prec::RealScalar S>
struct DeviceBuffers {
  using C = cplx::Complex<S>;
  simt::GlobalBuffer<C> x;               ///< the evaluation point (n)
  simt::GlobalBuffer<C> coeffs;          ///< portion-major Coeffs ((k+1)nm)
  InterchangeBuffer<S> common_factors;   ///< kernel 1 -> kernel 2 (nm)
  InterchangeBuffer<S> mons;             ///< kernel 2 -> kernel 3 ((n^2+n)m)
  simt::GlobalBuffer<C> outputs;         ///< kernel 3 results (n^2+n)
  simt::GlobalBuffer<C> powers;          ///< global powers table (n*d), only
                                         ///< for the separate-kernel ablation
  simt::ConstantBuffer<unsigned char> positions;
  simt::ConstantBuffer<unsigned char> exponents;  ///< encoded, see encoding.hpp
};

namespace detail {

/// Exponent-minus-one of support entry `index`, via the constant cache
/// of any thread context.
[[nodiscard]] unsigned load_exponent(auto& ctx,
                                     const simt::ConstantBuffer<unsigned char>& exponents,
                                     ExponentEncoding enc, std::uint64_t index) {
  if (enc == ExponentEncoding::kChar) return ctx.load_constant(exponents, index);
  const unsigned char byte = ctx.load_constant(exponents, index / 2);
  return index % 2 == 0 ? (byte & 0x0Fu) : (byte >> 4u);
}

/// Where a thread of a grid with `bpp` blocks per point works: block b
/// serves point b / bpp, and the thread's index inside that point is
/// (b % bpp) * blockDim + thread.
struct PointThread {
  std::size_t point;
  std::uint64_t index;
};

[[nodiscard]] inline PointThread point_thread(const simt::ThreadContext& ctx,
                                              unsigned bpp) {
  return {ctx.block_index() / bpp,
          std::uint64_t{ctx.block_index() % bpp} * ctx.block_dim() + ctx.thread_index()};
}

/// Phase one of kernel 2 and of its values-only variant: cooperative
/// coalesced load of the block's point into shared memory ("we would
/// need to access global memory only once by all threads of a block
/// simultaneously", section 3.2).
template <prec::RealScalar S>
[[nodiscard]] auto make_point_phase(const DeviceBuffers<S>& bufs, unsigned n, unsigned bpp) {
  return [bufs, n, bpp](simt::ThreadContext& ctx) {
    const std::size_t point = ctx.block_index() / bpp;
    auto svars = ctx.template shared_array<cplx::Complex<S>>(0, n);
    bool worked = false;
    for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
      worked = true;
      svars.set(v, ctx.load(bufs.x, point * n + v));
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// Kernel 3 over each point's first `count` outputs: one thread per
/// output sums exactly m terms of the point's Mons stride.
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_summation(const DeviceBuffers<S>& bufs,
                                          const SystemLayout& layout, std::uint64_t count,
                                          unsigned bpp, const char* name) {
  using C = cplx::Complex<S>;
  const unsigned m = layout.structure().m;
  const std::uint64_t stride = layout.num_outputs();

  simt::Kernel kernel;
  kernel.name = name;
  kernel.phases.push_back([bufs, layout, m, count, stride, bpp](simt::ThreadContext& ctx) {
    const auto [point, out] = point_thread(ctx, bpp);
    if (out >= count) {
      ctx.mark_inactive();
      return;
    }
    const std::size_t mons_base = point * layout.mons_size();
    C sum = bufs.mons.load(ctx, mons_base + layout.mons_index(out, 0));
    for (unsigned j = 1; j < m; ++j) {
      sum += bufs.mons.load(ctx, mons_base + layout.mons_index(out, j));
      ctx.op_cadd();
    }
    ctx.store(bufs.outputs, point * stride + out, sum);
  });
  return kernel;
}

}  // namespace detail

/// Kernel 1: powers table + common factors.
/// Shared memory: Powers[d rows][n vars] of Complex<S>, row e holding
/// x^e (row 0 is ones so exponent-one factors keep the warp uniform).
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_common_factor_kernel(const DeviceBuffers<S>& bufs,
                                                     const SystemLayout& layout,
                                                     ExponentEncoding enc, unsigned bpp) {
  using C = cplx::Complex<S>;
  const auto s = layout.structure();
  const unsigned n = s.n, d = s.d, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();

  simt::Kernel kernel;
  kernel.name = "common_factors";

  // Phase one: tabulate powers (strided over variables when n exceeds
  // the block size).
  kernel.phases.push_back([bufs, n, d, bpp](simt::ThreadContext& ctx) {
    const std::size_t point = ctx.block_index() / bpp;
    auto powers = ctx.template shared_array<C>(0, std::size_t{n} * d);
    bool worked = false;
    for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
      worked = true;
      powers.set(v, C(S(1.0)));  // row 0: x^0
      if (d >= 2) {
        const C xv = ctx.load(bufs.x, point * n + v);
        powers.set(std::size_t{n} + v, xv);
        for (unsigned e = 2; e < d; ++e) {
          const C next = powers.get(std::size_t{e - 1} * n + v) * xv;
          ctx.op_cmul();
          powers.set(std::size_t{e} * n + v, next);
        }
      }
    }
    if (!worked) ctx.mark_inactive();
  });

  // Phase two: one common factor per thread, k-1 multiplications.
  kernel.phases.push_back([bufs, layout, enc, n, d, k, monomials,
                           bpp](simt::ThreadContext& ctx) {
    const auto [point, g] = detail::point_thread(ctx, bpp);
    if (g >= monomials) {
      ctx.mark_inactive();
      return;
    }
    auto powers = ctx.template shared_array<C>(0, std::size_t{n} * d);
    C cf(S(1.0));
    for (unsigned j = 0; j < k; ++j) {
      const auto idx = layout.support_index(g, j);
      const unsigned pos = ctx.load_constant(bufs.positions, idx);
      const unsigned em1 = detail::load_exponent(ctx, bufs.exponents, enc, idx);
      const C val = powers.get(std::size_t{em1} * n + pos);
      if (j == 0) {
        cf = val;
      } else {
        cf = cf * val;
        ctx.op_cmul();
      }
    }
    // coalesced: thread g -> slot g of the point's stride
    bufs.common_factors.store(ctx, point * monomials + g, cf);
  });

  return kernel;
}

/// Ablation of section 3.1's design discussion: instead of every block
/// recomputing the powers in shared memory, tabulate them ONCE in a
/// dedicated kernel that writes global memory...
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_powers_kernel(const DeviceBuffers<S>& bufs,
                                              const SystemLayout& layout) {
  using C = cplx::Complex<S>;
  const auto s = layout.structure();
  const unsigned n = s.n, d = s.d;

  simt::Kernel kernel;
  kernel.name = "powers_global";
  kernel.phases.push_back([bufs, n, d](simt::ThreadContext& ctx) {
    bool worked = false;
    for (std::size_t v = ctx.global_thread_index(); v < n;
         v += std::size_t{ctx.grid_dim()} * ctx.block_dim()) {
      worked = true;
      ctx.store(bufs.powers, v, C(S(1.0)));  // row 0: x^0, coalesced
      if (d >= 2) {
        const C xv = ctx.load(bufs.x, v);
        ctx.store(bufs.powers, std::size_t{n} + v, xv);
        C cur = xv;
        for (unsigned e = 2; e < d; ++e) {
          cur = cur * xv;
          ctx.op_cmul();
          ctx.store(bufs.powers, std::size_t{e} * n + v, cur);
        }
      }
    }
    if (!worked) ctx.mark_inactive();
  });
  return kernel;
}

/// ...and have the common-factor kernel read the powers back from global
/// memory (scattered within each warp, since lanes index different
/// variables and exponents).  The extra kernel launch plus this traffic
/// is exactly the cost the paper's argument weighs against the per-block
/// recomputation.
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_common_factor_from_global_kernel(
    const DeviceBuffers<S>& bufs, const SystemLayout& layout, ExponentEncoding enc) {
  using C = cplx::Complex<S>;
  const auto s = layout.structure();
  const unsigned n = s.n, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();

  simt::Kernel kernel;
  kernel.name = "common_factors_global";
  kernel.phases.push_back([bufs, layout, enc, n, k, monomials](simt::ThreadContext& ctx) {
    const std::uint64_t g = ctx.global_thread_index();
    if (g >= monomials) {
      ctx.mark_inactive();
      return;
    }
    C cf(S(1.0));
    for (unsigned j = 0; j < k; ++j) {
      const auto idx = layout.support_index(g, j);
      const unsigned pos = ctx.load_constant(bufs.positions, idx);
      const unsigned em1 = detail::load_exponent(ctx, bufs.exponents, enc, idx);
      const C val = ctx.load(bufs.powers, std::size_t{em1} * n + pos);
      if (j == 0) {
        cf = val;
      } else {
        cf = cf * val;
        ctx.op_cmul();
      }
    }
    bufs.common_factors.store(ctx, g, cf);
  });
  return kernel;
}

/// Kernel 2: Speelpenning evaluation + differentiation + coefficients.
/// Shared memory: the n variable values, then B*(k+1) locations
/// L_1..L_{k+1} (one strip per thread).
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_speelpenning_kernel(const DeviceBuffers<S>& bufs,
                                                    const SystemLayout& layout,
                                                    unsigned bpp) {
  using C = cplx::Complex<S>;
  const auto s = layout.structure();
  const unsigned n = s.n, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();

  simt::Kernel kernel;
  kernel.name = "speelpenning";

  kernel.phases.push_back(detail::make_point_phase(bufs, n, bpp));

  // Phase two: one monomial per thread, 5k-4 multiplications.
  kernel.phases.push_back([bufs, layout, n, k, monomials, bpp](simt::ThreadContext& ctx) {
    const auto [point, g] = detail::point_thread(ctx, bpp);
    if (g >= monomials) {
      ctx.mark_inactive();
      return;
    }
    auto svars = ctx.template shared_array<C>(0, n);
    auto ell = ctx.template shared_array<C>(std::size_t{n} * sizeof(C),
                                            std::size_t{ctx.block_dim()} * (k + 1));
    const std::size_t base = std::size_t{ctx.thread_index()} * (k + 1);
    const std::size_t mons_base = point * layout.mons_size();

    // Cache the k variable positions in registers; one constant read each.
    std::array<unsigned, 256> pos{};
    for (unsigned j = 0; j < k; ++j)
      pos[j] = ctx.load_constant(bufs.positions, layout.support_index(g, j));
    const auto var = [&](unsigned j) { return svars.get(pos[j]); };

    // Derivatives of the Speelpenning product into L_1..L_k (slots
    // base+0 .. base+k-1): 3k-6 multiplications for k >= 3.
    if (k == 2) {
      ell.set(base + 0, var(1));
      ell.set(base + 1, var(0));
    } else if (k >= 3) {
      // forward prefix products: L_{r+1} = L_r * v_r
      ell.set(base + 1, var(0));
      for (unsigned r = 2; r < k; ++r) {
        const C fwd = ell.get(base + r - 1) * var(r - 1);
        ctx.op_cmul();
        ell.set(base + r, fwd);
      }
      // backward suffix product in the register Q
      C q = var(k - 1);
      {
        const C v2 = ell.get(base + k - 2) * q;
        ctx.op_cmul();
        ell.set(base + k - 2, v2);
      }
      for (unsigned r = 1; r + 2 < k; ++r) {
        q = q * var(k - 1 - r);
        ctx.op_cmul();
        const C v2 = ell.get(base + k - 2 - r) * q;
        ctx.op_cmul();
        ell.set(base + k - 2 - r, v2);
      }
      const C first = q * var(1);
      ctx.op_cmul();
      ell.set(base + 0, first);
    }

    // Monomial derivatives: common factor times product derivatives
    // (k multiplications; for k == 1 the derivative IS the factor).
    const C cf = bufs.common_factors.load(ctx, point * monomials + g);
    if (k == 1) {
      ell.set(base + 0, cf);
    } else {
      for (unsigned j = 0; j < k; ++j) {
        const C v2 = ell.get(base + j) * cf;
        ctx.op_cmul();
        ell.set(base + j, v2);
      }
    }

    // Monomial value from its last derivative (1 multiplication).
    {
      const C value = ell.get(base + k - 1) * var(k - 1);
      ctx.op_cmul();
      ell.set(base + k, value);
    }

    // Coefficient products (k+1 multiplications); derivative portions
    // carry the folded exponent factors.
    for (unsigned j = 0; j <= k; ++j) {
      const C c = ctx.load(bufs.coeffs, layout.coeff_index(j, g));
      const C v2 = ell.get(base + j) * c;
      ctx.op_cmul();
      ell.set(base + j, v2);
    }

    // Output: scattered writes into the transposed Mons array (the
    // paper's accepted tradeoff; coalesced under kOutputMajor ablation
    // only for the value row).
    bufs.mons.store(ctx, mons_base + layout.mons_value_index(g), ell.get(base + k));
    for (unsigned j = 0; j < k; ++j)
      bufs.mons.store(ctx, mons_base + layout.mons_deriv_index(g, pos[j]),
                      ell.get(base + j));
  });

  return kernel;
}

/// Values-only variant of kernel 2: when a tracker only needs h(x, t)
/// (step-acceptance residuals, bisection probes), the Jacobian work can
/// be skipped.  One thread per monomial computes
/// coeff * common_factor * x_{i1}...x_{ik} in k+1 multiplications and
/// writes the value slot of Mons; the derivative slots keep whatever the
/// last full evaluation left there, so this kernel pairs with the
/// values-only summation below, which reads only the value rows.
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_values_kernel(const DeviceBuffers<S>& bufs,
                                              const SystemLayout& layout, unsigned bpp) {
  using C = cplx::Complex<S>;
  const auto s = layout.structure();
  const unsigned n = s.n, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();

  simt::Kernel kernel;
  kernel.name = "values_only";
  kernel.phases.push_back(detail::make_point_phase(bufs, n, bpp));
  kernel.phases.push_back([bufs, layout, n, k, monomials, bpp](simt::ThreadContext& ctx) {
    const auto [point, g] = detail::point_thread(ctx, bpp);
    if (g >= monomials) {
      ctx.mark_inactive();
      return;
    }
    auto svars = ctx.template shared_array<C>(0, n);
    // Speelpenning product (no derivatives): k-1 multiplications.
    C product = svars.get(ctx.load_constant(bufs.positions, layout.support_index(g, 0)));
    for (unsigned j = 1; j < k; ++j) {
      product =
          product *
          svars.get(ctx.load_constant(bufs.positions, layout.support_index(g, j)));
      ctx.op_cmul();
    }
    // times the common factor and the value coefficient: 2 more.
    product = product * bufs.common_factors.load(ctx, point * monomials + g);
    ctx.op_cmul();
    product = product * ctx.load(bufs.coeffs, layout.coeff_index(k, g));
    ctx.op_cmul();
    bufs.mons.store(ctx, point * layout.mons_size() + layout.mons_value_index(g), product);
  });
  return kernel;
}

/// Kernel 3: one thread per output polynomial sums exactly m terms.
/// `bpp` counts this grid's blocks per point (over the outputs, not the
/// monomials).
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_summation_kernel(const DeviceBuffers<S>& bufs,
                                                 const SystemLayout& layout,
                                                 unsigned bpp) {
  return detail::make_summation(bufs, layout, layout.num_outputs(), bpp, "summation");
}

/// Values-only summation: kernel 3 over only the n system polynomials
/// (not the n^2 Jacobian rows).
template <prec::RealScalar S>
[[nodiscard]] simt::Kernel make_values_summation_kernel(const DeviceBuffers<S>& bufs,
                                                        const SystemLayout& layout,
                                                        unsigned bpp) {
  return detail::make_summation(bufs, layout, layout.structure().n, bpp,
                                "values_summation");
}

namespace detail {

/// Fold each monomial's exponent factors into its coefficient portions
/// (layout.coeffs_size() entries of `out`): portion j < k holds c * a_j,
/// portion k holds c.  The fold runs IN the working precision; folding
/// in double first would cap extended-precision Jacobian accuracy at
/// ~1e-16.
template <prec::RealScalar S>
void fold_coefficients(const PackedSystem& packed, const SystemLayout& layout,
                       std::span<cplx::Complex<S>> out) {
  using C = cplx::Complex<S>;
  const unsigned k = layout.structure().k;
  for (std::uint64_t t = 0; t < layout.total_monomials(); ++t) {
    const auto raw = C::from_double(packed.coeffs[layout.coeff_index(k, t)]);
    for (unsigned j = 0; j < k; ++j) {
      const double a = packed.exponents[layout.support_index(t, j)] + 1.0;
      out[layout.coeff_index(j, t)] = raw * prec::ScalarTraits<S>::from_double(a);
    }
    out[layout.coeff_index(k, t)] = raw;
  }
}

/// Allocate and fill a three-kernel host's device state for `points`
/// points per pass: the constant tables and the folded coefficients,
/// which every point shares, and one stride per point of X,
/// CommonFactors, Mons and Outputs, whose names carry `suffix`.  The
/// structural zeros of Mons are set here, once, and never written again.
template <prec::RealScalar S>
[[nodiscard]] DeviceBuffers<S> make_device_buffers(simt::Device& device,
                                                   const PackedSystem& packed,
                                                   const SystemLayout& layout,
                                                   ExponentEncoding enc,
                                                   InterchangeLayout interchange,
                                                   unsigned points,
                                                   const std::string& suffix) {
  using C = cplx::Complex<S>;
  DeviceBuffers<S> bufs;
  const auto encoded = encode_exponents(enc, packed.exponents);
  bufs.positions =
      device.alloc_constant<unsigned char>(packed.positions.size(), "Positions");
  bufs.exponents = device.alloc_constant<unsigned char>(encoded.size(), "Exponents");
  device.upload_constant(bufs.positions, std::span<const unsigned char>(packed.positions));
  device.upload_constant(bufs.exponents, std::span<const unsigned char>(encoded));

  bufs.x = device.alloc_global<C>(std::size_t{points} * packed.structure.n, "X" + suffix);
  bufs.coeffs = device.alloc_global<C>(layout.coeffs_size(), "Coeffs");
  bufs.common_factors.allocate(device, std::size_t{points} * layout.total_monomials(),
                               "CommonFactors" + suffix, interchange);
  bufs.mons.allocate(device, std::size_t{points} * layout.mons_size(), "Mons" + suffix,
                     interchange);
  bufs.outputs =
      device.alloc_global<C>(std::size_t{points} * layout.num_outputs(), "Outputs" + suffix);

  std::vector<C> coeffs(layout.coeffs_size());
  fold_coefficients(packed, layout, std::span<C>(coeffs));
  device.upload(bufs.coeffs, std::span<const C>(coeffs));
  bufs.mons.fill_zero(device);
  return bufs;
}

/// Unpack one point's device output vector (values then Jacobian
/// columns, layout.hpp order) into an EvalResult -- the host half of
/// the download shared by every evaluator variant.
template <prec::RealScalar S>
void unpack_outputs(const SystemLayout& layout,
                    std::span<const cplx::Complex<S>> host_outputs,
                    std::size_t base, poly::EvalResult<S>& out) {
  const unsigned n = layout.structure().n;
  out.resize(n);
  for (unsigned q = 0; q < n; ++q)
    out.values[q] = host_outputs[base + layout.output_value_index(q)];
  for (unsigned q = 0; q < n; ++q)
    for (unsigned v = 0; v < n; ++v)
      out.jacobian[std::size_t{q} * n + v] =
          host_outputs[base + layout.output_deriv_index(q, v)];
}

/// Record one call's slice of the device log (kernels appended since
/// `kernels_before`, transfers accumulated since `before`) into
/// `last_log` for the timing model -- every evaluator's last_log()
/// bookkeeping, in one place.
inline void snapshot_device_log(const simt::LaunchLog& log, std::size_t kernels_before,
                                const simt::TransferStats& before,
                                simt::LaunchLog& last_log) {
  last_log.kernels.assign(
      log.kernels.begin() + static_cast<std::ptrdiff_t>(kernels_before),
      log.kernels.end());
  last_log.transfers.bytes_to_device =
      log.transfers.bytes_to_device - before.bytes_to_device;
  last_log.transfers.bytes_from_device =
      log.transfers.bytes_from_device - before.bytes_from_device;
  last_log.transfers.transfers_to_device =
      log.transfers.transfers_to_device - before.transfers_to_device;
  last_log.transfers.transfers_from_device =
      log.transfers.transfers_from_device - before.transfers_from_device;
}

}  // namespace detail

}  // namespace polyeval::core
