#pragma once

/// \file multitenant_homotopy.hpp
/// Slot-aware batched homotopies over the tenant-routed fused evaluator:
/// the glue that lets ONE BatchPathTracker round carry live paths from
/// SEVERAL solve requests.  Each tracker slot is assigned a tenant
/// (assign_slot); the tracker announces which slots the next chunk's
/// points belong to through bind_slots (newton::SlotAwareEvaluator),
/// and the wrapper translates slot -> tenant per point, binds the
/// tenant routing on the device evaluator, and runs each point's
/// CPU-side start system / gamma blend / projective assembly with that
/// tenant's OWN objects.  Per-point arithmetic is exactly
/// BatchedHomotopy's (affine) or BatchedProjectiveHomotopy's
/// (projective), so a path tracks bitwise identically whether its
/// request rides alone or coalesced -- the property the solve service's
/// cross-request batching rests on.

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/fused_evaluator.hpp"
#include "homotopy/projective.hpp"

namespace polyeval::service {

/// Projective geometry: per-tenant {ProjectiveSystem, patched
/// homogenized start evaluator, gamma}, all sharing one device
/// evaluator.  Mirrors BatchedProjectiveHomotopy slot-by-slot.
template <prec::RealScalar S>
class MultiTenantProjectiveHomotopy {
  using C = cplx::Complex<S>;

 public:
  using BatchedHomotopyTag = void;

  /// `slot_capacity` is the owning tracker's max_paths: the widest
  /// bind_slots id the wrapper must translate.
  MultiTenantProjectiveHomotopy(core::FusedGpuEvaluator<S>& f,
                                std::size_t slot_capacity)
      : f_(f),
        max_batch_(f.batch_capacity()),
        s_eval_(f.dimension() + 1),
        s_vals_(f.dimension() + 1) {
    const unsigned n = f_.dimension();
    tenants_.resize(f_.max_tenants());
    slot_tenant_.assign(slot_capacity, kUnassigned);
    x_pts_.resize(max_batch_);
    for (auto& p : x_pts_) p.resize(n);
    f_chunk_.resize(max_batch_);
    for (auto& r : f_chunk_) r.resize(n);
    f_values_.resize(max_batch_ * std::size_t{n});
    fhat_.resize(max_batch_ * std::size_t{n});
    ghat_.resize(max_batch_ * std::size_t{n});
    fhat_jac_.resize(std::size_t{n} * (n + 1));
    fhat_v_.resize(n);
    chunk_tenants_.resize(max_batch_);
    inner_tenants_.resize(max_batch_);
  }

  [[nodiscard]] unsigned dimension() const noexcept {
    return f_.dimension() + 1;
  }
  [[nodiscard]] unsigned affine_dimension() const noexcept {
    return f_.dimension();
  }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  /// Install tenant `tenant`: the device tables (via the shared
  /// evaluator) plus this wrapper's CPU-side per-tenant state.  The
  /// BatchedProjectiveHomotopy constructor checks, repeated per tenant.
  void set_tenant(unsigned tenant, const poly::PolynomialSystem& target,
                  const poly::PolynomialSystem& start_system,
                  cplx::Complex<double> gamma,
                  std::span<const cplx::Complex<double>> patch) {
    if (tenant >= tenants_.size())
      throw std::invalid_argument("MultiTenantProjectiveHomotopy: bad tenant");
    if (start_system.degrees() != target.degrees())
      throw std::invalid_argument(
          "MultiTenantProjectiveHomotopy: start system degrees must match");
    f_.set_tenant(tenant, target);
    tenants_[tenant].emplace(target, start_system, gamma, patch);
  }

  void clear_tenant(unsigned tenant) {
    if (tenant < tenants_.size()) tenants_[tenant].reset();
    f_.clear_tenant(tenant);
  }

  /// Declare that tracker slot `slot` carries a path of `tenant`.
  void assign_slot(std::size_t slot, unsigned tenant) {
    if (slot >= slot_tenant_.size())
      throw std::invalid_argument("MultiTenantProjectiveHomotopy: bad slot");
    if (tenant >= tenants_.size() || !tenants_[tenant])
      throw std::invalid_argument(
          "MultiTenantProjectiveHomotopy: slot bound to absent tenant");
    slot_tenant_[slot] = tenant;
  }

  /// SlotAwareEvaluator hook: points[first+i] of the following
  /// evaluate calls belongs to tracker slot ids[first+i].  The span
  /// must outlive those calls (the tracker binds its own id vectors).
  void bind_slots(std::span<const std::size_t> ids) { bound_ = ids; }

  /// BatchedProjectiveHomotopy::evaluate_range, with each point's
  /// dehomogenization, start evaluation and assembly delegated to its
  /// slot's tenant and the device launch routed per point.
  void evaluate_range(const std::vector<std::vector<C>>& points,
                      std::span<const C> ts, std::size_t first,
                      std::size_t count, std::span<C> values,
                      std::span<C> jacobians) {
    const unsigned n = affine_dimension();
    const unsigned np1 = n + 1;
    const std::size_t nn1 = std::size_t{np1} * np1;
    if (count > max_batch_ || ts.size() < first + count ||
        values.size() < count * np1 || jacobians.size() < count * nn1)
      throw std::invalid_argument(
          "MultiTenantProjectiveHomotopy: bad batch spans");

    for (std::size_t i = 0; i < count; ++i) {
      const Tenant& ten = tenant_of(first + i, &chunk_tenants_[i]);
      inner_tenants_[i] = chunk_tenants_[i];
      ten.ps.dehomogenize_into(std::span<const C>(points[first + i]),
                               std::span<C>(x_pts_[i]));
    }
    f_.bind_tenants(std::span<const unsigned>(inner_tenants_.data(), count));
    f_.evaluate_range(x_pts_, 0, count,
                      std::span<poly::EvalResult<S>>(f_chunk_).subspan(0, count));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i;
      const Tenant& ten = *tenants_[chunk_tenants_[i]];
      const auto z = std::span<const C>(points[slot]);
      ten.g.evaluate(z, s_eval_);
      homotopy::detail::assemble_projective<S>(
          ten.ps, ten.gamma, ts[slot], z, std::span<const C>(x_pts_[i]),
          std::span<const C>(f_chunk_[i].values),
          std::span<const C>(f_chunk_[i].jacobian),
          std::span<const C>(s_eval_.values),
          std::span<const C>(s_eval_.jacobian),
          std::span<C>(fhat_).subspan(i * n, n),
          std::span<C>(ghat_).subspan(i * n, n), std::span<C>(fhat_jac_),
          values.subspan(i * np1, np1), jacobians.subspan(i * nn1, nn1));
    }
  }

  /// Values-only counterpart, any count (max_batch-sized launches).
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::span<const C> ts, std::size_t first,
                             std::size_t count, std::span<C> values) {
    const unsigned n = affine_dimension();
    const unsigned np1 = n + 1;
    if (ts.size() < first + count || values.size() < count * np1)
      throw std::invalid_argument(
          "MultiTenantProjectiveHomotopy: bad batch spans");

    for (std::size_t c0 = 0; c0 < count; c0 += max_batch_) {
      const std::size_t cnt = std::min(max_batch_, count - c0);
      for (std::size_t i = 0; i < cnt; ++i) {
        unsigned id;
        const Tenant& ten = tenant_of(first + c0 + i, &id);
        inner_tenants_[i] = id;
        ten.ps.dehomogenize_into(std::span<const C>(points[first + c0 + i]),
                                 std::span<C>(x_pts_[i]));
      }
      f_.bind_tenants(std::span<const unsigned>(inner_tenants_.data(), cnt));
      f_.evaluate_values_range(x_pts_, 0, cnt,
                               std::span<C>(f_values_).subspan(0, cnt * n));
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t slot = c0 + i;
        const Tenant& ten = *tenants_[inner_tenants_[i]];
        const auto z = std::span<const C>(points[first + slot]);
        ten.g.evaluate_values(z, std::span<C>(s_vals_));
        homotopy::detail::assemble_projective_values<S>(
            ten.ps, ten.gamma, ts[first + slot], z,
            std::span<const C>(f_values_).subspan(i * n, n),
            std::span<const C>(s_vals_), std::span<C>(fhat_v_),
            values.subspan(slot * np1, np1));
      }
    }
  }

  /// Davidenko rhs of chunk slot i of the last evaluate_range, with
  /// that point's tenant gamma; the patch row is zero.
  void rhs_from_last(std::size_t i, std::span<C> out) const {
    const unsigned n = affine_dimension();
    const C gamma = tenants_[chunk_tenants_[i]]->gamma;
    for (unsigned q = 0; q < n; ++q)
      out[q] = homotopy::detail::davidenko_rhs(gamma, fhat_[i * n + q],
                                               ghat_[i * n + q]);
    out[n] = C{};
  }

  /// Slot-aware projective hooks (BatchPathTracker::kSlotProjective):
  /// each slot renormalizes onto ITS tenant's patch.
  void renormalize(std::size_t slot, std::span<C> z) const {
    tenants_[tenant_id(slot)]->ps.renormalize(z);
  }
  [[nodiscard]] double infinity_ratio(std::size_t slot,
                                      std::span<const C> z) const {
    return tenants_[tenant_id(slot)]->ps.infinity_ratio(z);
  }

 private:
  static constexpr unsigned kUnassigned = ~0u;

  struct Tenant {
    Tenant(const poly::PolynomialSystem& target,
           const poly::PolynomialSystem& start_system,
           cplx::Complex<double> gamma_in,
           std::span<const cplx::Complex<double>> patch)
        : ps(target, patch),
          g(homotopy::homogenize(start_system, patch)),
          gamma(C::from_double(gamma_in)) {}

    homotopy::detail::ProjectiveSystem<S> ps;
    ad::CpuEvaluator<S> g;  ///< patched homogenized start system
    C gamma;
  };

  [[nodiscard]] unsigned tenant_id(std::size_t slot) const {
    if (slot >= slot_tenant_.size() || slot_tenant_[slot] == kUnassigned)
      throw std::logic_error(
          "MultiTenantProjectiveHomotopy: unassigned slot evaluated");
    return slot_tenant_[slot];
  }
  [[nodiscard]] const Tenant& tenant_of(std::size_t point_index,
                                        unsigned* id_out) const {
    if (bound_.size() <= point_index)
      throw std::logic_error(
          "MultiTenantProjectiveHomotopy: evaluate without bind_slots");
    const unsigned id = tenant_id(bound_[point_index]);
    *id_out = id;
    return *tenants_[id];
  }

  core::FusedGpuEvaluator<S>& f_;
  std::size_t max_batch_;
  std::vector<std::optional<Tenant>> tenants_;
  std::vector<unsigned> slot_tenant_;
  std::span<const std::size_t> bound_;  ///< slot ids of the next chunk

  poly::EvalResult<S> s_eval_;
  std::vector<C> s_vals_;
  std::vector<std::vector<C>> x_pts_;
  std::vector<poly::EvalResult<S>> f_chunk_;
  std::vector<C> f_values_;
  std::vector<C> fhat_, ghat_;
  std::vector<C> fhat_jac_;
  std::vector<C> fhat_v_;
  std::vector<unsigned> chunk_tenants_;  ///< tenant of each chunk slot
  std::vector<unsigned> inner_tenants_;  ///< device-launch routing staging
};

/// Affine geometry: per-tenant {start evaluator, gamma} blended as
/// BatchedHomotopy, slot-routed like the projective wrapper.
template <prec::RealScalar S>
class MultiTenantAffineHomotopy {
  using C = cplx::Complex<S>;

 public:
  using BatchedHomotopyTag = void;

  MultiTenantAffineHomotopy(core::FusedGpuEvaluator<S>& f,
                            std::size_t slot_capacity)
      : f_(f),
        max_batch_(f.batch_capacity()),
        g_eval_(f.dimension()),
        g_vals_(f.dimension()) {
    const unsigned n = f_.dimension();
    tenants_.resize(f_.max_tenants());
    slot_tenant_.assign(slot_capacity, kUnassigned);
    f_chunk_.resize(max_batch_);
    for (auto& r : f_chunk_) r.resize(n);
    f_values_.resize(max_batch_ * std::size_t{n});
    g_values_.resize(max_batch_ * std::size_t{n});
    chunk_tenants_.resize(max_batch_);
    // The affine wrapper hands `points` straight through to the device
    // evaluator, so the routing buffer is indexed absolutely and must
    // cover any first + count the tracker can produce.
    inner_tenants_.resize(slot_capacity + max_batch_);
  }

  [[nodiscard]] unsigned dimension() const noexcept { return f_.dimension(); }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  void set_tenant(unsigned tenant, const poly::PolynomialSystem& target,
                  const poly::PolynomialSystem& start_system,
                  cplx::Complex<double> gamma) {
    if (tenant >= tenants_.size())
      throw std::invalid_argument("MultiTenantAffineHomotopy: bad tenant");
    f_.set_tenant(tenant, target);
    tenants_[tenant].emplace(start_system, gamma);
  }

  void clear_tenant(unsigned tenant) {
    if (tenant < tenants_.size()) tenants_[tenant].reset();
    f_.clear_tenant(tenant);
  }

  void assign_slot(std::size_t slot, unsigned tenant) {
    if (slot >= slot_tenant_.size())
      throw std::invalid_argument("MultiTenantAffineHomotopy: bad slot");
    if (tenant >= tenants_.size() || !tenants_[tenant])
      throw std::invalid_argument(
          "MultiTenantAffineHomotopy: slot bound to absent tenant");
    slot_tenant_[slot] = tenant;
  }

  void bind_slots(std::span<const std::size_t> ids) { bound_ = ids; }

  /// BatchedHomotopy::evaluate_range with per-slot tenant g and gamma.
  void evaluate_range(const std::vector<std::vector<C>>& points,
                      std::span<const C> ts, std::size_t first,
                      std::size_t count, std::span<C> values,
                      std::span<C> jacobians) {
    const unsigned n = dimension();
    const std::size_t nn = std::size_t{n} * n;
    if (count > max_batch_ || ts.size() < first + count ||
        values.size() < count * n || jacobians.size() < count * nn)
      throw std::invalid_argument("MultiTenantAffineHomotopy: bad batch spans");

    route(first, count);
    for (std::size_t i = 0; i < count; ++i)
      chunk_tenants_[i] = inner_tenants_[first + i];
    f_.bind_tenants(
        std::span<const unsigned>(inner_tenants_.data(), first + count));
    f_.evaluate_range(points, first, count,
                      std::span<poly::EvalResult<S>>(f_chunk_).subspan(0, count));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i;
      const Tenant& ten = *tenants_[chunk_tenants_[i]];
      ten.g.evaluate(std::span<const C>(points[slot]), g_eval_);
      std::copy(f_chunk_[i].values.begin(), f_chunk_[i].values.end(),
                f_values_.begin() + i * n);
      std::copy(g_eval_.values.begin(), g_eval_.values.end(),
                g_values_.begin() + i * n);
      const homotopy::detail::GammaBlend<S> blend(ten.gamma, ts[slot]);
      for (unsigned q = 0; q < n; ++q)
        values[i * n + q] =
            blend.combine(g_eval_.values[q], f_chunk_[i].values[q]);
      for (std::size_t e = 0; e < nn; ++e)
        jacobians[i * nn + e] =
            blend.combine(g_eval_.jacobian[e], f_chunk_[i].jacobian[e]);
    }
  }

  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::span<const C> ts, std::size_t first,
                             std::size_t count, std::span<C> values) {
    const unsigned n = dimension();
    if (ts.size() < first + count || values.size() < count * n)
      throw std::invalid_argument("MultiTenantAffineHomotopy: bad batch spans");

    route(first, count);
    f_.bind_tenants(
        std::span<const unsigned>(inner_tenants_.data(), first + count));
    for (std::size_t c0 = 0; c0 < count; c0 += max_batch_) {
      const std::size_t cnt = std::min(max_batch_, count - c0);
      f_.evaluate_values_range(points, first + c0, cnt,
                               std::span<C>(values).subspan(c0 * n, cnt * n));
      for (std::size_t i = 0; i < cnt; ++i) {
        const std::size_t slot = c0 + i;
        const Tenant& ten = *tenants_[inner_tenants_[first + slot]];
        ten.g.evaluate_values(std::span<const C>(points[first + slot]),
                              std::span<C>(g_vals_));
        const homotopy::detail::GammaBlend<S> blend(ten.gamma,
                                                    ts[first + slot]);
        for (unsigned q = 0; q < n; ++q)
          values[slot * n + q] = blend.combine(g_vals_[q], values[slot * n + q]);
      }
    }
  }

  void rhs_from_last(std::size_t i, std::span<C> out) const {
    const unsigned n = dimension();
    const C gamma = tenants_[chunk_tenants_[i]]->gamma;
    for (unsigned q = 0; q < n; ++q)
      out[q] = homotopy::detail::davidenko_rhs(gamma, f_values_[i * n + q],
                                               g_values_[i * n + q]);
  }

 private:
  static constexpr unsigned kUnassigned = ~0u;

  struct Tenant {
    Tenant(const poly::PolynomialSystem& start_system,
           cplx::Complex<double> gamma_in)
        : g(start_system), gamma(C::from_double(gamma_in)) {}

    ad::CpuEvaluator<S> g;
    C gamma;
  };

  /// Fill the absolute-indexed routing buffer for [first, first+count).
  void route(std::size_t first, std::size_t count) {
    if (bound_.size() < first + count)
      throw std::logic_error(
          "MultiTenantAffineHomotopy: evaluate without bind_slots");
    if (inner_tenants_.size() < first + count)
      inner_tenants_.resize(first + count);
    for (std::size_t i = first; i < first + count; ++i) {
      const std::size_t slot = bound_[i];
      if (slot >= slot_tenant_.size() || slot_tenant_[slot] == kUnassigned)
        throw std::logic_error(
            "MultiTenantAffineHomotopy: unassigned slot evaluated");
      inner_tenants_[i] = slot_tenant_[slot];
    }
  }

  core::FusedGpuEvaluator<S>& f_;
  std::size_t max_batch_;
  std::vector<std::optional<Tenant>> tenants_;
  std::vector<unsigned> slot_tenant_;
  std::span<const std::size_t> bound_;

  poly::EvalResult<S> g_eval_;
  std::vector<C> g_vals_;
  std::vector<poly::EvalResult<S>> f_chunk_;
  std::vector<C> f_values_, g_values_;
  std::vector<unsigned> chunk_tenants_;
  std::vector<unsigned> inner_tenants_;
};

}  // namespace polyeval::service
