#pragma once

/// \file projective.hpp
/// Projective (patched homogeneous) tracking substrate.  The target
/// system is homogenized with an extra coordinate z_n and restricted to
/// the random patch hyperplane c . z = 1 (homogenize.hpp), so a path
/// that diverges to infinity in affine coordinates converges to a
/// finite patch point with z_n -> 0 -- the tracker classifies it
/// instead of stalling.
///
/// The device never sees the homogenized system (it is not uniform in
/// the paper's (n, m, k, d) sense): the affine target f keeps running
/// the fused kernels at the pullback point x = z / z_n, and the
/// homogeneous rows are LIFTED on the host by powers of z_n,
///
///   F_i(z)          = z_n^{d_i} f_i(x),
///   dF_i/dz_j       = z_n^{d_i - 1} (df_i/dx_j)(x)          (j < n),
///   dF_i/dz_n       = z_n^{d_i - 1} (d_i f_i(x) - sum_j x_j (df_i/dx_j)(x)),
///
/// which is exact (Euler's identity gives the z_n column) and keeps the
/// batched machinery intact.  Every homogeneous row i (lifted target
/// and homogenized start alike) is additionally ROW-SCALED by
/// 1 / ||z||_inf^{d_i}: a homogeneous row of degree d_i shrinks like
/// ||z||^{d_i}, so without the scaling a point with small coordinates
/// (z_n well below 1 on the patch) satisfies ANY residual tolerance
/// vacuously and the corrector stops correcting.  Row scaling is a
/// diagonal preconditioner -- Newton steps and Davidenko flows are
/// mathematically unchanged (the scale cancels against the Jacobian)
/// -- but the residual max-norm becomes scale-invariant, so the
/// tracking and endpoint tolerances mean what they say at every
/// distance from infinity.  The start system is homogenized once into
/// an explicit (n+1)-square system (its rows plus the patch row) and
/// evaluated by the CPU reference evaluator, as the affine trackers
/// already do for g.
///
/// The per-point lift/blend arithmetic lives in ONE copy
/// (detail::ProjectiveSystem + detail::assemble_projective), shared by
/// the scalar ProjectiveHomotopy and the lockstep
/// BatchedProjectiveHomotopy, so the scalar and batched projective
/// trackers agree bit for bit by construction -- the same contract the
/// affine pair holds.

#include <limits>
#include <optional>

#include "ad/cpu_evaluator.hpp"
#include "homotopy/homogenize.hpp"
#include "homotopy/homotopy.hpp"

namespace polyeval::homotopy {

namespace detail {

/// The one copy of the projective per-point arithmetic: pullback,
/// z_n-power lift, patch renormalization and the at-infinity measure.
template <prec::RealScalar S>
class ProjectiveSystem {
  using C = cplx::Complex<S>;

 public:
  ProjectiveSystem(const poly::PolynomialSystem& target,
                   std::span<const cplx::Complex<double>> patch)
      : n_(target.dimension()), degrees_(target.degrees()) {
    if (patch.size() != std::size_t{n_} + 1)
      throw std::invalid_argument("ProjectiveSystem: patch has wrong dimension");
    unsigned max_degree = 1;
    for (const unsigned d : degrees_) {
      if (d == 0)
        throw std::invalid_argument("ProjectiveSystem: zero-degree polynomial");
      max_degree = std::max(max_degree, d);
    }
    patch_.reserve(patch.size());
    for (const auto& c : patch) patch_.push_back(C::from_double(c));
    zn_pow_.resize(std::size_t{max_degree} + 1);
    minv_pow_.resize(std::size_t{max_degree} + 1);
  }

  [[nodiscard]] unsigned affine_dimension() const noexcept { return n_; }
  [[nodiscard]] unsigned dimension() const noexcept { return n_ + 1; }
  [[nodiscard]] const std::vector<unsigned>& degrees() const noexcept {
    return degrees_;
  }
  [[nodiscard]] const std::vector<C>& patch() const noexcept { return patch_; }

  /// The pullback point x = z / z_n the affine evaluators run at.
  void dehomogenize_into(std::span<const C> z, std::span<C> x) const {
    for (unsigned i = 0; i < n_; ++i) x[i] = z[i] / z[n_];
  }

  /// Lift affine values f(x) and Jacobian at x = z / z_n into the
  /// ROW-SCALED homogeneous rows: fhat[i] = (z_n / m)^{d_i} f_i(x) with
  /// m = ||z||_inf (prepare()'s scale); fhat_jac is n rows of n+1
  /// entries (row-major).
  void lift_full(std::span<const C> z, std::span<const C> x,
                 std::span<const C> f_values, std::span<const C> f_jac,
                 std::span<C> fhat, std::span<C> fhat_jac) const {
    prepare(z);
    const unsigned np1 = n_ + 1;
    for (unsigned i = 0; i < n_; ++i) {
      const unsigned d = degrees_[i];
      fhat[i] = zn_pow_[d] * f_values[i];
      // (z_n / m)^{d-1} / m: the scaled z_n^{d-1} of the Jacobian rows.
      const C zd1 = zn_pow_[d - 1] * minv_pow_[1];
      C dot{};
      for (unsigned j = 0; j < n_; ++j) {
        const C& fij = f_jac[std::size_t{i} * n_ + j];
        fhat_jac[std::size_t{i} * np1 + j] = zd1 * fij;
        dot += x[j] * fij;
      }
      const C euler =
          f_values[i] * prec::ScalarTraits<S>::from_double(static_cast<double>(d)) -
          dot;
      fhat_jac[std::size_t{i} * np1 + n_] = zd1 * euler;
    }
  }

  /// Row scale 1 / m^{d_i} applied to homogeneous row i (valid after a
  /// lift call prepared the point): the homogenized start rows must be
  /// scaled by exactly this before blending with the lifted target.
  [[nodiscard]] const S& row_scale(unsigned i) const {
    return minv_pow_[degrees_[i]];
  }

  /// Rescale z onto the patch: z <- z / (c . z).  Applied after every
  /// accepted corrector step (the renormalization cadence), it keeps
  /// the representative unique and the coordinates O(1) while t walks
  /// to 1.
  void renormalize(std::span<C> z) const {
    C dot{};
    for (unsigned j = 0; j <= n_; ++j) dot += patch_[j] * z[j];
    for (unsigned j = 0; j <= n_; ++j) z[j] = z[j] / dot;
  }

  /// The at-infinity measure: |z_n| relative to the largest affine
  /// coordinate (cheap 1-norms).  Small ratio = the point sits on the
  /// hyperplane at infinity.
  [[nodiscard]] double infinity_ratio(std::span<const C> z) const {
    double largest = 0.0;
    for (unsigned i = 0; i < n_; ++i)
      largest = std::max(largest,
                         prec::ScalarTraits<S>::to_double(cplx::norm1(z[i])));
    const double h = prec::ScalarTraits<S>::to_double(cplx::norm1(z[n_]));
    if (largest == 0.0) return std::numeric_limits<double>::infinity();
    return h / largest;
  }

 private:
  /// Per-point preparation of the lift: the scale m = ||z||_inf in
  /// 1-norms, the inverse-scale powers minv_pow_[e] = (1/m)^e, and the
  /// scaled homogeneous-coordinate powers zn_pow_[e] = (z_n / m)^e, all
  /// by repeated multiplication.
  void prepare(std::span<const C> z) const {
    S m = cplx::norm1(z[0]);
    for (unsigned j = 1; j <= n_; ++j) {
      const S c = cplx::norm1(z[j]);
      if (c > m) m = c;
    }
    const S inv_m = S(1.0) / m;
    const C w = z[n_] * inv_m;
    minv_pow_[0] = S(1.0);
    zn_pow_[0] = C(S(1.0));
    for (std::size_t e = 1; e < zn_pow_.size(); ++e) {
      minv_pow_[e] = minv_pow_[e - 1] * inv_m;
      zn_pow_[e] = zn_pow_[e - 1] * w;
    }
  }

  unsigned n_;
  std::vector<unsigned> degrees_;
  std::vector<C> patch_;
  mutable std::vector<C> zn_pow_;    ///< (z_n / m)^e
  mutable std::vector<S> minv_pow_;  ///< (1 / m)^e
};

/// The one copy of the projective H(z, t) assembly: rows i < n blend
/// the row-scaled homogenized start row with the row-scaled lifted
/// target row, row n is the (t-independent) patch row carried by the
/// patched start system.  f_values/f_jac are the affine target's
/// evaluation at x = z / z_n; s_values/s_jac the patched homogenized
/// start system's at z.  fhat/ghat record the scaled lifts (Davidenko
/// inputs).
template <prec::RealScalar S>
void assemble_projective(const ProjectiveSystem<S>& ps,
                         const cplx::Complex<S>& gamma, const cplx::Complex<S>& t,
                         std::span<const cplx::Complex<S>> z,
                         std::span<const cplx::Complex<S>> x,
                         std::span<const cplx::Complex<S>> f_values,
                         std::span<const cplx::Complex<S>> f_jac,
                         std::span<const cplx::Complex<S>> s_values,
                         std::span<const cplx::Complex<S>> s_jac,
                         std::span<cplx::Complex<S>> fhat,
                         std::span<cplx::Complex<S>> ghat,
                         std::span<cplx::Complex<S>> fhat_jac,
                         std::span<cplx::Complex<S>> h_values,
                         std::span<cplx::Complex<S>> h_jac) {
  const unsigned n = ps.affine_dimension();
  const unsigned np1 = n + 1;
  ps.lift_full(z, x, f_values, f_jac, fhat, fhat_jac);
  const GammaBlend<S> blend(gamma, t);
  for (unsigned i = 0; i < n; ++i) {
    const S& scale = ps.row_scale(i);
    ghat[i] = s_values[i] * scale;
    h_values[i] = blend.combine(ghat[i], fhat[i]);
    for (unsigned j = 0; j < np1; ++j)
      h_jac[std::size_t{i} * np1 + j] =
          blend.combine(s_jac[std::size_t{i} * np1 + j] * scale,
                        fhat_jac[std::size_t{i} * np1 + j]);
  }
  h_values[n] = s_values[n];
  for (unsigned j = 0; j < np1; ++j)
    h_jac[std::size_t{n} * np1 + j] = s_jac[std::size_t{n} * np1 + j];
}

}  // namespace detail

/// Scalar projective homotopy: an Evaluator of dimension n+1 over the
/// patch, with the affine target running on any device or CPU
/// evaluator.  Mirrors Homotopy's interface (set_t / evaluate /
/// dt_from_last) plus the projective hooks the tracker keys on
/// (renormalize / infinity_ratio).
template <prec::RealScalar S, class EvalF>
class ProjectiveHomotopy {
  using C = cplx::Complex<S>;

 public:
  /// `f` evaluates `target` (affine, n-dimensional); `start_system` is
  /// homogenized to the target's degrees and patched internally.
  ProjectiveHomotopy(EvalF& f, const poly::PolynomialSystem& target,
                     const poly::PolynomialSystem& start_system,
                     cplx::Complex<double> gamma,
                     std::span<const cplx::Complex<double>> patch)
      : f_(f),
        ps_(target, patch),
        g_(homogenize(start_system, patch)),
        gamma_(C::from_double(gamma)),
        f_eval_(target.dimension()),
        s_eval_(target.dimension() + 1) {
    if (f.dimension() != target.dimension())
      throw std::invalid_argument("ProjectiveHomotopy: dimension mismatch");
    if (start_system.degrees() != target.degrees())
      throw std::invalid_argument(
          "ProjectiveHomotopy: start system degrees must match the target's");
    const unsigned n = ps_.affine_dimension();
    x_.resize(n);
    fhat_.resize(n);
    ghat_.resize(n);
    fhat_jac_.resize(std::size_t{n} * (n + 1));
  }

  [[nodiscard]] unsigned dimension() const noexcept { return ps_.dimension(); }
  [[nodiscard]] unsigned affine_dimension() const noexcept {
    return ps_.affine_dimension();
  }

  void set_t(const S& t) noexcept { t_ = C(t); }
  void set_t_complex(const C& t) noexcept { t_ = t; }
  [[nodiscard]] const C& t() const noexcept { return t_; }

  /// H(z, t) and its Jacobian in z at the current t.
  void evaluate(std::span<const C> z, poly::EvalResult<S>& out) {
    const unsigned n = ps_.affine_dimension();
    out.resize(n + 1);
    ps_.dehomogenize_into(z, std::span<C>(x_));
    f_.evaluate(std::span<const C>(x_), f_eval_);
    g_.evaluate(z, s_eval_);
    detail::assemble_projective<S>(
        ps_, gamma_, t_, z, std::span<const C>(x_),
        std::span<const C>(f_eval_.values), std::span<const C>(f_eval_.jacobian),
        std::span<const C>(s_eval_.values), std::span<const C>(s_eval_.jacobian),
        std::span<C>(fhat_), std::span<C>(ghat_), std::span<C>(fhat_jac_),
        std::span<C>(out.values), std::span<C>(out.jacobian));
  }

  /// dH/dt of the most recent evaluate(): rows i < n are the Davidenko
  /// right-hand side Fhat_i - gamma Ghat_i; the patch row is constant
  /// in t, so its entry is zero.
  [[nodiscard]] std::vector<C> dt_from_last() const {
    const unsigned n = ps_.affine_dimension();
    std::vector<C> out(n + 1);
    for (unsigned i = 0; i < n; ++i)
      out[i] = detail::davidenko_rhs(gamma_, fhat_[i], ghat_[i]);
    out[n] = C{};
    return out;
  }

  void renormalize(std::span<C> z) const { ps_.renormalize(z); }
  [[nodiscard]] double infinity_ratio(std::span<const C> z) const {
    return ps_.infinity_ratio(z);
  }
  [[nodiscard]] const detail::ProjectiveSystem<S>& projective_system() const noexcept {
    return ps_;
  }

 private:
  EvalF& f_;
  detail::ProjectiveSystem<S> ps_;
  ad::CpuEvaluator<S> g_;  ///< patched homogenized start system
  C gamma_;
  C t_{S(0.0)};
  poly::EvalResult<S> f_eval_;  ///< affine target at the pullback point
  poly::EvalResult<S> s_eval_;  ///< patched start system at z
  std::vector<C> x_;            ///< pullback point scratch
  std::vector<C> fhat_, ghat_;  ///< recorded lifts (Davidenko inputs)
  std::vector<C> fhat_jac_;     ///< lift Jacobian scratch
};

/// Batched projective homotopy: the lockstep tracker's counterpart of
/// BatchedHomotopy, evaluating a batch of patch points each at its own
/// complex t.  The affine target runs evaluate_range on the device at
/// the pullback points; the patched start system and the lift/blend
/// run per point on the CPU, repeating ProjectiveHomotopy's arithmetic
/// exactly.
///
/// Tenant routing (the solve service's cross-request batching): over a
/// tenant-routed FusedGpuEvaluator, the (f, slot_capacity) constructor
/// holds up to f.max_tenants() systems of one structure, each with its
/// own {ProjectiveSystem, patched start evaluator, gamma}.  Each tracker
/// slot is assigned a tenant (assign_slot); the tracker announces which
/// slots the next chunk's points belong to (bind_slots,
/// newton::SlotAwareEvaluator), and every point runs its tenant's
/// objects while the device launch is routed per point.  A routed point
/// runs exactly the single-system arithmetic, so a path tracks bitwise
/// identically whether its request rides alone or coalesced.  Routing
/// is on exactly when that constructor built the homotopy; the
/// single-system constructor stores its system as tenant 0.
template <prec::RealScalar S, class TargetEval>
class BatchedProjectiveHomotopy {
  using C = cplx::Complex<S>;

  /// Whether TargetEval can route points to tenants (FusedGpuEvaluator).
  static constexpr bool kRoutable =
      requires(TargetEval& f, std::span<const unsigned> ids) {
        f.bind_tenants(ids);
        f.max_tenants();
      };

 public:
  /// Marks this type as an externally-constructed batched homotopy for
  /// BatchPathTracker's generic constructor.
  using BatchedHomotopyTag = void;

  BatchedProjectiveHomotopy(TargetEval& f, const poly::PolynomialSystem& target,
                            const poly::PolynomialSystem& start_system,
                            cplx::Complex<double> gamma,
                            std::span<const cplx::Complex<double>> patch)
      : BatchedProjectiveHomotopy(f, /*tenants=*/1, /*slot_capacity=*/0,
                                  /*routed=*/false) {
    if (f.dimension() != target.dimension())
      throw std::invalid_argument("BatchedProjectiveHomotopy: dimension mismatch");
    check_degrees(target, start_system);
    tenants_[0].emplace(target, start_system, gamma, patch);
  }

  /// The tenant-routed homotopy over a routed evaluator; `slot_capacity`
  /// is the owning tracker's max_paths, the widest slot id bind_slots
  /// may carry.  Tenants are installed by set_tenant.
  BatchedProjectiveHomotopy(TargetEval& f, std::size_t slot_capacity)
    requires kRoutable
      : BatchedProjectiveHomotopy(f, f.max_tenants(), slot_capacity, /*routed=*/true) {
    if (tenants_.empty())
      throw std::invalid_argument(
          "BatchedProjectiveHomotopy: routing needs a tenant-routed evaluator");
  }

  [[nodiscard]] unsigned dimension() const noexcept { return f_.dimension() + 1; }
  [[nodiscard]] unsigned affine_dimension() const noexcept { return f_.dimension(); }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  /// Install (or replace) tenant `tenant`: its target's tables on the
  /// device evaluator plus its CPU-side projective state.
  void set_tenant(unsigned tenant, const poly::PolynomialSystem& target,
                  const poly::PolynomialSystem& start_system,
                  cplx::Complex<double> gamma,
                  std::span<const cplx::Complex<double>> patch)
    requires kRoutable
  {
    if (!routed_ || tenant >= tenants_.size())
      throw std::invalid_argument("BatchedProjectiveHomotopy: bad tenant");
    check_degrees(target, start_system);
    f_.set_tenant(tenant, target);
    tenants_[tenant].emplace(target, start_system, gamma, patch);
  }

  void clear_tenant(unsigned tenant)
    requires kRoutable
  {
    if (!routed_) throw std::logic_error("BatchedProjectiveHomotopy: not routed");
    if (tenant < tenants_.size()) tenants_[tenant].reset();
    f_.clear_tenant(tenant);
  }

  /// Declare that tracker slot `slot` carries a path of `tenant`.
  void assign_slot(std::size_t slot, unsigned tenant)
    requires kRoutable
  {
    if (slot >= slot_tenant_.size())
      throw std::invalid_argument("BatchedProjectiveHomotopy: bad slot");
    if (tenant >= tenants_.size() || !tenants_[tenant])
      throw std::invalid_argument(
          "BatchedProjectiveHomotopy: slot bound to absent tenant");
    slot_tenant_[slot] = tenant;
  }

  /// SlotAwareEvaluator hook: points[first+i] of the following evaluate
  /// calls belongs to tracker slot ids[first+i].  The span must outlive
  /// those calls (the tracker binds its own id vectors).  Ignored unless
  /// routed.
  void bind_slots(std::span<const std::size_t> ids)
    requires kRoutable
  {
    bound_ = ids;
  }

  /// H(z_{first+i}, ts_{first+i}) for i in [0, count), count <=
  /// max_batch(): chunk-local values (count*(n+1)) and row-major
  /// Jacobians (count*(n+1)^2), one device launch for the affine
  /// target.  Lifted target and start values are recorded per chunk
  /// slot for rhs_from_last.
  void evaluate_range(const std::vector<std::vector<C>>& points,
                      std::span<const C> ts, std::size_t first, std::size_t count,
                      std::span<C> values, std::span<C> jacobians) {
    const unsigned n = affine_dimension();
    const unsigned np1 = n + 1;
    const std::size_t nn1 = std::size_t{np1} * np1;
    if (count > max_batch_ || ts.size() < first + count ||
        values.size() < count * np1 || jacobians.size() < count * nn1)
      throw std::invalid_argument("BatchedProjectiveHomotopy: bad batch spans");

    stage(points, first, count);
    f_.evaluate_range(x_pts_, 0, count,
                      std::span<poly::EvalResult<S>>(f_chunk_).subspan(0, count));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i;
      const Tenant& ten = *tenants_[chunk_tenants_[i]];
      const auto z = std::span<const C>(points[slot]);
      ten.g.evaluate(z, s_eval_);
      detail::assemble_projective<S>(
          ten.ps, ten.gamma, ts[slot], z, std::span<const C>(x_pts_[i]),
          std::span<const C>(f_chunk_[i].values),
          std::span<const C>(f_chunk_[i].jacobian),
          std::span<const C>(s_eval_.values), std::span<const C>(s_eval_.jacobian),
          std::span<C>(fhat_).subspan(i * n, n),
          std::span<C>(ghat_).subspan(i * n, n), std::span<C>(fhat_jac_),
          values.subspan(i * np1, np1), jacobians.subspan(i * nn1, nn1));
    }
  }

  /// Davidenko right-hand side of chunk slot i of the most recent
  /// evaluate_range call, with that point's gamma; the patch row is
  /// zero.
  void rhs_from_last(std::size_t i, std::span<C> out) const {
    const unsigned n = affine_dimension();
    const C gamma = tenants_[chunk_tenants_[i]]->gamma;
    for (unsigned q = 0; q < n; ++q)
      out[q] = detail::davidenko_rhs(gamma, fhat_[i * n + q], ghat_[i * n + q]);
    out[n] = C{};
  }

  /// The projective hooks of the single-system form.
  void renormalize(std::span<C> z) const { single().ps.renormalize(z); }
  [[nodiscard]] double infinity_ratio(std::span<const C> z) const {
    return single().ps.infinity_ratio(z);
  }

  /// Slot forms (BatchPathTracker::kSlotProjective): each slot
  /// renormalizes onto its tenant's patch.
  void renormalize(std::size_t slot, std::span<C> z) const
    requires kRoutable
  {
    slot_tenant(slot).ps.renormalize(z);
  }
  [[nodiscard]] double infinity_ratio(std::size_t slot, std::span<const C> z) const
    requires kRoutable
  {
    return slot_tenant(slot).ps.infinity_ratio(z);
  }

 private:
  static constexpr unsigned kUnassigned = ~0u;

  struct Tenant {
    Tenant(const poly::PolynomialSystem& target,
           const poly::PolynomialSystem& start_system, cplx::Complex<double> gamma_in,
           std::span<const cplx::Complex<double>> patch)
        : ps(target, patch),
          g(homogenize(start_system, patch)),
          gamma(C::from_double(gamma_in)) {}

    detail::ProjectiveSystem<S> ps;
    ad::CpuEvaluator<S> g;  ///< patched homogenized start system
    C gamma;
  };

  BatchedProjectiveHomotopy(TargetEval& f, unsigned tenants, std::size_t slot_capacity,
                            bool routed)
      : f_(f),
        max_batch_(f.batch_capacity()),
        routed_(routed),
        tenants_(tenants),
        slot_tenant_(slot_capacity, kUnassigned),
        chunk_tenants_(max_batch_),
        s_eval_(f.dimension() + 1) {
    const unsigned n = f.dimension();
    x_pts_.resize(max_batch_);
    for (auto& p : x_pts_) p.resize(n);
    f_chunk_.resize(max_batch_);
    for (auto& r : f_chunk_) r.resize(n);
    fhat_.resize(max_batch_ * std::size_t{n});
    ghat_.resize(max_batch_ * std::size_t{n});
    fhat_jac_.resize(std::size_t{n} * (n + 1));
  }

  static void check_degrees(const poly::PolynomialSystem& target,
                            const poly::PolynomialSystem& start_system) {
    if (start_system.degrees() != target.degrees())
      throw std::invalid_argument(
          "BatchedProjectiveHomotopy: start system degrees must match the target's");
  }

  [[nodiscard]] const Tenant& single() const {
    if (routed_)
      throw std::logic_error("BatchedProjectiveHomotopy: routed hooks take the slot");
    return *tenants_[0];
  }
  [[nodiscard]] unsigned tenant_of_slot(std::size_t slot) const {
    if (slot >= slot_tenant_.size() || slot_tenant_[slot] == kUnassigned)
      throw std::logic_error("BatchedProjectiveHomotopy: unassigned slot evaluated");
    return slot_tenant_[slot];
  }
  [[nodiscard]] const Tenant& slot_tenant(std::size_t slot) const {
    return *tenants_[routed_ ? tenant_of_slot(slot) : 0];
  }

  /// Pull points[first + i] (i < count) back to the affine chunk, each
  /// with its own tenant's system, recording the tenants in
  /// chunk_tenants_; when routed, the device launch that follows is
  /// routed by them.
  void stage(const std::vector<std::vector<C>>& points, std::size_t first,
             std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (routed_) {
        if (bound_.size() <= first + i)
          throw std::logic_error(
              "BatchedProjectiveHomotopy: evaluate without bind_slots");
        chunk_tenants_[i] = tenant_of_slot(bound_[first + i]);
      } else {
        chunk_tenants_[i] = 0;
      }
      tenants_[chunk_tenants_[i]]->ps.dehomogenize_into(
          std::span<const C>(points[first + i]), std::span<C>(x_pts_[i]));
    }
    if constexpr (kRoutable)
      if (routed_)
        f_.bind_tenants(std::span<const unsigned>(chunk_tenants_.data(), count));
  }

  TargetEval& f_;
  std::size_t max_batch_;
  bool routed_;
  std::vector<std::optional<Tenant>> tenants_;  ///< tenant 0 alone unless routed
  std::vector<unsigned> slot_tenant_;           ///< by tracker slot (routed)
  std::span<const std::size_t> bound_;          ///< slot ids of the next chunk
  std::vector<unsigned> chunk_tenants_;  ///< tenant per point of the last chunk

  poly::EvalResult<S> s_eval_;             ///< per-point start scratch
  std::vector<std::vector<C>> x_pts_;      ///< pullback chunk staging
  std::vector<poly::EvalResult<S>> f_chunk_;  ///< affine device chunk results
  std::vector<C> fhat_, ghat_;             ///< last full eval lifts, per slot
  std::vector<C> fhat_jac_;                ///< per-point lift Jacobian scratch
};

}  // namespace polyeval::homotopy
