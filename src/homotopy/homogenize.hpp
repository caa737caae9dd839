#pragma once

/// \file homogenize.hpp
/// Homogenization of a target system with an extra coordinate plus a
/// random patch hyperplane -- the projective substrate of the tracker's
/// at-infinity classification.  Each polynomial f_i of degree d_i lifts
/// to F_i(z) = z_n^{d_i} f_i(z_0/z_n, ..., z_{n-1}/z_n), a homogeneous
/// polynomial in n+1 variables whose roots with z_n = 0 are exactly the
/// target's solutions at infinity; the affine chart is fixed by the
/// patch hyperplane c . z = 1 (random unit-modulus c, so the patch
/// misses every solution with probability one).
///
/// The explicit homogenized PolynomialSystem built here is the *oracle*
/// (tests evaluate it naively); the trackers never expand it -- they
/// evaluate the affine target on the device and lift values/Jacobians by
/// powers of z_n (projective.hpp), which keeps the paper's uniform
/// structure (n, m, k, d) intact for the fused kernels.

#include <cstdint>
#include <span>

#include "poly/system.hpp"

namespace polyeval::homotopy {

/// Homogenize one polynomial of `num_vars` variables to total degree
/// `degree` (>= its own degree) with the extra variable z_{num_vars}:
/// every monomial of total degree tau gains the factor
/// z_{num_vars}^{degree - tau}.
[[nodiscard]] poly::Polynomial homogenize_polynomial(const poly::Polynomial& p,
                                                     unsigned degree);

/// Random unit-modulus patch coefficients c over `dimension` coordinates
/// (seeded, deterministic): the hyperplane c . z = 1.
[[nodiscard]] std::vector<cplx::Complex<double>> random_patch(unsigned dimension,
                                                              std::uint64_t seed);

/// The patch hyperplane as a polynomial: c_0 z_0 + ... + c_n z_n - 1.
[[nodiscard]] poly::Polynomial patch_polynomial(
    std::span<const cplx::Complex<double>> c);

/// The square projective system over n+1 variables: the n homogenized
/// target polynomials (each to its own total degree) plus the patch row
/// c . z = 1.  Roots with z_n = 0 are the target's solutions at
/// infinity; roots with z_n != 0 dehomogenize to affine target roots.
[[nodiscard]] poly::PolynomialSystem homogenize(const poly::PolynomialSystem& target,
                                                std::span<const cplx::Complex<double>> c);

/// Lift an affine point into the patch: z = (x, 1) scaled so c . z = 1.
/// Start roots enter projective tracking through this embedding (done
/// once, before sharding, so every shard sees identical start points).
template <prec::RealScalar S>
[[nodiscard]] std::vector<cplx::Complex<S>> embed_in_patch(
    std::span<const cplx::Complex<S>> x, std::span<const cplx::Complex<S>> c) {
  using C = cplx::Complex<S>;
  const std::size_t n = x.size();
  if (c.size() != n + 1)
    throw std::invalid_argument("embed_in_patch: patch has wrong dimension");
  std::vector<C> z(x.begin(), x.end());
  z.push_back(C(S(1.0)));
  C dot{};
  for (std::size_t i = 0; i <= n; ++i) dot += c[i] * z[i];
  for (auto& zi : z) zi = zi / dot;
  return z;
}

/// embed_in_patch over a whole root list, in place, with the patch given
/// in double (as random_patch returns it).
template <prec::RealScalar S>
void embed_all_in_patch(std::vector<std::vector<cplx::Complex<S>>>& roots,
                        std::span<const cplx::Complex<double>> c) {
  using C = cplx::Complex<S>;
  std::vector<C> patch;
  patch.reserve(c.size());
  for (const auto& ci : c) patch.push_back(C::from_double(ci));
  for (auto& root : roots)
    root = embed_in_patch<S>(std::span<const C>(root), std::span<const C>(patch));
}

/// Affine chart of a projective point: x_i = z_i / z_n.  Meaningful only
/// for endpoints classified finite (z_n bounded away from zero).
template <prec::RealScalar S>
[[nodiscard]] std::vector<cplx::Complex<S>> dehomogenize(
    std::span<const cplx::Complex<S>> z) {
  using C = cplx::Complex<S>;
  if (z.size() < 2) throw std::invalid_argument("dehomogenize: point too short");
  const std::size_t n = z.size() - 1;
  std::vector<C> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = z[i] / z[n];
  return x;
}

}  // namespace polyeval::homotopy
