// Homotopy continuation end to end: solve the cyclic-3 benchmark system
// by tracking all six total-degree paths with the predictor-corrector
// tracker (the application the paper's evaluator accelerates), in the
// default projective geometry, then verify every root against the
// naive evaluator.  Exits non-zero when a claimed root's residual
// exceeds 1e-8.

#include <iostream>

#include "benchutil/table.hpp"
#include "homotopy/solver.hpp"
#include "poly/families.hpp"

int main() {
  using namespace polyeval;
  using Cd = cplx::Complex<double>;

  const auto system = poly::cyclic(3);
  std::cout << "target: cyclic-3 (degrees 1, 2, 3; Bezout number 6)\n\n";

  solve::Options options;
  options.sharding.shards = 2;  // manager/worker path distribution
  const auto summary = homotopy::solve_total_degree<double>(system, options);

  std::cout << "paths tracked: " << summary.attempted
            << ", successful: " << summary.successes
            << ", at infinity: " << summary.at_infinity << "\n\n";

  // Endpoints are patched projective points; print their affine chart.
  const auto affine = [](const std::vector<Cd>& z) {
    return homotopy::dehomogenize<double>(std::span<const Cd>(z));
  };
  benchutil::Table table({"path", "status", "steps", "rejections", "residual", "endpoint"});
  for (std::size_t p = 0; p < summary.paths.size(); ++p) {
    const auto& r = summary.paths[p];
    std::ostringstream endpoint;
    if (r.success) {
      const auto x = affine(r.solution);
      endpoint << "(";
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (i) endpoint << ", ";
        endpoint << benchutil::format_fixed(x[i].re(), 3) << (x[i].im() < 0 ? "-" : "+")
                 << benchutil::format_fixed(std::abs(x[i].im()), 3) << "i";
      }
      endpoint << ")";
    } else {
      endpoint << "t = " << benchutil::format_fixed(r.t_reached, 3);
    }
    table.add_row({std::to_string(p), homotopy::to_string(r.status),
                   std::to_string(r.steps), std::to_string(r.rejections),
                   r.success ? benchutil::format_fixed(r.final_residual * 1e15, 2) + "e-15"
                             : "-",
                   endpoint.str()});
  }
  std::cout << table.to_string() << "\n";

  const auto roots = summary.distinct_solutions();
  std::cout << "distinct solutions: " << roots.size() << "\n";

  // Verify each solution with the independent naive evaluator.
  constexpr double kTolerance = 1e-8;
  double worst = 0.0;
  bool ok = true;
  for (const auto& root : roots) {
    std::vector<Cd> values(3), jac(9);
    system.evaluate_naive<double>(affine(root), values, jac);
    for (const auto& v : values) {
      const double residual = std::abs(v.re()) + std::abs(v.im());
      worst = std::max(worst, residual);
      ok = ok && residual <= kTolerance;  // a NaN residual fails too
    }
  }
  std::cout << "largest |f| over all claimed roots (naive check): " << worst << "\n";
  if (!ok) {
    std::cout << "FAIL: a claimed root's residual exceeds " << kTolerance << "\n";
    return 1;
  }
  return 0;
}
