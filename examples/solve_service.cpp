// Solve service end to end: submit several total-degree solve requests
// to one persistent service through the unified solve::Options /
// solve::Report surface, watch them coalesce onto shared device
// rounds, poll progress, cancel one, and read the versioned reports.
//
// The one-shot spelling of the same thing is
// homotopy::solve_total_degree_sharded(target, options) -- in the
// default projective geometry that call routes through a throwaway
// service instance -- and the scalar reference is the CPU solver
// homotopy::solve_total_degree(target, options); the endpoints are
// bitwise identical on all three.

#include <iostream>

#include "poly/random_system.hpp"
#include "service/solve_service.hpp"

int main() {
  using namespace polyeval;

  // --- three random systems sharing one uniform structure ----------------
  // Same (n, m, k, d) means their requests can share multi-tenant
  // device launches; the coefficients (and hence the solutions) differ.
  const auto make = [](std::uint32_t seed) {
    poly::SystemSpec spec;
    spec.dimension = 3;
    spec.monomials_per_polynomial = 3;
    spec.variables_per_monomial = 2;
    spec.max_exponent = 2;
    spec.seed = seed;
    return poly::make_random_system(spec);
  };

  // --- the unified options surface ---------------------------------------
  solve::Options options;                       // validated defaults
  options.sharding.max_paths = 8;               // keep the demo small
  options.tracking.track.max_steps = 3000;
  options.validate();

  // --- one persistent service, three concurrent requests -----------------
  service::SolveService<double>::Config config;
  config.shards = 2;
  service::SolveService<double> service(std::move(config));

  std::vector<service::SolveTicket<double>> tickets;
  for (std::uint32_t seed : {7u, 8u, 9u}) {
    tickets.push_back(service.submit({make(seed), options,
                                      /*start=*/{}, /*round_budget=*/0,
                                      /*modeled_deadline_us=*/0.0}));
    std::cout << "request " << tickets.back().id() << ": "
              << to_string(tickets.back().verdict()) << "\n";
  }

  // Cancel the third request after a few scheduler ticks: its live
  // paths retire as kCancelled at the next round boundary, its
  // unstarted paths never cost a launch.
  for (int tick = 0; tick < 3; ++tick) service.step();
  tickets[2].cancel();

  std::uint64_t last_retired = ~std::uint64_t{0};
  while (service.step()) {
    const auto progress = tickets[0].poll();
    if (progress.paths_retired == last_retired) continue;
    last_retired = progress.paths_retired;
    std::cout << "  request 1: " << progress.paths_retired << "/"
              << progress.paths_total << " paths retired ("
              << to_string(progress.status) << ")\n";
  }

  // --- versioned reports --------------------------------------------------
  for (auto& ticket : tickets) {
    const auto& report = ticket.report();  // kDone by now: never throws
    std::cout << "request " << ticket.id() << ": " << report.successes()
              << " converged, " << report.at_infinity() << " at infinity, "
              << report.cancelled() << " cancelled of " << report.attempted
              << " paths in " << report.timing.rounds << " rounds, modeled "
              << report.timing.modeled_us << " us\n";
    for (const auto& path : report.paths)
      if (path.status == homotopy::PathStatus::kConverged)
        std::cout << "    residual " << path.final_residual << " after "
                  << path.steps << " steps\n";
  }

  // --- what the batching bought ------------------------------------------
  const auto stats = service.stats();
  std::cout << "\ncoalesced rounds: " << stats.coalesced_rounds
            << " (max " << stats.max_tenants_in_round
            << " requests sharing a launch), " << stats.live_steals
            << " paths stolen between shards, cache " << stats.cache_hits
            << " hits / " << stats.cache_misses << " misses\n";
  return 0;
}
