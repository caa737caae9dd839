// Sustained solve throughput of the persistent solve service under a
// seeded Poisson-style arrival mix of small same-structure requests --
// the cross-request batching claim, end to end.
//
// The BATCHED run drives ONE SolveService in sync mode: requests
// arrive on a seeded exponential inter-arrival schedule (in scheduler
// ticks, so the mix is deterministic on any host) and overlapping
// requests coalesce onto shared lockstep rounds through the
// multi-tenant evaluators.  The SEQUENTIAL reference solves the same
// requests one at a time through fresh service instances -- the
// one-request-per-service world the front end replaces.
//
// Gates (both deterministic):
//   * modeled throughput: the batched run's modeled device makespan
//     must not exceed the sequential sum -- merged rounds amortize the
//     fixed launch overhead that per-request rounds each pay.
//   * bitwise parity: every request's endpoints must equal the CPU
//     solver's (solve_total_degree, the scalar reference) bit for bit
//     (path trajectories are schedule-independent, so coalescing must
//     not perturb a single ulp).
//
// The host wall rows (solves_per_sec; HIGHER is better) move with the
// runner and are regression-gated at the coarse 2x ratio like every
// other wall number.  Emits BENCH_service.json; `--quick` is the CI
// smoke configuration.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "benchutil/json.hpp"
#include "benchutil/stamp.hpp"
#include "benchutil/table.hpp"
#include "homotopy/solver.hpp"
#include "poly/random_system.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem request_system(std::uint32_t seed) {
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  spec.max_exponent = 2;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

solve::Options request_options(std::uint64_t max_paths) {
  solve::Options opt;
  opt.sharding.max_paths = max_paths;
  opt.tracking.track.max_steps = 3000;
  return opt;
}

service::SolveService<double>::Config service_config() {
  service::SolveService<double>::Config config;
  config.shards = 2;
  return config;
}

bool paths_bitwise_equal(const std::vector<homotopy::TrackResult<double>>& a,
                         const std::vector<homotopy::TrackResult<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& x = a[p];
    const auto& y = b[p];
    if (x.status != y.status || x.steps != y.steps ||
        x.rejections != y.rejections ||
        x.endgame_failures != y.endgame_failures || x.winding != y.winding ||
        x.final_residual != y.final_residual ||
        x.solution.size() != y.solution.size())
      return false;
    for (std::size_t i = 0; i < x.solution.size(); ++i)
      if (cplx::max_abs_diff(x.solution[i], y.solution[i]) != 0.0) return false;
  }
  return true;
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* trace_out = nullptr;    // --trace-out FILE: Chrome trace JSON
  const char* metrics_out = nullptr;  // --metrics-out FILE: Prometheus text
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_out = argv[++i];
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc)
      metrics_out = argv[++i];
  }
  // Tracing rides along at full detail when an export was requested;
  // the gates below are unchanged either way (the tracer observes the
  // modeled clock, it never feeds it).
  const auto trace_level =
      (trace_out != nullptr || metrics_out != nullptr)
          ? obs::TraceLevel::kFull
          : obs::TraceLevel::kOff;

  const unsigned num_requests = quick ? 3 : 6;
  const std::uint64_t paths_per_request = quick ? 4 : 6;
  const double mean_interarrival_ticks = 2.0;

  std::cout << "=== Solve service: sustained solves/sec under a Poisson "
               "arrival mix ===\n"
            << "requests: " << num_requests << " x " << paths_per_request
            << " paths, one uniform structure, 2 shards\n\n";

  std::vector<poly::PolynomialSystem> systems;
  for (unsigned r = 0; r < num_requests; ++r)
    systems.push_back(request_system(1000 + 17 * r));
  const auto opt = request_options(paths_per_request);

  // Seeded exponential inter-arrival schedule, quantized to scheduler
  // ticks: deterministic on every host, Poisson-shaped in expectation.
  std::mt19937_64 rng(20120102);
  std::exponential_distribution<double> gap(1.0 / mean_interarrival_ticks);
  std::vector<std::uint64_t> arrival_tick(num_requests);
  double arrival = 0.0;
  for (unsigned r = 0; r < num_requests; ++r) {
    arrival_tick[r] = static_cast<std::uint64_t>(arrival);
    arrival += gap(rng);
  }

  // -- the batched run: one persistent service, arrivals interleaved --
  std::vector<service::SolveTicket<double>> tickets(num_requests);
  service::ServiceStats batched_stats;
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto config = service_config();
    config.trace = trace_level;
    service::SolveService<double> svc(config);
    unsigned next = 0;
    bool more = true;
    while (more || next < num_requests) {
      while (next < num_requests &&
             svc.stats().ticks >= arrival_tick[next]) {
        tickets[next] = svc.submit({systems[next], opt, {}, 0, 0.0});
        if (!tickets[next].admitted()) {
          std::cout << "FAIL: request " << next << " rejected: "
                    << to_string(tickets[next].verdict()) << "\n";
          return 1;
        }
        ++next;
      }
      more = svc.step();
    }
    batched_stats = svc.stats();
    if (trace_out != nullptr) {
      std::ofstream out(trace_out);
      svc.export_trace(out);
      std::cout << (out ? "wrote " : "WARNING: could not write ")
                << trace_out << "\n";
    }
    if (metrics_out != nullptr) {
      std::ofstream out(metrics_out);
      svc.metrics().expose(out);
      std::cout << (out ? "wrote " : "WARNING: could not write ")
                << metrics_out << "\n";
    }
  }
  const double batched_sec = wall_seconds_since(t0);

  // -- the sequential reference: fresh service per request, no overlap --
  double sequential_modeled_us = 0.0;
  const auto t1 = std::chrono::steady_clock::now();
  for (unsigned r = 0; r < num_requests; ++r) {
    service::SolveService<double> svc(service_config());
    auto ticket = svc.submit({systems[r], opt, {}, 0, 0.0});
    svc.drain();
    if (!ticket.done()) {
      std::cout << "FAIL: sequential request " << r << " never completed\n";
      return 1;
    }
    sequential_modeled_us += svc.stats().total_modeled_us;
  }
  const double sequential_sec = wall_seconds_since(t1);

  // -- parity: every request against the scalar CPU solver ------------
  bool parity_ok = true;
  for (unsigned r = 0; r < num_requests; ++r) {
    const auto standalone = homotopy::solve_total_degree<double>(systems[r], opt);
    if (!paths_bitwise_equal(tickets[r].report().paths, standalone.paths)) {
      std::cout << "FAIL: request " << r
                << " endpoints differ from the standalone solve\n";
      parity_ok = false;
    }
  }

  const double batched_solves_per_sec =
      static_cast<double>(num_requests) / batched_sec;
  const double sequential_solves_per_sec =
      static_cast<double>(num_requests) / sequential_sec;
  const double modeled_speedup =
      batched_stats.total_modeled_us > 0.0
          ? sequential_modeled_us / batched_stats.total_modeled_us
          : 0.0;
  const bool modeled_gate_ok =
      batched_stats.total_modeled_us <= sequential_modeled_us;
  const bool coalesced = batched_stats.coalesced_rounds > 0;

  benchutil::Table table({"run", "solves/sec", "wall s", "modeled us",
                          "coalesced rounds", "steals", "cache hits"});
  table.add_row({"batched", benchutil::format_fixed(batched_solves_per_sec, 3),
                 benchutil::format_fixed(batched_sec, 2),
                 benchutil::format_fixed(batched_stats.total_modeled_us, 1),
                 std::to_string(batched_stats.coalesced_rounds),
                 std::to_string(batched_stats.live_steals),
                 std::to_string(batched_stats.cache_hits)});
  table.add_row({"sequential",
                 benchutil::format_fixed(sequential_solves_per_sec, 3),
                 benchutil::format_fixed(sequential_sec, 2),
                 benchutil::format_fixed(sequential_modeled_us, 1), "0", "0",
                 "-"});
  std::cout << table.to_string() << "\n"
            << "modeled sequential/batched: "
            << benchutil::format_speedup(modeled_speedup) << "\n";

  benchutil::JsonWriter json;
  json.begin_object();
  json.field("bench", "service");
  polyeval::benchutil::emit_stamp(json);
  json.key("workload");
  json.begin_object()
      .field("requests", num_requests)
      .field("paths_per_request", paths_per_request)
      .field("mean_interarrival_ticks", mean_interarrival_ticks)
      .field("shards", 2u)
      .field("quick", quick)
      .end_object();
  json.field("batched_solves_per_sec", batched_solves_per_sec);
  json.field("sequential_solves_per_sec", sequential_solves_per_sec);
  json.field("batched_wall_us", batched_sec * 1e6);
  json.field("sequential_wall_us", sequential_sec * 1e6);
  json.field("modeled_batched_us", batched_stats.total_modeled_us);
  json.field("modeled_sequential_us", sequential_modeled_us);
  json.field("modeled_speedup_batched_vs_sequential", modeled_speedup);
  json.field("coalesced_rounds", batched_stats.coalesced_rounds);
  json.field("max_tenants_in_round",
             std::uint64_t{batched_stats.max_tenants_in_round});
  json.field("live_steals", batched_stats.live_steals);
  json.field("queue_pulls", batched_stats.queue_pulls);
  json.field("cache_hits", std::uint64_t{batched_stats.cache_hits});
  json.field("cache_misses", std::uint64_t{batched_stats.cache_misses});
  json.field("weighted_steals", batched_stats.weighted_steals);
  // Per-device modeled busy time and utilization (busy / makespan):
  // on this uniform 2-shard fleet the devices should track each other,
  // and on a mixed fleet (bench_hetero) the same leaves show the
  // weighted fill keeping the fast card loaded.  Reported, not gated.
  json.key("devices");
  json.begin_array();
  for (std::size_t d = 0; d < batched_stats.device_busy_us.size(); ++d)
    json.begin_object()
        .field("device", static_cast<std::uint64_t>(d))
        .field("modeled_busy_us", batched_stats.device_busy_us[d])
        .field("utilization", batched_stats.total_modeled_us > 0.0
                                  ? batched_stats.device_busy_us[d] /
                                        batched_stats.total_modeled_us
                                  : 0.0)
        .end_object();
  json.end_array();
  json.field("bitwise_parity_vs_standalone", parity_ok);
  json.field("gates_met", parity_ok && modeled_gate_ok);
  json.end_object();

  const char* out_path = "BENCH_service.json";
  if (json.write_file(out_path))
    std::cout << "wrote " << out_path << "\n";
  else
    std::cout << "WARNING: could not write " << out_path << "\n";

  if (!modeled_gate_ok)
    std::cout << "FAIL: batched modeled makespan "
              << batched_stats.total_modeled_us << " us exceeds sequential "
              << sequential_modeled_us << " us\n";
  if (!coalesced)
    std::cout << "note: arrival mix produced no coalesced rounds this run\n";
  if (!parity_ok)
    std::cout << "FAIL: endpoints differ from standalone solves\n";

  return (parity_ok && modeled_gate_ok) ? 0 : 1;
}
