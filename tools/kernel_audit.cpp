/// \file kernel_audit.cpp
/// CI gate over the kernel access auditor (src/audit).
///
/// Two passes, both required for a zero exit:
///
///  1. **Fixture gate** -- every seeded-violation fixture must make its
///     checker fire with the expected kernel/buffer attribution.  A
///     checker that stops firing would silently turn the production
///     sweep into a rubber stamp.
///  2. **Production sweep** -- every production kernel builder (fused,
///     values-only, the three-kernel pipeline through both of its hosts,
///     pipelined, multi-tenant, Newton refinement) runs audited across
///     Table-1-shaped systems x {double, dd, qd} x representative
///     geometries.  The single-point host runs under both section-3.1
///     powers strategies, so its powers_global, common_factors_global,
///     values_only and values_summation kernels are audited too.  Any
///     finding fails the run.
///
/// Results land in AUDIT_kernels.json (override with --out).  --quick
/// trims the matrix for pre-commit runs; CI runs the full sweep.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit/fixtures.hpp"
#include "audit/kernel_auditor.hpp"
#include "core/batch_evaluator.hpp"
#include "core/fused_evaluator.hpp"
#include "core/gpu_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "linalg/lu.hpp"
#include "newton/batch.hpp"
#include "poly/random_system.hpp"
#include "prec/double_double.hpp"
#include "prec/quad_double.hpp"

namespace {

using polyeval::audit::Finding;
using polyeval::audit::FindingKind;
using polyeval::audit::KernelAuditor;

struct SweepEntry {
  std::string evaluator;
  std::string precision;
  std::string shape;
  std::string geometry;
  std::size_t launches = 0;
  std::vector<Finding> findings;
};

struct FixtureEntry {
  std::string name;
  bool passed = false;
  std::string detail;
  std::vector<Finding> findings;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_finding(std::ostream& os, const Finding& f, const char* indent) {
  os << indent << "{\"kind\": \"" << polyeval::audit::to_string(f.kind)
     << "\", \"kernel\": \"" << json_escape(f.kernel) << "\", \"phase\": " << f.phase
     << ", \"block\": " << f.block << ", \"warp\": " << f.warp
     << ", \"lane\": " << f.lane << ", \"thread\": " << f.thread
     << ", \"buffer\": \"" << json_escape(f.buffer) << "\", \"offset\": " << f.offset
     << ", \"provenance\": \"" << json_escape(f.provenance)
     << "\", \"detail\": \"" << json_escape(f.detail) << "\"}";
}

// ---------------------------------------------------------------------------
// Production sweep
// ---------------------------------------------------------------------------

struct Geometry {
  std::string name;
  unsigned block_size = 0;  // 0 = heuristic auto
  std::optional<polyeval::core::InterchangeLayout> interchange;
};

struct SweepContext {
  std::vector<SweepEntry>& entries;
  const polyeval::poly::SystemSpec& spec;
  const std::string shape_name;
  const Geometry& geo;
  const char* precision;
};

/// Run `body(device, auditor)` with a fresh device and attached auditor,
/// then record what the auditor saw.  The auditor attaches BEFORE the
/// body constructs its evaluator so construction-time uploads and fills
/// register as host-initialized provenance.
template <class Body>
void audited(SweepContext& ctx, const char* evaluator, Body&& body) {
  polyeval::simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  body(device, auditor);
  SweepEntry entry;
  entry.evaluator = evaluator;
  entry.precision = ctx.precision;
  entry.shape = ctx.shape_name;
  entry.geometry = ctx.geo.name;
  entry.launches = auditor.launches_audited();
  entry.findings.assign(auditor.findings().begin(), auditor.findings().end());
  ctx.entries.push_back(std::move(entry));
  auditor.detach();
}

template <polyeval::prec::RealScalar S>
void sweep_precision(std::vector<SweepEntry>& entries, const char* precision,
                     const polyeval::poly::SystemSpec& spec,
                     const std::string& shape_name, const Geometry& geo,
                     bool quick) {
  namespace core = polyeval::core;
  namespace poly = polyeval::poly;
  using C = polyeval::cplx::Complex<S>;

  const auto system = poly::make_random_system(spec);
  constexpr unsigned kBatch = 4;
  std::vector<std::vector<C>> points;
  points.reserve(kBatch);
  for (unsigned p = 0; p < kBatch; ++p)
    points.push_back(poly::make_random_point<S>(spec.dimension, 7000 + p));
  std::vector<poly::EvalResult<S>> results(kBatch,
                                           poly::EvalResult<S>(spec.dimension));

  SweepContext ctx{entries, spec, shape_name, geo, precision};

  // The measured autotuner would launch dozens of probe geometries per
  // construction; kHeuristic keeps the sweep about the production
  // kernels themselves while the geometry axis covers the tuned shapes.
  audited(ctx, "fused", [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
    typename core::FusedGpuEvaluator<S>::Options opt;
    opt.block_size = geo.block_size;
    opt.interchange = geo.interchange;
    opt.tuning = polyeval::tune::TuningMode::kHeuristic;
    core::FusedGpuEvaluator<S> ev(dev, system, kBatch, opt);
    aud.begin_epoch();
    ev.evaluate_range(points, 0, kBatch, std::span<poly::EvalResult<S>>(results));
    std::vector<C> values(std::size_t{kBatch} * spec.dimension);
    aud.begin_epoch();
    ev.evaluate_values_range(points, 0, kBatch, std::span<C>(values));
  });

  audited(ctx, "batch", [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
    typename core::BatchGpuEvaluator<S>::Options opt;
    opt.block_size = geo.block_size;
    opt.interchange = geo.interchange;
    opt.tuning = polyeval::tune::TuningMode::kHeuristic;
    core::BatchGpuEvaluator<S> ev(dev, system, kBatch, opt);
    aud.begin_epoch();
    ev.evaluate_range(points, 0, kBatch, std::span<poly::EvalResult<S>>(results));
    aud.begin_epoch();
    ev.evaluate_range(points, 0, kBatch, std::span<poly::EvalResult<S>>(results));
  });

  // The paper's single-point pipeline: full and values-only passes, with
  // the powers table per block (the paper's choice) and in its own
  // kernel (the rejected alternative).  An auto geometry is its pinned
  // default, block 32 and AoS.
  using Powers = typename core::GpuEvaluator<S>::PowersStrategy;
  for (const auto powers : {Powers::kPerBlockShared, Powers::kSeparateKernel}) {
    const char* name =
        powers == Powers::kPerBlockShared ? "gpu_shared_powers" : "gpu_global_powers";
    audited(ctx, name, [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
      typename core::GpuEvaluator<S>::Options opt;
      if (geo.block_size != 0) opt.block_size = geo.block_size;
      if (geo.interchange) opt.interchange = *geo.interchange;
      opt.powers = powers;
      core::GpuEvaluator<S> ev(dev, system, opt);
      aud.begin_epoch();
      ev.evaluate(std::span<const C>(points[0]), results[0]);
      std::vector<C> values(spec.dimension);
      aud.begin_epoch();
      ev.evaluate_values(std::span<const C>(points[0]), std::span<C>(values));
    });
  }

  audited(ctx, "pipelined", [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
    typename core::PipelinedFusedEvaluator<S>::Options opt;
    opt.block_size = geo.block_size;
    opt.interchange = geo.interchange;
    opt.micro_chunk = 2;
    opt.tuning = polyeval::tune::TuningMode::kHeuristic;
    core::PipelinedFusedEvaluator<S> ev(dev, system, kBatch, opt);
    aud.begin_epoch();
    ev.evaluate_range(points, 0, kBatch, std::span<poly::EvalResult<S>>(results));
    std::vector<C> values(std::size_t{kBatch} * spec.dimension);
    aud.begin_epoch();
    ev.evaluate_values_range(points, 0, kBatch, std::span<C>(values));
  });

  audited(ctx, "multi_tenant", [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
    typename core::FusedGpuEvaluator<S>::Options opt;
    opt.block_size = geo.block_size;
    opt.interchange = geo.interchange;
    core::FusedGpuEvaluator<S> ev(dev, spec.structure(), /*max_tenants=*/2, kBatch,
                                  opt);
    poly::SystemSpec other = spec;
    other.seed += 1;
    ev.set_tenant(0, system);
    ev.set_tenant(1, poly::make_random_system(other));
    const std::vector<unsigned> tenants = {0, 1, 1, 0};
    ev.bind_tenants(std::span<const unsigned>(tenants));
    aud.begin_epoch();
    ev.evaluate_range(points, 0, kBatch, std::span<poly::EvalResult<S>>(results));
    // A second epoch over swapped routing: exactly the cross-tenant
    // slot-reuse pattern the stale-read checker exists for.
    const std::vector<unsigned> swapped = {1, 0, 0, 1};
    ev.bind_tenants(std::span<const unsigned>(swapped));
    aud.begin_epoch();
    std::vector<C> values(std::size_t{kBatch} * spec.dimension);
    ev.evaluate_values_range(points, 0, kBatch, std::span<C>(values));
  });

  if (quick) return;

  audited(ctx, "newton_refine", [&](polyeval::simt::Device& dev, KernelAuditor& aud) {
    typename core::FusedGpuEvaluator<S>::Options opt;
    opt.block_size = geo.block_size;
    opt.interchange = geo.interchange;
    opt.tuning = polyeval::tune::TuningMode::kHeuristic;
    core::FusedGpuEvaluator<S> ev(dev, system, kBatch, opt);

    // Newton the way the lockstep tracker runs it: one full launch per
    // evaluation round over every point, newton::step per point, until
    // every solve has finished (the direct system, no homotopy
    // parameter -- the kernels launched are exactly the trackers').
    std::vector<std::vector<C>> x = points;
    polyeval::newton::NewtonOptions nopt;
    nopt.max_iterations = 2;
    polyeval::linalg::LuArena<S> arena(spec.dimension, 1);
    std::vector<C> delta(spec.dimension);
    std::vector<polyeval::newton::SolveState> solves(kBatch);
    std::vector<bool> finished(kBatch, false);
    aud.begin_epoch();
    for (unsigned left = kBatch; left > 0;) {
      ev.evaluate_range(x, 0, kBatch, std::span<poly::EvalResult<S>>(results));
      for (unsigned p = 0; p < kBatch; ++p) {
        if (finished[p]) continue;
        if (polyeval::newton::step<S>(solves[p], nopt, std::span<C>(x[p]),
                                      std::span<const C>(results[p].values),
                                      std::span<const C>(results[p].jacobian), arena,
                                      std::span<C>(delta)) !=
            polyeval::newton::Verdict::kContinue) {
          finished[p] = true;
          --left;
        }
      }
    }
  });
}

std::vector<SweepEntry> run_production_sweep(bool quick) {
  namespace poly = polyeval::poly;
  std::vector<SweepEntry> entries;

  // Scaled-down Table-1 shapes: the access pattern of every kernel is
  // governed by (n, m, k, d) the same way at n=8 as at n=128, and the
  // simulator executes lane-by-lane, so small shapes audit the same
  // code paths in seconds instead of hours.
  struct Shape {
    const char* name;
    poly::SystemSpec spec;
  };
  std::vector<Shape> shapes = {
      {"n8_m8_k4_d2", {.dimension = 8,
                       .monomials_per_polynomial = 8,
                       .variables_per_monomial = 4,
                       .max_exponent = 2,
                       .seed = 20120102}},
  };
  if (!quick)
    shapes.push_back({"n16_m20_k6_d3", {.dimension = 16,
                                        .monomials_per_polynomial = 20,
                                        .variables_per_monomial = 6,
                                        .max_exponent = 3,
                                        .seed = 20120103}});

  std::vector<Geometry> geometries = {
      {"auto", 0, std::nullopt},
      {"b64_soa", 64, polyeval::core::InterchangeLayout::kSoA},
  };
  if (!quick)
    geometries.push_back({"b32_aos", 32, polyeval::core::InterchangeLayout::kAoS});

  for (const auto& shape : shapes) {
    for (const auto& geo : geometries) {
      sweep_precision<double>(entries, "double", shape.spec, shape.name, geo, quick);
      sweep_precision<polyeval::prec::DoubleDouble>(entries, "dd", shape.spec,
                                                    shape.name, geo, quick);
      // qd is ~10x double's cost; one geometry covers its kernels.
      if (geo.block_size == 0)
        sweep_precision<polyeval::prec::QuadDouble>(entries, "qd", shape.spec,
                                                    shape.name, geo, quick);
    }
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Fixture gate
// ---------------------------------------------------------------------------

bool has_finding(const std::vector<Finding>& fs, FindingKind kind,
                 const char* kernel, const char* buffer = nullptr) {
  for (const auto& f : fs) {
    if (f.kind != kind) continue;
    if (f.kernel != kernel) continue;
    if (buffer != nullptr && f.buffer != buffer) continue;
    return true;
  }
  return false;
}

std::vector<FixtureEntry> run_fixture_gate() {
  namespace fixtures = polyeval::audit::fixtures;
  std::vector<FixtureEntry> out;

  const auto run = [&](const char* name, auto&& fixture, auto&& verify) {
    polyeval::simt::Device device;
    KernelAuditor auditor;
    auditor.attach(device);
    fixture(auditor, device);
    FixtureEntry entry;
    entry.name = name;
    entry.findings.assign(auditor.findings().begin(), auditor.findings().end());
    entry.detail = verify(entry.findings);
    entry.passed = entry.detail.empty();
    if (entry.passed) entry.detail = "all expected checkers fired";
    out.push_back(std::move(entry));
    auditor.detach();
  };

  run("stale_slot", fixtures::run_stale_slot, [](const std::vector<Finding>& fs) {
    if (!has_finding(fs, FindingKind::kStaleGlobalRead, "fx_stale_slot", "FxMons"))
      return std::string("expected kStaleGlobalRead on FxMons in fx_stale_slot");
    for (const auto& f : fs)
      if (f.kind == FindingKind::kStaleGlobalRead && f.phase != 1)
        return std::string("stale read attributed to wrong phase");
    return std::string();
  });

  run("uninit_read", fixtures::run_uninit_read, [](const std::vector<Finding>& fs) {
    if (!has_finding(fs, FindingKind::kUninitGlobalRead, "fx_uninit_read", "FxNever"))
      return std::string("expected kUninitGlobalRead on FxNever");
    if (!has_finding(fs, FindingKind::kUninitSharedRead, "fx_uninit_read"))
      return std::string("expected kUninitSharedRead");
    return std::string();
  });

  run("out_of_bounds", fixtures::run_out_of_bounds,
      [](const std::vector<Finding>& fs) {
        std::size_t oob = 0;
        for (const auto& f : fs)
          if (f.kind == FindingKind::kGlobalOutOfBounds && f.kernel == "fx_oob" &&
              f.buffer == "FxSmall")
            ++oob;
        if (oob != 2)
          return std::string("expected 2 kGlobalOutOfBounds on FxSmall, saw ") +
                 std::to_string(oob);
        return std::string();
      });

  run("lane_divergence", fixtures::run_lane_divergence,
      [](const std::vector<Finding>& fs) {
        if (!has_finding(fs, FindingKind::kAccessAfterInactive, "fx_diverge"))
          return std::string("expected kAccessAfterInactive");
        if (!has_finding(fs, FindingKind::kFootprintDivergence, "fx_diverge"))
          return std::string("expected kFootprintDivergence");
        if (!has_finding(fs, FindingKind::kCountDivergence, "fx_diverge"))
          return std::string("expected kCountDivergence");
        return std::string();
      });

  run("ndet_accumulation", fixtures::run_nondeterministic_accumulation,
      [](const std::vector<Finding>& fs) {
        if (!has_finding(fs, FindingKind::kNondeterministicAccumulation,
                         "fx_ndet_accum", "FxAcc"))
          return std::string("expected kNondeterministicAccumulation on FxAcc");
        return std::string();
      });

  return out;
}

// ---------------------------------------------------------------------------

void write_report(const std::string& path, const std::vector<FixtureEntry>& fixtures,
                  const std::vector<SweepEntry>& sweep, bool quick) {
  std::ofstream os(path);
  os << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n";

  os << "  \"fixtures\": [\n";
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const auto& fx = fixtures[i];
    os << "    {\"name\": \"" << fx.name << "\", \"passed\": "
       << (fx.passed ? "true" : "false") << ", \"detail\": \""
       << json_escape(fx.detail) << "\", \"findings\": [\n";
    for (std::size_t j = 0; j < fx.findings.size(); ++j) {
      write_finding(os, fx.findings[j], "      ");
      os << (j + 1 < fx.findings.size() ? ",\n" : "\n");
    }
    os << "    ]}" << (i + 1 < fixtures.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  std::size_t production_findings = 0;
  os << "  \"production\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& e = sweep[i];
    production_findings += e.findings.size();
    os << "    {\"evaluator\": \"" << e.evaluator << "\", \"precision\": \""
       << e.precision << "\", \"shape\": \"" << e.shape << "\", \"geometry\": \""
       << e.geometry << "\", \"launches\": " << e.launches << ", \"findings\": [\n";
    for (std::size_t j = 0; j < e.findings.size(); ++j) {
      write_finding(os, e.findings[j], "      ");
      os << (j + 1 < e.findings.size() ? ",\n" : "\n");
    }
    os << "    ]}" << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"production_findings\": " << production_findings << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool fixtures_only = false;
  bool production_only = false;
  std::string out_path = "AUDIT_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--fixtures-only") == 0) {
      fixtures_only = true;
    } else if (std::strcmp(argv[i], "--production-only") == 0) {
      production_only = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: kernel_audit [--quick] [--fixtures-only] "
                   "[--production-only] [--out FILE]\n";
      return 2;
    }
  }

  std::vector<FixtureEntry> fixtures;
  if (!production_only) fixtures = run_fixture_gate();
  std::vector<SweepEntry> sweep;
  if (!fixtures_only) sweep = run_production_sweep(quick);

  write_report(out_path, fixtures, sweep, quick);

  bool ok = true;
  for (const auto& fx : fixtures) {
    std::cout << "fixture " << fx.name << ": " << (fx.passed ? "PASS" : "FAIL")
              << " (" << fx.detail << ", " << fx.findings.size() << " findings)\n";
    ok = ok && fx.passed;
  }
  std::size_t launches = 0, findings = 0;
  for (const auto& e : sweep) {
    launches += e.launches;
    findings += e.findings.size();
    if (!e.findings.empty()) {
      std::cout << "FINDINGS in " << e.evaluator << "/" << e.precision << "/"
                << e.shape << "/" << e.geometry << ":\n";
      for (const auto& f : e.findings)
        std::cout << "  [" << polyeval::audit::to_string(f.kind) << "] "
                  << f.kernel << " phase " << f.phase << " block " << f.block
                  << " thread " << f.thread << " buffer " << f.buffer << "+"
                  << f.offset << ": " << f.detail << "\n";
      ok = false;
    }
  }
  std::cout << "production sweep: " << sweep.size() << " configs, " << launches
            << " audited launches, " << findings << " findings\n";
  std::cout << "report: " << out_path << "\n";
  if (!ok) {
    std::cout << "kernel_audit: FAIL\n";
    return 1;
  }
  std::cout << "kernel_audit: PASS\n";
  return 0;
}
