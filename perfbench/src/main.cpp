// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <svc_small_stream|track_dim16_proj|eval_table1_dd>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//
// Untraced (--trace 0): runs the workload for the given seconds and
// reports its end-to-end metrics.  Traced (--trace 1): reports the
// per-layer metrics.  The named workload's home pass runs with spans off
// and on in alternation, a quarter of the seconds each time (their
// throughput ratio is bench.trace_overhead_frac); the other layers'
// home passes run short and traced.  Spans go to FILE as Chrome trace
// events, one thread track per pass.
//
// The last stdout line is one JSON object; run.py (the benchmark's
// entry point) builds this program and validates that line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"svc_small_stream", "track_dim16_proj", "eval_table1_dd"};

void print_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void print_metrics(std::string& out, const std::vector<Metric>& metrics) {
  out += '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + metrics[i].name + "\":{\"value\":";
    print_number(out, metrics[i].value);
    out += ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += '}';
}

std::string to_json(const Args& args, const Result& r) {
  std::string out = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                    std::to_string(args.seed) + ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"correct\":" + (r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":";
  print_metrics(out, r.metrics);
  out += ",\"fixed\":";
  print_metrics(out, r.fixed);
  out += ",\"inputs_digest\":\"" + r.inputs_digest + "\",\"output_digest\":\"" +
         r.output_digest + "\",\"build\":{\"type\":\"" PERFBENCH_BUILD_TYPE
                           "\",\"compiler\":\"" PERFBENCH_COMPILER "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + "}}";
  return out;
}

/// The traced run: every per-layer metric, whichever workload is named.
Result traced(const Args& args, const std::string& trace_out) {
  using Pass = double (*)(const Args&, double, SpanLog*, Result*);
  constexpr Pass kPasses[] = {service_layers, tracking_layers, eval_layers};
  Result r;
  SpanLog logs[std::size(kPasses)];
  double off = 0.0, on = 0.0;
  for (std::size_t w = 0; w < std::size(kPasses); ++w) {
    if (args.workload != kWorkloads[w]) {
      (void)kPasses[w](args, std::min(2.0, args.seconds / 4.0), &logs[w], &r);
      continue;
    }
    // Spans off and on in alternation, so drift in the host's speed
    // lands on both sides of bench.trace_overhead_frac.
    for (int rep = 0; rep < 2; ++rep) {
      off += kPasses[w](args, args.seconds / 4.0, nullptr, nullptr);
      on += kPasses[w](args, args.seconds / 4.0, &logs[w], rep == 1 ? &r : nullptr);
    }
  }
  r.add("bench.trace_overhead_frac", off / on - 1.0, "fraction");

  obs_layers(args, r);
  paper_model_layers(r);

  // Setup split: cold construction pays the autotuner probes, warm
  // construction finds every decision cached.
  const bool eval = args.workload == kWorkloads[2];
  const auto setup = [&](bool cold) {
    return eval ? eval_setup_cost(args.seed, cold)
                : service_setup_cost(args.seed, args.workload == kWorkloads[1], cold);
  };
  std::vector<double> cold_s, warm_s;
  std::uint64_t probes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto cold = setup(true);
    probes = cold.probes;
    cold_s.push_back(cold.seconds);
    warm_s.push_back(setup(false).seconds);
  }
  r.add("tune.probes", static_cast<double>(probes), "count");
  r.add("tune.probe_s", median(cold_s) - median(warm_s), "s");

  if (!trace_out.empty()) {
    std::ofstream os(trace_out);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t w = 0; w < std::size(kPasses); ++w)
      logs[w].write_events(os, static_cast<int>(w) + 1, first);
    os << "]}\n";
    if (!os) r.notes.push_back("could not write " + trace_out);
  }
  return r;
}

int run(int argc, char** argv) {
  Args args;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (argc % 2 == 0 || !have_workload ||
      std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
          std::end(kWorkloads) ||
      !(args.seconds >= 0.0)) {
    std::cerr << "usage: perfbench --workload <svc_small_stream|track_dim16_proj|"
                 "eval_table1_dd> --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }

  Result result;
  if (args.trace)
    result = traced(args, trace_out);
  else if (args.workload == kWorkloads[2])
    result = run_eval_workload(args);
  else
    result = run_service_workload(args, args.workload == kWorkloads[1]);
  if (!args.trace)
    result.notes.push_back(
        "modeled_makespan_ms and the latencies are on the Tesla C2050 cost model's clock; "
        "the model is checked against the paper's Table 1 only (simt.model_err_table1) and "
        "is otherwise unvalidated");

  for (const auto& line : result.notes) std::cout << line << "\n";
  std::cout << to_json(args, result) << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
