#include "obs/metrics.hpp"

#include <array>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace polyeval::obs {
namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "counter";  // FloatCounter exposes as counter
    case 2: return "gauge";
    default: return "histogram";
  }
}

/// Prometheus label values escape backslash, double quote and newline.
void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

/// Shortest-ish round-trip double formatting for sample values; whole
/// numbers print without a trailing ".0" so counter samples look like
/// counters.
void write_number(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp << std::setprecision(15) << v;
  os << tmp.str();
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return resolve(name, Kind::kCounter, {}, {}, help, {}).counter;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view label_key,
                                  std::string_view label_value,
                                  std::string_view help) {
  return resolve(name, Kind::kCounter, label_key, label_value, help, {})
      .counter;
}

FloatCounter& MetricsRegistry::float_counter(std::string_view name,
                                             std::string_view help) {
  return resolve(name, Kind::kFloatCounter, {}, {}, help, {}).float_counter;
}

FloatCounter& MetricsRegistry::float_counter(std::string_view name,
                                             std::string_view label_key,
                                             std::string_view label_value,
                                             std::string_view help) {
  return resolve(name, Kind::kFloatCounter, label_key, label_value, help, {})
      .float_counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return resolve(name, Kind::kGauge, {}, {}, help, {}).gauge;
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              std::string_view label_key,
                              std::string_view label_value,
                              std::string_view help) {
  return resolve(name, Kind::kGauge, label_key, label_value, help, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds,
                                      std::string_view help) {
  return *resolve(name, Kind::kHistogram, {}, {}, help, upper_bounds)
              .histogram;
}

MetricsRegistry::Instrument& MetricsRegistry::resolve(
    std::string_view name, Kind kind, std::string_view label_key,
    std::string_view label_value, std::string_view help,
    std::span<const double> bounds) {
  // Fast path: both the family and the labeled instrument exist.
  {
    std::shared_lock lk(mu_);
    auto fit = by_name_.find(name);
    if (fit != by_name_.end()) {
      Family& fam = *fit->second;
      if (fam.kind != kind)
        throw std::logic_error("metric '" + std::string(name) +
                               "' re-registered as a different type");
      auto iit = fam.by_label.find(label_value);
      if (iit != fam.by_label.end()) return *iit->second;
    }
  }

  // Slow path: create the family and/or the instrument.
  std::unique_lock lk(mu_);
  Family* fam = nullptr;
  auto fit = by_name_.find(name);
  if (fit != by_name_.end()) {
    fam = fit->second;
    if (fam->kind != kind)
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered as a different type");
  } else {
    auto owned = std::make_unique<Family>();
    owned->name.assign(name);
    owned->help.assign(help);
    owned->label_key.assign(label_key);
    owned->kind = kind;
    owned->bounds.assign(bounds.begin(), bounds.end());
    fam = owned.get();
    families_.push_back(std::move(owned));
    by_name_.emplace(fam->name, fam);
  }
  auto iit = fam->by_label.find(label_value);
  if (iit != fam->by_label.end()) return *iit->second;
  auto inst = std::make_unique<Instrument>();
  inst->label_value.assign(label_value);
  if (kind == Kind::kHistogram)
    inst->histogram = std::make_unique<Histogram>(
        std::span<const double>(fam->bounds));
  Instrument* raw = inst.get();
  fam->instruments.push_back(std::move(inst));
  fam->by_label.emplace(raw->label_value, raw);
  return *raw;
}

void MetricsRegistry::expose(std::ostream& os) const {
  std::shared_lock lk(mu_);
  for (const auto& fam : families_) {
    if (!fam->help.empty())
      os << "# HELP " << fam->name << ' ' << fam->help << '\n';
    os << "# TYPE " << fam->name << ' '
       << kind_name(static_cast<int>(fam->kind)) << '\n';
    for (const auto& inst : fam->instruments) {
      const bool labeled = !fam->label_key.empty();
      if (fam->kind == Kind::kHistogram) {
        const Histogram& h = *inst->histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
          cumulative += h.bucket(b);
          os << fam->name << "_bucket{le=\"";
          if (b < h.bounds().size())
            write_number(os, h.bounds()[b]);
          else
            os << "+Inf";
          os << "\"} " << cumulative << '\n';
        }
        os << fam->name << "_sum ";
        write_number(os, h.sum());
        os << '\n' << fam->name << "_count " << h.count() << '\n';
        continue;
      }
      os << fam->name;
      if (labeled) {
        os << '{' << fam->label_key << "=\"";
        write_escaped(os, inst->label_value);
        os << "\"}";
      }
      os << ' ';
      switch (fam->kind) {
        case Kind::kCounter: os << inst->counter.value(); break;
        case Kind::kFloatCounter:
          write_number(os, inst->float_counter.value());
          break;
        case Kind::kGauge: write_number(os, inst->gauge.value()); break;
        case Kind::kHistogram: break;  // handled above
      }
      os << '\n';
    }
  }
}

TrackerMetrics TrackerMetrics::from_registry(MetricsRegistry& r) {
  TrackerMetrics m;
  m.rounds = &r.counter("polyeval_tracker_rounds_total",
                        "lockstep tracker evaluation rounds executed (one "
                        "evaluation per live path)");
  m.steps_accepted = &r.counter("polyeval_tracker_steps_accepted_total",
                                "predictor/corrector steps accepted");
  m.steps_rejected = &r.counter("polyeval_tracker_steps_rejected_total",
                                "steps rejected by step control");
  m.endgame_entries = &r.counter("polyeval_endgame_entries_total",
                                 "Cauchy endgame attempts armed");
  static constexpr const char* kOutcomeNames[kEndgameOutcomes] = {
      "closed", "lost", "exhausted"};
  for (std::size_t o = 0; o < kEndgameOutcomes; ++o)
    m.endgame_attempts[o] =
        &r.counter("polyeval_endgame_attempts_total", "outcome",
                   kOutcomeNames[o],
                   "Cauchy endgame attempts, by outcome");
  m.endgame_samples = &r.counter("polyeval_endgame_samples_total",
                                 "Cauchy endgame circle samples corrected");
  m.newton_iterations =
      &r.counter("polyeval_newton_iterations_total",
                 "Newton updates applied across all paths");
  static constexpr const char* kStatusNames[kStatuses] = {
      "converged", "at_infinity", "stalled", "diverged", "cancelled"};
  for (std::size_t s = 0; s < kStatuses; ++s)
    m.retired_by_status[s] =
        &r.counter("polyeval_paths_retired_total", "status", kStatusNames[s],
                   "paths retired, by final PathStatus");
  static constexpr std::array<double, 6> kIterBounds = {0, 1, 2, 3, 5, 8};
  m.newton_iterations_per_path =
      &r.histogram("polyeval_newton_iterations_per_path", kIterBounds,
                   "Newton iterations per finished Newton solve "
                   "(corrector, circle sample or polish)");
  static constexpr std::array<double, 7> kStepBounds = {4,  8,   16,  32,
                                                        64, 128, 256};
  m.path_steps = &r.histogram("polyeval_path_steps", kStepBounds,
                              "accepted steps per path at retirement");
  static constexpr std::array<double, 5> kStreakBounds = {0, 1, 2, 4, 8};
  m.accept_streak =
      &r.histogram("polyeval_accept_streak_at_reject", kStreakBounds,
                   "consecutive-accept streak length when a step was "
                   "rejected");
  return m;
}

}  // namespace polyeval::obs
