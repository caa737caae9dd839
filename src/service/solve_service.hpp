#pragma once

/// \file solve_service.hpp
/// The persistent solve front end: a SolveService accepts concurrent
/// SolveRequests, multiplexes their paths onto one DeviceRegistry, and
/// hands each client a SolveTicket for progress polling, cooperative
/// cancellation and the final versioned Report.
///
/// Scheduling model.  Requests whose systems share one uniform
/// (n, m, k, d) structure AND whose tracking/tuning options compare
/// equal land in one *group*; a group owns, per device shard, a
/// tenant-routed fused evaluator (one launch serves points of several
/// requests), the routed homotopy::BatchedProjectiveHomotopy over it and
/// a BatchPathTracker.  The service tracks in projective geometry only:
/// admission rejects affine requests (track_paths_sharded runs those on
/// its lockstep loop).
/// Each service tick runs one lockstep evaluation round on every shard
/// with live paths -- one evaluation per live path; shards advance in
/// parallel (their devices are independent) -- then a single
/// coordinator phase drains retired slots into reports, applies
/// cancellations and deadlines, pulls queued paths into freed slots,
/// steals paths between steps from a loaded shard when a sibling idles
/// (path state between steps is just (x, t, step, streak), and a
/// path's trajectory is schedule-independent, so coalescing, pulling
/// and stealing all preserve bitwise parity with a standalone solve),
/// and admits queued requests as tenant slots free up.
///
/// Heterogeneous fleets.  Config::specs builds a mixed-device registry;
/// every placement decision is then throughput-weighted: freed slots
/// fill the shard with the lowest live/weight ratio, stealing equalizes
/// live/weight instead of raw live counts (a 2x card carries twice the
/// paths), and per-shard evaluators pin the geometry the autotuner
/// resolved for THEIR spec (SystemCache keeps one geometry per distinct
/// spec).  Weights shape placement only -- a path's trajectory is
/// schedule-independent -- so mixed fleets keep bitwise parity with
/// uniform ones.
///
/// Fairness.  Config::fairness = 0 keeps FIFO slot filling (a huge
/// request's queued paths all start before a later small request's).
/// A nonzero value is a deficit-round-robin quantum: each fill pass
/// grants every active request `fairness` more path-credits and takes
/// slots round-robin, so small requests reach slots -- and retire --
/// while a huge neighbour is still draining.  Placement-only, same
/// parity argument.
///
/// Modeled accounting.  Every device's launch log is priced with the
/// GpuCostModel after each round (rounds clear the log on entry, so
/// charging is per round); a tick costs the MAX over devices -- shards
/// run concurrently -- and the service clock is the sum of tick costs.
/// Cross-request batching wins on this clock because merged rounds
/// amortize the fixed launch overhead that per-request rounds would
/// each pay (bench_service gates the claim).
///
/// Admission control: a bounded submit queue, a per-request path
/// budget, and an AdmissionVerdict returned synchronously on submit.

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "audit/kernel_auditor.hpp"
#include "core/fused_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/homogenize.hpp"
#include "homotopy/projective.hpp"
#include "homotopy/solver.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "poly/random_system.hpp"
#include "service/request.hpp"
#include "service/system_cache.hpp"
#include "simt/device_registry.hpp"
#include "simt/timing.hpp"
#include "solve/options.hpp"
#include "solve/report.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::service {

/// Aggregate service counters (one snapshot under the service lock).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_budget = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled_requests = 0;  ///< completed by cancel/deadline
  std::uint64_t ticks = 0;
  std::uint64_t shard_rounds = 0;       ///< lockstep evaluation rounds run, all shards
  std::uint64_t coalesced_rounds = 0;   ///< rounds carrying >= 2 requests
  unsigned max_tenants_in_round = 0;    ///< most requests in one round
  std::uint64_t live_steals = 0;        ///< paths moved between shards
  std::uint64_t weighted_steals = 0;    ///< of those, on a mixed fleet
  std::uint64_t queue_pulls = 0;        ///< pending paths pulled into slots
  double total_modeled_us = 0.0;        ///< the service's modeled clock
  /// Modeled µs each device spent busy (its summed per-tick charges;
  /// busy / total_modeled_us is the device's utilization).
  std::vector<double> device_busy_us;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// New SystemCache entries whose first launch ran under the kernel
  /// auditor (Config::audit_new_systems), and the findings they raised.
  std::uint64_t audited_systems = 0;
  std::uint64_t audit_findings = 0;
  /// Most kernel launches one device log held at a settle fold: the
  /// steady-state capacity the per-tick clear_log keeps warm.
  std::uint64_t log_kernel_watermark = 0;
};

template <prec::RealScalar S>
class SolveService {
  using C = cplx::Complex<S>;
  using State = detail::RequestState<S>;
  using Clock = std::chrono::steady_clock;

 public:
  struct Config {
    unsigned shards = 2;
    unsigned workers_per_shard = 1;
    simt::DeviceSpec spec = simt::DeviceSpec::tesla_c2050();
    /// Heterogeneous fleet: when non-empty, one device shard per entry
    /// (overrides `shards` and `spec`).  Placement goes throughput-
    /// weighted; results stay bitwise identical to a uniform fleet.
    std::vector<simt::DeviceSpec> specs;
    /// Deficit-round-robin quantum (paths) for filling freed slots;
    /// 0 = FIFO.  See the fairness note in the file comment.
    std::uint64_t fairness = 0;
    /// Device evaluator batch capacity (points per launch).
    unsigned lockstep_batch = 64;
    /// Tracker slots per shard: the most live paths one shard carries.
    std::size_t slots_per_shard = 64;
    /// Resident requests per structure group (device table capacity).
    unsigned max_tenants = 8;
    /// Bounded submit queue (admitted-but-not-yet-active requests).
    std::size_t max_queued = 64;
    /// Per-request path budget (admission control).
    std::uint64_t max_paths_per_request = 4096;
    /// Spawn a background thread that ticks whenever work is pending;
    /// submit/poll/cancel stay safe to call from client threads.
    bool async = false;
    /// Injectable SystemCache hash (tests force collisions).
    typename SystemCache<S>::Hasher hasher = {};
    simt::GpuCostModel cost = {};
    /// Run the first launch of each newly cached SystemCache entry
    /// under audit::KernelAuditor on a scratch device (initcheck, OOB,
    /// synccheck, determinism).  An admission-time one-off per distinct
    /// system; steady-state launches stay uninstrumented and findings
    /// are advisory (counted in ServiceStats / metrics, never thrown).
    bool audit_new_systems = false;
    /// Lifecycle tracing depth (obs::Tracer).  kOff -- the default --
    /// records nothing and adds no allocations or launches; the
    /// metrics registry is always on (its steady-state cost is relaxed
    /// atomic adds).  Any level preserves bitwise endpoints: tracing
    /// only reads the launch logs the scheduler already prices.
    obs::TraceLevel trace = obs::TraceLevel::kOff;
  };

  explicit SolveService(Config config = {})
      : config_(validate_config(std::move(config))),
        registry_(fleet_specs(config_), config_.workers_per_shard),
        cache_(config_.hasher),
        tracer_(config_.trace) {
    config_.shards = registry_.size();
    if (registry_.size() > 1)
      pool_.emplace(registry_.size() - 1);
    device_charge_.assign(registry_.size(), 0.0);
    device_busy_us_.assign(registry_.size(), 0.0);
    device_log_watermark_.assign(registry_.size(), 0);
    fleet_spec_list_ = registry_spec_list();
    tracer_.set_devices(registry_.size());
    tracker_metrics_ = obs::TrackerMetrics::from_registry(metrics_);
    resolve_instruments();
    if (config_.async)
      worker_ = std::thread([this] { async_loop(); });
  }

  ~SolveService() {
    if (worker_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      worker_.join();
    }
  }

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admit or reject `request`.  Always returns a ticket; check
  /// verdict() (a rejected ticket is immediately done with no report).
  SolveTicket<S> submit(SolveRequest<S> request) {
    auto state = std::make_shared<State>(std::move(request));

    std::lock_guard<std::mutex> lk(mu_);
    state->id = ++next_id_;
    ++stats_.submitted;
    inst_.submitted->inc();

    QueuedItem item;
    item.state = state;
    item.submitted_at = Clock::now();
    const AdmissionVerdict verdict = screen(*state, item);
    state->verdict = verdict;
    if (verdict != AdmissionVerdict::kAdmitted) {
      reject_counter(verdict);
      state->status.store(RequestStatus::kRejected, std::memory_order_release);
      return SolveTicket<S>(state);
    }
    ++stats_.admitted;
    inst_.admitted->inc();
    state->paths_total.store(item.paths, std::memory_order_relaxed);
    item.span = tracer_.begin_span("queued", "queue", state->id,
                                   stats_.total_modeled_us,
                                   obs::TraceLevel::kRequests);
    queued_.push_back(std::move(item));
    cv_.notify_all();
    return SolveTicket<S>(state);
  }

  /// One scheduler tick (sync mode); returns whether work remains.
  bool step() {
    std::lock_guard<std::mutex> lk(mu_);
    return step_locked();
  }

  /// Tick until every admitted request has completed (sync mode).
  void drain() {
    while (step()) {
    }
  }

  /// Block until no queued or active work remains (async mode; returns
  /// immediately in sync mode once drained manually).
  void wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !work_remaining_locked(); });
  }

  [[nodiscard]] ServiceStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = stats_;
    s.device_busy_us = device_busy_us_;
    s.cache_hits = cache_.hits();
    s.cache_misses = cache_.misses();
    return s;
  }

  /// The placement weights the service schedules by (by device index,
  /// fastest == 1.0; all 1.0 on a uniform fleet).
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return registry_.weights();
  }

  /// The service's metrics registry, gauges refreshed under the lock
  /// (queue depth, active requests, SystemCache and TuneCache hit
  /// counts).  The returned reference is stable for the service's
  /// lifetime; expose with `service.metrics().expose(os)`.
  [[nodiscard]] const obs::MetricsRegistry& metrics() {
    std::lock_guard<std::mutex> lk(mu_);
    inst_.queue_depth->set(static_cast<double>(queued_.size()));
    std::size_t active = 0;
    for (const auto& g : groups_) active += g->active.size();
    inst_.active_requests->set(static_cast<double>(active));
    inst_.cache_hits->set(static_cast<double>(cache_.hits()));
    inst_.cache_misses->set(static_cast<double>(cache_.misses()));
    inst_.tune_hits->set(
        static_cast<double>(tune::Autotuner::global().hits()));
    inst_.tune_misses->set(
        static_cast<double>(tune::Autotuner::global().misses()));
    // Per-device utilization: the fraction of the service's modeled
    // clock this device was busy for.  A weighted scheduler's goal is
    // every device near 1.0; an unweighted one idles the fast card.
    for (unsigned d = 0; d < registry_.size(); ++d)
      inst_.device_util[d]->set(stats_.total_modeled_us > 0.0
                                    ? device_busy_us_[d] /
                                          stats_.total_modeled_us
                                    : 0.0);
    // Newly measured tune decisions since the last scrape fold their
    // memory-behaviour profiles in (watermark keeps polling additive).
    tune_fold_from_ = tune::Autotuner::global().fold_profiles_into(
        metrics_, tune_fold_from_);
    return metrics_;
  }

  /// Write the recorded lifecycle trace as Chrome trace-event JSON
  /// (load in https://ui.perfetto.dev or chrome://tracing).  Empty but
  /// valid when Config::trace is kOff.  Call between ticks (after
  /// drain / wait_idle); takes the service lock.
  void export_trace(std::ostream& os) const {
    std::lock_guard<std::mutex> lk(mu_);
    obs::write_chrome_trace(os, tracer_);
  }

  /// The raw tracer (tests inspect spans/slices).  Read-only; callers
  /// must be quiesced (no concurrent ticks), as with export_trace.
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  // ----- internal request bookkeeping -------------------------------

  struct RunInfo {
    std::shared_ptr<State> state;
    unsigned tenant = 0;
    std::vector<std::vector<C>> points;  ///< tracker-dimension starts
    std::uint64_t total = 0;
    std::uint64_t retired = 0;
    std::uint64_t ticks_tracking = 0;
    bool cancelling = false;
    double admit_modeled_us = 0.0;
    double modeled_us = 0.0;
    Clock::time_point submitted_at, activated_at;
    /// Per-request scheduling metrics (solve::Report::Metrics source).
    std::uint64_t shared_rounds = 0;
    unsigned peak_tenants = 0;
    std::uint64_t steals = 0;
    std::uint64_t queue_pulls = 0;
    std::size_t span = obs::Tracer::npos;  ///< tracking span handle
    /// Paths admitted but not yet in a tracker slot, in path order.
    /// Per-run (not one group-wide deque) so the fairness scheduler can
    /// interleave requests; FIFO mode walks runs in activation order,
    /// which reproduces the old group-wide queue exactly.
    std::deque<std::uint64_t> pending_paths;
    std::uint64_t deficit = 0;  ///< DRR credit (fairness mode only)
  };

  struct QueuedItem {
    std::shared_ptr<State> state;
    std::shared_ptr<const typename SystemCache<S>::Entry> entry;
    std::uint64_t paths = 0;
    Clock::time_point submitted_at;
    std::size_t span = obs::Tracer::npos;  ///< queue span handle
  };

  /// Coalescing key: requests share a group's rounds only when ALL of
  /// this compares equal (the structure hash of the SystemCache is just
  /// a bucket; grouping uses full equality here).
  struct GroupKey {
    poly::UniformStructure structure;
    solve::Options::Tracking tracking;
    solve::Options::Tuning tuning;

    friend bool operator==(const GroupKey&, const GroupKey&) = default;
  };

  /// One structure group: per shard, a tenant-routed fused evaluator,
  /// the routed batched projective homotopy over it and a tracker.
  struct Group {
    using Homo = homotopy::BatchedProjectiveHomotopy<S, core::FusedGpuEvaluator<S>>;

    struct Shard {
      simt::Device& dev;
      unsigned device_index;
      core::FusedGpuEvaluator<S> eval;
      Homo homo;
      homotopy::BatchPathTracker<S, Homo> tracker;
      struct Owner {
        RunInfo* run = nullptr;
        std::uint64_t path = 0;
      };
      std::vector<Owner> owners;  ///< by slot; run == nullptr -> free
      std::vector<std::size_t> free_slots;
      std::size_t live = 0;
      bool rounded = false;  ///< ran a round this tick

      Shard(simt::Device& d, unsigned dev_index,
            const poly::UniformStructure& st, unsigned max_tenants,
            unsigned capacity,
            typename core::FusedGpuEvaluator<S>::Options eopts,
            const homotopy::TrackOptions& topts, std::size_t slots)
          : dev(d),
            device_index(dev_index),
            eval(d, st, max_tenants, capacity, eopts),
            homo(eval, slots),
            tracker(d, homo, topts, slots) {
        owners.resize(slots);
        free_slots.reserve(slots);
        for (std::size_t i = slots; i-- > 0;) free_slots.push_back(i);
      }
    };

    GroupKey key;
    std::vector<cplx::Complex<double>> patch_d;
    std::vector<C> patch_s;
    std::vector<std::unique_ptr<Shard>> shards;
    /// Placement weights by shard index (fastest == 1.0): measured via
    /// the TuneCache when every spec has a decision for this structure,
    /// modeled clock x cores otherwise.
    std::vector<double> weights;
    std::vector<unsigned> free_tenants;
    std::vector<std::unique_ptr<RunInfo>> active;
    std::size_t rr_cursor = 0;  ///< fairness rotation over active runs
    std::vector<C> steal_x;     ///< steal()'s moved point, sized at creation

    [[nodiscard]] bool has_pending() const {
      for (const auto& run : active)
        if (!run->pending_paths.empty()) return true;
      return false;
    }
  };

  // ----- admission --------------------------------------------------

  static Config validate_config(Config c) {
    if ((c.shards == 0 && c.specs.empty()) || c.lockstep_batch == 0 ||
        c.slots_per_shard == 0 || c.max_tenants == 0)
      throw std::invalid_argument("SolveService: bad config");
    return c;
  }

  [[nodiscard]] static std::vector<simt::DeviceSpec> fleet_specs(
      const Config& c) {
    if (!c.specs.empty()) return c.specs;
    return std::vector<simt::DeviceSpec>(c.shards, c.spec);
  }

  /// The fleet's distinct spec list for SystemCache lookups (dedup is
  /// the cache's job; this just snapshots the registry order).
  [[nodiscard]] std::vector<simt::DeviceSpec> registry_spec_list() const {
    std::vector<simt::DeviceSpec> specs;
    specs.reserve(registry_.size());
    for (unsigned i = 0; i < registry_.size(); ++i)
      specs.push_back(registry_.spec(i));
    return specs;
  }

  /// Pre-activation screening under the lock: validates options,
  /// resolves the system cache entry (packing + total-degree start +
  /// tuned geometry, shared across requests), counts paths, and applies
  /// the queue and path budgets.
  AdmissionVerdict screen(State& state, QueuedItem& item) {
    const auto& req = state.request;
    try {
      req.options.validate();
    } catch (const std::invalid_argument&) {
      return AdmissionVerdict::kInvalid;
    }
    // The service IS the projective lockstep engine; the affine geometry
    // stays on the one-shot sharded API.
    if (req.options.tracking.geometry != solve::Geometry::kProjective)
      return AdmissionVerdict::kInvalid;
    const std::size_t misses_before = cache_.misses();
    try {
      item.entry = cache_.lookup(
          req.target, config_.lockstep_batch, req.options.tuning.mode,
          std::span<const simt::DeviceSpec>(fleet_spec_list_), config_.workers_per_shard);
    } catch (const std::exception&) {
      return AdmissionVerdict::kInvalid;  // non-uniform / degenerate system
    }
    if (config_.audit_new_systems && cache_.misses() != misses_before)
      audit_new_entry(*item.entry);
    const unsigned n = req.target.dimension();
    if (req.start) {
      if (req.start->system.degrees() != req.target.degrees())
        return AdmissionVerdict::kInvalid;
      for (const auto& r : req.start->roots)
        if (r.size() != n) return AdmissionVerdict::kInvalid;
      item.paths = req.start->roots.size();
    } else {
      std::uint64_t paths = item.entry->start.num_paths();
      if (req.options.sharding.max_paths > 0)
        paths = std::min(paths, req.options.sharding.max_paths);
      else if (item.entry->start.num_paths_saturated())
        return AdmissionVerdict::kInvalid;
      item.paths = paths;
    }
    if (item.paths > config_.max_paths_per_request)
      return AdmissionVerdict::kPathBudgetExceeded;
    if (queued_.size() >= config_.max_queued)
      return AdmissionVerdict::kQueueFull;
    return AdmissionVerdict::kAdmitted;
  }

  /// One audited launch of the production fused kernel for a system the
  /// cache has never seen, on a scratch device with the entry's tuned
  /// geometry pinned.  Advisory: findings land in stats and metrics,
  /// and no failure here may reject the request.
  void audit_new_entry(const typename SystemCache<S>::Entry& entry) {
    try {
      simt::Device probe(fleet_spec_list_.empty() ? config_.spec : fleet_spec_list_[0],
                         config_.workers_per_shard);
      audit::KernelAuditor auditor;
      auditor.attach(probe);
      typename core::FusedGpuEvaluator<S>::Options opts;
      if (const auto* geom = entry.geometry_for(probe.spec())) {
        opts.block_size = geom->block;
        opts.interchange = geom->interchange;
      }
      opts.tuning = tune::TuningMode::kHeuristic;
      core::FusedGpuEvaluator<S> ev(probe, entry.system, /*batch_capacity=*/1,
                                    opts);
      std::vector<std::vector<C>> points{
          poly::make_random_point<S>(ev.dimension(), 0x5eedu)};
      std::vector<poly::EvalResult<S>> out(1, poly::EvalResult<S>(ev.dimension()));
      auditor.begin_epoch();
      ev.evaluate_range(points, 0, 1, std::span<poly::EvalResult<S>>(out));
      ++stats_.audited_systems;
      stats_.audit_findings += auditor.total_findings();
      inst_.audited_systems->inc();
      inst_.audit_findings->inc(auditor.total_findings());
      auditor.detach();
    } catch (const std::exception&) {
      // Advisory pass: a scratch-device failure must not affect admission.
    }
  }

  void reject_counter(AdmissionVerdict v) {
    switch (v) {
      case AdmissionVerdict::kQueueFull:
        ++stats_.rejected_queue_full;
        inst_.rejected_queue_full->inc();
        break;
      case AdmissionVerdict::kPathBudgetExceeded:
        ++stats_.rejected_budget;
        inst_.rejected_budget->inc();
        break;
      default:
        ++stats_.rejected_invalid;
        inst_.rejected_invalid->inc();
        break;
    }
  }

  // ----- the tick ---------------------------------------------------

  bool step_locked() {
    ++stats_.ticks;
    inst_.ticks->inc();
    const std::size_t tick_span =
        tracer_.begin_span("tick", "round", stats_.ticks,
                           stats_.total_modeled_us, obs::TraceLevel::kRounds);
    activate_queued();
    process_cancellations();
    for (auto& g : groups_) fill_slots(*g);
    for (auto& g : groups_) steal(*g);
    run_rounds();
    settle_tick();
    for (auto& g : groups_) drain_retirements(*g);
    for (auto& g : groups_) finalize_done(*g);
    tracer_.end_span(tick_span, stats_.total_modeled_us);
    const bool more = work_remaining_locked();
    cv_.notify_all();
    return more;
  }

  [[nodiscard]] bool work_remaining_locked() const {
    if (!queued_.empty()) return true;
    for (const auto& g : groups_)
      if (!g->active.empty()) return true;
    return false;
  }

  /// Pull queued requests whose group has a free tenant slot; requests
  /// blocked on a saturated group keep their queue position while later
  /// requests of other groups overtake (documented backpressure rule).
  void activate_queued() {
    for (auto it = queued_.begin(); it != queued_.end();) {
      if (it->state->cancel_requested.load(std::memory_order_acquire)) {
        finalize_cancelled_in_queue(*it);
        it = queued_.erase(it);
        continue;
      }
      it = try_activate(*it) ? queued_.erase(it) : std::next(it);
    }
  }

  bool try_activate(QueuedItem& item) {
    auto& req = item.state->request;
    GroupKey key{item.entry->packed.structure, req.options.tracking,
                 req.options.tuning};
    Group* group = find_or_create(key, *item.entry);
    if (group->free_tenants.empty()) return false;  // stays queued
    const unsigned tenant = group->free_tenants.back();
    group->free_tenants.pop_back();

    const auto gamma = req.start ? req.start->gamma
                                 : homotopy::random_gamma(req.options.gamma_seed);
    const poly::PolynomialSystem& start_system =
        req.start ? req.start->system : item.entry->start.system();
    // Register the tenant on EVERY shard of the group, so path
    // trajectories are shard-independent and stealing stays parity-safe.
    for (auto& shard : group->shards)
      shard->homo.set_tenant(tenant, req.target, start_system, gamma,
                             std::span<const cplx::Complex<double>>(group->patch_d));

    auto run = std::make_unique<RunInfo>();
    run->state = item.state;
    run->tenant = tenant;
    run->total = item.paths;
    run->submitted_at = item.submitted_at;
    run->activated_at = Clock::now();
    run->admit_modeled_us = stats_.total_modeled_us;
    inst_.queue_wall_us->observe(
        std::chrono::duration<double, std::micro>(run->activated_at -
                                                  run->submitted_at)
            .count());
    tracer_.end_span(item.span, stats_.total_modeled_us);
    run->span = tracer_.begin_span("track", "request", item.state->id,
                                   stats_.total_modeled_us,
                                   obs::TraceLevel::kRequests);
    run->points.reserve(item.paths);
    for (std::uint64_t p = 0; p < item.paths; ++p)
      run->points.push_back(start_point(*group, req, *item.entry, p));
    run->state->report.paths.resize(item.paths);

    item.state->status.store(RequestStatus::kTracking,
                             std::memory_order_release);
    RunInfo* raw = run.get();
    group->active.push_back(std::move(run));
    for (std::uint64_t p = 0; p < item.paths; ++p)
      raw->pending_paths.push_back(p);
    return true;
  }

  Group* find_or_create(const GroupKey& key,
                        const typename SystemCache<S>::Entry& entry) {
    for (auto& g : groups_)
      if (g->key == key) return g.get();
    auto group = std::make_unique<Group>();
    group->key = key;
    group->patch_d = homotopy::random_patch(key.structure.n + 1,
                                            key.tracking.patch_seed);
    group->patch_s.reserve(group->patch_d.size());
    for (const auto& c : group->patch_d)
      group->patch_s.push_back(C::from_double(c));
    group->shards.reserve(registry_.size());
    for (unsigned i = 0; i < registry_.size(); ++i) {
      // Each shard pins the geometry the cache resolved for ITS spec --
      // a mixed fleet no longer inherits shard 0's winner.  A pinned
      // block size wins over the cache's tuned geometry, as in the
      // single-tenant resolution rules.
      const auto* geom = entry.geometry_for(registry_.spec(i));
      typename core::FusedGpuEvaluator<S>::Options eopts;
      eopts.block_size = key.tuning.block_size != 0
                             ? key.tuning.block_size
                             : (geom != nullptr ? geom->block : 0);
      if (geom != nullptr) eopts.interchange = geom->interchange;
      eopts.detect_races = key.tuning.detect_races;
      group->shards.push_back(std::make_unique<typename Group::Shard>(
          registry_.device(i), i, key.structure, config_.max_tenants,
          config_.lockstep_batch, eopts, key.tracking.track,
          config_.slots_per_shard));
    }
    // Placement weights for this group's structure: the cache's per-spec
    // probes seeded the TuneCache, so a fully probed fleet gets measured
    // 1/us weights; otherwise (heuristic tuning) the modeled estimate.
    group->weights = registry_.weights();
    if (registry_.heterogeneous()) {
      const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
      const auto measured = tune::measured_fleet_weights(
          tune::Autotuner::global(),
          std::span<const simt::DeviceSpec>(fleet_spec_list_),
          [&](const simt::DeviceSpec& spec) {
            return tune::TuneKey::make(tune::TunedSchedule::kFused,
                                       key.structure, config_.lockstep_batch,
                                       0, width, spec);
          });
      if (measured.has_value()) group->weights = *measured;
    }
    group->steal_x.resize(group->shards.front()->tracker.dimension());
    group->free_tenants.reserve(config_.max_tenants);
    for (unsigned t = config_.max_tenants; t-- > 0;)
      group->free_tenants.push_back(t);
    // Every shard tracker feeds the one service-wide TrackerMetrics:
    // the counters are aggregates and the adds are atomic, so parallel
    // shard rounds compose.
    for (auto& shard : group->shards)
      shard->tracker.set_metrics(&tracker_metrics_);
    groups_.push_back(std::move(group));
    return groups_.back().get();
  }

  /// Path `path`'s start root, embedded in the group's patch.
  std::vector<C> start_point(const Group& group, const SolveRequest<S>& req,
                             const typename SystemCache<S>::Entry& entry,
                             std::uint64_t path) const {
    std::vector<C> affine;
    if (req.start) {
      affine = req.start->roots[path];
    } else {
      const auto root_d = entry.start.start_root(path);
      affine.reserve(root_d.size());
      for (const auto& z : root_d) affine.push_back(C::from_double(z));
    }
    return homotopy::embed_in_patch<S>(std::span<const C>(affine),
                                       std::span<const C>(group.patch_s));
  }

  void finalize_cancelled_in_queue(QueuedItem& item) {
    auto& report = item.state->report;
    report.paths.assign(item.paths, homotopy::TrackResult<S>{});
    for (auto& p : report.paths) p.status = homotopy::PathStatus::kCancelled;
    report.retally();
    item.state->paths_retired.store(item.paths, std::memory_order_relaxed);
    item.state->status.store(RequestStatus::kDone, std::memory_order_release);
    ++stats_.completed;
    ++stats_.cancelled_requests;
    inst_.completed->inc();
    inst_.cancelled->inc();
    tracer_.end_span(item.span, stats_.total_modeled_us);
  }

  /// Flag cancelled / over-budget / past-deadline requests: live slots
  /// get tracker.cancel (retired as kCancelled at the next round's
  /// consume point, costing no launches) and unstarted paths are
  /// synthesized as kCancelled right here.
  void process_cancellations() {
    for (auto& g : groups_) {
      for (auto& run : g->active) {
        if (run->cancelling) continue;
        const auto& req = run->state->request;
        const bool wants =
            run->state->cancel_requested.load(std::memory_order_acquire) ||
            (req.round_budget > 0 &&
             run->ticks_tracking >= req.round_budget) ||
            (req.modeled_deadline_us > 0.0 &&
             stats_.total_modeled_us - run->admit_modeled_us >=
                 req.modeled_deadline_us);
        if (!wants) continue;
        run->cancelling = true;
        // Unstarted paths never launch: synthesize their retirement.
        for (const std::uint64_t path : run->pending_paths) {
          auto& res = run->state->report.paths[path];
          res.status = homotopy::PathStatus::kCancelled;
          res.solution = run->points[path];
          ++run->retired;
          run->state->paths_retired.fetch_add(1, std::memory_order_relaxed);
        }
        run->pending_paths.clear();
        for (auto& shard : g->shards)
          for (std::size_t slot = 0; slot < shard->owners.size(); ++slot)
            if (shard->owners[slot].run == run.get())
              shard->tracker.cancel(slot);
      }
    }
  }

  /// The shard the next pulled path should land on.  Uniform fleets
  /// keep the historical greedy fill (first shard with a free slot, so
  /// shard 0 packs before shard 1 touches work); mixed fleets pick the
  /// free-slotted shard with the lowest occupancy-per-weight, so a 2x
  /// device ends up carrying twice the live paths.
  [[nodiscard]] typename Group::Shard* pick_fill_shard(Group& g) {
    if (!registry_.heterogeneous()) {
      for (auto& s : g.shards)
        if (!s->free_slots.empty()) return s.get();
      return nullptr;
    }
    typename Group::Shard* best = nullptr;
    double best_score = 0.0;
    for (unsigned i = 0; i < g.shards.size(); ++i) {
      auto& s = g.shards[i];
      if (s->free_slots.empty()) continue;
      const double score =
          static_cast<double>(s->live + 1) / g.weights[i];
      if (best == nullptr || score < best_score) {
        best = s.get();
        best_score = score;
      }
    }
    return best;
  }

  /// Move up to `limit` of `run`'s pending paths into free tracker
  /// slots; returns how many were placed.
  std::uint64_t place_pending(Group& g, RunInfo& run, std::uint64_t limit) {
    std::uint64_t placed = 0;
    while (placed < limit && !run.pending_paths.empty()) {
      auto* shard = pick_fill_shard(g);
      if (shard == nullptr) break;  // no free slot anywhere
      const std::uint64_t path = run.pending_paths.front();
      run.pending_paths.pop_front();
      const std::size_t slot = shard->free_slots.back();
      shard->free_slots.pop_back();
      shard->homo.assign_slot(slot, run.tenant);
      shard->tracker.adopt(slot, std::span<const C>(run.points[path]));
      shard->owners[slot] = {&run, path};
      ++shard->live;
      ++stats_.queue_pulls;
      inst_.queue_pulls->inc();
      ++run.queue_pulls;
      ++placed;
    }
    return placed;
  }

  void fill_slots(Group& g) {
    if (g.active.empty()) return;
    if (config_.fairness == 0) {
      // FIFO: drain runs in activation order -- byte-for-byte the old
      // group-wide pending queue's fill order.
      for (auto& run : g.active)
        place_pending(g, *run, std::numeric_limits<std::uint64_t>::max());
      return;
    }
    // Deficit round robin: every pass grants each backlogged run
    // `fairness` more path-credits and takes slots in rotation (the
    // cursor persists across ticks, so no run is always first).  Credit
    // resets once a run's backlog clears -- no banking while idle.
    g.rr_cursor %= g.active.size();
    bool progress = true;
    while (progress && g.has_pending()) {
      progress = false;
      for (std::size_t i = 0; i < g.active.size(); ++i) {
        RunInfo& run = *g.active[(g.rr_cursor + i) % g.active.size()];
        if (run.pending_paths.empty()) {
          run.deficit = 0;
          continue;
        }
        run.deficit += config_.fairness;
        const std::uint64_t placed = place_pending(g, run, run.deficit);
        run.deficit -= placed;
        if (placed > 0) progress = true;
      }
      g.rr_cursor = (g.rr_cursor + 1) % g.active.size();
    }
  }

  /// Between rounds, rebalance a group whose pending queue is dry: move
  /// paths between steps (donate/adopt) from the most loaded shard to
  /// an early-retired one.  A path with a Newton solve in flight (a
  /// corrector, circle sample or polish) is pinned to its shard.
  /// Loads compare per unit of throughput weight -- on a uniform fleet
  /// that reduces exactly to the historical raw-count rule (move while
  /// idle + 2 <= busy), on a mixed fleet a slow shard counts as "busy"
  /// with fewer paths.  Termination: each move strictly decreases
  /// sum(live^2 / weight), so the loop cannot ping-pong.
  void steal(Group& g) {
    if (g.has_pending() || g.shards.size() < 2) return;
    auto& x = g.steal_x;
    const auto load = [&](const auto& s, unsigned i) {
      return static_cast<double>(s.live) / g.weights[i];
    };
    for (;;) {
      unsigned busy_i = 0, idle_i = 0;
      for (unsigned i = 0; i < g.shards.size(); ++i) {
        auto& s = g.shards[i];
        if (load(*s, i) > load(*g.shards[busy_i], busy_i)) busy_i = i;
        if (load(*s, i) < load(*g.shards[idle_i], idle_i) &&
            !s->free_slots.empty())
          idle_i = i;
      }
      auto* busy = g.shards[busy_i].get();
      auto* idle = g.shards[idle_i].get();
      // Move only while it helps: after the move the receiver must not
      // be loaded past the donor (the weighted form of idle+2 <= busy).
      if (static_cast<double>(idle->live + 1) * g.weights[busy_i] >
              static_cast<double>(busy->live - 1) * g.weights[idle_i] ||
          idle->free_slots.empty() || busy == idle)
        return;
      std::size_t donor = busy->owners.size();
      for (std::size_t slot = 0; slot < busy->owners.size(); ++slot)
        if (busy->owners[slot].run != nullptr &&
            busy->tracker.donatable(slot)) {
          donor = slot;
          break;
        }
      if (donor == busy->owners.size()) return;  // all mid-solve
      const auto owner = busy->owners[donor];
      const auto ctl = busy->tracker.donate(donor, std::span<C>(x));
      busy->owners[donor] = {};
      busy->free_slots.push_back(donor);
      --busy->live;
      const std::size_t slot = idle->free_slots.back();
      idle->free_slots.pop_back();
      idle->homo.assign_slot(slot, owner.run->tenant);
      idle->tracker.adopt(slot, std::span<const C>(x), ctl);
      idle->owners[slot] = owner;
      ++idle->live;
      ++stats_.live_steals;
      inst_.steals->inc();
      ++owner.run->steals;
      if (registry_.heterogeneous()) {
        ++stats_.weighted_steals;
        inst_.weighted_steals->inc();
      }
    }
  }

  /// Run one lockstep round on every shard with live paths, devices in
  /// parallel (each shard's device is independent; groups sharing a
  /// device run serially on its thread).  Charges the cost model per
  /// round -- rounds clear the device log on entry -- and picks up
  /// admission-upload traffic before the first round of the tick.
  void run_rounds() {
    std::fill(device_charge_.begin(), device_charge_.end(), 0.0);
    const auto device_tick = [&](std::size_t d) {
      auto& dev = registry_.device(static_cast<unsigned>(d));
      double& charge = device_charge_[d];
      // Price the device log, fold its per-kernel stats into the
      // registry and (when tracing) lay its slices on the device's
      // engine tracks, then clear it.  The CHARGE stays the one
      // estimate_log_us call -- bit-identical to the untraced
      // schedule; the slice decomposition (per-direction DMA +
      // per-kernel compute, summing to the same total up to float
      // association) feeds only telemetry.
      const auto settle = [&] {
        const simt::LaunchLog& log = dev.log();
        if (log.kernels.empty() && log.transfers.transfers_to_device == 0 &&
            log.transfers.transfers_from_device == 0)
          return;  // nothing happened; skip the walk and keep the log warm
        const bool rounds_trace = tracer_.enabled(obs::TraceLevel::kRounds);
        const bool full_trace = tracer_.enabled(obs::TraceLevel::kFull);
        double cursor = stats_.total_modeled_us + charge;
        const double h2d = simt::estimate_h2d_us(log.transfers, config_.cost);
        const double d2h = simt::estimate_d2h_us(log.transfers, config_.cost);
        if (rounds_trace && h2d > 0.0)
          tracer_.add_device_slice(d, obs::Tracer::DeviceSlice::kDmaH2D,
                                   "h2d", cursor, cursor + h2d,
                                   log.transfers.bytes_to_device);
        cursor += h2d;
        if (rounds_trace && d2h > 0.0)
          tracer_.add_device_slice(d, obs::Tracer::DeviceSlice::kDmaD2H,
                                   "d2h", cursor, cursor + d2h,
                                   log.transfers.bytes_from_device);
        cursor += d2h;
        inst_.dma_h2d_bytes->inc(log.transfers.bytes_to_device);
        inst_.dma_d2h_bytes->inc(log.transfers.bytes_from_device);
        const double compute_start = cursor;
        for (const simt::KernelStats& k : log.kernels) {
          const double kus = simt::estimate_kernel_us(k, dev.spec(),
                                                      config_.cost);
          const auto& ki = kernel_instruments(d, k.kernel);
          ki.launches->inc();
          ki.modeled_us->add(kus);
          if (full_trace)
            tracer_.add_device_slice(d, obs::Tracer::DeviceSlice::kCompute,
                                     k.kernel, cursor, cursor + kus, 0);
          cursor += kus;
        }
        if (rounds_trace && !full_trace && cursor > compute_start)
          tracer_.add_device_slice(d, obs::Tracer::DeviceSlice::kCompute,
                                   "compute", compute_start, cursor, 0);
        charge += simt::estimate_log_us(log, dev.spec(), config_.cost);
        // Watermark BEFORE the clear: clear_log keeps the vectors'
        // capacity, so the high-water mark is exactly the steady-state
        // memory the log pins (test_service_steady_state.cpp holds the
        // service to zero allocations once this plateaus).
        device_log_watermark_[d] =
            std::max(device_log_watermark_[d], log.kernels.size());
        dev.clear_log();
      };
      settle();  // tenant installs / evaluator builds since last tick
      for (auto& g : groups_) {
        auto& shard = *g->shards[d];
        shard.rounded = false;
        if (shard.live == 0) continue;
        const double round_start = stats_.total_modeled_us + charge;
        shard.tracker.round();
        shard.rounded = true;
        settle();
        if (tracer_.enabled(obs::TraceLevel::kRounds))
          tracer_.add_device_slice(d, obs::Tracer::DeviceSlice::kRound,
                                   "shard round", round_start,
                                   stats_.total_modeled_us + charge, 0);
      }
    };
    if (pool_ && registry_.size() > 1) {
      pool_->parallel_for(registry_.size(), device_tick);
    } else {
      for (std::size_t d = 0; d < registry_.size(); ++d) device_tick(d);
    }
  }

  /// Coordinator bookkeeping after the parallel rounds: the tick's
  /// modeled cost (max over devices -- they ran concurrently), its
  /// per-request attribution (a device's charge splits equally over the
  /// requests riding it this tick), and the coalescing counters.
  void settle_tick() {
    double tick_cost = 0.0;
    for (const double c : device_charge_) tick_cost = std::max(tick_cost, c);
    stats_.total_modeled_us += tick_cost;
    inst_.modeled_us->add(tick_cost);
    for (unsigned d = 0; d < registry_.size(); ++d) {
      device_busy_us_[d] += device_charge_[d];
      inst_.device_busy_us[d]->add(device_charge_[d]);
      // Fold the per-device log watermarks (written on the pool threads,
      // ordered by the parallel_for join) into the service-wide stat.
      stats_.log_kernel_watermark =
          std::max<std::uint64_t>(stats_.log_kernel_watermark,
                                  device_log_watermark_[d]);
    }
    inst_.log_watermark->set(static_cast<double>(stats_.log_kernel_watermark));

    for (unsigned d = 0; d < registry_.size(); ++d) {
      scratch_device_runs_.clear();
      for (auto& g : groups_) {
        auto& shard = *g->shards[d];
        if (!shard.rounded) continue;
        ++stats_.shard_rounds;
        inst_.shard_rounds->inc();
        scratch_round_runs_.clear();
        for (const auto& owner : shard.owners) {
          if (owner.run == nullptr) continue;
          if (std::find(scratch_round_runs_.begin(), scratch_round_runs_.end(),
                        static_cast<void*>(owner.run)) ==
              scratch_round_runs_.end())
            scratch_round_runs_.push_back(owner.run);
        }
        const auto tenants_here =
            static_cast<unsigned>(scratch_round_runs_.size());
        if (tenants_here >= 2) {
          ++stats_.coalesced_rounds;
          inst_.coalesced_rounds->inc();
        }
        stats_.max_tenants_in_round =
            std::max(stats_.max_tenants_in_round, tenants_here);
        for (void* rp : scratch_round_runs_) {
          auto* run = static_cast<RunInfo*>(rp);
          run->state->rounds.fetch_add(1, std::memory_order_relaxed);
          if (tenants_here >= 2) ++run->shared_rounds;
          run->peak_tenants = std::max(run->peak_tenants, tenants_here);
          if (std::find(scratch_device_runs_.begin(),
                        scratch_device_runs_.end(),
                        rp) == scratch_device_runs_.end())
            scratch_device_runs_.push_back(rp);
        }
      }
      if (!scratch_device_runs_.empty()) {
        const double share =
            device_charge_[d] / static_cast<double>(scratch_device_runs_.size());
        for (void* rp : scratch_device_runs_)
          static_cast<RunInfo*>(rp)->modeled_us += share;
      }
    }

    for (auto& g : groups_)
      for (auto& run : g->active) ++run->ticks_tracking;
  }

  void drain_retirements(Group& g) {
    for (auto& shard : g.shards) {
      if (shard->live == 0) continue;
      for (std::size_t slot = 0; slot < shard->owners.size(); ++slot) {
        auto& owner = shard->owners[slot];
        if (owner.run == nullptr || !shard->tracker.retired(slot)) continue;
        RunInfo& run = *owner.run;
        run.state->report.paths[owner.path] = shard->tracker.result(slot);
        ++run.retired;
        run.state->paths_retired.fetch_add(1, std::memory_order_relaxed);
        owner = {};
        shard->free_slots.push_back(slot);
        --shard->live;
      }
    }
  }

  void finalize_done(Group& g) {
    for (auto it = g.active.begin(); it != g.active.end();) {
      RunInfo& run = **it;
      if (run.retired < run.total) {
        ++it;
        continue;
      }
      auto& report = run.state->report;
      report.retally();
      const auto now = Clock::now();
      const auto us = [](auto dt) {
        return std::chrono::duration<double, std::micro>(dt).count();
      };
      report.timing.queue_wall_us = us(run.activated_at - run.submitted_at);
      report.timing.track_wall_us = us(now - run.activated_at);
      report.timing.total_wall_us = us(now - run.submitted_at);
      report.timing.modeled_us = run.modeled_us;
      report.timing.rounds =
          run.state->rounds.load(std::memory_order_relaxed);
      report.metrics.shared_rounds = run.shared_rounds;
      report.metrics.peak_tenants = run.peak_tenants;
      report.metrics.steals = run.steals;
      report.metrics.queue_pulls = run.queue_pulls;
      // The span's modeled_us arg is the SAME value the report carries,
      // so the trace and the report agree exactly (validate_trace.py
      // checks the sum against the engine slices).
      tracer_.span_args(run.span, report.timing.modeled_us, run.total,
                        report.timing.rounds);
      tracer_.end_span(run.span, stats_.total_modeled_us);
      run.state->status.store(RequestStatus::kDone, std::memory_order_release);
      ++stats_.completed;
      inst_.completed->inc();
      if (run.cancelling) {
        ++stats_.cancelled_requests;
        inst_.cancelled->inc();
      }
      g.free_tenants.push_back(run.tenant);
      for (auto& shard : g.shards) shard->homo.clear_tenant(run.tenant);
      it = g.active.erase(it);
    }
  }

  // ----- observability ----------------------------------------------

  /// One kernel name's per-kernel instruments.
  struct KernelInstruments {
    std::string kernel;
    obs::Counter* launches = nullptr;
    obs::FloatCounter* modeled_us = nullptr;
  };

  /// Pre-resolved registry handles for the service-level metrics (the
  /// tracker and Newton layers resolve theirs via obs::TrackerMetrics;
  /// per-kernel families resolve on a kernel name's first settle, see
  /// kernel_instruments).
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* rejected_budget = nullptr;
    obs::Counter* rejected_invalid = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* ticks = nullptr;
    obs::Counter* shard_rounds = nullptr;
    obs::Counter* coalesced_rounds = nullptr;
    obs::Counter* steals = nullptr;
    obs::Counter* weighted_steals = nullptr;
    obs::Counter* queue_pulls = nullptr;
    obs::Counter* dma_h2d_bytes = nullptr;
    obs::Counter* dma_d2h_bytes = nullptr;
    obs::FloatCounter* modeled_us = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* active_requests = nullptr;
    obs::Gauge* cache_hits = nullptr;
    obs::Gauge* cache_misses = nullptr;
    obs::Gauge* tune_hits = nullptr;
    obs::Gauge* tune_misses = nullptr;
    obs::Counter* audited_systems = nullptr;
    obs::Counter* audit_findings = nullptr;
    obs::Gauge* log_watermark = nullptr;
    obs::Histogram* queue_wall_us = nullptr;
    /// Per device index: modeled busy µs and utilization fraction.
    std::vector<obs::FloatCounter*> device_busy_us;
    std::vector<obs::Gauge*> device_util;
    /// Per device index: the kernel names settled on it so far.
    std::vector<std::vector<KernelInstruments>> kernels;
  };

  /// Device `d`'s per-kernel instruments for `kernel`: a registry lookup
  /// (its shared lock and two map finds) the first time the name settles
  /// on the device, a short scan of resolved names after that.  Each
  /// device's table is touched only by that device's tick thread.
  const KernelInstruments& kernel_instruments(std::size_t d,
                                              const std::string& kernel) {
    auto& table = inst_.kernels[d];
    for (const auto& ki : table)
      if (ki.kernel == kernel) return ki;
    table.push_back(
        {kernel,
         &metrics_.counter("polyeval_kernel_launches_total", "kernel", kernel),
         &metrics_.float_counter("polyeval_kernel_modeled_us_total", "kernel",
                                 kernel)});
    return table.back();
  }

  void resolve_instruments() {
    auto& r = metrics_;
    inst_.submitted = &r.counter("polyeval_requests_submitted_total",
                                 "solve requests submitted");
    inst_.admitted = &r.counter("polyeval_requests_admitted_total",
                                "solve requests admitted");
    inst_.rejected_queue_full =
        &r.counter("polyeval_requests_rejected_total", "reason", "queue_full",
                   "solve requests rejected, by admission verdict");
    inst_.rejected_budget = &r.counter("polyeval_requests_rejected_total",
                                       "reason", "path_budget_exceeded");
    inst_.rejected_invalid =
        &r.counter("polyeval_requests_rejected_total", "reason", "invalid");
    inst_.completed = &r.counter("polyeval_requests_completed_total",
                                 "solve requests completed");
    inst_.cancelled = &r.counter("polyeval_requests_cancelled_total",
                                 "requests completed by cancel/deadline");
    inst_.ticks =
        &r.counter("polyeval_service_ticks_total", "scheduler ticks");
    inst_.shard_rounds = &r.counter("polyeval_shard_rounds_total",
                                    "lockstep evaluation rounds run, all shards");
    inst_.coalesced_rounds =
        &r.counter("polyeval_coalesced_rounds_total",
                   "rounds carrying >= 2 requests in one launch");
    inst_.steals = &r.counter("polyeval_live_steals_total",
                              "live paths moved between shards");
    inst_.weighted_steals =
        &r.counter("polyeval_weighted_steals_total",
                   "live steals placed by throughput weight (mixed fleet)");
    inst_.queue_pulls = &r.counter("polyeval_queue_pulls_total",
                                   "pending paths pulled into slots");
    inst_.dma_h2d_bytes = &r.counter("polyeval_dma_bytes_total", "direction",
                                     "h2d", "modeled DMA payload bytes");
    inst_.dma_d2h_bytes =
        &r.counter("polyeval_dma_bytes_total", "direction", "d2h");
    inst_.modeled_us = &r.float_counter("polyeval_modeled_us_total",
                                        "the service's modeled clock");
    inst_.queue_depth = &r.gauge("polyeval_service_queue_depth",
                                 "admitted-but-not-active requests");
    inst_.active_requests =
        &r.gauge("polyeval_service_active_requests", "requests in tracking");
    inst_.cache_hits =
        &r.gauge("polyeval_system_cache_hits", "SystemCache lookup hits");
    inst_.cache_misses =
        &r.gauge("polyeval_system_cache_misses", "SystemCache lookup misses");
    inst_.tune_hits =
        &r.gauge("polyeval_tune_cache_hits", "global TuneCache hits");
    inst_.tune_misses =
        &r.gauge("polyeval_tune_cache_misses", "global TuneCache misses");
    inst_.audited_systems =
        &r.counter("polyeval_audited_systems_total",
                   "new SystemCache entries audited at admission");
    inst_.audit_findings =
        &r.counter("polyeval_audit_findings_total",
                   "kernel auditor findings across admission audits");
    inst_.log_watermark =
        &r.gauge("polyeval_device_log_kernel_watermark",
                 "most kernel launches one device log held at a settle");
    static constexpr std::array<double, 6> kQueueBounds = {
        100.0, 1e3, 1e4, 1e5, 1e6, 1e7};
    inst_.queue_wall_us =
        &r.histogram("polyeval_request_queue_wall_us", kQueueBounds,
                     "host µs a request waited before activation");
    inst_.device_busy_us.reserve(registry_.size());
    inst_.device_util.reserve(registry_.size());
    // Service devices run the routed evaluator's two kernels; the
    // reserve keeps their first sightings off the allocator.
    inst_.kernels.resize(registry_.size());
    for (auto& table : inst_.kernels) table.reserve(4);
    for (unsigned d = 0; d < registry_.size(); ++d) {
      const std::string label = std::to_string(d);
      inst_.device_busy_us.push_back(
          &r.float_counter("polyeval_device_busy_us_total", "device", label,
                           "modeled µs each device spent busy"));
      inst_.device_util.push_back(
          &r.gauge("polyeval_device_utilization", "device", label,
                   "busy fraction of the service's modeled clock"));
    }
  }

  // ----- async mode -------------------------------------------------

  void async_loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      if (work_remaining_locked()) {
        step_locked();
      } else {
        cv_.wait(lk, [&] { return stop_ || work_remaining_locked(); });
      }
    }
  }

  // ----- members ----------------------------------------------------

  Config config_;
  simt::DeviceRegistry registry_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;
  std::optional<simt::ThreadPool> pool_;

  SystemCache<S> cache_;
  std::deque<QueuedItem> queued_;
  std::vector<std::unique_ptr<Group>> groups_;

  std::vector<double> device_charge_;
  std::vector<double> device_busy_us_;  ///< summed charges per device
  /// Per-device log high-water marks (kernels per settle); each element
  /// is only touched by its device's tick thread, folded in settle_tick.
  std::vector<std::size_t> device_log_watermark_;
  std::vector<simt::DeviceSpec> fleet_spec_list_;  ///< registry order
  std::vector<void*> scratch_device_runs_, scratch_round_runs_;
  ServiceStats stats_;
  std::uint64_t next_id_ = 0;

  // Observability.  Registration happens once in the constructor
  // (resolve_instruments / TrackerMetrics::from_registry); every
  // steady-state observation goes through a pre-resolved pointer and
  // never allocates.  tracer_ is declared after config_: its
  // constructor reads config_.trace.
  obs::MetricsRegistry metrics_;
  obs::TrackerMetrics tracker_metrics_;
  Instruments inst_;
  obs::Tracer tracer_;
  std::size_t tune_fold_from_ = 0;  ///< Autotuner profile-fold watermark
};

}  // namespace polyeval::service
