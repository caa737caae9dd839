#pragma once

/// \file request.hpp
/// The solve service's request/response surface: what a client submits
/// (SolveRequest), what submit() hands back (SolveTicket -- the
/// admission verdict plus a handle for progress polling, cooperative
/// cancellation and the final report), and the small lock-free state
/// block the two sides share.  Tickets are cheap shared_ptr handles:
/// poll() and cancel() touch only atomics, so an async client thread
/// can watch a request while the service thread ticks rounds.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "poly/system.hpp"
#include "solve/options.hpp"
#include "solve/report.hpp"

namespace polyeval::service {

/// Backpressure verdict of SolveService::submit.
enum class AdmissionVerdict {
  kAdmitted,            ///< queued; track via the ticket
  kQueueFull,           ///< bounded queue at capacity -- resubmit later
  kPathBudgetExceeded,  ///< more paths than the per-request budget
  kInvalid,             ///< malformed options or non-uniform system
};

[[nodiscard]] constexpr const char* to_string(AdmissionVerdict v) noexcept {
  switch (v) {
    case AdmissionVerdict::kAdmitted: return "admitted";
    case AdmissionVerdict::kQueueFull: return "queue_full";
    case AdmissionVerdict::kPathBudgetExceeded: return "path_budget_exceeded";
    case AdmissionVerdict::kInvalid: return "invalid";
  }
  return "unknown";
}

/// Request lifecycle, observable through SolveTicket::poll.
enum class RequestStatus {
  kRejected,  ///< never admitted (see the ticket's verdict)
  kQueued,    ///< admitted, waiting for a tenant slot
  kTracking,  ///< live paths riding lockstep rounds
  kDone,      ///< report finalized (all paths retired or cancelled)
};

[[nodiscard]] constexpr const char* to_string(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kQueued: return "queued";
    case RequestStatus::kTracking: return "tracking";
    case RequestStatus::kDone: return "done";
  }
  return "unknown";
}

/// One solve request.  By default the service derives the total-degree
/// start system, start roots and gamma from `options` (and caches the
/// derivation per structure); `start` overrides all three for callers
/// bridging existing pipelines (the one-shot sharded solver) or
/// tracking a custom subset of paths.
template <prec::RealScalar S>
struct SolveRequest {
  poly::PolynomialSystem target;
  solve::Options options;

  /// Explicit start data (optional).  `roots` are AFFINE start points;
  /// the service embeds them into the patch (it tracks projectively).
  struct StartData {
    poly::PolynomialSystem system;
    std::vector<std::vector<cplx::Complex<S>>> roots;
    cplx::Complex<double> gamma;
  };
  std::optional<StartData> start;

  /// Cancel the request after this many service ticks spent tracking
  /// (0 = unlimited); a tick is one lockstep evaluation round, which
  /// gives each live path one evaluation.  Deterministic -- the
  /// test-friendly deadline.
  std::uint64_t round_budget = 0;
  /// Cancel once the service's modeled device clock has advanced this
  /// many microseconds past admission (0 = none).
  double modeled_deadline_us = 0.0;
};

/// Progress snapshot (one relaxed-atomic read per field).
struct Progress {
  RequestStatus status = RequestStatus::kQueued;
  std::uint64_t paths_total = 0;
  std::uint64_t paths_retired = 0;
  std::uint64_t rounds = 0;  ///< lockstep evaluation rounds this request rode in
  [[nodiscard]] bool done() const noexcept {
    return status == RequestStatus::kDone || status == RequestStatus::kRejected;
  }
};

namespace detail {

/// The shared state block behind a ticket.  The service owns the
/// non-atomic fields; clients may only touch the atomics until
/// `status` reads kDone (the release/acquire pair that publishes the
/// report).
template <prec::RealScalar S>
struct RequestState {
  explicit RequestState(SolveRequest<S> req) : request(std::move(req)) {}

  std::uint64_t id = 0;
  AdmissionVerdict verdict = AdmissionVerdict::kAdmitted;
  SolveRequest<S> request;

  std::atomic<RequestStatus> status{RequestStatus::kQueued};
  std::atomic<bool> cancel_requested{false};
  std::atomic<std::uint64_t> paths_total{0};
  std::atomic<std::uint64_t> paths_retired{0};
  std::atomic<std::uint64_t> rounds{0};

  solve::Report<S> report;  ///< valid once status == kDone
};

}  // namespace detail

/// The client half of a submitted request.
template <prec::RealScalar S>
class SolveTicket {
 public:
  SolveTicket() = default;
  explicit SolveTicket(std::shared_ptr<detail::RequestState<S>> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const { return checked().id; }
  [[nodiscard]] AdmissionVerdict verdict() const { return checked().verdict; }
  [[nodiscard]] bool admitted() const {
    return valid() && state_->verdict == AdmissionVerdict::kAdmitted;
  }

  /// Thread-safe progress snapshot.
  [[nodiscard]] Progress poll() const {
    const auto& s = checked();
    Progress p;
    p.status = s.status.load(std::memory_order_acquire);
    p.paths_total = s.paths_total.load(std::memory_order_relaxed);
    p.paths_retired = s.paths_retired.load(std::memory_order_relaxed);
    p.rounds = s.rounds.load(std::memory_order_relaxed);
    return p;
  }
  [[nodiscard]] bool done() const { return poll().done(); }

  /// Cooperative cancellation: flags the request; the service retires
  /// its live paths as kCancelled at the next round boundary (no
  /// launches spent on them) and skips its unstarted paths.
  void cancel() const {
    checked().cancel_requested.store(true, std::memory_order_release);
  }

  /// The final report; call only after done() (throws otherwise).
  [[nodiscard]] const solve::Report<S>& report() const {
    const auto& s = checked();
    if (s.status.load(std::memory_order_acquire) != RequestStatus::kDone)
      throw std::logic_error("SolveTicket: report() before completion");
    return s.report;
  }

 private:
  [[nodiscard]] detail::RequestState<S>& checked() const {
    if (!state_) throw std::logic_error("SolveTicket: empty ticket");
    return *state_;
  }

  std::shared_ptr<detail::RequestState<S>> state_;
};

}  // namespace polyeval::service
