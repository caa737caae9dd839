#pragma once

/// \file system_cache.hpp
/// Structure-hash-keyed cache of everything a solve request needs that
/// does not depend on the request's start points: the packed/encoded
/// system tables, the total-degree start system, and the autotuner's
/// resolved launch geometry for this structure.  Requests hitting the
/// cache skip packing, Bezout bookkeeping and the tuning probe entirely
/// -- the admission-time costs the solve service amortizes across a
/// stream of similar requests.
///
/// The hash is INJECTABLE and only buckets: every lookup compares the
/// packed tables field-by-field inside the bucket, so a colliding hash
/// (tests inject a constant one) can never alias two different systems
/// into one entry -- it only makes lookups slower.  The resolved tune
/// geometry comes from constructing one scratch single-tenant
/// FusedGpuEvaluator, whose constructor resolves through
/// tune::Autotuner::global(): the first request with a structure pays
/// the measured probe, every later one is a TuneCache hit
/// (Autotuner::global().hits() observes the reuse across requests).
///
/// Geometry is PER DEVICE SPEC: an entry holds one resolved geometry
/// per distinct spec in the caller's fleet, each probed on a scratch
/// device of THAT spec (TuneKey carries the full device geometry, so
/// the global TuneCache keeps them apart too).  The old single-slot
/// scheme silently pinned shard 0's winner on every shard of a mixed
/// fleet -- a 32-wide choice for a device whose residency limits want
/// 128.  Uniform fleets resolve exactly once, as before.

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/fused_evaluator.hpp"
#include "homotopy/start_system.hpp"

namespace polyeval::service {

/// FNV-1a over the packed tables (structure, support, exponents,
/// coefficient bits): the default content hash.
[[nodiscard]] inline std::uint64_t hash_packed_system(
    const core::PackedSystem& packed) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto& s = packed.structure;
  mix(s.n);
  mix(s.m);
  mix(s.k);
  mix(s.d);
  for (const unsigned char b : packed.positions) mix(b);
  for (const unsigned char b : packed.exponents) mix(b);
  for (const auto& c : packed.coeffs) {
    std::uint64_t bits;
    double re = c.re(), im = c.im();
    static_assert(sizeof(bits) == sizeof(re));
    std::memcpy(&bits, &re, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &im, sizeof(bits));
    mix(bits);
  }
  return h;
}

/// Full content equality (the bucket scan's discriminator).
[[nodiscard]] inline bool packed_systems_equal(const core::PackedSystem& a,
                                               const core::PackedSystem& b) {
  return a.structure == b.structure && a.positions == b.positions &&
         a.exponents == b.exponents && a.coeffs == b.coeffs;
}

template <prec::RealScalar S>
class SystemCache {
 public:
  using Hasher = std::function<std::uint64_t(const core::PackedSystem&)>;

  /// Launch geometry the autotuner resolved for one device spec.
  struct TunedGeometry {
    simt::DeviceSpec spec;
    unsigned block = 0;
    std::optional<core::InterchangeLayout> interchange;
  };

  struct Entry {
    poly::PolynomialSystem system;  ///< the target, as submitted
    core::PackedSystem packed;
    homotopy::TotalDegreeStart start;
    /// Resolved geometry per distinct device spec, at `tuned_capacity`
    /// points (the service's evaluator batch size).  One element for a
    /// uniform fleet; grown lazily as lookups bring new specs.
    std::vector<TunedGeometry> geometries;
    unsigned tuned_capacity = 0;
    tune::TuningMode tuned_mode = tune::TuningMode::kMeasured;

    Entry(const poly::PolynomialSystem& target, core::PackedSystem p)
        : system(target), packed(std::move(p)), start(target) {}

    /// The resolved geometry for `spec`; an entry returned by lookup()
    /// always covers every spec the lookup was made with.
    [[nodiscard]] const TunedGeometry* geometry_for(
        const simt::DeviceSpec& spec) const {
      for (const auto& g : geometries)
        if (g.spec == spec) return &g;
      return nullptr;
    }
  };

  explicit SystemCache(Hasher hasher = {})
      : hasher_(hasher ? std::move(hasher) : Hasher(&hash_packed_system)) {}

  /// Find-or-create the entry for `target`, resolving the tune geometry
  /// for `capacity`-point batches under `mode` on each of the fleet's
  /// `specs` (deduplicated; empty means one default-spec device).  A
  /// content hit re-resolves only what changed: everything when
  /// capacity/mode moved, just the missing specs when the fleet grew.
  /// The tuning probes run on devices of `host_workers` pool threads.
  std::shared_ptr<const Entry> lookup(
      const poly::PolynomialSystem& target, unsigned capacity,
      tune::TuningMode mode, std::span<const simt::DeviceSpec> specs = {},
      unsigned host_workers = 1) {
    static const simt::DeviceSpec default_spec = simt::DeviceSpec::tesla_c2050();
    if (specs.empty()) specs = std::span<const simt::DeviceSpec>(&default_spec, 1);
    core::PackedSystem packed = core::pack_system(target);
    auto& bucket = buckets_[hasher_(packed)];
    for (const auto& e : bucket) {
      if (packed_systems_equal(e->packed, packed)) {
        if (e->tuned_capacity != capacity || e->tuned_mode != mode)
          e->geometries.clear();
        resolve_missing(*e, capacity, mode, specs, host_workers);
        ++hits_;
        return e;
      }
    }
    ++misses_;
    auto entry = std::make_shared<Entry>(target, std::move(packed));
    resolve_missing(*entry, capacity, mode, specs, host_workers);
    bucket.push_back(entry);
    return entry;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& [h, bucket] : buckets_) n += bucket.size();
    return n;
  }

 private:
  /// Resolve geometry for every spec in `specs` the entry does not
  /// already cover, one scratch single-tenant evaluator per DISTINCT
  /// uncovered spec -- probed on a device of that spec, so no shard
  /// inherits another geometry's winner.  Later same-structure
  /// constructions (and every tenant-routed evaluator pinned from this
  /// entry) skip the probe.
  static void resolve_missing(Entry& entry, unsigned capacity,
                              tune::TuningMode mode,
                              std::span<const simt::DeviceSpec> specs,
                              unsigned host_workers) {
    for (const auto& spec : specs) {
      if (entry.geometry_for(spec) != nullptr) continue;  // covered (dedups too)
      // Scratch: the measured probes copy its spec and worker count.
      simt::Device probe(spec, host_workers);
      typename core::FusedGpuEvaluator<S>::Options opts;
      opts.tuning = mode;
      core::FusedGpuEvaluator<S> scratch(probe, entry.system, capacity, opts);
      entry.geometries.push_back(
          {spec, scratch.options().block_size, scratch.options().interchange});
    }
    entry.tuned_capacity = capacity;
    entry.tuned_mode = mode;
  }

  Hasher hasher_;
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<Entry>>>
      buckets_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace polyeval::service
