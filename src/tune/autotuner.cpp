#include "tune/autotuner.hpp"

#include <algorithm>
#include <sstream>

namespace polyeval::tune {

Autotuner& Autotuner::global() {
  static Autotuner instance;
  return instance;
}

std::vector<TuneCandidate> standard_candidates(unsigned seed_block,
                                               std::span<const unsigned> blocks,
                                               std::span<const unsigned> stream_counts) {
  std::vector<TuneCandidate> out;
  const unsigned first_streams = stream_counts.empty() ? 2 : stream_counts.front();

  TuneCandidate seed;
  seed.block_size = seed_block;
  seed.interchange = core::InterchangeLayout::kAoS;
  seed.streams = first_streams;
  out.push_back(seed);

  const auto push_unique = [&out](const TuneCandidate& cand) {
    if (std::find(out.begin(), out.end(), cand) == out.end()) out.push_back(cand);
  };
  for (const unsigned streams :
       stream_counts.empty() ? std::span<const unsigned>(&first_streams, 1)
                             : stream_counts)
    for (const auto layout :
         {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA})
      for (const unsigned block : blocks) {
        TuneCandidate cand;
        cand.block_size = block;
        cand.interchange = layout;
        cand.streams = streams;
        push_unique(cand);
      }
  return out;
}

std::string Autotuner::decision_note(const TuneDecision& decision,
                                     const ProfileReport& report) {
  std::ostringstream out;
  out << "block " << decision.choice.block_size << ", "
      << (decision.choice.interchange == core::InterchangeLayout::kSoA ? "soa"
                                                                       : "aos")
      << ", " << decision.choice.streams << " streams";
  // The dominant memory-behaviour fact of the winning probe, so the
  // cache file explains its own choices.
  for (const auto& k : report.kernels) {
    out << "; " << k.kernel << ": " << k.diagnosis();
    break;  // the first (primary) kernel carries the headline
  }
  return out.str();
}

std::string Autotuner::profile_dump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "=== Autotuner decisions (" << decisions_.size() << " measured, " << hits_
      << " cache hits, " << misses_ << " misses) ===\n\n";
  for (const auto& d : decisions_) {
    out << "key: schedule " << static_cast<unsigned>(d.key.schedule) << ", n "
        << d.key.n << ", m " << d.key.m << ", k " << d.key.k << ", d " << d.key.d
        << ", batch " << d.key.batch << ", chunk " << d.key.chunk
        << ", scalar width " << d.key.scalar_width << ", " << d.key.multiprocessors
        << " SMs (hash " << d.key.structure_hash() << ")\n"
        << "  choice: " << d.decision.note << "\n"
        << "  modeled " << d.decision.modeled_us << " us vs heuristic "
        << d.decision.heuristic_us << " us (x" << d.decision.speedup() << ")\n"
        << "  winning probe profile:\n";
    std::istringstream profile(d.report.summary());
    for (std::string line; std::getline(profile, line);)
      out << "    " << line << "\n";
    out << "\n";
  }
  return out.str();
}

std::size_t Autotuner::fold_profiles_into(obs::MetricsRegistry& registry,
                                          std::size_t from) const {
  // Copy the pending reports under the lock and fold them after it: the
  // fold takes the registry's lock, and holding ours across it would
  // order this mutex before the registry's while a submit orders the
  // caller's mutexes before ours (a lock-order inversion).
  std::vector<ProfileReport> pending;
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    count = decisions_.size();
    for (std::size_t i = std::min(from, count); i < count; ++i)
      pending.push_back(decisions_[i].report);
  }
  for (const auto& report : pending) report.fold_into(registry);
  return count;
}

}  // namespace polyeval::tune
