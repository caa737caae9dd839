#pragma once

/// \file kernel.hpp
/// The SIMT execution model of the simulator.
///
/// A Kernel is a named sequence of *phases*; a phase is a function run by
/// every thread of every block, and consecutive phases are separated by an
/// implicit block-wide barrier (__syncthreads).  Within a warp the lanes
/// execute a phase in lockstep order, and the engine groups the i-th
/// global/shared memory access of each lane into one warp-level request --
/// reproducing how coalescing and bank conflicts form on the real device.
///
/// The engine keeps per-worker scratch (shared-memory arena, access
/// collectors, race journals) alive across launches, so steady-state
/// launches perform no heap allocation.  The one piece of unbounded
/// state is the Device launch log, which appends one KernelStats per
/// launch: long-running users must call Device::clear_log()
/// periodically (it keeps capacity) for the hot path to stay
/// allocation-free end to end.
///
/// Collecting and folding the accesses is most of a launch's host cost.
/// A kernel whose access stream depends only on its block index and on
/// caller-keyed tables (the fused evaluators') can hand the launch a
/// BlockStatsMemo keyed by (row, block class): the lowest block of each
/// class runs instrumented once, and every other block runs bare,
/// merging its class's counters instead.  A bare block calls each
/// phase's bare entry once: the same phase code, compiled over the lean
/// BareThread context and looped over the block's threads in the
/// instrumented order, with no collection and no fold.  So a memoized
/// kernel's phases must be generic (`auto& ctx`).  The modeled clock is
/// unchanged, because every charge comes from the same counters; checked
/// and audited launches never consult the memo, and ThreadContext always
/// collects.
///
/// A phase whose arithmetic calls std::fma (double-double products) can
/// also get FMA entries: both entries compiled a second time for the
/// FMA target with FP contraction off, where each std::fma is one
/// inlined instruction instead of a libm call.  See Phase.

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "simt/audit_hook.hpp"
#include "simt/device_spec.hpp"
#include "simt/memory.hpp"
#include "simt/shared_memory.hpp"
#include "simt/stats.hpp"

// The FMA entries (see Phase): flattened, so the phase and the scalar
// arithmetic it calls are inlined and compiled for the FMA target, with
// contraction off.  GCC function attributes, on x86-64 only; elsewhere
// every phase keeps its baseline entries.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define POLYEVAL_FMA_ENTRIES 1
#define POLYEVAL_FMA_ENTRY \
  [[gnu::flatten, gnu::target("fma"), gnu::optimize("fp-contract=off")]]
#else
#define POLYEVAL_FMA_ENTRIES 0
#endif

namespace polyeval::simt {

class ThreadPool;
class ThreadContext;
class BareThread;
class BareBlock;
class BlockStatsMemo;

/// A launch's key into a BlockStatsMemo: block b of the launch uses the
/// entry of row rows[b] and block class b mod the memo's period; empty
/// `rows` keys every block to row 0.
struct MemoRef {
  BlockStatsMemo* table = nullptr;
  std::span<const unsigned> rows;
};

/// Grid/block geometry plus the block's shared-memory allocation.
struct LaunchConfig {
  unsigned grid_blocks = 1;
  unsigned block_threads = 32;
  std::size_t shared_bytes = 0;
  /// Race checking (the cuda-memcheck racecheck analogue): within one
  /// phase, a shared word or global address touched by two different
  /// threads with at least one write is a hazard -- phases are the only
  /// barriers, so such accesses are unordered on real hardware.  Hazards
  /// throw LaunchError when enabled.
  bool detect_races = true;
  /// Access auditor (the initcheck/synccheck analogue): when set, the
  /// launch runs serially on the calling thread and every access is
  /// reported to the hook, which may squash flagged accesses.  Devices
  /// inject their attached auditor here (see Device::set_audit); tests
  /// can also set it directly for one-off audited launches.
  AccessAudit* audit = nullptr;
  /// Per-block statistics memo (see BlockStatsMemo).  Consulted only by
  /// unchecked, unaudited launches; the others neither read nor write it.
  MemoRef memo{};
  /// A memoized launch that only gathers statistics: the blocks the memo
  /// lacks run instrumented as usual, and every other block adds its
  /// class's entry without executing, so its outputs are never written.
  /// For callers that discard the outputs (the fused autotuner probes);
  /// launches that do not consult the memo ignore it and run in full.
  bool statistics_only = false;
};

/// Whether a phase built with `fma` set gets its FMA entries: this build
/// can compile them (GCC, x86-64) and the host CPU has FMA.  Probed once.
[[nodiscard]] bool host_has_fma() noexcept;

/// One phase of a kernel, built implicitly from the callable that
/// implements it.  A callable that accepts only ThreadContext& gets the
/// checked entry alone; a generic one (`auto& ctx`) is compiled a second
/// time over BareThread into the bare entry, so the instrumented and the
/// memo-hit paths run the same phase code.
///
/// FMA entries.  Built with `fma` set on a host where host_has_fma(),
/// both entries are the phase compiled for the FMA target with FP
/// contraction off (POLYEVAL_FMA_ENTRY); otherwise they are the
/// baseline entries.  The choice is made here, once.  Each std::fma the
/// phase's arithmetic calls (prec::two_prod) becomes one instruction,
/// and hardware FMA and libm's fma are both correctly rounded, so every
/// output bit and counter equals the baseline entries'.  Contraction
/// stays off: fusing a product into the sum after it, which the
/// baseline rounds separately (`p2 += a.hi * b.lo` in a double-double
/// product), moves bits.
/// A phase without std::fma calls gains nothing; worse, GCC's
/// complex-multiply vectorizer emits fused multiply-adds for
/// Complex<double> products even with contraction off, so double
/// phases keep the baseline entries.
struct Phase {
  /// Per-thread entry over the instrumented context: checked, audited
  /// and memo-miss launches run it for every thread of every block.
  std::function<void(ThreadContext&)> checked;
  /// Per-block entry a memo hit runs: every thread of the block over a
  /// BareThread (see BareBlock::run).  Empty unless the callable also
  /// accepts BareThread&.
  std::function<void(BareBlock&)> bare;

  template <class F>
    requires(!std::same_as<F, Phase> && std::invocable<F&, ThreadContext&>)
  Phase(F f);

  /// With `fma` set, the FMA entries where the host has them (see above).
  template <class F>
    requires(!std::same_as<F, Phase> && std::invocable<F&, ThreadContext&>)
  Phase(F f, bool fma);
};

struct Kernel {
  std::string name;
  std::vector<Phase> phases;
};

namespace detail {

/// Per-block-phase shared-memory access journal for race detection:
/// every shared word keeps the first accessor and whether anyone wrote.
/// Backed by a flat word-indexed table with epoch stamping, so clearing
/// between phases is O(1) and steady-state use never allocates.
struct SharedRaceJournal {
  struct WordState {
    std::uint64_t epoch = 0;
    unsigned thread = 0;  ///< first accessor this epoch
    unsigned other = 0;   ///< latest accessor that differed from `thread`
    bool written = false;
    bool multi_thread = false;
  };
  std::vector<WordState> words;
  std::uint64_t epoch = 0;

  /// Size the table for a block touching words [0, word_count).
  void prepare(std::size_t word_count) {
    if (words.size() < word_count) words.resize(word_count);
  }

  /// Record an access; returns true when it completes a hazard
  /// (two distinct threads, at least one write).  On a hazard,
  /// `other_thread` (when non-null) receives the conflicting thread.
  bool record(std::uint32_t word, unsigned thread, bool is_write,
              unsigned* other_thread = nullptr);
  void clear() { ++epoch; }
};

/// Launch-wide global-memory write journal: double-writes to one address
/// by different threads (any blocks) within one kernel are hazards.
/// Sharded by address hash: each shard is an independent mutex-guarded
/// open-addressing table, so concurrent participants (several host
/// workers, or several devices of a sharded evaluator running checked
/// launches at once) only contend when their writes hash to the same
/// shard instead of serializing on one launch-wide lock.  Tables are
/// epoch-stamped, persist across launches, and only grow while a launch
/// writes more distinct addresses than any launch before it.
struct GlobalRaceJournal {
  /// Power of two; 16 shards cut the worst-case contention of a
  /// many-core host by an order of magnitude while the per-shard
  /// footprint stays one cache-warm table.
  static constexpr unsigned kAddressShardBits = 4;
  static constexpr std::size_t kAddressShards = std::size_t{1} << kAddressShardBits;

  struct Slot {
    std::uint64_t epoch = 0;
    std::uint64_t address = 0;
    std::uint64_t thread = 0;
  };

  /// One address-hash shard: the pre-sharding journal, verbatim.
  /// Aligned out of false sharing with its neighbours' mutexes.
  struct alignas(64) Shard {
    std::vector<Slot> slots;
    std::size_t filled = 0;  ///< slots claimed in the current epoch
    std::uint64_t epoch = 0;
    std::mutex mutex;

    void begin_launch();
    /// Returns true when `address` was already written by a different
    /// thread this launch; `other_thread` then receives the prior writer.
    bool record_write(std::uint64_t address, std::uint64_t global_thread,
                      std::uint64_t* other_thread = nullptr);

   private:
    [[nodiscard]] std::size_t probe_start(std::uint64_t address) const noexcept {
      return static_cast<std::size_t>((address * 0x9E3779B97F4A7C15ull) >> 32) &
             (slots.size() - 1);
    }
    void grow();
  };

  std::array<Shard, kAddressShards> shards;

  /// Start a new launch: previous entries expire in O(1) per shard.
  void begin_launch() {
    for (auto& shard : shards) shard.begin_launch();
  }
  bool record_write(std::uint64_t address, std::uint64_t global_thread,
                    std::uint64_t* other_thread = nullptr) {
    return shards[shard_of(address)].record_write(address, global_thread,
                                                  other_thread);
  }

  /// Top bits of the same multiplicative mix the in-shard probe uses its
  /// middle bits of -- shard choice and probe position stay independent.
  [[nodiscard]] static std::size_t shard_of(std::uint64_t address) noexcept {
    return static_cast<std::size_t>((address * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kAddressShardBits));
  }
};

/// Warp-level grouping of the accesses issued during one phase: the i-th
/// access of each lane forms request i.  Reused across warps and phases;
/// reset() keeps every vector's capacity.
struct WarpCollector {
  struct GlobalGroup {
    std::vector<std::uint64_t> segments;  // distinct 128B segments touched
  };
  /// One lane access = one contiguous run of 4-byte shared words; the
  /// fold pass expands runs against an epoch-stamped seen-table, which
  /// is much cheaper than materializing every word here.
  struct SharedGroup {
    struct Run {
      std::uint32_t first_word;
      std::uint32_t words;
    };
    std::vector<Run> runs;
  };

  std::vector<GlobalGroup> loads;
  std::vector<GlobalGroup> stores;
  std::vector<SharedGroup> shared;
  std::size_t loads_used = 0;
  std::size_t stores_used = 0;
  std::size_t shared_used = 0;

  /// Group counts another collector reached; used to pre-size cold
  /// collectors so every engine participant is warm after launch one.
  struct Shape {
    std::size_t loads = 0, stores = 0, shared = 0;

    void merge(const WarpCollector& col) {
      loads = std::max(loads, col.loads.size());
      stores = std::max(stores, col.stores.size());
      shared = std::max(shared, col.shared.size());
    }
  };

  void reset();
  void warm(const Shape& shape);
  void record_global(bool is_store, std::size_t ordinal, std::uint64_t address,
                     std::size_t bytes, unsigned segment_bytes);
  void record_shared(std::size_t ordinal, std::uint32_t first_word, std::size_t words);
};

/// The first race hazard a launch hit, kept so the LaunchError can name
/// the kernel phase, the contested word/address and both threads.
struct RaceDetail {
  bool valid = false;
  bool shared = false;  ///< `address` is a shared word index, not global
  std::uint64_t address = 0;
  unsigned phase = 0;
  unsigned block = 0;
  std::uint64_t thread_a = 0;  ///< the access that completed the hazard
  std::uint64_t thread_b = 0;  ///< the prior conflicting accessor
};

/// The counters blocks contribute to KernelStats -- everything but the
/// race state, so also exactly what a BlockStatsMemo entry stores.
struct BlockCounters {
  std::uint64_t cmul = 0, cadd = 0;
  std::uint64_t cmul_thread_max = 0, cadd_thread_max = 0;
  std::uint64_t load_requests = 0, load_transactions = 0, load_bytes = 0;
  std::uint64_t store_requests = 0, store_transactions = 0, store_bytes = 0;
  std::uint64_t shared_requests = 0, shared_cycles = 0;
  std::uint64_t constant_reads = 0;
  std::uint64_t inactive_lane_phases = 0;

  /// Add `other`'s totals; keep the larger per-thread maxima.
  void merge(const BlockCounters& other) noexcept;
  /// Whether the counters a BareThread keeps (work, constant reads,
  /// bytes moved, idle lanes) agree -- the memo guard's comparison.
  [[nodiscard]] bool same_work(const BlockCounters& other) const noexcept;
};

/// Per-participant tallies over a range of blocks, merged into the
/// launch totals when the range retires.
struct BlockAccum : BlockCounters {
  std::uint64_t race_hazards = 0;
  RaceDetail first_hazard;
  /// Lowest block whose bare run disagreed with its memo entry.
  std::optional<unsigned> stale_block;
};

}  // namespace detail

/// The period of a kernel's block statistics: the smallest P for which
/// blocks b and b + P make warp requests touching equally many global
/// segments, for a kernel whose blocks differ only in where their slices
/// of its global buffers start.  A buffer whose slice advances by s bytes
/// per block shifts the block's addresses by b * s, and coalescing counts
/// distinct T-byte segments (T = spec.global_transaction_bytes), so only
/// b * s mod T matters, and it repeats every T / gcd(T, s) blocks.  P is
/// the lcm of that over `stride_bytes`, capped at `blocks`.  It is exact
/// because no segment spans two allocations (T divides the allocation
/// alignment; if it does not, every block is its own class), and shared
/// and constant accesses do not depend on where a block's slices start.
/// A buffer every lane of a block reads at one address touches one
/// segment wherever it sits, so it need not be listed.
[[nodiscard]] unsigned block_stats_period(const DeviceSpec& spec,
                                          std::span<const std::uint64_t> stride_bytes,
                                          unsigned blocks) noexcept;

/// Per-block kernel statistics, memoized for kernels whose access stream
/// depends only on the block index and on tables the caller keys as a
/// *row* (the routed fused kernel's tenant).  Such a block contributes
/// the same counters to KernelStats on every launch, and so does every
/// block of its *class* b mod period (see block_stats_period): entries
/// are keyed by (row, class).  A memoized launch runs in two passes.
/// First, the lowest block of each (row, class) whose entry is unfilled
/// runs instrumented, in parallel, and fills the entry.  Then every
/// other block runs bare -- each phase's bare entry runs the block over
/// BareThread, with no access collection and no fold -- and its class's
/// counters are merged instead (a statistics_only launch merges them
/// without running the block).  Every phase of a memoized kernel must
/// have a bare entry (be generic), or the launch throws.  The caller owns
/// the memo beside the kernel it describes, sizes it at construction and
/// invalidates a row whenever that row's tables change.
///
/// A guard, not a knob: a bare block still sums the counters BareThread
/// keeps, and any difference from its class's entry throws LaunchError
/// naming the kernel and the block.  A launch whose geometry (block
/// threads, shared bytes) differs from the one the memo was filled
/// under throws too.  Only unchecked, unaudited launches consult the
/// memo; detect_races = true is the reference path.
class BlockStatsMemo {
 public:
  BlockStatsMemo() = default;
  /// `rows` rows of `blocks` blocks, every block its own class.
  BlockStatsMemo(unsigned rows, unsigned blocks) : BlockStatsMemo(rows, blocks, blocks) {}
  /// `rows` rows of `blocks` blocks keyed by class b mod `period`
  /// (clamped to [1, blocks]; see block_stats_period).
  BlockStatsMemo(unsigned rows, unsigned blocks, unsigned period)
      : rows_(rows),
        blocks_(blocks),
        period_(std::clamp(period, 1u, std::max(blocks, 1u))),
        entries_(std::size_t{rows} * period_) {}

  /// Blocks b and b + period() share an entry.
  [[nodiscard]] unsigned period() const noexcept { return period_; }

  /// Forget `row` (its tables changed): its blocks run instrumented
  /// again on their next launch.
  void invalidate_row(unsigned row) noexcept {
    for (unsigned c = 0; c < period_; ++c) entry(row, c).filled = false;
  }

 private:
  friend struct BlockRunner;

  struct Entry {
    detail::BlockCounters counters;
    bool filled = false;
    /// The launch (see launches_) whose first pass runs `first_block`
    /// to fill this entry; 0 when none has.
    std::uint64_t claimed = 0;
    unsigned first_block = 0;
  };

  [[nodiscard]] Entry& entry(unsigned row, unsigned block) noexcept {
    return entries_[std::size_t{row} * period_ + block % period_];
  }

  unsigned rows_ = 0, blocks_ = 0, period_ = 1;
  std::vector<Entry> entries_;
  /// Memoized launches so far, the stamp their claims carry.
  std::uint64_t launches_ = 0;
  /// Geometry the entries were filled under; 0 threads until first use.
  unsigned block_threads_ = 0;
  std::size_t shared_bytes_ = 0;
};

/// Everything one engine participant (pool worker or the caller) reuses
/// across the blocks it executes: the simulated shared-memory arena, the
/// warp access collector, the shared race journal and the fold scratch.
struct BlockScratch {
  SharedSpace shared{0};
  detail::SharedRaceJournal shared_races;
  detail::WarpCollector collector;
  std::vector<std::uint64_t> cmul_per_thread;
  std::vector<std::uint64_t> cadd_per_thread;
  std::vector<std::uint64_t> fold_seen;  ///< epoch-stamped word dedupe table
  std::uint64_t fold_epoch = 0;
  std::vector<std::uint64_t> fold_bank_epoch;  ///< epoch-stamped bank counts
  std::vector<std::uint32_t> fold_per_bank;

  /// Fold a retired warp-phase collector into `accum`, computing
  /// transactions and bank-conflict cycles.
  void fold(const detail::WarpCollector& col, const DeviceSpec& spec,
            detail::BlockCounters& accum);

  /// Deterministically size everything this launch shape needs, so a
  /// participant that sat out earlier launches does not allocate when a
  /// chunk finally lands on it mid-run.
  void warm(const LaunchConfig& cfg, const DeviceSpec& spec,
            const detail::WarpCollector::Shape& shape);
};

/// Launch-lifetime engine state a Device keeps alive between launches so
/// the steady-state hot path is allocation-free.
struct EngineScratch {
  std::vector<BlockScratch> per_participant;
  detail::GlobalRaceJournal global_races;
  /// Largest collector shape any participant has reached; replayed onto
  /// every participant at launch start (see BlockScratch::warm).
  detail::WarpCollector::Shape observed_shape;
  /// A memoized launch's first-pass blocks (see BlockStatsMemo), reserved
  /// to the memo's block count.
  std::vector<unsigned> first_runs;

  void prepare(unsigned participants) {
    if (per_participant.size() < participants) per_participant.resize(participants);
  }
};

/// Everything a simulated thread sees: its identity, the memory spaces,
/// and the instrumentation hooks.  Only valid during the phase call.
class ThreadContext {
 public:
  // -- identity ---------------------------------------------------------
  [[nodiscard]] unsigned block_index() const noexcept { return block_; }
  [[nodiscard]] unsigned thread_index() const noexcept { return thread_; }
  [[nodiscard]] unsigned block_dim() const noexcept { return cfg_->block_threads; }
  [[nodiscard]] unsigned grid_dim() const noexcept { return cfg_->grid_blocks; }
  [[nodiscard]] unsigned lane() const noexcept { return thread_ % spec_->warp_size; }
  [[nodiscard]] unsigned warp() const noexcept { return thread_ / spec_->warp_size; }
  [[nodiscard]] std::size_t global_thread_index() const noexcept {
    return static_cast<std::size_t>(block_) * cfg_->block_threads + thread_;
  }

  // -- work accounting (the paper's complex-multiplication cost model) --
  void op_cmul(std::uint64_t n = 1) noexcept { cmul_ += n; }
  void op_cadd(std::uint64_t n = 1) noexcept { cadd_ += n; }

  /// A lane that has no work in this phase (e.g. threads beyond the first
  /// n in stage one of kernel one) calls this: it is the simulator's
  /// measure of SIMT divergence / idle lanes.
  void mark_inactive() {
    ++inactive_;
    if (audit_ != nullptr) audit_->on_inactive(audit_site());
  }

  // -- global memory ----------------------------------------------------
  template <class T>
  [[nodiscard]] T load(const GlobalBuffer<T>& buf, std::size_t i) {
    const std::uint64_t address = buf.device_address() + i * sizeof(T);
    collector_.record_global(false, load_ord_++, address, sizeof(T),
                             spec_->global_transaction_bytes);
    load_bytes_ += sizeof(T);
    // The audit verdict gates the raw access: a squashed out-of-bounds
    // load must never touch host memory past the allocation's storage.
    if (audit_ != nullptr &&
        !audit_->on_global_load(audit_site(), address, sizeof(T),
                                buf.device_address(), buf.size() * sizeof(T)))
      return T{};
    return buf.raw()[i];
  }

  template <class T>
  void store(const GlobalBuffer<T>& buf, std::size_t i, const T& v) {
    const std::uint64_t address = buf.device_address() + i * sizeof(T);
    collector_.record_global(true, store_ord_++, address, sizeof(T),
                             spec_->global_transaction_bytes);
    store_bytes_ += sizeof(T);
    bool hazard = false;
    if (global_races_ != nullptr) {
      std::uint64_t other = 0;
      hazard = global_races_->record_write(address, global_thread_index(), &other);
      if (hazard) {
        ++race_hazards_;
        note_race(false, address, global_thread_index(), other);
      }
    }
    if (audit_ != nullptr &&
        !audit_->on_global_store(audit_site(), address, sizeof(T),
                                 buf.device_address(), buf.size() * sizeof(T)))
      return;
    // The checked launch throws on the hazard anyway; dropping the write
    // that completed it keeps two host threads off one word.
    if (hazard) return;
    buf.raw()[i] = v;
  }

  // -- constant memory (broadcast through the constant cache) -----------
  template <class T>
  [[nodiscard]] T load_constant(const ConstantBuffer<T>& buf, std::size_t i) {
    ++const_reads_;
    if (audit_ != nullptr &&
        !audit_->on_constant_load(audit_site(), buf.name(), i * sizeof(T),
                                  sizeof(T), buf.size() * sizeof(T)))
      return T{};
    return buf.raw()[i];
  }

  // -- shared memory ----------------------------------------------------
  template <class T>
  class SharedView {
   public:
    [[nodiscard]] T get(std::size_t i) const {
      if (!ctx_->record_shared_access(byte_offset_ + i * sizeof(T), sizeof(T),
                                      false))
        return T{};
      return base_[i];
    }
    void set(std::size_t i, const T& v) const {
      if (ctx_->record_shared_access(byte_offset_ + i * sizeof(T), sizeof(T),
                                     true))
        base_[i] = v;
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }

   private:
    friend class ThreadContext;
    SharedView(ThreadContext* ctx, T* base, std::size_t count, std::size_t byte_offset)
        : ctx_(ctx), base_(base), count_(count), byte_offset_(byte_offset) {}
    ThreadContext* ctx_;
    T* base_;
    std::size_t count_;
    std::size_t byte_offset_;
  };

  /// Carve a typed view out of the block's shared allocation.
  template <class T>
  [[nodiscard]] SharedView<T> shared_array(std::size_t byte_offset, std::size_t count) {
    return SharedView<T>(this, shared_->typed<T>(byte_offset, count), count, byte_offset);
  }

 private:
  friend struct BlockRunner;

  ThreadContext(unsigned block, unsigned thread, unsigned phase,
                const LaunchConfig& cfg, const DeviceSpec& spec,
                SharedSpace& shared, detail::WarpCollector& collector,
                detail::SharedRaceJournal* shared_races,
                detail::GlobalRaceJournal* global_races,
                detail::RaceDetail* race_detail) noexcept
      : block_(block), thread_(thread), phase_(phase), cfg_(&cfg), spec_(&spec),
        shared_(&shared), collector_(collector), shared_races_(shared_races),
        global_races_(global_races), race_detail_(race_detail),
        audit_(cfg.audit) {}

  [[nodiscard]] AuditSite audit_site() const noexcept {
    return AuditSite{block_, phase_, warp(), lane(), thread_};
  }

  /// Keep the first hazard's coordinates for the LaunchError diagnostic.
  void note_race(bool shared, std::uint64_t address, std::uint64_t thread_a,
                 std::uint64_t thread_b) noexcept {
    if (race_detail_ == nullptr || race_detail_->valid) return;
    *race_detail_ = {true, shared, address, phase_, block_, thread_a, thread_b};
  }

  /// Returns false when an attached auditor squashed the access.
  bool record_shared_access(std::size_t byte_offset, std::size_t bytes, bool is_write) {
    const auto first_word = static_cast<std::uint32_t>(byte_offset / spec_->shared_bank_width_bytes);
    const std::size_t words =
        (byte_offset % spec_->shared_bank_width_bytes + bytes +
         spec_->shared_bank_width_bytes - 1) /
        spec_->shared_bank_width_bytes;
    collector_.record_shared(shared_ord_++, first_word, words);
    if (shared_races_ != nullptr) {
      for (std::size_t w = 0; w < words; ++w) {
        unsigned other = 0;
        if (shared_races_->record(first_word + static_cast<std::uint32_t>(w), thread_,
                                  is_write, &other)) {
          ++race_hazards_;
          note_race(true, first_word + w, thread_, other);
        }
      }
    }
    if (audit_ != nullptr)
      return audit_->on_shared_access(audit_site(), byte_offset, bytes, is_write);
    return true;
  }

  unsigned block_;
  unsigned thread_;
  unsigned phase_;
  const LaunchConfig* cfg_;
  const DeviceSpec* spec_;
  SharedSpace* shared_;
  detail::WarpCollector& collector_;
  detail::SharedRaceJournal* shared_races_;
  detail::GlobalRaceJournal* global_races_;
  detail::RaceDetail* race_detail_;
  AccessAudit* audit_;

  std::size_t load_ord_ = 0, store_ord_ = 0, shared_ord_ = 0;
  std::uint64_t cmul_ = 0, cadd_ = 0;
  std::uint64_t const_reads_ = 0, inactive_ = 0;
  std::uint64_t load_bytes_ = 0, store_bytes_ = 0;
  std::uint64_t race_hazards_ = 0;
};

/// The lean thread context of a memo-hit block: raw global, constant and
/// shared accesses, plus only the counters the memo guard compares
/// (BlockCounters::same_work).  Memo hits are unchecked and unaudited,
/// so nothing is collected, journaled or reported.  A BareThread is a
/// local of BareBlock::run, which lets the compiler keep the counters in
/// registers and inline the phase body into the thread loop.
class BareThread {
 public:
  [[nodiscard]] unsigned block_index() const noexcept { return block_; }
  [[nodiscard]] unsigned thread_index() const noexcept { return thread_; }
  [[nodiscard]] unsigned block_dim() const noexcept { return block_dim_; }

  void op_cmul(std::uint64_t n = 1) noexcept { cmul_ += n; }
  void op_cadd(std::uint64_t n = 1) noexcept { cadd_ += n; }
  void mark_inactive() noexcept { ++inactive_; }

  template <class T>
  [[nodiscard]] T load(const GlobalBuffer<T>& buf, std::size_t i) noexcept {
    load_bytes_ += sizeof(T);
    return buf.raw()[i];
  }

  template <class T>
  void store(const GlobalBuffer<T>& buf, std::size_t i, const T& v) noexcept {
    store_bytes_ += sizeof(T);
    buf.raw()[i] = v;
  }

  template <class T>
  [[nodiscard]] T load_constant(const ConstantBuffer<T>& buf, std::size_t i) noexcept {
    ++const_reads_;
    return buf.raw()[i];
  }

  template <class T>
  class SharedView {
   public:
    [[nodiscard]] T get(std::size_t i) const noexcept { return base_[i]; }
    void set(std::size_t i, const T& v) const noexcept { base_[i] = v; }

   private:
    friend class BareThread;
    explicit SharedView(T* base) noexcept : base_(base) {}
    T* base_;
  };

  /// Carve a typed view out of the block's shared allocation; bounds
  /// checked like ThreadContext's (throws LaunchError).
  template <class T>
  [[nodiscard]] SharedView<T> shared_array(std::size_t byte_offset, std::size_t count) {
    return SharedView<T>(shared_->typed<T>(byte_offset, count));
  }

 private:
  friend class BareBlock;

  BareThread(unsigned block, unsigned thread, unsigned block_dim,
             SharedSpace& shared) noexcept
      : block_(block), thread_(thread), block_dim_(block_dim), shared_(&shared) {}

  unsigned block_;
  unsigned thread_;
  unsigned block_dim_;
  SharedSpace* shared_;

  std::uint64_t cmul_ = 0, cadd_ = 0;
  std::uint64_t const_reads_ = 0, inactive_ = 0;
  std::uint64_t load_bytes_ = 0, store_bytes_ = 0;
};

/// One memo-hit block as the phases' bare entries see it: the block's
/// identity and shared arena, and where its threads' counters go.
class BareBlock {
 public:
  /// Run `phase` for threads 0..block_dim-1 -- the order the instrumented
  /// path runs them, warp by warp and lane by lane, so shared memory and
  /// global stores see the same sequence -- and add each thread's
  /// counters to the block's and to its per-thread work tallies.
  /// Flattened: the phase body and the scalar arithmetic it calls are
  /// inlined into the thread loop, so the counters stay in registers.
  /// The baseline target has no FMA instruction, so here each
  /// double-double product still calls libm's fma.
  template <class F>
  [[gnu::flatten]] void run(const F& phase) {
    run_threads(phase);
  }

#if POLYEVAL_FMA_ENTRIES
  /// run() compiled for the FMA target with contraction off: a phase's
  /// FMA bare entry, where each std::fma is inlined (see Phase).
  template <class F>
  POLYEVAL_FMA_ENTRY void run_fma(const F& phase) {
    run_threads(phase);
  }
#endif

 private:
  friend struct BlockRunner;

  template <class F>
  void run_threads(const F& phase) {
    detail::BlockCounters sum;
    for (unsigned t = 0; t < block_dim_; ++t) {
      BareThread ctx(block_, t, block_dim_, *shared_);
      phase(ctx);
      cmul_per_thread_[t] += ctx.cmul_;
      cadd_per_thread_[t] += ctx.cadd_;
      sum.cmul += ctx.cmul_;
      sum.cadd += ctx.cadd_;
      sum.constant_reads += ctx.const_reads_;
      sum.inactive_lane_phases += ctx.inactive_;
      sum.load_bytes += ctx.load_bytes_;
      sum.store_bytes += ctx.store_bytes_;
    }
    counters_->merge(sum);
  }

  BareBlock(unsigned block, unsigned block_dim, SharedSpace& shared,
            std::uint64_t* cmul_per_thread, std::uint64_t* cadd_per_thread,
            detail::BlockCounters& counters) noexcept
      : block_(block), block_dim_(block_dim), shared_(&shared),
        cmul_per_thread_(cmul_per_thread), cadd_per_thread_(cadd_per_thread),
        counters_(&counters) {}

  unsigned block_;
  unsigned block_dim_;
  SharedSpace* shared_;
  std::uint64_t* cmul_per_thread_;
  std::uint64_t* cadd_per_thread_;
  detail::BlockCounters* counters_;
};

template <class F>
  requires(!std::same_as<F, Phase> && std::invocable<F&, ThreadContext&>)
Phase::Phase(F f) {
  if constexpr (std::invocable<const F&, BareThread&>)
    bare = [f](BareBlock& block) { block.run(f); };
  checked = std::move(f);
}

#if POLYEVAL_FMA_ENTRIES
namespace detail {
/// A phase's FMA checked entry: the phase body for one thread, inlined
/// and compiled for the FMA target with contraction off.
template <class F>
POLYEVAL_FMA_ENTRY void run_thread_fma(F& phase, ThreadContext& ctx) {
  phase(ctx);
}
}  // namespace detail
#endif

template <class F>
  requires(!std::same_as<F, Phase> && std::invocable<F&, ThreadContext&>)
Phase::Phase(F f, [[maybe_unused]] bool fma) {
#if POLYEVAL_FMA_ENTRIES
  if (fma && host_has_fma()) {
    if constexpr (std::invocable<const F&, BareThread&>)
      bare = [f](BareBlock& block) { block.run_fma(f); };
    checked = [f = std::move(f)](ThreadContext& ctx) mutable {
      detail::run_thread_fma(f, ctx);
    };
    return;
  }
#endif
  *this = Phase(std::move(f));
}

/// Execute a kernel on the simulated device, distributing contiguous
/// chunks of blocks over the host pool, and return its statistics.
/// Validates the launch against the device limits (throws LaunchError).
/// `scratch` carries the reusable engine state; launches through a
/// Device share one EngineScratch, which is what makes the steady-state
/// path allocation-free.
[[nodiscard]] KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                                     const DeviceSpec& spec, ThreadPool& pool,
                                     EngineScratch& scratch);

/// Convenience overload with throwaway scratch (tests, one-shot launches).
[[nodiscard]] KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                                     const DeviceSpec& spec, ThreadPool& pool);

}  // namespace polyeval::simt
