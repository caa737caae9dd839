#include "simt/kernel.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "simt/thread_pool.hpp"

namespace polyeval::simt {

bool host_has_fma() noexcept {
#if POLYEVAL_FMA_ENTRIES
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
  }();
  return has;
#else
  return false;
#endif
}

unsigned block_stats_period(const DeviceSpec& spec,
                            std::span<const std::uint64_t> stride_bytes,
                            unsigned blocks) noexcept {
  const std::uint64_t t = spec.global_transaction_bytes;
  if (blocks <= 1) return 1;
  if (t == 0 || GlobalMemory::kAlignment % t != 0) return blocks;
  // Each T / gcd(T, s) divides T, so their lcm does too: no overflow.
  std::uint64_t period = 1;
  for (const std::uint64_t s : stride_bytes) period = std::lcm(period, t / std::gcd(t, s));
  return static_cast<unsigned>(std::min<std::uint64_t>(period, blocks));
}

namespace detail {

bool SharedRaceJournal::record(std::uint32_t word, unsigned thread, bool is_write,
                               unsigned* other_thread) {
  auto& state = words[word];
  if (state.epoch != epoch) {
    state.epoch = epoch;
    state.thread = thread;
    state.other = thread;
    state.written = is_write;
    state.multi_thread = false;
    return false;
  }
  if (state.thread != thread) {
    state.multi_thread = true;
    state.other = thread;
    const bool hazard = is_write || state.written;
    state.written = state.written || is_write;
    if (hazard && other_thread != nullptr) *other_thread = state.thread;
    return hazard;
  }
  // same thread touching a word other threads already read: hazardous
  // only if this is a write and someone else was involved
  const bool hazard = is_write && state.multi_thread;
  state.written = state.written || is_write;
  if (hazard && other_thread != nullptr) *other_thread = state.other;
  return hazard;
}

void GlobalRaceJournal::Shard::begin_launch() {
  const std::lock_guard lock(mutex);
  ++epoch;
  filled = 0;
  if (slots.empty()) slots.resize(256);
}

void GlobalRaceJournal::Shard::grow() {
  std::vector<Slot> old;
  old.swap(slots);
  slots.resize(old.size() * 2);
  for (const auto& slot : old) {
    if (slot.epoch != epoch) continue;
    std::size_t i = probe_start(slot.address);
    while (slots[i].epoch == epoch) i = (i + 1) & (slots.size() - 1);
    slots[i] = slot;
  }
}

bool GlobalRaceJournal::Shard::record_write(std::uint64_t address,
                                            std::uint64_t global_thread,
                                            std::uint64_t* other_thread) {
  const std::lock_guard lock(mutex);
  // Keep the load factor below 1/2 so probes stay short.
  if ((filled + 1) * 2 > slots.size()) grow();
  std::size_t i = probe_start(address);
  for (;;) {
    Slot& slot = slots[i];
    if (slot.epoch != epoch) {
      slot.epoch = epoch;
      slot.address = address;
      slot.thread = global_thread;
      ++filled;
      return false;
    }
    if (slot.address == address) {
      if (slot.thread == global_thread) return false;
      if (other_thread != nullptr) *other_thread = slot.thread;
      return true;
    }
    i = (i + 1) & (slots.size() - 1);
  }
}

void WarpCollector::warm(const Shape& shape) {
  if (loads.size() < shape.loads) loads.resize(shape.loads);
  if (stores.size() < shape.stores) stores.resize(shape.stores);
  if (shared.size() < shape.shared) shared.resize(shape.shared);
  // A warp group holds at most one entry per lane (runs) or two segments
  // per lane (a 128-byte-straddling access); reserving those bounds once
  // keeps the incremental push_back growth off the steady-state path.
  for (auto& g : loads)
    if (g.segments.capacity() < 64) g.segments.reserve(64);
  for (auto& g : stores)
    if (g.segments.capacity() < 64) g.segments.reserve(64);
  for (auto& g : shared)
    if (g.runs.capacity() < 32) g.runs.reserve(32);
}

void WarpCollector::reset() {
  for (std::size_t i = 0; i < loads_used; ++i) loads[i].segments.clear();
  for (std::size_t i = 0; i < stores_used; ++i) stores[i].segments.clear();
  for (std::size_t i = 0; i < shared_used; ++i) shared[i].runs.clear();
  loads_used = stores_used = shared_used = 0;
}

void WarpCollector::record_global(bool is_store, std::size_t ordinal,
                                  std::uint64_t address, std::size_t bytes,
                                  unsigned segment_bytes) {
  auto& groups = is_store ? stores : loads;
  auto& used = is_store ? stores_used : loads_used;
  if (groups.size() <= ordinal) groups.resize(ordinal + 1);
  used = std::max(used, ordinal + 1);
  auto& segs = groups[ordinal].segments;
  // Segment sizes are powers of two on every real device; a shift keeps
  // this per-access path off the integer divider.
  std::uint64_t first, last;
  if (std::has_single_bit(segment_bytes)) {
    const unsigned shift = static_cast<unsigned>(std::countr_zero(segment_bytes));
    first = address >> shift;
    last = (address + bytes - 1) >> shift;
  } else {
    first = address / segment_bytes;
    last = (address + bytes - 1) / segment_bytes;
  }
  for (std::uint64_t s = first; s <= last; ++s) {
    if (std::find(segs.begin(), segs.end(), s) == segs.end()) segs.push_back(s);
  }
}

void WarpCollector::record_shared(std::size_t ordinal, std::uint32_t first_word,
                                  std::size_t words) {
  if (shared.size() <= ordinal) shared.resize(ordinal + 1);
  shared_used = std::max(shared_used, ordinal + 1);
  shared[ordinal].runs.push_back({first_word, static_cast<std::uint32_t>(words)});
}

void BlockCounters::merge(const BlockCounters& o) noexcept {
  cmul += o.cmul;
  cadd += o.cadd;
  cmul_thread_max = std::max(cmul_thread_max, o.cmul_thread_max);
  cadd_thread_max = std::max(cadd_thread_max, o.cadd_thread_max);
  load_requests += o.load_requests;
  load_transactions += o.load_transactions;
  load_bytes += o.load_bytes;
  store_requests += o.store_requests;
  store_transactions += o.store_transactions;
  store_bytes += o.store_bytes;
  shared_requests += o.shared_requests;
  shared_cycles += o.shared_cycles;
  constant_reads += o.constant_reads;
  inactive_lane_phases += o.inactive_lane_phases;
}

bool BlockCounters::same_work(const BlockCounters& o) const noexcept {
  return cmul == o.cmul && cadd == o.cadd && cmul_thread_max == o.cmul_thread_max &&
         cadd_thread_max == o.cadd_thread_max && constant_reads == o.constant_reads &&
         load_bytes == o.load_bytes && store_bytes == o.store_bytes &&
         inactive_lane_phases == o.inactive_lane_phases;
}

}  // namespace detail

void BlockScratch::fold(const detail::WarpCollector& col, const DeviceSpec& spec,
                        detail::BlockCounters& accum) {
  for (std::size_t i = 0; i < col.loads_used; ++i) {
    ++accum.load_requests;
    accum.load_transactions += col.loads[i].segments.size();
  }
  for (std::size_t i = 0; i < col.stores_used; ++i) {
    ++accum.store_requests;
    accum.store_transactions += col.stores[i].segments.size();
  }
  // fold_bank_epoch/fold_per_bank were sized by BlockScratch::warm,
  // which run_kernel applies to every participant before any block runs.
  const bool banks_pow2 = (spec.shared_banks & (spec.shared_banks - 1)) == 0;
  const std::uint32_t bank_mask = spec.shared_banks - 1;
  for (std::size_t i = 0; i < col.shared_used; ++i) {
    const auto& g = col.shared[i];
    ++accum.shared_requests;
    // Fermi rule: lanes reading the *same* word broadcast; distinct words
    // mapping to the same bank serialize.  Cost = max distinct words per
    // bank.  Words are deduped against the epoch-stamped seen-table, so
    // a request costs O(words touched), not a sort; the per-bank counts
    // are epoch-stamped too, so nothing is cleared between requests.
    ++fold_epoch;
    std::uint32_t worst = 1;
    for (const auto& run : g.runs) {
      for (std::uint32_t w = run.first_word; w < run.first_word + run.words; ++w) {
        if (fold_seen[w] == fold_epoch) continue;  // broadcast: same word
        fold_seen[w] = fold_epoch;
        const std::uint32_t bank = banks_pow2 ? (w & bank_mask) : (w % spec.shared_banks);
        const std::uint32_t in_bank =
            fold_bank_epoch[bank] == fold_epoch ? ++fold_per_bank[bank]
                                                : (fold_per_bank[bank] = 1);
        fold_bank_epoch[bank] = fold_epoch;
        worst = std::max(worst, in_bank);
      }
    }
    accum.shared_cycles += worst;
  }
}

void BlockScratch::warm(const LaunchConfig& cfg, const DeviceSpec& spec,
                        const detail::WarpCollector::Shape& shape) {
  // Pre-size only: run_block resets (sizes AND zeroes) the arena before
  // every block, so warming a hot participant again would just repeat
  // that memset once per launch per participant.
  if (shared.size() < cfg.shared_bytes) shared.reset(cfg.shared_bytes);
  const std::size_t shared_words =
      cfg.shared_bytes / spec.shared_bank_width_bytes + 2;
  shared_races.prepare(shared_words);
  if (fold_seen.size() < shared_words) fold_seen.resize(shared_words);
  if (fold_bank_epoch.size() < spec.shared_banks) {
    fold_bank_epoch.resize(spec.shared_banks, 0);
    fold_per_bank.resize(spec.shared_banks, 0);
  }
  if (cmul_per_thread.size() < cfg.block_threads) {
    cmul_per_thread.resize(cfg.block_threads, 0);
    cadd_per_thread.resize(cfg.block_threads, 0);
  }
  collector.warm(shape);
}

/// Runs the blocks of one launch; also the ThreadContext, BareBlock and
/// BlockStatsMemo befriender.
struct BlockRunner {
  const Kernel& kernel;
  const LaunchConfig& cfg;
  const DeviceSpec& spec;
  detail::GlobalRaceJournal* global_races;
  /// The launch's memo, or null when this launch may not use one.
  BlockStatsMemo* memo;
  /// This launch's claim stamp (BlockStatsMemo::launches_).
  std::uint64_t stamp = 0;

  detail::BlockAccum totals;
  std::mutex merge_mutex;

  /// Check the launch against its memo: the (row, block) bounds, and
  /// the geometry the entries were filled under (recorded on first use).
  void bind_memo() {
    const auto fail = [&](const std::string& why) {
      throw LaunchError(kernel.name + ": block statistics memo " + why);
    };
    if (memo->rows_ == 0 || cfg.grid_blocks > memo->blocks_)
      fail("holds " + std::to_string(memo->rows_) + " rows of " +
           std::to_string(memo->blocks_) + " blocks, launched with " +
           std::to_string(cfg.grid_blocks) + " blocks");
    const auto rows = cfg.memo.rows;
    if (!rows.empty() && rows.size() < cfg.grid_blocks)
      fail("rows span is shorter than the grid");
    for (std::size_t b = 0; b < rows.size() && b < cfg.grid_blocks; ++b)
      if (rows[b] >= memo->rows_)
        fail("has no row " + std::to_string(rows[b]) + " (block " +
             std::to_string(b) + ")");
    for (std::size_t p = 0; p < kernel.phases.size(); ++p)
      if (!kernel.phases[p].bare)
        fail("needs a bare entry for every phase, and phase " + std::to_string(p) +
             " takes only ThreadContext&");
    if (memo->block_threads_ == 0) {
      memo->block_threads_ = cfg.block_threads;
      memo->shared_bytes_ = cfg.shared_bytes;
    } else if (memo->block_threads_ != cfg.block_threads ||
               memo->shared_bytes_ != cfg.shared_bytes) {
      fail("was filled under " + std::to_string(memo->block_threads_) +
           " threads and " + std::to_string(memo->shared_bytes_) +
           " shared bytes per block, launched with " +
           std::to_string(cfg.block_threads) + " and " +
           std::to_string(cfg.shared_bytes));
    }
  }

  /// Run every phase of one block over ThreadContext: warp by warp, each
  /// warp's accesses collected and then folded into `block`.
  void run_instrumented(unsigned block_index, BlockScratch& scratch,
                        detail::BlockAccum& accum, detail::BlockCounters& block) {
    for (unsigned phase_index = 0; phase_index < kernel.phases.size(); ++phase_index) {
      const auto& phase = kernel.phases[phase_index].checked;
      scratch.shared_races.clear();  // phases are barriers: accesses across them order
      for (unsigned warp_start = 0; warp_start < cfg.block_threads;
           warp_start += spec.warp_size) {
        scratch.collector.reset();
        const unsigned warp_end =
            std::min(warp_start + spec.warp_size, cfg.block_threads);
        for (unsigned t = warp_start; t < warp_end; ++t) {
          ThreadContext ctx(block_index, t, phase_index, cfg, spec, scratch.shared,
                            scratch.collector,
                            cfg.detect_races ? &scratch.shared_races : nullptr,
                            cfg.detect_races ? global_races : nullptr,
                            cfg.detect_races ? &accum.first_hazard : nullptr);
          phase(ctx);
          scratch.cmul_per_thread[t] += ctx.cmul_;
          scratch.cadd_per_thread[t] += ctx.cadd_;
          block.cmul += ctx.cmul_;
          block.cadd += ctx.cadd_;
          block.constant_reads += ctx.const_reads_;
          block.inactive_lane_phases += ctx.inactive_;
          block.load_bytes += ctx.load_bytes_;
          block.store_bytes += ctx.store_bytes_;
          accum.race_hazards += ctx.race_hazards_;
        }
        scratch.fold(scratch.collector, spec, block);
      }
    }
  }

  [[nodiscard]] BlockStatsMemo::Entry& entry_of(unsigned block_index) const noexcept {
    const unsigned row = cfg.memo.rows.empty() ? 0u : cfg.memo.rows[block_index];
    return memo->entry(row, block_index);
  }

  /// The first pass's blocks, in block order: the lowest block of each
  /// (row, class) whose entry is unfilled, each entry stamped with this
  /// launch so the second pass skips its block.
  void claim_first_runs(std::vector<unsigned>& first) {
    stamp = ++memo->launches_;
    if (first.capacity() < memo->blocks_) first.reserve(memo->blocks_);
    first.clear();
    for (unsigned b = 0; b < cfg.grid_blocks; ++b) {
      auto& entry = entry_of(b);
      if (entry.filled || entry.claimed == stamp) continue;
      entry.claimed = stamp;
      entry.first_block = b;
      first.push_back(b);
    }
  }

  /// Whether `block_index` ran in this launch's first pass.
  [[nodiscard]] bool ran_first(unsigned block_index) const noexcept {
    const auto& entry = entry_of(block_index);
    return entry.claimed == stamp && entry.first_block == block_index;
  }

  /// Run one block and merge its counters into the range tally.  With a
  /// filled entry the block runs each phase's bare entry once (or not at
  /// all, statistics only) and the entry supplies the counters;
  /// otherwise the block runs instrumented and fills `entry` when there
  /// is one.
  void run_block(unsigned block_index, BlockStatsMemo::Entry* entry,
                 BlockScratch& scratch, detail::BlockAccum& accum) {
    const bool bare = entry != nullptr && entry->filled;
    if (bare && cfg.statistics_only) {
      accum.merge(entry->counters);
      return;
    }

    detail::BlockCounters block;
    scratch.shared.reset(cfg.shared_bytes);
    scratch.cmul_per_thread.assign(cfg.block_threads, 0);
    scratch.cadd_per_thread.assign(cfg.block_threads, 0);

    if (bare) {
      // bind_memo checked that every phase has a bare entry.
      BareBlock bare_block(block_index, cfg.block_threads, scratch.shared,
                           scratch.cmul_per_thread.data(),
                           scratch.cadd_per_thread.data(), block);
      for (const auto& phase : kernel.phases) phase.bare(bare_block);
    } else {
      run_instrumented(block_index, scratch, accum, block);
    }
    for (unsigned t = 0; t < cfg.block_threads; ++t) {
      block.cmul_thread_max = std::max(block.cmul_thread_max, scratch.cmul_per_thread[t]);
      block.cadd_thread_max = std::max(block.cadd_thread_max, scratch.cadd_per_thread[t]);
    }

    if (bare) {
      // The guard: the counters a bare run still sums must match the
      // entry, or the kernel broke the memo's contract.  Ranges run in
      // block order, so the first stale block is the range's lowest.
      if (!accum.stale_block && !entry->counters.same_work(block))
        accum.stale_block = block_index;
      accum.merge(entry->counters);
      return;
    }
    if (entry != nullptr) {
      entry->counters = block;
      entry->filled = true;
    }
    accum.merge(block);
  }

  /// Run a contiguous range of blocks on one participant's scratch and
  /// merge the tallies once for the whole range.  With a memo, blocks
  /// that ran in the first pass are skipped.
  void run_range(BlockScratch& scratch, std::size_t begin, std::size_t end) {
    detail::BlockAccum accum;
    for (std::size_t i = begin; i < end; ++i) {
      const auto b = static_cast<unsigned>(i);
      if (memo == nullptr) {
        run_block(b, nullptr, scratch, accum);
      } else if (!ran_first(b)) {
        run_block(b, &entry_of(b), scratch, accum);
      }
    }
    merge(accum);
  }

  /// Run first-pass blocks on one participant's scratch: each runs
  /// instrumented and fills its entry.
  void run_first(BlockScratch& scratch, std::span<const unsigned> blocks) {
    detail::BlockAccum accum;
    for (const unsigned b : blocks) run_block(b, &entry_of(b), scratch, accum);
    merge(accum);
  }

  void merge(const detail::BlockAccum& accum) {
    const std::lock_guard lock(merge_mutex);
    totals.merge(accum);
    totals.race_hazards += accum.race_hazards;
    if (!totals.first_hazard.valid && accum.first_hazard.valid)
      totals.first_hazard = accum.first_hazard;
    if (accum.stale_block && (!totals.stale_block ||
                              *accum.stale_block < *totals.stale_block))
      totals.stale_block = accum.stale_block;
  }
};

KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                       const DeviceSpec& spec, ThreadPool& pool,
                       EngineScratch& scratch) {
  if (cfg.grid_blocks == 0) throw LaunchError(kernel.name + ": empty grid");
  if (cfg.block_threads == 0 || cfg.block_threads > spec.max_threads_per_block)
    throw LaunchError(kernel.name + ": invalid block size " +
                      std::to_string(cfg.block_threads));
  if (cfg.shared_bytes > spec.shared_memory_per_block)
    throw LaunchError(kernel.name + ": block requests " +
                      std::to_string(cfg.shared_bytes) + " bytes of shared memory, " +
                      std::to_string(spec.shared_memory_per_block) + " available");

  scratch.prepare(pool.participant_count());
  // Pre-size every participant's scratch for this launch shape: a
  // participant that sat out earlier launches must not allocate when a
  // chunk lands on it later (the zero-alloc steady-state guarantee).
  for (auto& bs : scratch.per_participant)
    bs.warm(cfg, spec, scratch.observed_shape);
  // The journal is only consulted by checked launches; the production
  // path skips even its 16 per-shard epoch bumps.
  if (cfg.detect_races) scratch.global_races.begin_launch();
  // Checked and audited launches keep the full path: the memo is
  // neither read nor written, so journals and auditors see every access.
  BlockStatsMemo* memo =
      cfg.detect_races || cfg.audit != nullptr ? nullptr : cfg.memo.table;
  BlockRunner runner{kernel, cfg, spec, &scratch.global_races, memo, 0, {}, {}};
  const auto run_grid = [&] {
    pool.parallel_for_ranges(
        cfg.grid_blocks, pool.default_chunk(cfg.grid_blocks),
        [&](unsigned participant, std::size_t begin, std::size_t end) {
          runner.run_range(scratch.per_participant[participant], begin, end);
        });
  };
  if (cfg.audit != nullptr) {
    // Audited launches run serially on the calling thread: the auditor
    // sees every access in deterministic program order (blocks, then
    // phases, then warps, then lanes) and needs no locking.
    cfg.audit->begin_launch(kernel.name, cfg.grid_blocks, cfg.block_threads,
                            cfg.shared_bytes);
    runner.run_range(scratch.per_participant[0], 0, cfg.grid_blocks);
    cfg.audit->end_launch();
  } else if (memo == nullptr) {
    run_grid();
  } else {
    runner.bind_memo();
    // Pass one: the lowest block of each class the memo lacks,
    // instrumented, in parallel.
    auto& first = scratch.first_runs;
    runner.claim_first_runs(first);
    if (!first.empty())
      pool.parallel_for_ranges(
          first.size(), pool.default_chunk(first.size()),
          [&](unsigned participant, std::size_t begin, std::size_t end) {
            runner.run_first(scratch.per_participant[participant],
                             std::span<const unsigned>(first).subspan(begin, end - begin));
          });
    // Pass two: every other block, bare against its class's entry -- or,
    // statistics only, just that entry, merged on this thread.
    if (cfg.statistics_only)
      runner.run_range(scratch.per_participant[0], 0, cfg.grid_blocks);
    else if (first.size() < cfg.grid_blocks)
      run_grid();
  }
  for (const auto& bs : scratch.per_participant)
    scratch.observed_shape.merge(bs.collector);

  if (cfg.detect_races && runner.totals.race_hazards > 0) {
    std::string msg = kernel.name + ": " +
                      std::to_string(runner.totals.race_hazards) +
                      " race hazard(s): unordered same-phase accesses to a "
                      "shared word or double-writes to a global address";
    const auto& h = runner.totals.first_hazard;
    if (h.valid) {
      // Shared hazards report block-local thread indices; global hazards
      // report launch-global thread indices.
      msg += "; first hazard: phase " + std::to_string(h.phase) +
             (h.shared ? ", block " + std::to_string(h.block) + ", shared word "
                       : ", global address ") +
             std::to_string(h.address) + ", threads " +
             std::to_string(h.thread_a) + " and " + std::to_string(h.thread_b);
    }
    throw LaunchError(msg);
  }
  if (runner.totals.stale_block) {
    const unsigned b = *runner.totals.stale_block;
    throw LaunchError(kernel.name + ": block " + std::to_string(b) +
                      " (memo row " +
                      std::to_string(cfg.memo.rows.empty() ? 0u : cfg.memo.rows[b]) +
                      ", class " + std::to_string(b % memo->period()) +
                      ") did different work than its memoized statistics record: "
                      "its access stream depends on more than its block class "
                      "and the row's tables");
  }

  const auto& t = runner.totals;
  KernelStats stats;
  stats.kernel = kernel.name;
  stats.blocks = cfg.grid_blocks;
  stats.threads = static_cast<std::uint64_t>(cfg.grid_blocks) * cfg.block_threads;
  stats.warps_per_block = (cfg.block_threads + spec.warp_size - 1) / spec.warp_size;
  stats.warps = static_cast<std::uint64_t>(stats.warps_per_block) * cfg.grid_blocks;

  stats.complex_mul_total = t.cmul;
  stats.complex_add_total = t.cadd;
  stats.complex_mul_per_thread_max = t.cmul_thread_max;
  stats.complex_add_per_thread_max = t.cadd_thread_max;
  stats.global_load_requests = t.load_requests;
  stats.global_load_transactions = t.load_transactions;
  stats.global_store_requests = t.store_requests;
  stats.global_store_transactions = t.store_transactions;
  stats.global_bytes_loaded = t.load_bytes;
  stats.global_bytes_stored = t.store_bytes;
  stats.shared_requests = t.shared_requests;
  stats.shared_cycles = t.shared_cycles;
  stats.constant_reads = t.constant_reads;
  stats.inactive_lane_phases = t.inactive_lane_phases;
  stats.race_hazards = t.race_hazards;
  stats.shared_bytes_per_block = cfg.shared_bytes;

  // Occupancy: how many blocks fit on one SM at once (Fermi limits).
  unsigned resident = spec.max_blocks_per_sm;
  resident = std::min(resident, std::max(1u, spec.max_threads_per_sm / cfg.block_threads));
  if (cfg.shared_bytes > 0)
    resident = std::min(
        resident, std::max(1u, static_cast<unsigned>(spec.shared_memory_per_block /
                                                     cfg.shared_bytes)));
  stats.concurrent_blocks_per_sm = resident;
  const std::uint64_t per_wave =
      static_cast<std::uint64_t>(spec.multiprocessors) * resident;
  stats.waves =
      static_cast<unsigned>((cfg.grid_blocks + per_wave - 1) / per_wave);
  stats.warps_on_busiest_sm =
      static_cast<std::uint64_t>(stats.warps_per_block) *
      ((cfg.grid_blocks + spec.multiprocessors - 1) / spec.multiprocessors);
  return stats;
}

KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                       const DeviceSpec& spec, ThreadPool& pool) {
  EngineScratch scratch;
  return run_kernel(kernel, cfg, spec, pool, scratch);
}

}  // namespace polyeval::simt
