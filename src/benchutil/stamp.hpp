#pragma once

/// \file stamp.hpp
/// Provenance stamp for the BENCH_*.json artifacts: every emitted file
/// carries a "meta" object with the bench JSON schema version, the git
/// commit it was built from, the host's core count and the build type,
/// so a downloaded artifact (or a stale committed baseline) identifies
/// itself and the machine that measured it without archaeology.  The
/// stamp adds no gated leaves -- check_bench_regression.py keys on
/// wall_us / per_sec / solved_frac / tuned_speedup substrings, none of
/// which appear here -- so stamped files compare cleanly against
/// pre-stamp baselines.

#include <cstdint>
#include <optional>
#include <string>

namespace polyeval::benchutil {

class JsonWriter;

/// Bumped when the shape of any BENCH_*.json changes incompatibly
/// (field renames, moved sections).  Additive fields do not bump it.
inline constexpr unsigned kBenchSchemaVersion = 1;

/// The commit the binary was built from: $GITHUB_SHA when CI exports
/// it, else `git rev-parse HEAD` from the current directory, else
/// "unknown".  Resolved once per process (the answer cannot change
/// mid-run).
[[nodiscard]] const std::string& git_sha();

/// Write `"meta": {"schema_version": ..., "git_sha": ..., "host_cores":
/// ..., "build_type": ...}` into an open JSON object: host_cores is
/// std::thread::hardware_concurrency() (0 when unknown), build_type the
/// CMake build type the library was compiled under ("unknown" outside
/// the root build).  Call once, right after begin_object() of the
/// document root.
void emit_stamp(JsonWriter& json);

/// Cumulative jiffies of the host's aggregate CPU line in /proc/stat:
/// the steal column (time a hypervisor ran someone else on this
/// guest's CPUs) and the sum of the eight time columns it is part of.
struct HostCpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/// The current reading; nullopt where /proc/stat is absent or has no
/// steal column.
[[nodiscard]] std::optional<HostCpuTimes> read_host_cpu_times();

/// The steal share of the host's CPU time between two readings --
/// what a wall-clock gate cannot tell from a regression.  nullopt when
/// either reading is missing or no time passed between them.
[[nodiscard]] std::optional<double> host_steal_frac(
    const std::optional<HostCpuTimes>& begin, const std::optional<HostCpuTimes>& end);

}  // namespace polyeval::benchutil
