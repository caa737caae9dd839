#include "benchutil/stamp.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "benchutil/json.hpp"

namespace polyeval::benchutil {

namespace {

// The root CMakeLists.txt defines POLYEVAL_BUILD_TYPE from
// CMAKE_BUILD_TYPE; builds that compile src/ on their own may not.
#ifdef POLYEVAL_BUILD_TYPE
constexpr const char* kBuildType = POLYEVAL_BUILD_TYPE;
#else
constexpr const char* kBuildType = "unknown";
#endif

std::string resolve_git_sha() {
  if (const char* env = std::getenv("GITHUB_SHA"); env != nullptr && *env)
    return env;
  // Fallback for local runs: ask git.  Swallow every failure mode
  // (no git, not a repo) into "unknown" -- provenance is best-effort,
  // never a reason for a bench to fail.
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      for (const char* p = buf; *p != '\0' && *p != '\n'; ++p) sha += *p;
    }
    ::pclose(pipe);
  }
  // A full SHA is 40 hex chars; anything shorter is git noise.
  if (sha.size() < 7) sha = "unknown";
  return sha;
}

}  // namespace

const std::string& git_sha() {
  static const std::string sha = resolve_git_sha();
  return sha;
}

void emit_stamp(JsonWriter& json) {
  json.key("meta");
  json.begin_object()
      .field("schema_version", kBenchSchemaVersion)
      .field("git_sha", git_sha())
      .field("host_cores", std::thread::hardware_concurrency())
      .field("build_type", kBuildType)
      .end_object();
}

std::optional<HostCpuTimes> read_host_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return std::nullopt;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  HostCpuTimes times;
  for (int column = 0; column < 8; ++column) {
    std::uint64_t jiffies = 0;
    if (!(stat >> jiffies)) return std::nullopt;
    times.total += jiffies;
    if (column == 7) times.steal = jiffies;
  }
  return times;
}

std::optional<double> host_steal_frac(const std::optional<HostCpuTimes>& begin,
                                      const std::optional<HostCpuTimes>& end) {
  if (!begin || !end || end->total <= begin->total || end->steal < begin->steal)
    return std::nullopt;
  return static_cast<double>(end->steal - begin->steal) /
         static_cast<double>(end->total - begin->total);
}

}  // namespace polyeval::benchutil
