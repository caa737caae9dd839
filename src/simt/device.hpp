#pragma once

/// \file device.hpp
/// The simulated GPU: owns the memory spaces, the host worker pool, and
/// the launch log.  Mirrors the slice of the CUDA runtime the paper's
/// implementation uses (cudaMalloc, __constant__ uploads, cudaMemcpy,
/// kernel launches).

#include <span>

#include "simt/kernel.hpp"
#include "simt/thread_pool.hpp"

namespace polyeval::simt {

/// Modeled readiness of the device's three asynchronous engines: the
/// compute engine (kernels serialize on it device-wide, the Fermi
/// convention) and the two DMA copy engines (the C2050 has one per
/// direction, so an upload, a download and a kernel can all be in
/// flight at once -- the overlap the stream subsystem models).  Streams
/// of one device share these clocks; a command starts no earlier than
/// its engine is free.  Purely modeled state: host execution is not
/// gated on it.
struct AsyncEngineClocks {
  double compute_ready_us = 0.0;
  double h2d_ready_us = 0.0;
  double d2h_ready_us = 0.0;

  /// Start a fresh modeled timeline (between instrumented regions).
  void reset() noexcept { *this = {}; }
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::tesla_c2050(), unsigned host_workers = 0)
      : spec_(std::move(spec)),
        global_(spec_.global_memory_bytes),
        constant_(spec_.constant_memory_bytes - spec_.constant_reserved_bytes),
        pool_(host_workers) {
    log_.kernels.reserve(64);
  }

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  /// Host worker threads of the pool that runs this device's launches
  /// (the constructor's `host_workers`, resolved: never 0).
  [[nodiscard]] unsigned host_workers() const noexcept { return pool_.worker_count(); }

  // -- allocation -------------------------------------------------------
  template <class T>
  [[nodiscard]] GlobalBuffer<T> alloc_global(std::size_t count, std::string name) {
    return global_.allocate<T>(count, std::move(name));
  }
  template <class T>
  [[nodiscard]] ConstantBuffer<T> alloc_constant(std::size_t count, std::string name) {
    return constant_.allocate<T>(count, std::move(name));
  }

  [[nodiscard]] std::size_t constant_bytes_used() const noexcept {
    return constant_.used();
  }
  [[nodiscard]] std::size_t constant_bytes_remaining() const noexcept {
    return constant_.remaining();
  }
  [[nodiscard]] std::size_t global_bytes_used() const noexcept { return global_.used(); }

  /// The global-memory arena itself; the auditor resolves finding
  /// addresses to allocation names through it.
  [[nodiscard]] const GlobalMemory& global_memory() const noexcept { return global_; }

  /// Release all device allocations (between experiments).
  void reset_memory() {
    global_.reset();
    constant_.reset();
    if (audit_ != nullptr) audit_->on_memory_reset();
  }

  // -- access auditing ---------------------------------------------------
  /// Attach an access auditor: every subsequent launch through this
  /// device runs audited (serially), and host-side initialization
  /// (upload / fill / h2d stream copies) is reported as provenance.
  /// Pass nullptr to detach.  Attach the auditor *before* constructing
  /// evaluators so construction-time uploads register as host-init.
  void set_audit(AccessAudit* audit) noexcept { audit_ = audit; }
  [[nodiscard]] AccessAudit* audit() const noexcept { return audit_; }

  // -- host <-> device transfers (tracked as PCIe traffic) --------------
  template <class T>
  void upload(const GlobalBuffer<T>& buf, std::span<const T> host) {
    std::copy(host.begin(), host.end(), buf.raw());
    log_.transfers.bytes_to_device += host.size_bytes();
    ++log_.transfers.transfers_to_device;
    if (audit_ != nullptr)
      audit_->on_host_write(buf.device_address(), host.size_bytes());
  }

  template <class T>
  void download(const GlobalBuffer<T>& buf, std::span<T> host) {
    std::copy_n(buf.raw(), host.size(), host.begin());
    log_.transfers.bytes_from_device += host.size_bytes();
    ++log_.transfers.transfers_from_device;
  }

  /// Fill a buffer device-side (cudaMemset analogue; not PCIe traffic).
  template <class T>
  void fill(const GlobalBuffer<T>& buf, const T& value) {
    std::fill_n(buf.raw(), buf.size(), value);
    if (audit_ != nullptr)
      audit_->on_host_write(buf.device_address(), buf.size() * sizeof(T));
  }

  template <class T>
  void upload_constant(const ConstantBuffer<T>& buf, std::span<const T> host) {
    std::copy(host.begin(), host.end(), buf.raw());
    log_.transfers.bytes_to_device += host.size_bytes();
    ++log_.transfers.transfers_to_device;
  }

  /// Transfer bookkeeping for a stream-issued async copy (the stream
  /// executes the memcpy itself): async traffic stays visible in the
  /// device-wide log alongside the synchronous upload/download calls.
  void note_transfer(bool to_device, std::size_t bytes) noexcept {
    if (to_device) {
      log_.transfers.bytes_to_device += bytes;
      ++log_.transfers.transfers_to_device;
    } else {
      log_.transfers.bytes_from_device += bytes;
      ++log_.transfers.transfers_from_device;
    }
  }

  // -- execution --------------------------------------------------------
  /// Launch through the device-owned engine scratch: after warm-up,
  /// repeated launches of same-shaped kernels do not allocate.
  KernelStats launch(const Kernel& kernel, const LaunchConfig& cfg) {
    if (audit_ != nullptr && cfg.audit == nullptr) {
      LaunchConfig audited = cfg;
      audited.audit = audit_;
      KernelStats stats = run_kernel(kernel, audited, spec_, pool_, scratch_);
      log_.kernels.push_back(stats);
      return stats;
    }
    KernelStats stats = run_kernel(kernel, cfg, spec_, pool_, scratch_);
    log_.kernels.push_back(stats);
    return stats;
  }

  [[nodiscard]] const LaunchLog& log() const noexcept { return log_; }
  void clear_log() { log_.clear(); }

  /// Modeled engine-readiness clocks shared by this device's streams
  /// (see stream.hpp).  Reset them when starting a fresh modeled
  /// timeline: `device.engine_clocks().reset()`.
  [[nodiscard]] AsyncEngineClocks& engine_clocks() noexcept { return engines_; }
  [[nodiscard]] const AsyncEngineClocks& engine_clocks() const noexcept {
    return engines_;
  }
  /// Pre-size the launch log: callers that issue a known number of
  /// launches per instrumented region (a sharded evaluator claiming work
  /// chunks) reserve once so the log's push_back stays off the allocator
  /// however the chunks fall.
  void reserve_log(std::size_t kernels) { log_.kernels.reserve(kernels); }

 private:
  DeviceSpec spec_;
  GlobalMemory global_;
  ConstantMemory constant_;
  ThreadPool pool_;
  EngineScratch scratch_;
  LaunchLog log_;
  AsyncEngineClocks engines_;
  AccessAudit* audit_ = nullptr;
};

}  // namespace polyeval::simt
