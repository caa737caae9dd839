#pragma once

/// \file memory.hpp
/// Device memory spaces of the simulator.
///
/// GlobalMemory hands out typed buffers with contiguous *device addresses*
/// so the engine can group warp accesses into 128-byte transactions (the
/// coalescing analysis of sections 3.1/3.3).  ConstantMemory enforces the
/// 64 KB budget whose exhaustion ends the paper's tables at 1536 monomials.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace polyeval::simt {

class DeviceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Global-memory exhaustion.
class OutOfMemory : public DeviceError {
 public:
  using DeviceError::DeviceError;
};

/// Constant-memory exhaustion -- the failure mode of section 4's attempt
/// to run 2048 monomials.
class ConstantMemoryOverflow : public DeviceError {
 public:
  using DeviceError::DeviceError;
};

/// Invalid launch configuration.
class LaunchError : public DeviceError {
 public:
  using DeviceError::DeviceError;
};

namespace detail {

/// One allocation: storage plus its simulated device address range.
struct Allocation {
  std::string name;
  std::uint64_t address = 0;
  std::size_t bytes = 0;
  std::unique_ptr<std::byte[]> storage;
};

}  // namespace detail

template <class T>
class GlobalBuffer;
template <class T>
class ConstantBuffer;

/// Arena of device global memory.  Allocations are aligned to 256 bytes
/// (cudaMalloc alignment), so a buffer's coalescing behaviour depends only
/// on the access pattern, never on placement luck.
class GlobalMemory {
 public:
  /// Every allocation starts on a multiple of this many bytes.
  static constexpr std::uint64_t kAlignment = 256;

  explicit GlobalMemory(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  template <class T>
  [[nodiscard]] GlobalBuffer<T> allocate(std::size_t count, std::string name);

  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Resolve a device address to its owning allocation, or nullptr when
  /// it falls in alignment padding or unmapped space.  Addresses are
  /// handed out monotonically, so this is a binary search -- cheap
  /// enough for the auditor to name every finding's buffer.
  [[nodiscard]] const detail::Allocation* find(std::uint64_t address) const noexcept;

  /// Release every allocation (buffers become dangling, as after device
  /// reset; only used between experiments).
  void reset() {
    allocations_.clear();
    used_ = 0;
    next_address_ = kBaseAddress;
  }

 private:
  static constexpr std::uint64_t kBaseAddress = 0x700000000ull;

  detail::Allocation* allocate_raw(std::size_t bytes, std::string name);

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::uint64_t next_address_ = kBaseAddress;
  std::vector<std::unique_ptr<detail::Allocation>> allocations_;
};

/// Typed view of a global-memory allocation.  Element access from kernels
/// goes through ThreadContext (which records transactions); host access
/// goes through Device::upload/download (which records PCIe traffic).
template <class T>
class GlobalBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "device buffers require trivially copyable element types");

 public:
  GlobalBuffer() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool valid() const noexcept { return alloc_ != nullptr; }
  [[nodiscard]] std::uint64_t device_address() const noexcept { return alloc_->address; }
  [[nodiscard]] const std::string& name() const noexcept { return alloc_->name; }

  /// Raw storage; reserved for the engine and the Device transfer API.
  [[nodiscard]] T* raw() const noexcept {
    return reinterpret_cast<T*>(alloc_->storage.get());
  }

 private:
  friend class GlobalMemory;
  explicit GlobalBuffer(detail::Allocation* alloc, std::size_t count)
      : alloc_(alloc), count_(count) {}

  detail::Allocation* alloc_ = nullptr;
  std::size_t count_ = 0;
};

template <class T>
GlobalBuffer<T> GlobalMemory::allocate(std::size_t count, std::string name) {
  return GlobalBuffer<T>(allocate_raw(count * sizeof(T), std::move(name)), count);
}

/// The 64 KB constant-memory space.  Reads are served by the constant
/// cache with broadcast, so only read counts (not transactions) are kept.
class ConstantMemory {
 public:
  explicit ConstantMemory(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  template <class T>
  [[nodiscard]] ConstantBuffer<T> allocate(std::size_t count, std::string name);

  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return capacity_ - used_; }

  void reset() {
    allocations_.clear();
    used_ = 0;
  }

 private:
  detail::Allocation* allocate_raw(std::size_t bytes, std::string name);

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::vector<std::unique_ptr<detail::Allocation>> allocations_;
};

/// Typed view of a constant-memory allocation.
template <class T>
class ConstantBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ConstantBuffer() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool valid() const noexcept { return alloc_ != nullptr; }
  [[nodiscard]] const std::string& name() const noexcept { return alloc_->name; }
  [[nodiscard]] T* raw() const noexcept {
    return reinterpret_cast<T*>(alloc_->storage.get());
  }

 private:
  friend class ConstantMemory;
  explicit ConstantBuffer(detail::Allocation* alloc, std::size_t count)
      : alloc_(alloc), count_(count) {}

  detail::Allocation* alloc_ = nullptr;
  std::size_t count_ = 0;
};

template <class T>
ConstantBuffer<T> ConstantMemory::allocate(std::size_t count, std::string name) {
  return ConstantBuffer<T>(allocate_raw(count * sizeof(T), std::move(name)), count);
}

/// Type-erased host<->device copy: the unit of asynchronous transfer the
/// stream subsystem (stream.hpp) issues.  Built from a typed buffer and
/// a host span up front -- so a stream can hold a uniform command record
/// without templates or allocation -- and executed as one memcpy when
/// the command runs.  The host span must stay valid until the copy has
/// executed (for eager streams, until the enqueue call returns; the
/// cudaMemcpyAsync staging-buffer contract).
struct CopyCommand {
  std::byte* dst = nullptr;
  const std::byte* src = nullptr;
  std::size_t bytes = 0;
  bool to_device = false;
  /// Device address of the buffer side, so an attached access auditor
  /// can register h2d copies as host initialization.
  std::uint64_t device_address = 0;

  template <class T>
  [[nodiscard]] static CopyCommand h2d(const GlobalBuffer<T>& dst,
                                       std::span<const T> src) {
    if (src.size() > dst.size())
      throw DeviceError("CopyCommand: host range exceeds device buffer " +
                        dst.name());
    return {reinterpret_cast<std::byte*>(dst.raw()),
            reinterpret_cast<const std::byte*>(src.data()), src.size_bytes(), true,
            dst.device_address()};
  }

  template <class T>
  [[nodiscard]] static CopyCommand d2h(const GlobalBuffer<T>& src,
                                       std::span<T> dst) {
    if (dst.size() > src.size())
      throw DeviceError("CopyCommand: host range exceeds device buffer " +
                        src.name());
    return {reinterpret_cast<std::byte*>(dst.data()),
            reinterpret_cast<const std::byte*>(src.raw()), dst.size_bytes(), false,
            src.device_address()};
  }

  void run() const {
    if (bytes > 0) std::memcpy(dst, src, bytes);
  }
};

}  // namespace polyeval::simt
