#pragma once
// Unified-shared-memory allocator model.
//
// Mirrors the sycl::malloc_host / malloc_device / malloc_shared API the
// paper's microbenchmarks use: allocations are tracked against the host
// DDR or a subdevice's HBM capacity (so workloads that would not fit —
// e.g. CloverLeaf's 47 GB grid on a 64 GB stack — are checked for real),
// and each carries the placement information transfers need.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_spec.hpp"

namespace pvc::rt {

/// USM placement kinds (Level-Zero nomenclature, paper ref [28]).
enum class MemKind { Host, Device, Shared };

[[nodiscard]] std::string mem_kind_name(MemKind k);

class MemoryManager;

/// RAII handle to one allocation.  Move-only; releases its reservation
/// on destruction.
class Buffer {
 public:
  Buffer() = default;
  Buffer(Buffer&& other) noexcept;
  Buffer& operator=(Buffer&& other) noexcept;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer();

  [[nodiscard]] bool valid() const noexcept { return manager_ != nullptr; }
  [[nodiscard]] double bytes() const noexcept { return bytes_; }
  [[nodiscard]] MemKind kind() const noexcept { return kind_; }
  /// Owning subdevice (flat index); -1 for host allocations.
  [[nodiscard]] int device() const noexcept { return device_; }

  /// Releases the reservation early.
  void reset();

 private:
  friend class MemoryManager;
  Buffer(MemoryManager* manager, MemKind kind, int device, double bytes)
      : manager_(manager), kind_(kind), device_(device), bytes_(bytes) {}

  MemoryManager* manager_ = nullptr;
  MemKind kind_ = MemKind::Host;
  int device_ = -1;
  double bytes_ = 0.0;
};

/// Capacity accounting for host DDR plus each subdevice's HBM.
class MemoryManager {
 public:
  explicit MemoryManager(const arch::NodeSpec& node);
  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Allocates `bytes` of `kind` memory.  `device` is the flat subdevice
  /// index for Device/Shared kinds (Shared reserves on the device, where
  /// pages migrate under use); ignored for Host.  Throws pvc::Error with
  /// ErrorCode::OutOfHostMemory / OutOfDeviceMemory when the pool would
  /// overflow.
  [[nodiscard]] Buffer allocate(MemKind kind, int device, double bytes);

  [[nodiscard]] double host_used() const noexcept { return host_used_; }
  [[nodiscard]] double host_capacity() const noexcept {
    return host_capacity_;
  }
  [[nodiscard]] double device_used(int device) const;
  [[nodiscard]] double device_capacity() const noexcept {
    return device_capacity_;
  }
  [[nodiscard]] int device_count() const noexcept {
    return static_cast<int>(device_used_.size());
  }

 private:
  friend class Buffer;
  void release(MemKind kind, int device, double bytes) noexcept;

  double host_capacity_;
  double device_capacity_;
  double host_used_ = 0.0;
  std::vector<double> device_used_;
};

}  // namespace pvc::rt
