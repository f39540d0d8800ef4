#include "runtime/memory.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"

namespace pvc::rt {

namespace {

struct MemMetrics {
  obs::Counter* allocations;
  obs::Counter* bytes_by_kind[3];  // indexed by MemKind
};

MemMetrics& mem_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local MemMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    MemMetrics mm;
    mm.allocations = &reg.counter("mem.allocations", "allocations",
                                  "USM allocations granted");
    for (MemKind k : {MemKind::Host, MemKind::Device, MemKind::Shared}) {
      mm.bytes_by_kind[static_cast<int>(k)] = &reg.counter(
          "mem." + mem_kind_name(k) + ".bytes_allocated", "bytes",
          "USM bytes granted as malloc_" + mem_kind_name(k));
    }
    return mm;
  }();
  return m;
}

}  // namespace

std::string mem_kind_name(MemKind k) {
  switch (k) {
    case MemKind::Host:
      return "host";
    case MemKind::Device:
      return "device";
    case MemKind::Shared:
      return "shared";
  }
  return "?";
}

Buffer::Buffer(Buffer&& other) noexcept
    : manager_(other.manager_),
      kind_(other.kind_),
      device_(other.device_),
      bytes_(other.bytes_) {
  other.manager_ = nullptr;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    reset();
    manager_ = other.manager_;
    kind_ = other.kind_;
    device_ = other.device_;
    bytes_ = other.bytes_;
    other.manager_ = nullptr;
  }
  return *this;
}

Buffer::~Buffer() { reset(); }

void Buffer::reset() {
  if (manager_ != nullptr) {
    manager_->release(kind_, device_, bytes_);
    manager_ = nullptr;
  }
}

MemoryManager::MemoryManager(const arch::NodeSpec& node)
    : host_capacity_(node.cpu.ddr_capacity_bytes),
      device_capacity_(node.card.subdevice.hbm.capacity_bytes),
      device_used_(static_cast<std::size_t>(node.total_subdevices()), 0.0) {}

Buffer MemoryManager::allocate(MemKind kind, int device, double bytes) {
  ensure(bytes > 0.0, "MemoryManager: allocation size must be positive");
  auto& metrics = mem_metrics();
  const ErrorCode oom_code = kind == MemKind::Host
                                 ? ErrorCode::OutOfHostMemory
                                 : ErrorCode::OutOfDeviceMemory;
  metrics.allocations->add(1);
  metrics.bytes_by_kind[static_cast<int>(kind)]->add(
      static_cast<std::uint64_t>(std::llround(bytes)));
  if (kind == MemKind::Host) {
    ensure(host_used_ + bytes <= host_capacity_, oom_code,
           "MemoryManager: host DDR exhausted (" +
               format_bytes_si(host_used_ + bytes) + " > " +
               format_bytes_si(host_capacity_) + ")");
    host_used_ += bytes;
    return Buffer(this, kind, -1, bytes);
  }
  ensure(device >= 0 && device < device_count(),
         "MemoryManager: bad device index " + std::to_string(device));
  auto& used = device_used_[static_cast<std::size_t>(device)];
  ensure(used + bytes <= device_capacity_, oom_code,
         "MemoryManager: HBM exhausted on subdevice " +
             std::to_string(device) + " (" + format_bytes_si(used + bytes) +
             " > " + format_bytes_si(device_capacity_) + ")");
  used += bytes;
  return Buffer(this, kind, device, bytes);
}

double MemoryManager::device_used(int device) const {
  ensure(device >= 0 && device < device_count(),
         "MemoryManager: bad device index");
  return device_used_[static_cast<std::size_t>(device)];
}

void MemoryManager::release(MemKind kind, int device, double bytes) noexcept {
  if (kind == MemKind::Host) {
    host_used_ = std::max(0.0, host_used_ - bytes);
    return;
  }
  if (device >= 0 && device < device_count()) {
    auto& used = device_used_[static_cast<std::size_t>(device)];
    used = std::max(0.0, used - bytes);
  }
}

}  // namespace pvc::rt
