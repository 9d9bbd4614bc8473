#include "util/scratch_arena.h"

#include "telemetry/metrics.h"

namespace isobar {

size_t ScratchArena::TotalCapacityBytes() const {
  size_t total = 0;
  for (const Bytes& buffer : buffers_) total += buffer.capacity();
  return total;
}

void ScratchArena::Trim() {
  for (Bytes& buffer : buffers_) {
    Bytes().swap(buffer);
  }
}

void ScratchArena::PublishStats() const {
  if (!telemetry::Enabled()) return;
  static telemetry::Histogram* const slots[kSlotCount] = {
      &telemetry::GetHistogram("arena.gathered.capacity_bytes"),
      &telemetry::GetHistogram("arena.raw.capacity_bytes"),
      &telemetry::GetHistogram("arena.compressed.capacity_bytes"),
      &telemetry::GetHistogram("arena.decoded.capacity_bytes"),
      &telemetry::GetHistogram("arena.window.capacity_bytes"),
  };
  for (size_t s = 0; s < kSlotCount; ++s) {
    slots[s]->Observe(buffers_[s].capacity());
  }
}

ScratchArena& ScratchArena::ThreadLocal() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace isobar
