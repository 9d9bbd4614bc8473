#ifndef ISOBAR_UTIL_SCRATCH_ARENA_H_
#define ISOBAR_UTIL_SCRATCH_ARENA_H_

#include <array>
#include <cstddef>

#include "util/bytes.h"

namespace isobar {

/// Reusable per-worker scratch buffers for the chunk pipeline.
///
/// Every chunk needs the same short-lived temporaries — the gathered
/// compressible bytes, the raw noise section, the solver output, and the
/// decode staging buffer. Allocating them fresh per chunk costs a malloc +
/// a value-initializing resize (a full zero-fill pass) each time. An arena
/// keeps one buffer per role; after the first chunk every buffer has
/// reached steady-state capacity, so reuse costs only a size update and
/// the zero-fill disappears entirely.
///
/// Arenas are not thread-safe: each pipeline worker uses its own, usually
/// via ThreadLocal(). Memory is bounded by the largest chunk the worker
/// has seen (a few buffers of roughly chunk size) and is released when the
/// worker thread exits or Trim() is called.
class ScratchArena {
 public:
  enum Slot : size_t {
    kGathered = 0,  ///< Compressible columns handed to the solver.
    kRaw,           ///< Incompressible (noise) columns, stored verbatim.
    kCompressed,    ///< Solver output.
    kDecoded,       ///< Decode-side solver output staging.
    kWindow,        ///< A decoded chunk only partly inside a range read.
    kSlotCount,
  };

  /// The reusable buffer for `slot`. Callers size it themselves (codecs
  /// and transposes all clear/resize their outputs); contents left over
  /// from a previous chunk are meaningless but harmless.
  Bytes& buffer(Slot slot) { return buffers_[slot]; }

  /// Sum of all slot capacities — what the arena currently pins.
  size_t TotalCapacityBytes() const;

  /// Releases every slot's memory (capacity drops to zero).
  void Trim();

  /// Observes each slot's current capacity into the global histograms
  /// `arena.<slot>.capacity_bytes` (the histogram max is the process-wide
  /// slot high-water across all workers). The pipeline calls this once
  /// per finished chunk; a no-op branch when telemetry is disabled.
  void PublishStats() const;

  /// The calling thread's arena. Pipeline workers each see their own;
  /// the instance lives until the thread exits.
  static ScratchArena& ThreadLocal();

 private:
  std::array<Bytes, kSlotCount> buffers_;
};

}  // namespace isobar

#endif  // ISOBAR_UTIL_SCRATCH_ARENA_H_
