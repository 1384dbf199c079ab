//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generational-heap model, the substitute for HotSpot's GC in
/// the paper's Figures 5 and 6.
///
/// The paper's mechanism is lifetime-based: a tree node created by one
/// miniphase and replaced by a later miniphase *in the same traversal* dies
/// while still in the young generation, whereas under the megaphase scheme
/// the node stays live until the next whole-tree traversal, by which time
/// minor collections have promoted it to the old generation.
///
/// Tree nodes in this project are reference counted (immutability rules out
/// cycles), which gives exact death times. The model keeps a monotonically
/// increasing allocation clock; a simulated minor GC happens every
/// YoungGenBytes of allocation, and an object is counted as *tenured* when
/// it stays live across at least TenureThreshold minor collections.
///
/// Real storage vs. simulated clock: the accounting above is what the
/// Figure 5/6 benchmarks read, and it is computed purely from the charged
/// byte counts — it never observes addresses. The *real* storage behind
/// each allocation is served by a size-class SlabAllocator (pool pages +
/// per-class free lists), cutting system-allocator traffic from one call
/// per node to one call per 64 KiB page. CompilerOptions::SlabHeap toggles
/// the backend; the simulated statistics are byte-identical either way
/// (asserted by the slab-invariance test).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_MEMSIM_MANAGEDHEAP_H
#define MPC_MEMSIM_MANAGEDHEAP_H

#include "memsim/SlabAllocator.h"

#include <cstdint>
#include <cstdlib>

namespace mpc {

/// Aggregate statistics of a ManagedHeap, all in bytes / object counts.
struct HeapStats {
  uint64_t AllocatedBytes = 0;
  uint64_t AllocatedObjects = 0;
  uint64_t TenuredBytes = 0;
  uint64_t TenuredObjects = 0;
  /// Of the tenured objects, those whose PROMOTION (threshold crossing)
  /// happened before the marked boundary — e.g. frontend-built trees that
  /// die during the transformation pipeline. HotSpot promotes at survival
  /// time, so a per-stage measurement must attribute these to the stage
  /// where the promotion happened, not where the death happened.
  uint64_t TenuredBeforeBoundaryBytes = 0;
  uint64_t TenuredBeforeBoundaryObjects = 0;
  uint64_t FreedBytes = 0;
  uint64_t FreedObjects = 0;
  uint64_t MinorGCs = 0;
  uint64_t LiveBytes = 0;
  uint64_t PeakLiveBytes = 0;
};

/// The generational accounting heap. Real storage comes from the slab
/// backend (or the system allocator when the slab is disabled); what this
/// class adds is the allocation clock and promotion accounting.
class ManagedHeap {
public:
  /// \p YoungGenBytes   size of the simulated young generation;
  /// \p TenureThreshold number of survived minor GCs before promotion.
  explicit ManagedHeap(uint64_t YoungGenBytes = 64ull << 20,
                       unsigned TenureThreshold = 1)
      : YoungBytes(YoungGenBytes), Threshold(TenureThreshold) {}

  /// Allocates \p Size bytes and advances the allocation clock. Returns the
  /// storage; the current clock must be remembered by the object (trees keep
  /// it in their header) and passed back to deallocate().
  void *allocate(size_t Size, uint64_t &BirthClockOut) {
    return allocate(Size, Size, BirthClockOut);
  }

  /// Like allocate(), but charges \p ChargeBytes to the allocation clock
  /// while backing the object with \p MallocBytes of real storage. Tree
  /// nodes use this to account for their child-list cells (which on the
  /// JVM are separate cons-cell objects) in one charge.
  void *allocate(size_t MallocBytes, size_t ChargeBytes,
                 uint64_t &BirthClockOut) {
    // The birth clock is taken AFTER charging the allocation: an object
    // cannot survive the minor GC triggered by its own allocation.
    Clock += ChargeBytes;
    BirthClockOut = Clock;
    Stats.AllocatedBytes += ChargeBytes;
    Stats.AllocatedObjects += 1;
    Stats.LiveBytes += ChargeBytes;
    if (Stats.LiveBytes > Stats.PeakLiveBytes)
      Stats.PeakLiveBytes = Stats.LiveBytes;
    return Slab.allocate(MallocBytes);
  }

  /// Frees storage allocated with the symmetric allocate() (real storage
  /// equals the charged bytes).
  void deallocate(void *Ptr, size_t Size, uint64_t BirthClock) {
    deallocate(Ptr, Size, Size, BirthClock);
  }

  /// Frees storage allocated with the asymmetric allocate(): \p MallocBytes
  /// of real storage is returned to the backend while \p ChargeBytes is
  /// retired from the simulated clock, recording whether the object's
  /// lifetime spanned enough minor-GC boundaries to count as tenured.
  void deallocate(void *Ptr, size_t MallocBytes, size_t ChargeBytes,
                  uint64_t BirthClock) {
    Stats.FreedBytes += ChargeBytes;
    Stats.FreedObjects += 1;
    Stats.LiveBytes -= ChargeBytes;
    uint64_t BirthEpoch = BirthClock / YoungBytes;
    uint64_t DeathEpoch = Clock / YoungBytes;
    if (DeathEpoch - BirthEpoch >= Threshold) {
      Stats.TenuredBytes += ChargeBytes;
      Stats.TenuredObjects += 1;
      // Promotion happened at the first minor GC the object had survived
      // Threshold times — attribute it to the stage running then.
      uint64_t PromotionClock = (BirthEpoch + Threshold) * YoungBytes;
      if (HasBoundary && PromotionClock <= BoundaryClock) {
        Stats.TenuredBeforeBoundaryBytes += ChargeBytes;
        Stats.TenuredBeforeBoundaryObjects += 1;
      }
    }
    Slab.deallocate(Ptr, MallocBytes);
  }

  /// Raw storage from the slab backend, invisible to the simulated clock.
  /// Used for per-node auxiliary arrays (spilled child lists) whose JVM
  /// equivalent is already folded into the owning node's charge.
  void *rawAllocate(size_t Bytes) { return Slab.allocate(Bytes); }
  void rawDeallocate(void *Ptr, size_t Bytes) { Slab.deallocate(Ptr, Bytes); }

  /// Real-storage backend switch (CompilerOptions::SlabHeap). Only legal
  /// before the first allocation.
  void setSlabEnabled(bool E) { Slab.setEnabled(E); }
  bool slabEnabled() const { return Slab.enabled(); }

  /// Attaches the cross-context shared page pool (see PagePool.h). Only
  /// legal while the slab holds no pages.
  void setPagePool(PagePool *Pool) { Slab.setPagePool(Pool); }
  PagePool *pagePool() const { return Slab.pagePool(); }

  /// Backend counters: slab hits, pages mapped, system-allocator calls.
  const SlabAllocator::Stats &backendStats() const { return Slab.stats(); }

  /// Marks the current clock as a stage boundary (e.g. frontend ->
  /// transformations). Tenured objects promoted before this point are
  /// counted separately in TenuredBeforeBoundary*.
  void markBoundary() {
    HasBoundary = true;
    BoundaryClock = Clock;
  }

  /// Number of minor collections that have happened so far.
  uint64_t minorGCs() const { return Clock / YoungBytes; }

  const HeapStats &stats() const {
    Stats.MinorGCs = minorGCs();
    return Stats;
  }

  /// Resets the statistics and the allocation clock. Only valid when no
  /// objects are live (asserted by callers via stats().LiveBytes).
  void resetStats() {
    Stats = HeapStats();
    Clock = 0;
    HasBoundary = false;
    BoundaryClock = 0;
  }

  /// Reconfigures the generational geometry. Benchmarks size the young
  /// generation proportionally to the measured program (the paper's JVM
  /// heap is orders of magnitude larger than this harness's).
  void setGeometry(uint64_t YoungGenBytes, unsigned TenureThreshold) {
    YoungBytes = YoungGenBytes;
    Threshold = TenureThreshold;
  }

  uint64_t youngGenBytes() const { return YoungBytes; }
  unsigned tenureThreshold() const { return Threshold; }

private:
  uint64_t YoungBytes;
  unsigned Threshold;
  uint64_t Clock = 0;
  bool HasBoundary = false;
  uint64_t BoundaryClock = 0;
  mutable HeapStats Stats;
  SlabAllocator Slab;
};

} // namespace mpc

#endif // MPC_MEMSIM_MANAGEDHEAP_H
