// Instrument bundles for the serving layer (execution policy + query
// router).  The serving spine records a metric on every query decision, so
// the handles are resolved once per process and cached here — the hot path
// never takes the registry mutex.  The metric names are part of the
// observability contract (docs/OBSERVABILITY.md):
//
//   policy.decisions            counter  every ExecutionPolicy selection
//   policy.pinned_picks         counter  selections that ran the policy's
//                                        pinned kind
//   policy.degree_picks         counter  selections the degree rule made
//                                        (choose_solver)
//   router.admitted             counter  queries passed straight through
//   router.shed                 counter  queries dropped under overload
//   router.coalesced            counter  queries deferred into the pending
//                                        merge buffer
//   router.flushes              counter  merged problems submitted
//   router.age_flushes          counter  flushes forced because the oldest
//                                        buffered query aged past the
//                                        max_coalesce_age_ms bound
//   router.deduped              counter  buckets dropped from a merge
//                                        because an identical bucket was
//                                        already buffered
//   router.backlog_ms           histogram max outstanding X_j horizon seen
//                                        at each arrival
//   router.merged_batch         histogram queries per flushed merge
//   router.flush_age_ms         histogram age of the oldest buffered query
//                                        at each flush
//   router.pending              gauge    current pending (coalesced) queries
//
// Per-disk utilization accounting (the live series the workload-feedback
// placement direction consumes; recorded at the schedule-application seam
// in ExecutionContext and at CapacityIncrementer::bump):
//
//   disk.<j>.busy_ms          accumulator  service time scheduled onto disk
//                                          j (D_j + k*C_j per solve using it);
//                                          windowed rate / 1000 = utilization
//   disk.<j>.assigned_buckets counter      buckets the schedules assigned
//   disk.<j>.capacity_steps   counter      sink-capacity bumps the
//                                          integrated drivers granted disk j
//
// Under REPFLOW_OBS_DISABLED every handle degrades to the registry's inert
// stubs, so the bundles stay source-compatible with the kill switch.
#pragma once

#include <cstdint>

#if !defined(REPFLOW_OBS_DISABLED)
#include <atomic>
#include <deque>
#endif

#include "obs/metrics.h"
#include "support/thread_annotations.h"

namespace repflow::obs {

/// Cached handles for the ExecutionPolicy decision path.
struct PolicyInstruments {
  Counter& decisions;
  Counter& pinned_picks;
  Counter& degree_picks;

  /// Process-wide bundle (handles resolved on first use).
  static PolicyInstruments& global();
};

/// Cached handles for the QueryRouter admission path.
struct RouterInstruments {
  Counter& admitted;
  Counter& shed;
  Counter& coalesced;
  Counter& flushes;
  Counter& age_flushes;
  Counter& deduped;
  Histogram& backlog_ms;
  Histogram& merged_batch;
  Histogram& flush_age_ms;
  Gauge& pending;

  /// Process-wide bundle (handles resolved on first use).
  static RouterInstruments& global();
};

/// Cached handles for one disk's utilization series.
struct DiskInstrument {
  Accumulator& busy_ms;
  Counter& assigned_buckets;
  Counter& capacity_steps;
};

#if !defined(REPFLOW_OBS_DISABLED)

/// Lazily resolved per-disk bundles with a lock-free steady-state read
/// path: the first touch of a disk id takes a mutex and registers the
/// `disk.<j>.*` metrics; every later touch is one acquire load.  Ids at or
/// beyond kMaxTracked share one `disk.overflow.*` bundle so a pathological
/// disk count cannot grow the registry without bound.
class DiskInstruments {
 public:
  static constexpr std::int32_t kMaxTracked = 512;

  static DiskInstruments& global();

  DiskInstrument& disk(std::int32_t j) REPFLOW_EXCLUDES(mutex_) {
    const std::size_t idx =
        j >= 0 && j < kMaxTracked ? static_cast<std::size_t>(j)
                                  : static_cast<std::size_t>(kMaxTracked);
    // mo: acquire — pairs with the release store in resolve(); observing a
    // non-null slot must also make the pointee's construction visible.
    DiskInstrument* slot = slots_[idx].load(std::memory_order_acquire);
    if (slot != nullptr) return *slot;
    return resolve(idx);
  }

 private:
  DiskInstrument& resolve(std::size_t idx) REPFLOW_EXCLUDES(mutex_);

  std::atomic<DiskInstrument*> slots_[kMaxTracked + 1] = {};
  // mutex_ serializes first-touch registration; owned_ grows only under it
  // (compile-time checked).  The published pointers themselves are read
  // lock-free through slots_.
  support::Mutex mutex_;
  std::deque<DiskInstrument> owned_ REPFLOW_GUARDED_BY(mutex_);  // stable addresses
};

#else  // REPFLOW_OBS_DISABLED

class DiskInstruments {
 public:
  static constexpr std::int32_t kMaxTracked = 0;
  static DiskInstruments& global() {
    static DiskInstruments instruments;
    return instruments;
  }
  DiskInstrument& disk(std::int32_t) { return instrument_; }

 private:
  Accumulator busy_ms_;
  Counter assigned_buckets_;
  Counter capacity_steps_;
  DiskInstrument instrument_{busy_ms_, assigned_buckets_, capacity_steps_};
};

#endif  // REPFLOW_OBS_DISABLED

}  // namespace repflow::obs
