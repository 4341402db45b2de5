// Zero-dependency metrics registry: monotonic counters, gauges, and
// fixed-bucket latency histograms with estimated p50/p95/p99.
//
// Design constraints (docs/OBSERVABILITY.md has the full rationale):
//  - Hot-path writes are a single relaxed atomic RMW; no locks, no
//    allocation.  Handles are stable references — resolve once (at solver
//    construction or via a function-local static), then increment freely.
//  - The registry is process-global and additive across solver runs; per-run
//    attribution stays in the existing value types (graph::FlowStats,
//    core::SolveResult, core::StreamStats), which act as *views* over the
//    same events.
//  - Compiling with REPFLOW_OBS_DISABLED turns every recording call into an
//    empty inline function (no atomics, no clock reads) while keeping all
//    types and the snapshot/export API source-compatible.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/thread_annotations.h"

namespace repflow::obs {

/// Order statistics of one histogram, estimated from its buckets.  Each
/// percentile linearly interpolates the rank position inside the bucket
/// containing it (clamped to the exact observed min/max), so the estimate
/// can err either way by at most one bucket width — half the worst-case
/// error of reporting the bucket upper bound, and exact whenever the
/// containing bucket holds a single repeated value.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every registered metric (see Registry::snapshot).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  /// Monotonic double sums (Accumulator values), e.g. `disk.<j>.busy_ms`.
  std::map<std::string, double> accumulations;
  struct HistogramData {
    HistogramSummary summary;
    std::vector<double> bucket_bounds;   // upper bound of each bucket (ms)
    std::vector<std::uint64_t> bucket_counts;
  };
  std::map<std::string, HistogramData> histograms;
};

/// Estimate the p-quantile (p in [0,1]) from bucket data: find the bucket
/// containing the rank, linearly interpolate the rank's position inside it,
/// and clamp into [min_clamp, max_clamp] (pass -inf/+inf to skip clamping;
/// the open-ended overflow bucket uses max_clamp — or twice its lower bound
/// when max_clamp is infinite — as its upper edge).  Works on plain
/// snapshot data, so it is shared by Histogram::summary() and the windowed
/// aggregator's per-window summaries.
double percentile_from_buckets(std::span<const double> bucket_bounds,
                               std::span<const std::uint64_t> bucket_counts,
                               double p, double min_clamp, double max_clamp);

#if !defined(REPFLOW_OBS_DISABLED)

/// Monotonic counter.  add() is wait-free; value() is a relaxed load.
class Counter {
 public:
  // mo: relaxed — independent monotonic tally; readers (snapshots) need no
  // cross-metric ordering, only eventual visibility of each atomic RMW.
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  // mo: relaxed — see add(); a snapshot is a statistical read, not an edge.
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // mo: relaxed — reset is only exact when writers are quiescent.
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge (a level, not an accumulation).
class Gauge {
 public:
  // mo: relaxed — last-write-wins level; no ordering contract with any
  // other memory, so relaxed store/load is the whole protocol.
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  // mo: relaxed — see set().
  double value() const { return value_.load(std::memory_order_relaxed); }
  // mo: relaxed — see set().
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Monotonic double sum: a Counter for fractional quantities (milliseconds
/// of busy time, bytes-as-doubles).  add() is one relaxed fetch_add; the
/// windowed aggregator turns deltas into rates, so e.g. the per-disk
/// `disk.<j>.busy_ms` series yields utilization as rate/1000.
class Accumulator {
 public:
  // mo: relaxed — same contract as Counter::add (monotonic sum, no edges).
  void add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  // mo: relaxed — statistical snapshot read.
  double value() const { return value_.load(std::memory_order_relaxed); }
  // mo: relaxed — reset is only exact when writers are quiescent.
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram (milliseconds).  Buckets are geometric:
/// bucket i covers (kFirstBoundMs * 2^(i-1), kFirstBoundMs * 2^i], with an
/// underflow bucket below kFirstBoundMs and an overflow bucket at the top.
/// observe() is two relaxed RMWs plus two CAS loops for min/max.
class Histogram {
 public:
  static constexpr int kBucketCount = 28;       // 1us .. ~67s, then overflow
  static constexpr double kFirstBoundMs = 1e-3; // 1 microsecond

  void observe(double value_ms);
  /// Bulk fold: the same bucket, count, min and max as `n` observe(value_ms)
  /// calls, and sum += n * value_ms, for the cost of one.  Lets a kernel
  /// tally a value distribution in plain locals and publish it once per
  /// solve instead of paying the atomics per event.  n == 0 is a no-op.
  void observe_n(double value_ms, std::uint64_t n);
  HistogramSummary summary() const;
  void reset();

  /// Upper bound of bucket `i` in ms (+inf for the overflow bucket).
  static double bucket_bound(int i);
  // mo: relaxed — bucket tallies are independent monotonic counters; a
  // snapshot may tear across buckets, which summary() tolerates by design.
  std::uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Named metric registry.  Lookup takes a mutex; returned references stay
/// valid for the registry's lifetime, so resolve handles once and cache
/// them.  mutex_ guards the four name maps (the metric objects themselves
/// are internally atomic and are handed out as unguarded references).
class Registry {
 public:
  /// The process-wide registry used by the solvers and exporters.
  static Registry& global();

  Counter& counter(std::string_view name) REPFLOW_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) REPFLOW_EXCLUDES(mutex_);
  Accumulator& accumulator(std::string_view name) REPFLOW_EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name) REPFLOW_EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const REPFLOW_EXCLUDES(mutex_);

  /// Zero every metric's value.  Names and handles stay registered (and
  /// valid); only the accumulated data is cleared.
  void reset_values() REPFLOW_EXCLUDES(mutex_);

 private:
  mutable support::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      REPFLOW_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      REPFLOW_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Accumulator>, std::less<>>
      accumulators_ REPFLOW_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      REPFLOW_GUARDED_BY(mutex_);
};

/// RAII latency sample: observes the enclosing scope's wall time into a
/// histogram.  Unlike ScopedSpan this is always on (two steady_clock reads);
/// use it at run granularity, not per-operation.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatency() {
    histogram_.observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

#else  // REPFLOW_OBS_DISABLED — every recording call compiles to nothing.

class Counter {
 public:
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
  void reset() {}
};

class Gauge {
 public:
  void set(double) {}
  double value() const { return 0.0; }
  void reset() {}
};

class Accumulator {
 public:
  void add(double) {}
  double value() const { return 0.0; }
  void reset() {}
};

class Histogram {
 public:
  static constexpr int kBucketCount = 0;
  static constexpr double kFirstBoundMs = 0.0;
  void observe(double) {}
  void observe_n(double, std::uint64_t) {}
  HistogramSummary summary() const { return {}; }
  void reset() {}
  static double bucket_bound(int) { return 0.0; }
  std::uint64_t bucket_count(int) const { return 0; }
};

class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram&) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
};

class Registry {
 public:
  static Registry& global();
  Counter& counter(std::string_view) { return counter_; }
  Gauge& gauge(std::string_view) { return gauge_; }
  Accumulator& accumulator(std::string_view) { return accumulator_; }
  Histogram& histogram(std::string_view) { return histogram_; }
  MetricsSnapshot snapshot() const { return {}; }
  void reset_values() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Accumulator accumulator_;
  Histogram histogram_;
};

#endif  // REPFLOW_OBS_DISABLED

}  // namespace repflow::obs
