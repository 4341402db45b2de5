#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace repflow::obs {

double percentile_from_buckets(std::span<const double> bucket_bounds,
                               std::span<const std::uint64_t> bucket_counts,
                               double p, double min_clamp, double max_clamp) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucket_counts) total += c;
  if (total == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = bucket_counts[i];
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    const double lower = i == 0 ? 0.0 : bucket_bounds[i - 1];
    double upper = bucket_bounds[i];
    if (!std::isfinite(upper)) {
      // Overflow bucket: the observed max is the honest upper edge; with no
      // max available, continue the geometric progression.
      upper = std::isfinite(max_clamp) ? std::max(max_clamp, lower)
                                       : 2.0 * lower;
    }
    // The rank's fractional position inside the bucket, in (0, 1].
    const double pos = static_cast<double>(rank - cumulative) /
                       static_cast<double>(in_bucket);
    const double value = lower + pos * (upper - lower);
    return std::min(std::max(value, min_clamp), max_clamp);
  }
  return max_clamp;
}

#if !defined(REPFLOW_OBS_DISABLED)

namespace {

/// Atomic max/min for doubles via CAS (std::atomic<double> has no fetch_max).
// mo: relaxed — the min/max cells carry no other data; CAS atomicity alone
// guarantees the window only widens, and snapshot readers are statistical.
void atomic_store_max(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// mo: relaxed — same argument as atomic_store_max.
void atomic_store_min(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

int bucket_index(double value_ms) {
  if (!(value_ms > Histogram::kFirstBoundMs)) return 0;
  // Bucket i (i >= 1) covers (kFirstBoundMs * 2^(i-1), kFirstBoundMs * 2^i]:
  // the smallest i whose upper bound admits the value.
  const int i = static_cast<int>(std::ceil(
      std::log2(value_ms / Histogram::kFirstBoundMs) - 1e-9));
  return std::clamp(i, 1, Histogram::kBucketCount - 1);
}

}  // namespace

double Histogram::bucket_bound(int i) {
  if (i >= kBucketCount - 1) return std::numeric_limits<double>::infinity();
  return kFirstBoundMs * std::pow(2.0, i);
}

void Histogram::observe(double value_ms) { observe_n(value_ms, 1); }

void Histogram::observe_n(double value_ms, std::uint64_t n) {
  if (n == 0) return;
  // mo: relaxed — each cell is an independent tally; cross-cell skew is an
  // accepted property of lock-free snapshots (summary() may tear).
  buckets_[bucket_index(value_ms)].fetch_add(n, std::memory_order_relaxed);
  const std::uint64_t seen = count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(value_ms * static_cast<double>(n),
                 std::memory_order_relaxed);
  if (seen == 0) {
    // First observation initializes min/max; racing observers fix it up via
    // the CAS loops below, so the window only widens, never shrinks.
    // mo: relaxed — the CAS fix-up below makes ordering irrelevant here.
    min_.store(value_ms, std::memory_order_relaxed);
    max_.store(value_ms, std::memory_order_relaxed);
  }
  atomic_store_min(min_, value_ms);
  atomic_store_max(max_, value_ms);
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  // mo: relaxed — statistical snapshot; fields may be mutually skewed by
  // in-flight observe() calls, which the estimator tolerates by design.
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  // mo: relaxed — same snapshot contract as the loads above.
  s.max = max_.load(std::memory_order_relaxed);
  s.mean = s.sum / static_cast<double>(s.count);

  // Copy the live bucket counts once, then share the interpolating
  // estimator with the windowed aggregator.  Clamping into the exact
  // observed [min, max] makes single-value histograms report exactly.
  double bounds[kBucketCount];
  std::uint64_t counts[kBucketCount];
  for (int i = 0; i < kBucketCount; ++i) {
    bounds[i] = bucket_bound(i);
    // mo: relaxed — see the snapshot note at the top of summary().
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.p50 = percentile_from_buckets(bounds, counts, 0.50, s.min, s.max);
  s.p95 = percentile_from_buckets(bounds, counts, 0.95, s.min, s.max);
  s.p99 = percentile_from_buckets(bounds, counts, 0.99, s.min, s.max);
  return s;
}

void Histogram::reset() {
  // mo: relaxed — reset is only exact when observers are quiescent (the
  // same contract as Counter::reset); no edges to preserve.
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  // mo: relaxed — same quiescent-reset contract as the stores above.
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  support::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  support::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Accumulator& Registry::accumulator(std::string_view name) {
  support::MutexLock lock(mutex_);
  auto it = accumulators_.find(name);
  if (it == accumulators_.end()) {
    it = accumulators_
             .emplace(std::string(name), std::make_unique<Accumulator>())
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  support::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  support::MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, accum] : accumulators_) {
    snap.accumulations[name] = accum->value();
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.summary = hist->summary();
    data.bucket_bounds.reserve(Histogram::kBucketCount);
    data.bucket_counts.reserve(Histogram::kBucketCount);
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      data.bucket_bounds.push_back(Histogram::bucket_bound(i));
      data.bucket_counts.push_back(hist->bucket_count(i));
    }
    snap.histograms[name] = std::move(data);
  }
  return snap;
}

void Registry::reset_values() {
  support::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, accum] : accumulators_) accum->reset();
  for (auto& [name, hist] : histograms_) hist->reset();
}

#else

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

#endif  // REPFLOW_OBS_DISABLED

}  // namespace repflow::obs
