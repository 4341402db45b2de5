// Shared pieces of the serving-spine benchmark: the per-call recorder with
// its interleaved calibration, the workload interface, and the per-layer
// metric sink.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

/// Heap allocations made by this process (counted by the benchmark's own
/// operator new, main.cpp).
extern std::atomic<std::uint64_t> g_allocations;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// A calibration point: the median of three passes of the calibration
/// kernel (calib.cpp), in microseconds.
double calibration_point_us();

/// The calibration point of the reference host.  Reported times are scaled
/// by kReferenceCalibUs / (calibration around the call), i.e. expressed at
/// the reference host's speed, so a host that runs slower for a while
/// slows the calibration kernel and the program alike and the ratio holds.
inline constexpr double kReferenceCalibUs = 140.0;

/// Times every front-door call and takes a calibration point every
/// `kCalibEveryNs` of wall time, so each call knows how fast the host ran
/// around it.
class Recorder {
 public:
  static constexpr std::int64_t kCalibEveryNs = 25'000'000;

  explicit Recorder(bool keep = true);

  template <typename Fn>
  void time(Fn&& fn) {
    const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
    const std::int64_t t0 = wall_ns();
    {
      repflow::obs::ScopedSpan span("bench.call");
      fn();
    }
    const std::int64_t t1 = wall_ns();
    allocations_ += g_allocations.load(std::memory_order_relaxed) - a0;
    ++ops_;
    if (keep_) {
      op_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
      op_point_.push_back(static_cast<std::uint32_t>(points_.size() - 1));
    }
    busy_ns_ += t1 - t0;
    if (t1 - last_calib_ns_ > kCalibEveryNs) calibrate();
  }

  /// Take a calibration point now.
  void calibrate();

  std::int64_t ops() const { return ops_; }
  std::int64_t busy_ns() const { return busy_ns_; }
  /// Wall time spent in calibration points (not program work).
  std::int64_t calib_ns() const { return calib_ns_; }
  std::uint64_t allocations() const { return allocations_; }
  const std::vector<double>& op_us() const { return op_us_; }
  const std::vector<double>& calib_points() const { return points_; }

  /// Per-call times scaled to the reference host: each call's time times
  /// kReferenceCalibUs over the mean of the calibration points before and
  /// after it.
  std::vector<double> scaled_op_us() const;

 private:
  bool keep_;
  std::int64_t ops_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t calib_ns_ = 0;
  std::uint64_t allocations_ = 0;
  std::int64_t last_calib_ns_ = 0;
  std::vector<double> op_us_;
  std::vector<std::uint32_t> op_point_;
  std::vector<double> points_;
};

/// Per-layer metric values by name (units come from main.cpp's catalog).
using LayerMap = std::map<std::string, double>;

/// One workload: seeded inputs, a round of front-door calls, and the oracle
/// check of that round's outputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Make the inputs from `seed`, build the serving objects and run one
  /// warm-up round (its outputs become the round checked first).
  virtual void setup(std::uint64_t seed) = 0;
  /// One round: the same front-door calls every time, each timed by `rec`.
  virtual void run_round(Recorder& rec) = 0;
  /// Check the last round's outputs.  The first call checks every output
  /// with the oracle and keeps them as the reference; later calls compare
  /// against it and re-run the oracle on any round that differs.  Returns
  /// an empty string or the first violation.
  virtual std::string verify_round() = 0;

  virtual std::int64_t queries_per_round() const = 0;
  /// Model response time (ms) of every query in the checked round.
  virtual const std::vector<double>& model_responses() const = 0;

  /// Per-layer measurements that need the workload's own inputs (traced
  /// run only; the caller adds span, registry and timing metrics).
  /// `round_busy_us` is the call time of one untraced round and
  /// `cpu_per_wall` the process CPU / wall ratio over the untraced calls.
  virtual void layer_metrics(LayerMap& out, double round_busy_us,
                             double cpu_per_wall) = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const std::string& name);

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
/// Harrell-Davis quantile: a Beta-weighted mean of all order statistics.
/// Used for model response times, whose values come in runs of exact ties.
double harrell_davis(std::vector<double> v, double q);

}  // namespace perfbench
