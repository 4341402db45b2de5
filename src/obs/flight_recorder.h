// Per-query flight recorder: a fixed-size, lock-light ring buffer of the
// serving pipeline's decision events, keyed by a query id that travels
// admission -> policy decision -> solve -> schedule.
//
// Purpose: when one query blows its latency budget, "which solver ran and
// how long did each stage take *for that query*" is unanswerable from
// cumulative metrics.  The recorder keeps the last few thousand events of
// every query's chain; a budget breach copies the breaching query's chain
// into a bounded breach log (and `/flightrecorder` serves both).
//
// Write path (the only part touching hot code): one fetch_add to claim a
// slot plus a seqlock-stamped struct write — no locks, no allocation, ~the
// cost of a histogram observation.  Readers snapshot slots and drop torn
// ones, so a scrape never blocks a solve.
//
// Query-id propagation uses a thread-local ambient scope (QueryScope)
// rather than threading an id parameter through every solver signature:
// QueryRouter opens a scope per arrival; QueryStreamScheduler self-assigns
// an id when no scope is active (direct scheduler use); ExecutionContext
// tags its policy/solve events with whatever scope is current.  The seam is
// documented in DESIGN.md ("query-id propagation").
//
// Under REPFLOW_OBS_DISABLED everything collapses to inert inline stubs
// (ids are always 0, record() is a no-op, dumps are empty).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#if !defined(REPFLOW_OBS_DISABLED)
#include <atomic>
#include <chrono>
#endif

#include "support/thread_annotations.h"

namespace repflow::obs {

/// Pipeline stage of one flight event.
enum class FlightEventKind : std::uint8_t {
  kAdmit,     ///< router admitted the query (value = backlog_ms)
  kShed,      ///< router dropped the query (value = backlog_ms)
  kCoalesce,  ///< router parked the query in the merge buffer (value = backlog_ms)
  kFlush,     ///< merge buffer submitted (value = flush age ms, detail = batch)
  kPolicy,    ///< execution policy picked a solver (detail = SolverKind index)
  kSolve,     ///< solver finished (value = solve wall ms, detail = kind index)
  kSchedule,  ///< schedule applied (value = response_ms, detail = bottleneck disk)
  kBreach,    ///< response exceeded the latency budget (value = response_ms)
};

/// Stable short label ("admit", "solve", ...) for dumps.
const char* flight_event_kind_name(FlightEventKind kind);

/// One recorded event.
struct FlightEvent {
  std::uint64_t query_id = 0;
  std::uint64_t seq = 0;    ///< global record order (monotonic)
  double t_ms = 0.0;        ///< since recorder epoch (steady clock)
  double value = 0.0;       ///< kind-specific (see FlightEventKind)
  std::int32_t detail = 0;  ///< kind-specific (see FlightEventKind)
  FlightEventKind kind = FlightEventKind::kAdmit;
};

/// A budget breach: the breaching query's full event chain at breach time.
struct BreachDump {
  std::uint64_t query_id = 0;
  double response_ms = 0.0;
  double budget_ms = 0.0;
  std::vector<FlightEvent> chain;
};

#if !defined(REPFLOW_OBS_DISABLED)

/// The ambient query id + latency budget for the current thread.  id 0
/// means "no query in flight" (recorders skip tagging).
struct ActiveQuery {
  std::uint64_t id = 0;
  double budget_ms = 0.0;  ///< 0 or +inf = no budget
};

/// RAII ambient scope: nests and restores on destruction, so a router-owned
/// scope survives inner self-assigned ones.
class QueryScope {
 public:
  explicit QueryScope(std::uint64_t id, double budget_ms = 0.0);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  static ActiveQuery current();

 private:
  ActiveQuery saved_;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kMaxBreachDumps = 16;

  /// The process-wide recorder (default capacity).
  static FlightRecorder& global();

  /// Standalone recorder for tests; capacity must be >= 1.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Fresh monotonically increasing query id (starts at 1; 0 = none).
  // mo: relaxed — the id is a bare ticket; uniqueness comes from RMW
  // atomicity, and the id carries no payload needing ordering.
  std::uint64_t next_query_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Record one event.  Lock-free, allocation-free; wait-free except for
  /// the slot seqlock stamp.
  void record(std::uint64_t query_id, FlightEventKind kind,
              double value = 0.0, std::int32_t detail = 0);

  /// Snapshot the ring in record order (oldest first).  Torn slots (being
  /// overwritten mid-read) are dropped.
  std::vector<FlightEvent> events() const;

  /// The subset of events() belonging to `query_id`.
  std::vector<FlightEvent> query_events(std::uint64_t query_id) const;

  /// Record a kBreach event and copy the query's current chain into the
  /// bounded breach log (oldest dumps evicted past kMaxBreachDumps).
  void note_breach(std::uint64_t query_id, double response_ms,
                   double budget_ms) REPFLOW_EXCLUDES(breach_mutex_);

  /// Copies of the retained breach dumps, oldest first.
  std::vector<BreachDump> breaches() const REPFLOW_EXCLUDES(breach_mutex_);

  /// Events recorded since construction/clear (monotonic, not capped by
  /// the ring size).
  // mo: relaxed — statistical read of the ticket counter; slot contents are
  // published by the per-slot seqlock stamps, not by head_.
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Drop all events and breach dumps (ids keep advancing).  Not atomic
  /// with respect to concurrent record() calls: in-flight writers may
  /// re-stamp a slot after the sweep (the same torn-read contract as
  /// events()), but the epoch swap itself is race-free (epoch_ns_ is
  /// atomic).
  void clear() REPFLOW_EXCLUDES(breach_mutex_);

 private:
  struct Slot {
    /// Seqlock stamp: 2*ticket+1 while the writer is inside, 2*ticket+2
    /// once the event is published.  0 = never written.  The event's seq
    /// is the ticket, so it is not stored separately.
    std::atomic<std::uint64_t> stamp{0};
    // Payload words are atomics because a reader can overlap a writer on
    // the same slot: a plain copy there is a data race even though the
    // stamp re-check discards the torn result.
    std::atomic<std::uint64_t> query_id{0};
    std::atomic<double> t_ms{0.0};
    std::atomic<double> value{0.0};
    std::atomic<std::int32_t> detail{0};
    std::atomic<FlightEventKind> kind{FlightEventKind::kAdmit};
  };

  using Clock = std::chrono::steady_clock;

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> next_id_{0};
  // Epoch as a raw tick count.  Thread-safety review (the pass that added
  // the annotations below) found the previous plain time_point was written
  // by clear() while lock-free record() calls read it — a genuine data
  // race.  An atomic tick count keeps the write path lock-free.
  std::atomic<Clock::rep> epoch_ns_;

  // breach_mutex_ guards the bounded breach log (compile-time checked).
  mutable support::Mutex breach_mutex_;
  std::deque<BreachDump> breaches_ REPFLOW_GUARDED_BY(breach_mutex_);
};

#else  // REPFLOW_OBS_DISABLED

struct ActiveQuery {
  std::uint64_t id = 0;
  double budget_ms = 0.0;
};

class QueryScope {
 public:
  explicit QueryScope(std::uint64_t, double = 0.0) {}
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;
  static ActiveQuery current() { return {}; }
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 0;
  static constexpr std::size_t kMaxBreachDumps = 0;
  static FlightRecorder& global() {
    static FlightRecorder recorder;
    return recorder;
  }
  explicit FlightRecorder(std::size_t = 0) {}
  std::uint64_t next_query_id() { return 0; }
  void record(std::uint64_t, FlightEventKind, double = 0.0,
              std::int32_t = 0) {}
  std::vector<FlightEvent> events() const { return {}; }
  std::vector<FlightEvent> query_events(std::uint64_t) const { return {}; }
  void note_breach(std::uint64_t, double, double) {}
  std::vector<BreachDump> breaches() const { return {}; }
  std::uint64_t recorded() const { return 0; }
  std::size_t capacity() const { return 0; }
  void clear() {}
};

#endif  // REPFLOW_OBS_DISABLED

/// JSON dump of a recorder's ring + breach log, served by the HTTP
/// exporter's /flightrecorder endpoint and usable standalone.  Available
/// (empty) in both build modes.
std::string flight_recorder_json(const FlightRecorder& recorder);

}  // namespace repflow::obs
