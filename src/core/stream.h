// Continuous query-stream scheduling.
//
// Paper Section II-A: "initial loads of the disks from the previous queries
// can also be calculated easily since it is based on how the previous
// queries are scheduled."  This module closes that loop: a stream scheduler
// that processes queries arriving over (virtual) time, deriving every
// query's X_j initial-load vector from the residual work the earlier
// schedules left on each disk, solving each query optimally with any solver
// from the catalog, and recording per-query latency statistics.
//
// Solver selection and threading are owned by the scheduler's
// ExecutionContext (docs/SERVING.md): construct with an ExecutionPolicy to
// pin a kind or leave the kind to the degree rule.  Admission control under
// overload (shedding / coalescing) is layered on top by QueryRouter
// (core/router.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/execution.h"
#include "core/problem.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "decluster/allocation.h"
#include "obs/metrics.h"
#include "workload/disks.h"
#include "workload/query.h"

namespace repflow::core {

/// One processed query of the stream.
struct StreamEvent {
  /// Flight-recorder id this submission's events were tagged with: the
  /// router-assigned id when the submission arrived through a QueryRouter
  /// scope, a scheduler-self-assigned id otherwise (0 in
  /// REPFLOW_OBS_DISABLED builds).  DESIGN.md, "query-id propagation".
  std::uint64_t query_id = 0;
  double arrival_ms = 0.0;        ///< when the query arrived
  double response_ms = 0.0;       ///< optimal response time (incl. waits)
  double completion_ms = 0.0;     ///< arrival + response
  double max_initial_load_ms = 0.0;  ///< busiest disk's backlog at arrival
  double solve_ms = 0.0;          ///< wall time the solver spent on this query
  std::int64_t buckets = 0;
  Schedule schedule;
};

/// Latency statistics over a scheduler's processed queries.
///
/// The scalar mean_*/max_* fields are *views over the same observations*
/// the HistogramSummary members carry: in normal builds they are computed
/// from the per-scheduler histograms (count/sum/min/max are exact; only
/// percentiles are bucket-estimates).  Under REPFLOW_OBS_DISABLED the
/// histograms compile to inert stubs, so the scalars fall back to a direct
/// pass over the event log and the summaries read all-zero.
struct StreamStats {
  std::int64_t queries = 0;
  double mean_response_ms = 0.0;
  double max_response_ms = 0.0;
  double makespan_ms = 0.0;        ///< completion of the last query
  double mean_queue_wait_ms = 0.0; ///< mean max initial load seen per query
  double mean_solve_ms = 0.0;      ///< mean solver wall time per query

  /// Latency decomposition of this scheduler's queries (zero in
  /// REPFLOW_OBS_DISABLED builds): how long queries waited on disk backlog
  /// vs. how long the solver took vs. the optimal response time delivered.
  obs::HistogramSummary queue_wait;
  obs::HistogramSummary solve_time;
  obs::HistogramSummary response_time;
};

/// Schedules a stream of queries against one replicated allocation,
/// threading the evolving per-disk busy horizon through the X_j parameter
/// of consecutive retrieval problems.
class QueryStreamScheduler {
 public:
  /// `base_system` supplies cost C_j and delay D_j; its init_load entries
  /// are ignored (the scheduler owns the busy horizon).  `policy` governs
  /// per-query solver selection and threading.
  QueryStreamScheduler(const decluster::ReplicatedAllocation& allocation,
                       workload::SystemConfig base_system,
                       ExecutionPolicy policy);

  /// Trace-replay mode: no allocation — every query must arrive as an
  /// explicit replica list through submit_replicas() (submit(query, ...)
  /// throws std::logic_error in this mode).
  QueryStreamScheduler(workload::SystemConfig base_system,
                       ExecutionPolicy policy);

  /// Process one query arriving at `arrival_ms` (must be non-decreasing
  /// across calls; throws otherwise).  Returns the event record.
  StreamEvent submit(const workload::Query& query, double arrival_ms);

  /// Same, but with the bucket replica lists given directly (e.g. from a
  /// Trace).  Works in both modes.
  StreamEvent submit_replicas(std::vector<std::vector<DiskId>> replicas,
                              double arrival_ms);

  /// The scheduler's serving policy (kind, threads, engine).
  const ExecutionPolicy& policy() const { return exec_.policy(); }
  void set_policy(const ExecutionPolicy& policy) { exec_.set_policy(policy); }

  /// Busy horizon of a disk: the absolute time at which it finishes all
  /// work scheduled so far.
  double disk_free_at(DiskId disk) const { return busy_until_[disk]; }

  /// The maximum outstanding X_j horizon a query arriving at `arrival_ms`
  /// would observe: max over disks of (busy-until - arrival), clamped at
  /// zero.  QueryRouter's admission decisions key off this value.
  double max_backlog_at(double arrival_ms) const;

  /// Null in trace-replay mode.
  const decluster::ReplicatedAllocation* allocation() const {
    return allocation_;
  }

  /// Events processed so far, in submission order.
  const std::vector<StreamEvent>& events() const { return events_; }

  StreamStats stats() const;

 private:
  /// Fold the backlog left by earlier schedules into system_.init_load_ms
  /// for a query arriving at `arrival_ms`; returns the busiest backlog.
  double advance_loads(double arrival_ms);
  StreamEvent submit_problem(RetrievalProblem problem, double arrival_ms,
                             double max_backlog);

  const decluster::ReplicatedAllocation* allocation_;  // null in replay mode
  workload::SystemConfig system_;
  // The serving context: pooled solver shells + reused scratch result, so
  // consecutive queries of the stream hit the same retained
  // networks/workspaces and the per-query solve itself performs zero
  // steady-state heap allocations.
  ExecutionContext exec_;
  std::vector<double> busy_until_;  // absolute ms per disk
  std::vector<StreamEvent> events_;
  double last_arrival_ms_ = 0.0;

  // Per-scheduler latency histograms (this instance's queries only); the
  // same observations also feed the process-global `stream.*` histograms.
  obs::Histogram queue_wait_hist_;
  obs::Histogram solve_hist_;
  obs::Histogram response_hist_;
};

}  // namespace repflow::core
