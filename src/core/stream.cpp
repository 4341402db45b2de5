#include "core/stream.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "support/timing.h"

namespace repflow::core {

QueryStreamScheduler::QueryStreamScheduler(
    const decluster::ReplicatedAllocation& allocation,
    workload::SystemConfig base_system, ExecutionPolicy policy)
    : allocation_(&allocation),
      system_(std::move(base_system)),
      exec_(policy) {
  if (allocation_->total_disks() != system_.total_disks()) {
    throw std::invalid_argument(
        "QueryStreamScheduler: allocation/system disk count mismatch");
  }
  busy_until_.assign(static_cast<std::size_t>(system_.total_disks()), 0.0);
}

QueryStreamScheduler::QueryStreamScheduler(workload::SystemConfig base_system,
                                           ExecutionPolicy policy)
    : allocation_(nullptr),
      system_(std::move(base_system)),
      exec_(policy) {
  busy_until_.assign(static_cast<std::size_t>(system_.total_disks()), 0.0);
}

StreamEvent QueryStreamScheduler::submit(const workload::Query& query,
                                         double arrival_ms) {
  if (allocation_ == nullptr) {
    throw std::logic_error(
        "QueryStreamScheduler: no allocation (trace-replay mode); use "
        "submit_replicas");
  }
  // advance_loads() must precede build_problem: it writes the X_j initial
  // loads into system_ that the problem snapshot captures.
  const double max_backlog = advance_loads(arrival_ms);
  return submit_problem(build_problem(*allocation_, query, system_),
                        arrival_ms, max_backlog);
}

StreamEvent QueryStreamScheduler::submit_replicas(
    std::vector<std::vector<DiskId>> replicas, double arrival_ms) {
  const double max_backlog = advance_loads(arrival_ms);
  RetrievalProblem problem;
  problem.replicas = std::move(replicas);
  problem.system = system_;
  problem.validate();
  return submit_problem(std::move(problem), arrival_ms, max_backlog);
}

double QueryStreamScheduler::max_backlog_at(double arrival_ms) const {
  double max_backlog = 0.0;
  for (const double horizon : busy_until_) {
    max_backlog = std::max(max_backlog, horizon - arrival_ms);
  }
  return std::max(0.0, max_backlog);
}

double QueryStreamScheduler::advance_loads(double arrival_ms) {
  if (arrival_ms < last_arrival_ms_) {
    throw std::invalid_argument(
        "QueryStreamScheduler: arrivals must be non-decreasing");
  }
  last_arrival_ms_ = arrival_ms;

  // X_j = residual busy time of disk j at this query's arrival, exactly the
  // paper's "time it takes for disk j to be idle if busy, 0 otherwise".
  double max_backlog = 0.0;
  for (std::size_t d = 0; d < busy_until_.size(); ++d) {
    system_.init_load_ms[d] = std::max(0.0, busy_until_[d] - arrival_ms);
    max_backlog = std::max(max_backlog, system_.init_load_ms[d]);
  }
  return max_backlog;
}

StreamEvent QueryStreamScheduler::submit_problem(RetrievalProblem problem,
                                                 double arrival_ms,
                                                 double max_backlog) {
  obs::ScopedSpan span("stream.submit");
  // Query-id propagation (DESIGN.md): reuse the router-owned ambient
  // scope when one is active, otherwise self-assign an id so direct
  // scheduler use still produces a complete flight chain.
  obs::ActiveQuery active = obs::QueryScope::current();
  std::optional<obs::QueryScope> own_scope;
  if (active.id == 0) {
    own_scope.emplace(obs::FlightRecorder::global().next_query_id());
    active = obs::QueryScope::current();
  }
  StopWatch solve_watch;
  solve_watch.start();
  // Policy selection + pooled solve into the reused scratch buffer: after
  // the first query, the solver-internal path allocates nothing.
  const SolverKind kind = exec_.select(problem);
  exec_.solve_into(problem, kind, exec_.scratch());
  const SolveResult& result = exec_.scratch();
  solve_watch.stop();

  // Advance each used disk's busy horizon by the work this schedule put on
  // it (the response-time model's completion: D + X + k*C after arrival).
  // The bottleneck disk (latest completion) doubles as the kSchedule
  // event's detail.
  std::int32_t bottleneck_disk = -1;
  double bottleneck_completion = 0.0;
  for (std::size_t d = 0; d < busy_until_.size(); ++d) {
    const std::int64_t k = result.schedule.per_disk_count[d];
    if (k > 0) {
      const double completion =
          problem.completion_time(static_cast<DiskId>(d), k);
      busy_until_[d] = arrival_ms + completion;
      if (completion > bottleneck_completion) {
        bottleneck_completion = completion;
        bottleneck_disk = static_cast<std::int32_t>(d);
      }
    }
  }

  StreamEvent event;
  event.query_id = active.id;
  event.arrival_ms = arrival_ms;
  event.response_ms = result.response_time_ms;
  event.completion_ms = arrival_ms + result.response_time_ms;
  event.max_initial_load_ms = max_backlog;
  event.solve_ms = solve_watch.elapsed_ms();
  event.buckets = problem.query_size();
  // Copy (not move): the scratch result keeps its vector capacities for
  // the next query.
  event.schedule = result.schedule;

  // Latency decomposition: backlog wait vs. solver cost vs. delivered
  // response.  Recorded both per-scheduler (stats()) and process-globally.
  struct GlobalHists {
    obs::Histogram& queue_wait =
        obs::Registry::global().histogram("stream.queue_wait_ms");
    obs::Histogram& solve =
        obs::Registry::global().histogram("stream.solve_ms");
    obs::Histogram& response =
        obs::Registry::global().histogram("stream.response_ms");
  };
  static GlobalHists global_hists;
  queue_wait_hist_.observe(max_backlog);
  solve_hist_.observe(event.solve_ms);
  response_hist_.observe(event.response_ms);
  global_hists.queue_wait.observe(max_backlog);
  global_hists.solve.observe(event.solve_ms);
  global_hists.response.observe(event.response_ms);

  if (active.id != 0) {
    obs::FlightRecorder::global().record(active.id,
                                         obs::FlightEventKind::kSchedule,
                                         event.response_ms, bottleneck_disk);
    // Budget breach: capture the query's full admission->solve chain while
    // it is still in the ring (the scope's budget comes from the router's
    // latency_budget_ms; self-assigned scopes carry no budget).
    if (active.budget_ms > 0.0 && event.response_ms > active.budget_ms) {
      obs::FlightRecorder::global().note_breach(active.id, event.response_ms,
                                                active.budget_ms);
    }
  }

  events_.push_back(event);
  return event;
}

StreamStats QueryStreamScheduler::stats() const {
  StreamStats s;
  s.queries = static_cast<std::int64_t>(events_.size());
  if (events_.empty()) return s;
  // The makespan is a property of absolute completion times, which the
  // histograms (observing relative latencies) do not carry.
  for (const auto& e : events_) {
    s.makespan_ms = std::max(s.makespan_ms, e.completion_ms);
  }
  s.queue_wait = queue_wait_hist_.summary();
  s.solve_time = solve_hist_.summary();
  s.response_time = response_hist_.summary();
#if !defined(REPFLOW_OBS_DISABLED)
  // The scalar fields are views over the histograms, which saw exactly one
  // observation per event in the same order (count/sum/min/max are exact in
  // obs::Histogram; only percentiles are bucket estimates), so these match
  // an event-log pass bit for bit.
  s.mean_response_ms = s.response_time.mean;
  s.max_response_ms = s.response_time.max;
  s.mean_queue_wait_ms = s.queue_wait.mean;
  s.mean_solve_ms = s.solve_time.mean;
#else
  // Kill-switch builds compile the histograms to inert stubs (all-zero
  // summaries), so the scalars fall back to the event log.
  double total_response = 0.0;
  double total_wait = 0.0;
  double total_solve = 0.0;
  for (const auto& e : events_) {
    total_response += e.response_ms;
    total_wait += e.max_initial_load_ms;
    total_solve += e.solve_ms;
    s.max_response_ms = std::max(s.max_response_ms, e.response_ms);
  }
  s.mean_response_ms = total_response / static_cast<double>(s.queries);
  s.mean_queue_wait_ms = total_wait / static_cast<double>(s.queries);
  s.mean_solve_ms = total_solve / static_cast<double>(s.queries);
#endif
  return s;
}

}  // namespace repflow::core
