// Asynchronous lock-free multithreaded push-relabel (paper Section V,
// following Hong & He, IEEE TPDS 22(6), 2011).
//
// Worker threads drain a lock-free queue of active vertices.  A thread
// holding vertex u finds u's lowest-height residual neighbor v̄; if
// height(u) > height(v̄) it pushes min(excess(u), residual(u, v̄)) with
// atomic fetch-add/sub on the arc flow and both excesses, otherwise it
// relabels u to height(v̄) + 1 (heights are written only by the owning
// thread).  No locks or barriers anywhere — only atomic RMW, per [31].
//
// Safety of the stale reads: a vertex is owned by at most one thread at a
// time (enqueue-flag protocol), so only the owner decreases excess(u) and
// residual(u, v); concurrent threads can only *increase* them, which keeps
// every computed delta valid.
//
// The engine mirrors the integrated interface of the sequential
// PushRelabel: resume() conserves the flows already on the FlowNetwork,
// saturates residual source arcs, recomputes exact heights, and runs the
// multithreaded loop; flows are copied back on completion.
//
// The CSR capture, atomic flow/excess arrays, worker pool, and the
// prologue/epilogue shared with the round engine live in
// ParallelEngineBase (engine_base.h); this class adds the asynchronous
// scheduling state: the MPMC active queue, atomic heights, and the
// cooperative global-relabel park protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "parallel/engine_base.h"
#include "parallel/mpmc_queue.h"

namespace repflow::parallel {

class ParallelPushRelabel : public ParallelEngineBase {
 public:
  /// Per-worker operation counters (each slot written by one thread only).
  /// `queue_yields` counts scheduler yields while the work queue was empty
  /// but other threads still held active vertices — the engine's contention
  /// signal.
  struct ThreadCounters {
    std::uint64_t pushes = 0;
    std::uint64_t relabels = 0;
    std::uint64_t discharges = 0;
    std::uint64_t queue_yields = 0;
  };

  ParallelPushRelabel(graph::FlowNetwork& net, graph::Vertex source,
                      graph::Vertex sink, int threads);

  ParallelPushRelabel(const ParallelPushRelabel&) = delete;
  ParallelPushRelabel& operator=(const ParallelPushRelabel&) = delete;

  /// Re-validate the endpoints and recapture the network topology in
  /// place.  Shared state (atomic arrays, queue) is reallocated only when
  /// the network outgrows the retained capacity, so rebinding to a
  /// same-footprint problem performs zero heap allocations and the worker
  /// pool persists across queries.
  void rebind(graph::Vertex source, graph::Vertex sink);

  /// Retained working-memory footprint across all reusable buffers.
  std::size_t retained_bytes() const;

  /// Integrated run from the network's current flows; returns the flow
  /// value reached (the sink's excess).  Worker threads persist across
  /// calls (Algorithm 6 resumes many times per query); the worker pool's
  /// condition-variable handoff is the only locking, and it sits outside
  /// the push/relabel operations as [31] requires.
  graph::Cap resume();

  void reset_excess_after_restore(graph::Cap sink_excess);

  /// Cumulative per-thread counters over every resume() so far (index =
  /// worker thread; single-threaded runs use slot 0).
  const std::vector<ThreadCounters>& per_thread_counters() const {
    return cumulative_;
  }

 private:
  void exact_heights();
  void seed_queue();
  void worker();
  void discharge(graph::Vertex v);
  void enqueue(graph::Vertex v);

  /// Cooperative global relabeling (the role of [31]'s nonblocking global
  /// relabel thread): when the relabel budget is exhausted, one worker
  /// CAS-elects itself coordinator, the others park at safe checkpoints
  /// (loop boundaries — never mid-push), and the coordinator recomputes
  /// exact heights.  Pure atomics; returns true if this thread paused or
  /// coordinated (caller should restart its loop iteration).
  bool maybe_global_relabel();

  // Asynchronous scheduling state on top of the shared substrate.  The
  // atomic arrays follow the base's grow-only contract.
  std::vector<std::atomic<std::int32_t>> height_;
  std::vector<std::atomic<bool>> queued_;
  std::unique_ptr<MpmcQueue<graph::Vertex>> queue_;
  std::size_t queue_capacity_ = 0;
  std::atomic<std::int64_t> active_count_{0};

  // Global-relabel coordination (atomics only; no locks on the hot path).
  std::atomic<int> gr_state_{0};   // 0 = normal, 1 = pause requested
  std::atomic<int> gr_paused_{0};
  std::atomic<int> gr_exited_{0};  // workers that finished this run
  std::atomic<std::uint64_t> relabels_since_gr_{0};
  std::uint64_t gr_threshold_ = 0;

  // Per-run operation counters folded into stats_, cumulative_, and the
  // obs registry after each run.
  std::vector<ThreadCounters> counters_;
  std::vector<ThreadCounters> cumulative_;

  // Registry handles resolved once at construction (lookup is mutex-guarded;
  // the fold in resume() must not be).
  struct RegistryHandles {
    static RegistryHandles make(int threads);
    obs::Counter& pushes;
    obs::Counter& relabels;
    obs::Counter& discharges;
    obs::Counter& queue_yields;
    obs::Counter& resumes;
    obs::Counter& termination_reruns;
    obs::Gauge& contention;
    std::vector<obs::Counter*> thread_pushes;
    std::vector<obs::Counter*> thread_relabels;
    std::vector<obs::Counter*> thread_discharges;
    std::vector<obs::Counter*> thread_queue_yields;
  };
  RegistryHandles registry_;
};

}  // namespace repflow::parallel
