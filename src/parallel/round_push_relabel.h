// Bulk-synchronous round-based parallel push-relabel (WHFC-style).
//
// Where the Hong & He engine is fully asynchronous (workers race over a
// lock-free queue of active vertices), this engine advances in barrier-
// separated rounds over an explicit active set:
//
//   while (!active.empty()) {
//     if (work_since_last_global_relabel > 2 * threshold) global_relabel();
//     discharge_active();   // parallel: push on admissible arcs wrt the
//                           // round's frozen labels, relabel into
//                           // next_level, buffer activations per thread
//     apply_updates();      // barrier: commit label/excess deltas, build
//                           // the next round's active set
//   }
//   global_relabel();       // termination check: labels may be broken by
//                           // parallelism, so only an exact relabel can
//                           // prove no active vertex remains
//   (repeat the outer loop if the rescan re-activates anything)
//
// Within a round every vertex's label is frozen: pushes go only along arcs
// admissible under the frozen labels (level(u) == level(v) + 1), relabels
// are written to a separate next_level buffer, and receiver excess is
// accumulated in an excess_diff side array.  The barrier then commits both
// buffers.  Labels can still end up invalid *across* rounds (u and a
// neighbor may both relabel in the same round), which is why termination
// requires the final exact relabel — the same structure as WHFC's
// ParallelPushRelabel (SNIPPETS.md 1-3).
//
// The mode is chosen per network, once per resume(): a one-thread engine,
// or a network with fewer vertices than the parallel cutoff, is handed
// whole to the sequential FIFO engine (graph::PushRelabel, exact global
// relabel plus gap) running on the coordinator over the network itself.
// On such networks every round would run inline on one thread anyway, and
// a round's stamp exchanges, excess_diff commits, per-depth BFS buffers and
// termination relabel cost more than the work they schedule.  The rounds
// above serve only networks at or above the cutoff with threads > 1.
//
// Memory-order audit (verified under ThreadSanitizer by
// tests/parallel_test.cpp round-engine stress tests):
//
//   * Every cross-phase edge is carried by the WorkerPool barrier: the
//     mutex + condition-variable handoff around pool_.run() sequences
//     [prologue | discharge round | commit | BFS depth | epilogue] so each
//     phase observes everything the previous phase wrote.  No acquire/
//     release pair inside the engine is load-bearing across phases.
//     Phases smaller than the parallel cutoff skip the pool and run inline
//     on the coordinator (a barrier costs more than a few hundred
//     discharges); a sequential phase trivially preserves the same
//     happens-before structure.
//
//   * The sequential delegate touches none of the engine's atomic arrays:
//     it reads and writes the FlowNetwork directly, on the coordinator,
//     while the pool is idle, so it adds no cross-thread edge at all.
//
//   * Within a discharge round, relaxed RMWs suffice because every shared
//     cell is either single-writer or accumulate-only:
//       - flow_[a]: only the discharger of tail(a) pushes on a (a vertex is
//         active at most once per round), so the owner's stale read of
//         flow_[a] can only over-estimate it — concurrent activity is
//         reverse pushes on a^1, which *decrease* flow_[a] — and the
//         computed residual budget is never overshot.  Admissibility
//         (level(u) == level(v) + 1) makes mutual u<->v pushes impossible,
//         so no delta is ever applied twice.
//       - excess_diff_[v]: accumulate-only fetch_add; the committed
//         excess_[v] is read and written only at the barrier.
//       - next_level_[u]: plain (non-atomic) array; written only by u's
//         discharger, read only after the barrier.
//       - last_activated_[v] / bfs_stamp_[v]: atomic exchange used purely
//         as a claim token (exactly one thread observes the stale stamp),
//         so each vertex enters the activation buffers / BFS frontier once.
//       - chunk cursors are relaxed fetch_adds handing out disjoint index
//         ranges; ordering between chunks is irrelevant.
//
//   * The commit in apply_updates() and the global-relabel level writes run
//     on the coordinating thread between pool_.run() calls, i.e. fully
//     quiesced — they use plain loads/stores on the level arrays and
//     relaxed exchange(0) on excess_diff_.
//
// The engine mirrors the integrated interface of the sequential
// PushRelabel: resume() conserves the flows already on the FlowNetwork,
// saturates residual source arcs, recomputes exact labels, and runs the
// round loop; stranded excess is drained back to the source and flows are
// copied out on completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/push_relabel.h"
#include "graph/workspace.h"
#include "obs/metrics.h"
#include "parallel/engine_base.h"

namespace repflow::parallel {

class RoundPushRelabel : public ParallelEngineBase {
 public:
  /// Per-run telemetry folded into the obs registry after every resume().
  struct RoundStats {
    std::uint64_t rounds = 0;           ///< BSP rounds + sequential passes
    std::uint64_t sequential_passes = 0;  ///< resumes run by the delegate
    std::uint64_t global_relabels = 0;  ///< exact-label recomputations
    std::uint64_t discharge_work = 0;   ///< arc scans + per-discharge const
    std::uint64_t active_peak = 0;      ///< largest per-round active set
  };

  /// `workspace` may point at shared scratch (e.g. MaxflowWorkspace::round);
  /// nullptr uses an engine-owned instance.  Either way the buffers are
  /// grow-only and rebinding a same-footprint problem allocates nothing.
  RoundPushRelabel(graph::FlowNetwork& net, graph::Vertex source,
                   graph::Vertex sink, int threads,
                   graph::RoundRelabelWorkspace* workspace = nullptr);

  RoundPushRelabel(const RoundPushRelabel&) = delete;
  RoundPushRelabel& operator=(const RoundPushRelabel&) = delete;

  /// Re-validate the endpoints and recapture the network topology in place
  /// (zero allocations on same-footprint problems; the worker pool
  /// persists across queries).
  void rebind(graph::Vertex source, graph::Vertex sink);

  /// Integrated run from the network's current flows; returns the flow
  /// value reached (the sink's excess).
  graph::Cap resume();

  void reset_excess_after_restore(graph::Cap sink_excess);

  /// A network with fewer vertices than this is solved by the sequential
  /// delegate; on larger networks, phases with fewer items run inline on
  /// the coordinating thread instead of crossing the worker-pool barrier
  /// (two condition-variable handoffs cost more than discharging a few
  /// hundred vertices).  Tests set 0 to force every phase through the pool
  /// (at threads > 1).
  void set_parallel_cutoff(std::size_t cutoff) { parallel_cutoff_ = cutoff; }

  /// Cumulative round telemetry over every resume() so far.
  const RoundStats& round_stats() const { return cumulative_round_stats_; }

  /// Retained working-memory footprint across all reusable buffers.
  std::size_t retained_bytes() const;

 private:
  struct ThreadCounters {
    std::uint64_t pushes = 0;
    std::uint64_t relabels = 0;
    std::uint64_t discharges = 0;
    std::uint64_t work = 0;
  };

  void ensure_round_state();
  /// The whole resume() on the sequential delegate.
  graph::Cap resume_sequential();
  /// The whole resume() as BSP rounds.
  graph::Cap resume_rounds();
  /// Fold the run's telemetry into stats_, the registry and round_stats().
  void fold_run_stats();
  /// Run one parallel phase: hand chunk ranges of `total` items to `job`
  /// via the relaxed cursor.  Below the cutoff the job runs inline as
  /// worker 0 (with every thread buffer cleared, preserving the
  /// commit-reads-all-buffers contract); at or above it, on the pool.
  template <typename Job>
  void run_phase(std::size_t total, Job&& job);
  void seed_active();
  void discharge_active();
  void discharge(graph::Vertex u, int worker);
  void apply_updates();
  void global_relabel();
  void filter_active();
  /// Stamp-dedup'd activation into `worker`'s buffer (at most one entry per
  /// vertex per round; source/sink enter as commit candidates only).
  void activate(graph::Vertex v, int worker);
  void check_round_invariants(const char* where) const;
  void check_exact_labels(const char* where) const;

  graph::RoundRelabelWorkspace owned_workspace_;
  graph::RoundRelabelWorkspace& ws_;
  // Sequential engine for one-thread engines and sub-cutoff networks (owns
  // its MaxflowWorkspace).  Its stats are moved into stats_ after every
  // run, so it publishes nothing of its own.
  graph::PushRelabel sequential_;

  // Concurrently-written side arrays (see the memory-order audit above).
  std::vector<std::atomic<graph::Cap>> excess_diff_;
  std::vector<std::atomic<std::uint32_t>> last_activated_;
  std::vector<std::atomic<std::uint32_t>> bfs_stamp_;
  std::atomic<std::size_t> cursor_{0};

  // Per-thread activation / BFS-frontier buffers (each written by one
  // worker during a parallel phase, read by the coordinator at the
  // barrier).
  std::vector<std::vector<graph::Vertex>> thread_bufs_;
  std::vector<ThreadCounters> counters_;

  std::size_t parallel_cutoff_ = 2048;  // see set_parallel_cutoff
  std::uint32_t round_stamp_ = 0;  // epoch for last_activated_
  std::uint32_t gr_stamp_ = 0;     // epoch for bfs_stamp_
  std::uint64_t work_since_gr_ = 0;
  std::uint64_t gr_threshold_ = 0;

  RoundStats run_round_stats_;
  RoundStats cumulative_round_stats_;
  std::uint64_t run_pushes_ = 0;
  std::uint64_t run_relabels_ = 0;
  std::uint64_t run_discharges_ = 0;

  // Registry handles resolved once at construction (lookup is
  // mutex-guarded; the fold in resume() must not be).
  struct RegistryHandles {
    static RegistryHandles make();
    obs::Counter& pushes;
    obs::Counter& relabels;
    obs::Counter& discharges;
    obs::Counter& resumes;
    obs::Counter& rounds;
    obs::Counter& sequential_passes;
    obs::Counter& global_relabels;
    obs::Counter& discharge_work;
    obs::Gauge& active_peak;
  };
  RegistryHandles registry_;
};

}  // namespace repflow::parallel
