// The bipartite b-matching fast path.
//
// Every retrieval network the paper builds (Figures 3/4) is the same shape:
// unit source->bucket and bucket->disk arcs, with all the interesting
// capacity on the disk->sink arcs.  A flow of value |Q| is therefore
// exactly a degree-constrained bipartite matching: each bucket matched to
// one replica disk, each disk j holding at most cap_j buckets.  Solving it
// as a matching drops the general-graph machinery entirely — no explicit
// s/t vertices, no reverse-arc bookkeeping, no per-vertex labels or excess:
// the instance is two flat CSR arrays (bucket->replica adjacency and
// per-disk matched-bucket slot lists) plus a per-disk residual capacity
// cap_j - load_j.
//
// BipartiteMatcher is a Hopcroft-Karp kernel on that representation:
// a global BFS computes the layered distance of every unmatched bucket to
// the nearest disk with spare capacity, then batched DFS passes augment a
// maximal set of shortest vertex-disjoint alternating paths per phase —
// O(E*sqrt(V)) total versus Ford-Fulkerson's O(V*E).
//
// The paper's central trick — conserving flow across sink-capacity changes
// (Algorithms 2/3/5/6) — carries over verbatim: capacities are monotone in
// the candidate response time t, so a matching found under caps(t') stays
// feasible for every t >= t', and augment_to_maximum() resumes from the
// retained assignment, touching only the buckets still unmatched.
// IntegratedMatchingSolver runs the full Algorithm 6 driver (binary
// capacity scaling + IncrementMinCost finish) on this kernel.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/increment.h"
#include "core/problem.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "graph/workspace.h"

namespace repflow::core {

class BipartiteMatcher {
 public:
  BipartiteMatcher() = default;

  BipartiteMatcher(const BipartiteMatcher&) = delete;
  BipartiteMatcher& operator=(const BipartiteMatcher&) = delete;

  /// Degree-bucketed adjacency: rebind() groups each bucket's replica arcs
  /// by coarse power-of-two in-degree class (cold classes first, insertion
  /// order preserved within a class), so DFS probes try lightly-replicated
  /// disks before contended hot spots — the lever for the c > 2 adversarial
  /// shapes where replicas pile onto a few slow disks.  The reorder only
  /// engages when the degree spread spans >= 2 classes AND the average
  /// replica degree leaves real per-bucket choice (total arcs <= N*Q/4);
  /// uniform shapes keep their natural (decorrelated) insertion order
  /// untouched.  On by default; the toggle exists for the degree-16
  /// bench cells and takes effect at the next rebind().
  void set_degree_bucketed(bool on) { degree_bucketed_ = on; }
  bool degree_bucketed() const { return degree_bucketed_; }

  /// Bind `problem` onto `workspace` (rebuilding the CSR topology in place;
  /// same-footprint rebinds allocate nothing) and clear the matching.
  /// Both must outlive the matcher's use.
  void rebind(const RetrievalProblem& problem,
              graph::MatchingWorkspace& workspace);

  /// Set every disk capacity from candidate response time `t`, exactly as
  /// RetrievalNetwork::capacity_for_time: floor((t - D - X) / C + 1e-9)
  /// clamped at zero.  Does not touch the matching: callers rely on
  /// capacity monotonicity (only restore_matching() shrinks it).
  void set_capacities_for_time(double t);

  /// Per-disk replica in-degrees (CapacityIncrementer's removal criterion).
  std::span<const std::int32_t> in_degrees() const { return ws_->in_degree; }

  /// The live capacity array, mutable so CapacityIncrementer's direct mode
  /// bumps it in place between augment_to_maximum() resumes.
  std::vector<std::int64_t>& capacities() { return ws_->cap; }

  /// Hopcroft-Karp phases until no augmenting path remains; returns the
  /// matched bucket count (== |Q| iff the current capacities are feasible).
  /// Resumable: the retained matching is kept and only free buckets are
  /// augmented from.
  std::int64_t augment_to_maximum();

  std::int64_t matched() const { return matched_; }

  /// Snapshot/restore of the bucket->disk assignment (the Algorithm 6
  /// conserve-and-backtrack step).  Restoring rebuilds the per-disk loads
  /// and slot lists in O(Q + N) without allocating.
  void save_matching_into(std::vector<std::int32_t>& out) const;
  void restore_matching(const std::vector<std::int32_t>& saved);

  /// Emit the matching as a Schedule (requires matched() == |Q|; throws
  /// std::logic_error otherwise).  Allocation-free on reused schedules.
  void extract_schedule_into(Schedule& schedule) const;

  /// Kernel counters since the last rebind.  Phases = global BFS passes,
  /// augmentations = augmenting paths applied, visits = DFS arc probes.
  std::int64_t phases() const { return phases_; }
  std::int64_t augmentations() const { return augmentations_; }
  std::int64_t visits() const { return visits_; }

 private:
  bool bfs_phase(std::int32_t& limit);
  bool try_augment(std::int32_t root, std::int32_t limit);
  void augment_pass(std::int32_t limit);
  void publish_tally(std::int64_t phases);

  const RetrievalProblem* problem_ = nullptr;
  graph::MatchingWorkspace* ws_ = nullptr;
  std::int32_t q_ = 0;
  std::int32_t n_ = 0;
  std::int64_t matched_ = 0;
  std::int64_t phases_ = 0;
  std::int64_t augmentations_ = 0;
  std::int64_t visits_ = 0;

  // Per-probe telemetry fold (docs/OBSERVABILITY.md "Overhead"): the
  // augment loop counts into these plain members, and publish_tally() hands
  // them to the registry once at the end of each augment_to_maximum().  path_tally_[top] counts augmenting paths
  // of top + 1 buckets; a layered path reaches each disk at most once, so
  // top < n and rebind() sizes the tally (grow-only) to the disk count.
  std::vector<std::uint64_t> path_tally_;
  std::int32_t path_tally_max_ = -1;  // deepest top recorded since publish

  bool degree_bucketed_ = true;
};

/// Algorithm 6's three-phase driver (time bounds, binary capacity scaling
/// with conserved state, IncrementMinCost finish) running on the matching
/// kernel instead of a push-relabel engine.  Catalog entry:
/// SolverKind::kIntegratedMatching.
class IntegratedMatchingSolver {
 public:
  /// Reusable shell: construct once, serve many problems via solve_into().
  explicit IntegratedMatchingSolver(
      MatchingEngine /*engine*/ = MatchingEngine::kSerial) {}

  /// One-problem convenience binding (mirrors the other catalog shells).
  explicit IntegratedMatchingSolver(const RetrievalProblem& problem)
      : bound_problem_(&problem) {}

  /// Solve the constructor-bound problem.
  SolveResult solve();

  /// Rebuild internal state in place and solve `problem`; steady-state
  /// calls on same-footprint problems perform zero heap allocations.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  /// Kernel knob, forwarded to the matcher (see BipartiteMatcher).
  void set_degree_bucketed(bool on) { matcher_.set_degree_bucketed(on); }

  /// Retained working-memory footprint (workspace + snapshot buffer).
  std::size_t retained_bytes() const;

 private:
  const RetrievalProblem* bound_problem_ = nullptr;
  graph::MaxflowWorkspace workspace_;
  BipartiteMatcher matcher_;
  CapacityIncrementer incrementer_;
  std::vector<std::int32_t> saved_match_;
};

}  // namespace repflow::core
