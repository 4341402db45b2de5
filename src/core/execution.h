// The serving spine: one policy object + one context through which every
// public entry point (the solve() facade, QueryStreamScheduler, BatchSolver,
// IncrementalQuerySession) reaches the solver catalog.
//
// Before this layer existed, solver-kind, thread-count, and adaptive-
// selection knobs were scattered over four entry points (SolveOptions,
// BatchOptions, the stream scheduler's constructor, the facade's
// thread_local pool).  ExecutionPolicy collapses them into one value type,
// and ExecutionContext owns the machinery every caller needs anyway: the
// warm SolverPool, a reusable scratch SolveResult, and the policy that maps
// a problem to a catalog kind.  Serving-loop features (admission control in
// QueryRouter, histogram-driven selection) are implemented once, here,
// instead of once per entry point.
#pragma once

#include <cstdint>

#include "core/incremental_session.h"
#include "core/problem.h"
#include "core/solver.h"
#include "core/solver_pool.h"

namespace repflow::core {

/// How an ExecutionPolicy maps a problem to a solver kind.
enum class SelectionMode {
  kPinned,          ///< always `pinned_kind`
  kFixedThreshold,  ///< avg replica degree <= threshold -> matching kernel
  kHistogram,       ///< per-kind solve-time histograms decide; threshold
                    ///< fallback until both kinds have `min_samples`
};

/// Solver selection + execution knobs for one serving context.  A plain
/// value type: copy it, tweak a field, hand it to ExecutionContext /
/// QueryStreamScheduler / BatchOptions / the solve() facade.
struct ExecutionPolicy {
  SelectionMode mode = SelectionMode::kFixedThreshold;
  /// The kind used by kPinned mode (ignored otherwise).
  SolverKind pinned_kind = SolverKind::kPushRelabelBinary;
  /// kFixedThreshold cutover (also the kHistogram fallback): instances with
  /// average replica degree <= this run the Hopcroft-Karp matching kernel,
  /// denser ones the integrated push-relabel driver.
  double degree_threshold = 16.0;
  /// kHistogram: observations each candidate kind's `solver.<id>.solve_ms`
  /// histogram needs before the measured means replace the threshold.
  std::uint64_t min_samples = 64;
  /// Worker count for kParallelPushRelabelBinary (ignored by the
  /// sequential kinds; must be >= 1).
  int threads = 2;
  /// Which parallel engine kParallelPushRelabelBinary runs (ignored by the
  /// sequential kinds).  kAuto re-resolves per solve against the
  /// `engine.<id>.solve_ms` histograms (see core::resolve_engine_kind);
  /// pinning kHongHe or kRound skips resolution.
  EngineKind engine = EngineKind::kAuto;

  static ExecutionPolicy pinned(SolverKind kind, int threads = 2) {
    ExecutionPolicy p;
    p.mode = SelectionMode::kPinned;
    p.pinned_kind = kind;
    p.threads = threads;
    return p;
  }
  static ExecutionPolicy adaptive(double degree_threshold = 16.0,
                                  int threads = 2) {
    ExecutionPolicy p;
    p.mode = SelectionMode::kFixedThreshold;
    p.degree_threshold = degree_threshold;
    p.threads = threads;
    return p;
  }
  static ExecutionPolicy histogram_driven(std::uint64_t min_samples = 64,
                                          int threads = 2) {
    ExecutionPolicy p;
    p.mode = SelectionMode::kHistogram;
    p.min_samples = min_samples;
    p.threads = threads;
    return p;
  }
};

/// The fixed-threshold selection rule shared by choose_solver() and the
/// adaptive policy modes: low average replica degree -> matching kernel,
/// dense instances -> integrated push-relabel (see solve.h for rationale).
SolverKind select_by_degree(const RetrievalProblem& problem,
                            double degree_threshold);

/// One serving context: policy + warm solver shells + scratch result.
/// Steady-state solves through a context perform zero heap allocations on
/// same-footprint problems (the pool and scratch buffers are retained), and
/// every solve is funnelled through the per-kind `solver.<id>.*` metrics and
/// `solve.<id>` spans regardless of which entry point issued it.
///
/// Not thread-safe: one context per thread (the facade keeps a thread_local
/// one; BatchSolver gives each worker its own).
class ExecutionContext {
 public:
  explicit ExecutionContext(ExecutionPolicy policy = {});

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Apply the policy to one problem.  Records `policy.*` metrics.
  SolverKind select(const RetrievalProblem& problem);

  /// select() + pooled solve, recording the per-kind run metrics.
  void solve_into(const RetrievalProblem& problem, SolveResult& result);

  /// Pooled solve with an explicit kind (bypasses selection, still
  /// funnelled through the per-kind metrics).
  void solve_into(const RetrievalProblem& problem, SolverKind kind,
                  SolveResult& result);

  /// solve_into() the context's reusable scratch buffer; the reference is
  /// valid until the next solve through this context.
  const SolveResult& solve_scratch(const RetrievalProblem& problem);

  /// Convenience wrapper returning a fresh result.
  SolveResult solve(const RetrievalProblem& problem);

  /// Open an incremental query session on this context's serving spine (the
  /// session records its reoptimize latency into the unified `session.*`
  /// instruments; see IncrementalQuerySession for the growth semantics).
  IncrementalQuerySession open_session(workload::SystemConfig system);

  const ExecutionPolicy& policy() const { return policy_; }
  /// Swap the policy; the pool's parallel slots are rebuilt only when the
  /// thread count actually changed (engine-kind flips reuse the other warm
  /// slot).
  void set_policy(const ExecutionPolicy& policy);

  SolverPool& pool() { return pool_; }
  /// The context's reusable result buffer (capacity survives across
  /// solves, so callers looping over queries stay allocation-free).
  SolveResult& scratch() { return scratch_; }
  std::size_t retained_bytes() const { return pool_.retained_bytes(); }

 private:
  ExecutionPolicy policy_;
  SolverPool pool_;
  SolveResult scratch_;
};

}  // namespace repflow::core
