// One-call façade: run any solver of the catalog on a problem instance.
// This is the primary public API entry point (see examples/quickstart.cpp).
// Internally every overload delegates to a thread_local ExecutionContext
// (docs/SERVING.md), the same spine the stream scheduler, batch solver, and
// incremental sessions run on.
#pragma once

#include <optional>

#include "core/execution.h"
#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// Facade options.  Leaving `kind` unset picks the solver adaptively from
/// the problem's shape (see choose_solver); setting it pins one catalog
/// kind.  `threads` only matters for kParallelPushRelabelBinary (ignored
/// otherwise, must be >= 1).  For richer control (histogram-driven
/// selection, custom thresholds) pass an ExecutionPolicy instead.
struct SolveOptions {
  std::optional<SolverKind> kind;
  int threads = 2;
  /// Parallel engine for kParallelPushRelabelBinary (ignored otherwise).
  /// kAuto picks per solve off the `engine.<id>.solve_ms` histograms.
  EngineKind engine = EngineKind::kAuto;

  /// The ExecutionPolicy these options denote: pinned when `kind` is set,
  /// the default fixed-threshold adaptive policy otherwise.
  ExecutionPolicy policy() const {
    ExecutionPolicy p = kind ? ExecutionPolicy::pinned(*kind, threads)
                             : ExecutionPolicy::adaptive(16.0, threads);
    p.engine = engine;
    return p;
  }
};

/// The adaptive selection policy: every retrieval network is a bipartite
/// b-matching, and the Hopcroft-Karp kernel wins whenever the bucket->disk
/// adjacency is sparse (bounded replica degree — all the paper's workloads,
/// where the copy count c is 2..5).  Dense instances (average replica
/// degree above ~16, i.e. nearly-complete bipartite graphs) fall back to
/// the integrated push-relabel driver, whose per-probe cost does not scale
/// with the arc count the way phase BFS layering does.
/// Equivalent to select_by_degree(problem, 16.0).
SolverKind choose_solver(const RetrievalProblem& problem);

/// The adaptive engine choice behind EngineKind::kAuto: resolve `requested`
/// to a concrete parallel engine off the `engine.<id>.solve_ms` latency
/// histograms (lower observed mean wins once both engines are warmed up;
/// kRound until then).  Equivalent to resolve_engine_kind(requested).
EngineKind choose_engine(EngineKind requested = EngineKind::kAuto);

/// Solve `problem` with the chosen algorithm.  `threads` and `engine` only
/// matter for kParallelPushRelabelBinary (ignored otherwise; threads must
/// be >= 1).
SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads = 2, EngineKind engine = EngineKind::kAuto);

/// Options form: `solve(p, {})` runs the adaptive policy.
SolveResult solve(const RetrievalProblem& problem,
                  const SolveOptions& options);

/// Policy form: run under an explicit ExecutionPolicy (pinned, threshold-
/// adaptive, or histogram-driven) on the calling thread's context.
SolveResult solve(const RetrievalProblem& problem,
                  const ExecutionPolicy& policy);

/// The calling thread's serving context (warm solver shells, scratch
/// result).  Exposed so long-running callers can pin a policy once via
/// set_policy() or inspect retained_bytes(); the solve() overloads above
/// all run on this context.
ExecutionContext& thread_execution_context();

}  // namespace repflow::core
