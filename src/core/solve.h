// One-call façade: run any solver of the catalog on a problem instance.
// This is the primary public API entry point (see examples/quickstart.cpp).
// Internally every overload delegates to a thread_local ExecutionContext
// (docs/SERVING.md), the same spine the stream scheduler, batch solver, and
// incremental sessions run on.
#pragma once

#include <initializer_list>

#include "core/execution.h"
#include "core/problem.h"
#include "core/solver.h"

namespace repflow::core {

/// Adaptive form: run the kind choose_solver() picks for `problem` (the
/// same as solve(problem, ExecutionPolicy{})).
SolveResult solve(const RetrievalProblem& problem);

/// Solve `problem` with the chosen algorithm.  `threads` and `engine` only
/// matter for kParallelPushRelabelBinary (ignored otherwise; threads must
/// be >= 1).
SolveResult solve(const RetrievalProblem& problem, SolverKind kind,
                  int threads = 2, EngineKind engine = EngineKind::kRound);

/// Policy form: run under an explicit ExecutionPolicy (pinned or degree
/// rule) on the calling thread's context.
SolveResult solve(const RetrievalProblem& problem,
                  const ExecutionPolicy& policy);

/// `solve(p, {})` would otherwise bind to the kind form above with a
/// value-initialised SolverKind and silently run alg1; the adaptive form is
/// solve(problem).
SolveResult solve(const RetrievalProblem& problem,
                  std::initializer_list<SolverKind>) = delete;

/// The calling thread's serving context (warm solver shells, scratch
/// result).  Exposed so long-running callers can pin a policy once via
/// set_policy() or inspect retained_bytes(); the solve() overloads above
/// all run on this context.
ExecutionContext& thread_execution_context();

}  // namespace repflow::core
