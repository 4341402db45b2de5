// Randomized differential testing of the solver catalog.
//
// Every solver is run against two independent oracles on small random
// instances: BruteForceSolver (exhaustive assignment enumeration, no flow
// machinery at all) and ReferenceSolver (candidate-sorting + from-zero
// Edmonds-Karp).  Agreement on the optimal response time plus a feasible,
// correctly-priced schedule (verified through the analysis checkers) is the
// strongest end-to-end evidence the integrated algorithms are right.
//
// Degenerate shapes get their own cases: empty query, single disk, all-equal
// costs, and capacity schedules that start at zero (a disk whose delay or
// initial load already exceeds small candidate times).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/schedule_invariants.h"
#include "core/brute_force.h"
#include "core/reference.h"
#include "core/solve.h"
#include "support/rng.h"

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

// The whole catalog, including every kind added after this test was
// written: the list is generated from REPFLOW_SOLVER_CATALOG.
constexpr auto& kCatalog = core::kAllSolverKinds;

RetrievalProblem basic_shell(std::int32_t disks, std::int64_t buckets) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  return p;
}

RetrievalProblem random_basic_problem(std::int32_t disks, std::int64_t buckets,
                                      Rng& rng) {
  RetrievalProblem p = basic_shell(disks, buckets);
  for (auto& replica_set : p.replicas) {
    const std::size_t copies =
        1 + rng.below(static_cast<std::uint64_t>(std::min(disks, 3)));
    replica_set.clear();
    while (replica_set.size() < copies) {
      const auto d = static_cast<core::DiskId>(
          rng.below(static_cast<std::uint64_t>(disks)));
      bool seen = false;
      for (core::DiskId have : replica_set) seen = seen || have == d;
      if (!seen) replica_set.push_back(d);
    }
  }
  p.validate();
  return p;
}

RetrievalProblem random_general_problem(std::int32_t disks,
                                        std::int64_t buckets, Rng& rng) {
  RetrievalProblem p = random_basic_problem(disks, buckets, rng);
  for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
    p.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(5));
    p.system.delay_ms[d] = static_cast<double>(rng.below(3));
    p.system.init_load_ms[d] = static_cast<double>(rng.below(4));
  }
  p.validate();
  return p;
}

/// Run `kind` and hold its result against the oracle response time and the
/// analysis-layer schedule checkers.  The parallel kind runs once per
/// concrete engine (Hong & He and the round engine must both return the
/// exact optimum — EXPECT_DOUBLE_EQ, not an epsilon).
void expect_matches_oracle(const RetrievalProblem& problem, SolverKind kind,
                           double oracle_ms, const char* oracle_name) {
  for (core::EngineKind engine : core::kAllEngineKinds) {
    const SolveResult result =
        core::solve(problem, kind, /*threads=*/2, engine);
    EXPECT_DOUBLE_EQ(result.response_time_ms, oracle_ms)
        << core::solver_id(kind) << "/" << core::engine_id(engine) << " vs "
        << oracle_name;
    const auto report = analysis::check_solve_result(problem, result);
    EXPECT_TRUE(report.ok())
        << core::solver_id(kind) << "/" << core::engine_id(engine) << ": "
        << report.to_string();
    // The engine only differentiates the parallel kind.
    if (kind != SolverKind::kParallelPushRelabelBinary) break;
  }
}

TEST(DifferentialSolve, CatalogAgreesWithBruteForceOnBasicInstances) {
  Rng rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_basic_problem(disks, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    EXPECT_TRUE(analysis::check_solve_result(problem, oracle).ok());
    for (SolverKind kind : kCatalog) {
      expect_matches_oracle(problem, kind, oracle.response_time_ms,
                            "brute_force");
    }
  }
}

TEST(DifferentialSolve, CatalogAgreesWithOraclesOnGeneralizedInstances) {
  Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_general_problem(disks, buckets, rng);
    const SolveResult brute = core::BruteForceSolver(problem).solve();
    const SolveResult reference = core::ReferenceSolver(problem).solve();
    EXPECT_DOUBLE_EQ(brute.response_time_ms, reference.response_time_ms);
    for (SolverKind kind : kCatalog) {
      if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic only
      expect_matches_oracle(problem, kind, brute.response_time_ms,
                            "brute_force");
    }
  }
}

TEST(DifferentialSolve, SingleDiskDegenerate) {
  Rng rng(5);
  for (std::int64_t buckets : {1, 3, 7}) {
    RetrievalProblem problem = random_basic_problem(1, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    // One disk serving everything: T = k * C exactly.
    EXPECT_DOUBLE_EQ(oracle.response_time_ms,
                     static_cast<double>(buckets));
    for (SolverKind kind : kCatalog) {
      expect_matches_oracle(problem, kind, oracle.response_time_ms,
                            "brute_force");
    }
  }
}

TEST(DifferentialSolve, AllEqualCostsManyReplicas) {
  // Fully replicated on equal disks: perfect balancing, T = ceil(|Q|/N)*C.
  const std::int32_t disks = 4;
  const std::int64_t buckets = 10;
  RetrievalProblem problem = basic_shell(disks, buckets);
  for (auto& replica_set : problem.replicas) {
    replica_set = {0, 1, 2, 3};
  }
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 3.0);  // ceil(10/4) * 1ms
  for (SolverKind kind : kCatalog) {
    expect_matches_oracle(problem, kind, oracle.response_time_ms,
                          "brute_force");
  }
}

TEST(DifferentialSolve, ZeroStartingCapacityFromDelaysAndLoads) {
  // Disk 1's delay + initial load dwarf disk 0, so every candidate time
  // below 10ms gives it sink capacity zero (capacity_for_time clamps at 0);
  // the integrated algorithms must grow capacities from that all-zero start.
  RetrievalProblem problem = basic_shell(2, 4);
  problem.system.cost_ms = {1.0, 1.0};
  problem.system.delay_ms = {0.0, 6.0};
  problem.system.init_load_ms = {0.0, 4.0};
  problem.replicas = {{0, 1}, {0, 1}, {0, 1}, {0}};
  problem.validate();
  const SolveResult oracle = core::BruteForceSolver(problem).solve();
  // Cheapest to serve everything from disk 0: 4 * 1ms.
  EXPECT_DOUBLE_EQ(oracle.response_time_ms, 4.0);
  for (SolverKind kind : kCatalog) {
    if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic only
    expect_matches_oracle(problem, kind, oracle.response_time_ms,
                          "brute_force");
  }
}

TEST(DifferentialSolve, MatchingKernelOnHighReplicationShapes) {
  // Adversarial shape for the b-matching kernel: replica degrees up to the
  // full disk set make the layer graph dense and force multi-phase
  // augmentation, while heterogeneous costs exercise the capacity
  // incrementer's direct (network-free) mode.
  Rng rng(0xb1b2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto disks = static_cast<std::int32_t>(3 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(4 + rng.below(6));
    RetrievalProblem problem = basic_shell(disks, buckets);
    for (auto& replica_set : problem.replicas) {
      const auto copies =
          1 + rng.below(static_cast<std::uint64_t>(disks));  // up to all
      replica_set.clear();
      while (replica_set.size() < copies) {
        const auto d = static_cast<core::DiskId>(
            rng.below(static_cast<std::uint64_t>(disks)));
        bool seen = false;
        for (core::DiskId have : replica_set) seen = seen || have == d;
        if (!seen) replica_set.push_back(d);
      }
    }
    for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
      problem.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(4));
      problem.system.delay_ms[d] = static_cast<double>(rng.below(3));
      problem.system.init_load_ms[d] = static_cast<double>(rng.below(3));
    }
    problem.validate();
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    expect_matches_oracle(problem, SolverKind::kIntegratedMatching,
                          oracle.response_time_ms, "brute_force");
  }
}

TEST(DifferentialSolve, AdaptiveFacadeMatchesOracle) {
  // solve(problem) routes through choose_solver(); whatever kind the
  // degree rule picks must deliver the oracle optimum.
  Rng rng(424242);
  for (int trial = 0; trial < 15; ++trial) {
    const auto disks = static_cast<std::int32_t>(2 + rng.below(4));
    const auto buckets = static_cast<std::int64_t>(1 + rng.below(8));
    const RetrievalProblem problem =
        random_general_problem(disks, buckets, rng);
    const SolveResult oracle = core::BruteForceSolver(problem).solve();
    const SolveResult adaptive = core::solve(problem);
    EXPECT_DOUBLE_EQ(adaptive.response_time_ms, oracle.response_time_ms)
        << "adaptive picked " << core::solver_id(core::choose_solver(problem));
    const auto report = analysis::check_solve_result(problem, adaptive);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(DifferentialSolve, EmptyQueryDegenerate) {
  const RetrievalProblem problem = basic_shell(3, 0);
  for (SolverKind kind : kCatalog) {
    const SolveResult result = core::solve(problem, kind);
    EXPECT_DOUBLE_EQ(result.response_time_ms, 0.0) << core::solver_id(kind);
    EXPECT_TRUE(result.schedule.assigned_disk.empty());
    const auto report = analysis::check_solve_result(problem, result);
    EXPECT_TRUE(report.ok())
        << core::solver_id(kind) << ": " << report.to_string();
  }
}

}  // namespace
}  // namespace repflow
