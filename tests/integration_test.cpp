// End-to-end integration tests: the whole pipeline from allocation scheme
// through workload generation, solving, simulation, and the bench harness's
// own consistency checks — exercised the way the figure benches use it.
#include <gtest/gtest.h>

#include "core/simulator.h"
#include "core/solve.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "graph/checks.h"
#include "support/rng.h"
#include "support/stats.h"
#include "workload/experiments.h"
#include "workload/query_load.h"

namespace repflow {
namespace {

constexpr double kTimeEps = 1e-6;

// A miniature version of the paper's full Section VI methodology: for one
// (N, experiment, scheme, type, load) cell, run a query batch through both
// the black box and the integrated algorithm and check the paper's own
// invariant — total optimal response times match across algorithms.
TEST(EndToEnd, PaperMethodologyCellConsistency) {
  const std::int32_t n = 8;
  Rng rng(42);
  for (int experiment : {1, 3, 5}) {
    for (auto scheme : {decluster::Scheme::kRda, decluster::Scheme::kOrthogonal}) {
      const auto rep = decluster::make_scheme(
          scheme, n, decluster::SiteMapping::kCopyPerSite, rng);
      const auto sys = workload::make_experiment_system(experiment, n, rng);
      const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                         workload::LoadKind::kLoad1);
      double total_bb = 0, total_int = 0, total_par = 0;
      for (int i = 0; i < 10; ++i) {
        const auto problem = core::build_problem(rep, gen.next(rng), sys);
        total_bb += core::solve(problem, core::SolverKind::kBlackBoxBinary)
                        .response_time_ms;
        total_int += core::solve(problem, core::SolverKind::kPushRelabelBinary)
                         .response_time_ms;
        total_par +=
            core::solve(problem, core::SolverKind::kParallelPushRelabelBinary,
                        2)
                .response_time_ms;
      }
      EXPECT_NEAR(total_bb, total_int, 1e-4)
          << "exp " << experiment << " scheme " << decluster::scheme_name(scheme);
      EXPECT_NEAR(total_bb, total_par, 1e-4);
    }
  }
}

// Solve -> simulate -> re-derive: the simulator's measured response equals
// the solver's claim on every instance of a random batch.
TEST(EndToEnd, SimulationConfirmsEverySchedule) {
  Rng rng(43);
  for (int trial = 0; trial < 15; ++trial) {
    const std::int32_t n = 4 + static_cast<std::int32_t>(rng.below(6));
    const auto rep = decluster::make_scheme(
        static_cast<decluster::Scheme>(rng.below(3)), n,
        decluster::SiteMapping::kCopyPerSite, rng);
    const auto sys = workload::make_experiment_system(
        1 + static_cast<std::int32_t>(rng.below(5)), n, rng);
    const workload::QueryGenerator gen(
        n, rng.chance(0.5) ? workload::QueryType::kRange
                           : workload::QueryType::kArbitrary,
        workload::LoadKind::kLoad2);
    const auto problem = core::build_problem(rep, gen.next(rng), sys);
    const auto result =
        core::solve(problem, core::SolverKind::kPushRelabelBinary);
    const auto sim = core::simulate_schedule(problem, result.schedule);
    EXPECT_NEAR(sim.response_ms, result.response_time_ms, kTimeEps);
    EXPECT_EQ(sim.events.size(),
              static_cast<std::size_t>(problem.query_size()));
  }
}

// A saturated stream drives initial loads up; an idle stream leaves them
// at zero; response under saturation exceeds response when idle.
TEST(EndToEnd, StreamSaturationBehaviour) {
  const std::int32_t n = 6;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(44);
  const auto sys = workload::make_experiment_system(4, n, rng);
  const workload::QueryGenerator gen(n, workload::QueryType::kRange,
                                     workload::LoadKind::kLoad2);

  const auto alg6 =
      core::ExecutionPolicy::pinned(core::SolverKind::kPushRelabelBinary);
  // Saturated: all queries arrive at t = 0.
  core::QueryStreamScheduler saturated(rep, sys, alg6);
  Rng qrng1(7);
  for (int i = 0; i < 12; ++i) saturated.submit(gen.next(qrng1), 0.0);

  // Idle: same queries, one per "hour".
  core::QueryStreamScheduler idle(rep, sys, alg6);
  Rng qrng2(7);
  for (int i = 0; i < 12; ++i) {
    idle.submit(gen.next(qrng2), static_cast<double>(i) * 3.6e6);
  }

  EXPECT_GT(saturated.stats().mean_response_ms,
            idle.stats().mean_response_ms);
  EXPECT_DOUBLE_EQ(idle.stats().mean_queue_wait_ms, 0.0);
  EXPECT_GT(saturated.stats().mean_queue_wait_ms, 0.0);
  // Saturated makespan >= the sum-of-work lower bound (every query's
  // buckets are at least one block each on some disk) and >= idle per-query
  // response.
  EXPECT_GE(saturated.stats().makespan_ms,
            saturated.stats().max_response_ms - kTimeEps);
}

// The solver catalog behaves across the full Table IV matrix at a larger N
// than the unit tests use, and final networks always carry valid max flows.
TEST(EndToEnd, LargerNAllExperimentsSmoke) {
  const std::int32_t n = 16;
  Rng rng(45);
  for (int experiment = 1; experiment <= 5; ++experiment) {
    const auto rep = decluster::make_dependent(
        n, decluster::SiteMapping::kCopyPerSite);
    const auto sys = workload::make_experiment_system(experiment, n, rng);
    const workload::QueryGenerator gen(n, workload::QueryType::kArbitrary,
                                       workload::LoadKind::kLoad1);
    const auto problem = core::build_problem(rep, gen.next(rng), sys);
    const auto bb = core::solve(problem, core::SolverKind::kBlackBoxBinary);
    const auto integrated =
        core::solve(problem, core::SolverKind::kPushRelabelBinary);
    EXPECT_NEAR(bb.response_time_ms, integrated.response_time_ms, kTimeEps)
        << "experiment " << experiment;
    EXPECT_GT(bb.maxflow_runs, integrated.maxflow_runs);
  }
}

}  // namespace
}  // namespace repflow
