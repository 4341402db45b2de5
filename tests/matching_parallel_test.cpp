// The parallel Hopcroft-Karp phase engine (MatchingEngine::kParallel).
//
// The engine's contract is strict: at any thread count, with the pooled
// path forced (cutoff 0) or not, the final matching, extracted schedule,
// and every kernel counter (phases / augmentations / DFS visits) must be
// bit-identical to the serial kernel — speculation + ordered commit
// reproduces the serial result exactly (see docs/ALGORITHMS.md for the
// argument).  These tests hold it to that bar differentially, then cover
// the seam plumbing (SolverPool slots, kAuto resolution, metrics) and a
// TSan-scaled concurrent stress case.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/bipartite_matching.h"
#include "core/engine.h"
#include "core/solve.h"
#include "core/solver_pool.h"
#include "graph/workspace.h"
#include "obs/metrics.h"
#include "support/rng.h"

namespace repflow {
namespace {

using core::MatchingEngine;
using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

// Stress iteration counts shrink under REPFLOW_TSAN (defined by the build
// when 'thread' is in REPFLOW_SANITIZE) to absorb TSan's 5-15x slowdown
// without changing what is exercised.
#if defined(REPFLOW_TSAN)
constexpr int kStressIters = 8;
constexpr int kStressThreads = 4;
#else
constexpr int kStressIters = 25;
constexpr int kStressThreads = 6;
#endif

/// Random generalized problem: heterogeneous costs, nonzero delays/loads,
/// 2..4 replicas per bucket.
RetrievalProblem random_problem(std::int32_t disks, std::int64_t buckets,
                                Rng& rng) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.resize(static_cast<std::size_t>(disks));
  p.system.delay_ms.resize(static_cast<std::size_t>(disks));
  p.system.init_load_ms.resize(static_cast<std::size_t>(disks));
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  for (std::size_t d = 0; d < static_cast<std::size_t>(disks); ++d) {
    p.system.cost_ms[d] = 1.0 + static_cast<double>(rng.below(5));
    p.system.delay_ms[d] = static_cast<double>(rng.below(3));
    p.system.init_load_ms[d] = static_cast<double>(rng.below(4));
  }
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 2 + rng.below(3);
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

/// High-replication (c ~ 8) shape: the multi-copy regime the
/// degree-bucketed scan targets, and a denser layer graph for the
/// speculation machinery to chew on.
RetrievalProblem multicopy_problem(std::int32_t disks, std::int64_t buckets,
                                   Rng& rng) {
  RetrievalProblem p = random_problem(disks, buckets, rng);
  for (auto& replica_set : p.replicas) {
    const std::size_t copies =
        std::min<std::size_t>(static_cast<std::size_t>(disks), 6 + rng.below(4));
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

void expect_bit_identical(const SolveResult& serial,
                          const SolveResult& parallel,
                          const std::string& where) {
  EXPECT_EQ(serial.response_time_ms, parallel.response_time_ms) << where;
  EXPECT_EQ(serial.schedule.assigned_disk, parallel.schedule.assigned_disk)
      << where;
  EXPECT_EQ(serial.schedule.per_disk_count, parallel.schedule.per_disk_count)
      << where;
  EXPECT_EQ(serial.binary_probes, parallel.binary_probes) << where;
  EXPECT_EQ(serial.capacity_steps, parallel.capacity_steps) << where;
  EXPECT_EQ(serial.flow_stats.augmentations,
            parallel.flow_stats.augmentations)
      << where;
  EXPECT_EQ(serial.flow_stats.dfs_visits, parallel.flow_stats.dfs_visits)
      << where;
  EXPECT_EQ(serial.flow_stats.global_relabels,
            parallel.flow_stats.global_relabels)
      << where;
}

TEST(MatchingEngineSeam, IdRoundTrip) {
  for (MatchingEngine engine : core::kAllMatchingEngines) {
    const auto parsed =
        core::matching_engine_from_id(core::matching_engine_id(engine));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, engine);
  }
  EXPECT_EQ(core::matching_engine_from_id("auto"), MatchingEngine::kAuto);
  EXPECT_FALSE(core::matching_engine_from_id("bogus").has_value());
}

TEST(MatchingEngineSeam, ResolvePassesThroughConcreteEngines) {
  EXPECT_EQ(core::resolve_matching_engine(MatchingEngine::kSerial),
            MatchingEngine::kSerial);
  EXPECT_EQ(core::resolve_matching_engine(MatchingEngine::kParallel),
            MatchingEngine::kParallel);
  // kAuto resolves to *some* concrete engine regardless of histogram state
  // (kSerial until both phase_ms histograms are trained).
  const MatchingEngine resolved =
      core::resolve_matching_engine(MatchingEngine::kAuto);
  EXPECT_NE(resolved, MatchingEngine::kAuto);
  EXPECT_EQ(core::choose_matching_engine(MatchingEngine::kParallel),
            MatchingEngine::kParallel);
}

TEST(MatchingEngineSeam, SetEngineRejectsAutoAndBadThreads) {
  core::BipartiteMatcher matcher;
  EXPECT_THROW(matcher.set_engine(MatchingEngine::kAuto),
               std::invalid_argument);
  EXPECT_THROW(matcher.set_engine(MatchingEngine::kParallel, 0),
               std::invalid_argument);
  matcher.set_engine(MatchingEngine::kParallel, 2);
  EXPECT_EQ(matcher.engine(), MatchingEngine::kParallel);
}

// The tentpole guarantee: full solves through the parallel engine, with the
// pooled path forced (cutoff 0, so even one-bucket phases run the
// speculation + ordered-commit machinery), are bit-identical to serial at
// 1, 2, and 4 threads — schedule, T, and every counter.
TEST(ParallelMatching, BitIdenticalToSerialAcrossThreads) {
  Rng rng(9101);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(
        random_problem(4 + static_cast<std::int32_t>(rng.below(8)),
                       10 + static_cast<std::int64_t>(rng.below(60)), rng));
  }
  for (int i = 0; i < 4; ++i) {
    problems.push_back(
        multicopy_problem(8 + static_cast<std::int32_t>(rng.below(8)),
                          20 + static_cast<std::int64_t>(rng.below(80)), rng));
  }

  core::IntegratedMatchingSolver serial(MatchingEngine::kSerial);
  SolveResult serial_result;
  for (const int threads : {1, 2, 4}) {
    core::IntegratedMatchingSolver parallel(MatchingEngine::kParallel,
                                            threads);
    parallel.set_parallel_cutoff(0);  // force the pooled path everywhere
    SolveResult parallel_result;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      serial.solve_into(problems[i], serial_result);
      parallel.solve_into(problems[i], parallel_result);
      expect_bit_identical(serial_result, parallel_result,
                           "threads=" + std::to_string(threads) +
                               " problem #" + std::to_string(i));
    }
  }
}

// The default cutoff path (2048) must also match: phases fall below the
// cutoff and run the serial kernel inline inside the parallel engine.
TEST(ParallelMatching, BitIdenticalWithDefaultCutoff) {
  Rng rng(9102);
  core::IntegratedMatchingSolver serial(MatchingEngine::kSerial);
  core::IntegratedMatchingSolver parallel(MatchingEngine::kParallel, 2);
  SolveResult a;
  SolveResult b;
  for (int i = 0; i < 8; ++i) {
    const RetrievalProblem p =
        random_problem(6, 15 + static_cast<std::int64_t>(rng.below(40)), rng);
    serial.solve_into(p, a);
    parallel.solve_into(p, b);
    expect_bit_identical(a, b, "problem #" + std::to_string(i));
  }
}

// Retained-matching resume + snapshot/restore under the parallel engine:
// drive two matchers (serial / parallel) through the same capacity
// sequence directly and compare the full matching state at every step —
// the Algorithm 6 conserve-and-backtrack machinery must be engine-blind.
TEST(ParallelMatching, RetainedResumeAndSnapshotRestoreParity) {
  Rng rng(9103);
  const RetrievalProblem problem = random_problem(8, 60, rng);

  core::BipartiteMatcher serial;
  core::BipartiteMatcher parallel;
  parallel.set_engine(MatchingEngine::kParallel, 3);
  parallel.set_parallel_cutoff(0);
  graph::MatchingWorkspace ws_serial;
  graph::MatchingWorkspace ws_parallel;
  serial.rebind(problem, ws_serial);
  parallel.rebind(problem, ws_parallel);

  auto expect_same_state = [&](const std::string& where) {
    EXPECT_EQ(serial.matched(), parallel.matched()) << where;
    EXPECT_EQ(serial.phases(), parallel.phases()) << where;
    EXPECT_EQ(serial.augmentations(), parallel.augmentations()) << where;
    EXPECT_EQ(serial.visits(), parallel.visits()) << where;
    EXPECT_EQ(ws_serial.match, ws_parallel.match) << where;
    EXPECT_EQ(ws_serial.load, ws_parallel.load) << where;
    EXPECT_EQ(ws_serial.free_buckets, ws_parallel.free_buckets) << where;
  };

  // Infeasible probe: partial matching, retained.
  serial.set_capacities_for_time(2.0);
  parallel.set_capacities_for_time(2.0);
  serial.augment_to_maximum();
  parallel.augment_to_maximum();
  expect_same_state("after infeasible probe");

  std::vector<std::int32_t> snap_serial;
  std::vector<std::int32_t> snap_parallel;
  serial.save_matching_into(snap_serial);
  parallel.save_matching_into(snap_parallel);
  EXPECT_EQ(snap_serial, snap_parallel);

  // Retained resume at a laxer time: only free buckets are augmented from.
  serial.set_capacities_for_time(50.0);
  parallel.set_capacities_for_time(50.0);
  EXPECT_EQ(serial.augment_to_maximum(), parallel.augment_to_maximum());
  expect_same_state("after retained resume");

  // Backtrack to the snapshot and resume again mid-range.
  serial.restore_matching(snap_serial);
  parallel.restore_matching(snap_parallel);
  expect_same_state("after restore");
  serial.set_capacities_for_time(20.0);
  parallel.set_capacities_for_time(20.0);
  EXPECT_EQ(serial.augment_to_maximum(), parallel.augment_to_maximum());
  expect_same_state("after post-restore resume");
}

// Concurrent stress: independent solver shells on their own threads, each
// running the parallel engine with the pooled path forced.  Shells share
// no mutable state (metrics are atomic), so this is the
// one-pool-per-thread serving pattern under maximum interleaving; run
// under TSan in the sanitizer CI job.
TEST(ParallelMatching, ConcurrentSolversStress) {
  Rng seed_rng(9104);
  std::vector<std::uint64_t> seeds;
  for (int t = 0; t < kStressThreads; ++t) seeds.push_back(seed_rng());

  std::vector<std::thread> threads;
  std::vector<int> failures(static_cast<std::size_t>(kStressThreads), 0);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([t, &seeds, &failures]() {
      Rng rng(seeds[static_cast<std::size_t>(t)]);
      core::IntegratedMatchingSolver serial(MatchingEngine::kSerial);
      core::IntegratedMatchingSolver parallel(MatchingEngine::kParallel, 2);
      parallel.set_parallel_cutoff(0);
      SolveResult a;
      SolveResult b;
      for (int i = 0; i < kStressIters; ++i) {
        const RetrievalProblem p = random_problem(
            4 + static_cast<std::int32_t>(rng.below(6)),
            8 + static_cast<std::int64_t>(rng.below(40)), rng);
        serial.solve_into(p, a);
        parallel.solve_into(p, b);
        if (a.response_time_ms != b.response_time_ms ||
            a.schedule.assigned_disk != b.schedule.assigned_disk ||
            a.flow_stats.dfs_visits != b.flow_stats.dfs_visits) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kStressThreads; ++t) {
    EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0)
        << "worker " << t << " saw serial/parallel divergence";
  }
}

// Degree-bucketed adjacency changes the schedule (arc order steers the
// DFS) but never the optimum: any complete matching extracted under
// caps(T*) has response time exactly T*.
TEST(ParallelMatching, DegreeBucketedToggleKeepsOptimalT) {
  Rng rng(9105);
  for (int i = 0; i < 6; ++i) {
    const RetrievalProblem p =
        multicopy_problem(10, 40 + static_cast<std::int64_t>(rng.below(40)),
                          rng);
    core::IntegratedMatchingSolver bucketed(MatchingEngine::kSerial);
    core::IntegratedMatchingSolver flat(MatchingEngine::kSerial);
    flat.set_degree_bucketed(false);
    SolveResult a;
    SolveResult b;
    bucketed.solve_into(p, a);
    flat.solve_into(p, b);
    EXPECT_EQ(a.response_time_ms, b.response_time_ms)
        << "problem #" << i;
  }
}

TEST(MatchingEngineSeam, PoolPinnedParallelMatchesSerialSlot) {
  Rng rng(9106);
  const RetrievalProblem problem = random_problem(8, 50, rng);

  core::SolverPool serial_pool(/*threads=*/2);
  serial_pool.set_matching_engine(MatchingEngine::kSerial);
  core::SolverPool parallel_pool(/*threads=*/2);
  parallel_pool.set_matching_engine(MatchingEngine::kParallel);

  SolveResult a;
  SolveResult b;
  serial_pool.solve_into(problem, SolverKind::kIntegratedMatching, a);
  parallel_pool.solve_into(problem, SolverKind::kIntegratedMatching, b);
  expect_bit_identical(a, b, "pool pinned parallel");

  // The parallel slot retains the phase-engine state (atomic stamps +
  // lanes) on top of the shared workspace footprint.
  EXPECT_GT(parallel_pool.retained_bytes(), 0u);

  // set_threads drops the parallel matching slot; the next solve rebuilds
  // it with the new worker count and still matches.
  parallel_pool.set_threads(3);
  parallel_pool.solve_into(problem, SolverKind::kIntegratedMatching, b);
  expect_bit_identical(a, b, "pool after set_threads");
}

TEST(MatchingEngineSeam, SolveOptionsPlumbMatchingEngine) {
  Rng rng(9107);
  const RetrievalProblem problem = random_problem(6, 30, rng);

  core::SolveOptions serial_opts;
  serial_opts.kind = SolverKind::kIntegratedMatching;
  serial_opts.matching_engine = MatchingEngine::kSerial;
  core::SolveOptions parallel_opts = serial_opts;
  parallel_opts.matching_engine = MatchingEngine::kParallel;
  EXPECT_EQ(parallel_opts.policy().matching_engine,
            MatchingEngine::kParallel);

  const SolveResult a = core::solve(problem, serial_opts);
  const SolveResult b = core::solve(problem, parallel_opts);
  expect_bit_identical(a, b, "SolveOptions.matching_engine");
}

// Telemetry is compiled out under the obs kill switch.
#if !defined(REPFLOW_OBS_DISABLED)
TEST(ParallelMatching, ForcedPoolPathRecordsParallelMetrics) {
  auto& reg = obs::Registry::global();
  obs::Counter& visits = reg.counter("matching.visits");
  obs::Counter& par_phases = reg.counter("matching.parallel.phases");
  obs::Counter& commits = reg.counter("matching.parallel.spec_commits");
  obs::Counter& conflicts = reg.counter("matching.parallel.spec_conflicts");
  const std::uint64_t visits_before = visits.value();
  const std::uint64_t phases_before = par_phases.value();
  const std::uint64_t outcomes_before = commits.value() + conflicts.value();
  const auto phase_samples =
      reg.histogram("matching.parallel.phase_ms").summary().count;

  Rng rng(9108);
  const RetrievalProblem problem = random_problem(8, 80, rng);
  core::IntegratedMatchingSolver parallel(MatchingEngine::kParallel, 2);
  parallel.set_parallel_cutoff(0);
  SolveResult result;
  parallel.solve_into(problem, result);

  EXPECT_GT(visits.value(), visits_before);
  EXPECT_GT(par_phases.value(), phases_before);
  // Every free root of every pooled phase lands in exactly one bin:
  // committed speculation or sequential rerun.
  EXPECT_GT(commits.value() + conflicts.value(), outcomes_before);
  EXPECT_GT(reg.histogram("matching.parallel.phase_ms").summary().count,
            phase_samples);
}

// The matcher tallies path lengths in plain locals and folds them into the
// registry once per augment_to_maximum(); the fold must not lose or invent a
// single path.  After K solves, the histogram's count delta is exactly the
// summed augmentations, and matching.phase_count moves by the summed phases.
TEST(ParallelMatching, PathLengthFoldCountsEveryAugmentation) {
  auto& reg = obs::Registry::global();
  obs::Histogram& path_len = reg.histogram("matching.augmenting_path_len");
  obs::Counter& phase_count = reg.counter("matching.phase_count");
  for (const MatchingEngine engine :
       {MatchingEngine::kSerial, MatchingEngine::kParallel}) {
    core::IntegratedMatchingSolver solver(engine, 2);
    if (engine == MatchingEngine::kParallel) solver.set_parallel_cutoff(0);
    const std::uint64_t paths_before = path_len.summary().count;
    const std::uint64_t phases_before = phase_count.value();
    std::uint64_t augmentations = 0;
    std::uint64_t phases = 0;
    Rng rng(9110);
    SolveResult result;
    for (int k = 0; k < 6; ++k) {
      const RetrievalProblem problem = random_problem(
          4 + static_cast<std::int32_t>(rng.below(10)),
          20 + static_cast<std::int64_t>(rng.below(120)), rng);
      solver.solve_into(problem, result);
      augmentations += result.flow_stats.augmentations;
      phases += result.flow_stats.global_relabels;  // HK phases
    }
    const char* id = core::matching_engine_id(engine);
    EXPECT_GT(augmentations, 0u) << id;
    EXPECT_EQ(path_len.summary().count - paths_before, augmentations) << id;
    EXPECT_EQ(phase_count.value() - phases_before, phases) << id;
    // Every augmenting path alternates bucket -> disk arcs: odd, >= 1.
    EXPECT_GE(path_len.summary().min, 1.0) << id;
  }
}

TEST(MatchingEngineSeam, PoolCountsSolvesPerEngine) {
  auto& reg = obs::Registry::global();
  obs::Counter& serial_solves = reg.counter("matching.serial.solves");
  obs::Counter& parallel_solves = reg.counter("matching.parallel.solves");
  const std::uint64_t s0 = serial_solves.value();
  const std::uint64_t p0 = parallel_solves.value();

  Rng rng(9109);
  const RetrievalProblem problem = random_problem(6, 24, rng);
  core::SolverPool pool(/*threads=*/2);
  SolveResult result;
  pool.set_matching_engine(MatchingEngine::kSerial);
  pool.solve_into(problem, SolverKind::kIntegratedMatching, result);
  pool.set_matching_engine(MatchingEngine::kParallel);
  pool.solve_into(problem, SolverKind::kIntegratedMatching, result);
  EXPECT_EQ(serial_solves.value(), s0 + 1);
  EXPECT_EQ(parallel_solves.value(), p0 + 1);
}
#endif  // REPFLOW_OBS_DISABLED

}  // namespace
}  // namespace repflow
