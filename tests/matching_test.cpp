// The serial Hopcroft-Karp kernel (core::BipartiteMatcher) and its
// Algorithm 6 driver (core::IntegratedMatchingSolver): the conserve-and-
// backtrack snapshot/restore step, the degree-bucketed adjacency toggle,
// and the per-probe path-length telemetry fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bipartite_matching.h"
#include "graph/workspace.h"
#include "obs/metrics.h"
#include "support/rng.h"

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;

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
/// degree-bucketed scan targets.
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

// The Algorithm 6 conserve-and-backtrack step on the matcher directly:
// restoring a snapshot taken after an infeasible probe must rebuild exactly
// the snapshot-time matching state (count, assignment, per-disk loads, free
// list), even after a retained resume at a laxer time grew the matching,
// and a resume from the restored state must reach the same maximum
// cardinality as a freshly rebound matcher at the same capacities.
TEST(Matching, SnapshotRestoreRoundTripsAndResumes) {
  Rng rng(9103);
  const RetrievalProblem problem = random_problem(8, 60, rng);
  const auto q = static_cast<std::int64_t>(problem.query_size());

  core::BipartiteMatcher matcher;
  graph::MatchingWorkspace ws;
  matcher.rebind(problem, ws);

  // Infeasible probe: at most two buckets fit on each of the eight disks.
  matcher.set_capacities_for_time(2.0);
  const std::int64_t snap_matched = matcher.augment_to_maximum();
  ASSERT_LT(snap_matched, q);
  std::vector<std::int32_t> snapshot;
  matcher.save_matching_into(snapshot);
  EXPECT_EQ(snapshot, ws.match);
  const std::vector<std::int32_t> snap_match = ws.match;
  const std::vector<std::int32_t> snap_load = ws.load;
  const std::vector<std::int32_t> snap_free = ws.free_buckets;

  // Retained resume at a laxer time grows the matching.
  matcher.set_capacities_for_time(50.0);
  EXPECT_GT(matcher.augment_to_maximum(), snap_matched);

  // Backtrack: every piece of matching state is back at snapshot time.
  matcher.restore_matching(snapshot);
  EXPECT_EQ(matcher.matched(), snap_matched);
  EXPECT_EQ(ws.match, snap_match);
  EXPECT_EQ(ws.load, snap_load);
  EXPECT_EQ(ws.free_buckets, snap_free);

  // Resume mid-range from the restored state; the maximum matching size at
  // fixed capacities is unique, so a fresh matcher must agree.
  for (const double t : {6.0, 20.0}) {
    matcher.restore_matching(snapshot);
    matcher.set_capacities_for_time(t);
    const std::int64_t resumed = matcher.augment_to_maximum();

    core::BipartiteMatcher fresh;
    graph::MatchingWorkspace fresh_ws;
    fresh.rebind(problem, fresh_ws);
    fresh.set_capacities_for_time(t);
    EXPECT_EQ(resumed, fresh.augment_to_maximum()) << "t=" << t;
    EXPECT_EQ(matcher.matched(), resumed) << "t=" << t;
  }
}

// Degree-bucketed adjacency changes the schedule (arc order steers the
// DFS) but never the optimum: any complete matching extracted under
// caps(T*) has response time exactly T*.
TEST(Matching, DegreeBucketedToggleKeepsOptimalT) {
  Rng rng(9105);
  for (int i = 0; i < 6; ++i) {
    const RetrievalProblem p =
        multicopy_problem(10, 40 + static_cast<std::int64_t>(rng.below(40)),
                          rng);
    core::IntegratedMatchingSolver bucketed;
    core::IntegratedMatchingSolver flat;
    flat.set_degree_bucketed(false);
    SolveResult a;
    SolveResult b;
    bucketed.solve_into(p, a);
    flat.solve_into(p, b);
    EXPECT_EQ(a.response_time_ms, b.response_time_ms)
        << "problem #" << i;
  }
}

// Telemetry is compiled out under the obs kill switch.
#if !defined(REPFLOW_OBS_DISABLED)
// The matcher tallies path lengths in plain locals and folds them into the
// registry once per augment_to_maximum(); the fold must not lose or invent a
// single path.  After K solves, the histogram's count delta is exactly the
// summed augmentations, and matching.phase_count moves by the summed phases.
TEST(Matching, PathLengthFoldCountsEveryAugmentation) {
  auto& reg = obs::Registry::global();
  obs::Histogram& path_len = reg.histogram("matching.augmenting_path_len");
  obs::Counter& phase_count = reg.counter("matching.phase_count");
  core::IntegratedMatchingSolver solver;
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
  EXPECT_GT(augmentations, 0u);
  EXPECT_EQ(path_len.summary().count - paths_before, augmentations);
  EXPECT_EQ(phase_count.value() - phases_before, phases);
  // Every augmenting path alternates bucket -> disk arcs: odd, >= 1.
  EXPECT_GE(path_len.summary().min, 1.0);
}
#endif  // REPFLOW_OBS_DISABLED

}  // namespace
}  // namespace repflow

