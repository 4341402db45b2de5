// Tests for both parallel push-relabel engines (Section V): the MPMC
// queue, flow-value agreement with the sequential engine on random
// networks, integrated resume semantics, round-engine workspace sharing,
// and multi-thread stress runs (TSan-scaled iteration counts).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/checks.h"
#include "graph/ford_fulkerson.h"
#include "graph/generators.h"
#include "graph/workspace.h"
#include "parallel/mpmc_queue.h"
#include "parallel/parallel_engine.h"
#include "parallel/parallel_push_relabel.h"
#include "parallel/round_push_relabel.h"
#include "support/rng.h"

namespace repflow::parallel {
namespace {

using graph::Cap;
using graph::FlowNetwork;
using graph::Vertex;

// Stress iteration counts shrink under REPFLOW_TSAN (defined by the build
// when 'thread' is in REPFLOW_SANITIZE) to absorb TSan's 5-15x slowdown
// without changing what is exercised.
#if defined(REPFLOW_TSAN)
constexpr int kStressIters = 8;
constexpr int kStressThreads = 4;
constexpr int kSweepRepeats = 10;
#else
constexpr int kStressIters = 25;
constexpr int kStressThreads = 6;
constexpr int kSweepRepeats = 120;
#endif

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  int out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
}

TEST(MpmcQueue, ReportsFull) {
  MpmcQueue<int> q(2);  // rounds to capacity 2
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  int out;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpmcQueue, ConcurrentProducersConsumers) {
  MpmcQueue<int> q(1024);
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.try_push(p * kPerProducer + i)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (consumed.load() < kProducers * kPerProducer) {
        if (q.try_pop(v)) {
          sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

Cap sequential_value(FlowNetwork net, Vertex s, Vertex t) {
  graph::FordFulkerson engine(net, s, t, graph::SearchOrder::kBfs);
  return engine.solve_from_zero().value;
}

// The Sweep corpus, shared by the parameterized sweeps and the repeated
// termination regression below.
graph::GeneratedNetwork sweep_general_network(int param) {
  Rng rng(4000 + param);
  return graph::random_general(2 + static_cast<std::int32_t>(rng.below(40)),
                               static_cast<std::int32_t>(rng.below(200)),
                               1 + static_cast<Cap>(rng.below(25)), rng);
}

graph::GeneratedNetwork sweep_shaped_network(int param) {
  Rng rng(5000 + param);
  const auto left = 5 + static_cast<std::int32_t>(rng.below(60));
  const auto right = 2 + static_cast<std::int32_t>(rng.below(14));
  return graph::random_bipartite(left, right, 2,
                                 1 + static_cast<Cap>(rng.below(6)), rng);
}

class ParallelMatchesSequential : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMatchesSequential, RandomGeneralNetworks) {
  auto g = sweep_general_network(GetParam());
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int threads : {1, 2, 4}) {
    FlowNetwork net = g.net;  // fresh flows
    net.clear_flow();
    ParallelPushRelabel engine(net, g.source, g.sink, threads);
    EXPECT_EQ(engine.resume(), reference) << "threads=" << threads;
    const auto check = graph::validate_flow(net, g.source, g.sink);
    EXPECT_TRUE(check.ok) << check.reason;
  }
}

TEST_P(ParallelMatchesSequential, RetrievalShapedNetworks) {
  auto g = sweep_shaped_network(GetParam());
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  FlowNetwork net = g.net;
  net.clear_flow();
  ParallelPushRelabel engine(net, g.source, g.sink, 2);
  EXPECT_EQ(engine.resume(), reference);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelMatchesSequential,
                         ::testing::Range(0, 15));

TEST(ParallelIntegrated, ResumeConservesFlowAcrossCapacityChanges) {
  // Same scenario as the sequential integrated test: raising a sink-edge
  // capacity and resuming must not restart from zero.
  FlowNetwork net(3);
  const auto sa = net.add_arc(0, 1, 10);
  const auto at = net.add_arc(1, 2, 3);
  ParallelPushRelabel engine(net, 0, 2, 2);
  EXPECT_EQ(engine.resume(), 3);
  EXPECT_EQ(net.flow(at), 3);
  net.set_capacity(at, 8);
  EXPECT_EQ(engine.resume(), 8);
  EXPECT_EQ(net.flow(sa), 8);
  const auto check = graph::validate_flow(net, 0, 2);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(ParallelIntegrated, RestoredSnapshotsAreHonored) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 6);
  const auto at = net.add_arc(1, 2, 2);
  ParallelPushRelabel engine(net, 0, 2, 2);
  EXPECT_EQ(engine.resume(), 2);
  const auto snapshot = net.save_flows();
  net.set_capacity(at, 6);
  EXPECT_EQ(engine.resume(), 6);
  net.restore_flows(snapshot);
  engine.reset_excess_after_restore(2);
  net.set_capacity(at, 4);
  EXPECT_EQ(engine.resume(), 4);
}

TEST(ParallelEngineConfig, RejectsBadArguments) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 1);
  EXPECT_THROW(ParallelPushRelabel(net, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(ParallelPushRelabel(net, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(parallel_engine_factory(0), std::invalid_argument);
}

TEST(ParallelStress, RepeatedRunsAreStable) {
  // Run the same instance many times with 4 threads; any race manifests as
  // a wrong value or a validation failure.
  Rng rng(717);
  auto g = graph::layered_network(4, 10, 8, rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int iter = 0; iter < 20; ++iter) {
    FlowNetwork net = g.net;
    net.clear_flow();
    ParallelPushRelabel engine(net, g.source, g.sink, 4);
    ASSERT_EQ(engine.resume(), reference) << "iteration " << iter;
    ASSERT_TRUE(graph::validate_flow(net, g.source, g.sink).ok);
  }
}

TEST(ParallelStress, SweepCorpusRepeatedStaysExact) {
  // Termination regression: without the exact-relabel check after the
  // workers exit, an asynchronous relabel could park a vertex at height
  // >= n on a stale label, and the drain returned its excess to the source
  // — about one full sweep in thirty came back short at 2 and 4 threads.
  // Repeating the Sweep corpus kSweepRepeats times catches that rate.
  for (int rep = 0; rep < kSweepRepeats; ++rep) {
    for (int param = 0; param < 15; ++param) {
      const graph::GeneratedNetwork general = sweep_general_network(param);
      const graph::GeneratedNetwork shaped = sweep_shaped_network(param);
      for (const auto* g : {&general, &shaped}) {
        const Cap reference = sequential_value(g->net, g->source, g->sink);
        for (int threads : {2, 4}) {
          FlowNetwork net = g->net;
          net.clear_flow();
          ParallelPushRelabel engine(net, g->source, g->sink, threads);
          ASSERT_EQ(engine.resume(), reference)
              << "rep=" << rep << " param=" << param
              << " threads=" << threads;
          ASSERT_TRUE(graph::validate_flow(net, g->source, g->sink).ok);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round engine (bulk-synchronous, WHFC-style).

class RoundMatchesSequential : public ::testing::TestWithParam<int> {};

struct RoundRun {
  Cap value = 0;
  RoundPushRelabel::RoundStats stats;
  graph::FlowCheck check;
};

RoundRun run_round(const graph::GeneratedNetwork& g, int threads,
                   std::size_t cutoff) {
  FlowNetwork net = g.net;  // fresh flows
  net.clear_flow();
  RoundPushRelabel engine(net, g.source, g.sink, threads);
  engine.set_parallel_cutoff(cutoff);
  RoundRun run;
  run.value = engine.resume();
  run.stats = engine.round_stats();
  run.check = graph::validate_flow(net, g.source, g.sink);
  return run;
}

// Cutoff 0 forces every phase through the pool at threads > 1; a cutoff
// above every Sweep network's size hands the whole run to the sequential
// delegate, as the default does for Figure 10's ~900-vertex networks.
constexpr std::size_t kPoolCutoff = 0;
constexpr std::size_t kDelegateCutoff = 1 << 20;

TEST_P(RoundMatchesSequential, RandomGeneralNetworks) {
  const auto g = sweep_general_network(GetParam());
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int threads : {1, 2, 4}) {
    const RoundRun run = run_round(g, threads, kPoolCutoff);
    EXPECT_EQ(run.value, reference) << "threads=" << threads;
    EXPECT_TRUE(run.check.ok) << run.check.reason;
    EXPECT_GT(run.stats.rounds, 0u);
    EXPECT_GT(run.stats.global_relabels, 0u);
    if (threads == 1) {
      // A one-thread engine always hands the run to the delegate.
      EXPECT_EQ(run.stats.sequential_passes, 1u);
    } else {
      EXPECT_EQ(run.stats.sequential_passes, 0u);
      EXPECT_GT(run.stats.discharge_work, 0u);
    }
  }
}

TEST_P(RoundMatchesSequential, RetrievalShapedNetworks) {
  const auto g = sweep_shaped_network(GetParam());
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (std::size_t cutoff : {kPoolCutoff, kDelegateCutoff}) {
    const RoundRun run = run_round(g, 2, cutoff);
    EXPECT_EQ(run.value, reference) << "cutoff=" << cutoff;
    EXPECT_TRUE(run.check.ok) << run.check.reason;
    EXPECT_EQ(run.stats.sequential_passes,
              cutoff == kDelegateCutoff ? 1u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundMatchesSequential,
                         ::testing::Range(0, 15));

TEST(RoundIntegrated, ResumeConservesFlowAcrossCapacityChanges) {
  for (std::size_t cutoff : {kPoolCutoff, kDelegateCutoff}) {
    FlowNetwork net(3);
    const auto sa = net.add_arc(0, 1, 10);
    const auto at = net.add_arc(1, 2, 3);
    RoundPushRelabel engine(net, 0, 2, 2);
    engine.set_parallel_cutoff(cutoff);
    EXPECT_EQ(engine.resume(), 3) << "cutoff=" << cutoff;
    EXPECT_EQ(net.flow(at), 3);
    net.set_capacity(at, 8);
    EXPECT_EQ(engine.resume(), 8) << "cutoff=" << cutoff;
    EXPECT_EQ(net.flow(sa), 8);
    const auto check = graph::validate_flow(net, 0, 2);
    EXPECT_TRUE(check.ok) << check.reason;
  }
}

TEST(RoundIntegrated, RestoredSnapshotsAreHonored) {
  for (std::size_t cutoff : {kPoolCutoff, kDelegateCutoff}) {
    FlowNetwork net(3);
    net.add_arc(0, 1, 6);
    const auto at = net.add_arc(1, 2, 2);
    RoundPushRelabel engine(net, 0, 2, 2);
    engine.set_parallel_cutoff(cutoff);
    EXPECT_EQ(engine.resume(), 2) << "cutoff=" << cutoff;
    const auto snapshot = net.save_flows();
    net.set_capacity(at, 6);
    EXPECT_EQ(engine.resume(), 6) << "cutoff=" << cutoff;
    net.restore_flows(snapshot);
    engine.reset_excess_after_restore(2);
    net.set_capacity(at, 4);
    EXPECT_EQ(engine.resume(), 4) << "cutoff=" << cutoff;
  }
}

TEST(RoundIntegrated, DelegateFollowsFlowsLeftByRounds) {
  // A cutoff change between resumes moves one network from the rounds to
  // the sequential delegate; the delegate must pick up the flow the rounds
  // already sent instead of counting the sink from zero.
  FlowNetwork net(3);
  net.add_arc(0, 1, 10);
  const auto at = net.add_arc(1, 2, 3);
  RoundPushRelabel engine(net, 0, 2, 2);
  engine.set_parallel_cutoff(kPoolCutoff);
  EXPECT_EQ(engine.resume(), 3);
  engine.set_parallel_cutoff(kDelegateCutoff);
  net.set_capacity(at, 8);
  EXPECT_EQ(engine.resume(), 8);
  EXPECT_EQ(engine.round_stats().sequential_passes, 1u);
  EXPECT_TRUE(graph::validate_flow(net, 0, 2).ok);
}

TEST(RoundIntegrated, SharedWorkspaceReusedAcrossEnginesAndRebinds) {
  // One RoundRelabelWorkspace (the MaxflowWorkspace::round pattern) backing
  // successive engines over different networks: the buffers carry no state
  // between runs, only capacity.
  graph::RoundRelabelWorkspace workspace;
  Rng rng(909);
  for (int iter = 0; iter < 6; ++iter) {
    auto g = graph::random_general(
        2 + static_cast<std::int32_t>(rng.below(30)),
        static_cast<std::int32_t>(rng.below(150)),
        1 + static_cast<Cap>(rng.below(12)), rng);
    const Cap reference = sequential_value(g.net, g.source, g.sink);
    FlowNetwork net = g.net;
    net.clear_flow();
    RoundPushRelabel engine(net, g.source, g.sink, 2, &workspace);
    engine.set_parallel_cutoff(0);
    ASSERT_EQ(engine.resume(), reference) << "iteration " << iter;
    ASSERT_TRUE(graph::validate_flow(net, g.source, g.sink).ok);
  }
  EXPECT_GT(workspace.retained_bytes(), 0u);
}

TEST(RoundEngineConfig, RejectsBadArguments) {
  FlowNetwork net(3);
  net.add_arc(0, 1, 1);
  EXPECT_THROW(RoundPushRelabel(net, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(RoundPushRelabel(net, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(parallel_engine_factory(0, core::EngineKind::kRound),
               std::invalid_argument);
}

TEST(RoundStress, RepeatedRunsAreStable) {
  // Same instance, many runs, max worker count: a barrier bug or a racy
  // commit manifests as a wrong value or a validation failure.
  Rng rng(718);
  auto g = graph::layered_network(4, 10, 8, rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  for (int iter = 0; iter < kStressIters; ++iter) {
    FlowNetwork net = g.net;
    net.clear_flow();
    RoundPushRelabel engine(net, g.source, g.sink, 4);
    engine.set_parallel_cutoff(0);
    ASSERT_EQ(engine.resume(), reference) << "iteration " << iter;
    ASSERT_TRUE(graph::validate_flow(net, g.source, g.sink).ok);
  }
}

TEST(RoundStress, ConcurrentSolvesOverSharedInstance) {
  // TSan pressure on the round barrier: several OS threads each drive their
  // own engine + workspace (the one-workspace-per-thread contract) over a
  // shared immutable generator instance, with the engine's own worker pool
  // nested inside each.  Every result must match the sequential reference.
  Rng rng(808);
  auto g = graph::layered_network(3, 8, 6, rng);
  const Cap reference = sequential_value(g.net, g.source, g.sink);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&] {
      graph::RoundRelabelWorkspace workspace;
      for (int iter = 0; iter < kStressIters; ++iter) {
        FlowNetwork net = g.net;
        net.clear_flow();
        RoundPushRelabel engine(net, g.source, g.sink, 2, &workspace);
        engine.set_parallel_cutoff(0);  // every phase crosses the barrier
        if (engine.resume() != reference ||
            !graph::validate_flow(net, g.source, g.sink).ok) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace repflow::parallel
