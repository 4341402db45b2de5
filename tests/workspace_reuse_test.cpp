// Workspace-reuse guarantees of the zero-allocation solve path.
//
// Two properties, both acceptance criteria of the CSR/workspace refactor:
//  1. Steady state: the second and subsequent solve_into() calls through a
//     pooled solver perform ZERO heap allocations (proved by a counting
//     global operator new).
//  2. Fidelity: a reused solver shell returns bit-identical SolveResults
//     to a freshly constructed solver, across the whole catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/check.h"
#include "core/execution.h"
#include "core/solve.h"
#include "core/solver_pool.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "support/rng.h"

// ---------------------------------------------------------------------------
// Counting global allocator.  Counting is off by default so gtest / library
// bookkeeping outside the measured window is invisible; the test flips the
// flag around the steady-state calls only.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void note_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// ---------------------------------------------------------------------------

namespace repflow {
namespace {

using core::RetrievalProblem;
using core::SolveResult;
using core::SolverKind;

// The whole catalog (generated from REPFLOW_SOLVER_CATALOG), so any new
// kind is automatically held to the zero-allocation and bit-identity bars.
constexpr auto& kCatalog = core::kAllSolverKinds;

/// Random *basic* problem (equal costs, zero delays/loads) so the whole
/// catalog, Algorithm 1 included, accepts it.
RetrievalProblem random_basic_problem(std::int32_t disks, std::int64_t buckets,
                                      Rng& rng) {
  RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = disks;
  p.system.cost_ms.assign(static_cast<std::size_t>(disks), 1.0);
  p.system.delay_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.init_load_ms.assign(static_cast<std::size_t>(disks), 0.0);
  p.system.model.assign(static_cast<std::size_t>(disks), "A");
  p.replicas.resize(static_cast<std::size_t>(buckets));
  for (auto& replica_set : p.replicas) {
    const std::size_t copies = 1 + rng.below(3);
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

/// Random generalized problem (heterogeneous costs, nonzero delays/loads);
/// everything except Algorithm 1 accepts it.
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

/// One freshly constructed (legacy one-problem ctor) solver run.  `engine`
/// selects the parallel engine for kParallelPushRelabelBinary (ignored by
/// the sequential kinds).
SolveResult fresh_solve(const RetrievalProblem& problem, SolverKind kind,
                        core::EngineKind engine = core::EngineKind::kHongHe) {
  switch (kind) {
    case SolverKind::kFordFulkersonBasic:
      return core::FordFulkersonBasicSolver(problem).solve();
    case SolverKind::kFordFulkersonIncremental:
      return core::FordFulkersonIncrementalSolver(problem).solve();
    case SolverKind::kPushRelabelIncremental:
      return core::PushRelabelIncrementalSolver(problem).solve();
    case SolverKind::kPushRelabelBinary:
      return core::PushRelabelBinarySolver(problem).solve();
    case SolverKind::kBlackBoxBinary:
      return core::BlackBoxBinarySolver(problem).solve();
    case SolverKind::kParallelPushRelabelBinary:
      // threads = 1 keeps the discharge order (and thus the schedule)
      // deterministic for the bit-identical comparison.
      return core::PushRelabelBinarySolver(
                 problem, parallel::parallel_engine_factory(1, engine))
          .solve();
    case SolverKind::kIntegratedMatching:
      return core::IntegratedMatchingSolver(problem).solve();
  }
  return {};
}

void expect_identical(const SolveResult& fresh, const SolveResult& reused,
                      SolverKind kind, std::size_t index) {
  const std::string where = std::string(core::solver_id(kind)) +
                            " problem #" + std::to_string(index);
  // Bit-identical response time: the reused shell must walk the exact same
  // arithmetic, not merely land within an epsilon.
  EXPECT_EQ(fresh.response_time_ms, reused.response_time_ms) << where;
  EXPECT_EQ(fresh.schedule.assigned_disk, reused.schedule.assigned_disk)
      << where;
  EXPECT_EQ(fresh.schedule.per_disk_count, reused.schedule.per_disk_count)
      << where;
  EXPECT_EQ(fresh.capacity_steps, reused.capacity_steps) << where;
  EXPECT_EQ(fresh.binary_probes, reused.binary_probes) << where;
  EXPECT_EQ(fresh.maxflow_runs, reused.maxflow_runs) << where;
  EXPECT_EQ(fresh.flow_stats.augmentations, reused.flow_stats.augmentations)
      << where;
  EXPECT_EQ(fresh.flow_stats.pushes, reused.flow_stats.pushes) << where;
  EXPECT_EQ(fresh.flow_stats.relabels, reused.flow_stats.relabels) << where;
  EXPECT_EQ(fresh.flow_stats.global_relabels,
            reused.flow_stats.global_relabels)
      << where;
  EXPECT_EQ(fresh.flow_stats.gap_jumps, reused.flow_stats.gap_jumps) << where;
  EXPECT_EQ(fresh.flow_stats.dfs_visits, reused.flow_stats.dfs_visits)
      << where;
}

TEST(WorkspaceReuse, SecondAndLaterPooledSolvesAllocateNothing) {
#if REPFLOW_INVARIANTS_ENABLED
  GTEST_SKIP() << "REPFLOW_CHECK_INVARIANTS builds run allocation-light (not "
                  "allocation-free) checkers inside the solve seams; the "
                  "zero-allocation guarantee applies to release builds only";
#endif
  Rng rng(7001);
  // Same-footprint problem sequence, prebuilt so problem construction
  // stays outside the measured window.
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(random_basic_problem(8, 24, rng));
  }

  // The parallel kind runs once per engine (Hong & He and the round engine
  // each own a warm slot with their own retained buffers).
  auto run_kind = [&](SolverKind kind, core::EngineKind engine) {
    core::SolverPool pool(/*threads=*/1);
    pool.set_engine_kind(engine);
    SolveResult result;
    // Warm-up pass: the first solve of each problem builds the shell and
    // grows every buffer to the sequence's peak footprint.
    for (const RetrievalProblem& problem : problems) {
      pool.solve_into(problem, kind, result);
    }

    // Steady-state pass over the same problems must not touch the heap.
    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    for (const RetrievalProblem& problem : problems) {
      pool.solve_into(problem, kind, result);
    }
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << core::solver_id(kind) << "/" << core::engine_id(engine) << ": "
        << g_alloc_count.load() << " steady-state allocations ("
        << g_alloc_bytes.load() << " bytes)";
    EXPECT_GT(result.response_time_ms, 0.0);
  };

  for (SolverKind kind : kCatalog) {
    if (kind == SolverKind::kParallelPushRelabelBinary) {
      for (core::EngineKind engine : core::kAllEngineKinds) {
        run_kind(kind, engine);
      }
    } else {
      run_kind(kind, core::EngineKind::kRound);
    }
  }
}

TEST(WorkspaceReuse, PooledResultsBitIdenticalToFreshSolversBasic) {
  Rng rng(7002);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(
        random_basic_problem(4 + static_cast<std::int32_t>(rng.below(6)),
                             6 + static_cast<std::int64_t>(rng.below(20)),
                             rng));
  }
  for (SolverKind kind : kCatalog) {
    for (core::EngineKind engine : core::kAllEngineKinds) {
      core::SolverPool pool(/*threads=*/1);
      pool.set_engine_kind(engine);
      SolveResult reused;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        pool.solve_into(problems[i], kind, reused);
        expect_identical(fresh_solve(problems[i], kind, engine), reused, kind,
                         i);
      }
      // The engine only differentiates the parallel kind; one pass covers
      // the sequential kinds.
      if (kind != SolverKind::kParallelPushRelabelBinary) break;
    }
  }
}

TEST(WorkspaceReuse, PooledResultsBitIdenticalToFreshSolversGeneralized) {
  Rng rng(7003);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(
        random_general_problem(3 + static_cast<std::int32_t>(rng.below(6)),
                               5 + static_cast<std::int64_t>(rng.below(18)),
                               rng));
  }
  for (SolverKind kind : kCatalog) {
    if (kind == SolverKind::kFordFulkersonBasic) continue;  // basic-only
    for (core::EngineKind engine : core::kAllEngineKinds) {
      core::SolverPool pool(/*threads=*/1);
      pool.set_engine_kind(engine);
      SolveResult reused;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        pool.solve_into(problems[i], kind, reused);
        expect_identical(fresh_solve(problems[i], kind, engine), reused, kind,
                         i);
      }
      if (kind != SolverKind::kParallelPushRelabelBinary) break;
    }
  }
}

// Exporter-attached variant: the live telemetry tier (flight recorder,
// per-disk accounting, windowed exporter) must not cost the solve path its
// zero-allocation guarantee.  The exporter runs with a very long tick
// interval so its background threads are parked during the counted window;
// what is measured is the instrumented ExecutionContext path itself —
// kPolicy/kSolve flight events, the per-disk busy_ms/assigned_buckets fold,
// and histogram observations — all of which must be pre-warmed handle
// writes only.
TEST(WorkspaceReuse, InstrumentedSolvePathAllocatesNothingWithExporter) {
#if REPFLOW_INVARIANTS_ENABLED
  GTEST_SKIP() << "REPFLOW_CHECK_INVARIANTS builds run allocation-light (not "
                  "allocation-free) checkers inside the solve seams";
#endif
  Rng rng(7005);
  std::vector<RetrievalProblem> problems;
  for (int i = 0; i < 6; ++i) {
    problems.push_back(random_general_problem(8, 24, rng));
  }

  obs::HttpExporterOptions eopts;
  eopts.tick_interval_ms = 3600.0 * 1000.0;  // parked during the window
  obs::HttpExporter exporter(eopts);
  const bool serving = exporter.start();  // binding may be sandboxed away

  {
    core::ExecutionContext ctx;
    obs::QueryScope scope(obs::FlightRecorder::global().next_query_id());
    // Warm-up: resolves the per-disk instrument slots, the per-kind metric
    // bundles, and every workspace buffer; flight-recorder slots are
    // preallocated at construction.
    for (const RetrievalProblem& problem : problems) {
      ctx.solve_into(problem, ctx.scratch());
    }

    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    for (const RetrievalProblem& problem : problems) {
      ctx.solve_into(problem, ctx.scratch());
    }
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << g_alloc_count.load() << " steady-state allocations ("
        << g_alloc_bytes.load() << " bytes) with the exporter attached";
    EXPECT_GT(ctx.scratch().response_time_ms, 0.0);
  }
#if !defined(REPFLOW_OBS_DISABLED)
  // The instrumentation genuinely ran: the fold touched the disk series.
  EXPECT_GT(obs::Registry::global().snapshot().accumulations.count(
                "disk.0.busy_ms"),
            0u);
#endif
  if (serving) exporter.stop();
}

// Telemetry is compiled out under the obs kill switch; the reuse behaviour
// itself is still covered by the allocation and bit-identity tests above.
#if !defined(REPFLOW_OBS_DISABLED)
TEST(WorkspaceReuse, PoolPublishesReuseTelemetry) {
  auto& reg = obs::Registry::global();
  obs::Counter& hits = reg.counter("workspace.reuse_hits");
  obs::Counter& rebuilds = reg.counter("workspace.rebuilds");
  obs::Gauge& retained = reg.gauge("workspace.retained_bytes");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t rebuilds_before = rebuilds.value();

  Rng rng(7004);
  const RetrievalProblem problem = random_basic_problem(6, 12, rng);
  core::SolverPool pool(1);
  SolveResult result;
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  EXPECT_EQ(rebuilds.value(), rebuilds_before + 1);
  EXPECT_EQ(hits.value(), hits_before);
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  pool.solve_into(problem, SolverKind::kPushRelabelBinary, result);
  EXPECT_EQ(rebuilds.value(), rebuilds_before + 1);
  EXPECT_EQ(hits.value(), hits_before + 2);
  EXPECT_GT(retained.value(), 0.0);
  EXPECT_EQ(static_cast<std::size_t>(retained.value()),
            pool.retained_bytes());
}
#endif  // REPFLOW_OBS_DISABLED

}  // namespace
}  // namespace repflow
