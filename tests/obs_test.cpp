// Tests for the observability layer: metrics registry, span tracer,
// exporters, and the instrumentation hooks in the stream scheduler and the
// parallel engine.  Value-level assertions are compiled out under
// REPFLOW_OBS_DISABLED; a small API-surface test remains so the kill-switch
// build still exercises every type.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/solve.h"
#include "core/stream.h"
#include "decluster/schemes.h"
#include "obs/export_csv.h"
#include "obs/export_json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "support/rng.h"
#include "workload/experiments.h"

namespace repflow::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The full API must compile and be callable in both build modes.
TEST(Obs, ApiSurfaceIsAlwaysAvailable) {
  Counter c;
  c.add();
  c.add(3);
  Gauge g;
  g.set(1.5);
  Histogram h;
  h.observe(1.0);
  h.observe_n(1.0, 3);
  { ScopedLatency latency(h); }
  { ScopedSpan span("obs_test.api"); }
  Registry::global().counter("obs_test.api_counter").add();
  Tracer::global().set_enabled(false);
  const MetricsSnapshot snapshot = Registry::global().snapshot();
  const std::string json = metrics_json_string(snapshot);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

#if !defined(REPFLOW_OBS_DISABLED)

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundsAreGeometric) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), Histogram::kFirstBoundMs);
  for (int i = 1; i + 1 < Histogram::kBucketCount; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_bound(i),
                     2.0 * Histogram::bucket_bound(i - 1));
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kBucketCount - 1)));
}

TEST(Histogram, PlacesValuesInCoveringBuckets) {
  Histogram h;
  h.observe(0.5 * Histogram::kFirstBoundMs);  // underflow bucket 0
  h.observe(Histogram::kFirstBoundMs);        // inclusive upper bound -> 0
  h.observe(1.5 * Histogram::kFirstBoundMs);  // bucket 1: (f, 2f]
  h.observe(1e12);                            // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount - 1), 1u);
}

TEST(Histogram, SummaryStatistics) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 100.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  // Every percentile reports the upper bound of the containing bucket,
  // clamped to the observed max: exactly 1.0 here.
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p99, 1.0);
}

TEST(Histogram, PercentilesSeparateBimodalData) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(0.01);
  for (int i = 0; i < 10; ++i) h.observe(100.0);
  const HistogramSummary s = h.summary();
  // p50 lands in the low mode, p99 in the high mode; the bucket estimate
  // errs high by at most one bucket width (a factor of 2).
  EXPECT_LE(s.p50, 0.02);
  EXPECT_GE(s.p99, 100.0);
  EXPECT_LE(s.p99, 200.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
}

TEST(Histogram, BulkFoldMatchesRepeatedObserve) {
  // observe_n(v, n) is the kernels' fold entry point: it must leave exactly
  // what n observe(v) calls leave — buckets, count, min, max — and the same
  // sum up to floating-point reassociation.
  const std::pair<double, std::uint64_t> samples[] = {
      {7.0, 14150},                        // a typical path-length tally
      {1.0, 3},
      {0.5 * Histogram::kFirstBoundMs, 5},  // underflow bucket
      {Histogram::kFirstBoundMs, 2},        // inclusive bucket bound
      {0.1, 1},
      {1e12, 4},                            // overflow bucket
      {3.0, 0}};                            // empty fold: no-op
  Histogram folded;
  Histogram repeated;
  for (const auto& [value, n] : samples) {
    folded.observe_n(value, n);
    for (std::uint64_t i = 0; i < n; ++i) repeated.observe(value);
  }
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(folded.bucket_count(i), repeated.bucket_count(i)) << i;
  }
  const HistogramSummary a = folded.summary();
  const HistogramSummary b = repeated.summary();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::abs(b.sum));
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);

  // A zero-count fold on an empty histogram must not seed min/max.
  Histogram empty;
  empty.observe_n(5.0, 0);
  empty.observe(2.0);
  EXPECT_EQ(empty.summary().count, 1u);
  EXPECT_DOUBLE_EQ(empty.summary().min, 2.0);
  EXPECT_DOUBLE_EQ(empty.summary().max, 2.0);
}

TEST(Registry, HandlesAreStableAndNamed) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("obs_test.stable");
  Counter& b = reg.counter("obs_test.stable");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(7);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("obs_test.stable"));
  EXPECT_EQ(snap.counters.at("obs_test.stable"), 7u);
}

TEST(Registry, ResetValuesKeepsHandlesValid) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("obs_test.reset_me");
  Histogram& h = reg.histogram("obs_test.reset_hist");
  c.add(5);
  h.observe(1.0);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.summary().count, 0u);
  c.add(2);  // handle still live after reset
  EXPECT_EQ(c.value(), 2u);
}

TEST(Tracer, RecordsSpansWhenEnabled) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  { ScopedSpan span("obs_test.outer"); ScopedSpan inner("obs_test.inner"); }
  tracer.set_enabled(false);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: inner completes first.
  EXPECT_STREQ(spans[0].name, "obs_test.inner");
  EXPECT_STREQ(spans[1].name, "obs_test.outer");
  EXPECT_GE(spans[0].start_ms, 0.0);
  EXPECT_GE(spans[0].duration_ms, 0.0);
  EXPECT_GE(spans[1].duration_ms, spans[0].duration_ms);
  EXPECT_EQ(spans[0].thread, spans[1].thread);
}

TEST(Tracer, DisabledSpansCostNothingAndRecordNothing) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  { ScopedSpan span("obs_test.ghost"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, ThreadsGetDenseIndices) {
  Tracer& tracer = Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();
  { ScopedSpan span("obs_test.main_thread"); }
  std::thread worker([] { ScopedSpan span("obs_test.worker_thread"); });
  worker.join();
  tracer.set_enabled(false);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].thread, spans[1].thread);
}

TEST(ExportJson, ShapeAndEscaping) {
  MetricsSnapshot snap;
  snap.counters["with \"quote\""] = 3;
  snap.gauges["g"] = 1.25;
  MetricsSnapshot::HistogramData hd;
  hd.summary.count = 1;
  hd.summary.sum = hd.summary.min = hd.summary.max = hd.summary.mean = 2.0;
  hd.summary.p50 = hd.summary.p95 = hd.summary.p99 = 2.0;
  hd.bucket_bounds = {1.0, std::numeric_limits<double>::infinity()};
  hd.bucket_counts = {0, 1};
  snap.histograms["h"] = hd;
  const std::vector<SpanRecord> spans = {{"s", 0, 0.5, 1.5}};
  const std::string json = metrics_json_string(snap, spans);
  EXPECT_NE(json.find("\"with \\\"quote\\\"\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g\": 1.25"), std::string::npos);
  // Overflow bound is null; the zero-count bucket is omitted.
  EXPECT_NE(json.find("\"le_ms\": null"), std::string::npos);
  EXPECT_EQ(json.find("\"le_ms\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ms\": 1.5"), std::string::npos);
}

TEST(ExportCsv, LongFormatRoundTrip) {
  MetricsSnapshot snap;
  snap.counters["c"] = 9;
  const std::string metrics_path = testing::TempDir() + "obs_metrics.csv";
  ASSERT_TRUE(write_metrics_csv(metrics_path, snap));
  const std::string metrics = read_file(metrics_path);
  EXPECT_NE(metrics.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(metrics.find("counter,c,value,9"), std::string::npos);

  const std::vector<SpanRecord> spans = {{"s", 1, 0.0, 2.0}};
  const std::string spans_path = testing::TempDir() + "obs_spans.csv";
  ASSERT_TRUE(write_spans_csv(spans_path, spans));
  const std::string spans_csv = read_file(spans_path);
  EXPECT_NE(spans_csv.find("name,thread,start_ms,duration_ms"),
            std::string::npos);
  EXPECT_NE(spans_csv.find("s,1,"), std::string::npos);

  EXPECT_FALSE(write_metrics_csv("/nonexistent-dir/x.csv", snap));
}

TEST(ExportJson, DumpGlobalSnapshotIsValid) {
  Registry::global().counter("obs_test.dump").add();
  const std::string path = testing::TempDir() + "obs_dump.json";
  ASSERT_TRUE(dump_global_metrics_json(path));
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"obs_test.dump\""), std::string::npos);
  EXPECT_FALSE(dump_global_metrics_json("/nonexistent-dir/x.json"));
}

TEST(Instrumentation, SolveFacadeFeedsPerSolverMetrics) {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 2;
  p.system.cost_ms = {1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0};
  p.system.model = {"A", "A"};
  p.replicas = {{0, 1}, {0, 1}};
  p.validate();
  Histogram& solve_hist =
      Registry::global().histogram("solver.alg6.solve_ms");
  Counter& solves = Registry::global().counter("solver.alg6.solves");
  const std::uint64_t count_before = solve_hist.summary().count;
  const std::uint64_t solves_before = solves.value();
  core::solve(p, core::SolverKind::kPushRelabelBinary);
  EXPECT_EQ(solve_hist.summary().count, count_before + 1);
  EXPECT_EQ(solves.value(), solves_before + 1);
}

TEST(Instrumentation, EveryCatalogKindPublishesSolveMetrics) {
  // metrics_for() is generated from REPFLOW_SOLVER_CATALOG, so every kind
  // — including ones added later — must land its solve in the
  // solver.<id>.solve_ms histogram and bump solver.<id>.solves.
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 3;
  p.system.cost_ms = {1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A"};
  p.replicas = {{0, 1}, {1, 2}, {2, 0}};
  p.validate();
  for (core::SolverKind kind : core::kAllSolverKinds) {
    const std::string prefix = std::string("solver.") + core::solver_id(kind);
    Histogram& hist = Registry::global().histogram(prefix + ".solve_ms");
    Counter& solves = Registry::global().counter(prefix + ".solves");
    const std::uint64_t count_before = hist.summary().count;
    const std::uint64_t solves_before = solves.value();
    core::solve(p, kind, 2);
    EXPECT_EQ(hist.summary().count, count_before + 1)
        << core::solver_id(kind);
    EXPECT_EQ(solves.value(), solves_before + 1) << core::solver_id(kind);
  }
}

TEST(Instrumentation, MatchingKernelPublishesPhaseTelemetry) {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 3;
  p.system.cost_ms = {1.0, 2.0, 3.0};
  p.system.delay_ms = {0.0, 1.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 2.0};
  p.system.model = {"A", "A", "A"};
  p.replicas = {{0, 1}, {1, 2}, {2, 0}, {0}, {1}};
  p.validate();
  Counter& phases = Registry::global().counter("matching.phase_count");
  const std::uint64_t before = phases.value();
  core::solve(p, core::SolverKind::kIntegratedMatching);
  EXPECT_GT(phases.value(), before);
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.histograms.contains("matching.augmenting_path_len"));
}

TEST(Instrumentation, StreamStatsCarryLatencyHistograms) {
  const std::int32_t n = 4;
  const auto rep =
      decluster::make_orthogonal(n, decluster::SiteMapping::kCopyPerSite);
  Rng rng(91);
  core::QueryStreamScheduler stream(
      rep, workload::make_experiment_system(1, n, rng),
      core::ExecutionPolicy::pinned(core::SolverKind::kPushRelabelBinary));
  stream.submit({0, 1, 2}, 0.0);
  stream.submit({3, 4}, 1.0);
  const core::StreamStats stats = stream.stats();
  EXPECT_EQ(stats.queue_wait.count, 2u);
  EXPECT_EQ(stats.solve_time.count, 2u);
  EXPECT_EQ(stats.response_time.count, 2u);
  EXPECT_GT(stats.solve_time.sum, 0.0);
  EXPECT_GT(stats.response_time.mean, 0.0);
  // The per-scheduler view and the event log agree.
  EXPECT_DOUBLE_EQ(stats.response_time.max, stats.max_response_ms);
}

TEST(Instrumentation, ParallelEngineExportsPerThreadCounters) {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 4;
  p.system.cost_ms = {1.0, 1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A", "A"};
  p.replicas = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}};
  p.validate();
  Counter& discharges = Registry::global().counter("parallel.discharges");
  const std::uint64_t before = discharges.value();
  // Pinned to the asynchronous engine: per-thread counters and the
  // queue-yield contention gauge are Hong & He scheduling telemetry.
  core::solve(p, core::SolverKind::kParallelPushRelabelBinary, 2,
              core::EngineKind::kHongHe);
  EXPECT_GT(discharges.value(), before);
  const MetricsSnapshot snap = Registry::global().snapshot();
  ASSERT_TRUE(snap.counters.contains("parallel.thread0.discharges"));
  ASSERT_TRUE(snap.counters.contains("parallel.thread1.discharges"));
  EXPECT_TRUE(snap.counters.contains("parallel.thread0.pushes"));
  EXPECT_TRUE(snap.gauges.contains("parallel.last_run_queue_yields"));
}

TEST(Instrumentation, RoundEngineExportsRoundTelemetry) {
  core::RetrievalProblem p;
  p.system.num_sites = 1;
  p.system.disks_per_site = 4;
  p.system.cost_ms = {1.0, 1.0, 1.0, 1.0};
  p.system.delay_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.init_load_ms = {0.0, 0.0, 0.0, 0.0};
  p.system.model = {"A", "A", "A", "A"};
  p.replicas = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}};
  p.validate();
  Counter& rounds = Registry::global().counter("parallel.rounds");
  Counter& relabels = Registry::global().counter("parallel.global_relabels");
  Counter& work = Registry::global().counter("parallel.discharge_work");
  Counter& passes = Registry::global().counter("parallel.sequential_passes");
  const std::uint64_t rounds_before = rounds.value();
  const std::uint64_t relabels_before = relabels.value();
  const std::uint64_t work_before = work.value();
  const std::uint64_t passes_before = passes.value();
  core::solve(p, core::SolverKind::kParallelPushRelabelBinary, 2,
              core::EngineKind::kRound);
  EXPECT_GT(rounds.value(), rounds_before);
  EXPECT_GT(relabels.value(), relabels_before);  // one per resume()
  // A network this small is under the cutoff: every resume() goes to the
  // sequential delegate, counts as one round, and does no BSP discharge
  // work (parallel_test checks that work on the pooled path).
  EXPECT_GT(passes.value(), passes_before);
  EXPECT_EQ(passes.value() - passes_before, rounds.value() - rounds_before);
  EXPECT_EQ(work.value(), work_before);
  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.gauges.contains("parallel.active_peak"));
}

#else  // REPFLOW_OBS_DISABLED

TEST(Obs, DisabledBuildReportsNothing) {
  Counter& c = Registry::global().counter("obs_test.noop");
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  Histogram& h = Registry::global().histogram("obs_test.noop_hist");
  h.observe_n(7.0, 1000);
  EXPECT_EQ(h.summary().count, 0u);
  Tracer::global().set_enabled(true);
  { ScopedSpan span("obs_test.noop_span"); }
  EXPECT_TRUE(Tracer::global().spans().empty());
  EXPECT_TRUE(Registry::global().snapshot().counters.empty());
}

#endif  // REPFLOW_OBS_DISABLED

}  // namespace
}  // namespace repflow::obs
