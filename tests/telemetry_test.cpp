// Live telemetry tier: windowed snapshots, per-disk utilization accounting,
// the query flight recorder, the Prometheus serializer, the SLO watchdog,
// the HTTP exporter, and the router's time-based flush.
//
// The window / SLO / serializer tests run on constructed snapshot data, so
// they execute identically under REPFLOW_OBS_DISABLED; tests that read the
// live global registry or the flight-recorder ring are guarded, with a
// kill-switch API-surface test covering that configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/router.h"
#include "core/stream.h"
#include "obs/export_prom.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/serving.h"
#include "obs/slo.h"
#include "obs/window.h"

namespace repflow {
namespace {

// ---------------------------------------------------------------------------
// Windowed snapshots

obs::MetricsSnapshot snap_with_counter(const std::string& name,
                                       std::uint64_t value) {
  obs::MetricsSnapshot s;
  s.counters[name] = value;
  return s;
}

TEST(SnapshotDiff, CounterAndAccumulatorRates) {
  obs::MetricsSnapshot prev;
  prev.counters["router.admitted"] = 100;
  prev.accumulations["disk.0.busy_ms"] = 500.0;
  obs::MetricsSnapshot cur;
  cur.counters["router.admitted"] = 160;
  cur.counters["router.shed"] = 30;  // new since prev: treated as from zero
  cur.accumulations["disk.0.busy_ms"] = 1500.0;
  cur.gauges["router.pending"] = 4.0;

  const obs::WindowSnapshot w = obs::snapshot_diff(prev, cur, 2000.0);
  EXPECT_DOUBLE_EQ(w.rate("router.admitted"), 30.0);   // 60 / 2s
  EXPECT_DOUBLE_EQ(w.rate("router.shed"), 15.0);       // 30 / 2s
  EXPECT_DOUBLE_EQ(w.rate("disk.0.busy_ms"), 500.0);   // 1000ms / 2s
  EXPECT_DOUBLE_EQ(w.gauges.at("router.pending"), 4.0);
  EXPECT_DOUBLE_EQ(w.rate("no.such.metric"), 0.0);
}

TEST(SnapshotDiff, RestartSemanticsNeverGoNegative) {
  // A value that went backwards means the registry was reset mid-window:
  // Prometheus rate() semantics take the new value as the delta.
  const obs::WindowSnapshot w = obs::snapshot_diff(
      snap_with_counter("c", 1000), snap_with_counter("c", 40), 1000.0);
  EXPECT_DOUBLE_EQ(w.rate("c"), 40.0);
}

TEST(SnapshotDiff, WindowedHistogramPercentilesUseOnlyWindowObservations) {
  obs::MetricsSnapshot prev;
  obs::MetricsSnapshot cur;
  obs::MetricsSnapshot::HistogramData before;
  before.summary.count = 100;
  before.summary.sum = 100.0;
  before.bucket_bounds = {1.0, 2.0, 4.0,
                          std::numeric_limits<double>::infinity()};
  before.bucket_counts = {100, 0, 0, 0};  // the past was all-fast
  obs::MetricsSnapshot::HistogramData after = before;
  after.summary.count = 110;
  after.summary.sum = 130.0;
  after.bucket_counts = {100, 0, 10, 0};  // the window was all-slow
  prev.histograms["h"] = before;
  cur.histograms["h"] = after;

  const obs::WindowSnapshot w = obs::snapshot_diff(prev, cur, 1000.0);
  const obs::WindowedHistogram wh = w.windowed("h");
  EXPECT_EQ(wh.count, 110u - 100u);
  EXPECT_DOUBLE_EQ(wh.sum_ms, 30.0);
  EXPECT_DOUBLE_EQ(wh.mean_ms, 3.0);
  // All 10 in-window observations sit in (2, 4]: the cumulative summary's
  // p50 would report ~1ms, the windowed one must land inside (2, 4].
  EXPECT_GT(wh.p50_ms, 2.0);
  EXPECT_LE(wh.p50_ms, 4.0);
  EXPECT_GT(wh.p99_ms, 2.0);
  EXPECT_LE(wh.p99_ms, 4.0);
}

TEST(WindowedAggregator, RingWrapsAndKeepsNewestOldestFirst) {
  obs::WindowedAggregator agg(/*retain=*/3);
  for (std::uint64_t i = 1; i <= 7; ++i) {
    // Counter advances 10 per 1-second window: rate 10/s in every window.
    const obs::WindowSnapshot w =
        agg.tick(snap_with_counter("c", 10 * i), 1000.0);
    EXPECT_EQ(w.seq, i);
    EXPECT_DOUBLE_EQ(w.rate("c"), 10.0);
  }
  EXPECT_EQ(agg.windows(), 7u);
  EXPECT_EQ(agg.latest().seq, 7u);

  const std::vector<obs::WindowSnapshot> recent = agg.recent();
  ASSERT_EQ(recent.size(), 3u);  // wrapped: only the newest retain survive
  EXPECT_EQ(recent[0].seq, 5u);
  EXPECT_EQ(recent[1].seq, 6u);
  EXPECT_EQ(recent[2].seq, 7u);
  for (const obs::WindowSnapshot& w : recent) {
    EXPECT_DOUBLE_EQ(w.rate("c"), 10.0);
  }
}

TEST(WindowedAggregator, FirstTickBaselinesFromZero) {
  obs::WindowedAggregator agg(4);
  const obs::WindowSnapshot w = agg.tick(snap_with_counter("c", 50), 500.0);
  EXPECT_EQ(w.seq, 1u);
  EXPECT_DOUBLE_EQ(w.rate("c"), 100.0);  // everything since process start
  EXPECT_EQ(agg.latest().seq, 1u);
}

// ---------------------------------------------------------------------------
// SLO watchdog

obs::WindowSnapshot window_with_histogram(double p95) {
  obs::WindowSnapshot w;
  w.seq = 1;
  w.window_ms = 1000.0;
  obs::WindowedHistogram wh;
  wh.count = 10;
  wh.p50_ms = p95 / 2;
  wh.p95_ms = p95;
  wh.p99_ms = p95;
  w.histograms["stream.response_ms"] = wh;
  return w;
}

TEST(SloWatchdog, LatencyObjectiveEvaluatesWindowedPercentile) {
  const obs::SloObjective o = obs::slo_latency(
      "p95", "stream.response_ms", obs::SloPercentile::kP95, 100.0);
  EXPECT_TRUE(obs::evaluate_slo(o, window_with_histogram(80.0)).ok);
  const obs::SloVerdict bad = obs::evaluate_slo(o, window_with_histogram(150.0));
  EXPECT_FALSE(bad.ok);
  EXPECT_DOUBLE_EQ(bad.observed, 150.0);
  EXPECT_DOUBLE_EQ(bad.bound, 100.0);
  // Idle window (no observations): vacuously ok.
  obs::WindowSnapshot idle;
  idle.seq = 2;
  EXPECT_TRUE(obs::evaluate_slo(o, idle).ok);
}

TEST(SloWatchdog, RatioObjectiveAndHealthFlip) {
  obs::SloWatchdog dog;
  dog.add(obs::slo_ratio("shed_ratio", "router.shed", "router.admitted",
                         /*bound=*/0.1));
  EXPECT_TRUE(dog.healthy());  // vacuous before the first window

  obs::WindowSnapshot good;
  good.seq = 1;
  good.rates["router.shed"] = 1.0;
  good.rates["router.admitted"] = 100.0;
  dog.observe(good);
  EXPECT_TRUE(dog.healthy());
  EXPECT_EQ(dog.breaches(), 0u);

  obs::WindowSnapshot bad = good;
  bad.seq = 2;
  bad.rates["router.shed"] = 50.0;
  dog.observe(bad);
  EXPECT_FALSE(dog.healthy());
  EXPECT_EQ(dog.breaches(), 1u);
  ASSERT_EQ(dog.verdicts().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.verdicts()[0].observed, 0.5);

  // Recovery: the next clean window flips health back.
  obs::WindowSnapshot again = good;
  again.seq = 3;
  dog.observe(again);
  EXPECT_TRUE(dog.healthy());
  EXPECT_EQ(dog.breaches(), 1u);

  // Zero-denominator window: nothing flowing, vacuously ok.
  obs::WindowSnapshot quiet;
  quiet.seq = 4;
  dog.observe(quiet);
  EXPECT_TRUE(dog.healthy());
}

// ---------------------------------------------------------------------------
// Prometheus serializer (shared by /metrics and metrics_tool --prom)

obs::MetricsSnapshot golden_snapshot() {
  obs::MetricsSnapshot s;
  s.counters["router.admitted"] = 3;
  s.counters["solver.alg6.solves"] = 2;
  s.accumulations["disk.0.busy_ms"] = 12.5;
  s.gauges["router.pending"] = 2.0;
  obs::MetricsSnapshot::HistogramData h;
  h.summary.count = 4;
  h.summary.sum = 10.0;
  h.bucket_bounds = {1.0, 2.0, 4.0, std::numeric_limits<double>::infinity()};
  h.bucket_counts = {1, 2, 1, 0};
  s.histograms["stream.response_ms"] = h;
  return s;
}

TEST(PromExport, SanitizesNames) {
  EXPECT_EQ(obs::prom_sanitize("solver.alg6.solve_ms"),
            "solver_alg6_solve_ms");
  EXPECT_EQ(obs::prom_sanitize("disk.0.busy_ms"), "disk_0_busy_ms");
  EXPECT_EQ(obs::prom_sanitize("ok_name:with:colons"),
            "ok_name:with:colons");
  EXPECT_EQ(obs::prom_sanitize("9starts.with.digit"),
            "_9starts_with_digit");
}

TEST(PromExport, MatchesGoldenFile) {
  const std::string got = obs::metrics_prom_string(golden_snapshot());
  std::ifstream in(std::string(REPFLOW_TEST_DATA_DIR) +
                   "/golden_metrics.prom");
  ASSERT_TRUE(in) << "missing tests/data/golden_metrics.prom";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "Prometheus rendering drifted from the golden file; if the change "
         "is intentional, regenerate tests/data/golden_metrics.prom";
}

TEST(PromExport, HistogramBucketsAreCumulativeAndEndAtInf) {
  const std::string out = obs::metrics_prom_string(golden_snapshot());
  EXPECT_NE(out.find("stream_response_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("stream_response_ms_bucket{le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("stream_response_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("stream_response_ms_count 4\n"), std::string::npos);
}

TEST(PromExport, WindowRendersRatesAndDerivedUtilization) {
  obs::WindowSnapshot w;
  w.seq = 3;
  w.window_ms = 1000.0;
  w.rates["router.admitted"] = 42.0;
  w.rates["disk.7.busy_ms"] = 500.0;  // 0.5 utilization
  std::ostringstream os;
  obs::write_window_prom(os, w);
  const std::string out = os.str();
  EXPECT_NE(out.find("repflow_window_rate{metric=\"router_admitted\"} 42\n"),
            std::string::npos);
  EXPECT_NE(out.find("repflow_disk_utilization{disk=\"7\"} 0.5\n"),
            std::string::npos);
  // A zero-seq window renders nothing (no tick yet).
  std::ostringstream empty;
  obs::write_window_prom(empty, obs::WindowSnapshot{});
  EXPECT_TRUE(empty.str().empty());
}

// ---------------------------------------------------------------------------
// HTTP exporter routing (socket-free via handle())

TEST(HttpExporter, RoutesEndpointsAndFlipsHealth) {
  obs::HttpExporterOptions opts;
  opts.objectives.push_back(obs::slo_ratio("always_bad", "router.admitted",
                                           "router.admitted",
                                           /*bound=*/0.0));
  obs::HttpExporter exporter(opts);  // not started: handle() needs no socket

  const std::string metrics = exporter.handle("/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("repflow_slo_healthy 1"), std::string::npos);

  EXPECT_NE(exporter.handle("/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(exporter.handle("/flightrecorder").find("\"events\""),
            std::string::npos);
  EXPECT_NE(exporter.handle("/nope").find("HTTP/1.1 404"),
            std::string::npos);

  // Force a breaching window through the watchdog: ratio 1.0 > bound 0.
  obs::WindowSnapshot bad;
  bad.seq = 1;
  bad.rates["router.admitted"] = 10.0;
  exporter.watchdog().observe(bad);
  EXPECT_FALSE(exporter.watchdog().healthy());
  const std::string unhealthy = exporter.handle("/healthz");
  EXPECT_NE(unhealthy.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(unhealthy.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(exporter.handle("/metrics").find("repflow_slo_healthy 0"),
            std::string::npos);
}

TEST(HttpExporter, ServesLiveScrapeOnLoopback) {
  obs::HttpExporter exporter;
  if (!exporter.start()) GTEST_SKIP() << "cannot bind a loopback socket";
  ASSERT_GT(exporter.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(exporter.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  exporter.stop();
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("repflow_slo_healthy"), std::string::npos);
}

TEST(HttpExporter, MetricsBodyPassesCheckProm) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  obs::HttpExporter exporter;
  exporter.tick_now();  // publish a window so the windowed series render
  const std::string response = exporter.handle("/metrics");
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string path = ::testing::TempDir() + "telemetry_scrape.prom";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out);
    out << response.substr(body_at + 4);
  }
  const std::string cmd = std::string("python3 ") + REPFLOW_SOURCE_DIR +
                          "/tools/check_prom.py " + path + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "/metrics body rejected by tools/check_prom.py";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving-stack fixtures shared by the router / flight-recorder tests

workload::SystemConfig two_disk_system(double cost0 = 1.0, double cost1 = 1.0,
                                       double delay0 = 0.0,
                                       double delay1 = 0.0) {
  workload::SystemConfig sys;
  sys.num_sites = 1;
  sys.disks_per_site = 2;
  sys.cost_ms = {cost0, cost1};
  sys.delay_ms = {delay0, delay1};
  sys.init_load_ms = {0.0, 0.0};
  sys.model = {"A", "A"};
  return sys;
}

std::vector<std::vector<core::DiskId>> both_disk_query(std::size_t buckets) {
  return std::vector<std::vector<core::DiskId>>(buckets,
                                                std::vector<core::DiskId>{0, 1});
}

// ---------------------------------------------------------------------------
// Router time-based flush (partial overload)

TEST(RouterAgeFlush, OldestQueryAgePastBoundForcesFlush) {
  core::QueryStreamScheduler sched(two_disk_system(),
                                   core::ExecutionPolicy{});
  core::RouterOptions opts;
  opts.mode = core::AdmissionMode::kCoalesce;
  opts.max_backlog_ms = 10.0;
  opts.max_coalesce = 100;  // never reached: only age can flush
  opts.max_coalesce_age_ms = 20.0;
  core::QueryRouter router(sched, opts);

  // t=0: a large admitted query loads both disks ~100ms deep.
  const core::RouterOutcome big = router.submit_replicas(both_disk_query(200), 0.0);
  EXPECT_EQ(big.decision, core::RouterDecision::kAdmitted);

  // Partial overload: the backlog stays above threshold, arrivals trickle.
  EXPECT_EQ(router.submit_replicas(both_disk_query(2), 5.0).decision,
            core::RouterDecision::kCoalesced);
  EXPECT_EQ(router.submit_replicas(both_disk_query(2), 10.0).decision,
            core::RouterDecision::kCoalesced);
  EXPECT_EQ(router.pending(), 2u);

  // t=30: oldest buffered query is 25ms old >= 20ms bound -> age flush,
  // even though the buffer holds only 3 of 100 queries.
  const core::RouterOutcome out =
      router.submit_replicas(both_disk_query(2), 30.0);
  EXPECT_EQ(out.decision, core::RouterDecision::kFlushed);
  EXPECT_EQ(out.merged, 3);
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(router.stats().flushes, 1);
  EXPECT_EQ(router.stats().age_flushes, 1);
  ASSERT_TRUE(out.event.has_value());
  EXPECT_EQ(out.event->buckets, 6);
}

TEST(RouterAgeFlush, WithoutAgeBoundPartialOverloadStrandsTheBuffer) {
  // Regression guard for the pre-age-flush behaviour: the same arrival
  // pattern with only the count trigger leaves the early queries waiting.
  core::QueryStreamScheduler sched(two_disk_system(),
                                   core::ExecutionPolicy{});
  core::RouterOptions opts;
  opts.mode = core::AdmissionMode::kCoalesce;
  opts.max_backlog_ms = 10.0;
  opts.max_coalesce = 100;  // age bound left at +inf
  core::QueryRouter router(sched, opts);

  router.submit_replicas(both_disk_query(200), 0.0);
  router.submit_replicas(both_disk_query(2), 5.0);
  router.submit_replicas(both_disk_query(2), 10.0);
  EXPECT_EQ(router.submit_replicas(both_disk_query(2), 30.0).decision,
            core::RouterDecision::kCoalesced);
  EXPECT_EQ(router.pending(), 3u);
  EXPECT_EQ(router.stats().age_flushes, 0);
  // flush() drains the stranded queries at end of stream.
  EXPECT_TRUE(router.flush(40.0).has_value());
  EXPECT_EQ(router.pending(), 0u);
}

#if !defined(REPFLOW_OBS_DISABLED)

// ---------------------------------------------------------------------------
// Flight recorder (normal builds: live ring semantics)

TEST(FlightRecorder, RingOverwriteKeepsNewestInRecordOrder) {
  obs::FlightRecorder recorder(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.record(/*query_id=*/i, obs::FlightEventKind::kAdmit,
                    static_cast<double>(i));
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const std::vector<obs::FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  // Exactly the newest capacity-many events, sorted by global seq.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12u + i);
    EXPECT_EQ(events[i].query_id, 12u + i);
    EXPECT_EQ(events[i].kind, obs::FlightEventKind::kAdmit);
  }
  EXPECT_TRUE(recorder.query_events(3).empty());  // overwritten long ago
  ASSERT_EQ(recorder.query_events(19).size(), 1u);

  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(FlightRecorder, QueryScopesNestAndRestore) {
  EXPECT_EQ(obs::QueryScope::current().id, 0u);
  {
    obs::QueryScope outer(41, /*budget_ms=*/100.0);
    EXPECT_EQ(obs::QueryScope::current().id, 41u);
    EXPECT_DOUBLE_EQ(obs::QueryScope::current().budget_ms, 100.0);
    {
      obs::QueryScope inner(42);
      EXPECT_EQ(obs::QueryScope::current().id, 42u);
    }
    EXPECT_EQ(obs::QueryScope::current().id, 41u);
  }
  EXPECT_EQ(obs::QueryScope::current().id, 0u);
}

TEST(FlightRecorder, BreachCopiesTheQueryChain) {
  obs::FlightRecorder recorder(64);
  recorder.record(7, obs::FlightEventKind::kAdmit, 1.0);
  recorder.record(8, obs::FlightEventKind::kAdmit, 2.0);  // other traffic
  recorder.record(7, obs::FlightEventKind::kSolve, 0.5, 3);
  recorder.note_breach(7, /*response_ms=*/500.0, /*budget_ms=*/100.0);

  const std::vector<obs::BreachDump> breaches = recorder.breaches();
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].query_id, 7u);
  EXPECT_DOUBLE_EQ(breaches[0].response_ms, 500.0);
  EXPECT_DOUBLE_EQ(breaches[0].budget_ms, 100.0);
  ASSERT_EQ(breaches[0].chain.size(), 3u);  // admit, solve, breach — not #8
  EXPECT_EQ(breaches[0].chain[0].kind, obs::FlightEventKind::kAdmit);
  EXPECT_EQ(breaches[0].chain[1].kind, obs::FlightEventKind::kSolve);
  EXPECT_EQ(breaches[0].chain[2].kind, obs::FlightEventKind::kBreach);

  const std::string json = obs::flight_recorder_json(recorder);
  EXPECT_NE(json.find("\"breaches\":[{\"query_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"breach\""), std::string::npos);
}

// Regression test for a data race the thread-safety annotation pass found:
// the recorder epoch was a plain time_point written by clear() while
// lock-free record() calls read it to timestamp events.  The epoch is now
// an atomic tick count; this test hammers record() from several threads
// while the main thread repeatedly clear()s — under the TSan CI job the old
// representation fails here deterministically.
TEST(FlightRecorder, ConcurrentClearAndRecordStayRaceFree) {
#if defined(REPFLOW_TSAN)
  constexpr int kEventsPerThread = 2000;
#else
  constexpr int kEventsPerThread = 20000;
#endif
  obs::FlightRecorder recorder(/*capacity=*/64);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&recorder, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kEventsPerThread; ++i) {
        recorder.record(static_cast<std::uint64_t>(t) + 1,
                        obs::FlightEventKind::kSolve,
                        static_cast<double>(i));
        if ((i & 255) == 0) (void)recorder.events();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    recorder.clear();
    (void)recorder.events();
  }
  for (auto& w : writers) w.join();
  // Sanity after the dust settles: a fresh epoch yields non-negative,
  // well-formed timestamps and an internally consistent ring.
  recorder.clear();
  recorder.record(9, obs::FlightEventKind::kAdmit, 1.0);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, 9u);
  EXPECT_GE(events[0].t_ms, 0.0);
}

TEST(FlightRecorder, RouterBudgetBreachDumpsFullPipelineChain) {
  core::QueryStreamScheduler sched(two_disk_system(),
                                   core::ExecutionPolicy{});
  core::RouterOptions opts;
  opts.latency_budget_ms = 1e-6;  // every real response breaches
  core::QueryRouter router(sched, opts);
  const std::size_t breaches_before =
      obs::FlightRecorder::global().breaches().size();

  const core::RouterOutcome out =
      router.submit_replicas(both_disk_query(4), 0.0);
  ASSERT_NE(out.query_id, 0u);
  ASSERT_TRUE(out.event.has_value());
  EXPECT_EQ(out.event->query_id, out.query_id);

  // The breach dump carries the query's whole admission->solve chain.
  const std::vector<obs::BreachDump> breaches =
      obs::FlightRecorder::global().breaches();
  ASSERT_GT(breaches.size(), breaches_before);
  const obs::BreachDump& dump = breaches.back();
  EXPECT_EQ(dump.query_id, out.query_id);
  EXPECT_GT(dump.response_ms, dump.budget_ms);
  std::vector<obs::FlightEventKind> kinds;
  for (const obs::FlightEvent& e : dump.chain) kinds.push_back(e.kind);
  const std::vector<obs::FlightEventKind> want = {
      obs::FlightEventKind::kAdmit, obs::FlightEventKind::kPolicy,
      obs::FlightEventKind::kSolve, obs::FlightEventKind::kSchedule,
      obs::FlightEventKind::kBreach};
  EXPECT_EQ(kinds, want);
}

// ---------------------------------------------------------------------------
// Per-disk utilization accounting (live registry)

TEST(DiskAccounting, SolveFoldsServiceTimeIntoPerDiskSeries) {
  const workload::SystemConfig sys =
      two_disk_system(/*cost0=*/1.0, /*cost1=*/2.0, /*delay0=*/0.5,
                      /*delay1=*/0.25);
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();

  core::QueryStreamScheduler sched(sys, core::ExecutionPolicy{});
  sched.submit_replicas(both_disk_query(6), 0.0);
  sched.submit_replicas(both_disk_query(6), 1000.0);  // disks idle again

  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  auto delta_accum = [&](const std::string& name) {
    const auto b = before.accumulations.find(name);
    return after.accumulations.at(name) -
           (b == before.accumulations.end() ? 0.0 : b->second);
  };
  auto delta_counter = [&](const std::string& name) {
    const auto b = before.counters.find(name);
    return after.counters.at(name) -
           (b == before.counters.end() ? 0 : b->second);
  };

  // Expected per-disk service time from the actual schedules: D + k*C per
  // solve that used the disk (X_j backlog excluded by design).
  double want_busy[2] = {0.0, 0.0};
  std::uint64_t want_buckets[2] = {0, 0};
  for (const core::StreamEvent& e : sched.events()) {
    for (std::size_t d = 0; d < 2; ++d) {
      const std::int64_t k = e.schedule.per_disk_count[d];
      if (k <= 0) continue;
      want_busy[d] += sys.delay_ms[d] +
                      static_cast<double>(k) * sys.cost_ms[d];
      want_buckets[d] += static_cast<std::uint64_t>(k);
    }
  }
  ASSERT_GT(want_buckets[0] + want_buckets[1], 0u);
  EXPECT_DOUBLE_EQ(delta_accum("disk.0.busy_ms"), want_busy[0]);
  EXPECT_DOUBLE_EQ(delta_accum("disk.1.busy_ms"), want_busy[1]);
  EXPECT_EQ(delta_counter("disk.0.assigned_buckets"), want_buckets[0]);
  EXPECT_EQ(delta_counter("disk.1.assigned_buckets"), want_buckets[1]);
}

TEST(DiskAccounting, OutOfRangeDiskIdsShareTheOverflowBundle) {
  obs::DiskInstruments& di = obs::DiskInstruments::global();
  obs::DiskInstrument& overflow = di.disk(obs::DiskInstruments::kMaxTracked);
  EXPECT_EQ(&di.disk(obs::DiskInstruments::kMaxTracked + 1000), &overflow);
  EXPECT_EQ(&di.disk(-1), &overflow);
  // In-range ids resolve to stable distinct bundles.
  EXPECT_EQ(&di.disk(3), &di.disk(3));
  EXPECT_NE(&di.disk(3), &di.disk(4));
}

TEST(RouterInstruments, AgeFlushSeriesRecorded) {
  obs::RouterInstruments& ri = obs::RouterInstruments::global();
  const std::uint64_t age_before = ri.age_flushes.value();
  const std::uint64_t hist_before =
      obs::Registry::global().histogram("router.flush_age_ms").summary().count;

  core::QueryStreamScheduler sched(two_disk_system(),
                                   core::ExecutionPolicy{});
  core::RouterOptions opts;
  opts.mode = core::AdmissionMode::kCoalesce;
  opts.max_backlog_ms = 10.0;
  opts.max_coalesce = 100;
  opts.max_coalesce_age_ms = 20.0;
  core::QueryRouter router(sched, opts);
  router.submit_replicas(both_disk_query(200), 0.0);
  router.submit_replicas(both_disk_query(2), 5.0);
  router.submit_replicas(both_disk_query(2), 30.0);

  EXPECT_EQ(ri.age_flushes.value(), age_before + 1);
  const obs::HistogramSummary ages =
      obs::Registry::global().histogram("router.flush_age_ms").summary();
  EXPECT_EQ(ages.count, hist_before + 1);
  // This flush observed an age of 30 - 5 = 25 virtual ms (the histogram is
  // global, so earlier tests may have pushed the max higher).
  EXPECT_GE(ages.max, 25.0);
}

#else  // REPFLOW_OBS_DISABLED

// ---------------------------------------------------------------------------
// Kill-switch builds: every new instrument stays source-compatible and inert.

TEST(TelemetryDisabled, NewInstrumentSurfacesAreInert) {
  EXPECT_EQ(obs::FlightRecorder::global().next_query_id(), 0u);
  obs::FlightRecorder::global().record(1, obs::FlightEventKind::kSolve, 2.0);
  obs::FlightRecorder::global().note_breach(1, 10.0, 1.0);
  EXPECT_TRUE(obs::FlightRecorder::global().events().empty());
  EXPECT_TRUE(obs::FlightRecorder::global().breaches().empty());
  EXPECT_EQ(obs::FlightRecorder::global().recorded(), 0u);
  EXPECT_NE(obs::flight_recorder_json(obs::FlightRecorder::global())
                .find("\"events\":[]"),
            std::string::npos);

  obs::QueryScope scope(7, 5.0);
  EXPECT_EQ(obs::QueryScope::current().id, 0u);

  obs::DiskInstrument& disk = obs::DiskInstruments::global().disk(3);
  disk.busy_ms.add(5.0);
  disk.assigned_buckets.add(2);
  disk.capacity_steps.add(1);
  EXPECT_EQ(disk.assigned_buckets.value(), 0u);
  EXPECT_DOUBLE_EQ(disk.busy_ms.value(), 0.0);

  obs::RouterInstruments& ri = obs::RouterInstruments::global();
  ri.age_flushes.add(1);
  ri.flush_age_ms.observe(5.0);
  EXPECT_EQ(ri.age_flushes.value(), 0u);
}

TEST(TelemetryDisabled, ServingPipelineStillRunsWithZeroIds) {
  core::QueryStreamScheduler sched(two_disk_system(),
                                   core::ExecutionPolicy{});
  core::RouterOptions opts;
  opts.mode = core::AdmissionMode::kCoalesce;
  opts.max_backlog_ms = 10.0;
  opts.max_coalesce = 100;
  opts.max_coalesce_age_ms = 20.0;
  opts.latency_budget_ms = 1e-6;
  core::QueryRouter router(sched, opts);
  const core::RouterOutcome out =
      router.submit_replicas(both_disk_query(4), 0.0);
  EXPECT_EQ(out.query_id, 0u);  // ids collapse to "none"
  ASSERT_TRUE(out.event.has_value());
  EXPECT_EQ(out.event->query_id, 0u);
  // The age-flush mechanics are pure router logic, still live.
  router.submit_replicas(both_disk_query(200), 1.0);
  router.submit_replicas(both_disk_query(2), 5.0);
  const core::RouterOutcome flushed =
      router.submit_replicas(both_disk_query(2), 30.0);
  EXPECT_EQ(flushed.decision, core::RouterDecision::kFlushed);
  EXPECT_EQ(router.stats().age_flushes, 1);
  // The exporter and window/SLO layers serve empty-but-valid payloads.
  obs::HttpExporter exporter;
  exporter.tick_now();
  EXPECT_NE(exporter.handle("/metrics").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(exporter.handle("/healthz").find("\"healthy\":true"),
            std::string::npos);
}

#endif  // REPFLOW_OBS_DISABLED

}  // namespace
}  // namespace repflow
