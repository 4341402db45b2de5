// telemetry_tool: live telemetry demo — replay a trace through the
// admission-controlled serving stack with the HTTP exporter attached.
//
// The tool loops the trace's queries through QueryRouter ->
// QueryStreamScheduler at a fixed virtual inter-arrival gap for a wall-time
// duration, while the exporter serves
//
//   /metrics         cumulative registry + latest window (Prometheus text),
//   /healthz         SLO watchdog verdict (200 healthy / 503 breached),
//   /flightrecorder  per-query event chains + budget-breach dumps (JSON)
//
// on 127.0.0.1.  Useful interactively (`curl localhost:PORT/metrics` while
// it runs) and as the CI telemetry smoke: the bound port is printed on the
// first stdout line so scripts can scrape it.
//
//   telemetry_tool examples/data/sample.trace --port=9464 --duration-ms=3000
//   telemetry_tool in.trace --mode=coalesce --budget-ms=50 --slo-p95-ms=200
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/router.h"
#include "core/stream.h"
#include "core/trace.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "support/cli.h"

namespace {

using namespace repflow;

core::AdmissionMode parse_mode(const std::string& name) {
  if (name == "off") return core::AdmissionMode::kOff;
  if (name == "shed") return core::AdmissionMode::kShed;
  if (name == "coalesce") return core::AdmissionMode::kCoalesce;
  throw std::invalid_argument("unknown --mode '" + name +
                              "' (use off|shed|coalesce)");
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("port", "0", "exporter port on 127.0.0.1 (0 = ephemeral)");
  flags.define("tick-ms", "250", "window cadence of the exporter");
  flags.define("duration-ms", "2000", "wall time to keep replaying");
  flags.define("linger-ms", "0",
               "keep serving this long after the replay finishes");
  flags.define("interarrival", "2.0", "virtual inter-arrival gap in ms");
  flags.define("mode", "coalesce", "admission mode: off|shed|coalesce");
  flags.define("backlog-ms", "200", "router backlog threshold");
  flags.define("max-coalesce-age-ms", "100",
               "flush the merge buffer once its oldest query is this old");
  flags.define("budget-ms", "0",
               "per-query latency budget; breaches dump the query's flight "
               "chain (0 = off)");
  flags.define("slo-p95-ms", "0",
               "SLO: windowed stream.response_ms p95 bound (0 = none)");
  flags.define("slo-shed-ratio", "0",
               "SLO: router.shed / router.admitted windowed-rate bound "
               "(0 = none)");
  try {
    flags.parse(argc, argv);
    if (flags.help_requested() || flags.positional().empty()) {
      flags.print_help("usage: telemetry_tool <trace-file> [flags]");
      return flags.help_requested() ? 0 : 2;
    }
    std::ifstream in(flags.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", flags.positional()[0].c_str());
      return 1;
    }
    const core::Trace trace = core::read_trace(in);

    obs::HttpExporterOptions eopts;
    eopts.port = static_cast<int>(flags.get_int("port"));
    eopts.tick_interval_ms = flags.get_double("tick-ms");
    if (flags.get_double("slo-p95-ms") > 0.0) {
      eopts.objectives.push_back(
          obs::slo_latency("stream_p95", "stream.response_ms",
                           obs::SloPercentile::kP95,
                           flags.get_double("slo-p95-ms")));
    }
    if (flags.get_double("slo-shed-ratio") > 0.0) {
      eopts.objectives.push_back(
          obs::slo_ratio("shed_ratio", "router.shed", "router.admitted",
                         flags.get_double("slo-shed-ratio")));
    }
    obs::HttpExporter exporter(eopts);
    if (!exporter.start()) {
      std::fprintf(stderr, "cannot bind exporter port %d\n", eopts.port);
      return 1;
    }
    // First line: the scrape address (CI parses this).
    std::printf("exporter listening on 127.0.0.1:%d\n", exporter.port());
    std::fflush(stdout);

    core::RouterOptions ropts;
    ropts.mode = parse_mode(flags.get("mode"));
    ropts.max_backlog_ms = flags.get_double("backlog-ms");
    ropts.max_coalesce_age_ms = flags.get_double("max-coalesce-age-ms");
    ropts.latency_budget_ms = flags.get_double("budget-ms");
    core::QueryStreamScheduler stream(trace.system, core::ExecutionPolicy{});
    core::QueryRouter router(stream, ropts);

    const double gap_ms = flags.get_double("interarrival");
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(
            flags.get_double("duration-ms"));
    double t = 0.0;
    std::int64_t submitted = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
        router.submit_replicas(trace.queries[qi].replicas, t);
        t += gap_ms;
        ++submitted;
      }
      // Replay pacing: one wall millisecond per trace pass keeps the
      // windowed rates well below "as fast as the CPU can loop" so scrapes
      // see a steady stream instead of a burst.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    router.flush(t);

    const double linger_ms = flags.get_double("linger-ms");
    if (linger_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(linger_ms));
    }
    // One final window so even a very short run publishes rates.
    exporter.tick_now();

    const core::RouterStats& rs = router.stats();
    const obs::FlightRecorder& fr = obs::FlightRecorder::global();
    std::printf(
        "replayed %lld arrivals (virtual span %.1f ms): admitted %lld, shed "
        "%lld, coalesced %lld, flushes %lld (%lld by age), dedup %lld\n",
        static_cast<long long>(submitted), t,
        static_cast<long long>(rs.admitted), static_cast<long long>(rs.shed),
        static_cast<long long>(rs.coalesced),
        static_cast<long long>(rs.flushes),
        static_cast<long long>(rs.age_flushes),
        static_cast<long long>(rs.dedup_hits));
    std::printf("windows produced: %llu, healthy: %s\n",
                static_cast<unsigned long long>(
                    exporter.aggregator().windows()),
                exporter.watchdog().healthy() ? "yes" : "NO");
    std::printf("flight recorder: %llu events recorded, %zu breach dumps\n",
                static_cast<unsigned long long>(fr.recorded()),
                fr.breaches().size());
    exporter.stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
