// perfbench: the serving-spine benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Sets the workload up three times (setup_s is the median), checks the
// warm-up round with the oracle, then runs whole rounds of front-door calls
// for --seconds, checking every round.  With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs half the time untraced and
// half with the program's span tracer on, and prints the per-layer metrics.
// The last line of stdout is the JSON result; the line before it records
// the host.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "oracle.h"

// ---------------------------------------------------------------------------
// Allocation counter: every operator new in the process bumps one counter.

std::atomic<std::uint64_t> perfbench::g_allocations{0};

void* operator new(std::size_t n) {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

// Regularized incomplete beta I_x(a, b) by Lentz's continued fraction.
double beta_fraction(double a, double b, double x) {
  const double tiny = 1e-300;
  double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < tiny) d = tiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m < 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 + aa * d;
    c = 1.0 + aa / c;
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    c = std::fabs(c) < tiny ? tiny : c;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 + aa * d;
    c = 1.0 + aa / c;
    d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
    c = std::fabs(c) < tiny ? tiny : c;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return h;
}

double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double harrell_davis(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double sum = 0.0, prev = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double cur = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    sum += (cur - prev) * v[i];
    prev = cur;
  }
  return sum;
}

Recorder::Recorder(bool keep) : keep_(keep) {
  if (keep_) {
    op_us_.reserve(1 << 20);
    op_point_.reserve(1 << 20);
  }
  calibrate();
}

void Recorder::calibrate() {
  const std::int64_t t0 = wall_ns();
  points_.push_back(calibration_point_us());
  last_calib_ns_ = wall_ns();
  calib_ns_ += last_calib_ns_ - t0;
}

std::vector<double> Recorder::scaled_op_us() const {
  std::vector<double> out(op_us_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t k = op_point_[i];
    const double around =
        k + 1 < points_.size() ? 0.5 * (points_[k] + points_[k + 1])
                               : points_[k];
    out[i] = op_us_[i] * kReferenceCalibUs / around;
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Host record.

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Timed phase.

struct Phase {
  Recorder rec{true};
  std::int64_t rounds = 0;
  std::int64_t queries = 0;
  std::int64_t net_wall_ns = 0;  // round time minus calibration
  std::int64_t net_cpu_ns = 0;
  std::string error;
  std::int64_t failed = 0;
};

/// Whole rounds until `seconds` have passed; every round is checked.
void run_phase(Workload& w, double seconds, Phase& ph) {
  const std::int64_t start = wall_ns();
  const auto limit = static_cast<std::int64_t>(seconds * 1e9);
  while (ph.rounds == 0 || wall_ns() - start < limit) {
    const std::int64_t k0 = ph.rec.calib_ns();
    const std::int64_t w0 = wall_ns();
    const std::int64_t c0 = cpu_ns();
    try {
      w.run_round(ph.rec);
    } catch (const std::exception& e) {
      ++ph.failed;
      ph.error = std::string("round threw: ") + e.what();
      return;
    }
    const std::int64_t c1 = cpu_ns();
    const std::int64_t w1 = wall_ns();
    const std::int64_t calib = ph.rec.calib_ns() - k0;
    ph.net_wall_ns += (w1 - w0) - calib;
    ph.net_cpu_ns += (c1 - c0) - calib;
    ++ph.rounds;
    ph.queries += w.queries_per_round();
    std::string err = w.verify_round();
    if (!err.empty() && ph.error.empty()) ph.error = err;
  }
}

// ---------------------------------------------------------------------------
// Span self time: a span's duration minus the spans nested inside it on
// the same thread.

struct SpanTimes {
  std::map<std::string, std::vector<double>> total_us;
  std::map<std::string, std::vector<double>> self_us;
};

SpanTimes span_times(std::vector<repflow::obs::SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
    return a.duration_ms > b.duration_ms;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double end = s.start_ms + s.duration_ms;
    while (!stack.empty()) {
      const auto& top = spans[stack.back()];
      if (top.thread == s.thread && end <= top.start_ms + top.duration_ms) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += s.duration_ms;
    stack.push_back(i);
  }
  SpanTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    out.total_us[name].push_back(spans[i].duration_ms * 1e3);
    out.self_us[name].push_back((spans[i].duration_ms - child[i]) * 1e3);
  }
  return out;
}

std::vector<double> gather(const std::map<std::string, std::vector<double>>& m,
                           bool (*match)(const std::string&)) {
  std::vector<double> out;
  for (const auto& [name, v] : m) {
    if (match(name)) out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

bool is_router(const std::string& n) { return n.rfind("router.", 0) == 0; }
bool is_stream(const std::string& n) { return n == "stream.submit"; }
bool is_solve(const std::string& n) { return n.rfind("solve.", 0) == 0; }
bool is_probe(const std::string& n) {
  return n == "alg6.probe" || n == "matching.probe";
}
bool is_step(const std::string& n) {
  return n.size() > 14 && n.compare(n.size() - 14, 14, ".capacity_step") == 0;
}

std::uint64_t counter_delta(const repflow::obs::MetricsSnapshot& a,
                            const repflow::obs::MetricsSnapshot& b,
                            const std::string& name) {
  const auto ia = a.counters.find(name);
  const auto ib = b.counters.find(name);
  const std::uint64_t va = ia == a.counters.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
  return vb - va;
}

// Every per-layer metric, with its unit; a workload that does not reach a
// layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> c = {
      {"host.calib_us", "us"},
      {"router.self_us", "us"},
      {"router.flushes", "count"},
      {"router.merged_per_flush", "count"},
      {"router.dedup_hits", "count"},
      {"stream.self_us", "us"},
      {"stream.build_us", "us"},
      {"stream.backlog_model_ms", "model_ms"},
      {"exec.select_us", "us"},
      {"exec.overhead_us", "us"},
      {"exec.picked_matching", "count"},
      {"exec.picked_alg6", "count"},
      {"driver.solve_us", "us"},
      {"driver.probes_per_solve", "count"},
      {"driver.steps_per_solve", "count"},
      {"driver.probe_us", "us"},
      {"driver.step_us", "us"},
      {"driver.self_us", "us"},
      {"kernel.pushes_per_solve", "count"},
      {"kernel.relabels_per_solve", "count"},
      {"kernel.global_relabels_per_solve", "count"},
      {"kernel.gap_jumps_per_solve", "count"},
      {"kernel.hk_phases_per_solve", "count"},
      {"kernel.augmentations_per_solve", "count"},
      {"kernel.dfs_visits_per_solve", "count"},
      {"kernel.retained_hits_per_solve", "count"},
      {"batch.efficiency", "ratio"},
      {"batch.cpu_per_wall", "ratio"},
      {"parallel.rounds_per_solve", "count"},
      {"parallel.global_relabels_per_solve", "count"},
      {"parallel.discharge_work_per_solve", "count"},
      {"parallel.vs_seq", "ratio"},
      {"parallel.cpu_per_wall", "ratio"},
      {"workspace.rebuilds", "count"},
      {"workspace.reuse_hits", "count"},
      {"alloc.per_op", "count"},
      {"obs.trace_overhead_us", "us"},
  };
  return c;
}

void print_metric(std::string& json, const std::string& name, double value,
                  const std::string& unit) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  if (json.back() != '{') json += ", ";
  json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
          "\"}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else {
      return false;
    }
  }
  return a.selftest || (make_workload(a.workload) != nullptr &&
                        a.seconds > 0 && (a.trace == 0 || a.trace == 1));
}

int run(const Args& args) {
  // A broken oracle would pass anything: prove it first.
  if (oracle::self_test() != 0) {
    std::fprintf(stderr, "perfbench: oracle self-test failed\n");
    return 1;
  }
  constexpr int kSetups = 3;
  std::vector<double> raw_setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const std::int64_t t0 = wall_ns();
    w = make_workload(args.workload);
    w->setup(args.seed);
    raw_setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
  std::string error = w->verify_round();

  Phase untraced;
  Phase traced;
  LayerMap layers;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  // The timed phase runs even after a failed check, so a wrong program
  // still reports what it attempted.
  run_phase(*w, phase_s, untraced);
  if (error.empty()) error = untraced.error;

  if (args.trace && untraced.failed == 0) {
    auto& registry = repflow::obs::Registry::global();
    auto& tracer = repflow::obs::Tracer::global();
    const auto before = registry.snapshot();
    tracer.clear();
    tracer.set_enabled(true);
    run_phase(*w, phase_s, traced);
    tracer.set_enabled(false);
    const auto after = registry.snapshot();
    if (error.empty()) error = traced.error;
    const SpanTimes st = span_times(tracer.spans());
    tracer.clear();

    const double rounds = static_cast<double>(traced.rounds);
    auto put = [&](const std::string& name, double v) { layers[name] = v; };
    put("router.self_us", median(gather(st.self_us, is_router)));
    put("stream.self_us", median(gather(st.self_us, is_stream)));
    put("driver.solve_us", median(gather(st.total_us, is_solve)));
    put("driver.self_us", median(gather(st.self_us, is_solve)));
    put("driver.probe_us", median(gather(st.total_us, is_probe)));
    put("driver.step_us", median(gather(st.total_us, is_step)));
    put("workspace.rebuilds",
        counter_delta(before, after, "workspace.rebuilds") / rounds);
    put("workspace.reuse_hits",
        counter_delta(before, after, "workspace.reuse_hits") / rounds);
    const double matching_solves = static_cast<double>(
        counter_delta(before, after, "solver.matching.solves"));
    if (matching_solves > 0) {
      put("kernel.retained_hits_per_solve",
          counter_delta(before, after, "matching.retained_matching_hits") /
              matching_solves);
    }
    const double parallel_solves = static_cast<double>(
        counter_delta(before, after, "solver.parallel.solves"));
    if (parallel_solves > 0) {
      put("parallel.rounds_per_solve",
          counter_delta(before, after, "parallel.rounds") / parallel_solves);
      put("parallel.global_relabels_per_solve",
          counter_delta(before, after, "parallel.global_relabels") /
              parallel_solves);
      put("parallel.discharge_work_per_solve",
          counter_delta(before, after, "parallel.discharge_work") /
              parallel_solves);
    }
    put("alloc.per_op", static_cast<double>(untraced.rec.allocations()) /
                            static_cast<double>(untraced.rec.ops()));
    put("obs.trace_overhead_us", median(traced.rec.scaled_op_us()) -
                                     median(untraced.rec.scaled_op_us()));
    w->layer_metrics(layers,
                     static_cast<double>(untraced.rec.busy_ns()) * 1e-3 /
                         static_cast<double>(untraced.rounds),
                     static_cast<double>(untraced.net_cpu_ns) /
                         static_cast<double>(untraced.net_wall_ns));
  }

  std::vector<double> calib = untraced.rec.calib_points();
  calib.insert(calib.end(), traced.rec.calib_points().begin(),
               traced.rec.calib_points().end());
  const double calib_us = median(calib);
  layers["host.calib_us"] = calib_us;

  const std::int64_t attempted = untraced.rec.ops() + traced.rec.ops();
  const std::int64_t failed = untraced.failed + traced.failed;
  std::printf(
      "host {\"nproc\": %ld, \"cpu_model\": \"%s\", \"cgroup_cpu_max\": "
      "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"calib_us\": %.4f, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      "}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(read_first_line("/sys/fs/cgroup/cpu.max")).c_str(),
      PERFBENCH_BUILD_TYPE,
      json_escape(std::getenv("PERFBENCH_GIT_SHA")
                      ? std::getenv("PERFBENCH_GIT_SHA")
                      : "unknown")
          .c_str(),
      calib_us, attempted, failed);
  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  if (args.trace) {
    // The traced half beside the untraced half, at reference speed.
    const std::vector<double> u = untraced.rec.scaled_op_us();
    const std::vector<double> t = traced.rec.scaled_op_us();
    std::printf(
        "untraced {\"op_p50_us\": %.4f, \"op_p95_us\": %.4f, "
        "\"traced_op_p50_us\": %.4f, \"traced_op_p95_us\": %.4f}\n",
        quantile(u, 0.5), quantile(u, 0.95), quantile(t, 0.5),
        quantile(t, 0.95));
  }

  std::string metrics = "{";
  if (!args.trace) {
    // Every time is expressed at the reference host's speed: per call by
    // the calibration around it, and wall/CPU totals by the same overall
    // ratio of scaled to raw call time.
    const Recorder& rec = untraced.rec;
    const std::vector<double> scaled = rec.scaled_op_us();
    double raw_sum = 0.0, scaled_sum = 0.0;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      raw_sum += rec.op_us()[i];
      scaled_sum += scaled[i];
    }
    const double ratio = scaled_sum / raw_sum;
    const double secs = static_cast<double>(untraced.net_wall_ns) * 1e-9;
    const std::vector<double>& resp = w->model_responses();
    // Set-up is too short and too early for calibration around it; it is
    // scaled by the run's median calibration point instead.
    print_metric(metrics, "setup_s",
                 median(raw_setup_s) * kReferenceCalibUs / calib_us, "s");
    print_metric(metrics, "queries_per_s",
                 static_cast<double>(untraced.queries) / (secs * ratio),
                 "1/s");
    print_metric(metrics, "op_p50_us", quantile(scaled, 0.50), "us");
    print_metric(metrics, "op_p95_us", quantile(scaled, 0.95), "us");
    print_metric(metrics, "cpu_ms_per_query",
                 static_cast<double>(untraced.net_cpu_ns) * 1e-6 * ratio /
                     static_cast<double>(untraced.queries),
                 "ms");
    print_metric(metrics, "resp_p50_model_ms", harrell_davis(resp, 0.50),
                 "model_ms");
    print_metric(metrics, "resp_p99_model_ms", harrell_davis(resp, 0.99),
                 "model_ms");
    print_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    std::fprintf(stderr,
                 "perfbench: %s rounds=%" PRId64 " raw_setup_s=%.6f "
                 "raw_queries_per_s=%.3f raw_op_p50_us=%.3f "
                 "raw_op_p95_us=%.3f raw_cpu_ms_per_query=%.6f\n",
                 args.workload.c_str(), untraced.rounds, median(raw_setup_s),
                 static_cast<double>(untraced.queries) / secs,
                 quantile(rec.op_us(), 0.50), quantile(rec.op_us(), 0.95),
                 static_cast<double>(untraced.net_cpu_ns) * 1e-6 /
                     static_cast<double>(untraced.queries));
  } else {
    for (const auto& [name, unit] : layer_catalog()) {
      const auto it = layers.find(name);
      print_metric(metrics, name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              error.empty() ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) {
    const int failures = oracle::self_test();
    std::printf("oracle self-test: %s (%d failures)\n",
                failures == 0 ? "pass" : "FAIL", failures);
    return failures == 0 ? 0 : 1;
  }
  return perfbench::run(args);
}
