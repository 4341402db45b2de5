#!/usr/bin/env python3
"""CI perf-smoke gate: compare a fresh bench run against committed baselines.

Inputs:
  * a google-benchmark JSON file (``--bench-json``), compared per-benchmark
    against the ``micro_matching.real_time_ns`` table of the baseline;
  * a metrics sidecar JSON (``--stream-metrics``) from
    ``stream_throughput --metrics-json=...``, whose ``stream.throughput_qps``
    gauge must clear the baseline's ``gate_min_matching_qps`` floor;
  * a metrics sidecar JSON (``--router-metrics``) from
    ``stream_throughput --admission=coalesce --metrics-json=...``, whose
    ``router.overload.*`` gauges must satisfy the baseline's
    ``router_overload`` gates.  These response times are virtual/model
    milliseconds — deterministic for a fixed seed — so unlike the wall-clock
    gates no noise tolerance is applied.
  * a head-to-head JSON (``--parallel-head``) from
    ``fig10_parallel_speedup --bench-json=...``, whose
    ``round_over_hong_he`` ratio at the largest thread count must clear the
    baseline's ``gate_min_round_over_hong_he`` floor;
  * a metrics sidecar JSON (``--parallel-metrics``) from the same run, which
    must show the round engine actually ran (``parallel.rounds`` and
    ``parallel.global_relabels`` counters > 0);
  * a degree-16 cells JSON (``--degree16``) from
    ``multi_copy_extension --bench-json=...``, whose ``bucketed_speedup``
    must show the degree-bucketed adjacency keeping the baseline's
    ``degree16.gate_min_bucketed_speedup`` edge over the unbucketed scan.

CI runners are noisy shared machines, so the timing comparison is
deliberately generous: a benchmark only fails when it is more than
``--tolerance`` (default 2.0) times slower than the committed number.
Genuine algorithmic regressions (accidentally falling off the
zero-allocation path, a kernel devolving to per-query rebuilds) show up as
3-10x slowdowns and trip the gate; scheduler jitter does not.

Exit status: 0 = within tolerance, 1 = regression or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench_regression: cannot read {path}: {exc}")


def check_bench_times(baseline: dict, bench_path: str, tolerance: float):
    """Compare fresh google-benchmark real_time against the baseline table."""
    table = baseline.get("micro_matching", {}).get("real_time_ns", {})
    if not table:
        sys.exit("baseline has no micro_matching.real_time_ns table")
    fresh = {
        b["name"]: float(b["real_time"])
        for b in load_json(bench_path).get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }
    failures = []
    for name, base_ns in table.items():
        got = fresh.get(name)
        if got is None:
            # A benchmark that vanished is itself a regression: the gate
            # would silently stop covering it.
            failures.append(f"{name}: missing from {bench_path}")
            continue
        limit = tolerance * float(base_ns)
        verdict = "ok" if got <= limit else "REGRESSED"
        print(f"{name:55s} base={base_ns:>12.0f}ns "
              f"now={got:>12.0f}ns limit={limit:>12.0f}ns {verdict}")
        if got > limit:
            failures.append(
                f"{name}: {got:.0f}ns > {tolerance:g}x baseline "
                f"({base_ns:.0f}ns)")
    return failures


def check_stream_metrics(baseline: dict, metrics_path: str):
    """The stream run must sustain the baseline's QPS floor."""
    floor = baseline.get("stream_throughput", {}).get(
        "gate_min_matching_qps")
    if floor is None:
        sys.exit("baseline has no stream_throughput.gate_min_matching_qps")
    metrics = load_json(metrics_path)
    qps = metrics.get("gauges", {}).get("stream.throughput_qps")
    if qps is None:
        return ["stream.throughput_qps gauge not published in "
                f"{metrics_path}"]
    print(f"stream.throughput_qps = {qps:.0f} (floor {floor})")
    if qps < floor:
        return [f"stream throughput regressed: {qps:.0f} qps < {floor}"]
    return []


def check_router_metrics(baseline: dict, metrics_path: str):
    """The admission-controlled overload run must keep p99 bounded."""
    gates = baseline.get("router_overload", {})
    max_p99 = gates.get("gate_max_coalesce_p99_ms")
    min_ratio = gates.get("gate_min_off_over_coalesce_p99_ratio")
    if max_p99 is None or min_ratio is None:
        sys.exit("baseline has no router_overload gates "
                 "(gate_max_coalesce_p99_ms / "
                 "gate_min_off_over_coalesce_p99_ratio)")
    gauges = load_json(metrics_path).get("gauges", {})
    off_p99 = gauges.get("router.overload.off_p99_ms")
    coalesce_p99 = gauges.get("router.overload.coalesce_p99_ms")
    failures = []
    if off_p99 is None or coalesce_p99 is None:
        return [f"router.overload.*_p99_ms gauges not published in "
                f"{metrics_path} (run stream_throughput with "
                f"--admission=coalesce)"]
    ratio = off_p99 / coalesce_p99 if coalesce_p99 > 0 else float("inf")
    print(f"router.overload.off_p99_ms      = {off_p99:.1f}")
    print(f"router.overload.coalesce_p99_ms = {coalesce_p99:.1f} "
          f"(gate <= {max_p99})")
    print(f"off/coalesce p99 ratio          = {ratio:.1f}x "
          f"(gate >= {min_ratio}x)")
    if coalesce_p99 > max_p99:
        failures.append(
            f"coalesce p99 not bounded: {coalesce_p99:.1f} ms > "
            f"{max_p99} ms")
    if ratio < min_ratio:
        failures.append(
            f"admission control lost its edge: off/coalesce p99 ratio "
            f"{ratio:.1f}x < {min_ratio}x")
    return failures


def check_parallel_head(baseline: dict, head_path: str):
    """Round engine must stay competitive with Hong & He.

    The ratio gate applies at the largest thread count only: that is where
    the pre-cutoff regression (two pool barriers per tiny round) was worst,
    and where a barrier-cost regression would reappear first.  Both engines
    are timed over identical problems in one process, so the ratio is much
    more stable than either wall-clock number alone.
    """
    gates = baseline.get("parallel_head_to_head", {})
    min_ratio = gates.get("gate_min_round_over_hong_he")
    if min_ratio is None:
        sys.exit("baseline has no parallel_head_to_head."
                 "gate_min_round_over_hong_he")
    head = load_json(head_path)
    rows = head.get("head_to_head", [])
    if not rows:
        return [f"no head_to_head rows in {head_path}"]
    top = max(rows, key=lambda r: r.get("threads", 0))
    ratio = top.get("round_over_hong_he")
    if ratio is None:
        return [f"head_to_head row lacks round_over_hong_he in {head_path}"]
    print(f"round/hong_he @ {top.get('threads')} threads = {ratio:.3f} "
          f"(gate >= {min_ratio})")
    if ratio < min_ratio:
        return [f"round engine regressed vs hong_he at "
                f"{top.get('threads')} threads: {ratio:.3f} < {min_ratio}"]
    return []


def check_degree16(baseline: dict, cells_path: str):
    """Degree-bucketed adjacency must keep its edge on the degree-16 cells.

    Both adjacency orders are timed over identical problems in one process,
    so the ratio is much more stable than either wall-clock number alone.
    These dense c > 2 shapes are what the degree-bucketed order exists for.
    """
    min_bucketed = baseline.get("degree16", {}).get(
        "gate_min_bucketed_speedup")
    if min_bucketed is None:
        sys.exit("baseline has no degree16.gate_min_bucketed_speedup")
    speedup = load_json(cells_path).get("degree16", {}).get(
        "bucketed_speedup")
    if speedup is None:
        return [f"no degree16.bucketed_speedup in {cells_path}"]
    print(f"degree-bucketed speedup (degree-16 cells) = {speedup:.3f} "
          f"(gate >= {min_bucketed})")
    if speedup < min_bucketed:
        return [f"degree-bucketed adjacency lost its edge on the degree-16 "
                f"cells: {speedup:.3f} < {min_bucketed}"]
    return []


def check_parallel_metrics(metrics_path: str):
    """The head-to-head run must have exercised the round engine."""
    counters = load_json(metrics_path).get("counters", {})
    failures = []
    for name in ("parallel.rounds", "parallel.global_relabels"):
        value = counters.get(name, 0)
        print(f"{name} = {value}")
        if not value:
            failures.append(
                f"{name} counter is {value} in {metrics_path}: the round "
                f"engine never ran")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_matching.json",
                        help="committed baseline JSON")
    parser.add_argument("--bench-json",
                        help="fresh google-benchmark JSON output")
    parser.add_argument("--stream-metrics",
                        help="fresh stream_throughput metrics sidecar")
    parser.add_argument("--router-metrics",
                        help="metrics sidecar from an --admission=coalesce "
                             "overload run")
    parser.add_argument("--parallel-head",
                        help="fig10_parallel_speedup --bench-json output")
    parser.add_argument("--parallel-metrics",
                        help="metrics sidecar from the head-to-head run")
    parser.add_argument("--degree16",
                        help="multi_copy_extension --bench-json output "
                             "(degree-16 cells)")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="slowdown factor that fails the gate")
    args = parser.parse_args()
    if not (args.bench_json or args.stream_metrics or args.router_metrics
            or args.parallel_head or args.parallel_metrics
            or args.degree16):
        parser.error("nothing to check: pass --bench-json, "
                     "--stream-metrics, --router-metrics, "
                     "--parallel-head, --parallel-metrics, and/or "
                     "--degree16")

    baseline = load_json(args.baseline)
    failures = []
    if args.bench_json:
        failures += check_bench_times(baseline, args.bench_json,
                                      args.tolerance)
    if args.stream_metrics:
        failures += check_stream_metrics(baseline, args.stream_metrics)
    if args.router_metrics:
        failures += check_router_metrics(baseline, args.router_metrics)
    if args.parallel_head:
        failures += check_parallel_head(baseline, args.parallel_head)
    if args.parallel_metrics:
        failures += check_parallel_metrics(args.parallel_metrics)
    if args.degree16:
        failures += check_degree16(baseline, args.degree16)

    if failures:
        print("\nPERF REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
