#!/usr/bin/env python3
"""The anytime-ladder benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn and ends with one line
that merges their results (metrics prefixed `<workload>.`). Run from
the repository root. The first run builds the library and the
benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check that the build is current. The binary runs the workload
with the frozen constants of perfbench/workloads.json, checks every
output, and prints raw samples; this script turns them into metrics.

With --trace 0 it prints every end_to_end metric of BENCHMARK.json,
with --trace 1 every per_layer metric (the traced run: runtime spans
plus the benchmark's own spans, written as one Chrome trace next to
the build). A human-readable table goes first; the last line of
stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Statistics come from raw samples only: p50 is the exact median, and a
`_tail` metric is the highest percentile with at least 10 samples
beyond it (the sorted sample at index n-11), printed with its
percentile and sample count.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY_TIMEOUT_S = 170
TAIL_BEYOND = 10


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure once, then build the binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "automaton.hpp")):
        fail("no library sources under src/ in " + root)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out, os.path.join(out, "anytime_perfbench")


def finite(values):
    return [v for v in values if v is not None and math.isfinite(v)]


def median(values):
    values = finite(values)
    return statistics.median(values) if values else None


def tail(values):
    """Highest order statistic with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 2 samples that statistic would
    sit at or below the median, so the maximum is reported instead
    (percentile 100); only per-layer metrics ever have so few samples.
    """
    values = sorted(finite(values))
    n = len(values)
    if n == 0:
        return None, None, 0
    if n < 2 * TAIL_BEYOND + 2:
        return values[-1], 100.0, n
    return values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return num / den


class Metrics:
    """Collects metric values with the notes the table prints."""

    def __init__(self, units):
        self.units = units
        self.values = {}
        self.notes = {}

    def put(self, name, value, note=""):
        self.values[name] = value
        self.notes[name] = note

    def p50(self, name, samples):
        values = finite(samples)
        self.put(name, median(values), f"n={len(values)}")

    def tail(self, name, samples):
        value, pct, n = tail(samples)
        note = f"p{pct:.1f} n={n}" if pct is not None else "no samples"
        if pct == 100.0:
            note += f" (max: fewer than {2 * TAIL_BEYOND + 2} samples)"
        self.put(name, value, note)


def end_to_end(raw, metrics):
    s = raw["samples"]
    # Recorded operations only: a warm-up phase is checked and counted
    # in "attempted" but not recorded.
    recorded = len(s["deadline_hit"])
    metrics.p50("setup_s", s["setup_s"])
    for key in ("first_version_ms", "t90_ms", "final_ms"):
        metrics.p50(key + "_p50", s[key])
        metrics.tail(key + "_tail", s[key])
    metrics.put("deadline_hit_ratio", ratio(sum(s["deadline_hit"]), recorded),
                f"n={recorded}")
    metrics.put("quality_at_deadline_mean",
                ratio(sum(s["quality_at_deadline"]), recorded), f"n={recorded}")
    metrics.put("peak_rss_mb", raw["layer_values"]["peak_rss_mb"])


def trace_split(trace_path, per_request):
    """Sweep slice/merge/wait ms per operation from the Chrome trace.

    The sweep stages are the ones whose `<stage>.slice` spans appear.
    The gang workload splits by the benchmark's perfbench.op spans (median
    over ops); the serving workload divides phase totals by requests.
    """
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    stages = {e["name"][:-len(".slice")] for e in events
              if e.get("cat") == "partition" and e["name"].endswith(".slice")}
    ops = sorted((e["ts"], e["ts"] + e["dur"]) for e in events if e["name"] == "perfbench.op")
    windows = ops if not per_request else [(-math.inf, math.inf)]
    sums = [{"slice": 0.0, "merge": 0.0, "stage": 0.0} for _ in windows]
    for e in events:
        name = e["name"]
        stage, _, suffix = name.rpartition(".")
        if stage in stages and suffix in ("slice", "merge"):
            kind = suffix
        elif name in stages and e.get("cat") == "stage":
            kind = "stage"
        else:
            continue
        for i, (lo, hi) in enumerate(windows):
            if lo <= e["ts"] <= hi:
                sums[i][kind] += e["dur"] / 1e3
                break
    split = {}
    for kind in ("slice", "merge"):
        split[kind] = [w[kind] for w in sums]
    split["wait"] = [w["stage"] - w["slice"] - w["merge"] for w in sums]
    if per_request:
        return {k: v[0] / per_request for k, v in split.items()}
    return {k: median(v) for k, v in split.items()}


def per_layer(raw, metrics, trace_path):
    """Every per-layer metric whose raw samples the workload reported.

    The binary names the metrics it cannot measure, and why, in
    raw["not_measured"]; the caller prints those as n/a.
    """
    ls, lv = raw["layer_samples"], raw["layer_values"]
    pixels = raw["info"]["kernel.pixels"]

    def samples(key):
        return ls.get(key, [])

    def ms_rate(key):
        m = median(samples(key))
        return pixels / m / 1e3 if m else None

    metrics.put("simd.conv2d_mpix_s", ms_rate("simd.conv2d_ms"), f"n={len(samples('simd.conv2d_ms'))}")
    metrics.put("simd.kmeans_mpix_s", ms_rate("simd.kmeans_ms"), f"n={len(samples('simd.kmeans_ms'))}")
    metrics.put("simd.scalar_speedup",
                ratio(median(samples("simd.conv2d_scalar_ms")), median(samples("simd.conv2d_ms"))),
                "scalar convolve() / active ISA")
    metrics.put("simd.conv2d_ops", lv["simd.conv2d_ops"], "computed, taps x pixels")
    metrics.put("simd.conv2d_bytes", lv["simd.conv2d_bytes"], "computed, bytes read + written")
    metrics.p50("sampling.tree_plan_ms", samples("sampling.tree_plan_ms"))
    metrics.p50("apps.build_ms_p50", samples("apps.build_ms"))
    metrics.tail("apps.build_ms_tail", samples("apps.build_ms"))
    metrics.put("apps.t90_norm",
                ratio(median(samples("untraced.t90_ms")),
                      median(samples("baseline.conv2d_reference_ms"))),
                "t90_ms p50 / convolveReference() p50")

    traced_final = median(samples("traced.final_ms"))
    split = trace_split(trace_path, raw["info"].get("trace.requests"))
    metrics.put("core.sweep.slice_ms", split["slice"], "per op, from <stage>.slice spans")
    metrics.put("core.sweep.merge_ms", split["merge"], "per op, from <stage>.merge spans")
    metrics.put("core.sweep.wait_ms", split["wait"], "per op, stage span - slice - merge")
    metrics.put("core.sweep.merge_share", ratio(split["merge"], traced_final),
                "merge_ms / traced final_ms p50")
    metrics.put("obs.trace_overhead_ratio",
                ratio(traced_final, median(samples("untraced.final_ms"))),
                "traced / untraced final_ms p50")
    metrics.put("obs.trace_dropped_records", lv["obs.trace_dropped_records"])

    metrics.p50("core.run_ms", samples("core.run_ms"))
    metrics.p50("core.shutdown_ms", samples("core.shutdown_ms"))
    metrics.p50("core.publish_gap_ms_p50", samples("core.publish_gap_ms"))
    metrics.p50("core.versions_published", samples("core.versions_published"))
    metrics.put("core.gang_speedup",
                ratio(median(samples("k1.t90_ms")), median(samples("untraced.t90_ms"))),
                "t90_ms p50 at k=1 / at k=gang")
    metrics.p50("core.pipeline.consume_ratio", samples("core.pipeline.consume_ratio"))

    metrics.p50("service.queue_ms_p50", samples("service.queue_ms"))
    metrics.tail("service.queue_ms_tail", samples("service.queue_ms"))
    metrics.p50("service.first_version_ms_p50", samples("service.first_version_ms"))
    metrics.put("service.pool_busy_ratio", lv.get("service.pool_busy_ratio"),
                "mean of 1 ms samples of workersInUse() / pool")
    statuses = {k: v for k, v in lv.items() if k.startswith("service.status.")}
    if statuses:
        refused = sum(v for k, v in statuses.items()
                      if k.startswith("service.status.shed")
                      or k in ("service.status.expired", "service.status.error"))
        metrics.put("service.shed_ratio", refused, "sheds + expired + admission errors / attempted")
        for name in metrics.units:
            if name.startswith("service.status."):
                metrics.put(name, statuses.get(name, 0.0), "share of attempted")
    metrics.p50("net.first_version_overhead_ms_p50", samples("net.first_version_overhead_ms"))
    metrics.tail("net.first_version_overhead_ms_tail", samples("net.first_version_overhead_ms"))
    metrics.p50("net.version_delivery_ms_p50", samples("net.version_delivery_ms"))
    metrics.tail("net.version_delivery_ms_tail", samples("net.version_delivery_ms"))
    metrics.put("net.versions_delivered_ratio", lv.get("net.versions_delivered_ratio"))
    metrics.put("net.bytes_per_request", lv.get("net.bytes_per_request"))
    metrics.p50("gen.late_ms_p50", samples("gen.late_ms"))
    late = finite(samples("gen.late_ms"))
    metrics.put("gen.late_ms_max", max(late) if late else None, f"n={len(late)}")


def not_measured_reason(name, not_measured):
    """The binary's reason for not measuring @name, or None."""
    for key, reason in not_measured.items():
        if name == key or (key.endswith(".") and name.startswith(key)):
            return reason
    return None


def run_all(args, workloads):
    """Run every workload in turn; the last line sums their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {proc.returncode}", proc.returncode or 3)
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open(bench_path) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        specs = json.load(f)
    if args.workload == "all":
        return run_all(args, list(specs))
    if args.workload not in specs:
        fail(f"unknown workload {args.workload}; have {', '.join(sorted(specs))}")
    constants = specs[args.workload]
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get(args.workload, "")
    out_dir, binary = build(root)

    trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_path]
    for key, value in constants.items():
        cmd += ["--" + key, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"binary did not finish within {BINARY_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        fail(f"binary exited with {proc.returncode}", 3)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    metrics = Metrics(units)
    if args.trace:
        per_layer(raw, metrics, trace_path)
    else:
        end_to_end(raw, metrics)

    host = raw["host"]
    counts = raw["counts"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{why}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if host["debug_or_sanitizer_build"]:
        print("WARNING: debug or sanitizer build; timings are not comparable")
    print(f"operations: attempted {counts['attempted']:.0f}, succeeded {counts['succeeded']:.0f}, "
          f"refused {counts['refused']:.0f}, failed {counts['failed']:.0f}")
    for key, value in sorted(raw["info"].items()):
        print(f"setup: {key} = {value}")
    bad_checks = [c for c in raw["checks"] if not c["ok"]]
    for c in raw["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f" ({c['detail']})" if not c["ok"] and c["detail"] else ""))

    result = {}
    missing = []
    for name, unit in units.items():
        reason = not_measured_reason(name, raw["not_measured"]) if args.trace else None
        if reason is not None:
            print(f"{name:40s} {'n/a':>14s} {unit:8s} not measured: {reason}")
            result[name] = {"value": 0, "unit": unit}
            continue
        value = metrics.values.get(name)
        if value is None:
            missing.append(name)
            continue
        print(f"{name:40s} {value:14.4f} {unit:8s} {metrics.notes[name]}")
        result[name] = {"value": value, "unit": unit}
    extra = sorted(set(metrics.values) - set(units))
    for name in extra:
        print(f"(not in BENCHMARK.json) {name} = {metrics.values[name]}")
    if missing:
        fail("metrics named in BENCHMARK.json were not emitted: " + ", ".join(missing), 4)

    correct = not bad_checks and counts["failed"] == 0 and counts["attempted"] >= 1
    print(json.dumps({"correct": correct, "attempted": int(counts["attempted"]),
                      "failed": int(counts["failed"]), "metrics": result}))


if __name__ == "__main__":
    main()
