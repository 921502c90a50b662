#!/usr/bin/env python3
"""uttp benchmark: one workload per invocation, in fresh single-threaded
worker processes.

    python3 perfbench/run.py --workload exact-mid --seed 1 --seconds 30 --trace 0

Run from the repository root. The solver is imported from ``src/``; the
command fails (nonzero exit, no result line) when that source is missing.

Set-up (process start, imports, instance generation and a warm-up) is timed
in ``SETUP_ROUNDS`` fresh worker processes and reported as their median;
the last of them goes on to the timed passes. Each pass solves every item
of the workload once, one after the other (a closed loop with one caller),
until ``--seconds`` is spent. With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics come from the traced ones.

Every line of standard output but the last is the human-readable report; the
last is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 5
DEADLINE_S = 170  # the whole command, every worker included
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
# run.py stays free of numpy and uttp imports, so it names the workloads itself
WORKLOAD_NAMES = ("exact-mid", "heuristic-large", "cli-batch")

# (metric, unit, span name, field); field "self_s" is the span's duration
# less its child spans, "total_s" includes them. Counts marked computed are
# derived from the instance size at each call, not measured.
LAYER_METRICS = (
    ("tsp.held_karp_s", "s", "tsp.held_karp", "self_s"),
    ("tsp.held_karp_calls", "count", "tsp.held_karp", "calls"),
    ("tsp.hk_dp_cells", "count", "tsp.held_karp", "hk_dp_cells"),  # computed
    ("tsp.christofides_s", "s", "tsp.christofides", "self_s"),
    ("tsp.matching_s", "s", "tsp.matching", "self_s"),
    ("tsp.select_pivot_s", "s", "tsp.select_pivot", "self_s"),
    ("tsp.build_pivoted_cycle_s", "s", "tsp.build_pivoted_cycle", "self_s"),
    ("solver.athome_table_s", "s", "solver.athome_table", "self_s"),
    ("solver.athome_table_calls", "count", "solver.athome_table", "calls"),
    ("solver.candidates", "count", "solver.solve", "candidates"),  # computed
    ("solver.scan_gathers", "count", "solver.athome_table", "scan_gathers"),  # computed
    ("solver.scan_bytes", "B", "solver.athome_table", "scan_bytes"),  # computed
    ("solver.schedule_family_s", "s", "solver.schedule_family", "self_s"),
    ("schedule.rotate_s", "s", "schedule.rotate", "self_s"),
    ("schedule.rotate_calls", "count", "schedule.rotate", "calls"),
    ("schedule.mirror_and_assign_s", "s", "schedule.mirror_and_assign", "self_s"),
    ("schedule.relabel_s", "s", "schedule.relabel", "self_s"),
    ("solver.evaluate_athome_s", "s", "solver.evaluate_athome", "self_s"),
    ("solver.solve_self_s", "s", "solver.solve", "self_s"),
    ("analysis.certify_s", "s", "analysis.certify", "self_s"),
    ("analysis.certify_calls", "count", "analysis.certify", "calls"),
    ("instance.parse_s", "s", "instance.parse", "self_s"),
    ("cli.main_s", "s", "cli.main", "total_s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("cli.emit_report_s", "s", "cli.emit_report", "self_s"),
    ("bench.item_self_s", "s", "bench.item", "self_s"),
)
COMPUTED = {"tsp.hk_dp_cells", "solver.candidates", "solver.scan_gathers", "solver.scan_bytes"}


class BenchError(RuntimeError):
    pass


def _read_lines(stream, out: list) -> None:
    for line in stream:
        out.append((time.perf_counter(), line))


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start one worker; return its set-up time and, unless ``setup_only``,
    its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
    lines: list = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines))
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline and was stopped")
    finally:
        reader.join()
        proc.stdout.close()
    events = [(t, json.loads(line)) for t, line in lines if line.startswith("{")]
    ready = [t for t, ev in events if ev.get("event") == "ready"]
    results = [ev for _, ev in events if ev.get("event") == "result"]
    if code != 0 or not ready or (not setup_only and not results):
        raise BenchError(f"worker exited with code {code} before reporting")
    return ready[0] - start, (None if setup_only else results[0])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def in_ref_units(p: dict, ref_s: list[float]) -> list[float]:
    """A pass's solve latencies, each divided by the mean of the reference
    samples taken just before and just after it."""
    return [x * 2 / (ref_s[k - 1] + ref_s[k]) for x, k in zip(p["latencies"], p["ref_at"])]


def end_to_end(res: dict, setups: list[float], failed_frac: float) -> tuple[list, list]:
    """The gated metrics, and the same timings in plain units for the report.

    Pass and solve times are gated in units of the reference work timed
    around each solve (see ``worker.ReferenceWork``): on a shared host, plain
    seconds drift by more than any useful bound between sets of runs.
    """
    untraced = [p for p in res["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    lat_ms = [x * 1000 for p in untraced for x in p["latencies"]]
    per_pass_ref = [in_ref_units(p, res["ref_s"]) for p in untraced]
    wall_ref = [sum(lat) for lat in per_pass_ref]
    lat_ref = [x for lat in per_pass_ref for x in lat]
    wall = statistics.median(walls)
    gated = [
        ("setup_s", statistics.median(setups), "s", setups),
        ("wall_ref", statistics.median(wall_ref), "ref", wall_ref),
        ("latency_p50_ref", statistics.median(lat_ref), "ref", lat_ref),
        ("latency_p90_ref", p90(lat_ref), "ref", lat_ref),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", None),
        ("total_travel", res["total_travel"], "distance", None),
    ]
    seconds = [
        ("wall_s", wall, "s", walls),
        ("solves_per_s", res["items"] * (1 - failed_frac) / wall, "solves/s", None),
        ("latency_ms_p50", statistics.median(lat_ms), "ms", lat_ms),
        ("latency_ms_p90", p90(lat_ms), "ms", lat_ms),
        ("ref_ms", statistics.median(res["ref_s"]) * 1000, "ms",
         [x * 1000 for x in res["ref_s"]]),
    ]
    return gated, seconds


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(res: dict) -> tuple[list, list[str]]:
    traced = [p for p in res["passes"] if p["traced"]]
    untraced_wall = statistics.median(p["wall_s"] for p in res["passes"] if not p["traced"])

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def field(p, span, key):
        return p["layers"].get(span, {}).get(key, 0)

    rows = [(name, med(lambda p: field(p, span, key)), unit, None)
            for name, unit, span, key in LAYER_METRICS]
    exact = sum(field(p, "tsp.matching", "matching_exact") for p in traced)
    calls = sum(field(p, "tsp.matching", "calls") for p in traced)
    traced_wall = med(lambda p: p["wall_s"])
    self_sum = med(lambda p: sum(s["self_s"] for s in p["layers"].values()))
    rows += [
        ("tsp.matching_exact_frac", exact / calls if calls else 0.0, "ratio", None),
        ("trace.wall_s", traced_wall, "s", [p["wall_s"] for p in traced]),
        ("trace.overhead_s", traced_wall - untraced_wall, "s", None),
        ("trace.self_sum_s", self_sum, "s", None),
        ("trace.unaccounted_s", traced_wall - self_sum, "s", None),
        ("trace.spans", med(lambda p: p["spans"]), "count", None),
        ("bench.ref_ms", statistics.median(res["ref_s"]) * 1000, "ms", None),
    ]
    missing = sorted({h for p in traced for h in p["missing_hooks"]})
    return rows, missing


def show(name: str, value: float, unit: str, samples) -> str:
    line = f"  {name:30s} {value:14.6g} {unit}"
    if samples:
        q1, _, q3 = quartiles(samples)
        line += f"   median of {len(samples)}, q1 {q1:.6g}, q3 {q3:.6g}"
    if name in COMPUTED:
        line += "   (computed from n, not measured)"
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "uttp" / "__init__.py").is_file():
        print(f"error: no uttp source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_ROUNDS - 1)]
        setup, res = run_worker(args, False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    if not Path(res["env"]["uttp"]).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported uttp from {res['env']['uttp']}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    attempted = len(res["passes"]) * res["items"]
    failed = res["failed"]
    selftest = res["self_test"]
    selftest_ok = bool(selftest) and all(selftest.values())
    e2e, seconds = end_to_end(res, setups, failed / attempted)
    layers, missing = per_layer(res) if args.trace else ([], [])
    correct = failed == 0 and selftest_ok and not missing

    env = res["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"worker threads {env['threads']}, OMP_NUM_THREADS={env['omp_num_threads']}")
    print(f"passes: {len(res['passes'])} ({sum(p['traced'] for p in res['passes'])} traced), "
          f"{res['items']} solves each, closed loop, one caller")
    print("end-to-end" + (" (untraced passes)" if args.trace else "") + ":")
    for row in e2e:
        print(show(*row))
    print("  in seconds (not gated; 'ref' above is the reference work's time):")
    for row in seconds:
        print(show(*row))
    print(f"  {'failed_frac':30s} {failed / attempted:14.6g} ratio   ({failed} of {attempted})")
    gap = res["gap_pct_mean"]
    print(f"  {'gap_pct_mean':30s} " + ("n/a (no tau past the exact-tour cap)"
                                       if gap is None else f"{gap:14.6g} %"))
    if args.trace:
        print("per-layer (traced passes, self time unless named _main_s):")
        for row in layers:
            print(show(*row))
        print("missing hooks: " + (", ".join(missing) if missing else "none"))
        print(f"spans written to {res['spans_file']}")
        print("traced reports identical to untraced: "
              + ("yes" if failed == 0 else "no, see errors"))
    for fault, caught in selftest.items():
        print(f"gate self-test {fault}: " + (f"caught ({caught[0]})" if caught else "MISSED"))
    for err in res["errors"]:
        print(f"gate error: {err}")

    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
