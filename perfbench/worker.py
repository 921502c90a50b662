"""One workload in one fresh process: set up, run timed passes, gate.

Started by ``run.py``; not meant to be run by hand. Protocol on stdout, one
JSON object per line: ``{"event": "ready"}`` once set-up (imports, instance
generation, warm-up) is done, then ``{"event": "result", ...}`` with the raw
measurements. With ``--setup-only`` the process exits after "ready", so
``run.py`` can time set-up several times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import uttp
from gate import check, reference_tau, self_test
from spans import ROOT_SPAN, Tracer, summarize
from workloads import WORKLOADS, Workload


REF_EVERY_S = 0.5


class ReferenceWork:
    """A fixed piece of work unrelated to uttp, half interpreter loop and half
    numpy gathers (the two kinds of work a solve does), timed between solves.

    The host's speed drifts by tens of percent within minutes, and can
    change in the middle of a run. Dividing each solve's time by the
    reference time measured just before and after it (samples are at most
    ``REF_EVERY_S`` apart) cancels most of that drift while leaving any
    change to uttp's own code in full view.
    """

    def __init__(self) -> None:
        size = 1 << 18
        self.values = np.arange(size, dtype=np.int64)
        self.index = (np.arange(size, dtype=np.int64) * 7919) % size

    def time(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += (i * i) % 7
        for _ in range(20):
            acc += int(self.values[self.index].sum())
        return time.perf_counter() - start


def run_pass(wl: Workload, tracer: Tracer | None, reference: ReferenceWork,
             ref_s: list[float]) -> tuple[float, list, list, list]:
    """Solve every item once, closed loop. Returns the pass time (the sum of
    the per-item latencies), the latencies, for each item the index in
    ``ref_s`` of the first reference sample taken after it, and the per-item
    results (or exceptions). Between items, outside the timed calls, the
    reference work is timed into ``ref_s`` whenever ``REF_EVERY_S`` has
    passed since its last sample."""
    latencies, ref_at, results = [], [], []
    clock = time.perf_counter
    last_ref = clock()
    for i, item in enumerate(wl.items):
        t0 = clock()
        try:
            if tracer is None:
                result = wl.call(item.arg)
            else:
                tracer.item_id = i
                result = tracer.span(ROOT_SPAN, wl.call, item.arg)
        except Exception as exc:  # a failed solve is counted, not fatal
            result = exc
        t1 = clock()
        latencies.append(t1 - t0)
        ref_at.append(len(ref_s))
        results.append(result)
        if t1 - last_ref >= REF_EVERY_S:
            ref_s.append(reference.time())
            last_ref = clock()
    return sum(latencies), latencies, ref_at, results


def gate(wl: Workload, first: list, later: list[list[int]]) -> tuple[int, list[str], dict]:
    """Check every item of the first pass in full; ``later`` lists, for each
    later pass, the items whose results differed from the first pass's.
    Returns the number of failed solves over all passes, the errors, and the
    gate's self-test on the first passing output."""
    ok, errors = [], []
    selftest = None
    kw = dict(as_float=wl.as_float, want_certificate=wl.want_certificate)
    for item, result in zip(wl.items, first):
        try:
            if isinstance(result, Exception):
                raise result
            outcome = wl.outcome(result)
            tau_ref = reference_tau(item.name, item.d)
            errs = check(outcome, item.name, item.d, tau_ref, **kw)
            if not errs and selftest is None:
                selftest = self_test(outcome, item.name, item.d, tau_ref, **kw)
        except Exception as exc:
            errs = [f"{item.name}: {type(exc).__name__}: {exc}"]
        ok.append(not errs)
        errors.extend(errs)
    failed = ok.count(False)
    for differing in later:
        failed += sum(not good or i in differing for i, good in enumerate(ok))
        errors.extend(f"{wl.items[i].name}: result differs from the first pass's"
                      for i in differing if ok[i])
    return failed, errors, selftest or {}


def layer_counts(wl: Workload, spans: list) -> dict:
    by_name = summarize(spans)
    missing = [h for h in wl.expected_hooks if h not in by_name]
    return {"layers": by_name, "missing_hooks": missing}


def write_spans(path: Path, pass_index: int, spans: list) -> None:
    keys = ("name", "start", "end", "parent", "item", "meta")
    with path.open("a") as f:
        for rec in spans:
            f.write(json.dumps(dict(zip(keys, rec), **{"pass": pass_index})) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        for item in wl.items[: wl.warmup_items]:
            wl.call(item.arg)
        reference = ReferenceWork()
        reference.time()
        print(json.dumps({"event": "ready"}), flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        spans_out = root / ".perfbench-out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        if tracer:
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text("")
        passes, first, later = [], [], []
        start = time.perf_counter()
        ref_s = [reference.time()]
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.spans.clear()
                tracer.install()
            try:
                wall, lat, ref_at, results = run_pass(wl, tracer if traced else None, reference, ref_s)
            finally:
                if traced:
                    tracer.remove()
            entry = {"traced": traced, "wall_s": wall, "latencies": lat, "ref_at": ref_at}
            if passes:
                later.append([i for i, (a, b) in enumerate(zip(results, first)) if a != b])
            else:
                first = results
            del results
            if traced:
                entry.update(layer_counts(wl, tracer.spans))
                entry["spans"] = len(tracer.spans)
                write_spans(spans_out, len(passes), tracer.spans)
            passes.append(entry)
            elapsed = time.perf_counter() - start
            if len(passes) >= (2 if tracer else 1) and elapsed + wall > args.seconds:
                break
        ref_s.append(reference.time())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, errors, selftest = gate(wl, first, later)
        outcomes = [wl.outcome(r) for r in first] if failed == 0 else []
        gaps = [float(o.total) / float(o.lower_bound) * 100 - 100
                for o in outcomes if o.lower_bound]
        result = {
            "event": "result",
            "passes": passes,
            "ref_s": ref_s,
            "items": len(wl.items),
            "failed": failed,
            "errors": errors[:20],
            "self_test": selftest,
            "total_travel": float(sum(o.total for o in outcomes)),
            "gap_pct_mean": statistics.fmean(gaps) if gaps else None,
            "peak_rss_mb": peak_rss_mb,
            "spans_file": str(spans_out.relative_to(root)) if tracer else None,
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "uttp": uttp.__file__,
                "nproc": len(os.sched_getaffinity(0)),
                "threads": threading.active_count(),
                "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
