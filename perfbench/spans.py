"""Outside-in span tracing of the uttp layers.

The tracer replaces a function at the module attribute its caller looks it
up through (for example ``uttp.solver.athome_table``, which ``solve`` calls,
and ``uttp.analysis.athome_table``, which ``certify`` calls) with a wrapper
that records a span. Nothing under ``src/`` is edited: ``remove`` puts the
original functions back, so untraced and traced passes run in one process.

A span is ``[name, start, end, parent_index, item_id, meta]``. Spans stay in
memory until the pass ends; self time is a span's duration minus the
durations of its direct children (calls are synchronous, so children never
overlap one another).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Optional


def _vertex_count(args, kwargs) -> int:
    D = args[0]
    vertex_set = args[1] if len(args) > 1 else kwargs.get("vertex_set")
    return D.n if vertex_set is None else len(set(vertex_set))


def _hk_cells(args, kwargs, result) -> dict:
    k = _vertex_count(args, kwargs)
    return {"hk_dp_cells": k * (1 << (k - 1))}


def _matching_meta(args, kwargs, result) -> dict:
    return {"matching_exact": int(result.exact)}


def _athome_meta(args, kwargs, result) -> dict:
    # one (2n-2) x n table per call; each team-rotation walk reads L-1 legs
    # plus the two legs from and to home, so L+1 distance gathers of 8 bytes
    n = args[0].n
    L = 2 * n - 2
    gathers = L * n * (L + 1)
    return {"scan_gathers": gathers, "scan_bytes": 8 * gathers}


def _solve_meta(args, kwargs, result) -> dict:
    n = args[0].n
    return {"candidates": 2 * (n - 1) * (2 * n - 2)}


# (module, attribute, span name, meta) for every hook. A function reached
# through several modules is wrapped at each of them under one span name.
HOOKS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("uttp.cli", "main", "cli.main", None),
    ("uttp.cli", "_emit_report", "cli.emit_report", None),
    ("uttp.cli", "solve", "solver.solve", _solve_meta),
    ("uttp.solver", "solve", "solver.solve", _solve_meta),
    ("uttp.instance", "parse_distance_matrix", "instance.parse", None),
    ("uttp.solver", "build_pivoted_cycle", "tsp.build_pivoted_cycle", None),
    ("uttp.tsp", "select_pivot", "tsp.select_pivot", None),
    ("uttp.tsp", "held_karp", "tsp.held_karp", _hk_cells),
    ("uttp.solver", "held_karp", "tsp.held_karp", _hk_cells),
    ("uttp.tsp", "christofides", "tsp.christofides", None),
    ("uttp.tsp", "min_weight_perfect_matching", "tsp.matching", _matching_meta),
    ("uttp.solver", "schedule_family", "solver.schedule_family", None),
    ("uttp.solver", "mirror_and_assign", "schedule.mirror_and_assign", None),
    ("uttp.solver", "rotate", "schedule.rotate", None),
    ("uttp.solver", "relabel", "schedule.relabel", None),
    ("uttp.solver", "athome_table", "solver.athome_table", _athome_meta),
    ("uttp.analysis", "athome_table", "solver.athome_table", _athome_meta),
    ("uttp.solver", "evaluate_athome", "solver.evaluate_athome", None),
    ("uttp.analysis", "certify", "analysis.certify", None),
)

ROOT_SPAN = "bench.item"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item_id: Optional[int] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module_name, attr, name, meta in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, meta))
            self._patches.append((module, attr, original))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, meta: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if meta is not None:
                rec[5] = meta(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own (a root span)."""
        return self._wrap(fn, name, None)(*args)


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total time, self time, and summed meta counts."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, rec in enumerate(spans):
        agg = out[rec[0]]
        agg["calls"] += 1
        agg["total_s"] += rec[2] - rec[1]
        agg["self_s"] += rec[2] - rec[1] - child_time[i]
        for key, value in (rec[5] or {}).items():
            agg[key] += value
    return {name: dict(agg) for name, agg in out.items()}
