"""The three benchmark workloads: their inputs, the call each item makes, and
the hooks a traced pass must see fire.

Inputs come only from ``--seed``: instance ``i`` of a workload is
``random_euclidean_instance(n, seed * 1000 + i)``. The solver sees nothing but
the generated text (or file), which it parses on the clock.

- exact-mid: Held-Karp dominates (ROADMAP item 4); the scan and certificate
  are small, so the O(n^3) scan (item 2) should not move it.
- heuristic-large: every size is above the Held-Karp cap, so the schedule
  family and candidate scan dominate (item 2), and the matching mode shows
  what exact matching (item 5) would cost.
- cli-batch: many small CLI solves with the candidate dump; the only
  workload on ``cli``, the JSON emit and the rational numeric path (item 3).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import uttp.cli
import uttp.instance
import uttp.solver
from uttp.instance import random_euclidean_instance, render_distance_matrix

from gate import Outcome, from_cli_json, from_report


@dataclass
class Item:
    name: str
    d: list  # the gate's reference distances (ints or Fractions)
    arg: str  # instance text (library workloads) or file path (cli-batch)


@dataclass
class Workload:
    items: list[Item]
    call: Callable[[str], object]
    outcome: Callable[[object], Outcome]
    want_certificate: bool
    as_float: bool  # outputs print rationals as floats
    warmup_items: int
    expected_hooks: tuple[str, ...]


COMMON_HOOKS = (
    "instance.parse", "solver.solve", "tsp.build_pivoted_cycle",
    "tsp.select_pivot", "solver.schedule_family", "schedule.mirror_and_assign",
    "schedule.rotate", "schedule.relabel", "solver.athome_table",
    "solver.evaluate_athome",
)


def _random_item(n: int, seed: int) -> Item:
    D = random_euclidean_instance(n, seed)
    return Item(f"rand{n}-s{seed}", [list(r) for r in D.d], render_distance_matrix(D))


def _library(mode: str, want_certificate: bool):
    def call(text: str):
        D = uttp.instance.parse_distance_matrix(text)
        return uttp.solver.solve(D, mode=mode, want_certificate=want_certificate)

    return call


def _lib_outcome(result) -> Outcome:
    return from_report(*result)


def exact_mid(seed: int, workdir: Path) -> Workload:
    sizes = (14, 14, 14, 16, 16)
    return Workload(
        items=[_random_item(n, seed * 1000 + i) for i, n in enumerate(sizes)],
        call=_library("exact", True),
        outcome=_lib_outcome,
        want_certificate=True,
        as_float=False,
        warmup_items=1,
        expected_hooks=COMMON_HOOKS + ("tsp.held_karp", "analysis.certify"),
    )


def heuristic_large(seed: int, workdir: Path) -> Workload:
    sizes = (40, 50, 60)
    return Workload(
        items=[_random_item(n, seed * 1000 + i) for i, n in enumerate(sizes)],
        call=_library("christofides", False),
        outcome=_lib_outcome,
        want_certificate=False,
        as_float=False,
        warmup_items=1,
        expected_hooks=COMMON_HOOKS + ("tsp.christofides", "tsp.matching"),
    )


CLI_RANDOM_FILES = 117
CLI_SIZES = (4, 6, 8, 10, 12)


def _nl_rows(path: Path) -> list[list[int]]:
    tokens = [int(t) for t in path.read_text().split()]
    n = int(len(tokens) ** 0.5)
    if n * n != len(tokens):
        tokens = tokens[1:]
    return [tokens[i * n:(i + 1) * n] for i in range(n)]


def _cli_call(path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = uttp.cli.main(["solve", path, "--format", "json", "--dump-candidates"])
    return code, out.getvalue()


def _cli_outcome(result) -> Outcome:
    code, text = result
    if code != 0:
        raise RuntimeError(f"uttp solve exited with code {code}")
    return from_cli_json(text)


def cli_batch(seed: int, workdir: Path) -> Workload:
    """nl4/6/8 plus random n=4..12 files; one file in five at n <= 8 holds
    one-decimal distances (a metric instance in a 10x box, scaled by 1/10),
    which the solver keeps as exact rationals."""
    instances = Path(__file__).resolve().parent.parent / "instances"
    items = [Item(f"nl{n}", _nl_rows(instances / f"nl{n}.txt"),
                  str(instances / f"nl{n}.txt")) for n in (4, 6, 8)]
    small = 0
    for i in range(CLI_RANDOM_FILES):
        n = CLI_SIZES[i % len(CLI_SIZES)]
        rational = n <= 8 and small % 5 == 0
        small += n <= 8
        path = workdir / f"r{i:03d}-n{n}.txt"
        if rational:
            D = random_euclidean_instance(n, seed * 1000 + i, box=10000.0)
            d = [[Fraction(x, 10) for x in row] for row in D.d]
            path.write_text("\n".join(
                " ".join(f"{x // 10}.{x % 10}" for x in row) for row in D.d) + "\n")
        else:
            D = random_euclidean_instance(n, seed * 1000 + i)
            d = [list(row) for row in D.d]
            path.write_text(render_distance_matrix(D))
        items.append(Item(path.stem + ("-q" if rational else ""), d, str(path)))
    return Workload(
        items=items,
        call=_cli_call,
        outcome=_cli_outcome,
        want_certificate=True,
        as_float=True,
        warmup_items=10,  # nl4/6/8, a rational file and every random size
        expected_hooks=COMMON_HOOKS + (
            "tsp.held_karp", "analysis.certify", "cli.main", "cli.emit_report"),
    )


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "exact-mid": exact_mid,
    "heuristic-large": heuristic_large,
    "cli-batch": cli_batch,
}

