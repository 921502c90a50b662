"""Correctness gate for benchmark outputs, independent of the solver's own
evaluators.

Every output, whether a ``SolveReport`` from the library or the JSON the CLI
prints, is first reduced to an ``Outcome``. The gate then checks:

- the schedule passes ``check_drr``, ``check_mirrored`` and
  ``check_no_repeater``;
- the gate's own route walk reproduces the per-team distances and the total;
- ``tau`` equals a reference: the published value for nl4/6/8,
  ``brute_force_tsp`` for n <= 10, and the gate's own popcount-layer
  Held-Karp above that; it is absent past the solver's exact-tour cap, where
  the total must still reach n times the gate's own MST weight;
- the lower bound is ``n * tau``, the certificate (when asked for) is
  ``all_ok`` on metric input, and nl4's total is the published 8276;
- for a CLI candidate dump, every candidate is listed once and the reported
  transform is the first minimum.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from uttp.oracle import brute_force_tsp
from uttp.schedule import Schedule, check_drr, check_mirrored, check_no_repeater
from uttp.instance import DistanceMatrix
from uttp.tsp import HELD_KARP_CAP

# n * tau for the vendored instances; nl4's optimum is 8276 and the solver
# reaches it
PINNED_N_TAU = {"nl4": 8044, "nl6": 17826, "nl8": 27840}
PINNED_TOTAL = {"nl4": 8276}


@dataclass(frozen=True)
class Outcome:
    """What the gate needs from one solve, in exact numbers where the
    output carries them (the CLI prints rationals as floats)."""

    n: int
    opp: tuple[tuple[int, ...], ...]
    home: tuple[tuple[bool, ...], ...]
    total: object
    per_team: tuple
    tau: object
    lower_bound: object
    certificate_ok: Optional[bool]
    transform: tuple[int, str, int]
    candidates: Optional[tuple[tuple[int, str, int, object], ...]] = None


def from_report(report, sched) -> Outcome:
    t = report.best_transform
    cert = report.certificate
    return Outcome(
        n=sched.n,
        opp=sched.opp,
        home=sched.home,
        total=report.total_distance,
        per_team=tuple(report.per_team_distances),
        tau=report.tau,
        lower_bound=report.lower_bound,
        certificate_ok=None if cert is None else cert.all_ok,
        transform=(t.cycle_rotation, t.direction, t.slot_rotation),
        candidates=report.candidates,
    )


def from_cli_json(text: str) -> Outcome:
    doc = json.loads(text)
    opp, home = [], []
    for row in doc["schedule_rows"]:
        opp.append(tuple(int(cell[:-1]) for cell in row.split()))
        home.append(tuple(cell[-1] == "H" for cell in row.split()))
    cert = doc.get("certificate")
    cands = doc.get("candidates")
    return Outcome(
        n=doc["n"],
        opp=tuple(opp),
        home=tuple(home),
        total=doc["total_distance"],
        per_team=tuple(doc["per_team_distances"]),
        tau=doc["tau"],
        lower_bound=doc["lower_bound"],
        certificate_ok=None if cert is None else all(c["ok"] for c in cert.values()),
        transform=(doc["best_r"], doc["best_direction"], doc["best_m"]),
        candidates=None if cands is None else tuple(
            (c["r"], c["direction"], c["m"], c["total"]) for c in cands
        ),
    )


def _same(value, exact, as_float: bool) -> bool:
    """Compare an output number with an exact reference. The CLI prints a
    Fraction as a float, so its outputs are compared after rounding the
    reference the same way."""
    if as_float and isinstance(exact, Fraction):
        return value == float(exact)
    return value == exact


def _layered_held_karp(d: list[list[int]]) -> int:
    """Shortest Hamilton cycle length by subset DP, one popcount layer at a
    time. Integer distances only; written apart from ``uttp.tsp``."""
    k = len(d)
    m = k - 1  # vertices 1..k-1; the cycle starts and ends at 0
    dist = np.array(d, dtype=np.int64)
    size = 1 << m
    inf = np.iinfo(np.int64).max // 4
    dp = np.full((size, m), inf, dtype=np.int64)
    for j in range(m):
        dp[1 << j, j] = dist[0, j + 1]
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int64)
    for j in range(m):
        popcount += (masks >> j) & 1
    step = dist[1:, 1:]  # step[i, j]: from vertex i+1 to vertex j+1
    for p in range(2, m + 1):
        layer = masks[popcount == p]
        for j in range(m):
            sel = layer[(layer >> j) & 1 == 1]
            prev = dp[sel ^ (1 << j)]
            dp[sel, j] = (prev + step[:, j]).min(axis=1)
    return int((dp[size - 1] + dist[1:, 0]).min())


def _mst_weight(d: list[list]) -> object:
    n = len(d)
    best = list(d[0])
    in_tree = [False] * n
    in_tree[0] = True
    weight = 0
    for _ in range(n - 1):
        v = min((u for u in range(n) if not in_tree[u]), key=lambda u: best[u])
        weight += best[v]
        in_tree[v] = True
        for u in range(n):
            if not in_tree[u] and d[v][u] < best[u]:
                best[u] = d[v][u]
    return weight


def reference_tau(name: str, d: list[list]) -> object:
    """The shortest all-venue cycle, or None past the solver's exact cap."""
    n = len(d)
    if name in PINNED_N_TAU:
        return Fraction(PINNED_N_TAU[name], n)
    if n <= 10:
        return brute_force_tsp(DistanceMatrix.from_rows(d)).length
    if n <= HELD_KARP_CAP:
        return _layered_held_karp(d)
    return None


def check(out: Outcome, name: str, d: list[list], tau_ref, *, as_float: bool,
          want_certificate: bool) -> list[str]:
    """Return the failed checks for one output (empty when it passes)."""
    n = len(d)
    if out.n != n or len(out.opp) != n or len(out.home) != n:
        return [f"{name}: schedule has {out.n} teams, instance has {n}"]
    errors = []
    sched = Schedule(n=n, opp=out.opp, home=out.home)
    for checker in (check_drr, check_mirrored, check_no_repeater):
        violations = checker(sched)
        if violations:
            errors.append(f"{name}: {checker.__name__}: {violations[0].message}")
    if errors:
        return errors  # the walk below assumes a feasible schedule

    per_team = []
    for t in range(n):
        stops = [t] + [t if out.home[t][s] else out.opp[t][s]
                       for s in range(2 * n - 2)] + [t]
        per_team.append(sum(d[a][b] for a, b in zip(stops, stops[1:])))
    total = sum(per_team)
    if len(out.per_team) != n or not all(
        _same(v, ref, as_float) for v, ref in zip(out.per_team, per_team)
    ):
        errors.append(f"{name}: per-team distances differ from the route walk")
    if not _same(out.total, total, as_float):
        errors.append(f"{name}: total {out.total} but the route walk gives {total}")
    if name in PINNED_TOTAL and total != PINNED_TOTAL[name]:
        errors.append(f"{name}: total {total}, published {PINNED_TOTAL[name]}")

    if tau_ref is None:
        if out.tau is not None or out.lower_bound is not None:
            errors.append(f"{name}: tau reported past the exact-tour cap")
        mst = _mst_weight(d)
        if total < n * mst:
            errors.append(f"{name}: total {total} below n * MST = {n * mst}")
    else:
        if out.tau is None or not _same(out.tau, tau_ref, as_float):
            errors.append(f"{name}: tau {out.tau}, reference {tau_ref}")
        if out.lower_bound is None or not _same(out.lower_bound, n * tau_ref, as_float):
            errors.append(f"{name}: lower bound {out.lower_bound}, want n*tau = {n * tau_ref}")
        if want_certificate and out.certificate_ok is not True:
            errors.append(f"{name}: certificate not all_ok on metric input")

    if out.candidates is not None:
        keys = [(r, di, m) for r, di, m, _ in out.candidates]
        if len(keys) != 2 * (n - 1) * (2 * n - 2) or len(set(keys)) != len(keys):
            errors.append(f"{name}: candidate dump does not list every candidate once")
        else:
            first_min = min(out.candidates, key=lambda c: c[3])
            if not _same(first_min[3], total, as_float) or first_min[:3] != out.transform:
                errors.append(f"{name}: best candidate {first_min} is not the reported transform")
    return errors


def self_test(out: Outcome, name: str, d: list[list], tau_ref, **kw) -> dict:
    """Feed the gate two broken copies of a passing output and return, per
    injected fault, the checks that caught it (empty means it slipped by)."""
    home = [list(row) for row in out.home]
    home[0][0] = not home[0][0]
    flipped = dataclasses.replace(out, home=tuple(tuple(r) for r in home))
    wrong_total = dataclasses.replace(out, total=out.total + 1)
    return {
        "flipped_home_flag": check(flipped, name, d, tau_ref, **kw),
        "wrong_total": check(wrong_total, name, d, tau_ref, **kw),
    }
