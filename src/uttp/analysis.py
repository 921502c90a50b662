"""Machine-checkable bound certificates.

Every inequality the solver's output is supposed to satisfy on metric input
is recomputed here with exact arithmetic (ints and Fractions, never floats)
and reported with its slack, so a near-violation is visible long before it
becomes a violation. Every sum of distances is taken on the integer image
``DistanceMatrix.array`` and scaled by ``DistanceMatrix.unit``; Fractions
are built only for the reported checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .instance import DistanceMatrix, Number
from .solver import (
    ScheduleFamily,
    athome_table,
    evaluate_assumption_a,
    team_assignment,
)
from .tsp import PivotedCycle

Exact = Union[int, Fraction]


def lower_bound(D: DistanceMatrix, tau: Number) -> Number:
    """n times the shortest all-venue cycle: no double round robin travels less."""
    return D.n * tau


def gap_percent(total: Number, bound: Number) -> Optional[Fraction]:
    """(total/bound - 1) * 100, or None when the bound is zero."""
    if bound == 0:
        return None
    return (Fraction(total) / Fraction(bound) - 1) * 100


def render_gap(gap: Optional[Fraction]) -> str:
    if gap is None:
        return "n/a"
    return f"{float(gap):.1f}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: Exact
    rhs: Exact

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> Exact:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BoundCertificate:
    checks: tuple[CheckResult, ...]

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def certify(
    D: DistanceMatrix,
    cycle: PivotedCycle,
    family: ScheduleFamily,
    tau: Number,
    *,
    total: Number,
    ratio_bound: Fraction,
    table: Optional[np.ndarray] = None,
) -> BoundCertificate:
    """Evaluate every solver-output inequality for the canonical labeling
    (cycle offset 0, forward) and the given best total. ``table``, when
    given, is that labeling's ``athome_table``, as ``solve`` has priced it
    for the candidate scan; else it is priced here.

    Checks, with exact arithmetic throughout:
      edge_max    every pairwise distance <= tau/2
      hamilton    every produced cycle (pivoted cycle, per-team closed
                  routes, the all-venue tour if known) <= n*tau/2
      pair_sum    sum of all pairwise distances <= n^2*tau/4
      pivot_sum   distances into the pivot sum to <= n*tau/4
      avg_bound   mean over slot rotations of athome totals <=
                  (n-2)*tau' + 2*pivot_sum + 1.5*tau + n*tau/2 + pair_sum/(n-1)
      team_avg    per team, mean over rotations <= closed-route length +
                  own row sum/(n-1); lhs/rhs stored for the tightest team.
                  A team's athome sum over rotations is (2n-3) * l_a[t] +
                  2 * row[mapping[t]] (pinned by the tests), so the slack
                  is l_a[t] / (2n-2): the check tests the table, and is
                  tight only for a closed route of length 0
      best_le_avg the reported total <= the rotation average
      ratio       the reported total <= ratio_bound * n * tau
    """
    n = D.n
    unit = D.unit
    checks: list[CheckResult] = []

    checks.append(CheckResult("edge_max", 2 * int(D.array.max()) * unit, tau))

    mapping = team_assignment(cycle, 0, "forward")
    l_a, _ = evaluate_assumption_a(family.base, mapping, D)
    produced = list(l_a) + [cycle.cycle_length]
    if cycle.full_tour is not None:
        produced.append(cycle.full_tour.length)
    checks.append(CheckResult("hamilton", 2 * max(produced), n * tau))

    row = D.array.sum(axis=1).tolist()  # d[v][v] = 0: each venue's distances to the others
    pair_sum = sum(row) * unit
    checks.append(CheckResult("pair_sum", 4 * pair_sum, n * n * tau))

    pivot_sum = row[cycle.pivot] * unit
    checks.append(CheckResult("pivot_sum", 4 * pivot_sum, n * tau))

    # per team, its athome travel summed over the M slot rotations:
    # (2n-1) * M < 4n^2 entries, which fits int64 since 4n^2 * max < 2^63
    if table is None:
        table = athome_table(D, family, mapping)
    team_sum = table.sum(axis=0).tolist()
    M = 2 * n - 2
    avg = Fraction(sum(team_sum), M) * unit
    rhs = (
        (n - 2) * Fraction(cycle.cycle_length)
        + 2 * Fraction(pivot_sum)
        + Fraction(3, 2) * Fraction(tau)
        + Fraction(n, 2) * Fraction(tau)
        + Fraction(pair_sum) / (n - 1)
    )
    checks.append(CheckResult("avg_bound", avg, rhs))

    # team_avg's slack times M: M * l_a[t] + 2 * row[mapping[t]] - team_sum[t]
    # in input units. The first failing team is reported, else the first
    # of least slack.
    slack = [M * l_a[t] + (2 * row[mapping[t]] - team_sum[t]) * unit for t in range(n)]
    t = next((t for t in range(n) if slack[t] < 0), min(range(n), key=slack.__getitem__))
    team_rhs = Fraction(l_a[t]) + Fraction(row[mapping[t]] * unit) / (n - 1)
    checks.append(CheckResult("team_avg", Fraction(team_sum[t], M) * unit, team_rhs))

    checks.append(CheckResult("best_le_avg", Fraction(total), avg))
    checks.append(CheckResult("ratio", Fraction(total), ratio_bound * n * Fraction(tau)))

    return BoundCertificate(checks=tuple(checks))
