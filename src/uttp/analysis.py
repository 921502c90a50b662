"""Machine-checkable bound certificates.

Every inequality the solver's output is supposed to satisfy on metric input
is recomputed here with exact arithmetic (ints and Fractions, never floats)
and reported with its slack, so a near-violation is visible long before it
becomes a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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
) -> BoundCertificate:
    """Evaluate every solver-output inequality for the canonical labeling
    (cycle offset 0, forward) and the given best total.

    Checks, with exact arithmetic throughout:
      edge_max    every pairwise distance <= tau/2
      hamilton    every produced cycle (pivoted cycle, per-team closed
                  routes, the all-venue tour if known) <= n*tau/2
      pair_sum    sum of all pairwise distances <= n^2*tau/4
      pivot_sum   distances into the pivot sum to <= n*tau/4
      avg_bound   mean over slot rotations of athome totals <=
                  (n-2)*tau' + 2*pivot_sum + 1.5*tau + n*tau/2 + pair_sum/(n-1)
      team_avg    per team, mean over rotations <= closed-route length +
                  own row sum/(n-1); lhs/rhs stored for the tightest team
      best_le_avg the reported total <= the rotation average
      ratio       the reported total <= ratio_bound * n * tau
    """
    n = D.n
    d = D.d
    checks: list[CheckResult] = []

    max_edge = max(d[i][j] for i in range(n) for j in range(i + 1, n))
    checks.append(CheckResult("edge_max", 2 * max_edge, tau))

    mapping = team_assignment(cycle, 0, "forward")
    l_a, _ = evaluate_assumption_a(family.base, mapping, D)
    produced = list(l_a) + [cycle.cycle_length]
    if cycle.full_tour is not None:
        produced.append(cycle.full_tour.length)
    checks.append(CheckResult("hamilton", 2 * max(produced), n * tau))

    pair_sum = D.pair_sum()
    checks.append(CheckResult("pair_sum", 4 * pair_sum, n * n * tau))

    pivot_sum = D.row_sum(cycle.pivot)
    checks.append(CheckResult("pivot_sum", 4 * pivot_sum, n * tau))

    rows: list[list[Exact]] = athome_table(D, family, mapping).tolist()
    M = len(rows)
    totals = [sum(row) for row in rows]
    avg = Fraction(sum(totals), M) * D.unit
    rhs = (
        (n - 2) * Fraction(cycle.cycle_length)
        + 2 * Fraction(pivot_sum)
        + Fraction(3, 2) * Fraction(tau)
        + Fraction(n, 2) * Fraction(tau)
        + Fraction(pair_sum) / (n - 1)
    )
    checks.append(CheckResult("avg_bound", avg, rhs))

    tightest: Optional[CheckResult] = None
    for t in range(n):
        team_avg = Fraction(sum(rows[m][t] for m in range(M)), M) * D.unit
        team_rhs = Fraction(l_a[t]) + Fraction(D.row_sum(mapping[t])) / (n - 1)
        c = CheckResult("team_avg", team_avg, team_rhs)
        if not c.ok:
            tightest = c
            break
        if tightest is None or c.slack < tightest.slack:
            tightest = c
    assert tightest is not None
    checks.append(tightest)

    checks.append(CheckResult("best_le_avg", Fraction(total), avg))
    checks.append(CheckResult("ratio", Fraction(total), ratio_bound * n * Fraction(tau)))

    return BoundCertificate(checks=tuple(checks))
