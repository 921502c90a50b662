"""Candidate enumeration and travel evaluation.

A candidate is a team labeling (cycle rotation r plus direction, with the
pivot always playing as team n-1) combined with a slot rotation m. All
2(n-1)(2n-2) candidates are evaluated under the athome travel rule and the
lexicographically first minimum (r, direction, m) wins, so results are
deterministic and independent of evaluation order.

No rotated schedule is built to score a candidate. Let u be team t's cyclic
venue sequence in the base schedule (its home venue h where it plays at
home, the opponent's venue elsewhere) and cyc the length of the closed walk
u[0] -> u[1] -> ... -> u[L-1] -> u[0]. Under slot rotation m the team walks
the same cycle cut open between slots m-1 and m, with home spliced in:

    travel_m = cyc - d[u[m-1]][u[m]] + d[u[m-1]][h] + d[h][u[m]]

Since d is symmetric, d[h][u[m]] is rotation m+1's leg d[u[m]][h], so two
gathers of about n(2n-2) legs per labeling score all 2n-2 rotations: the
scan is O(n^3), not the O(n^4) of walking every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .instance import DistanceMatrix, Number
from .schedule import Schedule, mirror_and_assign, relabel, rotate
from .tsp import HELD_KARP_CAP, PivotedCycle, build_pivoted_cycle, cycle_length, held_karp

DIRECTIONS = ("forward", "reversed")


class SolverError(ValueError):
    """Invalid solver parameters."""


class InternalCheckError(RuntimeError):
    """A redundant internal recomputation disagreed; indicates a bug."""


@dataclass(frozen=True)
class CandidateTransform:
    cycle_rotation: int
    direction: str  # forward | reversed
    slot_rotation: int


@dataclass(frozen=True)
class SolveReport:
    n: int
    total_distance: Number
    per_team_distances: tuple[Number, ...]
    best_transform: CandidateTransform
    tau: Optional[Number]  # shortest cycle over all venues, when known
    tau_prime: Number  # the pivoted cycle's length
    tsp_mode: str
    matching_exact: Optional[bool]
    lower_bound: Optional[Number]
    gap_percent: Optional[Fraction]
    metric: bool
    guarantees_valid: bool
    ratio_bound: Fraction
    certificate: Optional[object] = None  # analysis.BoundCertificate
    candidates: Optional[tuple[tuple[int, str, int, Number], ...]] = None


def team_assignment(cycle: PivotedCycle, r: int, direction: str) -> tuple[int, ...]:
    """Map teams to venues: team n-1 gets the pivot; teams 0..n-2 read the
    cycle from offset r, forward or reversed."""
    k = len(cycle.cycle)
    if not 0 <= r < k:
        raise SolverError(f"cycle rotation {r} out of range 0..{k - 1}")
    if direction not in DIRECTIONS:
        raise SolverError(f"direction must be one of {DIRECTIONS}")
    if direction == "forward":
        mapping = [cycle.cycle[(r + i) % k] for i in range(k)]
    else:
        mapping = [cycle.cycle[(r - i) % k] for i in range(k)]
    mapping.append(cycle.pivot)
    return tuple(mapping)


def _venues(sched: Schedule, mapping: Sequence[int], team: int) -> list[int]:
    home_v = mapping[team]
    return [
        home_v if sched.home[team][s] else mapping[sched.opp[team][s]]
        for s in range(sched.num_slots)
    ]


def evaluate_athome(
    sched: Schedule, mapping: Sequence[int], D: DistanceMatrix
) -> tuple[tuple[Number, ...], Number]:
    """Travel per team: start home, walk the slot venues, return home.

    Staying put costs nothing (d[v][v] = 0); consecutive away games travel
    venue to venue directly. Assumes a feasible schedule and a bijective
    team-to-venue mapping.
    """
    d = D.d
    per_team = []
    for t in range(sched.n):
        home_v = mapping[t]
        dist: Number = 0
        prev = home_v
        for v in _venues(sched, mapping, t):
            dist += d[prev][v]
            prev = v
        dist += d[prev][home_v]
        per_team.append(dist)
    return tuple(per_team), sum(per_team)


def evaluate_assumption_a(
    sched: Schedule, mapping: Sequence[int], D: DistanceMatrix
) -> tuple[tuple[Number, ...], Number]:
    """Like evaluate_athome, except a team that is away in both the first
    and last slot travels last-venue -> first-venue instead of the two legs
    through home. A team at home in an end slot has its home venue at that
    end, so the legs through home are that same direct leg (d[h][h] = 0):
    every team travels the closed walk through its slot venues."""
    per_team = tuple(cycle_length(D, _venues(sched, mapping, t)) for t in range(sched.n))
    return per_team, sum(per_team)


def assumption_a_route(
    sched: Schedule, mapping: Sequence[int], team: int
) -> tuple[int, ...]:
    """The cyclic venue route of a team under the first/last-slot rule,
    normalized to start at the team's own venue.

    Consecutive stays collapse; the home stand must be one contiguous
    cyclic block for the normalization to be well defined (true for every
    schedule this package constructs).
    """
    seq = _venues(sched, mapping, team)
    route: list[int] = []
    for v in seq:
        if not route or route[-1] != v:
            route.append(v)
    if len(route) > 1 and route[0] == route[-1]:
        route.pop()
    home_v = mapping[team]
    if home_v not in route:
        route.insert(0, home_v)  # away every slot never happens, but be total
    i = route.index(home_v)
    return tuple(route[i:] + route[:i])


@dataclass(frozen=True)
class ScheduleFamily:
    """The mirrored base schedule and, per team and slot rotation, the flat
    indices of the two legs the splice identity (module docstring) reads.

    Slot rotations are never built: one cyclic walk per team through the
    base schedule prices all 2n-2 of them, so a labeling costs O(n^2) and
    the scan O(n^3). Rule A needs the cyclic walk alone."""

    n: int
    base: Schedule
    # Per team t and rotation m, flat indices into a row-major team-by-team
    # (n, n) matrix of the legs u[m-1] -> u[m] (cut) and u[m-1] -> h (back,
    # whose extra last column repeats rotation 0). By symmetry the third leg
    # h -> u[m] is back's column m+1.
    cut: np.ndarray
    back: np.ndarray


def schedule_family(n: int) -> ScheduleFamily:
    base = mirror_and_assign(n)
    home, opp = np.array(base.home), np.array(base.opp, dtype=np.intp)
    teams = np.arange(n)[:, None]
    host = np.where(home, teams, opp)  # whose venue team t is at in base slot s
    L = 2 * n - 2
    prev = host[:, (np.arange(L + 1) - 1) % L]  # slot m-1's host, m = 0..L
    return ScheduleFamily(n, base, prev[:, :L] * n + host, prev * n + teams)


def _cyclic_walks(
    D: DistanceMatrix, family: ScheduleFamily, mapping: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per team, cyc (shape (n,)) and, per slot rotation m, the splice term
    d[u[m-1]][h] + d[h][u[m]] - d[u[m-1]][u[m]] (shape (n, 2n-2)), in the
    dtype of ``D.array``."""
    venue = np.asarray(mapping, dtype=np.intp)
    dv = D.array[venue][:, venue].ravel()  # distances between teams' venues
    cut = dv[family.cut]
    back = dv[family.back]
    return cut.sum(axis=1), back[:, :-1] + back[:, 1:] - cut


def athome_table(D: DistanceMatrix, family: ScheduleFamily, mapping: Sequence[int]) -> np.ndarray:
    """Per-slot-rotation, per-team athome distances: shape (2n-2, n)."""
    cyc, splice = _cyclic_walks(D, family, mapping)
    return (cyc[:, None] + splice).T


def assumption_a_table(D: DistanceMatrix, family: ScheduleFamily, mapping: Sequence[int]) -> np.ndarray:
    """Per-slot-rotation, per-team distances under the first/last-slot rule,
    shape (2n-2, n): every team travels its closed walk cyc (see
    evaluate_assumption_a), whatever the rotation."""
    cyc, _ = _cyclic_walks(D, family, mapping)
    return np.tile(cyc, (2 * family.n - 2, 1))


def solve(
    D: DistanceMatrix,
    mode: str = "exact",
    cap: int = HELD_KARP_CAP,
    tour: Optional[Sequence[int]] = None,
    want_certificate: bool = True,
    keep_candidates: bool = False,
) -> tuple[SolveReport, Schedule]:
    """Build the pivoted cycle, enumerate every candidate schedule, and
    return the best one relabeled so row v is venue v's team."""
    n = D.n
    if n % 2 != 0 or n < 4:
        raise SolverError(f"n must be even and >= 4, got {n}")
    pivoted = build_pivoted_cycle(D, mode=mode, cap=cap, tour=tour)
    if pivoted.full_tour is not None:
        tau: Optional[Number] = pivoted.full_tour.length
    elif n <= min(cap, HELD_KARP_CAP):
        tau = held_karp(D, cap=cap).length
    else:
        tau = None

    family = schedule_family(n)
    best: Optional[tuple[Number, int, int, int]] = None
    candidates: list[tuple[int, str, int, Number]] = []
    for r in range(n - 1):
        for di, direction in enumerate(DIRECTIONS):
            mapping = team_assignment(pivoted, r, direction)
            totals = athome_table(D, family, mapping).sum(axis=1).tolist()
            if keep_candidates:
                candidates.extend((r, direction, m, tot) for m, tot in enumerate(totals))
            low = min(totals)
            if best is None or low < best[0]:
                best = (low, r, di, totals.index(low))

    assert best is not None
    total, r, di, m = best
    direction = DIRECTIONS[di]
    mapping = team_assignment(pivoted, r, direction)
    out_sched = relabel(rotate(family.base, m), mapping)
    per_team, check_total = evaluate_athome(out_sched, tuple(range(n)), D)
    if check_total != total:
        raise InternalCheckError(
            f"fast evaluation ({total}) disagrees with reference walk ({check_total})"
        )

    from .analysis import certify, gap_percent, lower_bound

    lower = lower_bound(D, tau) if tau is not None else None
    gap = gap_percent(total, lower) if lower is not None else None
    guarantees = D.metric and (
        mode == "exact" or (mode == "christofides" and bool(pivoted.matching_exact))
    )
    ratio_bound = Fraction(11, 4) if mode == "christofides" else Fraction(9, 4)

    certificate = None
    if want_certificate and tau is not None:
        certificate = certify(
            D, pivoted, family, tau, total=total, ratio_bound=ratio_bound
        )

    report = SolveReport(
        n=n,
        total_distance=total,
        per_team_distances=per_team,
        best_transform=CandidateTransform(r, direction, m),
        tau=tau,
        tau_prime=pivoted.cycle_length,
        tsp_mode=mode.replace("_", "-"),
        matching_exact=pivoted.matching_exact,
        lower_bound=lower,
        gap_percent=gap,
        metric=D.metric,
        guarantees_valid=guarantees,
        ratio_bound=ratio_bound,
        certificate=certificate,
        candidates=tuple(candidates) if keep_candidates else None,
    )
    return report, out_sched
