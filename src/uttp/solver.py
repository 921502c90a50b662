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

Since d is symmetric, d[h][u[m]] is rotation m+1's leg d[u[m]][h], so one
team's row over all 2n-2 rotations costs O(n) gathers.

Pricing every team of every labeling that way is O(n^3). The scan is O(n^2),
because neighbouring labelings repeat almost all of that work. Write k = n-1
and L = 2n-2. Forward labeling r gives team i the venue cycle[(r+i) mod k],
so team i under r has team i+1's venue under r-1. In the base schedule:

- circle_schedule: team i meets (s-i) mod k in slot s, and team i+1 meets
  ((s+2)-(i+1)) mod k = (s-i)+1 in slot s+2, the opponent one position on
  (and when one of them meets the pivot instead, so does the other); the
  pivot n-1 meets team j in the slots with 2j = s (mod k), and j+1 two
  slots later;
- mirror_and_assign: team i's home block is the L/2 slots from 2i for
  i < n/2, from 2i+1 for n/2 <= i <= n-2, and from n-1 for the pivot.

So team i's travel under (r, m) equals team i+1's under (r-1, (m+2) mod L),
for every team except three, whose home blocks do not move on by two:

- n/2-1, whose successor n/2 starts its block three slots later;
- n-2, block at L-1, whose successor wraps to team 0 (block at 0, not 1);
- the pivot n-1, whose venue and home block never move.

Summed over teams, with T[r][m] the total of candidate (r, forward, m):

    T[r][m] = T[r-1][(m+2) mod L]
              - rows of teams 0, n/2, n-1 under (r-1, (m+2) mod L)
              + rows of teams n/2-1, n-2, n-1 under (r, m)

where teams 0, n/2 and n-1 are the ones no other team maps onto. Reversed
labelings give team i the venue cycle[(r-i) mod k], team i-1's under r-1:
the shift is m-2, the exceptions are teams 0, n/2 and n-1, and the dropped
rows are teams n-2, n/2-1 and n-1. Moving labeling r's change into labeling
0's frame (column m + 2r, or m - 2r reversed) turns the recurrence into one
cumulative sum over r. Six team rows per labeling is O(n^2) work and memory
for the whole (n-1) x (2n-2) table of each direction, which still prices
every candidate.

Every travel sum here (the scan, both rule evaluators and the re-walk that
checks the winner) reads DistanceMatrix.array, the integer image of the
distances, and is scaled by DistanceMatrix.unit once, into the input's
number type. Each partial sum of the cumulative sum is a candidate total, and
every step a difference of two, so the int64 bound of the image covers them;
an object image (integers past that bound) runs the same code exactly. Only
the winner is built, by rotating and relabeling the base schedule's arrays,
and the re-walk walks its arrays and shares no code with the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .instance import DistanceMatrix, Number
from .schedule import Schedule, mirror_and_assign, relabel, rotate
from .tsp import HELD_KARP_CAP, PivotedCycle, build_pivoted_cycle, held_karp

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
    cycle from offset r, forward or reversed (row r of ``_labelings``, by
    the same offset formula)."""
    k = len(cycle.cycle)
    if not 0 <= r < k:
        raise SolverError(f"cycle rotation {r} out of range 0..{k - 1}")
    if direction not in DIRECTIONS:
        raise SolverError(f"direction must be one of {DIRECTIONS}")
    step = 1 if direction == "forward" else -1
    return tuple(cycle.cycle[(r + step * i) % k] for i in range(k)) + (cycle.pivot,)


def _stops(sched: Schedule, mapping: Sequence[int]) -> np.ndarray:
    """Each team's venue in each slot, shape (n, 2n-2): its own where it
    plays at home, its opponent's elsewhere."""
    venue = np.asarray(mapping)
    return np.where(sched.home_array, venue[:, None], venue[sched.opp_array])


def evaluate_athome(
    sched: Schedule, mapping: Sequence[int], D: DistanceMatrix
) -> tuple[tuple[Number, ...], Number]:
    """Travel per team: start home, walk the slot venues, return home.

    Staying put costs nothing (d[v][v] = 0); consecutive away games travel
    venue to venue directly. Assumes a feasible schedule and a bijective
    team-to-venue mapping.
    """
    home = np.asarray(mapping)[:, None]
    walk = np.hstack([home, _stops(sched, mapping), home])
    per_team = D.array[walk[:, :-1], walk[:, 1:]].sum(axis=1).tolist()
    return tuple(x * D.unit for x in per_team), sum(per_team) * D.unit


def evaluate_assumption_a(
    sched: Schedule, mapping: Sequence[int], D: DistanceMatrix
) -> tuple[tuple[Number, ...], Number]:
    """Like evaluate_athome, except a team that is away in both the first
    and last slot travels last-venue -> first-venue instead of the two legs
    through home. A team at home in an end slot has its home venue at that
    end, so the legs through home are that same direct leg (d[h][h] = 0):
    every team travels the closed walk through its slot venues."""
    stops = _stops(sched, mapping)
    per_team = D.array[stops, np.roll(stops, -1, axis=1)].sum(axis=1).tolist()
    return tuple(x * D.unit for x in per_team), sum(per_team) * D.unit


@dataclass(frozen=True)
class ScheduleFamily:
    """The mirrored base schedule and, per team and slot rotation, the team
    whose venue it is at in the last slot, read off the base's arrays, from
    which the splice identity (module docstring) prices all 2n-2 slot
    rotations of any labeling. Slot rotations are never built: a labeling
    costs O(n^2), and the shift identity makes the whole scan O(n^2) too."""

    n: int
    base: Schedule
    # prev[t, m] = host[t, (m-1) mod (2n-2)], m = 0..2n-2, where host[t, s] is
    # whose venue team t is at in base slot s (t itself when home): whose
    # venue it is at in the last slot under slot rotation m. The extra last
    # column repeats rotation 0, so prev[t, m+1] is host[t, m].
    prev: np.ndarray


def schedule_family(n: int) -> ScheduleFamily:
    base = mirror_and_assign(n)
    host = np.where(base.home_array, np.arange(n)[:, None], base.opp_array)
    L = 2 * n - 2
    return ScheduleFamily(n, base, host[:, (np.arange(L + 1) - 1) % L])


def _legs(
    D: DistanceMatrix, family: ScheduleFamily, venues: np.ndarray, teams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The legs the splice identity (module docstring) reads, for ``teams``
    (an index array) under each labeling ``venues[..., :]``
    (team -> venue), in the dtype of ``D.array``: per slot rotation m, the
    cut u[m-1] -> u[m] (shape ``venues.shape[:-1] + np.shape(teams) +
    (2n-2,)``) and the way back u[m-1] -> h (one more column: rotation 0
    again, since by symmetry h -> u[m] is column m+1)."""
    u = venues[..., family.prev[teams]]  # u[m-1] for m = 0..L; u[..., 1:] is u[m]
    return D.array[u[..., :-1], u[..., 1:]], D.array[u, venues[..., teams, None]]


def _splice(cut: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Travel per slot rotation: cyc plus the splice term d[u[m-1]][h] +
    d[h][u[m]] - d[u[m-1]][u[m]]."""
    return cut.sum(axis=-1, keepdims=True) + back[..., :-1] + back[..., 1:] - cut


def athome_table(D: DistanceMatrix, family: ScheduleFamily, mapping: Sequence[int]) -> np.ndarray:
    """Per-slot-rotation, per-team athome distances in units of ``D.unit``:
    shape (2n-2, n)."""
    return _splice(*_legs(D, family, np.asarray(mapping), np.arange(family.n))).T


def _labelings(cycle: PivotedCycle, direction: str) -> np.ndarray:
    """Every labeling of one direction as an (n-1, n) array, row r the
    team_assignment for cycle rotation r."""
    k = len(cycle.cycle)
    step = 1 if direction == "forward" else -1
    offsets = (np.arange(k)[:, None] + step * np.arange(k)) % k
    venues = np.asarray(cycle.cycle)[offsets]
    return np.hstack([venues, np.full((k, 1), cycle.pivot)])


def candidate_totals(
    D: DistanceMatrix,
    family: ScheduleFamily,
    cycle: PivotedCycle,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Athome total of every candidate in units of ``D.unit``, indexed
    [r, direction, m] with directions in DIRECTIONS order: shape
    (n-1, 2, 2n-2). Row-major order is the (r, direction, m) order in which
    the first minimum wins. Labeling 0 is priced team by team, the others by
    the shift identity's recurrence (module docstring). ``table``, when
    given, is forward labeling 0's ``athome_table``, which is then not
    priced again."""
    n, half = family.n, family.n // 2
    L = 2 * n - 2
    venues = np.stack([_labelings(cycle, d) for d in DIRECTIONS], axis=1)  # [r, direction, team]
    # forward labelings add the rows of the first team set and drop those of
    # the second; reversed labelings swap the sets. The splice is linear, so
    # a set's rows are summed one team of each set at a time, which keeps a
    # single team's legs in memory.
    sets = np.array([[half - 1, n - 2, n - 1], [0, half, n - 1]])
    rows = sum(_splice(*_legs(D, family, venues, sets[:, p])) for p in range(3))  # [r, direction, team set, m]
    added, dropped = rows[:, [0, 1], [0, 1]], rows[:, [0, 1], [1, 0]]
    # Labeling r at rotation m sits at base column c = m + step*r (step 2
    # forward, -2 reversed), where it equals labeling r-1's total at that
    # column, plus its own added rows, less labeling r-1's dropped rows.
    # Labeling 0 is the base frame.
    r, di, step = np.arange(n - 1)[:, None, None], np.arange(2)[:, None], np.array([[2], [-2]])
    to_base = (np.arange(L) - step * r) % L
    frames = added[r, di, to_base]
    frames[1:] -= dropped[r, di, to_base][:-1]
    if table is None:
        table = athome_table(D, family, venues[0, 0])
    frames[0] = [table.sum(axis=1), athome_table(D, family, venues[0, 1]).sum(axis=1)]
    return np.cumsum(frames, axis=0)[r, di, (np.arange(L) + step * r) % L]


def solve(
    D: DistanceMatrix,
    mode: str = "exact",
    tour: Optional[Sequence[int]] = None,
    want_certificate: bool = True,
    keep_candidates: bool = False,
) -> tuple[SolveReport, Schedule]:
    """Build the pivoted cycle, enumerate every candidate schedule, and
    return the best one relabeled so row v is venue v's team."""
    n = D.n
    if n % 2 != 0 or n < 4:
        raise SolverError(f"n must be even and >= 4, got {n}")
    pivoted = build_pivoted_cycle(D, mode=mode, tour=tour)
    if pivoted.full_tour is not None:
        tau: Optional[Number] = pivoted.full_tour.length
    elif n <= HELD_KARP_CAP:
        tau = held_karp(D).length
    else:
        tau = None

    family = schedule_family(n)
    # forward labeling 0, priced once for the scan and the certificate
    table = athome_table(D, family, team_assignment(pivoted, 0, "forward"))
    totals = candidate_totals(D, family, pivoted, table)
    flat = int(np.argmin(totals))
    total = totals.item(flat) * D.unit
    r, di, m = map(int, np.unravel_index(flat, totals.shape))
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
            D, pivoted, family, tau, total=total, ratio_bound=ratio_bound, table=table
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
        candidates=tuple(
            (cr, DIRECTIONS[cd], cm, tot * D.unit)
            for cr, per_r in enumerate(totals.tolist())
            for cd, per_d in enumerate(per_r)
            for cm, tot in enumerate(per_d)
        ) if keep_candidates else None,
    )
    return report, out_sched
