"""Independent ground truth: exhaustive 4-team tournament optimum and
brute-force shortest tours for tiny vertex sets.

These exist to check the main solver and the DP tour code against
implementations too simple to be wrong in the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .instance import DistanceMatrix, Number
from .schedule import Schedule
from .tsp import Tour, TspError, _check_vertex_set

BRUTE_FORCE_MAX = 10

# slot pairings for 4 teams: the three perfect matchings
_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class OracleError(ValueError):
    """Invalid oracle parameters."""


@dataclass(frozen=True)
class OracleResult:
    optimum: Number
    schedule: Schedule
    explored: int  # DFS nodes tried


def exact_uttp(D: DistanceMatrix) -> OracleResult:
    """Exact 4-team optimum by depth-first search over all assignments of
    the 12 ordered games to 6 slots, pruned by incurred travel.

    Only the start-and-end-at-home travel rule applies; mirroring and
    repeat avoidance are not required of the optimum.
    """
    if D.n != 4:
        raise OracleError(f"exhaustive search is limited to n=4, got n={D.n}")
    d = D.array.tolist()  # the DFS sums the image; the optimum is scaled once
    n, slots = 4, 6

    # slot option: (games, orientation) -> per-team venue vector
    options = []
    for (a, b), (c, e) in _PAIRINGS:
        for g1 in ((a, b), (b, a)):
            for g2 in ((c, e), (e, c)):
                venue = [0] * n
                for host, guest in (g1, g2):
                    venue[host] = host
                    venue[guest] = host
                options.append(((g1, g2), tuple(venue)))

    best: list[Optional[Number]] = [None]
    best_slots: list[Optional[tuple]] = [None]
    explored = [0]

    def dfs(slot: int, used: set, loc: tuple[int, ...], cost: Number, picked: list):
        if best[0] is not None and cost >= best[0]:
            return
        if slot == slots:
            final = cost + sum(d[loc[t]][t] for t in range(n))
            if best[0] is None or final < best[0]:
                best[0] = final
                best_slots[0] = tuple(picked)
            return
        for games, venue in options:
            if games[0] in used or games[1] in used:
                continue
            explored[0] += 1
            step = sum(d[loc[t]][venue[t]] for t in range(n))
            used.add(games[0])
            used.add(games[1])
            picked.append((games, venue))
            dfs(slot + 1, used, venue, cost + step, picked)
            picked.pop()
            used.discard(games[0])
            used.discard(games[1])

    dfs(0, set(), tuple(range(n)), 0, [])
    assert best[0] is not None and best_slots[0] is not None

    opp_rows = [[0] * slots for _ in range(n)]
    home_rows = [[False] * slots for _ in range(n)]
    for s, (games, _venue) in enumerate(best_slots[0]):
        for host, guest in games:
            opp_rows[host][s] = guest
            opp_rows[guest][s] = host
            home_rows[host][s] = True
    schedule = Schedule(n=n, opp=opp_rows, home=home_rows)
    return OracleResult(optimum=best[0] * D.unit, schedule=schedule, explored=explored[0])


def brute_force_tsp(D: DistanceMatrix, vertex_set: Optional[Iterable[int]] = None) -> Tour:
    """Minimum over all (k-1)!/2 distinct cycles, compared on the integer
    image of the induced submatrix; cap 10 vertices."""
    verts = _check_vertex_set(D, vertex_set)
    k = len(verts)
    if k < 3:
        raise TspError(f"need at least 3 vertices, got {k}")
    if k > BRUTE_FORCE_MAX:
        raise TspError(f"{k} vertices exceeds the brute-force cap of {BRUTE_FORCE_MAX}")
    perms = np.array(list(itertools.permutations(range(1, k))), dtype=np.int8)
    perms = perms[perms[:, 0] < perms[:, -1]]  # drop mirror images
    full = np.concatenate([np.zeros((len(perms), 1), dtype=perms.dtype), perms], axis=1)
    d_arr = D.array[np.ix_(verts, verts)]
    lens = d_arr[full[:, :-1], full[:, 1:]].sum(axis=1) + d_arr[full[:, -1], 0]
    i = int(np.argmin(lens))  # first minimum in itertools.permutations order
    return Tour.from_vertices(D, [verts[v] for v in full[i]])
