"""Reference implementations used only to cross-check the package.

Everything here is written straight from the problem definitions with no
shared code or structure with src/, so agreement is meaningful. The one
exception is ``per_mask_held_karp``, the package's earlier Held-Karp kept
as it was, so that the current DP's tie-breaks can be checked against it.
"""

from fractions import Fraction

import numpy as np


def route_walk(opp_rows, home_rows, mapping, dist):
    """Travel totals computed by literally walking each team's season.

    opp_rows/home_rows: per team, per slot opponent index and home flag.
    mapping: team -> venue index. Returns (per_team list, total).
    """
    n = len(opp_rows)
    per_team = []
    for t in range(n):
        stops = [mapping[t]]
        for s in range(len(opp_rows[t])):
            if home_rows[t][s]:
                stops.append(mapping[t])
            else:
                stops.append(mapping[opp_rows[t][s]])
        stops.append(mapping[t])
        travelled = 0
        for a, b in zip(stops, stops[1:]):
            travelled += dist[a][b]
        per_team.append(travelled)
    return per_team, sum(per_team)


def rule_a_walk(opp_rows, home_rows, mapping, dist):
    """Travel totals under the first/last-slot rule ("Assumption A"), walked
    from its definition: a team leaves home before its first slot and
    returns home after its last, except that a team away in both the first
    and the last slot travels its last venue -> first venue directly.
    Returns (per_team list, total).
    """
    n = len(opp_rows)
    per_team = []
    for t in range(n):
        home = mapping[t]
        venues = []
        for s in range(len(opp_rows[t])):
            if home_rows[t][s]:
                venues.append(home)
            else:
                venues.append(mapping[opp_rows[t][s]])
        travelled = 0
        for a, b in zip(venues, venues[1:]):
            travelled += dist[a][b]
        if not home_rows[t][0] and not home_rows[t][-1]:
            travelled += dist[venues[-1]][venues[0]]
        else:
            travelled += dist[home][venues[0]] + dist[venues[-1]][home]
        per_team.append(travelled)
    return per_team, sum(per_team)


def cycle_len(dist, seq):
    total = 0
    for i, a in enumerate(seq):
        total += dist[a][seq[(i + 1) % len(seq)]]
    return total


def all_cycles_min(dist, verts):
    """Shortest cycle by checking every permutation (no symmetry tricks)."""
    import itertools

    best = None
    for perm in itertools.permutations(verts):
        length = cycle_len(dist, perm)
        if best is None or length < best:
            best = length
    return best


def mean(values):
    return Fraction(sum(values), len(values))


def per_mask_held_karp(D, verts):
    """Held-Karp one mask at a time over all k predecessor columns, in the
    dtype of ``D.array``; returns the cycle from verts[0]. The package's
    earlier DP, kept unchanged as the tie-break oracle for the layer-wise
    one: both take the first minimum, so their tours must be identical."""
    k = len(verts)
    dist = D.array[np.ix_(verts, verts)]
    size = 1 << k
    INF = k * dist.max() + 1  # longer than any Hamilton path on these vertices
    dp = np.full((size, k), INF, dtype=dist.dtype)
    parent = np.full((size, k), -1, dtype=np.int8)
    dp[1, 0] = 0
    for mask in range(3, size, 2):  # start vertex 0 and at least one other
        members = [j for j in range(1, k) if (mask >> j) & 1]
        js = np.array(members)
        prev_masks = mask ^ (1 << js)
        cand = dp[prev_masks] + dist[:, js].T  # (m, k): via each last vertex
        arg = np.argmin(cand, axis=1)  # first minimum: ties break low
        dp[mask, js] = cand[np.arange(len(js)), arg]
        parent[mask, js] = arg
    full = size - 1
    closing = dp[full] + dist[:, 0]  # closing[0] stays INF: dp[full, 0] is never set
    j = int(np.argmin(closing))
    order = []
    mask = full
    while j != -1:
        order.append(j)
        j2 = int(parent[mask, j])
        mask ^= 1 << j
        j = j2
    order.reverse()  # starts at vertex 0
    return [verts[i] for i in order]
