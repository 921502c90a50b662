"""Reference implementations used only to cross-check the package.

Everything here is written straight from the problem definitions with no
shared code or structure with src/, so agreement is meaningful. The
exceptions are the package's earlier versions of code it has since rewritten,
kept as they were so the rewrites can be held to identical output:
``per_mask_held_karp`` (tie-breaks of the layer-wise DP),
``per_mask_matching_dp`` (tie-breaks of the recursive matching DP),
``dict_prim_mst`` and ``rescan_greedy_swap`` (tie-breaks of the MST and the
greedy matching on the integer image),
``triple_loop_violations`` and ``first_entry_fault`` (the vectorized load
checks), ``tuple_mirror_and_assign``, ``tuple_rotate`` and
``tuple_relabel`` (the array-built base schedule, slot rotation and
relabeling),
``per_labeling_scan`` (the shift-identity candidate scan) and
``fraction_certify`` (the certificate on the integer image). Two more,
``assumption_a_route`` and ``assumption_a_table``, are helpers only the
tests read, moved here out of the package. ``coprime_big``,
``thirds_and_sevenths`` and ``number_kind`` make the number formats several
test modules load.
"""

import random
from fractions import Fraction

import numpy as np


def coprime_big(x):
    """An entry past the int64 bound; such entries have no common factor, and
    every path over the same number of edges gains the same offset."""
    return (x << 58) + 1 if x else 0


def thirds_and_sevenths(rows):
    """An integer twin of ``rows`` (each entry times 3 or 7) and that twin
    over 21: thirds, sevenths and integers, whose LCM 21 is more than any
    single denominator."""
    twin = [[x * (7 if (i + j) % 2 else 3) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    mixed = [[Fraction(x, 21) for x in row] for row in twin]
    assert {Fraction(x).denominator for row in mixed for x in row} == {1, 3, 7}
    return twin, mixed


def number_kind(kind, n, seed):
    """The rows of an n-venue matrix of one number kind: a random Euclidean
    instance as integers ("int64"), over 4 ("quarter"), as thirds and
    sevenths ("thirds") or as ``coprime_big`` entries ("coprime"), or
    arbitrary symmetric zero-diagonal integers ("non-metric", mostly
    violating the triangle inequality)."""
    from uttp import random_euclidean_instance

    if kind == "non-metric":
        rng = random.Random(seed)
        upper = {(i, j): rng.randint(0, 60) for i in range(n) for j in range(i + 1, n)}
        return [[0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rows = random_euclidean_instance(n, seed).d
    if kind == "quarter":
        return [[Fraction(x, 4) for x in row] for row in rows]
    if kind == "thirds":  # thirds_and_sevenths' matrix; at n=4 it can miss a denominator
        return [[Fraction(x, 3 if (i + j) % 2 else 7) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if kind == "coprime":
        return [[coprime_big(x) for x in row] for row in rows]
    return rows


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


def triple_loop_violations(d, cap):
    """The package's earlier triangle check: every (i, k, j) with i < k and
    d[i][j] + d[j][k] < d[i][k], in loop order, as (i, j, k, deficit)
    tuples: the first ``cap`` of them, none when ``cap`` is 0."""
    n = len(d)
    out = []
    for i in range(n):
        for k in range(i + 1, n):
            direct = d[i][k]
            for j in range(n):
                if j == i or j == k:
                    continue
                via = d[i][j] + d[j][k]
                if via < direct:
                    if len(out) >= cap:
                        return out
                    out.append((i, j, k, direct - via))
    return out


def first_entry_fault(d):
    """The package's earlier entry check, walked row by row: the message of
    the first nonzero diagonal, negative or asymmetric entry, or None."""
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            return f"nonzero diagonal entry at ({i},{i}): {d[i][i]}"
        for j in range(n):
            if d[i][j] < 0:
                return f"negative distance at ({i},{j}): {d[i][j]}"
            if d[i][j] != d[j][i]:
                return f"asymmetric entries ({i},{j})={d[i][j]} vs ({j},{i})={d[j][i]}"
    return None


def tuple_mirror_and_assign(n):
    """The package's earlier circle-method and mirrored schedule, cell by
    cell: (opp rows, home rows) as tuples of tuples."""
    half = n - 1
    circle_rows = []
    for t in range(half):
        row = []
        for s in range(half):
            r = (s - t) % half
            row.append(n - 1 if r == t else r)
        circle_rows.append(tuple(row))
    circle_rows.append(tuple(s // 2 if s % 2 == 0 else (s + n - 1) // 2 for s in range(half)))
    opp = tuple(tuple(row[s % half] for s in range(2 * half)) for row in circle_rows)
    home_rows = []
    for t in range(n):
        if t < n // 2:
            row = [2 * t <= s <= n + 2 * t - 2 for s in range(2 * half)]
        elif t <= n - 2:
            row = [not (2 * t - n + 2 <= s <= 2 * t) for s in range(2 * half)]
        else:
            row = [s > n - 2 for s in range(2 * half)]
        home_rows.append(tuple(row))
    return opp, tuple(home_rows)


def tuple_rotate(opp, home, m):
    """The package's earlier slot rotation on (opp rows, home rows) tuples:
    slot s of the result holds slot (s+m) mod (2n-2) of the input."""
    opp = tuple(row[m:] + row[:m] for row in opp)
    home = tuple(row[m:] + row[:m] for row in home)
    return opp, home


def tuple_relabel(opp, home, perm):
    """The package's earlier relabeling on (opp rows, home rows) tuples: team
    perm[t] takes team t's row, with opponents mapped through perm."""
    n = len(opp)
    new_opp = [()] * n
    new_home = [()] * n
    for t in range(n):
        new_opp[perm[t]] = tuple(perm[o] for o in opp[t])
        new_home[perm[t]] = home[t]
    return tuple(new_opp), tuple(new_home)


def per_mask_matching_dp(D, verts):
    """The package's earlier matching DP, one mask at a time in Python over
    ``D.d``; returns (sorted pairs, weight). Kept unchanged as the tie-break
    oracle for the recursive one."""
    k = len(verts)
    d = D.d
    full = (1 << k) - 1
    best = [None] * (full + 1)
    choice = [None] * (full + 1)
    best[0] = 0
    for mask in range(1, full + 1):
        if bin(mask).count("1") % 2:
            continue
        i = (mask & -mask).bit_length() - 1  # lowest set bit pairs first
        rest = mask ^ (1 << i)
        b = None
        ch = None
        j = rest
        while j:
            jbit = j & -j
            jj = jbit.bit_length() - 1
            val = best[rest ^ jbit] + d[verts[i]][verts[jj]]  # every even sub-mask is set
            if b is None or val < b:
                b, ch = val, (i, jj)
            j ^= jbit
        best[mask] = b
        choice[mask] = ch
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((verts[i], verts[j]))
        mask ^= (1 << i) | (1 << j)
    pairs.sort()
    return tuple(pairs), best[full]


def dict_prim_mst(D, verts):
    """The package's earlier MST over ``D.d``, keys in a dict; equal keys
    keep the earlier vertex. Kept unchanged as the tie-break oracle for the
    one on the integer image."""
    d = D.d
    in_tree = {verts[0]}
    edges = []
    key = {v: (d[verts[0]][v], verts[0]) for v in verts[1:]}
    while key:
        v = min(key, key=lambda u: (key[u][0], u))
        w, attach = key.pop(v)
        edges.append((min(attach, v), max(attach, v)))
        in_tree.add(v)
        for u in key:
            if d[v][u] < key[u][0]:
                key[u] = (d[v][u], v)
    return edges


def rescan_greedy_swap(D, verts):
    """The package's earlier greedy matching over ``D.d``: each pick rescans
    every unmatched pair for the first minimum, then pairwise swaps run while
    one shortens the matching. Returns (sorted pairs, weight). Kept unchanged
    as the tie-break oracle for the one-pass greedy on the integer image."""
    d = D.d
    unmatched = set(verts)
    pairs = []
    while unmatched:
        best = None
        for a in sorted(unmatched):
            for b in sorted(unmatched):
                if b <= a:
                    continue
                if best is None or d[a][b] < d[best[0]][best[1]]:
                    best = (a, b)
        pairs.append(best)
        unmatched.discard(best[0])
        unmatched.discard(best[1])
    improved = True
    while improved:
        improved = False
        for x in range(len(pairs)):
            for y in range(x + 1, len(pairs)):
                a, b = pairs[x]
                c, e = pairs[y]
                cur = d[a][b] + d[c][e]
                alt1 = d[a][c] + d[b][e]
                alt2 = d[a][e] + d[b][c]
                if alt1 < cur and alt1 <= alt2:
                    pairs[x], pairs[y] = tuple(sorted((a, c))), tuple(sorted((b, e)))
                    improved = True
                elif alt2 < cur:
                    pairs[x], pairs[y] = tuple(sorted((a, e))), tuple(sorted((b, c)))
                    improved = True
    pairs.sort()
    return tuple(pairs), sum(d[a][b] for a, b in pairs)


def per_labeling_scan(D, family, cycle):
    """The package's earlier candidate scan: one athome table per labeling,
    summed over teams. Returns nested lists indexed [r][direction][m], with
    directions forward then reversed."""
    from uttp.solver import DIRECTIONS, athome_table, team_assignment

    return [
        [
            athome_table(D, family, team_assignment(cycle, r, direction)).sum(axis=1).tolist()
            for direction in DIRECTIONS
        ]
        for r in range(len(cycle.cycle))
    ]


def _slot_venues(sched, mapping, team):
    home = mapping[team]
    return [home if sched.home[team][s] else mapping[sched.opp[team][s]] for s in range(len(sched.opp[team]))]


def assumption_a_table(D, family, mapping):
    """Per-slot-rotation, per-team distances under the first/last-slot rule,
    shape (2n-2, n): every team travels the closed walk through its slot
    venues, whatever the rotation."""
    n = family.n
    cyc = [cycle_len(D.d, _slot_venues(family.base, mapping, t)) for t in range(n)]
    return np.tile(np.array(cyc, dtype=object), (2 * n - 2, 1))


def assumption_a_route(sched, mapping, team):
    """The cyclic venue route of a team under the first/last-slot rule,
    normalized to start at the team's own venue.

    Consecutive stays collapse; the home stand must be one contiguous
    cyclic block for the normalization to be well defined (true for every
    schedule the package constructs).
    """
    route = []
    for v in _slot_venues(sched, mapping, team):
        if not route or route[-1] != v:
            route.append(v)
    if len(route) > 1 and route[0] == route[-1]:
        route.pop()
    home = mapping[team]
    if home not in route:
        route.insert(0, home)  # away every slot never happens, but be total
    i = route.index(home)
    return tuple(route[i:] + route[:i])


def fraction_certify(D, cycle, family, tau, *, total, ratio_bound):
    """The package's earlier ``certify``: every edge, row, pair and cycle sum
    walked over ``D.d``, and a Fraction check per team for ``team_avg``.
    Its closed routes come from ``rule_a_walk`` and its cycle lengths from
    ``cycle_len``; only the rotation table is the package's own. Kept as the
    oracle for the certificate's checks, values and number types."""
    from uttp.analysis import BoundCertificate, CheckResult
    from uttp.solver import athome_table, team_assignment

    n = D.n
    d = D.d

    def row_sum(i):
        return sum(d[i][j] for j in range(n) if j != i)

    checks = []
    max_edge = max(d[i][j] for i in range(n) for j in range(i + 1, n))
    checks.append(CheckResult("edge_max", 2 * max_edge, tau))

    mapping = team_assignment(cycle, 0, "forward")
    l_a, _ = rule_a_walk(family.base.opp, family.base.home, mapping, d)
    cycle_length = cycle_len(d, cycle.cycle)
    produced = list(l_a) + [cycle_length]
    if cycle.full_tour is not None:
        produced.append(cycle_len(d, cycle.full_tour.vertices))
    checks.append(CheckResult("hamilton", 2 * max(produced), n * tau))

    pair_sum = sum(row_sum(i) for i in range(n))
    checks.append(CheckResult("pair_sum", 4 * pair_sum, n * n * tau))

    pivot_sum = row_sum(cycle.pivot)
    checks.append(CheckResult("pivot_sum", 4 * pivot_sum, n * tau))

    rows = athome_table(D, family, mapping).tolist()
    M = len(rows)
    totals = [sum(row) for row in rows]
    avg = Fraction(sum(totals), M) * D.unit
    rhs = (
        (n - 2) * Fraction(cycle_length)
        + 2 * Fraction(pivot_sum)
        + Fraction(3, 2) * Fraction(tau)
        + Fraction(n, 2) * Fraction(tau)
        + Fraction(pair_sum) / (n - 1)
    )
    checks.append(CheckResult("avg_bound", avg, rhs))

    tightest = None
    for t in range(n):
        team_avg = Fraction(sum(rows[m][t] for m in range(M)), M) * D.unit
        team_rhs = Fraction(l_a[t]) + Fraction(row_sum(mapping[t])) / (n - 1)
        c = CheckResult("team_avg", team_avg, team_rhs)
        if not c.ok:
            tightest = c
            break
        if tightest is None or c.slack < tightest.slack:
            tightest = c
    checks.append(tightest)

    checks.append(CheckResult("best_le_avg", Fraction(total), avg))
    checks.append(CheckResult("ratio", Fraction(total), ratio_bound * n * Fraction(tau)))
    return BoundCertificate(checks=tuple(checks))
