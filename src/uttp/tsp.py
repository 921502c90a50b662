"""Hamilton-cycle construction: exact bitmask DP, 1.5-ratio heuristic tours,
minimum-weight perfect matchings, and the pivoted cycle the scheduler needs.

All tie-breaks (DP, MST, matching, Euler traversal) resolve to the lowest
vertex index so outputs are bit-for-bit reproducible.

The exact DP runs on ``DistanceMatrix.array``, one code path for every
input: int64 when a magnitude bound proves no sum can overflow, otherwise
numpy dtype=object holding the exact ints or Fractions, so huge integers and
rationals give exact tours with the same tie-breaks.

The DP table has one row per vertex set that holds the start vertex (the
odd masks of the classic Held-Karp DP), ``(2^(k-1), k)`` cells, filled one
popcount layer at a time. Each state gathers only the members of its
previous set as predecessors, in increasing vertex order, and keeps
``np.argmin``'s first minimum; the non-members a full-width row would also
offer are never reachable, so the tours equal those of a per-mask DP over
all k columns. ``held_karp`` refuses more than ``HELD_KARP_CAP`` vertices
before allocating, whatever ``cap`` it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .instance import DistanceMatrix, Number

HELD_KARP_CAP = 20
MATCHING_EXACT_MAX = 16


class TspError(ValueError):
    """Invalid arguments to a tour-construction routine."""


def _canonical_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate/reflect a cycle so it starts at its lowest vertex and its
    second element is the smaller of the two neighbours."""
    k = len(seq)
    i = min(range(k), key=lambda idx: seq[idx])
    fwd = tuple(seq[(i + off) % k] for off in range(k))
    if k >= 3 and fwd[1] > fwd[-1]:
        fwd = (fwd[0],) + tuple(reversed(fwd[1:]))
    return fwd


def cycle_length(D: DistanceMatrix, seq: Sequence[int]) -> Number:
    d = D.d
    return sum(d[seq[i]][seq[(i + 1) % len(seq)]] for i in range(len(seq)))


@dataclass(frozen=True)
class Tour:
    """A Hamilton cycle over its vertex set; closing edge implicit."""

    vertices: tuple[int, ...]
    length: Number

    @classmethod
    def from_vertices(cls, D: DistanceMatrix, seq: Sequence[int]) -> "Tour":
        if len(set(seq)) != len(seq):
            raise TspError("tour repeats a vertex")
        canon = _canonical_cycle(seq)
        return cls(vertices=canon, length=cycle_length(D, canon))


@dataclass(frozen=True)
class Matching:
    """Disjoint vertex pairs; ``exact`` records whether the DP (not the
    greedy fallback) produced them."""

    pairs: tuple[tuple[int, int], ...]
    weight: Number
    exact: bool


@dataclass(frozen=True)
class PivotedCycle:
    """The scheduler's input: the pivot vertex plus an ordered cycle over
    the remaining vertices."""

    pivot: int
    cycle: tuple[int, ...]
    cycle_length: Number
    matching_exact: Optional[bool]  # None unless built by christofides
    full_tour: Optional[Tour]  # the all-vertex cycle the pivot was skipped from


def select_pivot(D: DistanceMatrix) -> int:
    """Vertex with minimum total distance to the others; ties break low."""
    return int(np.argmin(D.array.sum(axis=1)))  # first minimum; d[v][v] = 0


def _check_vertex_set(D: DistanceMatrix, vertex_set: Optional[Iterable[int]]) -> list[int]:
    verts = sorted(set(range(D.n) if vertex_set is None else vertex_set))
    if verts and (verts[0] < 0 or verts[-1] >= D.n):
        raise TspError(f"vertex out of range 0..{D.n - 1}")
    return verts


def held_karp(
    D: DistanceMatrix,
    vertex_set: Optional[Iterable[int]] = None,
    cap: int = HELD_KARP_CAP,
) -> Tour:
    """Exact shortest Hamilton cycle by subset DP over the induced subgraph.

    ``cap`` may lower the vertex limit but not raise it past
    ``HELD_KARP_CAP``: the DP table has ``2^(k-1) * k`` cells, and the
    check runs before anything is allocated.
    """
    verts = _check_vertex_set(D, vertex_set)
    k = len(verts)
    if k < 3:
        raise TspError(f"need at least 3 vertices, got {k}")
    limit = min(cap, HELD_KARP_CAP)
    if k > limit:
        raise TspError(f"{k} vertices exceeds the exact-DP cap of {limit}")
    return Tour.from_vertices(D, _held_karp(D, verts))


def _popcount_layers(bits: int, sizes: Iterable[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per set size p in ``sizes``: the p-element subsets of range(bits) as
    increasing bitmasks, and their members in increasing order as an int8
    (count, p) matrix. Both subset DPs fill their tables in this order."""
    r = np.arange(1 << bits)
    popcount = np.zeros(1 << bits, dtype=np.int8)
    for b in range(bits):
        popcount += (r >> b) & 1
    for p in sizes:
        sets = np.flatnonzero(popcount == p)
        members = np.empty((len(sets), p), dtype=np.int8)
        filled = np.zeros(len(sets), dtype=np.intp)
        for b in range(bits):
            hit = np.flatnonzero((sets >> b) & 1)
            members[hit, filled[hit]] = b
            filled[hit] += 1
        yield sets, members


def _held_karp(D: DistanceMatrix, verts: list[int]) -> list[int]:
    """Subset DP in the dtype of ``D.array``; returns the cycle from verts[0].

    Row ``r`` of the table is the set ``{0} | {j : bit j-1 of r}``, so only
    the sets that hold the start vertex get a row: ``(2^(k-1), k)`` cells.
    Rows are filled one popcount layer at a time, and for each last vertex
    j the predecessors gathered are the previous set's members, in
    increasing order (vertex 0 alone for the first layer). A per-mask DP
    over all k columns finds the same first minimum: a non-member column
    holds at least ``INF``, and every member's candidate is shorter.
    """
    k = len(verts)
    dist = D.array[np.ix_(verts, verts)]
    rows = 1 << (k - 1)
    INF = k * dist.max() + 1  # longer than any Hamilton path on these vertices
    dp = np.full((rows, k), INF, dtype=dist.dtype)
    parent = np.zeros((rows, k), dtype=np.int8)
    dp[0, 0] = 0
    cells = dp.reshape(-1)  # row r, vertex i at r * k + i
    for layer, members in _popcount_layers(k - 1, range(1, k)):
        p = members.shape[1]
        members += 1  # bit b of a row is vertex b + 1
        for j in range(1, k):
            has_j = np.flatnonzero((layer >> (j - 1)) & 1)
            sel = layer[has_j]
            if p == 1:
                dp[sel, j] = dist[0, j]  # parent stays 0
                continue
            prev = sel ^ (1 << (j - 1))
            m = members[has_j]
            m = m[m != j].reshape(len(sel), p - 1)  # prev's members, increasing
            cand = cells[prev[:, None] * k + m] + dist[m, j]
            arg = np.argmin(cand, axis=1)  # first minimum: ties break low
            at = np.arange(len(sel))
            dp[sel, j] = cand[at, arg]
            parent[sel, j] = m[at, arg]
    full = rows - 1
    closing = dp[full] + dist[:, 0]  # closing[0] stays INF: dp[full, 0] is never set
    j = int(np.argmin(closing))
    order = [0]
    row = full
    while j:
        order.append(j)
        row, j = row ^ (1 << (j - 1)), int(parent[row, j])
    order[1:] = reversed(order[1:])
    return [verts[i] for i in order]


def min_weight_perfect_matching(
    D: DistanceMatrix,
    odd_set: Iterable[int],
) -> Matching:
    """Pair up an even-cardinality vertex set at minimum total distance.

    Exact subset DP up to ``MATCHING_EXACT_MAX`` vertices; greedy nearest-pair
    plus pairwise-swap improvement beyond that, with the mode recorded.
    """
    verts = _check_vertex_set(D, odd_set)
    if len(verts) % 2 != 0:
        raise TspError(f"matching needs an even vertex count, got {len(verts)}")
    if len(verts) <= MATCHING_EXACT_MAX:
        pairs, weight = _matching_dp(D, verts)
        return Matching(pairs=pairs, weight=weight, exact=True)
    pairs, weight = _matching_greedy_swap(D, verts)
    return Matching(pairs=pairs, weight=weight, exact=False)


def _matching_dp(D: DistanceMatrix, verts: list[int]) -> tuple[tuple[tuple[int, int], ...], Number]:
    """Subset DP in the dtype of ``D.array``, one popcount layer at a time:
    each even set's lowest member i pairs with another member j, taking the
    first minimum over the members j in increasing order."""
    k = len(verts)
    w = D.array[np.ix_(verts, verts)]
    bits = 1 << np.arange(k)
    best = np.zeros(1 << k, dtype=w.dtype)
    mate = np.zeros(1 << k, dtype=np.intp)
    for sets, members in _popcount_layers(k, range(2, k + 1, 2)):
        i, js = members[:, :1], members[:, 1:]
        cand = best[sets[:, None] ^ bits[i] ^ bits[js]] + w[i, js]
        arg = np.argmin(cand, axis=1)  # first minimum: ties break low
        at = np.arange(len(sets))
        best[sets] = cand[at, arg]
        mate[sets] = js[at, arg]
    pairs = []
    mask = (1 << k) - 1
    while mask:
        i, j = (mask & -mask).bit_length() - 1, int(mate[mask])
        pairs.append((verts[i], verts[j]))
        mask ^= (1 << i) | (1 << j)
    pairs.sort()
    return tuple(pairs), sum(D.d[a][b] for a, b in pairs)


def _matching_greedy_swap(D: DistanceMatrix, verts: list[int]) -> tuple[tuple[tuple[int, int], ...], Number]:
    d = D.d
    unmatched = set(verts)
    pairs: list[tuple[int, int]] = []
    while unmatched:
        best = None
        for a in sorted(unmatched):
            for b in sorted(unmatched):
                if b <= a:
                    continue
                if best is None or d[a][b] < d[best[0]][best[1]]:
                    best = (a, b)
        pairs.append(best)  # type: ignore[arg-type]
        unmatched.discard(best[0])  # type: ignore[index]
        unmatched.discard(best[1])  # type: ignore[index]
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
    weight = sum(d[a][b] for a, b in pairs)
    return tuple(pairs), weight


def _prim_mst(D: DistanceMatrix, verts: list[int]) -> list[tuple[int, int]]:
    """MST edges on the induced subgraph; equal keys keep the earlier vertex."""
    d = D.d
    in_tree = {verts[0]}
    edges: list[tuple[int, int]] = []
    key: dict[int, tuple[Number, int]] = {
        v: (d[verts[0]][v], verts[0]) for v in verts[1:]
    }
    while key:
        v = min(key, key=lambda u: (key[u][0], u))
        w, attach = key.pop(v)
        edges.append((min(attach, v), max(attach, v)))
        in_tree.add(v)
        for u in key:
            if d[v][u] < key[u][0]:
                key[u] = (d[v][u], v)
    return edges


def _euler_circuit(adj: dict[int, list[int]], start: int) -> list[int]:
    """Hierholzer with sorted adjacency; consumes the multigraph."""
    for v in adj:
        adj[v].sort(reverse=True)  # pop() then yields the lowest neighbour
    stack = [start]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if adj[v]:
            u = adj[v].pop()
            adj[u].remove(v)
            stack.append(u)
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit


@dataclass(frozen=True)
class ChristofidesResult:
    tour: Tour
    matching_exact: bool


def christofides(
    D: DistanceMatrix,
    vertex_set: Optional[Iterable[int]] = None,
) -> ChristofidesResult:
    """MST + odd-vertex matching + Euler circuit + first-visit shortcutting.

    Guarantees length <= 1.5x the optimum only on metric input with an exact
    matching; ``matching_exact`` says which matching mode ran.
    """
    verts = _check_vertex_set(D, vertex_set)
    if len(verts) < 3:
        raise TspError(f"need at least 3 vertices, got {len(verts)}")
    mst = _prim_mst(D, verts)
    degree = {v: 0 for v in verts}
    for a, b in mst:
        degree[a] += 1
        degree[b] += 1
    odd = [v for v in verts if degree[v] % 2 == 1]
    matching = min_weight_perfect_matching(D, odd)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in list(mst) + list(matching.pairs):
        adj[a].append(b)
        adj[b].append(a)
    circuit = _euler_circuit(adj, verts[0])
    seen = set()
    order = []
    for v in circuit:
        if v not in seen:
            seen.add(v)
            order.append(v)
    return ChristofidesResult(
        tour=Tour.from_vertices(D, order), matching_exact=matching.exact
    )


def parse_tour_file(text: str, n: int) -> tuple[int, ...]:
    """One line of n whitespace-separated vertex indices (a permutation)."""
    try:
        seq = tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise TspError(f"tour file contains a non-integer token: {exc}") from exc
    if sorted(seq) != list(range(n)):
        raise TspError(
            f"tour file must be a permutation of 0..{n - 1}, got {len(seq)} tokens"
        )
    return seq


def build_pivoted_cycle(
    D: DistanceMatrix,
    mode: str = "exact",
    cap: int = HELD_KARP_CAP,
    tour: Optional[Sequence[int]] = None,
) -> PivotedCycle:
    """Pick the pivot, build a cycle on the remaining vertices.

    exact: shortest all-vertex cycle, then skip the pivot (its neighbours
    join directly; the triangle inequality means no length increase).
    christofides: 1.5-ratio cycle built directly on the non-pivot vertices.
    tour_file: a supplied all-vertex tour, which must be a shortest cycle;
    it is checked against Held-Karp when n <= min(cap, HELD_KARP_CAP) and
    trusted beyond, then the pivot is skipped as in exact mode.
    """
    if D.n % 2 != 0 or D.n < 4:
        raise TspError(f"need an even vertex count >= 4, got {D.n}")
    pivot = select_pivot(D)
    matching_exact: Optional[bool] = None
    full: Optional[Tour] = None
    if mode == "exact":
        full = held_karp(D, cap=cap)
    elif mode == "christofides":
        res = christofides(D, [v for v in range(D.n) if v != pivot])
        cycle, matching_exact = res.tour, res.matching_exact
    elif mode == "tour_file":
        if tour is None:
            raise TspError("tour_file mode needs a tour")
        if sorted(tour) != list(range(D.n)):
            raise TspError(f"supplied tour must be a permutation of 0..{D.n - 1}")
        full = Tour.from_vertices(D, tour)
        if D.n <= min(cap, HELD_KARP_CAP) and full.length > (tau := held_karp(D, cap=cap).length):
            raise TspError(
                f"supplied tour has length {full.length}, longer than the shortest cycle ({tau})"
            )
    else:
        raise TspError(f"unknown mode {mode!r}")
    if full is not None:
        cycle = Tour.from_vertices(D, [v for v in full.vertices if v != pivot])
    return PivotedCycle(
        pivot=pivot,
        cycle=cycle.vertices,
        cycle_length=cycle.length,
        matching_exact=matching_exact,
        full_tour=full,
    )
