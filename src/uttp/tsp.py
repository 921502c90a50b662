"""Hamilton-cycle construction: exact bitmask DP, 1.5-ratio heuristic tours,
minimum-weight perfect matchings, and the pivoted cycle the scheduler needs.

All tie-breaks (DP, MST, matching, Euler traversal) resolve to the lowest
vertex index so outputs are bit-for-bit reproducible. Of all shortest
cycles, Held-Karp returns the lexicographically smallest vertex sequence
from the lowest vertex, the one ``brute_force_tsp`` returns.

Held-Karp, the MST and both matchings compare sums of distances and
nothing else, so they take the induced submatrix of
``DistanceMatrix.array``, the integer image made at load, and work on its
indices. The vertex set is sorted, so index order is vertex order and every
tie-break carries over. Scaling by a positive constant keeps every
comparison, so rational files get the tours and tie-breaks of their integer
twins, and Fraction arithmetic never runs inside them. Tour lengths are
image sums scaled by ``DistanceMatrix.unit`` once, and so are matching
weights.

The Held-Karp table holds plain path lengths from the start vertex, one row
per last vertex other than the start and one column per set of the other
vertices, ``(k-1, 2^(k-1))`` cells, its columns sorted by set size. It is
int32 when its sentinel plus one step fits, else the image's int64 or
object dtype. Each popcount layer is extended one vertex in a single step
over whole rows: for every set and every next vertex j, the minimum over
the k-1 predecessors i of ``dp[i] + dist[i, j]``. A predecessor outside the
set holds ``INF``, longer than any Hamilton path, so it never wins. No
parent table is kept: a path is walked back from its cell, each step taking
the first minimizing predecessor by ``np.argmin`` over the same sums.

The distances are symmetric, so the layers are filled only up to the sets
of ``a = ceil(k/2)`` vertices. Every Hamilton cycle through vertex 0 is two
table paths from 0 that meet at the cycle's a-th vertex m: one through a
vertices, m last, and one through the other ``k - 1 - a`` and m. The least
sum over those pairs of cells is the shortest cycle's length. When exactly two pairs
attain it, as a cycle and its reverse do, and every step walking them back
has a single minimizing predecessor, no other cycle is as short, and the
tour is read off the half table. Otherwise, ties included, the same blocks
fill the table on to the full set and the tour is walked back from it, the
first minimum at each step, so of all shortest cycles it is the one a
per-mask DP returns. A unique cycle is that one too, once canonicalised.
``HELD_KARP_CAP`` is the one size limit on an exact tour, and no argument
moves it.

Where each step reads and writes depends on k alone: the popcount order of
the sets, each set's column, per block the cell that every set plus every
next vertex lands in, and the pairs of cells where the two halves of a
cycle meet. ``_hk_plan`` builds that addressing. Up to ``HK_KEEP_MAX`` = 16
vertices it is built once per k and kept, read-only: 2.5 MB at k=16, 0.4
MB of it the meet, about 4.7 MB for all k up to 16. Past that a kept plan
would be larger than the table itself, so each call builds its blocks one
at a time as they are used, and its meet (7.4 MB at k=20). The popcount
order is kept for every bit count.

The exact matching is a recursion over the index sets left to pair, top
down from the full set on the image's Python ints: the lowest index left
pairs with each other index left, the first minimum winning. It prices only
the sets that recurrence reaches, F(k+1) of the 2^k, in a dict.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .instance import DistanceMatrix, Number

HELD_KARP_CAP = 20
MATCHING_EXACT_MAX = 16
# sets per Held-Karp step: bounds its (k - 1, HK_BLOCK) temporaries. numpy
# 2.4's broadcast adds ran 2-3x slower per element on rows of 2560 or fewer
# (2-vCPU x86-64 host), and no faster on rows past 3072.
HK_BLOCK = 3072
# the largest k whose Held-Karp addressing is kept across calls: 2.5 MB at
# k=16, while at k=18 it would be 11 MB, more than the 8.9 MB int32 table
HK_KEEP_MAX = 16


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
    """Length of the closed walk through ``seq``: image legs, scaled once."""
    at = np.asarray(seq, dtype=np.intp)
    return int(D.array[at, np.roll(at, -1)].sum()) * D.unit


@dataclass(frozen=True)
class Tour:
    """A Hamilton cycle over its vertex set; closing edge implicit."""

    vertices: tuple[int, ...]
    length: Number

    @classmethod
    def from_vertices(cls, D: DistanceMatrix, seq: Sequence[int]) -> "Tour":
        if len(set(seq)) != len(seq):
            raise TspError("tour repeats a vertex")
        if not all(0 <= v < D.n for v in seq):  # a gather would wrap a negative index
            raise TspError(f"vertex out of range 0..{D.n - 1}")
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


def held_karp(D: DistanceMatrix, vertex_set: Optional[Iterable[int]] = None) -> Tour:
    """Exact shortest Hamilton cycle by subset DP over the induced subgraph.

    Of all shortest cycles it returns the lexicographically smallest vertex
    sequence from the lowest vertex, the one ``brute_force_tsp`` returns.
    The DP table has ``2^(k-1) * (k-1)`` cells, so more than
    ``HELD_KARP_CAP`` vertices are refused before anything is allocated.
    """
    verts = _check_vertex_set(D, vertex_set)
    k = len(verts)
    if k < 3:
        raise TspError(f"need at least 3 vertices, got {k}")
    if k > HELD_KARP_CAP:
        raise TspError(f"{k} vertices exceeds the exact-DP cap of {HELD_KARP_CAP}")
    return Tour.from_vertices(D, _held_karp(D, verts))


@functools.cache
def _popcount_order(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets of range(bits) as bitmasks sorted by size, then value,
    and where each size starts: ``order[start[p]:start[p + 1]]`` are the
    p-element subsets. Held-Karp fills its table in this order.
    Computed once per bit count; both arrays are read-only."""
    masks = np.arange(1 << bits)
    size = np.zeros(1 << bits, dtype=np.int8)
    for b in range(bits):
        size += (masks >> b) & 1
    order = np.argsort(size, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(size))))
    order.flags.writeable = start.flags.writeable = False
    return order, start


def _min_plus(src: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``out[j, c] = min_i src[i, c] + step[i, j]`` over the rows i of src,
    in two temporaries the size of the result."""
    out = src[0] + step[0, :, None]
    via = np.empty_like(out)
    for i in range(1, len(step)):
        np.minimum(out, np.add(src[i], step[i, :, None], out=via), out=out)
    return out


def _hk_plan(
    k: int, dtype: type
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[int, int, np.ndarray]]]:
    """The Held-Karp table's addressing for k vertices, which depends on k
    alone: ``column``, the table column of each bitmask; ``meet``, where
    the two halves of every cycle meet (below); and, built one block at a
    time as they are consumed, the blocks ``(lo, hi, at)`` in fill order.
    Columns lo..hi-1 are a block of one popcount layer, and ``at[j - 1, c]``
    is the flat index in the table of the cell that the set of column
    lo + c plus next vertex j lands in: row j - 1 of the set's column, or
    of the spill column when j is in the set already.

    ``meet`` has a column per set S of ``a = ceil(k/2)`` vertices and
    member m of S, by m and then in table column order: ``meet[0]`` is the
    flat index of cell (m, S), ``meet[1]`` that of cell (m, the other
    vertices plus m), a set of ``k - a <= a`` vertices.

    All arrays are read-only, of integer ``dtype``, but ``meet``: it is
    only gathered from, which numpy does from int32 indices without an intp
    copy, so it is int32 at every k, 7.4 MB at k=20 where intp would be
    14.8."""
    order, start = _popcount_order(k - 1)
    spill = len(order)
    column = np.empty(spill, dtype=dtype)
    column[order] = np.arange(spill, dtype=dtype)
    column.flags.writeable = False
    rows = np.arange(k - 1, dtype=dtype)
    bit = (1 << rows)[:, None]  # row j - 1: vertex j's bit
    offset = (rows * (spill + 1))[:, None]  # row starts in the flat table
    a = (k + 1) // 2
    layer = order[start[a]:start[a + 1]]
    meet = np.empty((2, k - 1, math.comb(k - 2, a - 1)), dtype=np.int32)
    for j in range(k - 1):  # the a-sets that hold vertex j + 1, and their other halves
        held = layer[layer & (1 << j) != 0]
        meet[0, j] = column[held]
        meet[1, j] = column[(held ^ (spill - 1)) | (1 << j)]
    meet += offset
    meet = meet.reshape(2, -1)
    meet.flags.writeable = False

    def blocks() -> Iterator[tuple[int, int, np.ndarray]]:
        for p in range(1, k - 1):
            for lo in range(start[p], start[p + 1], HK_BLOCK):
                hi = min(lo + HK_BLOCK, start[p + 1])
                sets = order[lo:hi]
                at = np.where(sets & bit, spill, column[sets | bit])  # (k - 1, sets)
                at += offset
                at.flags.writeable = False
                yield lo, hi, at

    return column, meet, blocks()


@functools.cache
def _hk_kept_plan(
    k: int,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int, np.ndarray], ...]]:
    """``_hk_plan(k)`` with its blocks built in full, kept for the life of
    the process: 2.5 MB at k=16 (0.4 MB of it the meet), about 4.7 MB for
    every k up to 16, in int32. numpy casts int32 indices to intp on every
    scatter, but a kept intp plan, twice the size, showed no gain in exact
    solves' latency and added 2.5 MB to their peak RSS. A plan built per
    call is intp, since that cast would be its only cost."""
    column, meet, blocks = _hk_plan(k, np.int32)
    return column, meet, tuple(blocks)


def _held_karp(D: DistanceMatrix, verts: list[int]) -> list[int]:
    """Subset DP on the integer image of the induced submatrix; returns the
    cycle from verts[0].

    Vertex 0 only starts paths, so the table has a row per last vertex
    j >= 1 (row j - 1) and a column per set of the other vertices, column
    ``c`` the set ``{j : bit j-1 of order[c]}``; a cell holds the length of
    the shortest path from 0 through that set to that last vertex. Columns
    run through the sets by size, so a popcount layer is a slice. Each
    layer, in blocks of ``HK_BLOCK`` sets, becomes the next in one min-plus
    step over whole rows: for every next vertex j, ``min_i dp[i] +
    dist[i, j]``. A cell whose j is in the set already lands in a spill
    column past the last set, which nothing reads. A last vertex outside
    the set holds ``INF``, longer than any Hamilton path, so it is never a
    predecessor. No parent is kept: a path is walked back from its cell,
    each step's ``np.argmin`` over the same sums picking the first
    minimizing predecessor.

    The layers are filled only up to the sets of ``a = ceil(k/2)``
    vertices. A cycle ``0 -> t1 -> ... -> t(k-1) -> 0`` splits at
    ``m = t_a`` into two table paths from 0 that end at m: one through
    ``S = {t1..ta}``, the other through the rest of the vertices and m, at
    most a of them. So tau is the least ``dp[m, S] + dp[m, rest | m]`` over
    the a-sets S and their members m (``_hk_plan``'s ``meet``); both cells
    are real paths, so the sum is at most ``k * max`` and fits the table's
    dtype. Each shortest directed cycle splits at exactly one pair that
    attains tau, a hit. When there are exactly two hits, as a cycle and its
    reverse give, and each cell of both walks back with a single minimizing
    predecessor at every step, no other cycle is shortest, and the tour is
    read off the half table (at even k the two hits have the same two
    cells, swapped, so two walks do). Otherwise, ties included, the same
    blocks fill the rest of the table and the tour is walked back from the
    full set, so of all shortest cycles it is the one a per-mask DP
    returns. Where each step lands depends on k alone (``_hk_plan``), and
    is kept across calls up to ``HK_KEEP_MAX`` vertices.
    """
    k = len(verts)
    dist = D.array[np.ix_(verts, verts)]
    # a length no Hamilton path reaches; the table is int32 when INF plus a
    # step fits it, else the image's own int64 (whose bound covers the sum)
    # or object dtype
    INF = k * dist.max() + 1
    if INF + dist.max() < 1 << 31:
        dist = dist.astype(np.int32)
    column, meet, blocks = _hk_kept_plan(k) if k <= HK_KEEP_MAX else _hk_plan(k, np.intp)
    order, start = _popcount_order(k - 1)
    spill = len(column)
    dp = np.full((k - 1, spill + 1), INF, dtype=dist.dtype)
    rows = np.arange(k - 1)
    dp[rows, rows + 1] = dist[0, 1:]  # the one-vertex sets: order[1 + b] == 1 << b
    step = dist[1:, 1:]
    cells = dp.reshape(-1)
    blocks = iter(blocks)

    def fill(end: int) -> None:
        """Consume the blocks on to the one whose sets end just before
        column ``end``: every layer up to the one that starts at ``end`` is
        then filled."""
        for lo, hi, at in blocks:
            cells[at] = _min_plus(dp[:, lo:hi], step)
            if hi == end:
                return

    def walk(j: int, mask: int) -> tuple[list[int], bool]:
        """The path from last vertex j back through the set ``mask`` (bit
        i - 1 for vertex i), j first; and whether every step had a single
        minimizing predecessor."""
        path, unique = [j], True
        while mask:
            via = (dp[:, column[mask]] + dist[1:, path[-1]]).tolist()
            least = min(via)
            i = via.index(least)  # the first minimum
            unique = unique and via.count(least) == 1
            path.append(i + 1)
            mask ^= 1 << i
        return path, unique

    def only_shortest() -> Optional[list[int]]:
        """The shortest cycle, read off the half table, when no other cycle
        is as short; else None."""
        length = cells[meet[0]]
        length += cells[meet[1]]
        hits = np.flatnonzero(length == length.min())
        if len(hits) != 2:
            return None
        walks = {}
        for cell in set(meet[:, hits].ravel().tolist()):
            row, col = divmod(cell, spill + 1)
            walks[cell] = walk(row + 1, int(order[col]) ^ (1 << row))
        if not all(unique for _, unique in walks.values()):
            return None
        there, back = (walks[cell][0] for cell in meet[:, hits[0]].tolist())
        return [0, *reversed(there), *back[1:]]

    fill(start[(k + 1) // 2])
    tour = only_shortest()
    if tour is None:
        fill(start[k - 1])
        tour = walk(0, spill - 1)[0]
    return [verts[i] for i in tour]


def min_weight_perfect_matching(
    D: DistanceMatrix,
    odd_set: Iterable[int],
) -> Matching:
    """Pair up an even-cardinality vertex set at minimum total distance.

    Exact up to ``MATCHING_EXACT_MAX`` vertices, by a memoized recursion
    over the vertex sets left to pair (``_matching_dp``); greedy
    nearest-pair plus pairwise-swap improvement beyond that, with the mode
    recorded.
    """
    verts = _check_vertex_set(D, odd_set)
    if len(verts) % 2 != 0:
        raise TspError(f"matching needs an even vertex count, got {len(verts)}")
    exact = len(verts) <= MATCHING_EXACT_MAX
    w = D.array[np.ix_(verts, verts)]
    idx = (_matching_dp if exact else _matching_greedy_swap)(w)
    # an empty matching weighs int 0, as an empty sum of input values does
    weight = sum(int(w[i, j]) for i, j in idx) * D.unit if idx else 0
    return Matching(tuple((verts[i], verts[j]) for i, j in idx), weight, exact)


def _matching_dp(w: np.ndarray) -> list[tuple[int, int]]:
    """Exact matching on the weights ``w``, top-down from the full index
    set: the lowest index left pairs with each other index left, in
    increasing order, and the first minimum wins. Only the sets that
    recurrence reaches are priced, F(k+1) of the 2^k. Returns sorted index
    pairs."""
    left = (1 << len(w)) - 1
    memo: dict[int, tuple[int, int]] = {0: (0, 0)}
    _least_pairing(left, w.tolist(), memo)
    pairs = []
    while left:  # the lowest index left grows, so the pairs come sorted
        low, bit = left & -left, memo[left][1]
        pairs.append((low.bit_length() - 1, bit.bit_length() - 1))
        left ^= low | bit
    return pairs


def _least_pairing(left: int, d: list[list[int]], memo: dict[int, tuple[int, int]]) -> int:
    """The least weight pairing up the index set ``left`` (bit i for index
    i). ``memo`` maps each set priced to that weight and the bit of its
    lowest index's partner. A module-level function: a nested one that
    calls itself is a reference cycle, which keeps each call's memo until a
    full GC."""
    if left not in memo:
        low = left & -left
        row, best, others = d[low.bit_length() - 1], None, left ^ low
        while others:  # bit j of others for each other index j, increasing
            bit = others & -others
            weight = row[bit.bit_length() - 1] + _least_pairing(left ^ low ^ bit, d, memo)
            if best is None or weight < best[0]:  # the first minimum wins
                best = weight, bit
            others ^= bit
        memo[left] = best
    return memo[left][0]


def _matching_greedy_swap(w: np.ndarray) -> list[tuple[int, int]]:
    """Greedy on the weights ``w``: the pairs i < j in order of (weight, i,
    j), each taken while both ends are free; then pairwise swaps while one
    shortens the matching. Returns sorted index pairs."""
    upper = np.triu_indices(len(w), 1)  # row-major: a stable sort keeps (i, j) order on ties
    by_weight = np.argsort(w[upper], kind="stable")
    free = [True] * len(w)
    pairs: list[tuple[int, int]] = []
    for i, j in zip(upper[0][by_weight].tolist(), upper[1][by_weight].tolist()):
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((i, j))
    d = w.tolist()
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
    return sorted(pairs)


def _prim_mst(w: np.ndarray) -> list[tuple[int, int]]:
    """MST edges (i, j), i < j, on the weights ``w``, grown from index 0.
    The lowest index of equal keys joins first, and an equal key keeps the
    vertex it was first attached to."""
    d = w.tolist()
    key, attach, rest = d[0][:], [0] * len(d), list(range(1, len(d)))
    edges: list[tuple[int, int]] = []
    while rest:
        v = min(rest, key=key.__getitem__)  # rest is increasing: the first minimum
        rest.remove(v)
        edges.append((min(attach[v], v), max(attach[v], v)))
        for u in rest:
            if d[v][u] < key[u]:
                key[u], attach[u] = d[v][u], v
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
    mst = [(verts[i], verts[j]) for i, j in _prim_mst(D.array[np.ix_(verts, verts)])]
    degree = Counter(chain.from_iterable(mst))
    matching = min_weight_perfect_matching(D, [v for v in verts if degree[v] % 2])
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in mst + list(matching.pairs):
        adj[a].append(b)
        adj[b].append(a)
    order = dict.fromkeys(_euler_circuit(adj, verts[0]))  # first visits, in order
    return ChristofidesResult(
        tour=Tour.from_vertices(D, list(order)), matching_exact=matching.exact
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
    tour: Optional[Sequence[int]] = None,
) -> PivotedCycle:
    """Pick the pivot, build a cycle on the remaining vertices.

    exact: shortest all-vertex cycle, then skip the pivot (its neighbours
    join directly; the triangle inequality means no length increase).
    christofides: 1.5-ratio cycle built directly on the non-pivot vertices.
    tour_file: a supplied all-vertex tour, which must be a shortest cycle;
    it is checked against Held-Karp when n <= HELD_KARP_CAP and trusted
    beyond, then the pivot is skipped as in exact mode.
    """
    if D.n % 2 != 0 or D.n < 4:
        raise TspError(f"need an even vertex count >= 4, got {D.n}")
    pivot = select_pivot(D)
    matching_exact: Optional[bool] = None
    full: Optional[Tour] = None
    if mode == "exact":
        full = held_karp(D)
    elif mode == "christofides":
        res = christofides(D, [v for v in range(D.n) if v != pivot])
        cycle, matching_exact = res.tour, res.matching_exact
    elif mode == "tour_file":
        if tour is None:
            raise TspError("tour_file mode needs a tour")
        if sorted(tour) != list(range(D.n)):
            raise TspError(f"supplied tour must be a permutation of 0..{D.n - 1}")
        full = Tour.from_vertices(D, tour)
        if D.n <= HELD_KARP_CAP and full.length > (tau := held_karp(D).length):
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
