import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uttp import (
    DistanceMatrix,
    TspError,
    brute_force_tsp,
    build_pivoted_cycle,
    christofides,
    held_karp,
    min_weight_perfect_matching,
    parse_tour_file,
    random_euclidean_instance,
    select_pivot,
)
import uttp.tsp
from uttp.tsp import (
    HELD_KARP_CAP,
    MATCHING_EXACT_MAX,
    Tour,
    _matching_greedy_swap,
    _min_plus,
    _prim_mst,
    cycle_length,
)

from independent import (
    all_cycles_min,
    coprime_big,
    cycle_len,
    dict_prim_mst,
    per_mask_held_karp,
    per_mask_matching_dp,
    rescan_greedy_swap,
    thirds_and_sevenths,
)


def wide_twin(rows, shift):
    """Each off-diagonal entry x as ``(x << shift) + 1``: every cycle has as
    many edges as vertices, so tours and ties are those of ``rows``."""
    return [
        [0 if i == j else (x << shift) + 1 for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def uniform_matrix(n, c):
    return DistanceMatrix.from_rows(
        [[0 if i == j else c for j in range(n)] for i in range(n)]
    )


def held_karp_route(D, vertex_set=None):
    """``held_karp``'s tour and the route it took: "half" when the DP
    filled its layers only up to the sets of ceil(k/2) vertices, "full"
    when up to the full set. Each filled layer but the last is consumed
    once, block by block, by ``_min_plus``; the sets it counts start at
    the one-vertex sets, column 1."""
    consumed = []

    def counted(src, step):
        consumed.append(src.shape[1])
        return _min_plus(src, step)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uttp.tsp, "_min_plus", counted)
        tour = held_karp(D, vertex_set)
    k = len(tour.vertices)
    _, start = uttp.tsp._popcount_order(k - 1)
    routes = {start[(k + 1) // 2] - 1: "half", start[k - 1] - 1: "full"}
    return tour, routes[sum(consumed)]


# --- pivot selection ---


def test_pivot_full_tie_breaks_low():
    assert select_pivot(uniform_matrix(5, 7)) == 0


def test_pivot_line_metric(line4):
    # row sums 6,4,4,6: tie between 1 and 2 broken low
    assert select_pivot(line4) == 1


def test_pivot_nl4_matches_row_sum_argmin(nl4):
    sums = [sum(nl4.d[v][u] for u in range(nl4.n) if u != v) for v in range(nl4.n)]
    expected = min(range(nl4.n), key=lambda v: (sums[v], v))
    assert select_pivot(nl4) == expected == 2


# --- exact tours ---


def test_held_karp_triangle():
    assert held_karp(uniform_matrix(3, 1)).length == 3


def test_held_karp_line(line4):
    assert held_karp(line4).length == 6


def test_held_karp_nl4(nl4):
    tour = held_karp(nl4)
    assert tour.length == 2011
    assert cycle_length(nl4, tour.vertices) == tour.length


@pytest.mark.parametrize("seq", [[0, 1, 2, -1], [0, 1, 2, 4]])
def test_tour_vertices_must_be_in_range(nl4, seq):
    # -1 must not wrap around to vertex 3, nor 4 raise a bare IndexError
    with pytest.raises(TspError, match=r"out of range 0\.\.3"):
        Tour.from_vertices(nl4, seq)


def test_held_karp_size_limits(line4, line22):
    with pytest.raises(TspError):
        held_karp(line4, vertex_set=[0, 1])
    with pytest.raises(TspError, match=f"21 vertices exceeds the exact-DP cap of {HELD_KARP_CAP}"):
        held_karp(line22, vertex_set=range(21))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 9),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([5.0, 50.0, 1000.0]),  # a small box makes ties common
    rational=st.booleans(),
)
def test_held_karp_equals_brute_force(n, seed, box, rational):
    # of all shortest cycles both return the lexicographically smallest
    # vertex sequence from the lowest vertex; the brute force shares no DP code
    D = random_euclidean_instance(n, seed, box=box)
    assert held_karp(D).vertices == brute_force_tsp(D).vertices
    assert held_karp(D).length == brute_force_tsp(D).length
    if rational:
        # the quarter-unit twin runs on exact Fractions and must break every
        # tie exactly as the integer instance does
        Q = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
        for tour_of in (held_karp, brute_force_tsp):
            tour, twin = tour_of(D), tour_of(Q)
            assert twin.vertices == tour.vertices
            assert twin.length == Fraction(tour.length, 4)


def test_held_karp_cap_cannot_be_raised(monkeypatch):
    # a 21-vertex table is past the memory budget, and no argument moves the
    # limit; the check must come before any allocation
    def no_alloc(*args, **kwargs):
        raise AssertionError("held_karp allocated a table past its cap")

    monkeypatch.setattr(uttp.tsp.np, "full", no_alloc)
    D = random_euclidean_instance(21, 0)
    with pytest.raises(TspError, match=f"cap of {HELD_KARP_CAP}"):
        held_karp(D)
    with pytest.raises(TypeError):
        held_karp(D, cap=30)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 12),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([20.0, 50.0, 1000.0]),  # ties are common at 20
    numbers=st.sampled_from(["int64", "quarter", "scaled", "wide", "coprime"]),
    pick=st.randoms(),
)
# the triangle 2, 5, 5: its coprime_big entries share the factor 3, and the
# image divided by it is still past the int64 bound
@example(k=3, extra=0, seed=2024, box=20.0, numbers="coprime", pick=random.Random(0))
def test_held_karp_matches_per_mask_oracle(k, extra, seed, box, numbers, pick):
    D = random_euclidean_instance(k + extra, seed, box=box)
    if numbers == "quarter":  # rational twin: an int64 image
        D = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
    elif numbers == "wide":  # an int64 image past the int32 table
        D = DistanceMatrix.from_rows(wide_twin(D.d, 32))
    elif numbers == "scaled":  # past the int64 bound until the GCD divides the shift out
        D = DistanceMatrix.from_rows([[x << 58 for x in row] for row in D.d])
    elif numbers == "coprime":  # past the int64 bound: Python ints unless they share a factor
        D = DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in D.d])
    # the image's rule: entries over their GCD stay Python ints when they
    # are past the int64 bound, as only coprime_big entries can be
    n, big = k + extra, False
    if numbers == "coprime":
        entries = list(chain.from_iterable(D.d))
        big = 2 * n * n * (max(entries) // math.gcd(*entries)) >= 1 << 62
    assert (D.array.dtype == object) == big
    verts = sorted(pick.sample(range(n), k))
    tour = held_karp(D, vertex_set=verts)
    oracle = Tour.from_vertices(D, per_mask_held_karp(D, verts))
    assert tour.vertices == oracle.vertices
    assert tour.length == oracle.length


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(4, 8),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([5.0, 20.0, 1000.0]),  # ties are common at 5 and 20
)
def test_held_karp_half_route_exactly_on_a_unique_shortest_cycle(k, seed, box):
    # the half table gives the tour only when one cycle (two directed ones
    # from vertex 0) is shortest, counted here over every permutation
    D = random_euclidean_instance(k, seed, box=box)
    lengths = [cycle_len(D.d, (0, *rest)) for rest in itertools.permutations(range(1, k))]
    tour, route = held_karp_route(D)
    assert route == ("half" if lengths.count(min(lengths)) == 2 else "full")
    assert tour == brute_force_tsp(D)


@pytest.mark.parametrize("k", [13, 14, 15, 16])
def test_held_karp_routes_at_even_and_odd_k(k):
    # a random instance has one shortest cycle and stops at the half
    # table; a uniform matrix, where every cycle is shortest, and a
    # tie-heavy box go on to the full set. Every tour is the per-mask DP's
    unique = random_euclidean_instance(k, 1)
    tied = (uniform_matrix(k, 7), random_euclidean_instance(k, 16, box=20.0))
    for D, want in ((unique, "half"), (tied[0], "full"), (tied[1], "full")):
        tour, route = held_karp_route(D)
        assert route == want
        assert tour == Tour.from_vertices(D, per_mask_held_karp(D, list(range(k))))


@pytest.mark.parametrize("k", [13, 14, 15, 16])
def test_held_karp_matches_per_mask_oracle_past_the_property_sizes(k, monkeypatch):
    # a tie-heavy box, which mostly takes the full route, and a wide one,
    # which mostly stops at the half table; the quarter-unit twin and the
    # wide twin (an int64 table) must break every tie as the oracle does on
    # the integers (the oracle itself is too slow on Fractions), on the
    # kept addressing and on the one built on every call past HK_KEEP_MAX
    keeps = (uttp.tsp.HK_KEEP_MAX, 2)
    for box in (20.0, 1000.0):
        D = random_euclidean_instance(k, k, box=box)
        Q = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
        W = DistanceMatrix.from_rows(wide_twin(D.d, 32))
        oracle = Tour.from_vertices(D, per_mask_held_karp(D, list(range(k))))
        for keep in keeps:
            monkeypatch.setattr(uttp.tsp, "HK_KEEP_MAX", keep)
            tour, twin, wide = held_karp(D), held_karp(Q), held_karp(W)
            assert tour == oracle, box
            assert twin.vertices == oracle.vertices and twin.length == Fraction(oracle.length, 4)
            assert wide.vertices == oracle.vertices and wide.length == (oracle.length << 32) + k


def test_held_karp_reuses_each_size_addressing():
    # one process, sizes in an order that returns to k=16 after smaller
    # tables, on int32, int64 and object tables: every call must read the
    # addressing kept for its own k, blocks and meet, with no trace of an
    # earlier call. 15 after 14 and 16 catches a plan kept under a
    # neighbouring size's key. Box 20 mostly takes the full route, box 1000
    # the half one, so each of k = 14, 15 and 16 reads its meet and blocks
    routes = set()
    for seed, (k, numbers, box) in enumerate(
        [(16, "int64", 20.0), (14, "wide", 20.0), (15, "int64", 20.0),
         (16, "coprime", 20.0), (12, "coprime", 20.0), (16, "wide", 20.0),
         (14, "int64", 1000.0), (14, "wide", 20.0), (15, "wide", 1000.0),
         (13, "coprime", 1000.0), (16, "int64", 1000.0), (14, "wide", 1000.0)]
    ):
        D = random_euclidean_instance(k, seed, box=box)
        if numbers == "wide":
            D = DistanceMatrix.from_rows(wide_twin(D.d, 32))
        elif numbers == "coprime":
            D = DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in D.d])
        oracle = Tour.from_vertices(D, per_mask_held_karp(D, list(range(k))))
        tour, route = held_karp_route(D)
        assert tour == oracle, (k, numbers, box)
        routes.add((k, route))
    assert {(k, route) for k in (14, 15, 16) for route in ("half", "full")} <= routes


def test_held_karp_kept_arrays_are_read_only():
    # the kept addressing and popcount order are shared by every later call
    held_karp(random_euclidean_instance(14, 1))
    column, meet, blocks = uttp.tsp._hk_kept_plan(14)
    order, start = uttp.tsp._popcount_order(13)
    for kept in (column, meet, blocks[0][2], blocks[-1][2], order, start):
        with pytest.raises(ValueError):
            kept[(0,) * kept.ndim] = 1


def test_held_karp_later_call_allocates_only_its_table():
    # k=16: a (15, 2^15 + 1) int32 table of 2.0 MB. The first call keeps the
    # 2.0 MB addressing; a later one allocates the table and its block
    # temporaries only, where rebuilding the addressing would reach 2x
    k = 16
    held_karp(random_euclidean_instance(k, 1))
    D = random_euclidean_instance(k, 2)
    table = (k - 1) * ((1 << (k - 1)) + 1) * 4
    tracemalloc.start()
    try:
        tour = held_karp(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tour.vertices) == k
    assert peak < 1.5 * table


@pytest.mark.parametrize("k", [6, 10])
@pytest.mark.parametrize("past", [0, 1])
def test_held_karp_table_dtype_boundary(k, past):
    # the table is int32 while its sentinel k * max + 1 plus one step of max
    # stays below 2^31; 2^31 - 2 is a multiple of k + 1, so max = (2^31 - 2)
    # / (k + 1) puts that sum at 2^31 - 1, and one more puts it past 2^31.
    # Every entry is within 30 of max, so an int32 sum past the bound would wrap
    top = ((1 << 31) - 2) // (k + 1) + past
    assert (k + 1) * top + 1 == (1 << 31) - 1 + past * (k + 1)
    near = random_euclidean_instance(k, k, box=20.0).d
    low = min(x for row in near for x in row if x)
    D = DistanceMatrix.from_rows(
        [[0 if i == j else top - x + low for j, x in enumerate(row)]
         for i, row in enumerate(near)]
    )
    assert D.array.max() == top and D.array.dtype == np.int64
    oracle = Tour.from_vertices(D, per_mask_held_karp(D, list(range(k))))
    assert held_karp(D) == oracle


def test_held_karp_memory_is_the_int32_table():
    # k=18 in int32: a (17, 2^17 + 1) table of 8.9 MB and no parent table.
    # Twice that leaves room for the index arrays and block temporaries, and
    # an int64 table alone would not fit
    k = 18
    D = random_euclidean_instance(k, 1)
    table = (k - 1) * ((1 << (k - 1)) + 1) * 4
    tracemalloc.start()
    try:
        tour = held_karp(D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tour.vertices) == k
    assert peak < 2 * table


def test_mixed_denominators_take_the_tour_of_their_integer_twin():
    rows = random_euclidean_instance(12, 5, box=20.0).d
    twin, D = map(DistanceMatrix.from_rows, thirds_and_sevenths(rows))
    assert held_karp(D).vertices == held_karp(twin).vertices
    assert held_karp(D).length == Fraction(held_karp(twin).length, 21)


def test_held_karp_fraction_matrix():
    rows = [
        [0, Fraction(1, 2), 2, 1],
        [Fraction(1, 2), 0, 1, 2],
        [2, 1, 0, Fraction(3, 2)],
        [1, 2, Fraction(3, 2), 0],
    ]
    D = DistanceMatrix.from_rows(rows)
    assert held_karp(D).length == brute_force_tsp(D).length


def test_held_karp_on_subset(nl4):
    tour = held_karp(nl4, vertex_set=[0, 1, 3])
    assert set(tour.vertices) == {0, 1, 3}
    assert tour.length == nl4.d[0][1] + nl4.d[1][3] + nl4.d[3][0]


# --- matching ---


def test_matching_two_vertices(line4):
    m = min_weight_perfect_matching(line4, [1, 3])
    assert m.pairs == ((1, 3),)
    assert m.weight == 2
    assert m.exact


def test_matching_collinear(line4):
    m = min_weight_perfect_matching(line4, [0, 1, 2, 3])
    assert m.pairs == ((0, 1), (2, 3))
    assert m.weight == 2


def image_twin(D, numbers):
    """D itself, its one-decimal or quarter twin (an int64 image over a
    Fraction unit), its entries times 2^58 (an int64 image over an int
    unit) or its coprime_big twin (an object image); each orders single
    edges, and sums over equally many edges, as D does."""
    if numbers in ("tenths", "quarter"):
        den = 10 if numbers == "tenths" else 4
        return DistanceMatrix.from_rows([[Fraction(x, den) for x in row] for row in D.d])
    if numbers == "scaled":
        return DistanceMatrix.from_rows([[x << 58 for x in row] for row in D.d])
    if numbers == "coprime":
        return DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in D.d])
    return D


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(0, 6),
    extra=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([10.0, 30.0, 1000.0]),  # ties are common at 10
    numbers=st.sampled_from(["int64", "quarter", "scaled", "coprime"]),
    data=st.data(),
)
def test_matching_dp_matches_per_mask_oracle(half, extra, seed, box, numbers, data):
    k = 2 * half
    D = image_twin(random_euclidean_instance(k + extra, seed, box=box), numbers)
    verts = sorted(data.draw(st.permutations(range(k + extra)))[:k])
    m = min_weight_perfect_matching(D, verts)
    pairs, weight = per_mask_matching_dp(D, verts)
    assert m.exact and m.pairs == pairs
    assert m.weight == weight and type(m.weight) is type(weight)


@pytest.mark.parametrize("numbers", ["int64", "quarter", "scaled", "coprime"])
@pytest.mark.parametrize("box", [3.0, 30.0])  # nearly every weight ties at 3
@pytest.mark.parametrize("k", [MATCHING_EXACT_MAX - 2, MATCHING_EXACT_MAX])
def test_matching_dp_matches_oracle_at_the_cutoff(k, box, numbers):
    D = image_twin(random_euclidean_instance(k + 2, 4, box=box), numbers)
    assert D.array.dtype == (object if numbers == "coprime" else np.int64)
    verts = list(range(1, k + 1))
    m = min_weight_perfect_matching(D, verts)
    pairs, weight = per_mask_matching_dp(D, verts)
    assert m.exact and m.pairs == pairs
    assert m.weight == weight and type(m.weight) is type(weight)


def test_matching_rejects_odd(line4):
    with pytest.raises(TspError):
        min_weight_perfect_matching(line4, [0, 1, 2])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matching_greedy_never_beats_dp(seed):
    D = random_euclidean_instance(10, seed)
    exact = min_weight_perfect_matching(D, range(10))
    assert exact.exact
    assert sum(D.d[a][b] for a, b in _matching_greedy_swap(D.array)) >= exact.weight
    assert min_weight_perfect_matching(random_euclidean_instance(18, seed), range(18)).exact is False


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(1, 30),
    extra=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([5.0, 1000.0]),  # nearly every weight ties at 5
    numbers=st.sampled_from(["int64", "tenths", "coprime"]),
    data=st.data(),
)
def test_mst_and_greedy_matching_match_their_oracles(half, extra, seed, box, numbers, data):
    k = 2 * half
    D = image_twin(random_euclidean_instance(k + extra, seed, box=box), numbers)
    # a few coprime entries can share a factor, which the image divides out
    assert numbers == "coprime" or D.array.dtype == np.int64
    verts = sorted(data.draw(st.permutations(range(k + extra)))[:k])
    w = D.array[np.ix_(verts, verts)]
    assert [(verts[i], verts[j]) for i, j in _prim_mst(w)] == dict_prim_mst(D, verts)
    pairs = tuple((verts[i], verts[j]) for i, j in _matching_greedy_swap(w))
    assert (pairs, sum(D.d[a][b] for a, b in pairs)) == rescan_greedy_swap(D, verts)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [40, 50, 60])
def test_christofides_twins_take_the_integer_tour(n, seed):
    # past 16 odd MST vertices, so the greedy matching runs on the rational
    # twin's int64 image and on the coprime twin's object image
    D = random_euclidean_instance(n, seed)
    res = christofides(D)
    assert not res.matching_exact
    T, C = image_twin(D, "tenths"), image_twin(D, "coprime")
    assert T.array.dtype == np.int64 and C.array.dtype == object
    tenths, coprime = christofides(T), christofides(C)
    assert tenths.tour.vertices == coprime.tour.vertices == res.tour.vertices
    assert tenths.tour.length == Fraction(res.tour.length, 10)
    assert coprime.tour.length == (res.tour.length << 58) + n
    assert not tenths.matching_exact and not coprime.matching_exact


# --- christofides ---


def test_christofides_uniform_distances():
    res = christofides(uniform_matrix(7, 3))
    assert res.tour.length == 7 * 3
    assert res.matching_exact


def test_christofides_collinear(line4):
    # exhaustively: the 3 distinct cycles have lengths 6, 8, 6
    dist = [list(row) for row in line4.d]
    assert all_cycles_min(dist, range(4)) == 6
    assert christofides(line4).tour.length == 6


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 10), seed=st.integers(0, 2**32 - 1))
def test_christofides_within_ratio(n, seed):
    D = random_euclidean_instance(n, seed)
    res = christofides(D)
    assert res.matching_exact
    assert 2 * res.tour.length <= 3 * held_karp(D).length


def test_christofides_deterministic():
    D = random_euclidean_instance(9, 123)
    assert christofides(D) == christofides(D)


# --- pivoted cycle ---


def test_pivoted_cycle_zero_matrix(zeros4):
    pc = build_pivoted_cycle(zeros4)
    assert pc.cycle_length == 0
    assert len(pc.cycle) == 3


def test_pivoted_cycle_line_metric(line4):
    pc = build_pivoted_cycle(line4, mode="exact")
    assert pc.pivot == 1
    assert pc.cycle == (0, 2, 3)
    assert pc.cycle_length == 6
    assert pc.full_tour.length == 6


def test_pivoted_cycle_rejects_odd():
    D = random_euclidean_instance(5, 0)
    with pytest.raises(TspError):
        build_pivoted_cycle(D)


def test_tour_file_mode(nl4):
    pc = build_pivoted_cycle(nl4, mode="tour_file", tour=(0, 2, 1, 3))
    assert pc.pivot == 2
    assert set(pc.cycle) == {0, 1, 3}
    assert pc.full_tour.length == 2011


def test_tour_file_rejects_bad_permutations(nl4):
    with pytest.raises(TspError):
        build_pivoted_cycle(nl4, mode="tour_file", tour=(0, 1, 2, 2))
    with pytest.raises(TspError):
        parse_tour_file("0 1 2", 4)
    with pytest.raises(TspError):
        parse_tour_file("0 1 2 x", 4)


def test_tour_file_checked_up_to_cap(nl4, line22, monkeypatch):
    # (0,1,2,3) has length 2134, above nl4's shortest cycle 2011
    with pytest.raises(TspError, match=r"longer than the shortest cycle \(2011\)"):
        build_pivoted_cycle(nl4, mode="tour_file", tour=(0, 1, 2, 3))
    # the check runs up to the cap itself: 20 venues on a line, shortest 38
    line20 = DistanceMatrix.from_rows([[abs(i - j) for j in range(20)] for i in range(20)])
    with pytest.raises(TspError, match=r"length 40, longer than the shortest cycle \(38\)"):
        build_pivoted_cycle(line20, mode="tour_file", tour=(0, 2, 1, *range(3, 20)))
    # past the cap the tour is trusted without running the DP, even one
    # longer than line22's shortest cycle 42
    def no_dp(*args):
        raise AssertionError("Held-Karp ran past its cap")

    monkeypatch.setattr(uttp.tsp, "_held_karp", no_dp)
    pc = build_pivoted_cycle(line22, mode="tour_file", tour=(0, 2, 1, *range(3, 22)))
    assert pc.full_tour.length == 44


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**32 - 1))
def test_skipping_pivot_never_lengthens(n, seed):
    D = random_euclidean_instance(n, seed)
    tau = held_karp(D).length
    exact = build_pivoted_cycle(D, mode="exact")
    assert exact.cycle_length <= tau
    heur = build_pivoted_cycle(D, mode="christofides")
    assert 2 * heur.cycle_length <= 3 * tau


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**32 - 1))
def test_every_edge_at_most_half_shortest_cycle(n, seed):
    D = random_euclidean_instance(n, seed)
    tau = held_karp(D).length
    for i in range(n):
        for j in range(i + 1, n):
            assert 2 * D.d[i][j] <= tau


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 9), seed=st.integers(0, 2**32 - 1))
def test_tour_length_recomputes(n, seed):
    D = random_euclidean_instance(n, seed)
    for tour in (held_karp(D), christofides(D).tour, brute_force_tsp(D)):
        assert cycle_length(D, tour.vertices) == tour.length
        assert sorted(tour.vertices) == list(range(n))
