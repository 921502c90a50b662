from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    cycle_length,
)

from independent import (
    all_cycles_min,
    coprime_big,
    per_mask_held_karp,
    per_mask_matching_dp,
    thirds_and_sevenths,
)


def uniform_matrix(n, c):
    return DistanceMatrix.from_rows(
        [[0 if i == j else c for j in range(n)] for i in range(n)]
    )


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


def test_held_karp_size_limits(line4):
    with pytest.raises(TspError):
        held_karp(line4, vertex_set=[0, 1])
    with pytest.raises(TspError):
        held_karp(random_euclidean_instance(6, 0), cap=5)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(5, 9),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([50.0, 1000.0]),  # a small box makes ties common
    rational=st.booleans(),
)
def test_held_karp_equals_brute_force(n, seed, box, rational):
    D = random_euclidean_instance(n, seed, box=box)
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
    # a 21-vertex table is past the memory budget whatever cap is passed;
    # the check must come before any allocation
    def no_alloc(*args, **kwargs):
        raise AssertionError("held_karp allocated a table past its cap")

    monkeypatch.setattr(uttp.tsp.np, "full", no_alloc)
    with pytest.raises(TspError, match=f"cap of {HELD_KARP_CAP}"):
        held_karp(random_euclidean_instance(21, 0), cap=30)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 12),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    box=st.sampled_from([20.0, 50.0, 1000.0]),  # ties are common at 20
    numbers=st.sampled_from(["int64", "quarter", "scaled", "coprime"]),
    data=st.data(),
)
def test_held_karp_matches_per_mask_oracle(k, extra, seed, box, numbers, data):
    D = random_euclidean_instance(k + extra, seed, box=box)
    if numbers == "quarter":  # rational twin: an int64 image
        D = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
    elif numbers == "scaled":  # past the int64 bound until the GCD divides the shift out
        D = DistanceMatrix.from_rows([[x << 58 for x in row] for row in D.d])
    elif numbers == "coprime":  # no common factor: the DP itself runs on Python ints
        D = DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in D.d])
    assert (D.array.dtype == object) == (numbers == "coprime")
    verts = sorted(data.draw(st.permutations(range(k + extra)))[:k])
    tour = held_karp(D, vertex_set=verts)
    oracle = Tour.from_vertices(D, per_mask_held_karp(D, verts))
    assert tour.vertices == oracle.vertices
    assert tour.length == oracle.length


@pytest.mark.parametrize("k", [13, 14, 15, 16])
def test_held_karp_matches_per_mask_oracle_past_the_property_sizes(k):
    # a tie-heavy box; the quarter-unit twin must break every tie as the
    # oracle does on the integers (the oracle itself is too slow on Fractions)
    D = random_euclidean_instance(k, k, box=20.0)
    Q = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
    oracle = Tour.from_vertices(D, per_mask_held_karp(D, list(range(k))))
    tour, twin = held_karp(D), held_karp(Q)
    assert tour == oracle
    assert twin.vertices == oracle.vertices and twin.length == Fraction(oracle.length, 4)


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
    D = random_euclidean_instance(k + extra, seed, box=box)
    if numbers == "quarter":
        D = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in D.d])
    elif numbers == "scaled":
        D = DistanceMatrix.from_rows([[x << 58 for x in row] for row in D.d])
    elif numbers == "coprime":
        D = DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in D.d])
    verts = sorted(data.draw(st.permutations(range(k + extra)))[:k])
    m = min_weight_perfect_matching(D, verts)
    pairs, weight = per_mask_matching_dp(D, verts)
    assert m.exact and m.pairs == pairs
    assert m.weight == weight and type(m.weight) is type(weight)


def test_matching_dp_matches_oracle_at_the_cutoff():
    D = random_euclidean_instance(MATCHING_EXACT_MAX + 2, 4, box=30.0)
    verts = list(range(1, MATCHING_EXACT_MAX + 1))
    m = min_weight_perfect_matching(D, verts)
    assert m.exact and (m.pairs, m.weight) == per_mask_matching_dp(D, verts)


def test_matching_rejects_odd(line4):
    with pytest.raises(TspError):
        min_weight_perfect_matching(line4, [0, 1, 2])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matching_greedy_never_beats_dp(seed):
    D = random_euclidean_instance(10, seed)
    exact = min_weight_perfect_matching(D, range(10))
    assert exact.exact
    assert _matching_greedy_swap(D, list(range(10)))[1] >= exact.weight
    assert min_weight_perfect_matching(random_euclidean_instance(18, seed), range(18)).exact is False


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


def test_tour_file_checked_up_to_cap(nl4):
    # (0,1,2,3) has length 2134, above nl4's shortest cycle 2011
    with pytest.raises(TspError, match="longer than the shortest cycle"):
        build_pivoted_cycle(nl4, mode="tour_file", tour=(0, 1, 2, 3))
    pc = build_pivoted_cycle(nl4, mode="tour_file", tour=(0, 1, 2, 3), cap=3)
    assert pc.full_tour.length == 2134


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
