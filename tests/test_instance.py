from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttp import (
    DistanceMatrix,
    InstanceError,
    held_karp,
    parse_distance_matrix,
    random_euclidean_instance,
    render_distance_matrix,
    validate_metric,
)


def test_parse_smallest_symmetric():
    D = parse_distance_matrix("0 1\n1 0")
    assert D.n == 2
    assert D.d[0][1] == 1
    assert D.metric


def test_parse_nl4_shortest_tour(nl4):
    assert nl4.n == 4
    assert nl4.metric
    assert 4 * held_karp(nl4).length == 8044


def test_parse_triangle_violation():
    D = parse_distance_matrix("0 1 1\n1 0 3\n1 3 0")
    assert not D.metric
    violations = validate_metric(D)
    assert [(v.i, v.j, v.k, v.deficit) for v in violations] == [(1, 0, 2, 1)]


def test_parse_leading_n_form(nl4):
    text = "4\n" + render_distance_matrix(nl4)
    assert parse_distance_matrix(text) == nl4


def test_parse_fractional_tokens():
    D = parse_distance_matrix("0 1.5\n1.5 0")
    assert D.d[0][1] == Fraction(3, 2)
    assert not D.integral


def test_parse_mixed_tokens_all_fractions():
    D = parse_distance_matrix("0 1.5 2\n1.5 0 1\n2 1 0")
    assert all(type(x) is Fraction for row in D.d for x in row)
    assert D.d[0][2] == 2
    assert not D.integral


@pytest.mark.parametrize(
    "text",
    [
        "0 1 1 0 0",  # neither n*n nor 1+n*n
        "3\n0 1 1 0",  # leading token disagrees with size
        "0 -1\n-1 0",  # negative distance
        "1 0\n0 1",  # nonzero diagonal
        "0 1\n2 0",  # asymmetric
        "",  # empty
        "0 x\nx 0",  # non-numeric
    ],
)
def test_parse_rejects(text):
    with pytest.raises(InstanceError):
        parse_distance_matrix(text)


def test_validate_metric_zero_matrix(zeros4):
    assert validate_metric(zeros4) == []
    assert zeros4.metric


def test_validate_metric_euclidean_instances():
    for seed in range(5):
        D = random_euclidean_instance(6, seed)
        assert validate_metric(D) == []


def test_generator_deterministic():
    a = random_euclidean_instance(4, seed=1)
    b = random_euclidean_instance(4, seed=1)
    assert a == b


def test_generator_other_seed_still_valid():
    D = random_euclidean_instance(4, seed=2)
    assert D.n == 4
    assert D.metric
    assert D.integral


def test_generator_rejects_tiny():
    with pytest.raises(InstanceError):
        random_euclidean_instance(2, seed=0)


@pytest.mark.parametrize("box", [float("nan"), float("inf"), float("-inf"), 1.7e308])
def test_generator_rejects_non_finite_box(box):
    with pytest.raises(InstanceError, match="finite"):
        random_euclidean_instance(30, seed=1, box=box)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
def test_render_parse_round_trip(n, seed):
    D = random_euclidean_instance(n, seed)
    assert parse_distance_matrix(render_distance_matrix(D)) == D
    assert parse_distance_matrix(f"{D.n}\n" + render_distance_matrix(D)) == D


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
def test_generated_matrix_invariants(n, seed):
    D = random_euclidean_instance(n, seed)
    for i in range(n):
        assert D.d[i][i] == 0
        for j in range(n):
            assert D.d[i][j] == D.d[j][i]
            assert D.d[i][j] >= 0
    assert validate_metric(D) == []


def test_fraction_round_trip():
    rows = [[0, Fraction(1, 3), 1], [Fraction(1, 3), 0, Fraction(5, 4)], [1, Fraction(5, 4), 0]]
    D = DistanceMatrix.from_rows(rows)
    assert parse_distance_matrix(render_distance_matrix(D)) == D
