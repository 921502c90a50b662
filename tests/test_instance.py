import math
import tracemalloc
from fractions import Fraction

import numpy as np
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

from independent import coprime_big, first_entry_fault, thirds_and_sevenths, triple_loop_violations


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
    assert all(type(x) is Fraction for row in D.d for x in row)
    assert D.array.dtype == np.int64


def test_parse_mixed_tokens_all_fractions():
    D = parse_distance_matrix("0 1.5 2\n1.5 0 1\n2 1 0")
    assert all(type(x) is Fraction for row in D.d for x in row)
    assert D.d[0][2] == 2
    assert D.array.dtype == np.int64


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
    assert all(type(x) is int for row in D.d for x in row)
    assert D.array.dtype == np.int64


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
    # mixed ints and Fractions come out as Fractions throughout
    assert D.d == tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert all(type(x) is Fraction for row in D.d for x in row)
    assert parse_distance_matrix(render_distance_matrix(D)) == D


def test_load_one_decimal_file():
    base = random_euclidean_instance(12, 5)
    text = "".join(" ".join(f"{x // 10}.{x % 10}" for x in row) + "\n" for row in base.d)
    D = parse_distance_matrix(text)
    assert D.d == tuple(tuple(Fraction(x, 10) for x in row) for row in base.d)
    assert all(type(x) is Fraction for row in D.d for x in row)
    g = math.gcd(*base.array.flat)
    assert D.array.dtype == np.int64
    assert D.array.tolist() == (base.array // g).tolist()
    assert type(D.unit) is Fraction and D.unit == Fraction(g, 10)


def test_array_is_an_integer_image_of_d():
    # d[i][j] == array[i, j] * unit, with unit of d's number type; the image
    # is int64 unless its coprime entries are past the int64 bound
    base = random_euclidean_instance(8, 3)
    kinds = {
        "int64": base.d,
        "tenths": [[Fraction(x, 10) for x in row] for row in base.d],
        "thirds_and_sevenths": thirds_and_sevenths(base.d)[1],
        "scaled": [[x << 58 for x in row] for row in base.d],
        "coprime_big": [[coprime_big(x) for x in row] for row in base.d],
    }
    for kind, rows in kinds.items():
        D = DistanceMatrix.from_rows(rows)
        assert D.array.dtype == (object if kind == "coprime_big" else np.int64), kind
        assert type(D.unit) is (Fraction if kind in ("tenths", "thirds_and_sevenths") else int)
        assert D.unit > 0
        image = D.array.tolist()
        assert [[x * D.unit for x in row] for row in image] == [list(row) for row in D.d], kind
        assert [type(x * D.unit) for row in image for x in row] == [type(x) for row in D.d for x in row]
        if kind != "int64":
            assert math.gcd(*D.array.flat) == 1, kind
    D = DistanceMatrix.from_rows(base.d)
    assert D.unit == 1 and D.array.tolist() == [list(row) for row in base.d]


# Three numeric formats of input: integers, Fractions, and integers past the
# int64 bound; only the last, when its entries share no factor, leaves an
# object-dtype image.
KINDS = ("int64", "quarter", "scaled", "coprime")


def _in_kind(rows, kind):
    if kind == "quarter":
        return [[Fraction(x, 4) for x in row] for row in rows]
    if kind == "scaled":
        return [[x << 58 for x in row] for row in rows]
    if kind == "coprime":
        return [[coprime_big(x) for x in row] for row in rows]
    return rows


@st.composite
def symmetric_zero_diagonal(draw):
    """Small random distances: most such matrices break the triangle
    inequality many times over."""
    n = draw(st.integers(3, 9))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 30))
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=symmetric_zero_diagonal(), kind=st.sampled_from(KINDS))
def test_validate_metric_matches_triple_loop(rows, kind):
    D = DistanceMatrix.from_rows(_in_kind(rows, kind))
    if kind != "coprime":  # coprime entries may still share a factor, e.g. when all equal
        assert D.array.dtype == np.int64
    assert D.metric == (not triple_loop_violations(D.d, cap=len(rows) ** 3))
    for m in range(1, 26):
        got = [(v.i, v.j, v.k, v.deficit) for v in validate_metric(D, max_violations=m)]
        want = triple_loop_violations(D.d, m)
        assert got == want
        assert [type(v[3]) for v in got] == [type(v[3]) for v in want]


FAULTY = {
    "diagonal": [[0, 1, 2], [1, 3, 1], [2, 1, 0]],
    "negative": [[0, 1, -2], [1, 0, 1], [-2, 1, 0]],
    "asymmetric": [[0, 1, 2], [1, 0, 1], [2, 4, 0]],
    "asymmetric_before_diagonal": [[0, 1, 2], [5, 0, 1], [2, 1, 9]],
    "several": [[0, 1, 2, 3], [1, 0, -1, 1], [2, 4, 7, 1], [3, 1, 1, 0]],
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows", FAULTY.values(), ids=FAULTY.keys())
def test_entry_fault_message_matches_row_walk(rows, kind):
    rows = _in_kind(rows, kind)
    with pytest.raises(InstanceError) as exc:
        DistanceMatrix.from_rows(rows)
    assert str(exc.value) == first_entry_fault(rows)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-1, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    kind=st.sampled_from(KINDS),
)
def test_entry_check_matches_row_walk(rows, kind):
    rows = _in_kind(rows, kind)
    want = first_entry_fault(rows)
    if want is None:
        assert DistanceMatrix.from_rows(rows).n == len(rows)
    else:
        with pytest.raises(InstanceError) as exc:
            DistanceMatrix.from_rows(rows)
        assert str(exc.value) == want


def test_parse_n300_memory_stays_row_at_a_time():
    # one (n, n, n) int64 tensor would be 216 MB at n=300
    text = render_distance_matrix(random_euclidean_instance(300, 1))
    tracemalloc.start()
    try:
        D = parse_distance_matrix(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert D.metric
    assert peak < 32 * 2**20
