import dataclasses
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
    MetricViolation,
    held_karp,
    parse_distance_matrix,
    random_euclidean_instance,
    render_distance_matrix,
    solve,
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
@given(
    n=st.integers(3, 10),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["int64", "tenths", "coprime_big"]),
)
def test_render_parse_round_trip(n, seed, kind):
    rows = random_euclidean_instance(n, seed).d
    if kind == "tenths":
        rows = [[Fraction(x, 10) for x in row] for row in rows]
    elif kind == "coprime_big":
        rows = [[coprime_big(x) for x in row] for row in rows]
    D = DistanceMatrix.from_rows(rows)
    for text in (render_distance_matrix(D), f"{D.n}\n" + render_distance_matrix(D)):
        E = parse_distance_matrix(text)
        assert E == D and hash(E) == hash(D)
        assert E.d == tuple(map(tuple, rows))
        assert [type(x) for row in E.d for x in row] == [type(x) for row in rows for x in row]


def test_equality_and_hash_are_by_value():
    rows = random_euclidean_instance(6, 2).d
    ints = DistanceMatrix.from_rows(rows)
    # integral-valued Fractions: an image divided by the entries' GCD, and a
    # Fraction unit, yet the same values
    fracs = DistanceMatrix.from_rows([[Fraction(2 * x) for x in row] for row in rows])
    doubled = DistanceMatrix.from_rows([[2 * x for x in row] for row in rows])
    assert fracs.array.tolist() != doubled.array.tolist()
    assert fracs == doubled and hash(fracs) == hash(doubled)
    assert len({ints, DistanceMatrix.from_rows(rows), doubled, fracs}) == 2
    quarter = DistanceMatrix.from_rows([[Fraction(x, 4) for x in row] for row in rows])
    assert quarter != ints and quarter.array.tolist() == ints.array.tolist()
    assert ints != rows and ints != ints.d


def test_d_is_derived_from_the_image():
    D = random_euclidean_instance(5, 1)
    assert [f.name for f in dataclasses.fields(D)] == ["n", "metric", "array", "unit"]
    assert "d" not in vars(D)
    assert D.d is D.d and "d" in vars(D)  # built on first read, then kept


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


def test_from_rows_reads_other_number_types_exactly():
    # numpy ints past 2^61 would wrap in the image's int64 bound test; they
    # are read as Python ints, and floats as exact Fractions
    big = np.int64(1 << 61)
    D = DistanceMatrix.from_rows([[np.int64(0), big], [big, np.int64(0)]])
    assert D.d == ((0, 1 << 61), (1 << 61, 0)) and type(D.d[0][1]) is int
    D = DistanceMatrix.from_rows([[0, 1.5], [1.5, 0.0]])
    assert D.d == ((0, Fraction(3, 2)), (Fraction(3, 2), 0)) and type(D.d[0][0]) is Fraction


def typed(value):
    """``value`` with the type of every number in it, through dataclasses
    and tuples: a solve report, its certificate and its candidates."""
    if dataclasses.is_dataclass(value):
        return [(f.name, typed(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [typed(x) for x in value]
    return value, type(value)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_numpy_integer_rows_read_as_ints(dtype):
    rows = random_euclidean_instance(8, 3).d
    D = DistanceMatrix.from_rows(np.array(rows, dtype=dtype))
    assert D == DistanceMatrix.from_rows(rows)
    assert D.unit == 1 and type(D.unit) is int and all(type(x) is int for x in D.d[0])
    (mine, _), (theirs, _) = (solve(E, keep_candidates=True) for E in (D, DistanceMatrix.from_rows(rows)))
    assert type(mine.total_distance) is int
    assert typed(mine) == typed(theirs)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), None])
def test_from_rows_rejects_non_finite_or_non_numeric_entries(bad):
    rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    rows[1][2] = bad
    with pytest.raises(InstanceError, match=rf"not a finite number at \(1,2\): {bad!r}"):
        DistanceMatrix.from_rows(rows)


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
    # rows[i][j] == array[i, j] * unit, with unit of the rows' number type;
    # the image is int64 unless its coprime entries are past the int64 bound
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
        scaled = [[x * D.unit for x in row] for row in image]
        assert scaled == [list(row) for row in rows], kind
        assert [type(x) for row in scaled for x in row] == [type(x) for row in rows for x in row]
        assert D.d == tuple(map(tuple, rows))
        assert [type(x) for row in D.d for x in row] == [type(x) for row in rows for x in row]
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
    rows = _in_kind(rows, kind)
    D = DistanceMatrix.from_rows(rows)
    if kind != "coprime":  # coprime entries may still share a factor, e.g. when all equal
        assert D.array.dtype == np.int64
    assert D.metric == (not triple_loop_violations(rows, cap=len(rows) ** 3))
    for m in range(0, 26):
        got = [(v.i, v.j, v.k, v.deficit) for v in validate_metric(D, max_violations=m)]
        want = triple_loop_violations(rows, m)
        assert got == want
        assert [type(v[3]) for v in got] == [type(v[3]) for v in want]


def test_validate_metric_cap():
    D = DistanceMatrix.from_rows([[0, 1, 5, 1], [1, 0, 1, 1], [5, 1, 0, 1], [1, 1, 1, 0]])
    assert validate_metric(D, max_violations=1) == [MetricViolation(0, 1, 2, 3)]
    assert validate_metric(D, max_violations=0) == []
    with pytest.raises(ValueError, match="max_violations"):
        validate_metric(D, max_violations=-3)


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
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert D.metric
    assert peak < 32 * 2**20
    # the image is the one stored form: a second copy of the entries as
    # Python ints would be another 2.7 MB
    assert retained < 1.5 * D.array.nbytes
