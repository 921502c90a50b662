from fractions import Fraction

import pytest

from uttp import (
    DistanceMatrix,
    brute_force_tsp,
    check_drr,
    evaluate_athome,
    exact_uttp,
    held_karp,
    random_euclidean_instance,
    solve,
)
from uttp.oracle import OracleError
from uttp.tsp import TspError

from conftest import benchmark
from independent import all_cycles_min


def test_exact_uttp_zero_matrix(zeros4):
    assert exact_uttp(zeros4).optimum == 0


def test_exact_uttp_nl4(nl4):
    res = exact_uttp(nl4)
    assert res.optimum == 8276
    assert res.explored > 0
    assert check_drr(res.schedule) == []
    _, total = evaluate_athome(res.schedule, tuple(range(4)), nl4)
    assert total == res.optimum


def test_exact_uttp_galaxy4():
    D = benchmark("galaxy4")
    assert exact_uttp(D).optimum == 416


def test_exact_uttp_rejects_other_sizes():
    with pytest.raises(OracleError):
        exact_uttp(random_euclidean_instance(6, 0))


@pytest.mark.parametrize("seed", range(6))
def test_oracle_brackets_solver(seed):
    D = random_euclidean_instance(4, seed + 500)
    res = exact_uttp(D)
    report, _ = solve(D, want_certificate=False)
    tau = held_karp(D).length
    assert 4 * tau <= res.optimum <= report.total_distance


@pytest.mark.parametrize("seed", range(4))
def test_exact_uttp_scales_with_the_input(seed):
    # the search runs on the integer image, so a scaled twin has the scaled
    # optimum, in the number type of its own entries, and the same schedule
    D = random_euclidean_instance(4, seed + 700)
    base = exact_uttp(D)
    assert type(base.optimum) is int
    for rows, scale in (
        ([[Fraction(x, 4) for x in row] for row in D.d], Fraction(1, 4)),
        ([[x << 58 for x in row] for row in D.d], 1 << 58),
    ):
        res = exact_uttp(DistanceMatrix.from_rows(rows))
        assert res.optimum == base.optimum * scale
        assert type(res.optimum) is type(rows[0][1])
        assert (res.schedule, res.explored) == (base.schedule, base.explored)


def test_brute_force_triangle():
    D = DistanceMatrix.from_rows([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    assert brute_force_tsp(D).length == 9


def test_brute_force_line(line4):
    tour = brute_force_tsp(line4)
    assert tour.length == 6
    dist = [list(r) for r in line4.d]
    assert all_cycles_min(dist, range(4)) == 6


def test_brute_force_equals_held_karp():
    D = random_euclidean_instance(8, 77)
    assert brute_force_tsp(D).length == held_karp(D).length


def test_brute_force_exact_past_int64(nl8):
    # every nonzero entry exceeds 2^63, so int64 cannot hold even one leg
    big = DistanceMatrix.from_rows([[x << 58 for x in row] for row in nl8.d])
    assert brute_force_tsp(big).length == held_karp(nl8).length << 58


def test_brute_force_size_limits():
    with pytest.raises(TspError):
        brute_force_tsp(random_euclidean_instance(11, 0))
    with pytest.raises(TspError):
        brute_force_tsp(random_euclidean_instance(4, 0), vertex_set=[0, 1])
