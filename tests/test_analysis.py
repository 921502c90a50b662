from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttp import (
    DistanceMatrix,
    certify,
    gap_percent,
    lower_bound,
    random_euclidean_instance,
    rotate,
    solve,
)
from uttp.analysis import render_gap
from uttp.solver import athome_table, evaluate_assumption_a, schedule_family, team_assignment
from uttp.tsp import build_pivoted_cycle, held_karp

from conftest import benchmark
from independent import coprime_big, fraction_certify, mean, number_kind, route_walk, rule_a_walk


def test_lower_bound_values(nl8, zeros4):
    assert lower_bound(nl8, held_karp(nl8).length) == 27840
    assert lower_bound(zeros4, 0) == 0


def test_lower_bound_nl10():
    D = benchmark("nl10")
    assert lower_bound(D, held_karp(D).length) == 38340


def test_lower_bound_galaxy8():
    D = benchmark("galaxy8")
    assert lower_bound(D, held_karp(D).length) == 1672


def test_gap_percent_table_values():
    assert render_gap(gap_percent(47930, 38340)) == "25.0"
    assert render_gap(gap_percent(8276, 8044)) == "2.9"
    assert gap_percent(12345, 12345) == 0
    assert gap_percent(5, 0) is None
    assert render_gap(None) == "n/a"
    assert gap_percent(47930, 38340) == (Fraction(47930, 38340) - 1) * 100


def test_certificate_all_pass_on_euclidean():
    D = random_euclidean_instance(8, 21)
    report, _ = solve(D)
    cert = report.certificate
    assert cert is not None
    assert cert.all_ok
    assert cert.check("edge_max").ok and cert.check("hamilton").ok
    assert cert.check("pair_sum").ok and cert.check("pivot_sum").ok
    assert cert.check("ratio").ok
    assert all(c.slack >= 0 for c in cert.checks)


def test_certificate_matches_naive_recomputation():
    D = random_euclidean_instance(8, 33)
    n = D.n
    report, _ = solve(D)
    cert = report.certificate
    tau = report.tau

    max_edge = max(D.d[i][j] for i in range(n) for j in range(n))
    assert cert.check("edge_max").lhs == 2 * max_edge
    assert cert.check("edge_max").ok == (2 * max_edge <= tau)

    pair_sum = sum(D.d[i][j] for i in range(n) for j in range(n))
    assert cert.check("pair_sum").lhs == 4 * pair_sum
    assert cert.check("pair_sum").ok == (4 * pair_sum <= n * n * tau)

    pc = build_pivoted_cycle(D)
    pivot_sum = sum(D.d[pc.pivot][v] for v in range(n) if v != pc.pivot)
    assert cert.check("pivot_sum").lhs == 4 * pivot_sum
    assert cert.check("pivot_sum").ok == (4 * pivot_sum <= n * tau)

    # rotation mean recomputed with the independent walker
    family = schedule_family(n)
    mapping = team_assignment(pc, 0, "forward")
    rotations = [rotate(family.base, m) for m in range(2 * n - 2)]
    totals = [route_walk(s.opp, s.home, mapping, D.d)[1] for s in rotations]
    avg = mean(totals)
    assert cert.check("avg_bound").lhs == avg
    rhs = (
        (n - 2) * Fraction(pc.cycle_length)
        + 2 * Fraction(pivot_sum)
        + Fraction(3, 2) * tau
        + Fraction(n, 2) * tau
        + Fraction(pair_sum, n - 1)
    )
    assert cert.check("avg_bound").rhs == rhs
    assert cert.check("best_le_avg").lhs == report.total_distance
    assert cert.check("best_le_avg").rhs == avg


def test_certificate_zero_matrix(zeros4):
    report, _ = solve(zeros4)
    cert = report.certificate
    assert cert.all_ok
    for c in cert.checks:
        assert c.lhs == 0
        assert c.rhs == 0


def test_non_metric_input_voids_guarantees():
    rows = [
        [0, 1, 1, 10],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [10, 1, 1, 0],
    ]
    D = DistanceMatrix.from_rows(rows)
    assert not D.metric
    report, _ = solve(D)
    assert not report.guarantees_valid
    assert report.certificate is not None  # failures are data, not errors


def test_certify_direct_call(nl4):
    pc = build_pivoted_cycle(nl4)
    family = schedule_family(4)
    cert = certify(
        nl4, pc, family, 2011, total=8276, ratio_bound=Fraction(9, 4)
    )
    assert cert.check("ratio").rhs == Fraction(9, 4) * 4 * 2011
    assert cert.check("hamilton").rhs == 4 * 2011
    assert cert.all_ok


def typed_checks(cert):
    return [(c.name, c.lhs, type(c.lhs), c.rhs, type(c.rhs)) for c in cert.checks]


def certify_against_oracle(D, mode):
    """Solve D, check its certificate against ``fraction_certify`` check by
    check in value and number type, and return the certificate and the
    canonical labeling's closed-route lengths walked on D.d."""
    report, _ = solve(D, mode=mode)
    pc = build_pivoted_cycle(D, mode=mode)
    family = schedule_family(D.n)
    want = fraction_certify(
        D, pc, family, report.tau, total=report.total_distance, ratio_bound=report.ratio_bound
    )
    assert typed_checks(report.certificate) == typed_checks(want)
    base = family.base
    l_a, _ = rule_a_walk(base.opp, base.home, team_assignment(pc, 0, "forward"), D.d)
    return report.certificate, l_a


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["int64", "quarter", "thirds", "coprime", "non-metric"]),
    mode=st.sampled_from(["exact", "christofides"]),
    half=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_certificate_matches_fraction_oracle(kind, mode, half, seed):
    n = 2 * half
    D = DistanceMatrix.from_rows(number_kind(kind, n, seed))
    cert, l_a = certify_against_oracle(D, mode)
    # a team's mean over the 2n-2 rotations is its closed route times
    # (1 - 1/(2n-2)) plus its row sum/(n-1), so team_avg's slack is the least
    # closed route over 2n-2, metric or not
    assert cert.check("team_avg").slack == Fraction(min(l_a), 2 * n - 2)


@pytest.mark.parametrize("numbers", ["int64", "tenths", "coprime"])
@pytest.mark.parametrize("n", [4, 10, 40])
def test_team_sums_over_rotations_are_closed_routes_plus_rows(n, numbers):
    # in image units, for every labeling: a team's athome travel summed over
    # the 2n-2 slot rotations is 2n-3 closed routes (assumption A's walk)
    # plus twice its venue's row sum, which ties the scan's legs to the walk
    rows = random_euclidean_instance(n, n).d
    if numbers == "tenths":
        rows = [[Fraction(x, 10) for x in row] for row in rows]
    elif numbers == "coprime":
        rows = [[coprime_big(x) for x in row] for row in rows]
    D = DistanceMatrix.from_rows(rows)
    assert D.array.dtype == (object if numbers == "coprime" else np.int64)
    pc = build_pivoted_cycle(D, mode="christofides")
    family = schedule_family(n)
    row = D.array.sum(axis=1).tolist()
    for r in range(n - 1):
        for direction in ("forward", "reversed"):
            mapping = team_assignment(pc, r, direction)
            l_a, _ = evaluate_assumption_a(family.base, mapping, D)
            image = [Fraction(x) / D.unit for x in l_a]
            assert all(x.denominator == 1 for x in image)
            want = [(2 * n - 3) * int(x) + 2 * row[m] for x, m in zip(image, mapping)]
            assert athome_table(D, family, mapping).sum(axis=0).tolist() == want


@pytest.mark.parametrize("n", [4, 16])
def test_certificate_at_the_int64_bound(n):
    # the largest entry an int64 image takes: one team's athome travel summed
    # over all 2n-2 rotations, (2n-1)(2n-2) entries, passes 2^62 but not 2^63
    c = ((1 << 62) - 1) // (2 * n * n)
    D = DistanceMatrix.from_rows([[0 if i == j else c for j in range(n)] for i in range(n)])
    assert D.array.dtype == np.int64 and D.unit == 1
    assert 1 << 62 < (2 * n - 1) * (2 * n - 2) * c < 1 << 63
    cert, _ = certify_against_oracle(D, "exact")
    assert cert.all_ok
