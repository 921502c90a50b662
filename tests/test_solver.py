from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttp import (
    DistanceMatrix,
    SolverError,
    build_pivoted_cycle,
    check_drr,
    check_mirrored,
    check_no_repeater,
    christofides,
    evaluate_assumption_a,
    evaluate_athome,
    exact_uttp,
    mirror_and_assign,
    random_euclidean_instance,
    relabel,
    rotate,
    solve,
    team_assignment,
)
from uttp.schedule import Schedule
import uttp.analysis
import uttp.solver
from uttp.solver import (
    DIRECTIONS,
    _labelings,
    athome_table,
    candidate_totals,
    schedule_family,
)
import uttp.tsp
from uttp.tsp import PivotedCycle, cycle_length

from independent import (
    assumption_a_route,
    assumption_a_table,
    coprime_big,
    cycle_len,
    mean,
    number_kind,
    per_labeling_scan,
    route_walk,
    rule_a_walk,
    tuple_mirror_and_assign,
)


def identity(n):
    return tuple(range(n))


# --- team assignment ---


def test_assignment_offset_zero_forward(line4):
    pc = build_pivoted_cycle(line4)
    mapping = team_assignment(pc, 0, "forward")
    assert mapping[:3] == pc.cycle
    assert mapping[3] == pc.pivot


def test_assignment_offset_zero_reversed(line4):
    pc = build_pivoted_cycle(line4)
    a, b, c = pc.cycle
    assert team_assignment(pc, 0, "reversed")[:3] == (a, c, b)


def test_assignments_pairwise_distinct():
    D = random_euclidean_instance(8, 42)
    pc = build_pivoted_cycle(D)
    maps = {
        team_assignment(pc, r, direction)
        for r in range(7)
        for direction in ("forward", "reversed")
    }
    assert len(maps) == 2 * 7


@pytest.mark.parametrize("n", [4, 40, 400])
def test_assignment_is_its_row_of_the_labelings(n):
    # team_assignment prices one row by the offset formula that _labelings
    # broadcasts over every row
    order = np.random.default_rng(n).permutation(n).tolist()
    pc = PivotedCycle(order[-1], tuple(order[:-1]), 0, None, None)
    for direction in DIRECTIONS:
        rows = _labelings(pc, direction).tolist()
        for r, row in enumerate(rows):
            mapping = team_assignment(pc, r, direction)
            assert mapping == tuple(row)
            assert all(type(v) is int for v in mapping)


def test_solve_prices_labeling_zero_once(monkeypatch):
    # the scan and the certificate share forward labeling 0's table: one
    # athome_table call for it and one for reversed labeling 0, per solve
    calls = []

    def counted(D, family, mapping):
        calls.append(tuple(mapping))
        return athome_table(D, family, mapping)

    monkeypatch.setattr(uttp.solver, "athome_table", counted)
    monkeypatch.setattr(uttp.analysis, "athome_table", counted)
    D = random_euclidean_instance(8, 3)
    report, _ = solve(D)
    assert report.certificate is not None and report.certificate.all_ok
    pc = build_pivoted_cycle(D)
    assert calls == [team_assignment(pc, 0, d) for d in DIRECTIONS]


def test_assignment_range_errors(line4):
    pc = build_pivoted_cycle(line4)
    with pytest.raises(SolverError):
        team_assignment(pc, 3, "forward")
    with pytest.raises(SolverError):
        team_assignment(pc, 0, "backwards")


# --- athome evaluation ---


def test_athome_zero_matrix(zeros4):
    sched = mirror_and_assign(4)
    per_team, total = evaluate_athome(sched, identity(4), zeros4)
    assert per_team == (0, 0, 0, 0)
    assert total == 0


def test_athome_line_metric_frozen_value(line4):
    # walked by hand before the implementation existed: teams at 0,1,2,3,
    # base schedule, identity mapping
    sched = mirror_and_assign(4)
    per_team, total = evaluate_athome(sched, identity(4), line4)
    assert per_team == (8, 8, 6, 8)
    assert total == 30
    ref_per_team, ref_total = route_walk(sched.opp, sched.home, identity(4), line4.d)
    assert list(per_team) == ref_per_team
    assert total == ref_total == 30


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 5),
)
def test_athome_matches_independent_walk(n, seed, m):
    D = random_euclidean_instance(n, seed)
    sched = rotate(mirror_and_assign(n), m % (2 * n - 2))
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, seed % (n - 1), "reversed" if seed % 2 else "forward")
    per_team, total = evaluate_athome(sched, mapping, D)
    ref_per_team, ref_total = route_walk(sched.opp, sched.home, mapping, D.d)
    assert list(per_team) == ref_per_team
    assert total == ref_total


def test_fast_table_matches_reference():
    D = random_euclidean_instance(8, 7)
    family = schedule_family(8)
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, 2, "forward")
    table = athome_table(D, family, mapping)
    for m in range(2 * 8 - 2):
        per_team, _ = evaluate_athome(rotate(family.base, m), mapping, D)
        assert [int(x) for x in table[m]] == list(per_team)


def _instance(n, seed, rational):
    if not rational:
        return random_euclidean_instance(n, seed)
    # one-decimal distances: a metric instance in a 10x box, scaled by 1/10
    D = random_euclidean_instance(n, seed, box=10000.0)
    return DistanceMatrix.from_rows([[Fraction(x, 10) for x in row] for row in D.d])


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10, 12, 14]),
    seed=st.integers(0, 2**32 - 1),
    rational=st.booleans(),
    data=st.data(),
)
def test_tables_match_rotated_walks(n, seed, rational, data):
    # the splice identity against walking every rotation, for any labeling
    D = _instance(n, seed, rational)
    mapping = data.draw(st.permutations(range(n)))
    family = schedule_family(n)
    home = (athome_table(D, family, mapping) * D.unit).tolist()
    rule_a = assumption_a_table(D, family, mapping).tolist()
    assert len(home) == len(rule_a) == 2 * n - 2
    for m in range(2 * n - 2):
        sched = rotate(family.base, m)
        assert home[m] == list(evaluate_athome(sched, mapping, D)[0])
        assert rule_a[m] == list(evaluate_assumption_a(sched, mapping, D)[0])


def test_schedule_family_matches_tuple_construction():
    # the base schedule, and prev[t, m] = host[t, (m-1) mod L] with host
    # derived from the tuple-by-tuple construction, not from the closed
    # forms schedule_family reads; prev's L + 1 columns hold every column of
    # host
    for n in range(4, 62, 2):
        opp, home = tuple_mirror_and_assign(n)
        family = schedule_family(n)
        assert family.base == Schedule(n=n, opp=opp, home=home)
        L = 2 * n - 2
        host = [[t if home[t][s] else opp[t][s] for s in range(L)] for t in range(n)]
        assert family.prev.tolist() == [[row[(m - 1) % L] for m in range(L + 1)] for row in host]


def _symmetric(n, entries):
    return [[0 if i == j else entries[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["int", "quarter", "scaled", "coprime", "non-metric"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_shift_recurrence_matches_per_labeling_scan(kind, seed, data):
    # the whole (n-1, 2, 2n-2) table, both directions, value and type. Every
    # kind but coprime loads as an int64 image; coprime integers past the
    # int64 bound keep the object-dtype scan covered.
    n = 2 * data.draw(st.integers(2, 20), label="n/2")
    if kind == "non-metric":
        entries = data.draw(st.lists(st.integers(0, 60), min_size=n * n, max_size=n * n))
        D = DistanceMatrix.from_rows(_symmetric(n, entries))
    else:
        base = random_euclidean_instance(n, seed)
        scale = {
            "int": lambda x: x,
            "quarter": lambda x: Fraction(x, 4),
            "scaled": lambda x: x << 58,
            "coprime": coprime_big,
        }[kind]
        D = DistanceMatrix.from_rows([[scale(x) for x in row] for row in base.d])
    assert D.array.dtype == (object if kind == "coprime" else np.int64)
    order = data.draw(st.permutations(range(n)))
    cycle = PivotedCycle(order[-1], tuple(order[:-1]), 0, None, None)
    family = schedule_family(n)
    want = per_labeling_scan(D, family, cycle)
    got = candidate_totals(D, family, cycle).tolist()
    assert got == want
    assert [type(x) for x in np.ravel(np.array(got, dtype=object))] == [
        type(x) for x in np.ravel(np.array(want, dtype=object))
    ]


def _check_scaled_nl8(nl8, shift, mode):
    # sums of 2n^2 such entries overflow int64 (and at 2^58 so do the
    # entries), but the GCD divides the shift out of the image, so every
    # numeric step runs in int64 and the reports scale back by the unit
    big = DistanceMatrix.from_rows([[x << shift for x in row] for row in nl8.d])
    assert big.array.dtype == np.int64 and big.unit % (1 << shift) == 0
    report, sched = solve(big, mode=mode)
    ref, ref_sched = solve(nl8, mode=mode)
    assert report.best_transform == ref.best_transform
    assert report.total_distance == ref.total_distance << shift
    assert report.per_team_distances == tuple(x << shift for x in ref.per_team_distances)
    assert sched == ref_sched
    assert report.tau == ref.tau << shift
    assert report.certificate.all_ok


@pytest.mark.parametrize("shift", [50, 58])
def test_scaled_nl8_is_exact_past_int64(nl8, shift):
    _check_scaled_nl8(nl8, shift, "christofides")


@pytest.mark.parametrize("shift", [50, 58])
def test_scaled_nl8_exact_mode_past_int64(nl8, shift):
    _check_scaled_nl8(nl8, shift, "exact")


@pytest.mark.parametrize("mode", ["exact", "christofides"])
def test_coprime_big_nl8_solves_on_an_object_image(nl8, mode):
    # entries past the int64 bound with no common factor: the scan, the DPs
    # and the certificate run on Python ints, and the re-walk on D.d agrees
    D = DistanceMatrix.from_rows([[coprime_big(x) for x in row] for row in nl8.d])
    assert D.array.dtype == object and D.unit == 1
    report, sched = solve(D, mode=mode, keep_candidates=True)
    assert evaluate_athome(sched, identity(8), D)[1] == report.total_distance
    assert report.certificate.all_ok
    assert min(total for *_, total in report.candidates) == report.total_distance


# --- first/last-slot travel rule ---


def test_assumption_a_noop_when_home_at_an_end(line4):
    # at rotation 1 team 0 is home in both the first and last slot
    sched = rotate(mirror_and_assign(4), 1)
    assert sched.home[0][0] and sched.home[0][-1]
    a, _ = evaluate_assumption_a(sched, identity(4), line4)
    h, _ = evaluate_athome(sched, identity(4), line4)
    assert a[0] == h[0]


def test_assumption_a_invariant_over_rotations():
    D = random_euclidean_instance(10, 11)
    base = mirror_and_assign(10)
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, 0, "forward")
    reference, _ = evaluate_assumption_a(base, mapping, D)
    for m in range(base.num_slots):
        per_team, _ = evaluate_assumption_a(rotate(base, m), mapping, D)
        assert per_team == reference


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 6, 8, 10]), quarter=st.booleans(), data=st.data())
def test_assumption_a_matches_rule_walk(n, quarter, data):
    # arbitrary symmetric zero-diagonal entries, so mostly non-metric
    entries = data.draw(st.lists(st.integers(0, 60), min_size=n * n, max_size=n * n))
    rows = _symmetric(n, entries)
    if quarter:
        rows = [[Fraction(x, 4) for x in row] for row in rows]
    D = DistanceMatrix.from_rows(rows)
    m = data.draw(st.integers(0, 2 * n - 3))
    perm = data.draw(st.permutations(range(n)))
    mapping = data.draw(st.permutations(range(n)))
    sched = relabel(rotate(mirror_and_assign(n), m), perm)
    per_team, total = evaluate_assumption_a(sched, mapping, D)
    ref_per_team, ref_total = rule_a_walk(sched.opp, sched.home, mapping, D.d)
    assert list(per_team) == ref_per_team
    assert total == ref_total


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["int64", "quarter", "thirds", "coprime", "non-metric"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_image_sums_match_walks_in_value_and_type(kind, seed, data):
    # the re-walk, the first/last-slot rule and cycle lengths, all summed on
    # the integer image, against walks over D.d: ints for integral input,
    # object images included, and Fractions for rational input
    n = 2 * data.draw(st.integers(2, 8), label="n/2")
    D = DistanceMatrix.from_rows(number_kind(kind, n, seed))
    number = Fraction if kind in ("quarter", "thirds") else int
    m = data.draw(st.integers(0, 2 * n - 3))
    perm = data.draw(st.permutations(range(n)))
    mapping = data.draw(st.permutations(range(n)))
    sched = relabel(rotate(mirror_and_assign(n), m), perm)
    walks = [
        (evaluate_athome(sched, mapping, D), route_walk(sched.opp, sched.home, mapping, D.d)),
        (evaluate_assumption_a(sched, mapping, D), rule_a_walk(sched.opp, sched.home, mapping, D.d)),
    ]
    for (per_team, total), (ref_per_team, ref_total) in walks:
        assert [(x, type(x)) for x in per_team] == [(x, type(x)) for x in ref_per_team]
        assert (total, type(total)) == (ref_total, type(ref_total))
        assert {type(x) for x in per_team} == {type(total)} == {number}
    seq = mapping[: data.draw(st.integers(1, n))]
    length, ref = cycle_length(D, seq), cycle_len(D.d, seq)
    assert (length, type(length)) == (ref, type(ref))
    assert type(length) is number


def expected_route(mapping, n, t):
    cycle = mapping[: n - 1]
    pivot = mapping[n - 1]
    if t == n - 1:
        return None
    after = [cycle[(t + k) % (n - 1)] for k in range(1, n - 1)]
    if t < n // 2:
        return (cycle[t], pivot, *after)
    return (cycle[t], *after, pivot)


def test_routes_match_cycle_identities():
    D = random_euclidean_instance(10, 3)
    sched = mirror_and_assign(10)
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, 0, "forward")
    for t in range(9):
        assert assumption_a_route(sched, mapping, t) == expected_route(mapping, 10, t)
    last = assumption_a_route(sched, mapping, 9)
    assert sorted(last) == sorted(mapping)  # Hamiltonian over all venues
    assert last[0] == pc.pivot


def test_route_length_formula_per_team():
    # closing each team's route into a cycle telescopes into the pivoted
    # cycle length plus a detour through the pivot between two neighbours
    D = random_euclidean_instance(10, 17)
    sched = mirror_and_assign(10)
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, 0, "forward")
    w, p = mapping[:9], mapping[9]
    l_a, _ = evaluate_assumption_a(sched, mapping, D)
    for t in range(9):
        if t < 5:
            expected = pc.cycle_length + D.d[w[t]][p] + D.d[p][w[(t + 1) % 9]] - D.d[w[t]][w[(t + 1) % 9]]
        else:
            expected = pc.cycle_length + D.d[w[t - 1]][p] + D.d[p][w[t]] - D.d[w[t - 1]][w[t]]
        assert l_a[t] == expected


def test_route_lengths_equal_assumption_a():
    D = random_euclidean_instance(8, 5)
    sched = rotate(mirror_and_assign(8), 3)
    pc = build_pivoted_cycle(D)
    mapping = team_assignment(pc, 4, "reversed")
    per_team, _ = evaluate_assumption_a(sched, mapping, D)
    for t in range(8):
        route = assumption_a_route(sched, mapping, t)
        length = sum(D.d[route[i]][route[(i + 1) % len(route)]] for i in range(len(route)))
        assert length == per_team[t]


# --- solve ---


def test_solve_zero_matrix(zeros4):
    report, sched = solve(zeros4)
    assert report.total_distance == 0
    assert report.best_transform.cycle_rotation == 0
    assert report.best_transform.direction == "forward"
    assert report.best_transform.slot_rotation == 0
    assert check_drr(sched) == []


def test_solve_nl4_matches_oracle(nl4):
    report, sched = solve(nl4)
    assert report.total_distance == 8276
    assert report.lower_bound == 8044
    assert f"{float(report.gap_percent):.1f}" == "2.9"
    assert exact_uttp(nl4).optimum == report.total_distance
    assert check_drr(sched) == [] and check_mirrored(sched) == []


def test_solve_deterministic(nl6):
    r1, s1 = solve(nl6)
    r2, s2 = solve(nl6)
    assert r1 == r2
    assert s1 == s2


def test_solve_rejects_bad_sizes():
    with pytest.raises(SolverError):
        solve(random_euclidean_instance(5, 0))
    with pytest.raises(SolverError):
        solve(random_euclidean_instance(3, 0))


def test_solve_christofides_mode(nl4):
    report, _ = solve(nl4, mode="christofides")
    assert report.tsp_mode == "christofides"
    assert report.matching_exact is True
    assert report.ratio_bound == Fraction(11, 4)
    assert report.guarantees_valid
    assert report.tau == 2011  # still computed for the bound
    assert report.total_distance <= Fraction(11, 4) * 4 * 2011


def test_solve_christofides_greedy_matching_voids_guarantees():
    # above 16 odd-degree vertices the matching is greedy: no 2.75 claim
    report, _ = solve(random_euclidean_instance(40, 1), mode="christofides", want_certificate=False)
    assert report.metric
    assert report.matching_exact is False
    assert report.guarantees_valid is False


def test_solve_tour_file_mode(nl4):
    exact_report, _ = solve(nl4)
    report, _ = solve(nl4, mode="tour_file", tour=(0, 2, 1, 3))
    assert report.total_distance == exact_report.total_distance
    assert not report.guarantees_valid  # tour-file mode makes no ratio claim


def no_held_karp_dp(*args):
    raise AssertionError("Held-Karp ran past HELD_KARP_CAP")


def test_solve_past_held_karp_cap_skips_the_dp(monkeypatch):
    # n=22 is past HELD_KARP_CAP: no tau, so no bound, gap or certificate
    monkeypatch.setattr(uttp.tsp, "_held_karp", no_held_karp_dp)
    report, _ = solve(random_euclidean_instance(22, 0), mode="christofides")
    assert report.tau is None and report.lower_bound is None and report.gap_percent is None
    assert report.certificate is None


def test_solve_tour_file_past_held_karp_cap_trusts_the_tour(monkeypatch):
    monkeypatch.setattr(uttp.tsp, "_held_karp", no_held_karp_dp)
    D = random_euclidean_instance(22, 0)
    tour = christofides(D).tour
    report, _ = solve(D, mode="tour_file", tour=tour.vertices, want_certificate=False)
    assert report.tau == tour.length  # trusted, not checked
    assert report.lower_bound == 22 * tour.length


def test_solve_non_metric_voids_guarantees():
    D = random_euclidean_instance(4, 9)
    rows = [list(r) for r in D.d]
    rows[0][1] = rows[1][0] = rows[0][2] + rows[2][1] + 50  # break one triple
    bad = DistanceMatrix.from_rows(rows)
    assert not bad.metric
    report, _ = solve(bad, want_certificate=False)
    assert not report.guarantees_valid


def test_candidate_dump_consistent(nl4):
    report, _ = solve(nl4, keep_candidates=True)
    cands = report.candidates
    assert len(cands) == 2 * 3 * 6
    best = min(c[3] for c in cands)
    assert best == report.total_distance
    t = report.best_transform
    first = next(c for c in cands if c[3] == best)
    assert (first[0], first[1], first[2]) == (
        t.cycle_rotation,
        t.direction,
        t.slot_rotation,
    )


def test_solve_per_team_sums(nl6):
    report, sched = solve(nl6)
    assert sum(report.per_team_distances) == report.total_distance
    per_team, total = evaluate_athome(sched, identity(6), nl6)
    assert per_team == report.per_team_distances
    assert total == report.total_distance


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**32 - 1))
def test_solve_ratio_guarantees(n, seed):
    D = random_euclidean_instance(n, seed)
    exact_report, sched = solve(D, want_certificate=False)
    tau = exact_report.tau
    assert check_drr(sched) == []
    assert check_mirrored(sched) == []
    assert check_no_repeater(sched) == []
    assert exact_report.total_distance >= n * tau
    assert 4 * exact_report.total_distance <= 9 * n * tau
    heur_report, heur_sched = solve(D, mode="christofides", want_certificate=False)
    assert heur_report.tau == tau  # christofides mode still reports tau up to the cap
    assert check_drr(heur_sched) == []
    assert 4 * heur_report.total_distance <= 11 * n * tau


def test_solve_total_at_most_rotation_mean(nl8):
    report, _ = solve(nl8, keep_candidates=True)
    by_labeling = {}
    for r, direction, m, total in report.candidates:
        by_labeling.setdefault((r, direction), []).append(total)
    for totals in by_labeling.values():
        assert report.total_distance <= mean(totals)


def test_solve_fraction_matrix_end_to_end():
    # quarter-unit distances force the exact-rational paths everywhere
    base = random_euclidean_instance(6, 13)
    rows = [[Fraction(x, 4) for x in row] for row in base.d]
    D = DistanceMatrix.from_rows(rows)
    assert all(type(x) is Fraction for row in D.d for x in row)
    assert D.array.dtype == np.int64 and type(D.unit) is Fraction
    report, sched = solve(D)
    scaled_report, _ = solve(base)
    assert report.total_distance == Fraction(scaled_report.total_distance, 4)
    assert report.tau == Fraction(scaled_report.tau, 4)
    assert report.gap_percent == scaled_report.gap_percent
    assert check_drr(sched) == []
    assert report.certificate.all_ok


def test_relabeled_output_evaluates_identically(nl6):
    # relabeling commutes with evaluation: walking the output schedule with
    # the identity map is the walk of the rotated schedule under the mapping
    report, sched = solve(nl6)
    rebuilt = relabel(sched, identity(6))
    assert rebuilt == sched
    _, total = evaluate_athome(sched, identity(6), nl6)
    assert total == report.total_distance
