import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttp import (
    Schedule,
    ScheduleError,
    check_drr,
    check_mirrored,
    check_no_repeater,
    circle_schedule,
    mirror_and_assign,
    parse_schedule_rows,
    relabel,
    render_schedule,
    rotate,
    streak_stats,
)

from independent import tuple_mirror_and_assign, tuple_relabel, tuple_rotate

# known-good 10-team double round robin produced by this construction,
# frozen cell for cell (18 slots x 10 teams)
GOLDEN_10 = [
    "9H 1H 2H 3H 4H 5H 6H 7H 8H 9A 1A 2A 3A 4A 5A 6A 7A 8A",
    "8A 0A 9H 2H 3H 4H 5H 6H 7H 8H 0H 9A 2A 3A 4A 5A 6A 7A",
    "7A 8A 0A 1A 9H 3H 4H 5H 6H 7H 8H 0H 1H 9A 3A 4A 5A 6A",
    "6A 7A 8A 0A 1A 2A 9H 4H 5H 6H 7H 8H 0H 1H 2H 9A 4A 5A",
    "5A 6A 7A 8A 0A 1A 2A 3A 9H 5H 6H 7H 8H 0H 1H 2H 3H 9A",
    "4H 9H 6A 7A 8A 0A 1A 2A 3A 4A 9A 6H 7H 8H 0H 1H 2H 3H",
    "3H 4H 5H 9H 7A 8A 0A 1A 2A 3A 4A 5A 9A 7H 8H 0H 1H 2H",
    "2H 3H 4H 5H 6H 9H 8A 0A 1A 2A 3A 4A 5A 6A 9A 8H 0H 1H",
    "1H 2H 3H 4H 5H 6H 7H 9H 0A 1A 2A 3A 4A 5A 6A 7A 9A 0H",
    "0A 5A 1A 6A 2A 7A 3A 8A 4A 0H 5H 1H 6H 2H 7H 3H 8H 4H",
]

EVEN_SIZES = list(range(4, 41, 2))


def table_ok(table):
    n = len(table)
    for t in range(n):
        seen = set()
        for s in range(n - 1):
            o = table[t][s]
            assert o != t
            assert table[o][s] == t
            seen.add(o)
        assert seen == set(range(n)) - {t}


def test_circle_cells_ten_teams():
    K = circle_schedule(10)
    assert K[0][0] == 9
    assert K[2][4] == 9
    assert K[9][3] == 6


def test_circle_cells_four_teams():
    K = circle_schedule(4)
    assert K[0][0] == 3
    assert K[1][0] == 2
    assert K[1][1] == 0
    assert K[2][1] == 3


@pytest.mark.parametrize("n", EVEN_SIZES)
def test_circle_is_single_round_robin(n):
    table_ok(circle_schedule(n))


@pytest.mark.parametrize("n", [3, 5, 2, 0])
def test_circle_rejects_bad_sizes(n):
    with pytest.raises(ScheduleError):
        circle_schedule(n)


def test_mirrored_assignment_cells():
    sched = mirror_and_assign(10)
    assert sched.game(0, 0) == (9, True)
    assert sched.game(9, 0) == (0, False)
    assert sched.game(5, 1) == (9, True)
    assert sched.game(5, 10) == (9, False)
    away7 = [s for s in range(18) if not sched.home[7][s]]
    assert away7 == list(range(6, 15))


def test_golden_ten_team_grid():
    sched = mirror_and_assign(10)
    assert render_schedule(sched, "rows").splitlines() == GOLDEN_10


@pytest.mark.parametrize("n", EVEN_SIZES)
def test_mirrored_assignment_feasible(n):
    sched = mirror_and_assign(n)
    assert check_drr(sched) == []
    assert check_mirrored(sched) == []
    assert check_no_repeater(sched) == []


@pytest.mark.parametrize("n", [4, 10, 16])
def test_structural_venue_rule(n):
    # teams i<j<n-1 meet in the slots congruent to i+j mod n-1, hosted by i
    # at slot i+j itself; i meets n-1 in the slots congruent to 2i, hosting
    # in the first half (where n-1 is always the guest)
    sched = mirror_and_assign(n)
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            c = (i + j) % (n - 1)
            assert [s for s in range(2 * n - 2) if sched.opp[i][s] == j] == [c, c + n - 1]
            assert sched.game(i, i + j) == (j, True)
            assert sched.game(j, i + j) == (i, False)
        s = 2 * i
        host_first = 2 * i <= n - 2
        assert sched.game(i, s) == (n - 1, host_first)
        assert sched.game(n - 1, s) == (i, not host_first)


def test_rotate_identity_and_cells():
    sched = mirror_and_assign(10)
    assert rotate(sched, 0) == sched
    assert rotate(sched, 2).game(0, 0) == (2, True)


@pytest.mark.parametrize("m", range(6))
def test_rotate_inverse(m):
    sched = mirror_and_assign(4)
    L = sched.num_slots
    assert rotate(rotate(sched, m), (L - m) % L) == sched


def test_mirror_and_assign_matches_cell_construction():
    for n in range(4, 129, 2):
        sched = mirror_and_assign(n)
        opp, home = tuple_mirror_and_assign(n)
        assert sched.opp == opp
        assert sched.home == home
        assert all(type(flag) is bool for row in sched.home for flag in row)
        assert all(type(o) is int for row in sched.opp for o in row)


@pytest.mark.parametrize("n", [4, 6, 10, 30])
def test_rotate_matches_modular_index(n):
    sched = mirror_and_assign(n)
    L = sched.num_slots
    for m in range(L):
        rot = rotate(sched, m)
        for grid, rot_grid in ((sched.opp, rot.opp), (sched.home, rot.home)):
            assert rot_grid == tuple(
                tuple(row[(s + m) % L] for s in range(L)) for row in grid
            )


def assert_cells(sched, opp, home):
    """The schedule's arrays and derived views hold exactly these tuple
    rows, as Python ints and bools."""
    assert sched.opp == opp
    assert sched.home == home
    assert {type(o) for row in sched.opp for o in row} == {int}
    assert {type(flag) for row in sched.home for flag in row} == {bool}
    assert sched.opp_array.dtype == np.intp and sched.home_array.dtype == bool
    assert sched.opp_array.tolist() == [list(row) for row in opp]
    assert sched.home_array.tolist() == [list(row) for row in home]


@pytest.mark.parametrize("n", range(4, 31, 2))
def test_rotate_and_relabel_match_tuple_versions(n):
    base = mirror_and_assign(n)
    ref_base = tuple_mirror_and_assign(n)
    perms = [
        tuple(range(n)),
        tuple(reversed(range(n))),
        tuple(random.Random(n).sample(range(n), n)),
    ]
    for m in range(2 * n - 2):
        rot = rotate(base, m)
        ref_rot = tuple_rotate(*ref_base, m)
        assert_cells(rot, *ref_rot)
        for perm in perms:
            assert_cells(relabel(rot, perm), *tuple_relabel(*ref_rot, perm))


def test_equality_and_hash_are_by_value():
    for n in (4, 10):
        built = relabel(rotate(mirror_and_assign(n), 3), list(reversed(range(n))))
        from_tuples = Schedule(n=n, opp=built.opp, home=built.home)
        from_lists = Schedule(n=n, opp=[list(r) for r in built.opp], home=[list(r) for r in built.home])
        assert (built == from_tuples) is True
        assert (from_lists == built) is True
        assert hash(built) == hash(from_tuples) == hash(from_lists)
        assert len({built, from_tuples, from_lists}) == 1
        assert ((1, built) != (1, from_tuples)) is False  # tuples of results compare
        assert (built != flip_flag(built, 0, 0)) is True
        assert (built == rotate(built, 1)) is False
        assert built != "not a schedule"
    assert mirror_and_assign(4) != mirror_and_assign(6)


def test_arrays_are_read_only():
    opp = np.array(mirror_and_assign(4).opp)
    home = np.array(mirror_and_assign(4).home)
    given_arrays = Schedule(n=4, opp=opp, home=home)
    assert np.shares_memory(given_arrays.opp_array, opp)  # shared, not copied
    assert opp.flags.writeable and home.flags.writeable  # the caller's flags stay
    base = mirror_and_assign(6)
    schedules = [
        given_arrays,
        base,
        rotate(base, 2),
        relabel(base, [5, 4, 3, 2, 1, 0]),
        parse_schedule_rows(render_schedule(base, "rows")),
        Schedule(n=6, opp=base.opp, home=base.home),
    ]
    for sched in schedules:
        with pytest.raises(ValueError):
            sched.opp_array[0, 0] = 1
        with pytest.raises(ValueError):
            sched.home_array[0, 0] = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.n = 8


def _misshaped(kind):
    opp, home = tuple_mirror_and_assign(4)
    opp, home = [list(r) for r in opp], [list(r) for r in home]
    if kind == "ragged-opp":
        opp[2].pop()
    elif kind == "ragged-home":
        home[3].append(True)
    elif kind == "missing-row":
        opp.pop()
        home.pop()
    elif kind == "short-rows":
        opp, home = [r[:5] for r in opp], [r[:5] for r in home]
    elif kind == "flat":
        opp = [o for r in opp for o in r]
    elif kind == "transposed":
        opp, home = np.array(opp).T, np.array(home).T
    elif kind == "not-numbers":
        opp[0][0] = "x"
    return opp, home


@pytest.mark.parametrize(
    "kind", ["ragged-opp", "ragged-home", "missing-row", "short-rows", "flat", "transposed", "not-numbers"]
)
def test_constructor_rejects_misshaped_rows(kind):
    opp, home = _misshaped(kind)
    with pytest.raises(ScheduleError):
        Schedule(n=4, opp=opp, home=home)


def test_rotate_out_of_range():
    sched = mirror_and_assign(4)
    with pytest.raises(ScheduleError):
        rotate(sched, 6)
    with pytest.raises(ScheduleError):
        rotate(sched, -1)


def test_rotations_stay_feasible():
    sched = mirror_and_assign(10)
    for m in range(sched.num_slots):
        rotated = rotate(sched, m)
        assert check_drr(rotated) == []
        assert check_mirrored(rotated) == []
        assert check_no_repeater(rotated) == []


def test_relabel_identity_and_inverse():
    sched = mirror_and_assign(6)
    assert relabel(sched, list(range(6))) == sched
    perm = [2, 0, 5, 1, 4, 3]
    inverse = [perm.index(t) for t in range(6)]
    assert relabel(relabel(sched, perm), inverse) == sched


@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(list(range(8))))
def test_relabel_preserves_feasibility(perm):
    sched = relabel(mirror_and_assign(8), perm)
    assert check_drr(sched) == []


def test_relabel_rejects_non_bijection():
    sched = mirror_and_assign(4)
    with pytest.raises(ScheduleError):
        relabel(sched, [0, 0, 1, 2])


def flip_flag(sched, t, s):
    home = [list(row) for row in sched.home]
    home[t][s] = not home[t][s]
    return Schedule(n=sched.n, opp=sched.opp, home=tuple(tuple(r) for r in home))


def test_flipped_venue_flag_caught():
    sched = mirror_and_assign(6)
    bad = flip_flag(sched, 2, 3)
    kinds = {v.kind for v in check_drr(bad)}
    assert "venue_clash" in kinds
    assert any(v.kind == "hosting_count" for v in check_drr(bad))


def test_duplicated_slot_caught():
    sched = mirror_and_assign(6)
    opp = [list(row) for row in sched.opp]
    home = [list(row) for row in sched.home]
    for t in range(6):
        opp[t][4] = opp[t][3]
        home[t][4] = home[t][3]
    bad = Schedule(
        n=6,
        opp=tuple(tuple(r) for r in opp),
        home=tuple(tuple(r) for r in home),
    )
    assert any(v.kind == "repeater" for v in check_no_repeater(bad))


def test_streak_stats_extremes():
    sched = mirror_and_assign(10)
    stats = streak_stats(sched)
    assert stats[9] == (9, 9)  # away the whole first half, home the second
    assert stats[0] == (9, 9)
    all_home = Schedule(
        n=4,
        opp=mirror_and_assign(4).opp,
        home=tuple(tuple(True for _ in range(6)) for _ in range(4)),
    )
    assert check_drr(all_home) != []
    assert streak_stats(all_home)[0] == (6, 0)


def test_render_rows_golden_lines():
    sched = mirror_and_assign(10)
    lines = render_schedule(sched, "rows").splitlines()
    assert lines[0] == GOLDEN_10[0]
    assert lines[9] == GOLDEN_10[9]


def test_render_parse_round_trip():
    for n in (4, 10):
        sched = mirror_and_assign(n)
        assert parse_schedule_rows(render_schedule(sched, "rows")) == sched


@pytest.mark.parametrize(
    "digit",
    ["\u00b2", "\u0663", "\uff13", "\U0001d7d1"],
    ids=["superscript-two", "arabic-indic-three", "fullwidth-three", "bold-three"],
)
def test_parse_rows_rejects_non_ascii_digits(digit):
    text = render_schedule(mirror_and_assign(4), "rows").replace("3H", digit + "H", 1)
    with pytest.raises(ScheduleError, match="bad cell"):
        parse_schedule_rows(text)


def test_grid_format_contains_cells():
    text = render_schedule(mirror_and_assign(4), "grid")
    assert "3H" in text and "0A" in text


@pytest.mark.parametrize(
    "text",
    [
        "9H 1H\n8A 0A",  # wrong token counts
        "xx yy\nzz ww",
        "",
    ],
)
def test_parse_rows_rejects(text):
    with pytest.raises(ScheduleError):
        parse_schedule_rows(text)
