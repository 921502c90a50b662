import contextlib
import io
import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttp import (
    mirror_and_assign,
    parse_distance_matrix,
    random_euclidean_instance,
    render_distance_matrix,
    render_schedule,
    rotate,
)
from uttp.cli import _emit_report, main
from uttp.solver import DIRECTIONS

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_nl4_text(capsys):
    code, out, _ = run_cli(capsys, "solve", str(INSTANCES / "nl4.txt"))
    assert code == 0
    assert "total_distance: 8276" in out
    assert "gap_percent: 2.9" in out
    assert "tsp_mode: exact" in out


def test_solve_odd_team_count(tmp_path, capsys):
    bad = tmp_path / "five.txt"
    bad.write_text(
        "0 1 1 1 1\n1 0 1 1 1\n1 1 0 1 1\n1 1 1 0 1\n1 1 1 1 0\n"
    )
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "even" in err


def test_solve_unreadable_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/file.txt")
    assert code == 2
    assert "cannot read" in err


def test_solve_formats_agree(capsys):
    code, text_out, _ = run_cli(capsys, "solve", str(INSTANCES / "nl4.txt"))
    assert code == 0
    code, csv_out, _ = run_cli(
        capsys, "solve", str(INSTANCES / "nl4.txt"), "--format", "csv"
    )
    assert code == 0
    header, row = csv_out.strip().splitlines()[:2]
    csv_doc = dict(zip(header.split(","), row.split(",")))
    assert csv_doc["total_distance"] == "8276"
    assert csv_doc["gap_percent"] == "2.9"
    assert "total_distance: 8276" in text_out and "gap_percent: 2.9" in text_out

    code, json_out, _ = run_cli(
        capsys, "solve", str(INSTANCES / "nl4.txt"), "--format", "json"
    )
    doc = json.loads(json_out)
    assert doc["total_distance"] == 8276
    assert doc["lower_bound"] == 8044
    assert doc["tau"] == 2011
    assert doc["certificate"]["ratio"]["ok"]


def test_solve_dump_candidates(capsys):
    code, out, _ = run_cli(
        capsys, "solve", str(INSTANCES / "nl4.txt"), "--format", "json", "--dump-candidates"
    )
    doc = json.loads(out)
    assert len(doc["candidates"]) == 2 * 3 * 6
    assert min(c["total"] for c in doc["candidates"]) == 8276


def test_solve_mixed_tokens_print_every_value_as_float(tmp_path, capsys):
    # one decimal token makes the whole matrix rational, so JSON prints every
    # travel value as a float, integral or not (the all-decimal rule)
    rows = [line.split() for line in (INSTANCES / "nl6.txt").read_text().splitlines()]
    rows[0][1] = rows[1][0] = "744.5"
    path = tmp_path / "mixed6.txt"
    path.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    code, out, _ = run_cli(
        capsys, "solve", str(path), "--format", "json", "--dump-candidates"
    )
    assert code == 0
    doc = json.loads(out)
    totals = [c["total"] for c in doc["candidates"]]
    assert len(totals) == 2 * 5 * 10
    assert all(isinstance(t, float) for t in totals)
    assert any(t.is_integer() for t in totals)
    assert isinstance(doc["tau"], float)
    assert all(isinstance(x, float) for x in doc["per_team_distances"])


def test_solve_tour_file_mode(tmp_path, capsys):
    tour = tmp_path / "nl4.tour"
    tour.write_text("0 2 1 3\n")
    code, out, _ = run_cli(
        capsys, "solve", str(INSTANCES / "nl4.txt"), "--tsp", f"tour-file={tour}"
    )
    assert code == 0
    assert "total_distance: 8276" in out
    assert "tsp_mode: tour-file" in out
    assert "guarantees_valid: False" in out


def test_solve_rejects_tour_longer_than_shortest_cycle(tmp_path, capsys):
    tour = tmp_path / "nl6.tour"
    tour.write_text("0 1 2 3 4 5\n")  # length 4116, shortest cycle 2971
    code, out, err = run_cli(
        capsys, "solve", str(INSTANCES / "nl6.txt"), "--tsp", f"tour-file={tour}"
    )
    assert code == 2
    assert out == ""
    assert "longer than the shortest cycle (2971)" in err


def test_solve_stdin(capsys, monkeypatch):
    text = (INSTANCES / "nl4.txt").read_text()
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "solve", "-")
    assert code == 0
    assert "total_distance: 8276" in out


def test_validate_good_schedule(tmp_path, capsys):
    sched = mirror_and_assign(10)
    path = tmp_path / "sched.txt"
    path.write_text(render_schedule(sched, "rows"))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "drr: pass" in out
    assert "mirrored: pass" in out
    assert "no_repeater: pass" in out
    assert "team 9: max home streak 9, max away streak 9" in out


def test_validate_rotated_schedule(tmp_path, capsys):
    sched = rotate(mirror_and_assign(10), 5)
    path = tmp_path / "sched.txt"
    path.write_text(render_schedule(sched, "rows"))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "drr: pass" in out


def test_validate_corrupted_schedule(tmp_path, capsys):
    sched = mirror_and_assign(4)
    lines = render_schedule(sched, "rows").splitlines()
    lines[0] = lines[0].replace("3H", "3A", 1)  # flip one venue flag
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "violation" in out


def test_validate_with_instance(tmp_path, capsys):
    sched = mirror_and_assign(4)
    path = tmp_path / "sched.txt"
    path.write_text(render_schedule(sched, "rows"))
    code, out, _ = run_cli(capsys, "validate", str(path), str(INSTANCES / "nl4.txt"))
    assert code == 0
    assert "total_distance:" in out


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("not a schedule\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "malformed" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_validate_non_ascii_digit_is_malformed(tmp_path, capsys, digit):
    text = render_schedule(mirror_and_assign(4), "rows").replace("3H", digit + "H", 1)
    path = tmp_path / "sched.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert "malformed schedule: bad cell" in err


def test_bench_exact(capsys):
    code, out, _ = run_cli(capsys, "bench", str(INSTANCES), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,approx,n_tsp,gap_percent,best_ub,note"
    rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    assert rows[("nl", "4")][2:6] == ["8276", "8044", "2.9", "8276"]
    assert rows[("nl", "6")][2:5] == ["20547", "17826", "15.3"]
    assert rows[("nl", "8")][2:5] == ["33190", "27840", "19.2"]


def test_bench_text_matches_csv_numbers(capsys):
    code, text_out, _ = run_cli(capsys, "bench", str(INSTANCES))
    assert code == 0
    assert "8276" in text_out and "8044" in text_out and "2.9" in text_out
    assert "family nl" in text_out


def bench_rows(out: str) -> dict[str, list[str]]:
    """CSV bench rows keyed by family and size, e.g. ``"nl4"``."""
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,approx,n_tsp,gap_percent,best_ub,note"
    return {"".join(line.split(",")[:2]): line.split(",") for line in lines[1:]}


def test_bench_skips_beyond_cap(bench_dir, capsys):
    code, out, _ = run_cli(capsys, "bench", str(bench_dir), "--format", "csv")
    assert code == 0
    rows = bench_rows(out)
    assert rows["nl4"][2:5] == ["8276", "8044", "2.9"]
    # line22 is past the Held-Karp cap and has no tour file
    assert rows["line22"][2:] == ["", "", "", "", "skipped: beyond exact-tour cap"]


def test_bench_christofides_rows_labeled(bench_dir, capsys):
    code, out, _ = run_cli(
        capsys, "bench", str(bench_dir), "--tsp", "christofides", "--format", "csv"
    )
    assert code == 0
    rows = bench_rows(out)
    assert rows["nl4"][3:5] == ["8044", "2.9"] and rows["nl4"][6] == "christofides"
    family, n, approx, bound, gap, ub, note = rows["line22"]
    assert approx and (bound, gap, note) == ("", "n/a", "christofides no-bound")


def test_bench_tour_files_extend_cap(tmp_path, bench_dir, capsys):
    tours = tmp_path / "tours"
    tours.mkdir()
    (tours / "line22.tour").write_text(" ".join(map(str, range(22))) + "\n")  # shortest: 42
    code, out, _ = run_cli(
        capsys, "bench", str(bench_dir), "--tours", str(tours), "--format", "csv"
    )
    assert code == 0
    family, n, approx, bound, gap, ub, note = bench_rows(out)["line22"]
    assert (bound, note) == ("924", "tour-file")
    assert gap == f"{(int(approx) / 924 - 1) * 100:.1f}"


def test_bench_zero_matrix_gap_na(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "zero4.txt").write_text("0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n")
    code, out, _ = run_cli(capsys, "bench", str(d), "--format", "csv")
    assert code == 0
    assert "zero,4,0,0,n/a" in out


def test_bench_rejects_tour_file_mode_at_parse_time(capsys):
    # bench has no tour argument, so only the two built-in modes parse
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(INSTANCES), "--tsp", "tour-file=x"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bench_empty_directory(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    code, _, err = run_cli(capsys, "bench", str(d))
    assert code == 2
    assert "no instance files" in err


def test_oracle_cli(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(INSTANCES / "nl4.txt"))
    assert code == 0
    assert "total_distance: 8276" in out
    assert "tsp_mode: oracle" in out
    assert "explored_nodes:" in out


def test_oracle_cli_json_rational(tmp_path, capsys):
    inst = tmp_path / "q4.txt"
    inst.write_text("0 1.5 2 2\n1.5 0 2 2\n2 2 0 1\n2 2 1 0\n")
    code, out, _ = run_cli(capsys, "oracle", str(inst), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == 6.5
    assert doc["lower_bound"] == 26.0
    assert sum(doc["per_team_distances"]) == doc["total_distance"]


def test_oracle_and_solve_json_gap_is_the_same_number(capsys):
    docs = []
    for command in ("oracle", "solve"):
        code, out, _ = run_cli(capsys, command, str(INSTANCES / "nl4.txt"), "--format", "json")
        assert code == 0
        docs.append(json.loads(out))
    oracle, solve = docs
    assert type(oracle["gap_percent"]) is float
    assert oracle["gap_percent"] == solve["gap_percent"] == float(Fraction(8276 - 8044, 8044) * 100)
    for doc in docs:
        assert (doc["total_distance"], doc["lower_bound"]) == (8276, 8044)


def test_oracle_cli_rejects_big(capsys):
    code, _, err = run_cli(capsys, "oracle", str(INSTANCES / "nl6.txt"))
    assert code == 2
    assert "n=4" in err


def test_gen_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "3")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "3")
    assert out1 == out2
    D = parse_distance_matrix(out1)
    assert D.n == 6
    assert D.metric


def test_gen_to_file_then_solve(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code, _, _ = run_cli(capsys, "gen", "--n", "6", "--seed", "4", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert "guarantees_valid: True" in out


def test_schedule_out_round_trips(tmp_path, capsys):
    out_path = tmp_path / "rows.txt"
    code, _, _ = run_cli(
        capsys, "solve", str(INSTANCES / "nl4.txt"), "--schedule-out", str(out_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(out_path), str(INSTANCES / "nl4.txt"))
    assert code == 0
    assert "total_distance: 8276" in out


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; no option of one call may
    # carry over to the next
    nl4 = str(INSTANCES / "nl4.txt")
    code, out, _ = run_cli(capsys, "solve", nl4, "--format", "json", "--dump-candidates")
    assert code == 0 and len(json.loads(out)["candidates"]) == 2 * 3 * 6
    code, out, _ = run_cli(capsys, "solve", nl4, "--format", "json")
    assert code == 0 and "candidates" not in json.loads(out)
    rows = tmp_path / "s.rows"
    code, out, _ = run_cli(capsys, "solve", nl4, "--schedule-out", str(rows))
    assert code == 0 and out.startswith("n: 4\n") and "candidates" not in out
    rows.rename(tmp_path / "kept.rows")
    code, out, _ = run_cli(capsys, "solve", nl4, "--format", "csv")
    assert code == 0 and not rows.exists()
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "kept.rows"), nl4)
    assert code == 0 and "total_distance: 8276" in out
    code, out, _ = run_cli(capsys, "bench", str(INSTANCES), "--format", "csv")
    assert code == 0 and out.startswith("family,n,approx,")
    with pytest.raises(SystemExit) as exc:
        main(["solve", nl4, "--format", "xml"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: uttp solve [-h]")
    assert "invalid choice: 'xml'" in err


def test_solve_non_metric_warns(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 1 9\n1 0 1 1\n1 1 0 1\n9 1 1 0\n")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 0
    assert "triangle inequality" in err
    assert "guarantees_valid: False" in out


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["solve", str(INSTANCES / "nl4.txt"), "--schedule-out", "{tmp}/missing/x.rows"], 2, "No such file"),
        (["gen", "--n", "6", "--seed", "1", "--out", "{tmp}/missing/x.txt"], 2, "No such file"),
        (["gen", "--n", "6", "--seed", "1", "--box", "nan"], 2, "box must be finite"),
        (["oracle", str(INSTANCES / "nl6.txt")], 2, "limited to n=4, got n=6"),
        (["solve", "{tmp}/five.txt"], 2, "even and >= 4, got 5"),
        (["gen", "--n", "2", "--seed", "1"], 2, "need n >= 3, got 2"),
        (["validate", "{tmp}/four.rows", str(INSTANCES / "nl6.txt")], 2, "6 venues but schedule has 4 teams"),
        (["bench", "{tmp}/misnamed"], 2, "file says n=6, name says 4"),
        (["bench", "{tmp}/five.txt"], 2, "not a directory"),
        (["solve", str(INSTANCES / "nl4.txt"), "--tsp", "tour-file={tmp}/missing.tour"], 2, "cannot read tour file"),
        (["solve", str(INSTANCES / "nl4.txt"), "--tsp", "bogus"], 2, "--tsp must be exact, christofides"),
        (["solve", "{tmp}/latin1.txt"], 2, "cannot read instance"),
        (["oracle", "{tmp}/latin1.txt"], 2, "cannot read instance"),
        (["validate", "{tmp}/four.rows", "{tmp}/latin1.txt"], 2, "cannot read instance"),
        (["validate", "{tmp}/latin1.txt"], 3, "cannot read schedule"),
        (["solve", str(INSTANCES / "nl4.txt"), "--tsp", "tour-file={tmp}/latin1.txt"], 2, "cannot read tour file"),
        (["bench", "{tmp}/big", "--tours", "{tmp}/big"], 2, "cannot read tour file"),
    ],
    ids=[
        "schedule-out-unwritable",
        "gen-out-unwritable",
        "gen-box-nan",
        "oracle-big",
        "solve-odd-n",
        "gen-tiny",
        "validate-size-mismatch",
        "bench-misnamed-file",
        "bench-not-a-directory",
        "tour-file-missing",
        "tsp-bogus",
        "solve-not-utf8",
        "oracle-not-utf8",
        "validate-instance-not-utf8",
        "validate-schedule-not-utf8",
        "tour-file-not-utf8",
        "bench-tour-not-utf8",
    ],
)
def test_failures_exit_with_documented_code(tmp_path, argv, code, message):
    (tmp_path / "five.txt").write_text(
        "0 1 1 1 1\n1 0 1 1 1\n1 1 0 1 1\n1 1 1 0 1\n1 1 1 1 0\n"
    )
    (tmp_path / "four.rows").write_text(render_schedule(mirror_and_assign(4), "rows"))
    (tmp_path / "misnamed").mkdir()
    (tmp_path / "misnamed" / "nl4.txt").write_text((INSTANCES / "nl6.txt").read_text())
    # a byte that is not UTF-8 (latin-1 for y with diaeresis), in a file
    # read as an instance, a schedule or a tour
    (tmp_path / "latin1.txt").write_bytes(b"0 1\xff\n1 0\n")
    (tmp_path / "big").mkdir()  # past the exact-tour cap, bench reads its tour file
    (tmp_path / "big" / "rand22.txt").write_text(render_distance_matrix(random_euclidean_instance(22, 1)))
    (tmp_path / "big" / "rand22.tour").write_bytes(b"0\xff")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "uttp", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


# cyclic neighbours 1 apart, every other pair 10^400: the gap to n * tau is
# about 10^401 percent
HUGE6 = "\n".join(
    " ".join("0" if i == j else "1" if (i - j) % 6 in (1, 5) else str(10**400) for j in range(6))
    for i in range(6)
)
# rational entries past the float range: totals and certificate sides overflow
# a float, the gap does not
HUGE_Q4 = "0 1e400 1.5e400 1e400\n1e400 0 1e400 1.5e400\n1.5e400 1e400 0 1e400\n1e400 1.5e400 1e400 0\n"


@pytest.mark.parametrize(
    "command, name, fmt, message",
    [
        ("solve", "huge6.txt", "text", "gap_percent is about 10^401"),
        ("solve", "huge6.txt", "csv", "gap_percent is about 10^401"),
        ("solve", "huge6.txt", "json", "gap_percent is about 10^401"),
        ("bench", "huge6.txt", "text", "gap_percent is about 10^401"),
        ("bench", "huge6.txt", "csv", "gap_percent is about 10^401"),
        ("solve", "q4.txt", "text", "certificate.edge_max is about 10^400"),
        ("solve", "q4.txt", "json", "total_distance is about 10^401"),
        ("oracle", "q4.txt", "json", "total_distance is about 10^401"),
    ],
)
def test_values_past_the_float_range_exit_2(tmp_path, capsys, command, name, fmt, message):
    (tmp_path / name).write_text(HUGE6 if name == "huge6.txt" else HUGE_Q4)
    target = tmp_path if command == "bench" else tmp_path / name
    code, out, err = run_cli(capsys, command, str(target), "--format", fmt)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}, past the float range"]


@pytest.mark.parametrize(
    "name, fmt, message",
    [
        ("huge6.txt", "text", "gap_percent is about 10^401"),
        ("huge6.txt", "json", "gap_percent is about 10^401"),
        ("q4.txt", "text", "certificate.edge_max is about 10^400"),
        ("q4.txt", "json", "total_distance is about 10^401"),
    ],
)
def test_schedule_out_not_written_when_the_report_fails(tmp_path, capsys, name, fmt, message):
    (tmp_path / name).write_text(HUGE6 if name == "huge6.txt" else HUGE_Q4)
    rows = tmp_path / "s.rows"
    code, out, err = run_cli(
        capsys, "solve", str(tmp_path / name), "--format", fmt, "--schedule-out", str(rows)
    )
    assert code == 2 and out == ""
    assert f"error: {message}, past the float range" in err
    assert not rows.exists()


def test_values_past_the_float_range_print_exactly_in_csv(tmp_path, capsys):
    (tmp_path / "q4.txt").write_text(HUGE_Q4)
    code, out, _ = run_cli(capsys, "solve", str(tmp_path / "q4.txt"), "--format", "csv")
    assert code == 0
    header, row = out.splitlines()[:2]
    report = dict(zip(header.split(","), row.split(",")))
    assert report["total_distance"] == str(185 * 10**399)
    assert report["lower_bound"] == str(16 * 10**400)
    assert report["gap_percent"] == "15.6"


def limit_memory():
    # the n=30 Held-Karp table would need 240 GiB; this address-space limit
    # turns a regression into a MemoryError instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))


def run_big30(tmp_path, *argv):
    (tmp_path / "big30.txt").write_text(render_distance_matrix(random_euclidean_instance(30, 1)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    return subprocess.run(
        [sys.executable, "-m", "uttp", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
    )


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_hk_cap_above_limit_rejected_at_parse_time(tmp_path, command):
    # no option moves the exact-tour cap: --hk-cap is not an argument
    target = "{tmp}/big30.txt" if command == "solve" else "{tmp}"
    proc = run_big30(tmp_path, command, target, "--hk-cap", "30")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --hk-cap 30" in errors[0]


def test_solve_past_held_karp_cap_refused_before_allocating(tmp_path):
    proc = run_big30(tmp_path, "solve", "{tmp}/big30.txt")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: 30 vertices exceeds the exact-DP cap of 20\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "uttp", "solve", str(INSTANCES / "nl4.txt"), "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "8276" in proc.stdout


# report-shaped documents for the JSON writer: the real report keys, values of
# every type a report holds, and totals that are ints, floats, big ints or
# Fractions (printed as the float they convert to)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1e-05, 1e16, 1e300, 5e-324, -0.0]),
    st.fractions(max_denominator=1000),
)
NUMBERS = st.one_of(
    st.integers(0, 10**6),
    st.integers(-(10**60), 10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1e-05, 1e16]),
    st.fractions(max_denominator=1000),
)
REPORT_KEYS = (
    "n", "total_distance", "tau", "tau_prime", "lower_bound", "gap_percent", "tsp_mode",
    "matching_exact", "best_r", "best_direction", "best_m", "metric", "guarantees_valid",
    "ratio_bound",
)
CHECK_NAMES = ("edge_max", "hamilton", "pair_sum", "ratio")
CANDIDATES = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(DIRECTIONS), st.integers(0, 60), NUMBERS),
    max_size=12,
)


def as_json(x):
    return float(x) if isinstance(x, Fraction) else x


def assert_writer_matches_json(pairs, gap, per_team, checks, candidates, n):
    """``_emit_report``'s JSON equals ``json.dumps(indent=2)`` of the whole
    document, built here from the same values."""
    sched = mirror_and_assign(n)
    certificate = None if checks is None else SimpleNamespace(checks=checks)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_report(pairs, gap, per_team, sched, "json", certificate, candidates)
    doc = {k: as_json(v) for k, v in pairs}
    doc["per_team_distances"] = [as_json(x) for x in per_team]
    doc["gap_percent"] = as_json(gap)
    if checks is not None:
        doc["certificate"] = {
            c.name: {"ok": c.ok, "lhs": as_json(c.lhs), "rhs": as_json(c.rhs)} for c in checks
        }
    if candidates is not None:
        doc["candidates"] = [
            {"r": r, "direction": d, "m": m, "total": as_json(t)} for r, d, m, t in candidates
        ]
    doc["schedule_rows"] = render_schedule(sched, "rows").splitlines()
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(SCALARS, min_size=len(REPORT_KEYS), max_size=len(REPORT_KEYS)),
    gap=NUMBERS | st.none(),
    per_team=st.lists(NUMBERS, min_size=1, max_size=6),
    checks=st.none() | st.lists(
        st.builds(SimpleNamespace, name=st.sampled_from(CHECK_NAMES), ok=st.booleans(), lhs=NUMBERS, rhs=NUMBERS),
        unique_by=lambda c: c.name,
    ),
    candidates=st.none() | CANDIDATES,
    n=st.sampled_from([4, 6]),
)
def test_json_writer_equals_stdlib_encoder(values, gap, per_team, checks, candidates, n):
    assert_writer_matches_json(list(zip(REPORT_KEYS, values)), gap, per_team, checks, candidates, n)


@pytest.mark.parametrize(
    "candidates",
    [None, [], [(0, "forward", 0, 0.1), (0, "reversed", 1, 1e-05), (1, "forward", 2, 1e16)],
     [(2, "reversed", 3, 10**30), (3, "forward", 0, 7), (4, "reversed", 9, Fraction(1, 3))]],
    ids=["none", "empty", "floats", "ints-and-fraction"],
)
def test_json_writer_candidate_lists(candidates):
    pairs = [("n", 4), ("total_distance", 8276), ("gap_percent", "2.9")]
    assert_writer_matches_json(pairs, Fraction(232, 8044), [1, 2, 3, 4], None, candidates, 4)
