"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Benchmark sizes whose data files are not vendored are reported as
skipped by name, never silently.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uttp import (
    DistanceMatrix,
    brute_force_tsp,
    check_drr,
    check_mirrored,
    check_no_repeater,
    christofides,
    evaluate_assumption_a,
    exact_uttp,
    held_karp,
    load_instance,
    mirror_and_assign,
    random_euclidean_instance,
    render_schedule,
    solve,
    team_assignment,
)
from uttp.cli import BEST_KNOWN_UB, main as cli_main
from uttp.solver import ScheduleFamily, athome_table, schedule_family
from uttp.tsp import build_pivoted_cycle

from independent import assumption_a_route, assumption_a_table
from test_schedule import GOLDEN_10

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

BENCH_SIZES = (4, 6, 8, 10, 12, 14, 16)
EXPECTED_NTSP = {
    "nl": dict(zip(BENCH_SIZES, (8044, 17826, 27840, 38340, 67200, 103978, 119088))),
    "galaxy": dict(zip(BENCH_SIZES, (412, 1068, 1672, 3020, 4524, 6216, 7408))),
}
EXPECTED_APPROX = {
    "nl": dict(zip(BENCH_SIZES, (8276, 20547, 33190, 47930, 81712, 128358, 156828))),
    "galaxy": dict(zip(BENCH_SIZES, (416, 1197, 2076, 3676, 5514, 7611, 9295))),
}
ORACLE_OPTIMA = {"nl": 8276, "galaxy": 416}

RANDOM_SIZES = (4, 6, 8, 10, 12, 14)


def report_line(num: int, status: str, detail: str = "") -> None:
    suffix = f" - {detail}" if detail else ""
    print(f"\n[acceptance] criterion {num}: {status}{suffix}")


def finish(num: int, failures: list, detail: str = "") -> None:
    if failures:
        report_line(num, "FAIL", "; ".join(str(f) for f in failures[:5]))
        raise AssertionError(f"criterion {num}: {failures[:5]}")
    report_line(num, "PASS", detail)


def available_benchmarks():
    present, missing = [], []
    for family in ("nl", "galaxy"):
        for n in BENCH_SIZES:
            path = INSTANCES / f"{family}{n}.txt"
            if path.exists():
                present.append((family, n, load_instance(path)))
            else:
                missing.append(f"{family}{n}")
    return present, missing


@dataclass
class SuiteRecord:
    D: DistanceMatrix
    n: int
    family: ScheduleFamily
    pivoted: object
    exact_report: object
    exact_sched: object
    heur_report: object
    heur_sched: object


@pytest.fixture(scope="module")
def random_suite():
    t0 = time.perf_counter()
    families = {n: schedule_family(n) for n in RANDOM_SIZES}
    records = []
    for i in range(200):
        n = RANDOM_SIZES[i % len(RANDOM_SIZES)]
        D = random_euclidean_instance(n, seed=10_000 + i)
        pivoted = build_pivoted_cycle(D, mode="exact")
        exact_report, exact_sched = solve(D, mode="exact")
        heur_report, heur_sched = solve(D, mode="christofides", want_certificate=False)
        records.append(
            SuiteRecord(
                D=D,
                n=n,
                family=families[n],
                pivoted=pivoted,
                exact_report=exact_report,
                exact_sched=exact_sched,
                heur_report=heur_report,
                heur_sched=heur_sched,
            )
        )
    return records, time.perf_counter() - t0


def test_criterion_1_exact_tsp_column():
    present, missing = available_benchmarks()
    t0 = time.perf_counter()
    failures = []
    verified = []
    for family, n, D in present:
        got = n * held_karp(D).length
        want = EXPECTED_NTSP[family][n]
        if got != want:
            failures.append(f"{family}{n}: n*TSP {got} != {want}")
        else:
            verified.append(f"{family}{n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    detail = f"exact match on {', '.join(verified)} in {elapsed:.1f}s"
    if missing:
        detail += f"; SKIPPED (data not vendored): {', '.join(missing)}"
    finish(1, failures, detail)


def test_criterion_2_approx_column():
    present, missing = available_benchmarks()
    failures = []
    verified = []
    for family, n, D in present:
        t0 = time.perf_counter()
        report, _ = solve(D, mode="exact", want_certificate=False)
        elapsed = time.perf_counter() - t0
        want = EXPECTED_APPROX[family][n]
        total = report.total_distance
        if n == 4 and total != want:
            failures.append(f"{family}4: total {total} != {want} (exact match required)")
        elif not (Fraction(95, 100) * want <= total <= Fraction(105, 100) * want):
            failures.append(f"{family}{n}: total {total} not within 5% of {want}")
        elif elapsed >= 10:
            failures.append(f"{family}{n}: runtime {elapsed:.1f}s >= 10s")
        else:
            verified.append(f"{family}{n}={total}")
    detail = "; ".join(verified)
    if missing:
        detail += f"; SKIPPED (data not vendored): {', '.join(missing)}"
    finish(2, failures, detail)


def test_criterion_3_oracle_agreement():
    failures = []
    details = []
    skipped = []
    for family in ("nl", "galaxy"):
        path = INSTANCES / f"{family}4.txt"
        if not path.exists():
            skipped.append(f"{family}4")
            continue
        D = load_instance(path)
        t0 = time.perf_counter()
        res = exact_uttp(D)
        elapsed = time.perf_counter() - t0
        want = ORACLE_OPTIMA[family]
        if res.optimum != want:
            failures.append(f"{family}4 oracle {res.optimum} != {want}")
        if elapsed >= 5:
            failures.append(f"{family}4 oracle runtime {elapsed:.1f}s >= 5s")
        report, _ = solve(D, want_certificate=False)
        if report.total_distance != res.optimum:
            failures.append(
                f"{family}4 solve {report.total_distance} != oracle {res.optimum}"
            )
        details.append(f"{family}4 oracle=solve={res.optimum}")
    detail = "; ".join(details)
    if skipped:
        detail += f"; SKIPPED (data not vendored): {', '.join(skipped)}"
    finish(3, failures, detail)


def test_criterion_4_ratio_guarantees(random_suite):
    records, build_time = random_suite
    t0 = time.perf_counter()
    failures = []
    for idx, rec in enumerate(records):
        n, tau = rec.n, rec.exact_report.tau
        for label, sched in (("exact", rec.exact_sched), ("christofides", rec.heur_sched)):
            if check_drr(sched) or check_mirrored(sched) or check_no_repeater(sched):
                failures.append(f"record {idx}: {label} output fails a checker")
        if rec.exact_report.total_distance < n * tau:
            failures.append(f"record {idx}: exact total below lower bound")
        if 4 * rec.exact_report.total_distance > 9 * n * tau:
            failures.append(f"record {idx}: exact total above 2.25*n*tau")
        if rec.heur_report.matching_exact is not True:
            failures.append(f"record {idx}: matching not exact at n={n}")
        if 4 * rec.heur_report.total_distance > 11 * n * tau:
            failures.append(f"record {idx}: christofides total above 2.75*n*tau")
    elapsed = build_time + (time.perf_counter() - t0)
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    finish(4, failures, f"200 instances, zero violations, {elapsed:.1f}s")


def test_criterion_5_distance_inequalities(random_suite):
    records, _ = random_suite
    failures = []
    for idx, rec in enumerate(records):
        D, n, tau = rec.D, rec.n, rec.exact_report.tau
        d = D.d
        if any(
            2 * d[i][j] > tau for i in range(n) for j in range(i + 1, n)
        ):
            failures.append(f"record {idx}: an edge exceeds tau/2")
        mapping = team_assignment(rec.pivoted, 0, "forward")
        l_a, _ = evaluate_assumption_a(rec.family.base, mapping, D)
        cycles = list(l_a) + [rec.pivoted.cycle_length, rec.pivoted.full_tour.length]
        if any(2 * c > n * tau for c in cycles):
            failures.append(f"record {idx}: a produced cycle exceeds n*tau/2")
        pair_sum = sum(d[i][j] for i in range(n) for j in range(n))
        if 4 * pair_sum > n * n * tau:
            failures.append(f"record {idx}: pairwise sum exceeds n^2*tau/4")
        pivot_sum = sum(d[rec.pivoted.pivot][v] for v in range(n))
        if 4 * pivot_sum > n * tau:
            failures.append(f"record {idx}: pivot row sum exceeds n*tau/4")
    finish(5, failures, "all four inequalities exact on 200 instances")


def expected_route(mapping, n, t):
    cycle, pivot = mapping[: n - 1], mapping[n - 1]
    after = [cycle[(t + k) % (n - 1)] for k in range(1, n - 1)]
    if t < n // 2:
        return (cycle[t], pivot, *after)
    return (cycle[t], *after, pivot)


def test_criterion_6_closed_route_structure(random_suite):
    records, _ = random_suite
    failures = []
    for idx, rec in enumerate(records):
        D, n = rec.D, rec.n
        for r in range(n - 1):
            for direction in ("forward", "reversed"):
                mapping = team_assignment(rec.pivoted, r, direction)
                table = np.asarray(assumption_a_table(D, rec.family, mapping))
                if not (table == table[0]).all():
                    failures.append(
                        f"record {idx}: rule-A totals vary with slot rotation (r={r} {direction})"
                    )
                for t in range(n - 1):
                    route = assumption_a_route(rec.family.base, mapping, t)
                    if route != expected_route(mapping, n, t):
                        failures.append(
                            f"record {idx}: team {t} route mismatch (r={r} {direction})"
                        )
                        break
                last = assumption_a_route(rec.family.base, mapping, n - 1)
                if sorted(last) != sorted(range(n)):
                    failures.append(f"record {idx}: last team's route not Hamiltonian")
        if failures and len(failures) > 10:
            break
    finish(6, failures, "route identities and rotation invariance on 200 instances")


def test_criterion_7_average_bounds(random_suite):
    records, _ = random_suite
    failures = []
    for idx, rec in enumerate(records):
        D, n = rec.D, rec.n
        tau = rec.exact_report.tau
        tau_prime = rec.pivoted.cycle_length
        pair_sum = sum(D.d[i][j] for i in range(n) for j in range(n))
        pivot_sum = sum(D.d[rec.pivoted.pivot])  # d[v][v] = 0
        rhs = (
            (n - 2) * Fraction(tau_prime)
            + 2 * Fraction(pivot_sum)
            + Fraction(3, 2) * tau
            + Fraction(n, 2) * tau
            + Fraction(pair_sum, n - 1)
        )
        M = 2 * n - 2
        for r in range(n - 1):
            for direction in ("forward", "reversed"):
                mapping = team_assignment(rec.pivoted, r, direction)
                table = athome_table(D, rec.family, mapping)
                rows = [[int(x) for x in row] for row in table]
                total_mean = Fraction(sum(sum(row) for row in rows), M)
                if total_mean > rhs:
                    failures.append(f"record {idx}: rotation mean exceeds bound")
                l_a, _ = evaluate_assumption_a(rec.family.base, mapping, D)
                for t in range(n):
                    team_mean = Fraction(sum(rows[m][t] for m in range(M)), M)
                    team_rhs = l_a[t] + Fraction(sum(D.d[mapping[t]]), n - 1)
                    if team_mean > team_rhs:
                        failures.append(
                            f"record {idx}: team {t} mean exceeds its bound"
                        )
                        break
        if failures and len(failures) > 10:
            break
    finish(7, failures, "rotation-average bounds exact on 200 instances, all labelings")


def test_criterion_8_heuristic_tour_quality():
    failures = []
    t0 = time.perf_counter()
    checked_exact = 0
    for i in range(100):
        k = 6 + (i % 9)  # sizes 6..14
        D = random_euclidean_instance(k, seed=20_000 + i)
        res = christofides(D)
        hk = held_karp(D)
        if not res.matching_exact:
            failures.append(f"set {i} (k={k}): matching fell back to greedy")
        if 2 * res.tour.length > 3 * hk.length:
            failures.append(f"set {i} (k={k}): heuristic tour above 1.5x optimum")
        if k <= 10:
            if hk.length != brute_force_tsp(D).length:
                failures.append(f"set {i} (k={k}): DP and brute force disagree")
            checked_exact += 1
    elapsed = time.perf_counter() - t0
    finish(
        8,
        failures,
        f"100 sets, brute-force cross-check on {checked_exact}, {elapsed:.1f}s",
    )


def test_criterion_9_golden_grid():
    sched = mirror_and_assign(10)
    lines = render_schedule(sched, "rows").splitlines()
    failures = []
    cells_checked = 0
    for t in range(10):
        got = lines[t].split()
        want = GOLDEN_10[t].split()
        for s in range(18):
            cells_checked += 1
            if got[s] != want[s]:
                failures.append(f"cell ({t},{s}): {got[s]} != {want[s]}")
    assert cells_checked == 180
    finish(9, failures, "180 cells exact")


def test_criterion_10_declared_limits(tmp_path, bench_dir, capsys):
    failures = []

    def bench_rows(*argv):
        code = cli_main(["bench", str(bench_dir), *argv, "--format", "csv"])
        if code != 0:
            failures.append(f"bench {argv} exited {code}")
        lines = capsys.readouterr().out.splitlines()[1:]
        return {"".join(line.split(",")[:2]): line.split(",") for line in lines}

    # exact mode past the DP cap (line22 has 22 venues): an explicit skipped
    # row, no gap claim; nl4 keeps its full row
    rows = bench_rows()
    family, n, approx, bound, gap, ub, note = rows["line22"]
    if "skipped" not in note or approx or bound:
        failures.append(f"exact row past the cap not skipped: {rows['line22']}")
    if rows["nl4"][2:5] != ["8276", "8044", "2.9"]:
        failures.append(f"nl4 exact row wrong: {rows['nl4']}")

    # christofides rows are labeled and carry no bound/gap claim past the cap
    rows = bench_rows("--tsp", "christofides")
    family, n, approx, bound, gap, ub, note = rows["line22"]
    if note != "christofides no-bound" or bound != "" or gap != "n/a":
        failures.append(f"christofides row claims a bound: {rows['line22']}")
    if not approx:
        failures.append(f"christofides row missing its total: {rows['line22']}")

    # a supplied shortest-cycle file restores the full row past the cap:
    # 0 1 ... 21 is a shortest cycle of line22 (length 42), so the row is
    # the one exact mode would print with a larger cap
    tours = tmp_path / "tours"
    tours.mkdir()
    tours.joinpath("line22.tour").write_text(" ".join(map(str, range(22))) + "\n")
    rows = bench_rows("--tours", str(tours))
    family, n, approx, bound, gap, ub, note = rows["line22"]
    report, _ = solve(load_instance(bench_dir / "line22.txt"), mode="tour_file", tour=range(22))
    want = (str(report.total_distance), "924", f"{float(report.gap_percent):.1f}", "tour-file")
    if (approx, bound, gap, note) != want:
        failures.append(f"tour-file row {rows['line22']} is not {want}")

    # the n=10 incumbents stay reference constants only
    if BEST_KNOWN_UB[("nl", 10)] != 45605 or BEST_KNOWN_UB[("galaxy", 10)] != 3570:
        failures.append("reference incumbent constants wrong")

    finish(10, failures, "cap skips, labeled heuristic rows, tour-file restoration")
