"""Command-line front end: solve instances, validate schedules, run the
benchmark table, query the exhaustive 4-team oracle, generate test data.

``_emit_report`` prints every ``solve`` and ``oracle`` report, in each format.
Its JSON is ``json.dumps(indent=2)`` of the small keys, with the candidate
dump, the bulk of the report, spliced in from a fixed per-candidate template:
``indent`` sends ``json`` to its pure-Python encoder, which would cost more
than the solve. ``main`` builds its argparse tree on its first call and reuses
it for later calls in the same process.

Exit codes: 0 ok; 2 invalid input (instance, tour, option value, or an
unreadable or unwritable path); 3 infeasible schedule; 4 internal
certificate failure. ``main`` maps each library exception type to its
code; ``CliError`` carries a code only where the CLI adds context.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import gap_percent, lower_bound, render_gap
from .instance import (
    DistanceMatrix,
    InstanceError,
    load_instance,
    parse_distance_matrix,
    random_euclidean_instance,
    render_distance_matrix,
)
from .oracle import OracleError, exact_uttp
from .schedule import (
    ScheduleError,
    check_drr,
    check_mirrored,
    check_no_repeater,
    parse_schedule_rows,
    render_schedule,
    streak_stats,
)
from .solver import InternalCheckError, SolverError, evaluate_athome, solve
from .tsp import HELD_KARP_CAP, TspError, held_karp, parse_tour_file

EXIT_OK = 0
EXIT_INVALID_INSTANCE = 2
EXIT_INFEASIBLE_SCHEDULE = 3
EXIT_CERTIFICATE_FAILURE = 4

# published best upper bounds for the benchmark families (optimal for
# n=4..8, best-known incumbents at n=10); shown for reference only
BEST_KNOWN_UB = {
    ("nl", 4): 8276,
    ("nl", 6): 19900,
    ("nl", 8): 30700,
    ("nl", 10): 45605,
    ("galaxy", 4): 416,
    ("galaxy", 6): 1178,
    ("galaxy", 8): 1890,
    ("galaxy", 10): 3570,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_instance(path: str) -> DistanceMatrix:
    try:
        if path == "-":
            return parse_distance_matrix(sys.stdin.read())
        return load_instance(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INVALID_INSTANCE, f"cannot read instance: {exc}") from exc
    except InstanceError as exc:
        raise CliError(EXIT_INVALID_INSTANCE, f"invalid instance: {exc}") from exc


def _read_tour(path: str | Path, n: int) -> tuple[int, ...]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INVALID_INSTANCE, f"cannot read tour file: {exc}") from exc
    return parse_tour_file(text, n)


def _parse_tsp_mode(value: str) -> tuple[str, str | None]:
    if value in ("exact", "christofides"):
        return value, None
    if value.startswith("tour-file="):
        return "tour_file", value.split("=", 1)[1]
    raise CliError(
        EXIT_INVALID_INSTANCE,
        f"--tsp must be exact, christofides, or tour-file=PATH (got {value!r})",
    )


def _num(x, key: str):
    """A Fraction as the float it prints as; CliError past the float range."""
    if type(x) is int or not isinstance(x, Fraction):  # int first: skips ABCMeta's check
        return x
    try:
        return float(x)
    except OverflowError:
        about = f"{key} is about 10^{len(str(int(abs(x)))) - 1}"
        raise CliError(EXIT_INVALID_INSTANCE, f"{about}, past the float range") from None


def _gap(gap) -> str:
    return render_gap(_num(gap, "gap_percent"))


def _report_pairs(report) -> list[tuple[str, object]]:
    t = report.best_transform
    return [
        ("n", report.n),
        ("total_distance", report.total_distance),
        ("tau", report.tau),
        ("tau_prime", report.tau_prime),
        ("lower_bound", report.lower_bound),
        ("gap_percent", _gap(report.gap_percent)),
        ("tsp_mode", report.tsp_mode),
        ("matching_exact", report.matching_exact),
        ("best_r", t.cycle_rotation),
        ("best_direction", t.direction),
        ("best_m", t.slot_rotation),
        ("metric", report.metric),
        ("guarantees_valid", report.guarantees_valid),
        ("ratio_bound", _num(report.ratio_bound, "ratio_bound")),
    ]


# one dumped candidate as json.dumps(indent=2) prints it inside the report;
# json prints ints and floats with their __repr__, as %r does
_CANDIDATE_JSON = '    {\n      "r": %d,\n      "direction": "%s",\n      "m": %d,\n      "total": %r\n    }'


def _emit_report(
    pairs, gap, per_team, sched, fmt: str, certificate=None, candidates=None, schedule_out=None
) -> None:
    """Print a ``solve`` or ``oracle`` report in ``fmt``: ``pairs`` in order
    (``gap_percent`` rendered; JSON prints the exact ``gap`` as a number), the
    per-team travel, the certificate and candidates when given, the schedule;
    with ``schedule_out``, also write the schedule in rows format there.
    Every value is converted before that file is written and before the
    first line is printed, so a value past the float range raises
    ``CliError`` with no file and nothing on stdout.

    JSON equals ``json.dumps(doc, indent=2)`` of the whole report, but only
    the keys around the candidate list go through ``json``; each candidate
    is printed from ``_CANDIDATE_JSON`` and the list is spliced in between."""
    rows = render_schedule(sched, "rows")
    if fmt == "json":
        doc = {k: _num(v, k) for k, v in pairs}
        doc["per_team_distances"] = [_num(x, "per_team_distances") for x in per_team]
        doc["gap_percent"] = _num(gap, "gap_percent")  # the number, not its rendering
        if certificate is not None:
            doc["certificate"] = {
                c.name: {
                    "ok": c.ok,
                    "lhs": _num(c.lhs, f"certificate.{c.name}"),
                    "rhs": _num(c.rhs, f"certificate.{c.name}"),
                }
                for c in certificate.checks
            }
        dump = ""
        if candidates is not None:
            items = ",\n".join(
                [_CANDIDATE_JSON % (r, d, m, _num(tot, "candidates")) for r, d, m, tot in candidates]
            )
            dump = f'\n  "candidates": [\n{items}\n  ],' if items else '\n  "candidates": [],'
        head = json.dumps(doc, indent=2)[:-2]  # without the closing "\n}"
        tail = json.dumps({"schedule_rows": rows.splitlines()}, indent=2)[1:]  # without "{"
        text = f"{head},{dump}{tail}\n"
    elif fmt == "csv":
        lines = [
            ",".join(k for k, _ in pairs),
            ",".join("" if v is None else str(v) for _, v in pairs),
        ]
        if candidates is not None:
            lines.append("r,direction,m,total")
            lines += [f"{r},{d},{m},{tot}" for r, d, m, tot in candidates]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{k}: {'n/a' if v is None else v}" for k, v in pairs]
        lines.append("per_team_distances: " + " ".join(str(x) for x in per_team))
        if certificate is not None:
            lines += [
                f"certificate.{c.name}: {'ok' if c.ok else 'VIOLATED'} "
                f"(slack {_num(c.slack, f'certificate.{c.name}')})"
                for c in certificate.checks
            ]
        if candidates is not None:
            lines.append("candidates (r direction m total):")
            lines += [f"  {r} {d} {m} {tot}" for r, d, m, tot in candidates]
        text = "\n".join(lines) + "\n\n" + render_schedule(sched, "grid")
    if schedule_out:
        Path(schedule_out).write_text(rows)
    print(text, end="")


def cmd_solve(args) -> int:
    D = _read_instance(args.instance)
    mode, tour_path = _parse_tsp_mode(args.tsp)
    tour = _read_tour(tour_path, D.n) if mode == "tour_file" else None
    if not D.metric:
        print(
            "warning: input violates the triangle inequality; "
            "ratio guarantees void",
            file=sys.stderr,
        )
    report, sched = solve(D, mode=mode, tour=tour, keep_candidates=args.dump_candidates)
    _emit_report(
        _report_pairs(report),
        report.gap_percent,
        report.per_team_distances,
        sched,
        args.format,
        report.certificate,
        report.candidates,
        args.schedule_out,
    )
    if report.metric and report.certificate is not None and not report.certificate.all_ok:
        bad = [c.name for c in report.certificate.checks if not c.ok]
        print(f"certificate failure on metric input: {bad}", file=sys.stderr)
        return EXIT_CERTIFICATE_FAILURE
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        sched = parse_schedule_rows(Path(args.schedule).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_INFEASIBLE_SCHEDULE, f"cannot read schedule: {exc}") from exc
    except ScheduleError as exc:
        raise CliError(EXIT_INFEASIBLE_SCHEDULE, f"malformed schedule: {exc}") from exc
    D = _read_instance(args.instance) if args.instance else None
    if D is not None and D.n != sched.n:
        raise CliError(
            EXIT_INVALID_INSTANCE,
            f"instance has {D.n} venues but schedule has {sched.n} teams",
        )
    drr = check_drr(sched)
    mirrored = check_mirrored(sched)
    repeats = check_no_repeater(sched)
    for name, violations in (("drr", drr), ("mirrored", mirrored), ("no_repeater", repeats)):
        status = "pass" if not violations else f"{len(violations)} violation(s)"
        print(f"{name}: {status}")
        for v in violations[:20]:
            print(f"  {v.kind} at {v.where}: {v.message}")
    for t, (h, a) in enumerate(streak_stats(sched)):
        print(f"team {t}: max home streak {h}, max away streak {a}")
    if D is not None:
        per_team, total = evaluate_athome(sched, tuple(range(sched.n)), D)
        print(f"total_distance: {total}")
        print("per_team_distances: " + " ".join(str(x) for x in per_team))
    return EXIT_OK if not drr else EXIT_INFEASIBLE_SCHEDULE


_INSTANCE_RE = re.compile(r"^([A-Za-z]+)(\d+)\.txt$")


def _discover_instances(directory: Path) -> list[tuple[str, int, Path]]:
    found = []
    for p in sorted(directory.iterdir()):
        m = _INSTANCE_RE.match(p.name)
        if m:
            found.append((m.group(1).lower(), int(m.group(2)), p))
    found.sort(key=lambda x: (x[0], x[1]))
    return found


def cmd_bench(args) -> int:
    directory = Path(args.instance_dir)
    if not directory.is_dir():
        raise CliError(EXIT_INVALID_INSTANCE, f"not a directory: {directory}")
    mode = args.tsp
    entries = _discover_instances(directory)
    if not entries:
        raise CliError(EXIT_INVALID_INSTANCE, f"no instance files in {directory}")
    rows = []
    for family, n, path in entries:
        D = _read_instance(str(path))
        if D.n != n:
            raise CliError(
                EXIT_INVALID_INSTANCE, f"{path.name}: file says n={D.n}, name says {n}"
            )
        best_ub = BEST_KNOWN_UB.get((family, n), "")
        run_mode = mode
        tour = None
        note = mode
        if mode == "exact" and n > HELD_KARP_CAP:
            tour_path = Path(args.tours) / f"{family}{n}.tour" if args.tours else None
            if tour_path and tour_path.exists():
                run_mode = "tour_file"
                tour = _read_tour(tour_path, n)
                note = "tour-file"
            else:
                rows.append((family, n, "", "", "", best_ub, "skipped: beyond exact-tour cap"))
                continue
        report, _sched = solve(D, mode=run_mode, tour=tour, want_certificate=False)
        if report.lower_bound is None:
            note += " no-bound"
        rows.append(
            (
                family,
                n,
                report.total_distance,
                report.lower_bound if report.lower_bound is not None else "",
                _gap(report.gap_percent),
                best_ub,
                note,
            )
        )
    if args.format == "csv":
        print("family,n,approx,n_tsp,gap_percent,best_ub,note")
        for family, n, approx, bound, gap, ub, note in rows:
            print(f"{family},{n},{approx},{bound},{gap},{ub},{note}")
    else:
        cur = None
        for family, n, approx, bound, gap, ub, note in rows:
            if family != cur:
                cur = family
                print(f"family {family}")
                print(f"{'n':>4} {'approx':>10} {'n*TSP':>10} {'gap%':>7} {'best UB':>9}  note")
            print(f"{n:>4} {str(approx):>10} {str(bound):>10} {str(gap):>7} {str(ub):>9}  {note}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    D = _read_instance(args.instance)
    res = exact_uttp(D)
    tau = held_karp(D).length
    bound = lower_bound(D, tau)
    gap = gap_percent(res.optimum, bound)
    per_team, total = evaluate_athome(res.schedule, tuple(range(D.n)), D)
    if total != res.optimum:
        raise CliError(EXIT_CERTIFICATE_FAILURE, "oracle schedule does not attain its optimum")
    pairs = [
        ("n", D.n),
        ("total_distance", res.optimum),
        ("tau", tau),
        ("lower_bound", bound),
        ("gap_percent", _gap(gap)),
        ("tsp_mode", "oracle"),
        ("explored_nodes", res.explored),
    ]
    _emit_report(pairs, gap, per_team, res.schedule, args.format)
    return EXIT_OK


def cmd_gen(args) -> int:
    D = random_euclidean_instance(args.n, args.seed, args.box)
    assert D.metric
    text = render_distance_matrix(D)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uttp",
        description="Approximation solver for unconstrained traveling tournaments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print report + schedule")
    p.add_argument("instance", help="instance file path, or - for stdin")
    p.add_argument("--tsp", default="exact", help="exact | christofides | tour-file=PATH")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--dump-candidates", action="store_true")
    p.add_argument("--schedule-out", help="also write the schedule in rows format here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a rows-format schedule file")
    p.add_argument("schedule")
    p.add_argument("instance", nargs="?", help="optional instance for travel totals")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="benchmark table over a directory of instances")
    p.add_argument("instance_dir")
    p.add_argument("--tsp", choices=("exact", "christofides"), default="exact")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--tours", help=f"directory of <family><n>.tour files for n > {HELD_KARP_CAP}")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="exhaustive 4-team optimum")
    p.add_argument("instance")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="random Euclidean instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", type=float, default=1000.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)
    return parser


# built on the first call to main, not at import: library users import this
# module too; parse_args returns a fresh namespace on every call
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (InstanceError, TspError, SolverError, OracleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_SCHEDULE
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
