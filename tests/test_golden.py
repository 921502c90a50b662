"""Byte-for-byte regression of ``uttp solve --dump-candidates`` and
``uttp oracle``.

The golden files under ``tests/data/`` pin every candidate total, the
tie-break, the report fields and the schedule rows, in JSON for nl4, nl6,
nl8 and a one-decimal (exact rational) instance, in CSV for nl6, the
rational instance and a random n=24 Christofides solve (``uttp gen --n 24
--seed 1``), and in text (certificate slacks, candidate lines, grid) for
nl4 and the rational instance. At n=24 the six teams the candidate scan
treats as exceptions to its shift identity (solver module docstring) are
all distinct; at n <= 8 some coincide. The oracle goldens pin its report
in all three formats on nl4 and on a rational 4-team file. Regenerate one
only for an intended output change:

    uttp solve instances/nl6.txt --format csv --dump-candidates \\
        > tests/data/nl6.candidates.csv
    uttp oracle tests/data/q4.txt --format json > tests/data/q4.oracle.json
"""

from pathlib import Path

import pytest

from uttp.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

CASES = [
    ("instances/nl4.txt", "json", "nl4.candidates.json", "exact"),
    ("instances/nl6.txt", "json", "nl6.candidates.json", "exact"),
    ("instances/nl8.txt", "json", "nl8.candidates.json", "exact"),
    ("tests/data/q6.txt", "json", "q6.candidates.json", "exact"),
    ("instances/nl6.txt", "csv", "nl6.candidates.csv", "exact"),
    ("tests/data/q6.txt", "csv", "q6.candidates.csv", "exact"),
    ("tests/data/r24.txt", "csv", "r24.candidates.csv", "christofides"),
    ("instances/nl4.txt", "text", "nl4.candidates.txt", "exact"),
    ("tests/data/q6.txt", "text", "q6.candidates.txt", "exact"),
]

ORACLE_CASES = [
    (instance, fmt, f"{name}.oracle.{fmt}")
    for name, instance in (("nl4", "instances/nl4.txt"), ("q4", "tests/data/q4.txt"))
    for fmt in ("text", "csv", "json")
]


@pytest.mark.parametrize("instance,fmt,golden,tsp", CASES, ids=[c[2] for c in CASES])
def test_candidate_dump_is_byte_identical(capsys, instance, fmt, golden, tsp):
    code = main(["solve", str(ROOT / instance), "--tsp", tsp, "--format", fmt, "--dump-candidates"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("instance,fmt,golden", ORACLE_CASES, ids=[c[2] for c in ORACLE_CASES])
def test_oracle_report_is_byte_identical(capsys, instance, fmt, golden):
    code = main(["oracle", str(ROOT / instance), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / golden).read_text()
