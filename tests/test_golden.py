"""Byte-for-byte regression of ``uttp solve --dump-candidates``.

The golden files under ``tests/data/`` pin every candidate total, the
tie-break, the report fields and the schedule rows, in JSON for nl4, nl6,
nl8 and a one-decimal (exact rational) instance, and in CSV for nl6 and the
rational instance. Regenerate one only for an intended output change:

    uttp solve instances/nl6.txt --format csv --dump-candidates \\
        > tests/data/nl6.candidates.csv
"""

from pathlib import Path

import pytest

from uttp.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

CASES = [
    ("instances/nl4.txt", "json", "nl4.candidates.json"),
    ("instances/nl6.txt", "json", "nl6.candidates.json"),
    ("instances/nl8.txt", "json", "nl8.candidates.json"),
    ("tests/data/q6.txt", "json", "q6.candidates.json"),
    ("instances/nl6.txt", "csv", "nl6.candidates.csv"),
    ("tests/data/q6.txt", "csv", "q6.candidates.csv"),
]


@pytest.mark.parametrize("instance,fmt,golden", CASES, ids=[c[2] for c in CASES])
def test_candidate_dump_is_byte_identical(capsys, instance, fmt, golden):
    code = main(["solve", str(ROOT / instance), "--format", fmt, "--dump-candidates"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / golden).read_text()
