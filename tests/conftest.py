import sys
from pathlib import Path

import pytest

from uttp import DistanceMatrix, load_instance, render_distance_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent))

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def benchmark(name: str) -> DistanceMatrix:
    """Load a vendored benchmark; skip the test when the file is absent."""
    path = INSTANCES / f"{name}.txt"
    if not path.exists():
        pytest.skip(
            f"{path.name} not vendored (no verified copy available); "
            f"drop the file into instances/ to enable this check"
        )
    return load_instance(path)


@pytest.fixture(scope="session")
def nl4() -> DistanceMatrix:
    return load_instance(INSTANCES / "nl4.txt")


@pytest.fixture(scope="session")
def nl6() -> DistanceMatrix:
    return load_instance(INSTANCES / "nl6.txt")


@pytest.fixture(scope="session")
def nl8() -> DistanceMatrix:
    return load_instance(INSTANCES / "nl8.txt")


def line_rows(n: int) -> list[list[int]]:
    """Venues at coordinates 0..n-1 on a line: d = |i - j|. Every cycle
    crosses each unit gap at least twice, so the shortest is 2(n-1), and
    the tour 0 1 ... n-1 attains it."""
    return [[abs(i - j) for j in range(n)] for i in range(n)]


@pytest.fixture
def line4() -> DistanceMatrix:
    """Venues at coordinates 0,1,2,3 on a line."""
    return DistanceMatrix.from_rows(line_rows(4))


@pytest.fixture
def line22() -> DistanceMatrix:
    """Venues at coordinates 0..21 on a line: two vertices past
    HELD_KARP_CAP, with a known shortest cycle of 42."""
    return DistanceMatrix.from_rows(line_rows(22))


@pytest.fixture
def bench_dir(tmp_path) -> Path:
    """A bench directory holding nl4.txt, within the Held-Karp cap, and
    line22.txt, past it."""
    d = tmp_path / "bench"
    d.mkdir()
    (d / "nl4.txt").write_text((INSTANCES / "nl4.txt").read_text())
    (d / "line22.txt").write_text(render_distance_matrix(DistanceMatrix.from_rows(line_rows(22))))
    return d


@pytest.fixture
def zeros4() -> DistanceMatrix:
    return DistanceMatrix.from_rows([[0] * 4 for _ in range(4)])
