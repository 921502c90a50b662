"""Distance-matrix instances: parsing, validation, and random generation.

Instance files are plain text: whitespace-separated numbers, either exactly
n*n tokens (row-major square matrix) or a leading token n followed by n*n
tokens. Integral files keep int values; a file with any other token has
exact ``Fraction`` values throughout, so downstream arithmetic never
accumulates float error and never mixes ints with Fractions. A matrix
stores one form of its entries, an integer image made at load
(``DistanceMatrix.array``) and a scale back to input units
(``DistanceMatrix.unit``). Every numeric step runs on the image;
``DistanceMatrix.d``, the values in input units, is derived from it on
first read.

Loading checks entries with numpy, a few rows at a time (no (n, n, n)
tensor), and walks in Python only the entries it flags, so error texts and
``validate_metric``'s triples are those of a full entry-by-entry walk.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterable, Union

import numpy as np

Number = Union[int, Fraction]


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


@dataclass(frozen=True)
class MetricViolation:
    """A triple where going i -> j -> k beats the direct i -> k distance."""

    i: int
    j: int
    k: int
    deficit: Number  # d[i][k] - (d[i][j] + d[j][k]), strictly positive


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative distances between n team venues.

    ``metric`` records whether the triangle inequality held at load time;
    solvers run on non-metric input but mark their ratio guarantees void.
    Equality and hashing are by value: int rows equal the same values given
    as Fractions.
    """

    n: int
    metric: bool
    # The distances as an (n, n) array of integers, the only stored form,
    # built once per matrix by _as_integers: d[i][j] == array[i, j] * unit,
    # and a positive scale keeps every comparison of sums. int64 when
    # 2n^2 * max entry < 2^62, so any sum of fewer than 4n^2 entries fits: a
    # whole schedule's travel with its splice terms, or the certificate's
    # sum of one team's travel over all 2n-2 slot rotations, (2n-1)(2n-2)
    # entries. Otherwise dtype=object holding exact Python ints, on which
    # the same numpy code stays exact. Every travel and tour length is a sum
    # on this array times unit. Read-only: every caller shares it.
    array: np.ndarray = field(repr=False)
    unit: Number = field(repr=False)  # an int, or a Fraction for rational input

    @functools.cached_property
    def d(self) -> tuple[tuple[Number, ...], ...]:
        """The distances in input units, derived from the image on first
        read: ints for integral input, Fractions otherwise."""
        unit = self.unit
        return tuple(tuple(x * unit for x in row) for row in self.array.tolist())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.metric, self.d) == (other.n, other.metric, other.d)

    def __hash__(self) -> int:
        return hash((self.n, self.metric, self.d))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Number]]) -> "DistanceMatrix":
        rows = [list(row) for row in rows]
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise InstanceError("distance matrix must be square")
        a, unit = _as_integers(rows)
        a.flags.writeable = False
        faulty = (a.diagonal() != 0) | (a < 0).any(axis=1) | (a != a.T).any(axis=1)
        if faulty.any():
            i = int(np.argmax(faulty))  # the first row the walk below fails on
            row, col = a[i].tolist(), a[:, i].tolist()
            if row[i] != 0:
                raise InstanceError(f"nonzero diagonal entry at ({i},{i}): {row[i] * unit}")
            for j in range(n):
                if row[j] < 0:
                    raise InstanceError(f"negative distance at ({i},{j}): {row[j] * unit}")
                if row[j] != col[j]:
                    raise InstanceError(
                        f"asymmetric entries ({i},{j})={row[j] * unit} "
                        f"vs ({j},{i})={col[j] * unit}"
                    )
        metric = not _metric_violations(a, unit, cap=1)
        return cls(n=n, metric=metric, array=a, unit=unit)


def _fits_int64(n: int, entries: Iterable[int]) -> bool:
    # magnitudes: a negative entry must not overflow before it is rejected
    return 2 * n * n * max(map(abs, entries)) < 1 << 62


def _as_integers(rows: list[list[Number]]) -> tuple[np.ndarray, Number]:
    """``(a, unit)`` with ``rows[i][j] == a[i, j] * unit`` and ``unit > 0``:
    ``rows`` itself when it is all ints and fits int64, else its entries
    times the LCM of their denominators, over the GCD of the results.
    ``unit`` is an int for all-int rows and a Fraction otherwise, so values
    scaled back have one number type per matrix."""
    n = len(rows)
    flat = list(chain.from_iterable(rows))
    types = set(map(type, flat))
    integral = all(issubclass(t, numbers.Integral) for t in types)
    if integral:
        flat = flat if types == {int} else list(map(int, flat))  # numpy integers, say
        if _fits_int64(n, flat):
            return np.array(flat, dtype=np.int64).reshape(n, n), 1
    else:  # exact numerators and denominators, whatever the input type
        for at, x in enumerate(flat):
            try:
                flat[at] = x if type(x) is Fraction else Fraction(x)
            except (TypeError, ValueError, OverflowError):
                raise InstanceError(f"not a finite number at ({at // n},{at % n}): {x!r}") from None
    scale = math.lcm(*(x.denominator for x in flat))
    ints = [x.numerator * (scale // x.denominator) for x in flat]
    common = math.gcd(*ints) or 1
    ints = [x // common for x in ints]
    a = np.array(ints, dtype=np.int64 if _fits_int64(n, ints) else object).reshape(n, n)
    return a, common if integral else Fraction(common, scale)


def _parse_token(tok: str) -> Number:
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"not a number: {tok!r}") from exc


def parse_distance_matrix(text: str) -> DistanceMatrix:
    """Parse matrix text, auto-detecting the optional leading-n form.

    k tokens parse as an n*n matrix when k is a perfect square; otherwise
    k-1 must be a perfect square and the first token must equal n.
    """
    tokens = text.split()
    if not tokens:
        raise InstanceError("empty instance")
    k = len(tokens)
    n = math.isqrt(k)
    if n * n != k:
        n = math.isqrt(k - 1)
        if n * n != k - 1:
            raise InstanceError(f"token count {k} is neither n*n nor 1+n*n")
        if _parse_token(tokens[0]) != n:
            raise InstanceError(f"leading token {tokens[0]} does not match matrix size {n}")
        tokens = tokens[1:]
    try:
        values = list(map(int, tokens))  # the common all-integer file
    except ValueError:
        values = [_parse_token(t) for t in tokens]
    rows = [values[i * n : (i + 1) * n] for i in range(n)]
    return DistanceMatrix.from_rows(rows)


def load_instance(path: str | Path) -> DistanceMatrix:
    return parse_distance_matrix(Path(path).read_text())


def render_distance_matrix(D: DistanceMatrix) -> str:
    return "".join(" ".join(str(x) for x in row) + "\n" for row in D.d)


def _metric_violations(a: np.ndarray, unit: Number, cap: int) -> list[MetricViolation]:
    """The first ``cap`` triples with d[i][j] + d[j][k] < d[i][k], i < k, in
    (i, k, j) order, on the symmetric image ``a`` of d with deficits scaled
    by ``unit``. Needs a zero diagonal: then j = i and j = k give a[i, k]
    itself, so a min-plus test over all j finds the (i, k) with a violation,
    and only those are walked over j, on exact Python ints."""
    out: list[MetricViolation] = []
    n = len(a)
    step = max(1, (1 << 16) // (n * n))  # rows per test: at most 2^16 sums
    for i0 in range(0, n - 1, step):
        rows = a[i0 : i0 + step]
        # short[r, c]: some j beats a[i, k] for i = i0 + r, k = i0 + 1 + c
        short = (rows[:, :, None] + a[:, i0 + 1 :]).min(axis=1) < rows[:, i0 + 1 :]
        for r, c in zip(*(x.tolist() for x in np.triu(short).nonzero())):
            i, k = i0 + r, i0 + 1 + c
            row_i, row_k = a[i].tolist(), a[k].tolist()
            direct = row_i[k]
            for j in range(n):
                if j == i or j == k:
                    continue
                via = row_i[j] + row_k[j]
                if via < direct:
                    out.append(MetricViolation(i, j, k, (direct - via) * unit))
                    if len(out) >= cap:
                        return out
    return out


def validate_metric(D: DistanceMatrix, max_violations: int = 20) -> list[MetricViolation]:
    """List triples violating d[i][j] + d[j][k] >= d[i][k], at most
    ``max_violations`` of them."""
    if max_violations < 0:
        raise ValueError(f"max_violations must be >= 0, got {max_violations}")
    return _metric_violations(D.array, D.unit, cap=max_violations) if max_violations else []


def random_euclidean_instance(n: int, seed: int, box: float = 1000.0) -> DistanceMatrix:
    """n uniform points in [0, box]^2 with integer ceiling-rounded distances.

    Ceiling keeps the triangle inequality intact after rounding
    (ceil(x+y) <= ceil(x) + ceil(y)), so every generated instance is metric.
    Deterministic for a fixed seed.
    """
    if n < 3:
        raise InstanceError(f"need n >= 3, got {n}")
    if not math.isfinite(math.hypot(box, box)):  # no distance exceeds the diagonal
        raise InstanceError(f"box must be finite with a finite diagonal, got {box}")
    rng = random.Random(seed)
    pts = [(rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n)]
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.ceil(math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]))
            d[i][j] = d[j][i] = dist
    return DistanceMatrix.from_rows(d)
