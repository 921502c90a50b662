"""Circle-method round robins, mirrored double round robins with home/away
assignment, slot rotations, relabelings, and validators.

Slots are indexed 0..2n-3. Constructions work on a schedule's arrays;
validators walk its tuple views and return structured violation lists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class ScheduleError(ValueError):
    """Structurally invalid schedule data or parameters."""


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    message: str


@dataclass(frozen=True, eq=False, init=False)
class Schedule:
    """Double round robin: per team and slot, (opponent, home flag), stored
    once as read-only (n, 2n-2) arrays; ``opp`` and ``home``, their tuple
    views of Python ints and bools, are derived on first read. A given array
    of the right dtype is shared, not copied. Equality and hash are by value."""

    n: int
    opp_array: np.ndarray = field(repr=False)  # [team, slot] -> opponent
    home_array: np.ndarray = field(repr=False)  # [team, slot] -> plays at home?

    def __init__(self, n: int, opp, home) -> None:
        object.__setattr__(self, "n", n)
        for name, rows, dtype in (("opp", opp, np.intp), ("home", home, bool)):
            try:
                a = np.asarray(rows, dtype=dtype).view()  # the caller's array keeps its flags
            except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, non-numbers
                raise ScheduleError(f"{name} rows do not form a table: {exc}") from exc
            if a.shape != (n, 2 * n - 2):
                raise ScheduleError(f"{name} has shape {a.shape}, want ({n}, {2 * n - 2})")
            a.setflags(write=False)
            object.__setattr__(self, f"{name}_array", a)

    @functools.cached_property
    def opp(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.opp_array.tolist()))

    @functools.cached_property
    def home(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(map(tuple, self.home_array.tolist()))

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.opp_array.tobytes(), self.home_array.tobytes()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def num_slots(self) -> int:
        return 2 * self.n - 2

    def game(self, team: int, slot: int) -> tuple[int, bool]:
        return self.opp[team][slot], self.home[team][slot]


def _circle_rows(n: int) -> np.ndarray:
    """``circle_schedule(n)`` as an (n, n-1) array."""
    if n < 4 or n % 2 != 0:
        raise ScheduleError(f"need an even team count >= 4, got {n}")
    s, t = np.arange(n - 1), np.arange(n - 1)[:, None]  # slot, team
    r = (s - t) % (n - 1)
    rows = np.where(r == t, n - 1, r)
    last = np.where(s % 2 == 0, s // 2, (s + n - 1) // 2)
    return np.vstack([rows, last])


def circle_schedule(n: int) -> tuple[tuple[int, ...], ...]:
    """Classical circle-method single round robin over slots 0..n-2, as
    rows indexed [team][slot] -> opponent; venues are not assigned.

    Team t != n-1 meets (s - t) mod (n-1) in slot s, except in the slot
    where that value folds back onto t itself, which is its game against
    team n-1. Team n-1 walks 0, n/2, 1, n/2+1, ... across the slots.
    """
    return tuple(map(tuple, _circle_rows(n).tolist()))


@functools.lru_cache(maxsize=8)
def mirror_and_assign(n: int) -> Schedule:
    """Mirror the circle schedule into 2n-2 slots and assign venues.

    Home slots: team t < n/2 is home exactly in slots 2t..n+2t-2; teams
    n/2..n-2 are away exactly in slots 2t-n+2..2t; team n-1 is away in the
    whole first half. Every rotation of the result stays feasible. Built
    from these closed forms; the eight team counts used last are kept."""
    circle = _circle_rows(n)
    s, t = np.arange(2 * n - 2), np.arange(n)[:, None]
    home = np.where(t < n // 2, (2 * t <= s) & (s <= n + 2 * t - 2), (s < 2 * t - n + 2) | (s > 2 * t))
    home[n - 1] = s > n - 2
    return Schedule(n=n, opp=np.hstack([circle, circle]), home=home)


def rotate(sched: Schedule, m: int) -> Schedule:
    """Slot s of the result holds slot (s+m) mod (2n-2) of the input."""
    L = sched.num_slots
    if not 0 <= m <= L - 1:
        raise ScheduleError(f"rotation {m} out of range 0..{L - 1}")
    if m == 0:
        return sched
    opp, home = (np.concatenate((a[:, m:], a[:, :m]), axis=1) for a in (sched.opp_array, sched.home_array))
    return Schedule(n=sched.n, opp=opp, home=home)


def relabel(sched: Schedule, perm: Sequence[int]) -> Schedule:
    """Team perm[t] takes team t's row, with opponents mapped through perm."""
    n = sched.n
    if sorted(perm) != list(range(n)):
        raise ScheduleError("relabeling permutation must be a bijection on 0..n-1")
    p = np.asarray(perm, dtype=np.intp)
    opp, home = np.empty_like(sched.opp_array), np.empty_like(sched.home_array)
    opp[p] = p[sched.opp_array]
    home[p] = sched.home_array
    return Schedule(n=n, opp=opp, home=home)


def check_drr(sched: Schedule) -> list[Violation]:
    """Double-round-robin feasibility: consistent pairings with one home and
    one away side per game, and every ordered hosting exactly once."""
    out: list[Violation] = []
    n, L = sched.n, sched.num_slots
    for s in range(L):
        for t in range(n):
            o = sched.opp[t][s]
            if o == t or not 0 <= o < n:
                out.append(Violation("self_or_range", (t, s), f"team {t} has opponent {o} in slot {s}"))
                continue
            if sched.opp[o][s] != t:
                out.append(Violation("pairing", (t, s), f"slot {s}: team {t} lists {o} but {o} lists {sched.opp[o][s]}"))
            elif t < o and sched.home[t][s] == sched.home[o][s]:
                out.append(Violation("venue_clash", (t, o, s), f"slot {s}: teams {t} and {o} both {'home' if sched.home[t][s] else 'away'}"))
    hostings: dict[tuple[int, int], int] = {}
    for s in range(L):
        for t in range(n):
            o = sched.opp[t][s]
            if o == t or not 0 <= o < n:
                continue
            if sched.home[t][s]:
                key = (t, o)
                hostings[key] = hostings.get(key, 0) + 1
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = hostings.get((i, j), 0)
            if c != 1:
                out.append(Violation("hosting_count", (i, j), f"team {i} hosts {j} {c} times (want 1)"))
    return out


def check_mirrored(sched: Schedule) -> list[Violation]:
    """Slots s and s+n-1 (cyclically) must repeat pairings with venues swapped."""
    out: list[Violation] = []
    n, L = sched.n, sched.num_slots
    half = n - 1
    for t in range(n):
        for s in range(L):
            s2 = (s + half) % L
            if sched.opp[t][s] != sched.opp[t][s2]:
                out.append(Violation("mirror_opponent", (t, s), f"team {t}: slots {s} and {s2} pair different opponents"))
            elif sched.home[t][s] == sched.home[t][s2]:
                out.append(Violation("mirror_venue", (t, s), f"team {t}: slots {s} and {s2} repeat the same venue side"))
    return out


def check_no_repeater(sched: Schedule) -> list[Violation]:
    """No pair may meet in two consecutive slots."""
    out: list[Violation] = []
    for t in range(sched.n):
        for s in range(sched.num_slots - 1):
            if sched.opp[t][s] == sched.opp[t][s + 1] and t < sched.opp[t][s]:
                out.append(Violation("repeater", (t, sched.opp[t][s], s), f"teams {t} and {sched.opp[t][s]} meet in slots {s} and {s + 1}"))
    return out


def streak_stats(sched: Schedule) -> list[tuple[int, int]]:
    """Per team: (max consecutive home games, max consecutive away games)."""
    out = []
    for t in range(sched.n):
        best_h = best_a = cur_h = cur_a = 0
        for flag in sched.home[t]:
            if flag:
                cur_h += 1
                cur_a = 0
            else:
                cur_a += 1
                cur_h = 0
            best_h = max(best_h, cur_h)
            best_a = max(best_a, cur_a)
        out.append((best_h, best_a))
    return out


def _cell(sched: Schedule, t: int, s: int) -> str:
    return f"{sched.opp[t][s]}{'H' if sched.home[t][s] else 'A'}"


def render_schedule(sched: Schedule, fmt: str = "grid") -> str:
    """grid: slot-indexed table for humans. rows: one line per team,
    tokens like ``9H`` / ``0A``, machine round-trippable."""
    if fmt == "rows":
        return "\n".join(
            " ".join(_cell(sched, t, s) for s in range(sched.num_slots))
            for t in range(sched.n)
        ) + "\n"
    if fmt != "grid":
        raise ScheduleError(f"unknown format {fmt!r}")
    width = max(3, len(str(sched.n - 1)) + 1)
    header = "team\\slot " + " ".join(f"{s:>{width}}" for s in range(sched.num_slots))
    lines = [header]
    for t in range(sched.n):
        cells = " ".join(f"{_cell(sched, t, s):>{width}}" for s in range(sched.num_slots))
        lines.append(f"{t:>9} " + cells)
    return "\n".join(lines) + "\n"


def parse_schedule_rows(text: str) -> Schedule:
    """Inverse of render_schedule(..., "rows")."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = len(lines)
    if n < 4 or n % 2 != 0:
        raise ScheduleError(f"need an even team count >= 4, got {n} rows")
    L = 2 * n - 2
    opp, home = [[0] * L for _ in lines], [[False] * L for _ in lines]
    for t, tokens in enumerate(lines):
        if len(tokens) != L:
            raise ScheduleError(f"row {t} has {len(tokens)} tokens, want {L}")
        for s, tok in enumerate(tokens):
            side, digits = tok[-1].upper(), tok[:-1]  # ASCII only: "²".isdigit() holds, and int() reads "٣"
            if side not in ("H", "A") or not (digits.isascii() and digits.isdigit()):
                raise ScheduleError(f"bad cell {tok!r} at team {t} slot {s}")
            opp[t][s], home[t][s] = int(digits), side == "H"
            if opp[t][s] >= n:
                raise ScheduleError(f"opponent {opp[t][s]} out of range at team {t} slot {s}")
    return Schedule(n=n, opp=opp, home=home)
