"""Interval geometry: sub-intervals, batches, instances and coverage state.

Everything here is immutable and pure; the other modules build on these
primitives.  Lengths are plain doubles; touching pieces (gap within the
global tolerance) merge into one covered component.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Iterable, Optional, Sequence

from . import numeric
from .errors import SettingError, StructureError
from .thresholds import check_fl_cap

LENGTH_SETTINGS = ("UL", "FL", "AL", "US")
COUNT_SETTINGS = ("UN", "AN")


@dataclass(frozen=True)
class SubInterval:
    """Closed interval [start, end] with strictly positive length."""

    start: float
    end: float

    def __post_init__(self):
        if not (self.start >= 0.0):
            raise StructureError(f"start {self.start!r} must be >= 0")
        if not (self.end > self.start):
            raise StructureError(
                f"interval [{self.start!r}, {self.end!r}] has non-positive length"
            )

    @property
    def length(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"[{self.start:g}, {self.end:g}]"


@dataclass(frozen=True)
class Batch:
    """One released item: an ordered tuple of pairwise-disjoint sub-intervals.

    Outside the unit-sum setting every batch is a singleton.  Parts must be
    sorted by start and may touch but not overlap.
    """

    parts: tuple[SubInterval, ...]

    def __post_init__(self):
        if not self.parts:
            raise StructureError("batch needs at least one part")
        for prev, cur in zip(self.parts, self.parts[1:]):
            if cur.start < prev.end - numeric.EPS:
                raise StructureError(
                    f"batch parts overlap or are unsorted: {prev} then {cur}"
                )

    @classmethod
    def single(cls, start: float, end: float) -> "Batch":
        return cls((SubInterval(start, end),))

    @property
    def total_part_length(self) -> float:
        """Sum of part lengths (equals the union length; parts are disjoint)."""
        return sum(p.length for p in self.parts)

    @property
    def is_singleton(self) -> bool:
        return len(self.parts) == 1

    def __repr__(self) -> str:
        return "Batch(" + ", ".join(repr(p) for p in self.parts) + ")"


def union_length(batches: Sequence[Batch]) -> float:
    """Total covered length of the union of all parts of all batches."""
    return CoverageState.of(p for b in batches for p in b.parts).total_len


@dataclass(frozen=True)
class CoverageState:
    """Canonical disjoint-interval union of everything accepted so far.

    Component i is [starts[i], ends[i]]; components are sorted left to right
    and each starts more than EPS after the previous one ends.  `sums` holds
    the left-to-right running sums of the component lengths (``sums[i]`` is
    the length of the first i components), so `total_len` is ``sums[-1]``.
    ``sums[0]`` is the int 0, like ``sum()`` of nothing: a game that
    accepts nothing records its value as ``0`` in JSON, not ``0.0``.
    """

    starts: tuple[float, ...]
    ends: tuple[float, ...]
    sums: tuple[float, ...]

    @classmethod
    def empty(cls) -> "CoverageState":
        return cls((), (), (0,))

    @classmethod
    def of(cls, parts: Iterable[SubInterval]) -> "CoverageState":
        """Sort-and-sweep merge; pieces whose gap is within EPS become one."""
        eps = numeric.EPS
        starts: list[float] = []
        ends: list[float] = []
        for a, b in sorted((p.start, p.end) for p in parts):
            if ends and a <= ends[-1] + eps:
                if b > ends[-1]:
                    ends[-1] = b
            else:
                starts.append(a)
                ends.append(b)
        sums = tuple(accumulate(map(sub, ends, starts), initial=0))
        return cls(tuple(starts), tuple(ends), sums)

    @property
    def total_len(self) -> float:
        return self.sums[-1]

    @property
    def component_count(self) -> int:
        return len(self.starts)

    @property
    def components(self) -> tuple[SubInterval, ...]:
        return tuple(SubInterval(a, b) for a, b in zip(self.starts, self.ends))


def absorb(state: CoverageState, batch: Batch) -> CoverageState:
    """New canonical state after accepting `batch`; `state` is untouched.

    Each part [a, b] touches the run of components from the first whose
    end + EPS >= a up to, not including, the first whose start > b + EPS;
    both ends are found by bisection, and the run is spliced out for one
    component spanning it and the part.  These are the comparisons the
    sort-and-sweep merge of :meth:`CoverageState.of` makes, so the result
    is the same, bit for bit.  Running sums are recomputed only from the
    leftmost splice onward: for parts arriving left to right that is the
    tail alone.
    """
    eps = numeric.EPS
    starts, ends = state.starts, state.ends
    first = len(starts)
    for p in batch.parts:
        a, b = p.start, p.end
        lo = bisect_left(ends, a, key=lambda end: end + eps)
        hi = bisect_right(starts, b + eps, lo)
        if lo < hi:
            a = min(a, starts[lo])
            b = max(b, ends[hi - 1])
        starts = starts[:lo] + (a,) + starts[hi:]
        ends = ends[:lo] + (b,) + ends[hi:]
        first = min(first, lo)
    tail = accumulate(map(sub, ends[first:], starts[first:]), initial=state.sums[first])
    return CoverageState(starts, ends, state.sums[:first] + tuple(tail))


def added_length(state: CoverageState, batch: Batch) -> float:
    """Marginal covered length the batch would contribute to `state`."""
    return absorb(state, batch).total_len - state.total_len


@dataclass(frozen=True)
class Setting:
    """Length regime (UL / FL / AL / US, with FL range cap m) plus whether
    the total release count is known (UN) or not (AN)."""

    length: str
    count: str
    m: Optional[float] = None

    def __post_init__(self):
        if self.length not in LENGTH_SETTINGS:
            raise SettingError(f"unknown length setting {self.length!r}")
        if self.count not in COUNT_SETTINGS:
            raise SettingError(f"unknown count setting {self.count!r}")
        if self.length == "FL":
            check_fl_cap(self.m)
        elif self.m is not None:
            raise SettingError(f"m is only meaningful in FL, got m={self.m!r}")

    def label(self) -> str:
        return f"{self.length}-{self.count}"


def _check_item_shape(setting: Setting, batch: Batch, where: str) -> None:
    if setting.length == "US":
        if abs(batch.total_part_length - 1.0) > numeric.EPS:
            raise SettingError(
                f"{where}: unit-sum batch has total length "
                f"{batch.total_part_length!r}"
            )
        return
    if not batch.is_singleton:
        raise SettingError(f"{where}: multi-part batch outside the US setting")
    length = batch.parts[0].length
    if setting.length == "UL":
        if abs(length - 1.0) > numeric.EPS:
            raise SettingError(f"{where}: unit-length item has length {length!r}")
    elif setting.length == "FL":
        # relative to m above 1: a length computed from endpoints near t*m
        # is off by about an ulp of t*m, past 1e-9 once m is in the millions
        m = setting.m
        if length < 1.0 - numeric.EPS or length > m + numeric.EPS * max(1.0, m):
            raise SettingError(
                f"{where}: FL item length {length!r} outside [1, {setting.m}]"
            )
    # AL: any positive length.


@dataclass(frozen=True)
class Instance:
    """A full release sequence over the target [0, target_len] with quota."""

    target_len: float
    quota: int
    setting: Setting
    items: tuple[Batch, ...]

    def __post_init__(self):
        if not self.target_len > 0.0:
            raise SettingError("target_len must be positive")
        if self.quota < 2:
            raise SettingError(f"quota must be >= 2, got {self.quota}")
        if not self.items:
            raise SettingError("instance needs at least one item")
        for i, batch in enumerate(self.items):
            for p in batch.parts:
                if p.start < -numeric.EPS or p.end > self.target_len + numeric.EPS:
                    raise SettingError(
                        f"items[{i}]: part {p} outside [0, {self.target_len}]"
                    )
            _check_item_shape(self.setting, batch, f"items[{i}]")
        if self.setting.count == "UN" and len(self.items) < self.quota + 1:
            raise SettingError(
                f"UN instance needs n >= k+1, got n={len(self.items)} k={self.quota}"
            )

    @property
    def n(self) -> int:
        return len(self.items)
