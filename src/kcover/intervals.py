"""Interval geometry: sub-intervals, batches, instances and coverage state.

Everything here but the coverage state is immutable and pure; the other
modules build on these primitives.  Lengths are plain doubles; touching
pieces (gap within the global tolerance) merge into one covered component.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Optional, Sequence

from . import numeric
from .errors import SettingError, StructureError
from .thresholds import check_fl_cap, check_quota

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
        """Sum of the part lengths, which the unit-sum check reads.  Parts
        may overlap by up to EPS, so it can exceed the union length."""
        return sum(p.length for p in self.parts)

    @property
    def is_singleton(self) -> bool:
        return len(self.parts) == 1

    def runs(self) -> list[tuple[float, float]]:
        """(start, end) of each run of touching parts, left to right: in
        (start, end) order, a part starting at most EPS past the greatest
        end of the run before it joins that run, as :func:`prefix_unions`
        merges pieces.  Touching parts cover the one interval of their run,
        so a batch of one run places and scores as that interval.  Computed
        per call under the EPS in force, never cached."""
        eps = numeric.EPS
        runs: list[tuple[float, float]] = []
        for a, e in sorted((p.start, p.end) for p in self.parts):
            if runs and a <= runs[-1][1] + eps:
                runs[-1] = (runs[-1][0], max(runs[-1][1], e))
            else:
                runs.append((a, e))
        return runs

    def __repr__(self) -> str:
        return "Batch(" + ", ".join(repr(p) for p in self.parts) + ")"


def prefix_unions(pieces: Iterable[tuple[float, float]]) -> list[float]:
    """Union length of the first i pieces, for i = 0 up to the piece count.

    `pieces` are (end, start) pairs in non-decreasing end order, as sorting
    them gives.  Each piece ends last so far, so it merges exactly the
    trailing components whose end + EPS >= its start, into one component
    from their least start to its end.  The top component is held in locals
    as (start, end + EPS, length of the components left of it), the rest on
    a stack above a sentinel no piece reaches; each is pushed and popped at
    most once.  These are the comparisons and running sums of
    :meth:`CoverageState.apply`, so each total is the one it gives, bit for
    bit.
    The first total is the int 0, like ``CoverageState.sums[0]``.
    """
    eps = numeric.EPS
    totals = [0]
    stack: list[tuple[float, float, float]] = []
    push, pop, put = stack.append, stack.pop, totals.append
    top, reach, before = 0.0, float("-inf"), 0  # pushed first: the sentinel
    for b, a in pieces:
        if reach >= a:
            if top < a:
                a = top
            while stack[-1][1] >= a:
                a0, _, before = pop()
                if a0 < a:
                    a = a0
        else:
            push((top, reach, before))
            before = totals[-1]
        top, reach = a, b + eps
        put(before + (b - a))
    return totals


def union_length(batches: Sequence[Batch]) -> float:
    """Total covered length of the union of all parts of all batches."""
    return prefix_unions(sorted((p.end, p.start) for b in batches for p in b.parts))[-1]


class CoverageState:
    """Canonical disjoint-interval union of everything accepted so far.

    One kernel places an item: :meth:`place` returns its gain and the splice
    it was computed for, and :meth:`apply` absorbs that splice in place, so
    a decision places its item once.

    Component i is [starts[i], ends[i]]; components are sorted left to right
    and each starts more than EPS after the previous one ends.  ``reach[i]``
    is ``ends[i] + EPS`` under the EPS in force when the component was made.
    `sums` holds the left-to-right running sums of the component lengths
    (``sums[i]`` is the length of the first i components), so `total_len` is
    ``sums[-1]``.  ``sums[0]`` is the int 0, like ``sum()`` of nothing: a
    game that accepts nothing records its value as ``0`` in JSON, not ``0.0``.
    """

    __slots__ = ("starts", "ends", "reach", "sums")

    def __init__(self, starts: Iterable[float], ends: Iterable[float],
                 sums: Iterable[float]):
        self.starts, self.ends, self.sums = list(starts), list(ends), list(sums)
        self.reach = [end + numeric.EPS for end in self.ends]

    @classmethod
    def empty(cls) -> "CoverageState":
        return cls((), (), (0,))

    @property
    def total_len(self) -> float:
        return self.sums[-1]

    @property
    def component_count(self) -> int:
        return len(self.starts)

    def copy(self) -> "CoverageState":
        new = CoverageState.__new__(CoverageState)
        for name in self.__slots__:
            setattr(new, name, getattr(self, name)[:])
        return new

    def _locate(self, a: float, b: float) -> tuple[int, int, float, float]:
        """The splice for part [a, b]: the run [lo, hi) of components it
        touches, from the first whose end + EPS >= a up to the first whose
        start > b + EPS (both by bisection), and the one component spanning
        that run and the part."""
        starts = self.starts
        lo = bisect_left(self.reach, a)
        hi = bisect_right(starts, b + numeric.EPS, lo)
        if lo < hi:
            a = min(a, starts[lo])
            b = max(b, self.ends[hi - 1])
        return lo, hi, a, b

    def place(self, batch: Batch):
        """(gain, splice): the covered length `batch` would add, and the
        splice that :meth:`apply` absorbs it with while this state is
        unchanged.  A batch of one run (:meth:`Batch.runs`), one part or
        several touching ones, builds no state: it is placed as its run's
        interval, whose splice is the one its parts applied in turn end
        with, and the new total is summed from the splice point with
        :meth:`apply`'s additions, in one C-level ``reduce`` over the
        components right of the run (none for a run right of them all), so
        the gain is the change of ``total_len`` bit for bit.  A batch of
        several runs is spliced as a copy with its runs applied in turn."""
        parts, sums = batch.parts, self.sums
        if len(parts) > 1:
            (a, b), *rest = runs = batch.runs()
            if rest:
                new = self.copy()
                for a, b in runs:
                    new.apply(new._locate(a, b))
                return new.sums[-1] - sums[-1], new
        else:
            (p,) = parts
            a, b = p.start, p.end
        splice = lo, hi, a, b = self._locate(a, b)
        total = sums[lo] + (b - a)
        if hi < len(sums) - 1:
            total = reduce(add, map(sub, self.ends[hi:], self.starts[hi:]), total)
        return total - sums[-1], splice

    def apply(self, splice) -> None:
        """Absorb, in place, the item :meth:`place` returned `splice` for.

        The run is replaced by its spanning component and the running sums
        are recomputed from there on; a part right of every component is
        appended, so a left-to-right run costs O(log c) per part.  These
        are the comparisons of a merge of everything at once, so the state
        does not depend on arrival order, and its total is
        ``union_length`` of everything absorbed, bit for bit.
        """
        if splice.__class__ is CoverageState:
            self.starts, self.ends, self.reach, self.sums = (
                splice.starts, splice.ends, splice.reach, splice.sums
            )
            return
        lo, hi, a, b = splice
        starts, ends, reach, sums = self.starts, self.ends, self.reach, self.sums
        if lo == len(starts):
            starts.append(a)
            ends.append(b)
            reach.append(b + numeric.EPS)
            sums.append(sums[lo] + (b - a))
            return
        starts[lo:hi] = (a,)
        ends[lo:hi] = (b,)
        reach[lo:hi] = (b + numeric.EPS,)
        sums[lo + 1:] = accumulate(map(sub, ends[lo + 1:], starts[lo + 1:]),
                                   initial=sums[lo] + (b - a))


def absorb(state: CoverageState, batch: Batch) -> CoverageState:
    """New state after accepting `batch`; `state` is untouched."""
    new = state.copy()
    new.apply(new.place(batch)[1])
    return new


def added_length(state: CoverageState, batch: Batch) -> float:
    """Marginal covered length the batch would contribute to `state`: the
    gain of :meth:`CoverageState.place`, bit for bit
    ``absorb(state, batch).total_len - state.total_len``."""
    return state.place(batch)[0]


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


def end_rounding(end: float) -> float:
    """A few ulps of `end`: how far a length computed from endpoints that
    reach `end` may miss the length they were built from ([s, s + 1.0] has
    float length 1 only up to the rounding of s + 1.0)."""
    return 8 * math.ulp(end)


def off_unit_length(length: float, end: float) -> bool:
    """Whether a length computed from endpoints that reach `end` misses 1
    by more than EPS and by more than `end_rounding(end)`."""
    miss = abs(length - 1.0)
    return miss > numeric.EPS and miss > end_rounding(end)


def _check_item_shape(setting: Setting, batch: Batch, where: str) -> None:
    if setting.length == "US":
        if off_unit_length(batch.total_part_length, batch.parts[-1].end):
            raise SettingError(
                f"{where}: unit-sum batch has total length "
                f"{batch.total_part_length!r}"
            )
        return
    if not batch.is_singleton:
        raise SettingError(f"{where}: multi-part batch outside the US setting")
    length = batch.parts[0].length
    if setting.length == "UL":
        if off_unit_length(length, batch.parts[0].end):
            raise SettingError(f"{where}: unit-length item has length {length!r}")
    elif setting.length == "FL":
        # relative to m above 1: a length computed from endpoints near t*m
        # is off by about an ulp of t*m, past 1e-9 once m is in the millions
        m, slack = setting.m, end_rounding(batch.parts[0].end)
        if (length < 1.0 - max(numeric.EPS, slack)
                or length > m + max(numeric.EPS * max(1.0, m), slack)):
            raise SettingError(f"{where}: FL item length {length!r} outside [1, {m}]")
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
        if not self.items:
            raise SettingError("instance needs at least one item")
        check_quota(self.quota, self.n if self.setting.count == "UN" else None)
        for i, batch in enumerate(self.items):
            for p in batch.parts:
                if p.end > self.target_len + numeric.EPS:
                    raise SettingError(
                        f"items[{i}]: part {p} outside [0, {self.target_len}]"
                    )
            _check_item_shape(self.setting, batch, f"items[{i}]")

    @property
    def n(self) -> int:
        return len(self.items)
