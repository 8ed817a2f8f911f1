"""Interval geometry: sub-intervals, batches, instances and coverage state.

Everything here but the coverage state is immutable and pure; the other
modules build on these primitives.  Lengths are plain doubles; touching
pieces (gap within the global tolerance) merge into one covered component.
An instance is validated in one pass over its parts, and holds them as
read-only arrays too, built on first use, which the offline solvers read.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numeric
from .errors import SettingError, StructureError
from .thresholds import check_fl_cap, check_quota

LENGTH_SETTINGS = ("UL", "FL", "AL", "US")
COUNT_SETTINGS = ("UN", "AN")


@dataclass(frozen=True, slots=True)
class SubInterval:
    """Closed interval [start, end] with strictly positive, finite length."""

    start: float
    end: float

    def __post_init__(self):
        if not (self.start >= 0.0):
            raise StructureError(f"start {self.start!r} must be >= 0")
        if not (self.end > self.start):
            raise StructureError(
                f"interval [{self.start!r}, {self.end!r}] has non-positive length"
            )
        if self.end == math.inf:
            raise StructureError(f"interval [{self.start!r}, inf] has an infinite end")

    @property
    def length(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"[{self.start:g}, {self.end:g}]"


@dataclass(frozen=True, slots=True)
class Batch:
    """One released item: an ordered tuple of pairwise-disjoint sub-intervals.

    Outside the unit-sum setting every batch is a singleton.  Parts must be
    sorted by start and may touch but not overlap.
    """

    parts: tuple[SubInterval, ...]

    def __post_init__(self):
        if len(self.parts) == 1:  # no pair of parts to check
            return
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

    def place(self, batch: Batch):
        """(gain, splice): the covered length `batch` would add, and the
        splice that :meth:`apply` absorbs it with while this state is
        unchanged.  A batch of one run (:meth:`Batch.runs`), one part or
        several touching ones, builds no state: in this one frame, its
        run [a, b] touches components [lo, hi), the first whose end + EPS
        >= a up to the first whose start > b + EPS (both by bisection), and
        its splice (lo, hi, a, b) spans them and the run, as its parts
        applied in turn would.  The new total is summed from the splice
        point with :meth:`apply`'s additions, in one C-level ``reduce`` over
        the components right of the run, so the gain is the change of
        ``total_len`` bit for bit.  A batch of several runs is spliced as a
        copy that places and applies each run in turn as a one-part batch."""
        parts, sums = batch.parts, self.sums
        if len(parts) > 1:
            (a, b), *rest = runs = batch.runs()
            if rest:
                new = self.copy()
                for a, b in runs:
                    new.apply(new.place(Batch.single(a, b))[1])
                return new.sums[-1] - sums[-1], new
        else:
            a, b = parts[0].start, parts[0].end
        starts = self.starts
        lo = bisect_left(self.reach, a)
        hi = bisect_right(starts, b + numeric.EPS, lo)
        if lo < hi:  # min(a, starts[lo]) and max(b, ends[hi - 1]), bit for bit
            if starts[lo] < a:
                a = starts[lo]
            if self.ends[hi - 1] > b:
                b = self.ends[hi - 1]
        total = sums[lo] + (b - a)
        if hi < len(sums) - 1:
            total = reduce(add, map(sub, self.ends[hi:], starts[hi:]), total)
        return total - sums[-1], (lo, hi, a, b)

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


def integer_quota(q) -> int:
    """`q` as an int; a bool, or what ``operator.index`` refuses, is refused."""
    if isinstance(q, (bool, np.bool_)) or not hasattr(type(q), "__index__"):
        raise SettingError(f"quota must be an integer, got {q!r}")
    return operator.index(q)


@dataclass(frozen=True)
class Instance:
    """A full release sequence over the target [0, target_len] with quota."""

    target_len: float
    quota: int
    setting: Setting
    items: tuple[Batch, ...]

    def __post_init__(self):
        """One pass over the parts, item by item: every part ends in the
        target, and the item has the setting's shape.  A size computed from
        endpoints that reach an item's last end may miss the size it was
        built from by a few ulps of that end ([s, s + 1.0] has float length
        1 only up to the rounding of s + 1.0), so a size is refused only if
        it misses by more than EPS and by more than 8 ulps of that end."""
        target, kind, m = self.target_len, self.setting.length, self.setting.m
        if not target > 0.0:
            raise SettingError("target_len must be positive")
        if target == math.inf:
            raise SettingError("target_len must be finite, got inf")
        if not self.items:
            raise SettingError("instance needs at least one item")
        object.__setattr__(self, "quota", integer_quota(self.quota))  # a plain int, as files hold
        check_quota(self.quota, self.n if self.setting.count == "UN" else None)
        eps = numeric.EPS
        reach = target + eps
        if kind == "FL":
            # relative to m > 1: a length computed from endpoints near t*m
            # is off by about an ulp of t*m, past 1e-9 once m is in the millions
            low, high = 1.0 - eps, m + eps * m
        for i, parts in enumerate([b.parts for b in self.items]):
            for p in parts:
                if p.end > reach:
                    raise SettingError(f"items[{i}]: part {p} outside [0, {target}]")
            if kind == "US":  # the parts' summed lengths, not their union's
                size = sum(q.end - q.start for q in parts)
            elif len(parts) > 1:
                raise SettingError(f"items[{i}]: multi-part batch outside the US setting")
            else:
                size = p.end - p.start
            if kind == "FL":  # size < 1 - max(EPS, 8 ulps), bit for bit; so above
                if (size < low and size < 1.0 - 8 * math.ulp(p.end)
                        or size > high and size > m + 8 * math.ulp(p.end)):
                    raise SettingError(f"items[{i}]: FL item length {size!r} outside [1, {m}]")
            elif kind != "AL":
                miss = abs(size - 1.0)
                if miss > eps and miss > 8 * math.ulp(p.end):
                    what = "unit-sum batch has total" if kind == "US" else "unit-length item has"
                    raise SettingError(f"items[{i}]: {what} length {size!r}")

    @cached_property
    def part_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Starts and ends of every part, item by item, as read-only float64
        arrays: built on first read and kept, outside ``==``, ``hash`` and
        ``repr``.  They hold n parts exactly when every item has one."""
        parts = [p for b in self.items for p in b.parts]
        starts = np.array([p.start for p in parts])
        ends = np.array([p.end for p in parts])
        starts.flags.writeable = ends.flags.writeable = False
        return starts, ends

    @property
    def n(self) -> int:
        return len(self.items)
