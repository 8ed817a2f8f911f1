"""Exact offline baselines: a dynamic program over end-sorted items and a
subset-enumeration oracle used to verify it.

The DP processes sub-intervals in non-decreasing end order.  For each item
it knows the deepest-overlapping predecessor (the intersecting item with
the left-most start) and the nearest disjoint predecessor, and combines two
value tables.  Items intersect when they touch within EPS, as
:func:`~kcover.intervals.union_length` merges pieces.

* ``chi[i][j]``   -- best coverage using at most j accepts from the first i
                     sorted items;
* ``kappa[i][j]`` -- same, but item i itself must be accepted.

The intersecting transition must recurse through ``kappa`` so that the
subtracted overlap is actually covered by the accepted predecessor; with one
accept there is no accepted predecessor, so column 1 never takes it.  Item
i is either rejected or accepted, so ``chi[i][j] = max(chi[i-1][j],
kappa[i][j])`` once i > j; a tie keeps the rejection.  The DP stores the
two value tables and nothing else: backtracking re-derives every choice
from them with the fill's own additions and comparisons.

In column j, rows i <= j accept all of the first i items, so they hold the
prefix unions: the union length of the first i sorted items, which
:func:`~kcover.intervals.prefix_unions` gives in one O(n) pass.  Column j
depends only on column j-1, so each table is filled one quota column at a
time by numpy operations over all n items.  Columns past n would repeat
column n, so the solver stops there.  Tables are stored ``(q+1) x (n+1)``,
contiguous per column, and handed out as float64 ``.T`` views indexed
``[i][j]``.  IEEE add and max are exact, so every cell equals what a
cell-by-cell loop computes.

The enumeration oracle merges each item's own touching parts, sorts all
parts of all items once and scores a block of subsets at a time: each row
merges the parts its subset keeps with numpy operations over all rows.  It
finds the components ``union_length`` finds and adds their lengths in the
same left-to-right order, so every score equals ``union_length`` of that
subset bit for bit; the first maximum in ``itertools.combinations`` order
wins, as in a plain loop over subsets.  Blocks hold at most
``_BLOCK_ROWS`` subsets, so memory does not grow with C(n, k).
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numeric
from .errors import SettingError, SizeGuardError
from .intervals import Instance, off_unit_length, prefix_unions, union_length


@dataclass(frozen=True)
class SortedInstance:
    """Items of a singleton-batch instance, sorted by (end, start, index)."""

    order: list[int]            # sorted position -> original index
    starts: list[float]         # in sorted order
    ends: list[float]


def _refuse_batches(inst: Instance, caller: str) -> None:
    """Refuse multi-part batches; `caller` is named in the error."""
    for i, b in enumerate(inst.items):
        if not b.is_singleton:
            raise SettingError(
                f"{caller} works on plain sub-intervals; items[{i}] is a "
                "multi-part batch -- use brute_force_offline for unit-sum input"
            )


def _sort_instance(inst: Instance, caller: str) -> SortedInstance:
    """The sorted items; `caller` is named in the multi-part batch error.

    One pass takes each item's one part, and fails on a multi-part batch.
    ``np.lexsort`` is stable, so items with equal (end, start) keep their
    release order, the index tie-break.
    """
    try:
        ivs = [part for (part,) in [b.parts for b in inst.items]]
    except ValueError:
        _refuse_batches(inst, caller)
        raise
    starts = np.array([p.start for p in ivs])
    ends = np.array([p.end for p in ivs])
    order = np.lexsort((starts, ends))
    return SortedInstance(order.tolist(), starts[order].tolist(), ends[order].tolist())


def build_predecessors(s: SortedInstance) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """For each sorted item i return (psi, phi), both 0-based or None.

    psi(i): among j < i intersecting item i (end + EPS >= start of i) with
    a strictly smaller start, the one with the left-most start (ties:
    smallest index).
    phi(i): among j < i disjoint from item i (end + EPS < start of i), the
    one ending closest to it (ties: smallest index).

    Ends are sorted, so the intersecting predecessors are a suffix t..i-1
    of the items before i, found by bisecting ``end + EPS`` as
    :class:`~kcover.intervals.CoverageState` bisects its ``reach``.
    `minima` holds every j < i whose start is strictly below all later
    starts; its first entry >= t is the suffix's left-most start, the
    smallest index among equal starts.
    """
    starts, ends = s.starts, s.ends
    eps = numeric.EPS
    reach = [end + eps for end in ends]
    psi: list[Optional[int]] = [None] * len(starts)
    phi: list[Optional[int]] = [None] * len(starts)
    minima: list[int] = []
    for i, o_i in enumerate(starts):
        t = bisect_left(reach, o_i, 0, i)  # first predecessor with end + EPS >= o_i
        if t <= i - 1:
            q = minima[bisect_left(minima, t)]
            if starts[q] < o_i:
                psi[i] = q
        if t >= 1:  # the first of the ends equal to the nearest one
            phi[i] = bisect_left(ends, ends[t - 1], 0, t - 1)
        while minima and starts[minima[-1]] > o_i:
            minima.pop()
        minima.append(i)
    return psi, phi


def _index(preds: list[Optional[int]]) -> np.ndarray:
    """Table rows of the predecessors: p+1, or row 0 when p is absent."""
    return np.array([0 if p is None else p + 1 for p in preds], dtype=np.intp)


def _dp_tables(s: SortedInstance, q: int):
    """Fill chi and kappa; return their ``[i][j]`` views and the two
    transitions of ``kappa``, each as (predecessor rows, length item i
    adds): the disjoint one through ``chi[phi+1][j-1]`` and the
    intersecting one through ``kappa[psi+1][j-1]``.

    ``kappa[i][j]`` takes the intersecting transition where it wins
    strictly, and only from j == 2 on: column 0 is zero, and at j == 1 item
    i stands alone.  Rows up to j of column j of ``chi`` are the prefix
    unions.  The row of predecessor p is p+1, or 0 when p is absent.
    """
    n = len(s.order)
    psi, phi = build_predecessors(s)
    pref = np.array(prefix_unions(zip(s.ends, s.starts)), dtype=float)

    starts, ends = np.array(s.starts), np.array(s.ends)
    sizes = ends - starts
    phi1, psi1 = _index(phi), _index(psi)
    # psi ends past item i's start or at most EPS before it; without psi,
    # -inf never wins.
    rest = np.where(psi1 > 0, sizes - (ends[psi1 - 1] - starts), -np.inf)

    chi = np.zeros((q + 1, n + 1))
    kappa = np.zeros((q + 1, n + 1))
    for j in range(1, q + 1):
        col = kappa[j, 1:]
        chi[j - 1].take(phi1, out=col)
        col += sizes
        if j > 1:
            cand = kappa[j - 1].take(psi1)
            cand += rest
            np.maximum(col, cand, out=col)
        col = chi[j]
        col[: j + 1] = pref[: j + 1]
        if j < n:  # max(reject, accept) down the column
            col[j + 1:] = kappa[j, j + 1:]
            np.maximum.accumulate(col[j:], out=col[j:])

    return chi.T, kappa.T, (phi1, sizes), (psi1, rest)


def _quota(inst: Instance, quota: Optional[int]) -> int:
    """The quota a solver runs at: `quota`, or the instance's own when None,
    capped at n.  Coverage is monotone, so n accepts take every item: a DP
    column past n repeats column n, and no subset is larger than n."""
    q = inst.quota if quota is None else quota
    if q < 0:
        raise SettingError(f"quota must be >= 0, got {q}")
    return min(q, inst.n)


def solve_offline(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Optimal coverage with at most `quota` accepts, plus achieving indices.

    Works for any singleton-batch instance (UL, FL, AL).  Multi-part
    unit-sum batches are rejected; use :func:`brute_force_offline` there.
    """
    q = _quota(inst, quota)
    if q == 0:
        return 0.0, ()
    s = _sort_instance(inst, "solve_offline")
    chi, kappa, (phi1, sizes), (psi1, rest) = _dp_tables(s, q)
    n = inst.n

    # Walk back from chi[n][q]; in_chi says which table the cell is in.  From
    # row j on, column j of chi is the running maximum of kappa's, so row i
    # accepts its item exactly where the column rises: walking back from row
    # i, the walk stops at the first row that reaches chi[i][j], which
    # bisection finds.
    cols = chi.T
    chosen: list[int] = []
    i, j, in_chi = n, q, True
    while i > 0:
        if in_chi:
            if i > j:
                col = cols[j]
                i = bisect_left(col, col[i], j, i)
            if i <= j:
                chosen.extend(range(i))
                break
        item = i - 1  # at kappa[i][j]: item i is accepted
        chosen.append(item)
        if j == 1:
            break
        # the fill's own sums: a tie keeps the disjoint transition, through chi
        f, p = phi1[item], psi1[item]
        in_chi = chi[f, j - 1] + sizes[item] >= kappa[p, j - 1] + rest[item]
        i = int(f if in_chi else p)
        j -= 1
    picked = tuple(sorted(s.order[t] for t in chosen))
    return float(chi[n, q]), picked


def solve_offline_unit(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """The offline optimum of a unit-length instance: :func:`solve_offline`,
    after refusing multi-part batches and items that are not unit-length."""
    _refuse_batches(inst, "solve_offline_unit")
    for i, b in enumerate(inst.items):
        if off_unit_length(b.parts[0].length, b.parts[0].end):
            raise SettingError(
                f"solve_offline_unit needs unit-length items; items[{i}] has "
                f"length {b.parts[0].length!r}"
            )
    # bench/workloads.py and bench/tracer.py still call this name
    return solve_offline(inst, quota)


# Most items the enumeration takes; C(20, 10) is 184,756 subsets.
_MAX_N = 20

# Most subsets the enumeration scores in one block: it bounds the scorer's
# memory at every n up to the guard.
_BLOCK_ROWS = 1024


def _combination_blocks(n: int, r: int):
    """Every r-subset of range(n) in ``itertools.combinations`` order, as
    bool masks of shape (n, rows) with at most ``_BLOCK_ROWS`` rows each:
    ``mask[i, row]`` says whether the row's subset holds item i.  An
    enumeration that fits in one block is built once and cached."""
    if math.comb(n, r) <= _BLOCK_ROWS:
        return _single_block(n, r)
    return _mask_blocks(n, r, _BLOCK_ROWS)


@functools.cache
def _single_block(n: int, r: int) -> tuple[np.ndarray]:
    (mask,) = _mask_blocks(n, r, _BLOCK_ROWS)
    mask.setflags(write=False)
    return (mask,)


def _mask_blocks(n: int, r: int, rows: int):
    combos = itertools.combinations(range(n), r)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, rows))
        picks = np.fromiter(flat, dtype=np.intp).reshape(-1, r)
        if not len(picks):
            return
        mask = np.zeros((n, len(picks)), dtype=bool)
        mask[picks.T, np.arange(len(picks))] = True
        yield mask


def _block_totals(keep: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Union length of the parts each subset keeps, for every subset.

    Parts are sorted by (start, end), and ``keep[c, row]`` says whether the
    row's subset keeps part c.  Every row merges its own parts in start
    order: the reach is the running maximum end, a component opens where a
    kept part starts more than EPS past the reach before it, and a
    component's length is the reach where the next one opens (or at the
    end) minus its start.  These are the components that
    :func:`~kcover.intervals.prefix_unions` builds from the same parts in
    end order, and their lengths are added left to right as there, 0.0 for
    every part that closes nothing; adding 0.0 is exact, so each total is
    ``union_length``'s bit for bit.  Running maxima and sums go part by
    part, each step over all rows at once.
    """
    parts, rows = keep.shape
    reach = np.full((parts + 1, rows), -np.inf)  # row c + 1: reach after part c
    np.copyto(reach[1:], ends[:, None], where=keep)
    for c in range(2, parts + 1):
        np.maximum(reach[c - 1], reach[c], out=reach[c])
    before, reach = reach[:-1], reach[1:]
    opens = keep & (starts[:, None] > before + numeric.EPS)
    # start of each part's component; starts[0], the least, before any opens
    first = np.where(opens, starts[:, None], starts[0])
    for c in range(1, parts):
        np.maximum(first[c - 1], first[c], out=first[c])
    closes = opens[1:] & (before[1:] > -np.inf)
    total = np.zeros(rows)
    for length in np.where(closes, before[1:] - first[:-1], 0.0):
        total += length
    total += reach[-1] - first[-1]
    return total


def _merged_parts(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, ends and owning items of the parts the enumeration scores,
    sorted by (start, end, owner).  Each item's own parts are merged first
    where they touch within EPS (in (start, end) order, a part starting at
    most EPS past the run's greatest end joins the run), as
    :func:`~kcover.intervals.prefix_unions` merges pieces.

    A merged run lies inside one component of every subset that keeps its
    item, and that component has the same least start and greatest end: no
    part of the run but the first can open a component, and no other part
    starting after the run's first part and by its last can open one
    either.  So every subset's components stay the same, and
    :func:`_block_totals` gives the same totals bit for bit with fewer
    ``+ 0.0`` terms.
    """
    eps = numeric.EPS
    parts = []
    for i, b in enumerate(inst.items):
        runs: list[list[float]] = []
        for a, e in sorted((p.start, p.end) for p in b.parts):
            if runs and a <= runs[-1][1] + eps:
                runs[-1][1] = max(runs[-1][1], e)
            else:
                runs.append([a, e])
        parts.extend((a, e, i) for a, e in runs)
    parts.sort()
    return tuple(np.array(col) for col in zip(*parts))


def brute_force_offline(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum by enumerating all quota-sized subsets.

    Handles unit-sum batches natively; more than ``_MAX_N`` items raise
    :class:`SizeGuardError`.  Coverage is monotone, so only subsets of size
    min(quota, n) need to be checked.  The subsets are scored a block at a
    time by :func:`_block_totals` on the parts of :func:`_merged_parts`,
    whose totals equal ``union_length`` bit for bit; the first maximum in
    enumeration order wins, and its value is ``union_length`` of the picks.
    """
    q = _quota(inst, quota)
    n = inst.n
    if n > _MAX_N:
        raise SizeGuardError(f"n={n} exceeds the enumeration guard max_n={_MAX_N}")
    if q == 0:
        return 0.0, ()
    starts, ends, owner = _merged_parts(inst)
    best_val = -np.inf
    best_set: tuple[int, ...] = ()
    for mask in _combination_blocks(n, q):
        totals = _block_totals(mask[owner], starts, ends)
        row = int(np.argmax(totals))
        if totals[row] > best_val:
            best_val = totals[row]
            best_set = tuple(np.flatnonzero(mask[:, row]).tolist())
    return union_length([inst.items[i] for i in best_set]), best_set
