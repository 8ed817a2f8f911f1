"""Exact offline baselines: a dynamic program over end-sorted items and a
subset-enumeration oracle used to verify it.

The DP processes sub-intervals in non-decreasing end order.  For each item
it knows the deepest-overlapping predecessor (the intersecting item with
the left-most start) and the nearest disjoint predecessor, and combines two
value tables:

* ``chi[i][j]``   -- best coverage using at most j accepts from the first i
                     sorted items;
* ``kappa[i][j]`` -- same, but item i itself must be accepted.

The intersecting transition must recurse through ``kappa`` so that the
subtracted overlap is actually covered by the accepted predecessor.  Item i
is either rejected or accepted, so ``chi[i][j] = max(chi[i-1][j],
kappa[i][j])`` once i > j; a tie keeps the rejection.  Besides the two value
tables the DP stores one byte per cell, set when ``kappa`` took the
intersecting transition; backtracking re-derives every other choice from
the tables.

In column j, rows i <= j accept all of the first i items, so they hold the
prefix unions: the union length of the first i sorted items.  One pass
with a stack of components gives them all in O(n): every item ends at or
after all earlier ones, so it can only merge the components on top of the
stack.  Column j depends only on column j-1, so each table is filled one
quota column at a time by numpy operations over all n items.  Columns past
n would repeat column n, so the solvers stop there.  Tables are stored
``(q+1) x (n+1)``, contiguous per column; ``DpContext`` holds float64 ``.T``
views indexed ``[i][j]``.  IEEE add and max are exact, so every cell equals
what a cell-by-cell loop computes.

The enumeration oracle sorts all parts of all items once and scores a block
of subsets at a time: each row replays the sort-and-sweep merge of
``union_length`` on the parts its subset keeps, with numpy operations over
all rows.  It adds the component lengths in the same order, so every score
equals ``union_length`` of that subset bit for bit; the first maximum in
``itertools.combinations`` order wins, as in a plain loop over subsets.
Blocks hold at most ``_BLOCK_ROWS`` subsets, so memory does not grow with
C(n, k).
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numeric
from .errors import SettingError, SizeGuardError
from .intervals import Instance, union_length


@dataclass(frozen=True)
class SortedInstance:
    """Items of a singleton-batch instance, sorted by (end, start, index)."""

    base: Instance
    order: tuple[int, ...]          # sorted position -> original index
    starts: tuple[float, ...]       # in sorted order
    ends: tuple[float, ...]


@dataclass
class DpContext:
    """Predecessor maps and filled value tables, exposed for inspection."""

    psi: list[Optional[int]]        # 0-based sorted indices, None when absent
    phi: list[Optional[int]]
    chi: np.ndarray                 # (n+1) x (q+1) view; chi[i][j] over first i items
    kappa: np.ndarray


def _sort_instance(inst: Instance, caller: str) -> SortedInstance:
    """sort_instance, with `caller` named in the multi-part batch error."""
    for i, b in enumerate(inst.items):
        if not b.is_singleton:
            raise SettingError(
                f"{caller} works on plain sub-intervals; items[{i}] is a "
                "multi-part batch -- use brute_force_offline for unit-sum input"
            )
    ivs = [b.parts[0] for b in inst.items]
    order = tuple(
        sorted(range(len(ivs)), key=lambda i: (ivs[i].end, ivs[i].start, i))
    )
    starts = tuple(ivs[i].start for i in order)
    ends = tuple(ivs[i].end for i in order)
    return SortedInstance(inst, order, starts, ends)


def sort_instance(inst: Instance) -> SortedInstance:
    return _sort_instance(inst, "sort_instance")


def _first_equal_end(ends: tuple[float, ...], idx: int) -> int:
    """Smallest index whose end equals ends[idx] (ends are sorted)."""
    return bisect_left(ends, ends[idx], 0, idx)


def build_predecessors(s: SortedInstance) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """For each sorted item i return (psi, phi), both 0-based or None.

    psi(i): among j < i intersecting item i (end >= start of i) with a
    strictly smaller start, the one with the left-most start (ties:
    smallest index).
    phi(i): among j < i disjoint from item i (end < start of i), the one
    ending closest to it (ties: smallest index).

    Ends are sorted, so the intersecting predecessors are a suffix t..i-1
    of the items before i.  `minima` holds every j < i whose start is
    strictly below all later starts; its first entry >= t is the suffix's
    left-most start, the smallest index among equal starts.
    """
    n = len(s.order)
    psi: list[Optional[int]] = [None] * n
    phi: list[Optional[int]] = [None] * n
    minima: list[int] = []
    for i in range(n):
        o_i = s.starts[i]
        t = bisect_left(s.ends, o_i, 0, i)  # first predecessor with end >= o_i
        if t <= i - 1:
            q = minima[bisect_left(minima, t)]
            if s.starts[q] < o_i:
                psi[i] = q
        if t >= 1:
            phi[i] = _first_equal_end(s.ends, t - 1)
        while minima and s.starts[minima[-1]] > o_i:
            minima.pop()
        minima.append(i)
    return psi, phi


def _fill_column(out, flags, j, a, ia, base_a, b, ib, base_b) -> None:
    """Column j of table ``out``: the larger of ``base_a + a[j-1][ia]`` and
    ``base_b + b[j-1][ib]`` in every row but row 0, with ``flags[j]`` set
    where the second wins strictly."""
    col = out[j, 1:]
    a[j - 1].take(ia, out=col)
    col += base_a
    cand = b[j - 1].take(ib)
    cand += base_b
    np.greater(cand, col, out=flags[j, 1:])
    np.maximum(col, cand, out=col)


def _index(preds: list[Optional[int]]) -> np.ndarray:
    """Table rows of the predecessors: p+1, or row 0 when p is absent."""
    return np.array([0 if p is None else p + 1 for p in preds], dtype=np.intp)


def _prefix_unions(starts, ends) -> np.ndarray:
    """Union length of the first i end-sorted items, for i = 0..n.

    Every item ends at or after every earlier one, so it touches exactly
    the trailing components whose end + EPS >= its start, and no component
    ends past it.  A stack holds the components as (start, end, length of
    the components before it); the item pops the ones it touches, takes the
    least start, and pushes one component.  These are the comparisons,
    splice and running sum of :func:`absorb`, so every total is the one
    ``absorb`` gives, bit for bit, and each item is pushed and popped once.
    """
    eps = numeric.EPS
    pref = np.zeros(len(starts) + 1)
    stack: list[tuple[float, float, float]] = []
    total = 0.0
    for i, (a, b) in enumerate(zip(starts, ends), 1):
        before = total
        while stack and stack[-1][1] + eps >= a:
            a0, _, before = stack.pop()
            a = min(a, a0)
        stack.append((a, b, before))
        total = before + (b - a)
        pref[i] = total
    return pref


def _dp_tables(s: SortedInstance, quota: int):
    """Fill chi/kappa and the flags that backtracking needs.

    ``via_psi[i][j]`` is True when ``kappa[i][j]`` took the intersecting
    transition through ``kappa[psi+1][j-1]`` (it must beat the disjoint one
    through ``chi[phi+1][j-1]`` strictly); column 0 is zero, so at j == 1
    item i stands alone.  ``chi`` needs no flags: it rejects item i exactly
    when ``chi[i-1][j] >= kappa[i][j]``.  Rows up to j of column j are the
    prefix unions, from :func:`_prefix_unions` in O(n).
    """
    n = len(s.order)
    psi, phi = build_predecessors(s)
    pref = _prefix_unions(s.starts, s.ends)

    starts, ends = np.array(s.starts), np.array(s.ends)
    sizes = ends - starts
    phi1, psi1 = _index(phi), _index(psi)
    # psi ends inside item i, past its start; without psi, -inf never wins.
    rest = np.where(psi1 > 0, sizes - (ends[psi1 - 1] - starts), -np.inf)

    q = quota
    chi = np.zeros((q + 1, n + 1))
    kappa = np.zeros((q + 1, n + 1))
    via_psi = np.zeros((q + 1, n + 1), dtype=bool)
    for j in range(1, q + 1):
        _fill_column(kappa, via_psi, j, chi, phi1, sizes, kappa, psi1, rest)
        col = chi[j]
        col[: j + 1] = pref[: j + 1]
        if j < n:  # max(reject, accept) down the column
            col[j + 1:] = kappa[j, j + 1:]
            np.maximum.accumulate(col[j:], out=col[j:])

    return DpContext(psi, phi, chi.T, kappa.T), via_psi.T


def dp_context(inst: Instance) -> DpContext:
    """Run the DP at the instance's quota and expose its tables for tests."""
    return _dp_tables(sort_instance(inst), inst.quota)[0]


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
    ctx, via_psi = _dp_tables(s, q)
    chi, kappa = ctx.chi, ctx.kappa
    n = inst.n

    # Walk back from chi[n][q]; in_chi says which table the cell is in.
    chosen: list[int] = []
    i, j, in_chi = n, q, True
    while i > 0:
        if in_chi:
            if i <= j:
                chosen.extend(range(i))
                break
            if chi[i - 1, j] >= kappa[i, j]:
                i -= 1
                continue
        item = i - 1  # at kappa[i][j]: item i is accepted
        chosen.append(item)
        if j == 1:
            break
        if via_psi[i, j]:
            i, in_chi = ctx.psi[item] + 1, False
        else:
            f = ctx.phi[item]
            i, in_chi = (0 if f is None else f + 1), True
        j -= 1
    picked = tuple(sorted(s.order[t] for t in chosen))
    return float(chi[n, q]), picked


def _unit_predecessors(s: SortedInstance):
    """lam/mu for the unit-length DP, both 0-based sorted indices or None.

    lam(i): deepest-overlapping predecessor (smallest end with end within one
    unit of item i's end); mu(i): nearest predecessor at least one unit away.
    """
    n = len(s.order)
    lam: list[Optional[int]] = [None] * n
    mu: list[Optional[int]] = [None] * n
    for i in range(n):
        d_i = s.ends[i]
        t = bisect_left(s.ends, d_i - 1.0 - numeric.EPS, 0, i)
        if t <= i - 1:
            lam[i] = t
        idx = bisect_right(s.ends, d_i - 1.0 + numeric.EPS, 0, i) - 1
        if idx >= 0:
            mu[i] = _first_equal_end(s.ends, idx)
    return lam, mu


def solve_offline_unit(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Unit-length specialisation of the offline optimum.

    Exploits that some optimal solution always accepts the latest-ending
    item, so every table cell commits to its last item and recurses through
    the lam/mu predecessors only; ``via_lam`` flags the cells that went
    through lam.
    """
    q = _quota(inst, quota)
    if q == 0:
        return 0.0, ()
    s = _sort_instance(inst, "solve_offline_unit")
    for i, b in enumerate(inst.items):
        if abs(b.parts[0].length - 1.0) > numeric.EPS:
            raise SettingError(
                f"solve_offline_unit needs unit-length items; items[{i}] has "
                f"length {b.parts[0].length!r}"
            )
    n = inst.n
    lam, mu = _unit_predecessors(s)

    starts, ends = np.array(s.starts), np.array(s.ends)
    sizes = ends - starts
    lam1, mu1 = _index(lam), _index(mu)
    # A missing predecessor gives -inf, but with neither the item stands alone.
    base_mu = np.where((mu1 > 0) | (lam1 == 0), sizes, -np.inf)
    lt = lam1 - 1  # lam ends no later than the item: the overlap ends at lam
    overlap = np.maximum(0.0, ends[lt] - np.maximum(starts, starts[lt]))
    rest = np.where(lam1 > 0, sizes - overlap, -np.inf)

    chi = np.zeros((q + 1, n + 1))
    via_lam = np.zeros((q + 1, n + 1), dtype=bool)
    chi[1, 1:] = sizes
    for j in range(2, q + 1):
        _fill_column(chi, via_lam, j, chi, mu1, base_mu, chi, lam1, rest)

    chosen: list[int] = []
    i, j = n, q
    while True:
        item = i - 1
        chosen.append(item)
        if j == 1 or (lam[item] is None and mu[item] is None):
            break
        i = (lam[item] if via_lam[j, i] else mu[item]) + 1
        j -= 1
    picked = tuple(sorted(s.order[t] for t in chosen))
    return float(chi[q, n]), picked


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


@functools.lru_cache(maxsize=32)
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
    row's subset keeps part c.  Every row replays the sort-and-sweep merge
    of :meth:`CoverageState.of` on its own parts: the reach is the running
    maximum end, a component opens where a kept part starts more than EPS
    past the reach before it, and a component's length is the reach where
    the next one opens (or at the end) minus its start.  The lengths are
    added in order, 0.0 for every part that closes nothing, and adding 0.0
    is exact, so each total is ``union_length``'s bit for bit.  Running
    maxima and sums go part by part, each step over all rows at once.
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


def brute_force_offline(
    inst: Instance, quota: Optional[int] = None, max_n: int = 20
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum by enumerating all quota-sized subsets.

    Handles unit-sum batches natively.  Coverage is monotone, so only
    subsets of size min(quota, n) need to be checked.  The subsets are
    scored a block at a time by :func:`_block_totals`, whose totals equal
    ``union_length`` bit for bit; the first maximum in enumeration order
    wins, and its value is ``union_length`` of the picks.
    """
    q = _quota(inst, quota)
    n = inst.n
    if n > max_n:
        raise SizeGuardError(
            f"n={n} exceeds the enumeration guard max_n={max_n}"
        )
    if q == 0:
        return 0.0, ()
    parts = sorted(
        (p.start, p.end, i) for i, b in enumerate(inst.items) for p in b.parts
    )
    starts, ends, owner = (np.array(col) for col in zip(*parts))
    best_val = -np.inf
    best_set: tuple[int, ...] = ()
    for mask in _combination_blocks(n, q):
        totals = _block_totals(mask[owner], starts, ends)
        row = int(np.argmax(totals))
        if totals[row] > best_val:
            best_val = totals[row]
            best_set = tuple(np.flatnonzero(mask[:, row]).tolist())
    return union_length([inst.items[i] for i in best_set]), best_set
