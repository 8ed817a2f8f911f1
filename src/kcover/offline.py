"""Exact offline baselines: a dynamic program over end-sorted items and a
subset-enumeration oracle used to verify it.

The DP takes each item as one interval (:func:`_one_runs`), read from
the instance's part arrays when every item has one part, built on first
use, so it sorts without walking the items.  It reads the items in (end,
start, index) order and fills two value tables:

* ``chi[i][j]``   -- best coverage using at most j accepts from the first i
                     sorted items;
* ``kappa[i][j]`` -- same, but item i itself must be accepted.

Item i is either rejected or accepted, so ``chi[i][j] = max(chi[i-1][j],
kappa[i][j])`` once i > j; a tie keeps the rejection.  Kappa's
intersecting transition recurses through kappa so that the subtracted
overlap is actually covered by the accepted predecessor.  The DP stores
the two tables and nothing else: backtracking re-derives every choice
from them with the fill's own additions and comparisons.

Column j depends only on column j-1, so each table is filled one quota
column at a time by numpy operations over all n items, up to the tables'
fixed point (:func:`_fixed_point`).  So the DP costs O(j* n + n log n),
where j* <= min(k, n) is the column the fill ends at.  Tables are
allocated ``(q+1) x (n+1)``, contiguous per column, and their filled
columns handed out as float64 ``.T`` views indexed ``[i][j]``.  Each cell
is the add and max of the operands a cell-by-cell loop reads, so it equals
what that loop computes bit for bit.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from typing import Optional

import numpy as np

from . import numeric
from .errors import SettingError, SizeGuardError
from .intervals import Instance, prefix_unions, union_length


def _one_runs(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of each item's one run of touching parts
    (:meth:`~kcover.intervals.Batch.runs`), the interval the DP takes for
    it; an item of several runs is refused.  When every item has one part,
    these are the instance's part arrays as they are."""
    starts, ends = inst.part_arrays
    if len(starts) == inst.n:
        return starts, ends
    ivs = []
    for i, b in enumerate(inst.items):
        runs = b.runs()
        if len(runs) > 1:
            raise SettingError(
                f"solve_offline takes items whose parts touch; items[{i}] has "
                f"{len(runs)} runs of touching parts -- use brute_force_offline for it"
            )
        ivs.extend(runs)
    return tuple(np.array(ivs).T)


def one_run_items(inst: Instance) -> bool:
    """Whether :func:`solve_offline` takes `inst`: every item is one run of
    touching parts.  O(1) once the part arrays are built, when every item
    has one part."""
    return len(inst.part_arrays[0]) == inst.n or all(len(b.runs()) == 1 for b in inst.items)


def _sort_instance(inst: Instance) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The items of :func:`_one_runs` sorted by (end, start, index): each
    sorted position's original index, then the sorted starts and ends as
    float64 arrays.  ``np.lexsort`` is stable, so items with equal (end,
    start) keep their release order, the index tie-break."""
    starts, ends = _one_runs(inst)
    order = np.lexsort((starts, ends))
    return order.tolist(), starts[order], ends[order]


# Fewest items for which build_predecessors runs its numpy passes: below it
# the scan's per-item cost is less than numpy's fixed cost per call.  On a
# 2-core x86-64 host the scan took 3.7, 37 and 142 us against numpy's 22.6,
# 34 and 47 us at 8, 80 and 256 random UL items, and the two met at 72 to
# 80 UL, FL and AL items.
_NUMPY_PREDECESSORS = 80


def build_predecessors(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows the DP reads for each item i of the sorted `starts` and
    `ends`: (psi+1, phi+1) as intp arrays, 0 where the predecessor is
    absent.

    psi(i): among j < i intersecting item i (end + EPS >= start of i) with
    a strictly smaller start, the one with the left-most start (ties:
    smallest index).
    phi(i): among j < i disjoint from item i (end + EPS < start of i), the
    one ending closest to it (ties: smallest index).

    Ends are sorted, so the intersecting predecessors are a suffix t..i-1
    of the items before i, found by bisecting ``end + EPS`` as
    :class:`~kcover.intervals.CoverageState` bisects its ``reach``; psi is
    the suffix's left-most least start where that start is below item i's,
    and phi the first item ending where item t-1 ends.  Below
    ``_NUMPY_PREDECESSORS`` items one linear scan finds them
    (:func:`_scan_predecessors`); at or above it, O(log n) numpy passes do
    (:func:`_numpy_predecessors`).
    """
    if len(starts) < _NUMPY_PREDECESSORS:
        return _scan_predecessors(starts.tolist(), ends.tolist())
    return _numpy_predecessors(starts, ends)


def _scan_predecessors(starts: list[float], ends: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_predecessors` as one pass over the items.  `minima`
    holds every j < i whose start is at most every later start; its first
    entry >= t is the suffix's left-most least start."""
    eps = numeric.EPS
    reach = [end + eps for end in ends]
    psi1 = [0] * len(starts)
    phi1 = [0] * len(starts)
    minima: list[int] = []
    for i, o_i in enumerate(starts):
        t = bisect_left(reach, o_i, 0, i)  # first predecessor with end + EPS >= o_i
        if t <= i - 1:
            q = minima[bisect_left(minima, t)]
            if starts[q] < o_i:
                psi1[i] = q + 1
        if t >= 1:  # the first of the ends equal to the nearest one
            phi1[i] = bisect_left(ends, ends[t - 1], 0, t - 1) + 1
        while minima and starts[minima[-1]] > o_i:
            minima.pop()
        minima.append(i)
    return np.array(psi1, dtype=np.intp), np.array(phi1, dtype=np.intp)


def _numpy_predecessors(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_predecessors` in numpy passes over all items.

    ``searchsorted`` finds t and phi; t <= i needs no clip, since item
    i's own end + EPS passes its start.  psi is a range minimum over [t, i),
    read from a sparse table (Bender and Farach-Colton, "The LCA Problem
    Revisited", 2000): level k holds the left-most least start of every
    window of 2**k items, and [t, i) is the union of the two windows of
    level floor(log2(i - t)) that start at t and end at i.  The left one
    wins ties, so the pick is the left-most least start.  Levels are built
    only up to the one the widest range needs.
    """
    n = len(starts)
    idx = np.arange(n)
    t = np.searchsorted(ends + numeric.EPS, starts)
    phi1 = np.where(t > 0, np.searchsorted(ends, ends[t - 1]) + 1, 0)
    psi1 = np.zeros(n, dtype=np.intp)
    rows = np.flatnonzero(t < idx)
    if len(rows):
        lo = t[rows]
        level = np.frexp(rows - lo)[1] - 1  # floor(log2) of each range's width
        table = np.empty((level.max() + 1, n), dtype=np.intp)
        table[0] = idx
        for k in range(1, len(table)):
            half, m = 1 << (k - 1), n - (1 << k) + 1
            left, right = table[k - 1, :m], table[k - 1, half:half + m]
            table[k, :m] = np.where(starts[left] <= starts[right], left, right)
        a, b = table[level, lo], table[level, rows - (1 << level)]
        best = np.where(starts[a] <= starts[b], a, b)
        psi1[rows] = np.where(starts[best] < starts[rows], best + 1, 0)
    return psi1, phi1


def _dp_tables(starts: np.ndarray, ends: np.ndarray, q: int):
    """Fill chi and kappa over the sorted items; return their ``[i][j]``
    views, the two transitions of ``kappa``, each as (predecessor rows,
    length item i adds): the disjoint one through ``chi[phi+1][j-1]`` and
    the intersecting one through ``kappa[psi+1][j-1]``, and the prefix
    unions.

    ``kappa[i][j]`` takes the intersecting transition where it wins
    strictly, and only from j == 2 on: column 0 is zero, and at j == 1 item
    i stands alone.  Rows up to j of column j of ``chi`` are the prefix
    unions.  The row of predecessor p is p+1, or 0 when p is absent.

    The tables end at their fixed point, the first column j >= 2 that
    :func:`_fixed_point` certifies: every later column c up to q is then
    column j with chi's rows up to c pinned to the prefix unions.  They
    hold all q+1 columns when no column is certified.
    """
    n = len(starts)
    psi1, phi1 = build_predecessors(starts, ends)
    pref = np.array(prefix_unions(zip(ends.tolist(), starts.tolist())), dtype=float)
    sizes = ends - starts
    # psi ends past item i's start or at most EPS before it; without psi,
    # -inf never wins.
    rest = np.where(psi1 > 0, sizes - (ends[psi1 - 1] - starts), -np.inf)

    chi = np.zeros((q + 1, n + 1))
    kappa = np.zeros((q + 1, n + 1))
    disjoint, intersecting = (phi1, sizes), (psi1, rest)
    top = min(q, n)
    for j in range(1, q + 1):
        _accept(chi[j - 1], kappa[j - 1] if j > 1 else None, disjoint, intersecting, kappa[j, 1:])
        col = chi[j]
        col[: j + 1] = pref[: j + 1]
        col[j + 1:] = kappa[j, j + 1:]  # max(reject, accept) down the column
        np.maximum.accumulate(col[j:], out=col[j:])
        # The tables end at column j if it equals column j-1 in both tables
        # and every later column is certified; chi[n] is compared first, as
        # the cheapest, and chi[1][n] > 0 = chi[0][n].
        if (
            chi[j, n] == chi[j - 1, n]
            and chi[j].tobytes() == chi[j - 1].tobytes()
            and kappa[j].tobytes() == kappa[j - 1].tobytes()
            and _fixed_point(j, top, chi[j], kappa[j], pref, disjoint, intersecting)
        ):
            q = j
            break

    return chi[: q + 1].T, kappa[: q + 1].T, disjoint, intersecting, pref


def _accept(x, kap, disjoint, intersecting, out=None):
    """The fill's kappa column step, into `out`: kappa's column after chi's
    column x and kappa's column kap, which is None at column 1."""
    (phi1, sizes), (psi1, rest) = disjoint, intersecting
    out = x.take(phi1, out=out)
    out += sizes
    if kap is not None:
        cand = kap.take(psi1)
        cand += rest
        np.maximum(out, cand, out=out)
    return out


def _fixed_point(j, top, x, kap, pref, disjoint, intersecting) -> bool:
    """Whether every later column c of the fill is (x, kap) with chi's rows
    up to c pinned to the prefix unions, given that column j, (x, kap),
    equals column j-1 bit for bit in both tables; top is min(q, n).

    Column c+1 is filled from column c as column j was from column j-1,
    except that it reads pinned rows of chi where column j read x, and
    re-seeds chi's running maximum at row c+1.  The DP's sums may differ
    from the prefix unions by an ulp, so by induction on c it suffices
    that, bit for bit with the fill's own operations:

    * (B) re-seeding leaves chi's rows below unchanged:
      ``max(pref[r], kap[r+1]) == x[r+1]`` for every row r in
      (j, min(top, n-1)]; where x[r] is already pref[r], the running
      maximum gives it;
    * (A) :func:`_accept` on x with its rows up to top pinned gives kap:
      each item reads one row of x, and an unpinned read gives kap, as
      column j equals column j-1.
    """
    last = min(top, len(x) - 2)  # rows r in (j, last] have a row r+1
    reseeded = np.maximum(pref[j + 1:last + 1], kap[j + 2:last + 2])
    pinned = np.concatenate((pref[: top + 1], x[top + 1:]))
    return (
        reseeded.tobytes() == x[j + 2:last + 2].tobytes()
        and _accept(pinned, kap, disjoint, intersecting).tobytes() == kap[1:].tobytes()
    )


# Most bytes the DP's two tables may take together: 2 * 8 * (q+1) * (n+1)
# for float64 chi and kappa, so a fill that would pass 1 GiB is refused.
_MAX_TABLE_BYTES = 1 << 30


def _quota(inst: Instance, quota: Optional[int]) -> int:
    """The quota a solver runs at: `quota`, or the instance's own when None,
    capped at n.  Coverage is monotone, so n accepts take every item: a DP
    column past n repeats column n, and no subset is larger than n.  A
    bool, or a quota that ``operator.index`` does not take, is refused."""
    q = inst.quota if quota is None else quota
    if isinstance(q, (bool, np.bool_)) or not hasattr(type(q), "__index__"):
        raise SettingError(f"quota must be an integer, got {q!r}")
    q = operator.index(q)
    if q < 0:
        raise SettingError(f"quota must be >= 0, got {q}")
    return min(q, inst.n)


def solve_offline(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Optimal coverage with at most `quota` accepts, plus achieving indices.

    Works for any instance whose items are each one run of touching parts
    (:meth:`~kcover.intervals.Batch.runs`): every UL, FL and AL instance,
    and unit-sum ones whose pieces touch within EPS.  An item's run is the
    interval it covers, so the DP scores the item as that interval.  Items
    of several runs are refused; use :func:`brute_force_offline` there.
    Tables over ``_MAX_TABLE_BYTES`` raise :class:`SizeGuardError` before
    anything is allocated.
    """
    q, n = _quota(inst, quota), inst.n
    if q == 0:
        return 0.0, ()
    size = 16 * (q + 1) * (n + 1)
    if size > _MAX_TABLE_BYTES:
        raise SizeGuardError(
            f"the DP tables for n={n} and quota {q} take {size} bytes, over the "
            f"guard of {_MAX_TABLE_BYTES}"
        )
    order, starts, ends = _sort_instance(inst)
    chi, kappa, (phi1, sizes), (psi1, rest), pref = _dp_tables(starts, ends, q)

    # Walk back from chi[n][q]; in_chi says which table the cell is in.  From
    # row j on, column j of chi is the running maximum of kappa's, so row i
    # accepts its item exactly where the column rises: walking back from row
    # i, the walk stops at the first row that reaches chi[i][j], which
    # bisection finds.  Columns past the tables' last are their last column
    # with chi's rows up to the column pinned to the prefix unions
    # (:func:`_fixed_point`), so chi[r][c] is read as pref[r] where r <= c,
    # and from column min(c, last) otherwise.
    last = chi.shape[1] - 1
    cols = chi.T
    chosen: list[int] = []
    i, j, in_chi = n, q, True
    while i > 0:
        if in_chi:
            if i > j:
                col = cols[min(j, last)]
                x = col[i]
                i = j if pref[j] >= x else bisect_left(col, x, j + 1, i)
            if i <= j:
                chosen.extend(range(i))
                break
        item = i - 1  # at kappa[i][j]: item i is accepted
        chosen.append(item)
        if j == 1:
            break
        # the fill's own sums: a tie keeps the disjoint transition, through chi
        f, p, c = phi1[item], psi1[item], min(j - 1, last)
        x = pref[f] if f < j else chi[f, c]
        in_chi = x + sizes[item] >= kappa[p, c] + rest[item]
        i = int(f if in_chi else p)
        j -= 1
    picked = tuple(sorted(order[t] for t in chosen))
    return float(pref[n] if q == n else chi[n, last]), picked


def solve_offline_unit(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """The offline optimum of a unit-length instance: :func:`solve_offline`,
    kept under this name only until ``bench/`` stops calling it."""
    return solve_offline(inst, quota)


# Most items the enumeration takes; C(20, 10) is 184,756 subsets.
_MAX_N = 20

# Most subsets the enumeration scores in one block: it bounds the scorer's
# memory at every n up to the guard.
_BLOCK_ROWS = 1024


def _mask_blocks(n: int, r: int, rows: int):
    """Every r-subset of range(n) in ``itertools.combinations`` order, as
    bool masks of shape (n, rows) with at most `rows` rows each:
    ``mask[i, row]`` says whether the row's subset holds item i."""
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


def _given_parts(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starts, ends and owning items of every item's parts as given, sorted
    by (start, end, owner): the parts ``union_length`` merges."""
    parts = sorted((p.start, p.end, i) for i, b in enumerate(inst.items) for p in b.parts)
    return tuple(np.array(col) for col in zip(*parts))


def brute_force_offline(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum by enumerating all quota-sized subsets.

    Handles unit-sum batches natively; more than ``_MAX_N`` items raise
    :class:`SizeGuardError`.  Coverage is monotone, so only subsets of size
    min(quota, n) need to be checked.  The subsets are scored a block at a
    time by :func:`_block_totals` on every item's parts as given
    (:func:`_given_parts`), whose totals equal ``union_length`` bit for bit;
    the first maximum in enumeration order wins, and its value is
    ``union_length`` of the picks.
    """
    q = _quota(inst, quota)
    n = inst.n
    if n > _MAX_N:
        raise SizeGuardError(f"n={n} exceeds the enumeration guard max_n={_MAX_N}")
    if q == 0:
        return 0.0, ()
    starts, ends, owner = _given_parts(inst)
    best_val = -np.inf
    best_set: tuple[int, ...] = ()
    for mask in _mask_blocks(n, q, _BLOCK_ROWS):
        totals = _block_totals(mask[owner], starts, ends)
        row = int(np.argmax(totals))
        if totals[row] > best_val:
            best_val = totals[row]
            best_set = tuple(np.flatnonzero(mask[:, row]).tolist())
    return union_length([inst.items[i] for i in best_set]), best_set
