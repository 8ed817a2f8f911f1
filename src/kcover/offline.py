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
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from . import numeric
from .errors import SettingError, SizeGuardError
from .intervals import (
    CoverageState,
    Instance,
    absorb,
    intersection_length,
    union_length,
)


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
    chi: list[list[float]]          # (n+1) x (q+1); chi[i][j] over first i items
    kappa: list[list[float]]
    cells_filled: int


def _require_singletons(inst: Instance, caller: str) -> None:
    for i, b in enumerate(inst.items):
        if not b.is_singleton:
            raise SettingError(
                f"{caller} works on plain sub-intervals; items[{i}] is a "
                "multi-part batch -- use brute_force_offline for unit-sum input"
            )


def sort_instance(inst: Instance) -> SortedInstance:
    _require_singletons(inst, "sort_instance")
    ivs = [b.parts[0] for b in inst.items]
    order = tuple(
        sorted(range(len(ivs)), key=lambda i: (ivs[i].end, ivs[i].start, i))
    )
    starts = tuple(ivs[i].start for i in order)
    ends = tuple(ivs[i].end for i in order)
    return SortedInstance(inst, order, starts, ends)


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


def _dp_tables(s: SortedInstance, quota: int):
    """Fill chi/kappa and the flag rows that backtracking needs.

    ``via_psi[i][j]`` is 1 when ``kappa[i][j]`` took the intersecting
    transition through ``kappa[psi+1][j-1]`` (it must beat the disjoint one
    strictly); otherwise ``kappa`` went through ``chi[phi+1][j-1]``, or, at
    ``j == 1``, took item i alone.  ``chi`` needs no flags: it rejects item
    i exactly when ``chi[i-1][j] >= kappa[i][j]``.
    """
    n = len(s.order)
    psi, phi = build_predecessors(s)

    # Prefix union lengths, Len of the first i sorted items.
    pref = [0.0] * (n + 1)
    state = CoverageState.empty()
    for i in range(n):
        state = absorb(state, s.base.items[s.order[i]])
        pref[i + 1] = state.total_len

    q = quota
    chi = [[0.0] * (q + 1) for _ in range(n + 1)]
    kappa = [[0.0] * (q + 1) for _ in range(n + 1)]
    via_psi = [bytearray(q + 1) for _ in range(n + 1)]

    for i in range(1, n + 1):
        item = i - 1  # 0-based sorted index of the newest item
        size = s.ends[item] - s.starts[item]
        p, f = psi[item], phi[item]
        # psi ends inside item i and starts before it: this is their overlap.
        rest = size - (s.ends[p] - s.starts[item]) if p is not None else 0.0
        after_phi = chi[0 if f is None else f + 1]
        kap, flags = kappa[i], via_psi[i]
        for j in range(1, q + 1):
            if j == 1:
                kap[j] = size
                continue
            best = size + after_phi[j - 1]
            if p is not None:
                cand = rest + kappa[p + 1][j - 1]
                if cand > best:
                    best = cand
                    flags[j] = 1
            kap[j] = best
        row, above = chi[i], chi[i - 1]
        for j in range(1, q + 1):
            if i <= j:
                row[j] = pref[i]
            else:  # max(reject, accept); a tie rejects item i
                row[j] = above[j] if above[j] >= kap[j] else kap[j]

    ctx = DpContext(psi, phi, chi, kappa, 2 * n * len(chi[0]))
    return ctx, via_psi


def dp_context(inst: Instance) -> DpContext:
    """Run the DP at the instance's quota and expose its tables (used by
    property tests)."""
    ctx, _ = _dp_tables(sort_instance(inst), inst.quota)
    return ctx


def solve_offline(
    inst: Instance, quota: Optional[int] = None
) -> tuple[float, tuple[int, ...]]:
    """Optimal coverage with at most `quota` accepts, plus achieving indices.

    Works for any singleton-batch instance (UL, FL, AL).  Multi-part
    unit-sum batches are rejected; use :func:`brute_force_offline` there.
    """
    q = inst.quota if quota is None else quota
    if q < 0:
        raise SettingError(f"quota must be >= 0, got {q}")
    if q == 0:
        return 0.0, ()
    _require_singletons(inst, "solve_offline")
    s = sort_instance(inst)
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
            if chi[i - 1][j] >= kappa[i][j]:
                i -= 1
                continue
        item = i - 1  # at kappa[i][j]: item i is accepted
        chosen.append(item)
        if j == 1:
            break
        if via_psi[i][j]:
            i, in_chi = ctx.psi[item] + 1, False
        else:
            f = ctx.phi[item]
            i, in_chi = (0 if f is None else f + 1), True
        j -= 1
    picked = tuple(sorted(s.order[t] for t in chosen))
    return chi[n][q], picked


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
    q = inst.quota if quota is None else quota
    if q < 0:
        raise SettingError(f"quota must be >= 0, got {q}")
    if q == 0:
        return 0.0, ()
    _require_singletons(inst, "solve_offline_unit")
    for i, b in enumerate(inst.items):
        if abs(b.parts[0].length - 1.0) > numeric.EPS:
            raise SettingError(
                f"solve_offline_unit needs unit-length items; items[{i}] has "
                f"length {b.parts[0].length!r}"
            )
    s = sort_instance(inst)
    n = inst.n
    lam, mu = _unit_predecessors(s)

    chi = [[0.0] * (q + 1) for _ in range(n + 1)]
    via_lam = [bytearray(q + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        item = i - 1
        size = s.ends[item] - s.starts[item]
        lt, mt = lam[item], mu[item]
        rest = 0.0
        if lt is not None:
            rest = size - intersection_length(
                s.base.items[s.order[item]].parts[0],
                s.base.items[s.order[lt]].parts[0],
            )
        row, flags = chi[i], via_lam[i]
        for j in range(1, q + 1):
            if j == 1 or (lt is None and mt is None):
                row[j] = size
                continue
            best = None if mt is None else size + chi[mt + 1][j - 1]
            if lt is not None:
                cand = rest + chi[lt + 1][j - 1]
                if best is None or cand > best:
                    best = cand
                    flags[j] = 1
            row[j] = best

    chosen: list[int] = []
    i, j = n, q
    while True:
        item = i - 1
        chosen.append(item)
        if j == 1 or (lam[item] is None and mu[item] is None):
            break
        i = (lam[item] if via_lam[i][j] else mu[item]) + 1
        j -= 1
    picked = tuple(sorted(s.order[t] for t in chosen))
    return chi[n][q], picked


def brute_force_offline(
    inst: Instance, quota: Optional[int] = None, max_n: int = 20
) -> tuple[float, tuple[int, ...]]:
    """Exact optimum by enumerating all quota-sized subsets.

    Handles unit-sum batches natively.  Coverage is monotone, so only
    subsets of size min(quota, n) need to be checked.
    """
    q = inst.quota if quota is None else quota
    if q < 0:
        raise SettingError(f"quota must be >= 0, got {q}")
    n = inst.n
    if n > max_n:
        raise SizeGuardError(
            f"n={n} exceeds the enumeration guard max_n={max_n}"
        )
    r = min(q, n)
    if r == 0:
        return 0.0, ()
    best_val = -1.0
    best_set: tuple[int, ...] = ()
    for combo in itertools.combinations(range(n), r):
        val = union_length([inst.items[i] for i in combo])
        if val > best_val:
            best_val, best_set = val, combo
    return best_val, best_set
