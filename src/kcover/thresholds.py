"""Closed-form acceptance thresholds and the two-threshold grid search.

The single-threshold value is the minimum of a count-dependent and a
count-free candidate; which one wins flips at k ~ 0.667*n.  The two-phase
(explore/exploit) parameters come from minimising the worst case of four
ratio terms over a theta grid, mirroring how the values were originally
obtained (grid precision rather than continuous optimisation).  The search
space is the grid triples with theta1 < theta2 plus the single-threshold
triple theta1 == theta2, which the two-phase family contains; when that
triple wins, the two-phase policy plays the single-threshold policy.  The
search returns the minimum over that whole space, but evaluates only the
grid cells that can still win, which `_band` derives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import numeric
from .errors import ConfigError, SettingError, SizeGuardError, SolverEmptyError


def check_quota(k: int, n: Optional[int] = None) -> None:
    """The quota range every bound and policy assumes: k >= 2 and, when the
    release count n is known, k <= n-1."""
    if n is None:
        if k < 2:
            raise ConfigError(f"need k >= 2, got {k}")
    elif not (2 <= k <= n - 1):
        raise ConfigError(f"need 2 <= k <= n-1, got k={k} n={n}")


def check_fl_cap(m: Optional[float]) -> None:
    """The FL setting's cap on item lengths: a finite number m > 1."""
    if m is None or not 1.0 < m < math.inf:
        raise SettingError(f"FL needs a finite length cap m > 1, got {m!r}")


def check_fl_finite(value: float, m: Optional[float]) -> float:
    """`value`, a figure computed from the FL length cap m, if it is finite."""
    if not math.isfinite(value):
        raise SettingError(f"FL length cap m={m!r} overflows the float range")
    return value


def check_two_phase(k: int, omega: int, theta1: float, theta2: float) -> None:
    """A two-phase triple: switch point 1 <= omega <= k, 0 < theta1 <= theta2 <= 1."""
    if not (1 <= omega <= k):
        raise ConfigError(f"need 1 <= switch point <= k, got {omega}")
    if not (0.0 < theta1 <= theta2 <= 1.0):
        raise ConfigError(
            f"need 0 < theta1 <= theta2 <= 1, got ({theta1}, {theta2})"
        )


def default_switch(k: int) -> int:
    """Switch point of a two-phase triple given without one: 0.8k rounded, at least 1."""
    return max(1, round(0.8 * k))


def _length_ratio(setting: str, m: Optional[float]):
    """Longest-to-shortest item length the threshold formulas take: 1 for
    unit items (UL, US), m for FL.  AL has no sound threshold."""
    if setting in ("UL", "US"):
        return 1
    if setting == "FL":
        check_fl_cap(m)
        return m
    if setting == "AL":
        raise ConfigError(
            "no default threshold exists for arbitrary lengths; pass theta"
        )
    raise ConfigError(f"no default threshold for setting {setting!r}")


def soa_theta(k: int, n: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Single threshold for a known release count: the smaller of a
    count-dependent candidate and the count-free :func:`soa_an_theta`.

    FL weights both candidates by the maximum item length m.  AL has no
    sound threshold, callers must pick their own.
    """
    check_quota(k, n)
    r = _length_ratio(setting, m)
    a = (math.sqrt(1 + 2 * (k - 1) * (n - k) * r) - 1) / (2 * k - 2)
    return min(a, soa_an_theta(k, setting, m))


def soa_an_theta(k: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Single threshold when the release count is unknown (count-free form)."""
    check_quota(k)
    r = _length_ratio(setting, m)
    theta = (math.sqrt((1 + 8 * r) * k * k - (6 + 8 * r) * k + 9) - k - 1) / (4 * (k - 1))
    return check_fl_finite(theta, m)


def check_schedule(thresholds: Sequence[float], k: Optional[int] = None) -> tuple[float, ...]:
    """Validate a per-accept threshold list: exactly k entries when k is
    given, non-empty, every entry in (0, 1], non-increasing.  Returns the
    entries as a tuple of floats."""
    values = tuple(float(t) for t in thresholds)
    if k is not None and len(values) != k:
        raise ConfigError(f"need exactly k={k} thresholds, got {len(values)}")
    if not values:
        raise ConfigError("need at least one threshold")
    for i, t in enumerate(values):
        if not (0.0 < t <= 1.0):
            raise ConfigError(f"thresholds[{i}]={t!r} outside (0, 1]")
        if i and t > values[i - 1]:
            raise ConfigError("thresholds must be non-increasing")
    return values


@dataclass(frozen=True)
class DoaSolution:
    """Feasible two-phase parameter triple with its program value C."""

    omega: int
    theta1: float
    theta2: float
    s: float
    q: float
    value: float  # program value C; a played ratio can exceed it


def _program(k, n, omega, t1, t2):
    """The two-phase program, elementwise over numpy arrays or float64
    scalars: (C, s, q, feasible), where C is the worst of the four ratio
    terms and feasible marks where the component count s lies in
    [1, omega-1], the only points where the program defines C.  None when
    no point is feasible."""
    s = (k + (1.0 - omega) * t1 - 2.0 * t2) / (1.0 + 2.0 * t2 - t1)
    feasible = (s >= 1.0 - numeric.EPS) & (s <= omega - 1.0 + numeric.EPS)
    if not feasible.any():
        return None
    q = 1.0 + (omega - 1) * t1 + (k - omega) * t2
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 1.0 + 2.0 * t1
        c2 = 1.0 + 2.0 * t2 / (1.0 + ((omega - s) / s) * t1)
        c3 = k / (s + 1.0 + (omega - s - 1.0) * t1)
        c4 = np.minimum(float(k), (n - k) + q) / q
        c = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
    return c, s, q, feasible


def doa_objective(
    k: int, n: int, omega: int, theta1: float, theta2: float
) -> Optional[tuple[float, float, float]]:
    """The two-phase program's value C at one parameter triple.

    C is the program's value, not a certified bound: the policy's played
    worst case can exceed it.  Returns (C, s, q), or None when the derived
    component count s falls outside [1, omega-1]: the program is defined
    only inside that range, so out-of-range triples are disqualified,
    never clamped.
    """
    check_two_phase(k, omega, theta1, theta2)
    check_quota(k, n)
    cell = _least(k, n, omega, np.float64(theta1), np.float64(theta2))
    return None if cell is None else (cell[0], cell[4], cell[5])


# Grid points per theta axis.  Step 0.001 needs 1,000; a finer step would
# need memory quadratic in the count for the grid blocks of solve_doa.
MAX_GRID_POINTS = 2000


def _theta_grid(step: float) -> np.ndarray:
    if not (0.0 < step <= 1.0):
        raise ConfigError(f"step must be in (0, 1], got {step}")
    points = 1.0 / step + 1e-12  # inf for a subnormal step
    if points >= MAX_GRID_POINTS + 1:
        raise SizeGuardError(
            f"step={step:g} needs more than {MAX_GRID_POINTS} grid points per axis"
        )
    count = int(math.floor(points))
    grid = np.arange(1, count + 1, dtype=np.float64) * step
    # Snap the top of the grid onto 1.0 so theta2 <= 1 survives float drift.
    grid[grid > 1.0 - 1e-12] = 1.0
    return grid


def _band(k, n, omega, t1, c, grid):
    """Grid columns [first, last), broadcast over switch points omega and
    theta1 rows t1, outside which no feasible cell has C <= c; c = inf
    (no incumbent yet) cuts by feasibility alone.

    For theta1 < 1, s is strictly decreasing in theta2 (ds/dtheta2 is
    proportional to -(k + 1 - omega*theta1)), so
    c3 = k / (s*(1 - theta1) + 1 + (omega - 1)*theta1) is increasing and,
    as q = 1 + (omega - 1)*theta1 + (k - omega)*theta2 is increasing,
    c4 = min(k, n - k + q) / q is decreasing.  Each cut bounds theta2:

    * theta2 > theta1: the strict grid (the grid is strictly increasing).
    * s <= omega - 1 + EPS means
      theta2 >= (k - omega + 1 - EPS*(1 - theta1)) / (2*(omega + EPS)),
      at least (k - omega + 1 - EPS) / (2*(omega + EPS)) on every row.
    * c4 <= c means theta2 >= (q* - 1 - (omega - 1)*theta1) / (k - omega)
      with q* = min(k/c, (n - k)/(c - 1)); at omega == k, q does not depend
      on theta2 and the row is kept whole or dropped.  At c = inf, q* = 0
      and this end cuts nothing.
    * c3 <= c together with s >= 1 - EPS means
      theta2 <= (A - s*(1 - theta1)) / (2*(1 + s*)) with
      A = k + (1 - omega)*theta1 and
      s* = max((k/c - 1 - (omega - 1)*theta1) / (1 - theta1), 1 - EPS).
      At c = inf, s* = 1 - EPS and this end is the s >= 1 bound alone.  It
      is dropped on rows with theta1 near 1, where c3 is flat.

    c gets a relative 1e-9 margin and every end but theta2 > theta1 is
    widened by two grid points, so float rounding cannot move a cell that
    ties or beats c out of the band.
    """
    eps = numeric.EPS
    c = c * (1.0 + 1e-9)
    q_star = min(k / c, (n - k) / (c - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        need = q_star - 1.0 - (omega - 1) * t1  # what (k - omega) * theta2 must reach
        # at omega == k, q and so c4 do not depend on theta2: all of the row or none
        lower = np.where(omega < k, need / (k - omega), np.where(need > 0.0, np.inf, -np.inf))
        s_star = np.maximum((k / c - 1.0 - (omega - 1) * t1) / (1.0 - t1), 1.0 - eps)
        upper = (k + (1.0 - omega) * t1 - s_star * (1.0 - t1)) / (2.0 * (1.0 + s_star))
    # c3 is flat in theta2 as theta1 -> 1, and a huge EPS can make 1 + s* <= 0
    upper = np.where((t1 < 1.0 - 1e-6) & (s_star > -1.0), upper, np.inf)
    s_cap = (k - omega + 1 - eps) / (2.0 * (omega + eps))  # the s <= omega - 1 bound
    first = np.maximum(
        np.searchsorted(grid, t1, "right"), np.searchsorted(grid, np.maximum(lower, s_cap)) - 2
    )
    last = np.minimum(np.searchsorted(grid, upper, "right") + 2, grid.size)
    return first, last


def _search(k, n, grid, omegas, best):
    """The least (C, theta1, omega, theta2, s, q) among `best` and the grid cells
    at the switch points `omegas` that can still beat it: the rows with
    c1 = 1 + 2*theta1 <= C, as C >= c1 at every cell (rows with c1 equal to
    C stay for the theta1 tie-break), and on each row the `_band` columns."""
    c = math.inf if best is None else best[0]
    rows = int(np.searchsorted(1.0 + 2.0 * grid, c, "right"))
    first, last = _band(k, n, omegas[None, :], grid[:rows, None], c, grid)
    widths = np.maximum(last - first, 0).ravel()
    total = int(widths.sum())
    if total == 0:
        return best
    # the cells in (theta1, omega, theta2) order, so argmin keeps the tie-break
    row, at = np.divmod(np.repeat(np.arange(widths.size), widths), omegas.size)
    col = np.arange(total) + np.repeat(first.ravel() - np.cumsum(widths) + widths, widths)
    cand = _least(k, n, omegas[at], grid[row], grid[col])
    return cand if best is None or (cand is not None and cand < best) else best


def _least(k, n, omegas, t1, t2):
    """The least (C, theta1, omega, theta2) among the feasible cells, with
    that cell's s and q after it; None when no cell is feasible.  Each
    argument is a scalar or an array over the cells, in (theta1, omega,
    theta2) order, so the first minimum of C is the least of its ties."""
    point = _program(k, n, omegas, t1, t2)
    if point is None:
        return None
    c, s, q, feasible = point
    cmax = np.where(feasible, c, np.inf).ravel()
    i = int(np.argmin(cmax))
    if not np.isfinite(cmax[i]):
        return None
    w, a, b, s, q = (x[i] if isinstance(x, np.ndarray) else x for x in (omegas, t1, t2, s, q))
    return float(cmax[i]), float(a), int(w), float(b), float(s), float(q)


def solve_doa(k: int, n: int, step: float = 0.01) -> DoaSolution:
    """Grid search for the best feasible two-phase triple.

    omega ranges over [ceil((k+1)/5), k].  The candidates are the grid
    triples, with theta1 < theta2 both multiples of `step` up to 1, plus
    the single-threshold triple theta1 == theta2 == `soa_theta(k, n)` at
    every omega where it is feasible.  So the returned triple may have
    theta1 == theta2; the two-phase policy then plays the single-threshold
    policy, and the value never exceeds the single-threshold bound where
    that triple is feasible.  Ties break deterministically by (C, theta1,
    omega, theta2), all minimised, so parallel or refined runs reproduce
    the same triple.

    The result is the minimum of the full grid, but only cells that can
    still beat the incumbent C (the best value found so far, none at
    first) are evaluated, with the same float test as `_program`: `_band`
    derives which.  The single-threshold triple is scored first, then the
    grid at the default switch point, whose optimum is usually close to
    the final one, then the grid at every omega.
    """
    check_quota(k, n)
    grid = _theta_grid(step)
    omega_lo = max(1, -((-(k + 1)) // 5))

    # The family also holds the single-threshold policy (theta1 == theta2),
    # which the strict grid never reaches; score it at its own threshold,
    # at every omega at once.  Its first minimum over omega wins its ties.
    # The grid triples have theta1 < theta2, so no grid triple compares
    # equal to it and the visiting order does not change the minimum.
    theta = soa_theta(k, n)
    omegas = np.arange(omega_lo, k + 1)
    best = _least(k, n, omegas, theta, theta)  # (C, theta1, omega, theta2, s, q)
    best = _search(k, n, grid, np.array([default_switch(k)]), best)
    best = _search(k, n, grid, omegas, best)
    if best is None:
        raise SolverEmptyError(
            f"no feasible two-phase triple for k={k} n={n} step={step}"
        )
    c, th1, omega, th2, s, q = best
    return DoaSolution(omega, th1, th2, s, q, c)
