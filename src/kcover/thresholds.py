"""Closed-form acceptance thresholds and the two-threshold grid search.

The single-threshold value is the minimum of a count-dependent and a
count-free candidate; which one wins flips at k ~ 0.667*n.  The two-phase
(explore/exploit) parameters come from minimising the worst case of four
ratio terms over a theta grid, mirroring how the values were originally
obtained (grid precision rather than continuous optimisation).  The search
space is the grid triples with theta1 < theta2 plus the single-threshold
triple theta1 == theta2, which the two-phase family contains; when that
triple wins, the two-phase policy plays the single-threshold policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import numeric
from .errors import ConfigError, SolverEmptyError


def _check_kn(k: int, n: int) -> None:
    if k < 2 or k > n - 1:
        raise ConfigError(f"need 2 <= k <= n-1, got k={k} n={n}")


def _length_ratio(setting: str, m: Optional[float]):
    """Longest-to-shortest item length the threshold formulas take: 1 for
    unit items (UL, US), m for FL.  AL has no sound threshold."""
    if setting in ("UL", "US"):
        return 1
    if setting == "FL":
        if m is None or m <= 1.0:
            raise ConfigError("FL threshold needs m > 1")
        return m
    raise ConfigError(f"no default threshold for setting {setting!r}")


def soa_theta(k: int, n: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Single threshold for a known release count: the smaller of a
    count-dependent candidate and the count-free :func:`soa_an_theta`.

    FL weights both candidates by the maximum item length m.  AL has no
    sound threshold, callers must pick their own.
    """
    _check_kn(k, n)
    r = _length_ratio(setting, m)
    a = (math.sqrt(1 + 2 * (k - 1) * (n - k) * r) - 1) / (2 * k - 2)
    return min(a, soa_an_theta(k, setting, m))


def soa_an_theta(k: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Single threshold when the release count is unknown (count-free form)."""
    if k < 2:
        raise ConfigError(f"need k >= 2, got {k}")
    r = _length_ratio(setting, m)
    return (math.sqrt((1 + 8 * r) * k * k - (6 + 8 * r) * k + 9) - k - 1) / (4 * (k - 1))


def check_schedule(thresholds: Sequence[float]) -> tuple[float, ...]:
    """Validate a per-accept threshold list: non-empty, every entry in
    (0, 1], non-increasing.  Returns the entries as a tuple of floats."""
    values = tuple(float(t) for t in thresholds)
    if not values:
        raise ConfigError("need at least one threshold")
    for i, t in enumerate(values):
        if not (0.0 < t <= 1.0):
            raise ConfigError(f"thresholds[{i}]={t!r} outside (0, 1]")
        if i and t > values[i - 1]:
            raise ConfigError("thresholds must be non-increasing")
    return values


def theta_crossover(n: int) -> int:
    """Smallest k at which the count-dependent candidate becomes the minimum.

    Below this k the count-free candidate is smaller; at and above it the
    count-dependent one is.  Equals ceil(667*n/1000).
    """
    if n < 3:
        raise ConfigError(f"need n >= 3, got {n}")
    return -((-667 * n) // 1000)


@dataclass(frozen=True)
class DoaSolution:
    """Feasible two-phase parameter triple with its certified objective."""

    omega: int
    theta1: float
    theta2: float
    s: float
    q: float
    value: float  # worst-case ratio objective C


def _program(k, n, omega, t1, t2, mask=True):
    """The two-phase program, elementwise over numpy arrays or float64
    scalars: (C, s, q, feasible), where C is the worst of the four ratio
    terms and feasible marks where `mask` holds and the component count s
    lies in [1, omega-1], the only points where C is a certified bound.
    None when no point is feasible."""
    s = (k + (1.0 - omega) * t1 - 2.0 * t2) / (1.0 + 2.0 * t2 - t1)
    feasible = mask & (s >= 1.0 - numeric.EPS) & (s <= omega - 1.0 + numeric.EPS)
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
    """Worst-case ratio of the two-phase policy at one parameter triple.

    Returns (C, s, q), or None when the derived component count s falls
    outside [1, omega-1]: the four-term objective is only a certified bound
    inside that range, so out-of-range triples are disqualified, never
    clamped.
    """
    if not (1 <= omega <= k):
        raise ConfigError(f"need 1 <= omega <= k, got omega={omega} k={k}")
    if not (0.0 < theta1 <= theta2 <= 1.0):
        raise ConfigError(
            f"need 0 < theta1 <= theta2 <= 1, got ({theta1}, {theta2})"
        )
    _check_kn(k, n)
    point = _program(k, n, omega, np.float64(theta1), np.float64(theta2))
    if point is None:
        return None
    c, s, q, _ = point
    return float(c), float(s), float(q)


def _theta_grid(step: float) -> np.ndarray:
    if not (0.0 < step <= 1.0):
        raise ConfigError(f"step must be in (0, 1], got {step}")
    count = int(math.floor(1.0 / step + 1e-12))
    grid = np.arange(1, count + 1, dtype=np.float64) * step
    # Snap the top of the grid onto 1.0 so theta2 <= 1 survives float drift.
    grid[grid > 1.0 - 1e-12] = 1.0
    return grid


def solve_doa(k: int, n: int, step: float = 0.01) -> DoaSolution:
    """Exhaustive grid search for the best feasible two-phase triple.

    omega ranges over [ceil((k+1)/5), k].  The candidates are the grid
    triples, with theta1 < theta2 both multiples of `step` up to 1, plus
    the single-threshold triple theta1 == theta2 == `soa_theta(k, n)` at
    every omega where it is feasible.  So the returned triple may have
    theta1 == theta2; the two-phase policy then plays the single-threshold
    policy, and the value never exceeds the single-threshold bound where
    that triple is feasible.  Ties break deterministically by (C, theta1,
    omega, theta2), all minimised, so parallel or refined runs reproduce
    the same triple.
    """
    _check_kn(k, n)
    grid = _theta_grid(step)
    g = grid.size
    t1 = grid[:, None]  # rows: theta1
    t2 = grid[None, :]  # cols: theta2
    strict = np.triu(np.ones((g, g), dtype=bool), 1)  # theta1 < theta2

    best: Optional[tuple[float, float, int, float]] = None  # (C, t1, omega, t2)
    omega_lo = max(1, -((-(k + 1)) // 5))
    for omega in range(omega_lo, k + 1):
        point = _program(k, n, omega, t1, t2, strict)
        if point is None:
            continue
        c, _, _, feasible = point
        cmax = np.where(feasible, c, np.inf)
        cmin = cmax.min()
        if not np.isfinite(cmin):
            continue
        i1, i2 = np.argwhere(cmax == cmin)[0]  # row-major: min theta1, then theta2
        cand = (float(cmin), float(grid[i1]), omega, float(grid[i2]))
        if best is None or cand < best:
            best = cand
    # The family also holds the single-threshold policy (theta1 == theta2),
    # which the strict grid never reaches; score it at its own threshold,
    # at every omega at once.  Its first minimum over omega wins its ties.
    theta = soa_theta(k, n)
    omegas = np.arange(omega_lo, k + 1)
    point = _program(k, n, omegas, theta, theta)
    if point is not None:
        c, _, _, feasible = point
        cmax = np.where(feasible, c, np.inf)
        i = int(np.argmin(cmax))
        cand = (float(cmax[i]), theta, int(omegas[i]), theta)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise SolverEmptyError(
            f"no feasible two-phase triple for k={k} n={n} step={step}"
        )
    c, th1, omega, th2 = best
    result = doa_objective(k, n, omega, th1, th2)
    assert result is not None
    _, s, q = result
    return DoaSolution(omega, th1, th2, s, q, c)
