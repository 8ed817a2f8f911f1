"""Closed-form competitive-ratio bounds for every setting.

Lower bounds are what no deterministic online algorithm can beat (each one
is realised by an adaptive adversary in :mod:`kcover.adversaries`); upper
bounds are what the shipped threshold policies guarantee.  The arbitrary-
length setting has no finite lower bound, represented by an explicit
``UNBOUNDED`` marker rather than a float infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ConfigError
from .thresholds import (
    check_fl_cap,
    check_fl_finite,
    check_quota,
    check_schedule,
    soa_an_theta,
    soa_theta,
)


class Unbounded:
    """Marker for 'no finite bound exists'; never enters arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = Unbounded()

BoundValue = Union[float, Unbounded]


def chain_alpha(k: int) -> int:
    """Number of geometric offsets in the unit-chain construction.

    floor(1 - k*log(k^(1/k) - 1)/log k); the largest i for which the i-th
    geometric gap k^(i/k) - k^((i-1)/k) still fits under one unit.
    """
    if k < 3:
        raise ConfigError(f"chain_alpha needs k >= 3, got {k}")
    return math.floor(1.0 - k * math.log(k ** (1.0 / k) - 1.0) / math.log(k))


def _chain_terms(k: int) -> tuple[float, float, float]:
    """(k^(1/k), middle ratio term, denominator k^(a/k)+k-a-1) for k >= 3."""
    a = chain_alpha(k)
    kak = k ** (a / k)
    denom = kak + k - a - 1.0
    middle = denom / (kak + k - a - 2.0)
    return k ** (1.0 / k), middle, denom


def lb_ul_un(k: int, n: int) -> float:
    """Unit-length, known count: the ratio the unit-chain construction forces
    on every deterministic policy.  It is a lower bound only: at small n
    the exact game value can lie above it.

    For short horizons (n <= alpha + k) the third term is capped by what the
    last k chain items of the realising construction actually cover,
    n - alpha + k^(alpha/k) - k^((n-k)/k); the chain geometry makes any
    larger cap unforceable.
    """
    check_quota(k, n)
    if k == 2:
        return math.sqrt(2.0)
    first, middle, denom = _chain_terms(k)
    a = chain_alpha(k)
    if k <= n - a - 1:
        beta = float(k)
    else:
        beta = min(float(k), n - a + k ** (a / k) - k ** ((n - k) / k))
    return min(first, middle, beta / denom)


def lb_ul_an(k: int) -> float:
    """Unit-length, unknown count: the known-count bound without the
    short-horizon correction (the optimum is capped by the quota alone)."""
    check_quota(k)
    if k == 2:
        return math.sqrt(2.0)
    first, middle, denom = _chain_terms(k)
    return min(first, middle, k / denom)


def lb_fl_un(k: int, n: int, m: float) -> float:
    """Flexible-length, known count: 2km / (2km + (1-m) * min(k, n-k))."""
    check_fl_cap(m)
    check_quota(k, n)
    tau = min(k, n - k)
    return check_fl_finite((2.0 * k * m) / (2.0 * k * m + (1.0 - m) * tau), m)


def lb_fl_an(m: float) -> float:
    """Flexible-length, unknown count: 2m / (m+1)."""
    check_fl_cap(m)
    return check_fl_finite(2.0 * m / (m + 1.0), m)


def lb_us_un(k: int, n: int) -> float:
    """Unit-sum batches inherit the unit-length bound (partition argument)."""
    return lb_ul_un(k, n)


def lb_al() -> Unbounded:
    """Arbitrary lengths admit no finite lower bound."""
    return UNBOUNDED


def ub_soa(k: int, n: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Guaranteed worst-case ratio of the known-count threshold policy:
    1 + 2 * :func:`soa_theta`."""
    return 1.0 + 2.0 * soa_theta(k, n, setting, m)


def ub_soa_an(k: int, setting: str = "UL", m: Optional[float] = None) -> float:
    """Guaranteed worst-case ratio of the count-free threshold policy:
    1 + 2 * :func:`soa_an_theta`."""
    return 1.0 + 2.0 * soa_an_theta(k, setting, m)


def ub_multi(thresholds: Sequence[float], k: int) -> float:
    """Upper bound on OPT / ALG over every game a non-increasing
    multi-threshold policy plays at quota k: max(k / (1 + sum of thresholds
    2..k), 1 + 2*theta_2), capped at k, since ALG >= 1 (the first item is
    accepted) and OPT <= k; the cap acts only at k = 2 with theta_2 > 1/2.
    Minimised over constant lists this equals :func:`ub_soa_an`, so no
    non-increasing schedule beats the single count-free threshold."""
    thresholds = check_schedule(thresholds, k)
    check_quota(k)
    tail = sum(thresholds[1:])
    return min(max(k / (1.0 + tail), 1.0 + 2.0 * thresholds[1]), float(k))


@dataclass(frozen=True)
class BoundReport:
    """One row of the settings-vs-bounds table."""

    setting: str
    k: int
    n: Optional[int]
    m: Optional[float]
    lower: BoundValue
    upper: Optional[float]
    source: str


def bound_table(k: int, n: int, m: float = 2.0) -> list[BoundReport]:
    """Lower/upper bound rows for every setting at the given parameters."""
    return [
        BoundReport("UL-UN", k, n, None, lb_ul_un(k, n), ub_soa(k, n, "UL"), "unit/known"),
        BoundReport("UL-AN", k, None, None, lb_ul_an(k), ub_soa_an(k, "UL"), "unit/unknown"),
        BoundReport("FL-UN", k, n, m, lb_fl_un(k, n, m), ub_soa(k, n, "FL", m), "flex/known"),
        BoundReport("FL-AN", k, None, m, lb_fl_an(m), ub_soa_an(k, "FL", m), "flex/unknown"),
        BoundReport("AL", k, n, None, lb_al(), None, "arbitrary"),
        BoundReport("US-UN", k, n, None, lb_us_un(k, n), ub_soa(k, n, "US"), "unit-sum/known"),
    ]
