"""Online decision-makers behind one sequential interface.

Every policy sees one batch at a time and must accept or reject on the
spot; accepts are irrevocable and capped by the quota.  Every policy is a
threshold schedule played by one rule, :class:`Policy`.  The comparison uses
>= theta - EPS so exact-boundary cases are not flipped by float drift.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Sequence

from . import numeric
from .errors import ConfigError, ProtocolError
from .intervals import Batch, CoverageState, Instance
from .thresholds import check_quota, check_schedule, check_two_phase, default_switch
from .thresholds import soa_an_theta, soa_theta, solve_doa


class Decision(str, enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


ACCEPT, REJECT = Decision.ACCEPT, Decision.REJECT  # read once, not via Enum's descriptor


class Policy:
    """Per-accept threshold schedule, the rule behind every policy; it is
    stateful and single-run, so build a fresh one per game.

    The policy is the one record of its game: `state` is the coverage of
    its accepts, `accepted` their 0-based release indices and `trace` every
    decision in release order (:data:`ACCEPT` or :data:`REJECT`).  In order:
    reject once the quota is used; then, by :meth:`_decide`, the override
    point: accept the first item if `free_first`; accept when `n` is known
    and the remaining quota covers every remaining release; otherwise accept
    when the marginal length reaches ``schedule[min(len(accepted), last)]``.
    `config` holds what :meth:`describe` reports after the quota; `n` is
    read from it (absent or None means unknown), so a policy plays with the
    count its record shows.
    """

    name = "policy"
    free_first = True

    def __init__(self, quota: int, schedule: Sequence[float], **config):
        if quota < 1:
            raise ConfigError(f"quota must be >= 1, got {quota}")
        if not schedule:
            raise ConfigError("a policy needs at least one threshold")
        self.quota = quota
        self.schedule = tuple(schedule)
        self.n: Optional[int] = config.get("n")
        self.config = config
        self.state = CoverageState.empty()
        self.accepted: list[int] = []
        self.trace: list[Decision] = []

    def describe(self) -> dict:
        return {"quota": self.quota, **self.config}

    def next(self, item: Batch) -> Decision:
        """Decide on the next item, released at position ``len(trace) + 1``:
        :data:`ACCEPT` or :data:`REJECT`, recorded in `trace` (and on an
        accept its 0-based index in `accepted`).  The item is placed once,
        for its gain, and the state applies that splice only on an accept."""
        trace, accepted = self.trace, self.accepted
        position = len(trace) + 1
        if len(accepted) < self.quota:
            gain, splice = self.state.place(item)
            if self._decide(gain, position):
                accepted.append(position - 1)
                self.state.apply(splice)
                trace.append(ACCEPT)
                return ACCEPT
        trace.append(REJECT)
        return REJECT

    def _decide(self, gain: float, position: int) -> bool:
        """Accept the item at `position` whose marginal covered length is `gain`?"""
        if position == 1 and self.free_first:
            return True
        taken = len(self.accepted)
        if self.n is not None and self.quota - taken >= self.n - position + 1:
            return True
        return gain >= self.schedule[taken if taken < len(self.schedule) else -1] - numeric.EPS


def _default_theta(k, n, setting, m, theta):
    if theta is None:
        return soa_an_theta(k, setting, m) if n is None else soa_theta(k, n, setting, m)
    if not (0.0 < theta < math.inf):
        raise ConfigError(f"theta must be a finite number > 0, got {theta}")
    return float(theta)


def _check_known_count(name, quota, n):
    if n is None:
        raise ConfigError(f"{name} needs the total release count")
    check_quota(quota, n)


class ThresholdPolicy(Policy):
    """Single threshold with a known release count: theta at every accept,
    with the free first accept and the forced accepts."""

    name = "soa"

    def __init__(self, quota, n, theta=None, setting="UL", m=None):
        _check_known_count(self.name, quota, n)
        theta = _default_theta(quota, n, setting, m, theta)
        super().__init__(quota, (theta,), n=n, theta=theta)


class AnytimeThresholdPolicy(Policy):
    """Single threshold without knowing the release count: the same rule,
    never forced."""

    name = "soa-an"

    def __init__(self, quota, theta=None, setting="UL", m=None):
        check_quota(quota)
        theta = _default_theta(quota, None, setting, m, theta)
        super().__init__(quota, (theta,), theta=theta)


class TwoPhaseThresholdPolicy(Policy):
    """Explore with theta1, exploit with theta2 after `omega` accepts.

    theta1 applies while fewer than `omega` items are accepted (so to
    accepts 2..omega), theta2 afterwards.  With theta1 == theta2 the
    policy is decision-equivalent to :class:`ThresholdPolicy`.  Without
    thetas it plays :func:`solve_doa`'s triple; thetas without `omega`
    switch at :func:`default_switch`.
    """

    name = "doa"

    def __init__(self, quota, n, omega=None, theta1=None, theta2=None):
        if (theta1 is None) != (theta2 is None) or (theta1 is None and omega is not None):
            raise ConfigError(
                "doa takes theta1 and theta2 (and optionally omega) together or not at all"
            )
        _check_known_count(self.name, quota, n)
        if theta1 is None:
            sol = solve_doa(quota, n)
            omega, theta1, theta2 = sol.omega, sol.theta1, sol.theta2
        elif omega is None:
            omega = default_switch(quota)
        check_two_phase(quota, omega, theta1, theta2)
        theta1, theta2 = float(theta1), float(theta2)
        schedule = (theta1,) * omega + (theta2,)
        super().__init__(quota, schedule, n=n, omega=omega, theta1=theta1, theta2=theta2)


class MultiThresholdPolicy(Policy):
    """Non-increasing per-accept thresholds; the i-th accept needs marginal
    length >= thresholds[i].  No unconditional first accept (on unit-length
    input the first item passes any threshold <= 1 anyway) and no forced
    accepts."""

    name = "multi-threshold"
    free_first = False

    def __init__(self, thresholds: Sequence[float]):
        thresholds = check_schedule(thresholds)
        super().__init__(len(thresholds), thresholds, thresholds=list(thresholds))


class AcceptAllPolicy(Policy):
    """Accept everything until the quota runs out: every threshold is -inf."""

    name = "accept-all"

    def __init__(self, quota):
        super().__init__(quota, (-math.inf,))


class RejectUntilForcedPolicy(Policy):
    """Reject until the remaining quota only just covers the remaining
    releases, then accept everything (takes the last k items): every
    threshold is +inf.  Without a release count it is never forced, so it
    rejects everything."""

    name = "reject-until-forced"
    free_first = False

    def __init__(self, quota, n=None):
        super().__init__(quota, (math.inf,), n=n)


def tally(policy: Policy, inst: Instance) -> tuple[float, tuple[int, ...], list[Decision]]:
    """Score the game `policy` played on `inst` from the policy's own record:
    (covered length of the accepted items, their indices, the decision
    trace).  The length is the policy's own coverage total, which equals
    ``union_length`` of the accepted items bit for bit.  A policy that did
    not decide exactly the instance's items (half-played, or reused for a
    second game), or that accepted more than the quota, is an error."""
    if len(policy.trace) != inst.n:
        raise ProtocolError(
            f"{policy.name} decided {len(policy.trace)} items, but the "
            f"instance holds {inst.n}"
        )
    if len(policy.accepted) > inst.quota:
        raise ProtocolError(
            f"{policy.name} accepted {len(policy.accepted)} items with quota {inst.quota}"
        )
    return policy.state.total_len, tuple(policy.accepted), policy.trace


def run_policy(policy: Policy, inst: Instance) -> tuple[float, tuple[int, ...], list[Decision]]:
    """Feed a fixed instance to a policy, one item at a time.

    Returns (covered length, accepted item indices, full decision trace).
    """
    decide = policy.next
    for item in inst.items:
        decide(item)
    return tally(policy, inst)
