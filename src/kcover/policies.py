"""Online decision-makers behind one sequential interface.

Every policy sees one batch at a time and must accept or reject on the
spot; accepts are irrevocable and capped by the quota.  Every threshold
policy is a schedule of one rule (:class:`SchedulePolicy`): the i-th accept
needs a marginal covered length of at least the i-th threshold.  The
comparison uses >= theta - EPS so exact-boundary cases are not flipped by
float drift.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from . import numeric
from .errors import ConfigError, ProtocolError
from .intervals import Batch, CoverageState, Instance, absorb, added_length, union_length
from .thresholds import (
    check_quota,
    check_schedule,
    check_two_phase,
    soa_an_theta,
    soa_theta,
)


class Decision(str, enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class Policy:
    """Stateful single-run decision maker; build a fresh one per game.

    A policy that uses the release count takes it as `total` in its
    constructor; None means the count is unknown.
    """

    name = "policy"
    total: Optional[int] = None

    def __init__(self, quota: int):
        if quota < 1:
            raise ConfigError(f"quota must be >= 1, got {quota}")
        self.quota = quota
        self.accepted_count = 0
        self.state = CoverageState.empty()
        self._cursor = 0

    def describe(self) -> dict:
        return {"quota": self.quota}

    def next(self, item: Batch, position: int) -> Decision:
        """Decide on the item released at `position` (1-based, in order);
        once the quota is used, every later item is rejected."""
        if position != self._cursor + 1:
            raise ProtocolError(
                f"decision out of turn: expected position {self._cursor + 1}, "
                f"got {position}"
            )
        self._cursor = position
        if self.accepted_count >= self.quota or not self._decide(item, position):
            return Decision.REJECT
        self.accepted_count += 1
        self.state = absorb(self.state, item)
        return Decision.ACCEPT

    def _forced(self, position: int) -> bool:
        """True when the count is known and the remaining quota covers
        every remaining release."""
        return (
            self.total is not None
            and self.quota - self.accepted_count >= self.total - position + 1
        )

    def _decide(self, item, position) -> bool:
        raise NotImplementedError


def _default_theta(k, n, setting, m, theta):
    if theta is not None:
        if theta <= 0.0:
            raise ConfigError(f"theta must be positive, got {theta}")
        return float(theta)
    if n is None:
        return soa_an_theta(k, setting, m)
    return soa_theta(k, n, setting, m)


def _check_known_count(quota, total):
    if total is None:
        raise ConfigError("this policy needs the total release count")
    check_quota(quota, total)


class SchedulePolicy(Policy):
    """Per-accept threshold schedule, the rule behind every threshold policy.

    In order: accept the first item when `free_first` is set; accept when
    the count is known and the remaining quota covers every remaining
    release; otherwise accept exactly when the marginal length reaches
    schedule[accepted_count].  `schedule` has one threshold per accept.
    """

    free_first = True

    def __init__(self, quota: int, schedule: Sequence[float], total: Optional[int] = None):
        super().__init__(quota)
        self.schedule = tuple(schedule)
        self.total = total

    def _decide(self, item, position):
        if position == 1 and self.free_first:
            return True
        if self._forced(position):
            return True
        theta = self.schedule[self.accepted_count]
        return added_length(self.state, item) >= theta - numeric.EPS


class ThresholdPolicy(SchedulePolicy):
    """Single threshold with a known release count: theta at every accept,
    with the free first accept and the forced accepts."""

    name = "soa"

    def __init__(self, quota, total, theta=None, setting="UL", m=None):
        _check_known_count(quota, total)
        self.theta = _default_theta(quota, total, setting, m, theta)
        super().__init__(quota, (self.theta,) * quota, total)

    def describe(self):
        return {"quota": self.quota, "n": self.total, "theta": self.theta}


class AnytimeThresholdPolicy(SchedulePolicy):
    """Single threshold without knowing the release count: the same rule,
    never forced."""

    name = "soa-an"

    def __init__(self, quota, theta=None, setting="UL", m=None):
        check_quota(quota)
        self.theta = _default_theta(quota, None, setting, m, theta)
        super().__init__(quota, (self.theta,) * quota)

    def describe(self):
        return {"quota": self.quota, "theta": self.theta}


class TwoPhaseThresholdPolicy(SchedulePolicy):
    """Explore with theta1, exploit with theta2 after `switch_after` accepts.

    theta1 applies while fewer than `switch_after` items are accepted (so to
    accepts 2..switch_after), theta2 afterwards.  With theta1 == theta2 the
    policy is decision-equivalent to :class:`ThresholdPolicy`.
    """

    name = "doa"

    def __init__(self, quota, total, switch_after, theta1, theta2):
        _check_known_count(quota, total)
        check_two_phase(quota, switch_after, theta1, theta2)
        self.switch_after = switch_after
        self.theta1 = float(theta1)
        self.theta2 = float(theta2)
        schedule = (self.theta1,) * switch_after + (self.theta2,) * (quota - switch_after)
        super().__init__(quota, schedule, total)

    def describe(self):
        return {
            "quota": self.quota,
            "n": self.total,
            "omega": self.switch_after,
            "theta1": self.theta1,
            "theta2": self.theta2,
        }


class MultiThresholdPolicy(SchedulePolicy):
    """Non-increasing per-accept thresholds; the i-th accept needs marginal
    length >= thresholds[i].  No unconditional first accept (on unit-length
    input the first item passes any threshold <= 1 anyway) and no forced
    accepts."""

    name = "multi-threshold"
    free_first = False

    def __init__(self, thresholds: Sequence[float]):
        self.thresholds = check_schedule(thresholds)
        super().__init__(len(self.thresholds), self.thresholds)

    def describe(self):
        return {"quota": self.quota, "thresholds": list(self.thresholds)}


class AcceptAllPolicy(Policy):
    """Accept everything until the quota runs out."""

    name = "accept-all"

    def _decide(self, item, position):
        return True


class RejectUntilForcedPolicy(Policy):
    """Reject until the remaining quota only just covers the remaining
    releases, then accept everything (takes the last k items).  Without a
    release count it is never forced, so it rejects everything."""

    name = "reject-until-forced"

    def __init__(self, quota, total=None):
        super().__init__(quota)
        self.total = total

    def describe(self):
        return {"quota": self.quota, "n": self.total}

    def _decide(self, item, position):
        return self._forced(position)


def run_policy(
    policy: Policy, inst: Instance
) -> tuple[float, tuple[int, ...], list[Decision]]:
    """Feed a fixed instance to a policy, one item per position.

    Returns (covered length, accepted item indices, full decision trace).
    """
    accepted: list[int] = []
    trace: list[Decision] = []
    for pos, item in enumerate(inst.items, start=1):
        d = policy.next(item, pos)
        trace.append(d)
        if d is Decision.ACCEPT:
            accepted.append(pos - 1)
            if len(accepted) > inst.quota:
                raise ProtocolError("accepted more items than the quota allows")
    value = union_length([inst.items[i] for i in accepted])
    return value, tuple(accepted), trace
