"""Adaptive generators that realise each lower-bound construction.

An adversary emits items one at a time and watches the policy's decisions;
the item at position i+1 may depend only on decisions at positions <= i,
which the first/react API enforces by construction.  Each adversary carries
the bound it certifies (read from :mod:`kcover.bounds`, never re-derived),
so a formula bug surfaces as a certification failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .bounds import chain_alpha, lb_fl_an, lb_fl_un, lb_ul_un, lb_us_un
from .errors import ConfigError, ProtocolError
from .intervals import Batch, Setting, SubInterval
from .policies import Decision


class Adversary:
    """Base class: position bookkeeping and the emit-then-react protocol."""

    name = "adversary"

    def __init__(self, quota: int, total: int, setting: Setting, target_len: float,
                 declared_bound: float):
        self.quota = quota
        self.total = total
        self.setting = setting
        self.target_len = target_len
        self.declared_bound = declared_bound
        self._pos = 0

    def describe(self) -> dict:
        return {"quota": self.quota, "n": self.total}

    @property
    def known_count(self) -> bool:
        return self.setting.count == "UN"

    def first(self) -> Batch:
        if self._pos != 0:
            raise ProtocolError("first() may only be called once, before react()")
        self._pos = 1
        return self._item(1)

    def react(self, decision: Decision, position: int) -> Optional[Batch]:
        """Record the decision for `position` and emit the next item."""
        if position != self._pos:
            raise ProtocolError(
                f"react out of turn: expected position {self._pos}, got {position}"
            )
        self._on_decision(decision, position)
        self._pos += 1
        if self._pos > self.total:
            return None
        return self._item(self._pos)

    def _item(self, position: int) -> Batch:
        raise NotImplementedError

    def _on_decision(self, decision: Decision, position: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricGadget:
    """Offsets of the unit-chain construction.

    offsets[0] = 0; offsets[i] = k^(i/k) - k^((i-1)/k) for i <= alpha, then 1.
    From alpha+1 on, each item ends exactly where the next one starts, so the
    chain covers one growing contiguous region.
    """

    k: int
    n: int
    alpha: int
    offsets: tuple[float, ...]   # theta_0 .. theta_{n-1}
    starts: tuple[float, ...]    # prefix sums: start of item i (1-based: starts[i-1])

    def item(self, position: int) -> Batch:
        s = self.starts[position - 1]
        return Batch.single(s, s + 1.0)


def geometric_gadget(k: int, n: int) -> GeometricGadget:
    if k < 3:
        raise ConfigError(f"chain gadget needs k >= 3, got {k}")
    alpha = chain_alpha(k)
    offsets = [0.0]
    for i in range(1, n):
        if i <= alpha:
            offsets.append(k ** (i / k) - k ** ((i - 1) / k))
        else:
            offsets.append(1.0)
    starts = []
    acc = 0.0
    for off in offsets:
        acc += off
        starts.append(acc)
    return GeometricGadget(k, n, alpha, tuple(offsets), tuple(starts))


class ArbitraryLengthAdversary(Adversary):
    """Nested ladder [0, eps^(k+1-i)]; punishes the first rejection with
    eps-times-smaller clones, or full acceptance with unit clones.  Forces
    ratio >= 1/eps against any deterministic policy."""

    name = "al"

    def __init__(self, epsilon: float, quota: int, horizon: int):
        if not (0.0 < epsilon < 1.0):
            raise ConfigError(f"need 0 < epsilon < 1, got {epsilon}")
        if quota < 2:
            raise ConfigError(f"need k >= 2, got {quota}")
        if horizon < quota + 1:
            raise ConfigError(f"need horizon >= k+1, got {horizon}")
        super().__init__(
            quota, horizon, Setting("AL", "UN"), 1.0, 1.0 / epsilon
        )
        self.epsilon = epsilon
        self._terminal: Optional[Batch] = None

    def describe(self):
        return {"quota": self.quota, "n": self.total, "epsilon": self.epsilon}

    def _item(self, position):
        if self._terminal is not None:
            return self._terminal
        return Batch.single(0.0, self.epsilon ** (self.quota + 1 - position))

    def _on_decision(self, decision, position):
        if self._terminal is not None:
            return
        if decision is Decision.REJECT:
            self._terminal = Batch.single(
                0.0, self.epsilon ** (self.quota + 2 - position)
            )
        elif position == self.quota:
            self._terminal = Batch.single(0.0, 1.0)


def adv_al(epsilon: float, k: int, horizon: int) -> ArbitraryLengthAdversary:
    return ArbitraryLengthAdversary(epsilon, k, horizon)


class UnitPairAdversary(Adversary):
    """Quota-2 unit construction: [0,1] then [sqrt(2)-1, sqrt(2)], with the
    tail chosen from the first two decisions.  Forces ratio >= sqrt(2)."""

    name = "ul-un-k2"

    def __init__(self, n: int):
        if n < 3:
            raise ConfigError(f"need n >= 3, got {n}")
        super().__init__(2, n, Setting("UL", "UN"), 2.0, lb_ul_un(2, n))
        self._first_two: list[Decision] = []
        self._tail: Optional[Batch] = None
        r = math.sqrt(2.0)
        self._v1 = Batch.single(0.0, 1.0)
        self._v2 = Batch.single(r - 1.0, r)

    def _item(self, position):
        if position == 1:
            return self._v1
        if position == 2:
            return self._v2
        return self._tail

    def _on_decision(self, decision, position):
        if position <= 2:
            self._first_two.append(decision)
        if position == 2:
            d1, d2 = self._first_two
            if d1 is Decision.ACCEPT and d2 is Decision.ACCEPT:
                self._tail = Batch.single(1.0, 2.0)        # both taken
            elif d1 is Decision.REJECT and d2 is Decision.ACCEPT:
                self._tail = self._v2                      # re-offer the second
            else:
                self._tail = self._v1                      # re-offer the first


def adv_ul_un_k2(n: int) -> UnitPairAdversary:
    return UnitPairAdversary(n)


class UnitChainAdversary(Adversary):
    """Unit chain with geometric, then unit, offsets; the first rejection at
    position j <= k freezes the stream on clones of item j-1 (or of [1, 2]
    when the opening item is rejected).  Rejections past position k leave the
    chain running."""

    name = "ul-un-general"

    def __init__(self, k: int, n: int):
        if not (3 <= k <= n - 1):
            raise ConfigError(f"need 3 <= k <= n-1, got k={k} n={n}")
        gadget = geometric_gadget(k, n)
        a = 2.0 + sum(gadget.offsets)
        super().__init__(k, n, Setting("UL", "UN"), a, lb_ul_un(k, n))
        self.gadget = gadget
        self._clone: Optional[Batch] = None

    def _item(self, position):
        if self._clone is not None:
            return self._clone
        return self.gadget.item(position)

    def _on_decision(self, decision, position):
        if self._clone is not None or decision is Decision.ACCEPT:
            return
        if position == 1:
            self._clone = Batch.single(1.0, 2.0)
        elif position <= self.quota:
            self._clone = self.gadget.item(position - 1)


def adv_ul_un_general(k: int, n: int) -> UnitChainAdversary:
    return UnitChainAdversary(k, n)


class FlexAdversary(Adversary):
    """Flexible-length construction: tau unit probes, then a tail picked by
    how many probes were accepted.

    Accepting at least ceil(tau/2) probes brings a run of disjoint length-m
    items the policy no longer has quota for; accepting fewer brings clones
    of [0, 1] that add nothing.  The degenerate tau=1, zero-accept corner
    (only reachable by policies that hold their whole quota back) gets a
    tail whose own coverage tops out at k-1 units, so skipping the probe
    still costs a factor k/(k-1) >= the declared bound.
    """

    def __init__(self, k: int, total: int, m: float, known_count: bool):
        if m <= 1.0:
            raise ConfigError(f"need m > 1, got {m}")
        if known_count:
            if not (2 <= k <= total - 1):
                raise ConfigError(f"need 2 <= k <= n-1, got k={k} n={total}")
            tau = min(k, total - k)
            bound = lb_fl_un(k, total, m)
            setting = Setting("FL", "UN", m)
            self.name = "fl-un"
        else:
            if total < 2 * k:
                raise ConfigError(
                    f"need horizon >= 2k for the length-m tail, got {total}"
                )
            tau = k
            bound = lb_fl_an(m)
            setting = Setting("FL", "AN", m)
            self.name = "fl-an"
        a = tau + (total - tau) * m + 1.0
        super().__init__(k, total, setting, a, bound)
        self.m = m
        self.tau = tau
        self._accepts = 0
        self._mode: Optional[str] = None  # "mtail" | "clones" | "dup-units"

    def describe(self):
        return {"quota": self.quota, "n": self.total, "m": self.m, "tau": self.tau}

    def _item(self, position):
        if position <= self.tau:
            return Batch.single(float(position - 1), float(position))
        if self._mode == "mtail":
            t = position - self.tau
            return Batch.single(
                self.tau + (t - 1) * self.m, self.tau + t * self.m
            )
        if self._mode == "clones":
            return Batch.single(0.0, 1.0)
        # dup-units: distinct units [1,2]..[k-1,k], then clones of the last.
        t = min(position - self.tau, self.quota - 1)
        return Batch.single(float(t), float(t + 1))

    def _on_decision(self, decision, position):
        if position <= self.tau and decision is Decision.ACCEPT:
            self._accepts += 1
        if position == self.tau:
            if self._accepts >= math.ceil(self.tau / 2):
                self._mode = "mtail"
            elif self._accepts >= 1 or self.tau >= 2:
                self._mode = "clones"
            else:
                self._mode = "dup-units"


def adv_fl_un(k: int, n: int, m: float) -> FlexAdversary:
    return FlexAdversary(k, n, m, known_count=True)


def adv_fl_an(k: int, m: float, horizon: int) -> FlexAdversary:
    return FlexAdversary(k, horizon, m, known_count=False)


def _split_unit(batch: Batch, parts: int) -> Batch:
    """Partition a unit interval into `parts` touching equal pieces."""
    (iv,) = batch.parts
    cuts = [iv.start + i / parts for i in range(parts)] + [iv.end]
    return Batch(tuple(SubInterval(cuts[i], cuts[i + 1]) for i in range(parts)))


class UnitSumAdversary(UnitChainAdversary):
    """Unit-sum variant: the unit-chain items, each partitioned into equal
    touching pieces.  Marginal lengths are unchanged, so threshold policies
    trace identically to the unpartitioned run."""

    name = "us-un"

    def __init__(self, k: int, n: int, parts_per_batch: int):
        if parts_per_batch < 1:
            raise ConfigError(f"need parts_per_batch >= 1, got {parts_per_batch}")
        super().__init__(k, n)
        self.setting = Setting("US", "UN")
        self.declared_bound = lb_us_un(k, n)
        self.parts = parts_per_batch

    def describe(self):
        return {"quota": self.quota, "n": self.total, "parts": self.parts}

    def _item(self, position):
        batch = super()._item(position)
        return batch if self.parts == 1 else _split_unit(batch, self.parts)


def adv_us_un(k: int, n: int, parts_per_batch: int) -> UnitSumAdversary:
    return UnitSumAdversary(k, n, parts_per_batch)
