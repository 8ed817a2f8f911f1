"""Adaptive constructions that realise each lower bound.

One :class:`Adversary` class plays every construction: an immutable memory,
``remember(memory, position, decision)`` and ``item(position, memory)``.  So
the item at position i+1 depends only on decisions at positions <= i, and a
game's decision tree can go on from any node's memory.  Each ``adv_*``
factory validates its inputs and carries the bound its construction
certifies (read from :mod:`kcover.bounds`, never re-derived), so a formula
bug surfaces as a certification failure.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from .bounds import chain_alpha, lb_fl_an, lb_fl_un, lb_ul_un, lb_us_un
from .errors import ConfigError
from .intervals import Batch, Setting, SubInterval
from .policies import ACCEPT, REJECT, Decision
from .thresholds import check_fl_cap, check_fl_finite, check_quota


class Adversary:
    """A construction's item stream behind the emit-then-react protocol.

    It keeps no state: `start` is the memory before any decision, and each
    call takes the memory it goes on from.  `n` items are released in all.
    `config` holds the construction's own parameters for :meth:`describe`.
    """

    def __init__(self, name: str, quota: int, n: int, setting: Setting,
                 target_len: float, declared_bound: float, config: dict, start: object,
                 remember: Callable[[object, int, Decision], object],
                 item: Callable[[int, object], Batch]):
        self.name = name
        self.quota = quota
        self.n = n
        self.setting = setting
        self.target_len = target_len
        self.declared_bound = declared_bound
        self._config = config
        self._start, self._remember, self._item = start, remember, item

    def describe(self) -> dict:
        return {"quota": self.quota, "n": self.n, **self._config}

    def first(self) -> tuple[Batch, object]:
        """The item at position 1 and the memory it was released from."""
        return self._item(1, self._start), self._start

    def react(self, memory: object, decision: Decision,
              position: int) -> tuple[Optional[Batch], object]:
        """Fold the decision on the item at `position` into `memory`; returns
        the next item (None past the n-th release) and the new memory."""
        memory = self._remember(memory, position, decision)
        if position >= self.n:
            return None, memory
        return self._item(position + 1, memory), memory


def _chain_offsets(k: int, n: int) -> list[float]:
    """Gaps between the starts of consecutive unit-chain items.

    offsets[0] = 0; offsets[i] = k^(i/k) - k^((i-1)/k) for i <= alpha, then 1.
    From alpha+1 on, each item ends exactly where the next one starts, so the
    chain covers one growing contiguous region.
    """
    alpha = chain_alpha(k)
    return [0.0] + [
        k ** (i / k) - k ** ((i - 1) / k) if i <= alpha else 1.0 for i in range(1, n)
    ]


def adv_al(epsilon: float, k: int, n: int) -> Adversary:
    """Arbitrary lengths: forces ratio >= 1/eps against any deterministic policy.

    Nested ladder [0, eps^(k+1-i)].  The memory is the clone the stream then
    repeats (None before it): eps times the first rejected rung, or a unit
    after full acceptance."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"need 0 < epsilon < 1, got {epsilon}")
    check_quota(k, n)
    if not epsilon ** (k + 1) > 0.0:
        raise ConfigError(
            f"epsilon={epsilon} underflows at k={k}: the smallest rung "
            f"epsilon^(k+1) rounds to 0"
        )

    def remember(clone, pos, d):
        if clone is None and d is REJECT:
            return Batch.single(0.0, epsilon ** (k + 2 - pos))
        return Batch.single(0.0, 1.0) if clone is None and pos == k else clone

    def item(pos, clone):
        return Batch.single(0.0, epsilon ** (k + 1 - pos)) if clone is None else clone

    return Adversary("al", k, n, Setting("AL", "UN"), 1.0, 1.0 / epsilon,
                     {"epsilon": epsilon}, None, remember, item)


def adv_ul_un_k2(n: int) -> Adversary:
    """Quota-2 unit construction: forces ratio >= sqrt(2).

    [0,1] then [sqrt(2)-1, sqrt(2)]; the memory keeps the first two
    decisions, and the tail follows them."""
    check_quota(2, n)
    r = math.sqrt(2.0)
    v1, v2, both = Batch.single(0.0, 1.0), Batch.single(r - 1.0, r), Batch.single(1.0, 2.0)

    def item(pos, decisions):
        if pos <= 2:
            return v2 if pos == 2 else v1
        if decisions[1] is ACCEPT:  # both taken, or re-offer the second
            return both if decisions[0] is ACCEPT else v2
        return v1                            # re-offer the first

    return Adversary("ul-un-k2", 2, n, Setting("UL", "UN"), 2.0, lb_ul_un(2, n), {},
                     (), lambda ds, pos, d: ds + (d,) if pos <= 2 else ds, item)


def _chain(name: str, k: int, n: int, parts: int, setting: Setting, config: dict,
           bound: Callable[[int, int], float]) -> Adversary:
    """Unit chain, each item cut into `parts` pieces.  The memory is the
    clone the stream freezes on (None while the chain runs): the first
    rejection at position j <= k freezes it on clones of item j-1 (of [1, 2]
    when the opening item is rejected); later rejections leave it running."""
    if k < 3:
        raise ConfigError(f"{name} needs k >= 3, got {k}")
    check_quota(k, n)
    offsets = _chain_offsets(k, n)
    starts = [1.0, *itertools.accumulate(offsets)]  # [1, 2] stands before item 1

    def remember(clone, pos, d):
        if clone is None and d is REJECT and pos <= k:
            return item(pos - 1, None)
        return clone

    def item(pos, clone):
        return _unit(starts[pos], parts) if clone is None else clone

    return Adversary(name, k, n, setting, 2.0 + sum(offsets), bound(k, n), config,
                     None, remember, item)


def adv_ul_un_general(k: int, n: int) -> Adversary:
    return _chain("ul-un-general", k, n, 1, Setting("UL", "UN"), {}, lb_ul_un)


def _unit(start: float, parts: int) -> Batch:
    """[start, start + 1] cut into `parts` touching equal pieces."""
    if parts == 1:
        return Batch.single(start, start + 1.0)
    cuts = [start + i / parts for i in range(parts)] + [start + 1.0]
    return Batch(tuple(SubInterval(cuts[i], cuts[i + 1]) for i in range(parts)))


def adv_us_un(k: int, n: int, parts: int) -> Adversary:
    """Unit-sum variant: the unit-chain items, each partitioned into equal
    touching pieces.  Marginal lengths are unchanged, so threshold policies
    trace identically to the unpartitioned run."""
    if parts < 1:
        raise ConfigError(f"need parts >= 1, got {parts}")
    return _chain("us-un", k, n, parts, Setting("US", "UN"), {"parts": parts}, lb_us_un)


def _flex(name: str, k: int, n: int, m: float, tau: int, setting: Setting,
          bound: float) -> Adversary:
    """tau unit probes, then a tail picked by how many probes were accepted,
    the count the memory keeps.

    Accepting at least ceil(tau/2) probes brings a run of disjoint length-m
    items the policy no longer has quota for; accepting fewer brings clones
    of [0, 1] that add nothing.  The degenerate tau=1, zero-accept corner
    (only reachable by policies that hold their whole quota back) gets the
    distinct units [1,2]..[k-1,k], then clones of the last: a tail whose own
    coverage tops out at k-1 units, so skipping the probe still costs a
    factor k/(k-1) >= the declared bound.
    """
    target_len = check_fl_finite(tau + (n - tau) * m + 1.0, m)
    unit, last = Batch.single(0.0, 1.0), Batch.single(k - 1.0, float(k))

    def remember(accepts, pos, d):
        return accepts + 1 if pos <= tau and d is ACCEPT else accepts

    def item(pos, accepts):
        t = pos - tau
        if t <= 0:
            return Batch.single(float(pos - 1), float(pos))
        if accepts >= math.ceil(tau / 2):
            return Batch.single(tau + (t - 1) * m, tau + t * m)
        if accepts >= 1 or tau >= 2:
            return unit
        return Batch.single(float(t), float(t + 1)) if t < k else last

    return Adversary(name, k, n, setting, target_len, bound,
                     {"m": m, "tau": tau}, 0, remember, item)


def adv_fl_un(k: int, n: int, m: float) -> Adversary:
    check_fl_cap(m)
    check_quota(k, n)
    return _flex("fl-un", k, n, m, min(k, n - k), Setting("FL", "UN", m), lb_fl_un(k, n, m))


def adv_fl_an(k: int, m: float, n: int) -> Adversary:
    check_quota(k)
    check_fl_cap(m)
    if n < 2 * k:
        raise ConfigError(f"need n >= 2k for the length-m tail, got {n}")
    return _flex("fl-an", k, n, m, k, Setting("FL", "AN", m), lb_fl_an(m))
