"""Adaptive generators that realise each lower-bound construction.

One :class:`Adversary` class plays every construction.  Each construction is
a generator that yields the item for each position and receives the policy's
decision on it (``d = yield item``), so the item at position i+1 depends only
on decisions at positions <= i, and the generator reads in release order like
its proof.  Each ``adv_*`` factory validates its inputs and carries the bound
its construction certifies (read from :mod:`kcover.bounds`, never
re-derived), so a formula bug surfaces as a certification failure.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Generator, Optional

from .bounds import chain_alpha, lb_fl_an, lb_fl_un, lb_ul_un, lb_us_un
from .errors import ConfigError, ProtocolError
from .intervals import Batch, Setting, SubInterval
from .policies import Decision
from .thresholds import check_fl_cap, check_fl_finite, check_quota

Play = Generator[Batch, Decision, None]


class Adversary:
    """A construction's item stream behind the emit-then-react protocol.

    `play` yields the item at each position and receives the decision on it;
    `n` items are released in all.  `config` holds the construction's own
    parameters for :meth:`describe`.
    """

    def __init__(self, name: str, quota: int, n: int, setting: Setting,
                 target_len: float, declared_bound: float, config: dict, play: Play):
        self.name = name
        self.quota = quota
        self.n = n
        self.setting = setting
        self.target_len = target_len
        self.declared_bound = declared_bound
        self._config = config
        self._play = play
        self._pos = 0

    def describe(self) -> dict:
        return {"quota": self.quota, "n": self.n, **self._config}

    def first(self) -> Batch:
        if self._pos != 0:
            raise ProtocolError("first() may only be called once, before react()")
        self._pos = 1
        return next(self._play)

    def react(self, decision: Decision, position: int) -> Optional[Batch]:
        """Record the decision for `position` and emit the next item."""
        if position != self._pos:
            raise ProtocolError(
                f"react out of turn: expected position {self._pos}, got {position}"
            )
        self._pos += 1
        if self._pos > self.n:
            return None
        return self._play.send(decision)


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


def _al_play(epsilon: float, k: int) -> Play:
    """Nested ladder [0, eps^(k+1-i)]; the first rejection brings clones eps
    times smaller than the rejected rung, full acceptance brings unit clones."""
    for pos in range(1, k + 1):
        if (yield Batch.single(0.0, epsilon ** (k + 1 - pos))) is Decision.REJECT:
            clone = Batch.single(0.0, epsilon ** (k + 2 - pos))
            break
    else:
        clone = Batch.single(0.0, 1.0)
    while True:
        yield clone


def adv_al(epsilon: float, k: int, n: int) -> Adversary:
    """Arbitrary lengths: forces ratio >= 1/eps against any deterministic policy."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"need 0 < epsilon < 1, got {epsilon}")
    check_quota(k)
    if n < k + 1:
        raise ConfigError(f"need n >= k+1, got {n}")
    return Adversary("al", k, n, Setting("AL", "UN"), 1.0, 1.0 / epsilon,
                     {"epsilon": epsilon}, _al_play(epsilon, k))


def _pair_play() -> Play:
    """[0,1] then [sqrt(2)-1, sqrt(2)]; the tail follows the first two decisions."""
    r = math.sqrt(2.0)
    v1 = Batch.single(0.0, 1.0)
    v2 = Batch.single(r - 1.0, r)
    d1 = yield v1
    d2 = yield v2
    if d1 is Decision.ACCEPT and d2 is Decision.ACCEPT:
        tail = Batch.single(1.0, 2.0)        # both taken
    elif d1 is Decision.REJECT and d2 is Decision.ACCEPT:
        tail = v2                            # re-offer the second
    else:
        tail = v1                            # re-offer the first
    while True:
        yield tail


def adv_ul_un_k2(n: int) -> Adversary:
    """Quota-2 unit construction: forces ratio >= sqrt(2)."""
    check_quota(2, n)
    return Adversary("ul-un-k2", 2, n, Setting("UL", "UN"), 2.0, lb_ul_un(2, n), {},
                     _pair_play())


def _chain_play(offsets: list[float], k: int, parts: int) -> Play:
    """Unit chain with the given start offsets, each item cut into `parts`
    pieces.  The first rejection at position j <= k freezes the stream on
    clones of item j-1 (of [1, 2] when the opening item is rejected);
    rejections past position k leave the chain running."""
    previous = Batch.single(1.0, 2.0)
    for pos, start in enumerate(itertools.accumulate(offsets), 1):
        item = Batch.single(start, start + 1.0)
        if (yield _split_unit(item, parts)) is Decision.REJECT and pos <= k:
            while True:
                yield _split_unit(previous, parts)
        previous = item


def _chain(name: str, k: int, n: int, parts: int, setting: Setting, config: dict,
           bound: Callable[[int, int], float]) -> Adversary:
    if k < 3:
        raise ConfigError(f"{name} needs k >= 3, got {k}")
    check_quota(k, n)
    offsets = _chain_offsets(k, n)
    return Adversary(name, k, n, setting, 2.0 + sum(offsets), bound(k, n), config,
                     _chain_play(offsets, k, parts))


def adv_ul_un_general(k: int, n: int) -> Adversary:
    return _chain("ul-un-general", k, n, 1, Setting("UL", "UN"), {}, lb_ul_un)


def _split_unit(batch: Batch, parts: int) -> Batch:
    """Partition a unit interval into `parts` touching equal pieces."""
    if parts == 1:
        return batch
    (iv,) = batch.parts
    cuts = [iv.start + i / parts for i in range(parts)] + [iv.end]
    return Batch(tuple(SubInterval(cuts[i], cuts[i + 1]) for i in range(parts)))


def adv_us_un(k: int, n: int, parts: int) -> Adversary:
    """Unit-sum variant: the unit-chain items, each partitioned into equal
    touching pieces.  Marginal lengths are unchanged, so threshold policies
    trace identically to the unpartitioned run."""
    if parts < 1:
        raise ConfigError(f"need parts >= 1, got {parts}")
    return _chain("us-un", k, n, parts, Setting("US", "UN"), {"parts": parts}, lb_us_un)


def _flex_play(k: int, tau: int, m: float) -> Play:
    """tau unit probes, then a tail picked by how many probes were accepted.

    Accepting at least ceil(tau/2) probes brings a run of disjoint length-m
    items the policy no longer has quota for; accepting fewer brings clones
    of [0, 1] that add nothing.  The degenerate tau=1, zero-accept corner
    (only reachable by policies that hold their whole quota back) gets the
    distinct units [1,2]..[k-1,k], then clones of the last: a tail whose own
    coverage tops out at k-1 units, so skipping the probe still costs a
    factor k/(k-1) >= the declared bound.
    """
    accepts = 0
    for pos in range(1, tau + 1):
        if (yield Batch.single(float(pos - 1), float(pos))) is Decision.ACCEPT:
            accepts += 1
    if accepts >= math.ceil(tau / 2):
        for t in itertools.count(1):
            yield Batch.single(tau + (t - 1) * m, tau + t * m)
    elif accepts >= 1 or tau >= 2:
        while True:
            yield Batch.single(0.0, 1.0)
    else:
        for t in range(1, k):
            yield Batch.single(float(t), float(t + 1))
        while True:
            yield Batch.single(float(k - 1), float(k))


def _flex(name: str, k: int, n: int, m: float, tau: int, setting: Setting,
          bound: float) -> Adversary:
    target_len = check_fl_finite(tau + (n - tau) * m + 1.0, m)
    return Adversary(name, k, n, setting, target_len, bound,
                     {"m": m, "tau": tau}, _flex_play(k, tau, m))


def adv_fl_un(k: int, n: int, m: float) -> Adversary:
    check_fl_cap(m)
    check_quota(k, n)
    return _flex("fl-un", k, n, m, min(k, n - k), Setting("FL", "UN", m), lb_fl_un(k, n, m))


def adv_fl_an(k: int, m: float, n: int) -> Adversary:
    check_fl_cap(m)
    if n < 2 * k:
        raise ConfigError(f"need n >= 2k for the length-m tail, got {n}")
    return _flex("fl-an", k, n, m, k, Setting("FL", "AN", m), lb_fl_an(m))
