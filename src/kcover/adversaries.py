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
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from .bounds import chain_alpha, lb_fl_an, lb_fl_un, lb_ul_un, lb_us_un
from .errors import ConfigError, ProtocolError
from .intervals import Batch, Setting, SubInterval
from .policies import Decision
from .thresholds import check_quota

Play = Generator[Batch, Decision, None]


class Adversary:
    """A construction's item stream behind the emit-then-react protocol.

    `play` yields the item at each position and receives the decision on it;
    `config` holds the construction's own parameters for :meth:`describe`.
    """

    def __init__(self, name: str, quota: int, total: int, setting: Setting,
                 target_len: float, declared_bound: float, config: dict, play: Play):
        self.name = name
        self.quota = quota
        self.total = total
        self.setting = setting
        self.target_len = target_len
        self.declared_bound = declared_bound
        self._config = config
        self._play = play
        self._pos = 0

    def describe(self) -> dict:
        return {"quota": self.quota, "n": self.total, **self._config}

    @property
    def known_count(self) -> bool:
        return self.setting.count == "UN"

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
        if self._pos > self.total:
            return None
        return self._play.send(decision)


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
    offsets = (0.0,) + tuple(
        k ** (i / k) - k ** ((i - 1) / k) if i <= alpha else 1.0 for i in range(1, n)
    )
    return GeometricGadget(k, n, alpha, offsets, tuple(itertools.accumulate(offsets)))


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


def adv_al(epsilon: float, k: int, horizon: int) -> Adversary:
    """Arbitrary lengths: forces ratio >= 1/eps against any deterministic policy."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigError(f"need 0 < epsilon < 1, got {epsilon}")
    check_quota(k)
    if horizon < k + 1:
        raise ConfigError(f"need horizon >= k+1, got {horizon}")
    return Adversary("al", k, horizon, Setting("AL", "UN"), 1.0, 1.0 / epsilon,
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
    if n < 3:
        raise ConfigError(f"need n >= 3, got {n}")
    return Adversary("ul-un-k2", 2, n, Setting("UL", "UN"), 2.0, lb_ul_un(2, n), {},
                     _pair_play())


def _chain_play(gadget: GeometricGadget, parts: int) -> Play:
    """Unit chain with geometric, then unit, offsets, each item cut into
    `parts` pieces.  The first rejection at position j <= k freezes the
    stream on clones of item j-1 (of [1, 2] when the opening item is
    rejected); rejections past position k leave the chain running."""
    for pos in range(1, gadget.n + 1):
        decision = yield _split_unit(gadget.item(pos), parts)
        if decision is Decision.REJECT and pos <= gadget.k:
            clone = Batch.single(1.0, 2.0) if pos == 1 else gadget.item(pos - 1)
            while True:
                yield _split_unit(clone, parts)


def _chain(name: str, k: int, n: int, parts: int, setting: Setting, config: dict,
           bound: Callable[[int, int], float]) -> Adversary:
    if not (3 <= k <= n - 1):
        raise ConfigError(f"need 3 <= k <= n-1, got k={k} n={n}")
    gadget = geometric_gadget(k, n)
    return Adversary(name, k, n, setting, 2.0 + sum(gadget.offsets), bound(k, n), config,
                     _chain_play(gadget, parts))


def adv_ul_un_general(k: int, n: int) -> Adversary:
    return _chain("ul-un-general", k, n, 1, Setting("UL", "UN"), {}, lb_ul_un)


def _split_unit(batch: Batch, parts: int) -> Batch:
    """Partition a unit interval into `parts` touching equal pieces."""
    if parts == 1:
        return batch
    (iv,) = batch.parts
    cuts = [iv.start + i / parts for i in range(parts)] + [iv.end]
    return Batch(tuple(SubInterval(cuts[i], cuts[i + 1]) for i in range(parts)))


def adv_us_un(k: int, n: int, parts_per_batch: int) -> Adversary:
    """Unit-sum variant: the unit-chain items, each partitioned into equal
    touching pieces.  Marginal lengths are unchanged, so threshold policies
    trace identically to the unpartitioned run."""
    if parts_per_batch < 1:
        raise ConfigError(f"need parts_per_batch >= 1, got {parts_per_batch}")
    return _chain("us-un", k, n, parts_per_batch, Setting("US", "UN"),
                  {"parts": parts_per_batch}, lb_us_un)


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


def _flex(name: str, k: int, total: int, m: float, tau: int, setting: Setting,
          bound: float) -> Adversary:
    return Adversary(name, k, total, setting, tau + (total - tau) * m + 1.0, bound,
                     {"m": m, "tau": tau}, _flex_play(k, tau, m))


def adv_fl_un(k: int, n: int, m: float) -> Adversary:
    if m <= 1.0:
        raise ConfigError(f"need m > 1, got {m}")
    check_quota(k, n)
    return _flex("fl-un", k, n, m, min(k, n - k), Setting("FL", "UN", m), lb_fl_un(k, n, m))


def adv_fl_an(k: int, m: float, horizon: int) -> Adversary:
    if m <= 1.0:
        raise ConfigError(f"need m > 1, got {m}")
    if horizon < 2 * k:
        raise ConfigError(f"need horizon >= 2k for the length-m tail, got {horizon}")
    return _flex("fl-an", k, horizon, m, k, Setting("FL", "AN", m), lb_fl_an(m))
