"""Goldens at the benchmark's sizes: the exact DP and every shipped policy on
inputs of hundreds to thousands of items, pinned by SHA-256.

The inputs are rebuilt here from their recipes: pairwise-disjoint items
laid out left to right (n = 300/600/1,200), the chain and flexible-length
game instances at k = 75, n = 750, random UL/FL/AL items at n = 2,000,
quarter-grid items full of ties (duplicates, equal ends, ``-0.0`` starts)
and multi-part unit-sum items at n = 300.  No input is built with sum(),
which is compensated from Python 3.12 on, so the digests do not depend on
the Python version.
"""

import hashlib
import random

from kcover import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    Batch,
    Instance,
    MultiThresholdPolicy,
    RejectUntilForcedPolicy,
    Setting,
    SubInterval,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
    run_policy,
    solve_offline,
)
from kcover.adversaries import adv_fl_un, adv_ul_un_general
from kcover.harness import gen_instance, run_game


def disjoint_instances(seed, sizes=(300, 600, 1200)):
    """Pairwise-disjoint items left to right: evenly spaced lengths in
    [0.05, 2] and gaps in [0.01, 0.5], each list shuffled by one rng."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        lengths = [0.05 + 1.95 * (i + 0.5) / n for i in range(n)]
        gaps = [0.01 + 0.49 * (i + 0.5) / n for i in range(n)]
        rng.shuffle(lengths)
        rng.shuffle(gaps)
        items, x = [], 0.0
        for length, gap in zip(lengths, gaps):
            x += gap
            items.append(Batch.single(x, x + length))
            x += length
        out.append(Instance(x + 1.0, n // 2, Setting("AL", "UN"), tuple(items)))
    return out


def game_instances(k=75, n=750):
    """The realized instances of soa against the chain construction and of
    doa and accept-all against the flexible-length one (m = 2)."""
    games = [
        (ThresholdPolicy(k, n), adv_ul_un_general(k, n)),
        (TwoPhaseThresholdPolicy(k, n), adv_fl_un(k, n, 2.0)),
        (AcceptAllPolicy(k), adv_fl_un(k, n, 2.0)),
    ]
    return [run_game(policy, adversary)[1] for policy, adversary in games]


def tie_instances(rng, n=600):
    """Quarter-grid items: duplicates, equal ends and touching pairs, every
    endpoint exact in binary, and about half the starts at 0 written as
    ``-0.0``, which sorts equal to 0.0."""
    out = []
    for unit in (True, False):
        pairs = []
        for _ in range(n):
            a = rng.randint(0, 40) / 4
            b = a + (1.0 if unit else rng.randint(1, 8) / 4)
            if a == 0 and rng.random() < 0.5:
                a = -0.0
            pairs.append((a, b))
        pairs += pairs[: n // 10]  # exact duplicates, released later
        items = tuple(Batch.single(a, b) for a, b in pairs)
        setting = Setting("UL" if unit else "AL", "UN")
        out.append(Instance(max(b for _, b in pairs), n // 4, setting, items))
    return out


def unit_sum_instance(rng, n=300, k=30):
    """One to three parts per item, cut from one unit at sorted uniform
    points and spread left to right by gaps in [0.05, 0.5]."""
    items = []
    for _ in range(n):
        cuts = sorted(rng.random() for _ in range(rng.randint(0, 2)))
        bounds = [0.0, *cuts, 1.0]
        cursor = rng.uniform(0.0, 10.0)
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                parts.append(SubInterval(cursor, cursor + (hi - lo)))
                cursor += (hi - lo) + rng.uniform(0.05, 0.5)
        items.append(Batch(tuple(parts)))
    return Instance(12.0, k, Setting("US", "UN"), tuple(items))


def shipped_policies(inst):
    """One fresh policy of every shipped kind at the instance's quota."""
    k, n = inst.quota, inst.n
    thresholds = [1.0 - 0.9 * i / k for i in range(k)]
    return [
        ThresholdPolicy(k, n, theta=0.6),
        AnytimeThresholdPolicy(k, theta=0.6),
        TwoPhaseThresholdPolicy(k, n, max(1, k // 3), 0.3, 0.8),
        MultiThresholdPolicy(thresholds),
        AcceptAllPolicy(k),
        RejectUntilForcedPolicy(k, n),
    ]


def _entry(value, picks, trace=()):
    marks = "".join(d.value[0] for d in trace)
    return f"{type(value).__name__} {float(value).hex()} {picks} {marks}\n".encode()


# SHA-256 over float.hex of each value and the picks of solve_offline, at
# quota 5 and at the instance's own quota; recorded before the DP's sort and
# backtrack moved into numpy.
OFFLINE_SCALE_DIGEST = "b2ed925de97d2570fab1cc29369ee2d88d54262a629049c8e0b5e737edc45bf1"

# SHA-256 over each policy's value, accepted indices and trace on every
# instance above; recorded with OFFLINE_SCALE_DIGEST, before the policies
# placed each item once per decision.
POLICY_SCALE_DIGEST = "030dc53d7deed184ccfe3d0fc90dc2ffab6265942f334a92438746b6ac88be2f"


def scale_instances():
    rng = random.Random(20261019)
    insts = disjoint_instances(5) + game_instances()
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        insts.append(gen_instance(rng, length, 2000, 100, m))
    return insts + tie_instances(rng), unit_sum_instance(rng)


def test_offline_scale_goldens():
    insts, _ = scale_instances()
    digest = hashlib.sha256()
    for inst in insts:
        for quota in (5, inst.quota):
            digest.update(_entry(*solve_offline(inst, quota)))
    assert digest.hexdigest() == OFFLINE_SCALE_DIGEST


def test_policy_scale_goldens():
    insts, us = scale_instances()
    digest = hashlib.sha256()
    for inst in [*insts, us]:
        for policy in shipped_policies(inst):
            digest.update(_entry(*run_policy(policy, inst)))
    assert digest.hexdigest() == POLICY_SCALE_DIGEST
