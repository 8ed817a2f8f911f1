"""Experiment harness: play games, measure ratios, run verification suites
and parameter sweeps.

Randomness comes from one `random.Random` (Mersenne Twister) seeded up
front and consumed in a fixed documented order, so two runs with the same
seed produce byte-identical reports and CSVs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import numeric, offline
from .adversaries import (
    Adversary,
    adv_al,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
)
from .bounds import bound_table, lb_ul_un, ub_multi, ub_soa, ub_soa_an
from .errors import ConfigError, SettingError, SolverEmptyError
from .instance_io import instance_to_dict
from .intervals import Batch, Instance, Setting, SubInterval, union_length
from .offline import brute_force_offline, one_run_items, solve_offline
from .policies import (
    ACCEPT,
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    MultiThresholdPolicy,
    Policy,
    RejectUntilForcedPolicy,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
    run_policy,
    tally,
)
from .thresholds import check_quota, solve_doa

PRNG_NAME = "python-random-mt19937"

# The verify suites, in the order `--suite all` runs them.
SUITES = ("oracle", "adversary", "bounds")


@dataclass
class GameRecord:
    """Everything one game produced; its ``asdict`` is the ``run --out`` JSON."""

    setting: str
    k: int
    n: int
    m: Optional[float]
    policy: str
    policy_config: dict
    source: str                 # adversary name or instance file
    source_config: dict
    alg_value: float
    opt_value: float
    ratio: Optional[float]      # None when alg_value is 0 (infinite ratio)
    ratio_infinite: bool
    declared_bound: Optional[float]
    accepted: tuple[int, ...]
    trace: list[str]

    @property
    def ratio_or_inf(self) -> float:
        return float("inf") if self.ratio is None else self.ratio


def oracle_value(inst: Instance) -> float:
    """Offline optimum: the DP when every item is one run of touching parts
    (a plain sub-interval, or unit-sum pieces that touch within EPS), the
    enumeration when some item has two or more runs."""
    if one_run_items(inst):
        return solve_offline(inst)[0]
    return brute_force_offline(inst)[0]


def _score(policy, inst, opt, source, source_config, declared_bound):
    """Build the record of the game `policy` played on `inst` from its
    :func:`tally` and the offline optimum `opt`."""
    alg, accepted, trace = tally(policy, inst)
    return GameRecord(
        setting=inst.setting.label(),
        k=inst.quota,
        n=inst.n,
        m=inst.setting.m,
        policy=policy.name,
        policy_config=policy.describe(),
        source=source,
        source_config=source_config,
        alg_value=alg,
        opt_value=opt,
        ratio=None if alg == 0.0 else opt / alg,
        ratio_infinite=alg == 0.0,
        declared_bound=declared_bound,
        accepted=accepted,
        trace=[d._value_ for d in trace],  # .value goes through Enum's descriptor
    )


def _play(policies: Iterable[Policy], adversary: Adversary) -> Iterator[Instance]:
    """Play each policy against one construction through its n releases; yields
    the instance each policy saw, once it has decided every item (the policy
    keeps its own record of the game).

    The construction's items form a decision tree: a node is [the node after
    a rejection, the node after an acceptance, the item released after the
    decisions that lead to it, the adversary's memory of them].  A node no
    earlier policy reached is made by one :meth:`Adversary.react` on its
    parent's memory; the others are read as recorded.  Each distinct
    decision trace ends at its own leaf, where its instance is built once.
    """
    root = [None, None, *adversary.first()]
    leaves: dict[int, Instance] = {}
    for policy in policies:
        node, items = root, []
        while (item := node[2]) is not None:
            items.append(item)
            d = policy.next(item)
            side = d is ACCEPT
            if node[side] is None:
                node[side] = [None, None, *adversary.react(node[3], d, len(items))]
            node = node[side]
        if id(node) not in leaves:
            leaves[id(node)] = Instance(adversary.target_len, adversary.quota,
                                        adversary.setting, tuple(items))
        yield leaves[id(node)]


def run_game(policy: Policy, adversary: Adversary):
    """Play policy vs adversary through its n releases; returns (record, instance)."""
    (inst,) = _play([policy], adversary)
    record = _score(
        policy, inst, oracle_value(inst), adversary.name,
        adversary.describe(), adversary.declared_bound,
    )
    return record, inst


def replay_game(policy: Policy, inst: Instance, source: str = "instance"):
    """Run a policy over a fixed instance file and score it."""
    run_policy(policy, inst)
    return _score(policy, inst, oracle_value(inst), source, {}, None)


# ---------------------------------------------------------------------------
# Random instances.  Draw order per item is fixed and documented so other
# implementations can reproduce the suite: see each branch below.

def gen_instance(
    rng: random.Random,
    length_setting: str,
    n: int,
    k: int,
    m: Optional[float] = None,
    count_setting: str = "UN",
) -> Instance:
    """One random instance.  UL: unit items with uniform starts over
    [0, 7].  FL: lengths uniform in [1, m], starts uniform in the remaining
    room of [0, 30].  AL: lengths uniform in [0.05, 5], starts uniform in
    the remaining room of [0, 10].  US: 1-3 parts with stick-broken lengths
    summing to 1, placed left to right with uniform gaps in [0.05, 0.5].
    Before any draw, m is refused outside FL as :class:`Setting` refuses
    it, and in FL above 30, where no item of that length fits the target."""
    setting = Setting(length_setting, count_setting, m)
    if length_setting == "FL" and m > 30.0:
        raise SettingError(f"FL lengths up to m={m!r} do not fit the [0, 30] target")
    items: list[Batch] = []
    if length_setting == "UL":
        a = 8.0
        for _ in range(n):
            s = rng.uniform(0.0, a - 1.0)
            items.append(Batch.single(s, s + 1.0))
    elif length_setting in ("FL", "AL"):
        a, lo, hi = (30.0, 1.0, m) if length_setting == "FL" else (10.0, 0.05, 5.0)
        for _ in range(n):
            length = rng.uniform(lo, hi)
            s = rng.uniform(0.0, a - length)
            items.append(Batch.single(s, s + length))
    else:  # US
        a = 12.0
        for _ in range(n):
            parts_count = rng.randint(1, 3)
            weights = [rng.uniform(0.2, 1.0) for _ in range(parts_count)]
            total = sum(weights)
            lengths = [w / total for w in weights]
            max_gap = 0.5
            start = rng.uniform(0.0, a - 1.0 - (parts_count - 1) * max_gap)
            parts = []
            cursor = start
            for idx, length in enumerate(lengths):
                parts.append(SubInterval(cursor, cursor + length))
                cursor += length
                if idx < parts_count - 1:
                    cursor += rng.uniform(0.05, max_gap)
            items.append(Batch(tuple(parts)))
    return Instance(a, k, setting, tuple(items))


def random_nk(rng: random.Random, max_n: int) -> tuple[int, int]:
    n = rng.randint(3, max_n)
    k = rng.randint(2, min(5, n - 1))
    return n, k


def random_multi_thresholds(rng: random.Random, k: int) -> list[float]:
    """k thresholds uniform in [0.05, 1], largest first.  Each draw is
    ``random.uniform(0.05, 1.0)`` written out, the same float from the same
    ``rng.random()`` without the method call."""
    return sorted((0.05 + (1.0 - 0.05) * rng.random() for _ in range(k)), reverse=True)


# ---------------------------------------------------------------------------
# Verification suites.  Each is a generator of rows
# (ok, label, detail, counterexample), one per check; the counterexample is
# None when the check passes.  :func:`run_verify` formats them.

Row = tuple[bool, str, str, Optional[dict]]


def _reference_optimum(inst: Instance) -> float:
    """The enumeration as a plain loop: the best ``union_length`` over every
    min(k, n)-subset.  It shares no code with the block scorer of
    :func:`brute_force_offline`."""
    return max(
        union_length([inst.items[i] for i in combo])
        for combo in itertools.combinations(range(inst.n), min(inst.quota, inst.n))
    )


def verify_oracle(trials: int, max_n: int, seed: int) -> Iterator[Row]:
    """Enumeration vs the DP on random instances of every setting, on every
    instance the DP takes (each item one run of touching parts); instances
    with an item of several runs, which the DP refuses, against
    :func:`_reference_optimum`."""
    rng = random.Random(seed)
    settings = [("UL", None), ("FL", 1.5), ("FL", 2.0), ("FL", 5.0), ("AL", None), ("US", None)]
    for length, m in settings:
        label = f"oracle-equivalence {length}" + (f" m={m:g}" if m else "")
        worst = 0.0
        bad = None
        for _ in range(trials):
            n, k = random_nk(rng, max_n)
            inst = gen_instance(rng, length, n, k, m)
            bf = brute_force_offline(inst)[0]
            # (payload key, value) to compare with the enumeration.
            if one_run_items(inst):
                key, value = "dp", solve_offline(inst)[0]
            else:
                key, value = "reference", _reference_optimum(inst)
            gap = abs(value - bf)
            worst = max(worst, gap)
            if gap > 1e-9 and bad is None:
                bad = {"instance": instance_to_dict(inst), key: value, "brute": bf}
        yield bad is None, label, f"trials={trials} max|gap|={worst:.3g}", bad


def full_policy_suite(
    setting: str,
    k: int,
    n: Optional[int],
    m: Optional[float],
    rng: random.Random,
    solved: Optional[dict] = None,
) -> list[tuple[str, Callable[[], Policy]]]:
    """Factories for the certification test suite, one fresh policy per game.
    AL has no sound threshold, so its threshold policies use 0.5.  `solved`
    memoises the solved two-phase policy's :meth:`~Policy.describe` per
    (k, n), which rebuilds it, or None when no triple is feasible."""
    suite: list[tuple[str, Callable[[], Policy]]] = []
    theta_kwargs = {"setting": setting, "m": m}
    if setting == "AL":
        theta_kwargs = {"theta": 0.5}
    if n is not None:
        suite.append(("soa", lambda: ThresholdPolicy(k, n, **theta_kwargs)))
    suite.append(("soa-an", lambda: AnytimeThresholdPolicy(k, **theta_kwargs)))
    if n is not None:
        if setting == "AL":  # no program for AL: fixed thetas, default switch
            config = {"quota": k, "n": n, "theta1": 0.3, "theta2": 0.6}
        else:
            solved = {} if solved is None else solved
            if (k, n) not in solved:
                try:
                    solved[k, n] = TwoPhaseThresholdPolicy(k, n).describe()
                except SolverEmptyError:
                    solved[k, n] = None
            config = solved[k, n]
        if config is not None:
            suite.append(("doa", lambda: TwoPhaseThresholdPolicy(**config)))
    suite.append(("accept-all", lambda: AcceptAllPolicy(k)))
    suite.append(("reject-until-forced", lambda: RejectUntilForcedPolicy(k, n)))
    for i in range(3):
        t = tuple(random_multi_thresholds(rng, k))
        suite.append((f"multi-{i}", lambda t=t: MultiThresholdPolicy(t)))
    return suite


def _certify(adv: Adversary, label: str, rng: random.Random, solved: dict,
             opts: dict) -> Row:
    """Play one construction against the certification suite built for its
    own setting, quota and release count (none when the count is unknown,
    AN): does every policy's ratio reach the declared bound?

    The suite plays one decision tree (:func:`_play`): the adversary reacts
    once per distinct decision prefix, as its next item depends only on the
    earlier decisions (``STREAM_DIGEST`` pins the streams).  `solved` is
    :func:`full_policy_suite`'s memo, and `opts` memoises the offline
    optimum per (quota, runs of each item), which is all it depends on."""
    declared = adv.declared_bound
    n = adv.n if adv.setting.count == "UN" else None
    suite = full_policy_suite(
        adv.setting.length, adv.quota, n, adv.setting.m, rng, solved=solved
    )
    policies = [factory() for _, factory in suite]
    worst_slack, bad = float("inf"), None
    # Policies that decide alike share an instance, and instances whose
    # items have the same runs share an optimum at one quota: each is found
    # once.
    opt_of: dict[int, float] = {}
    for (pname, _), policy, inst in zip(suite, policies, _play(policies, adv)):
        if id(inst) not in opt_of:
            key = inst.quota, tuple(tuple(b.runs()) for b in inst.items)
            if key not in opts:
                opts[key] = oracle_value(inst)
            opt_of[id(inst)] = opts[key]
        record = _score(
            policy, inst, opt_of[id(inst)], adv.name, adv.describe(), declared
        )
        slack = record.ratio_or_inf - declared
        worst_slack = min(worst_slack, slack)
        if slack < -1e-6 and bad is None:
            bad = {
                "policy": pname,
                "declared_bound": declared,
                "ratio": record.ratio,
                "instance": instance_to_dict(inst),
                "trace": record.trace,
            }
    return bad is None, label, f"declared={declared:.9g} min-slack={worst_slack:.3g}", bad


def verify_adversaries(
    k_range: tuple[int, int], n_range: tuple[int, int], seed: int
) -> Iterator[Row]:
    """Every bound construction forces its declared ratio on the test suite.

    The AL rows, at k = 2 and 3 where `k_range` holds them, play
    n = 2k + 2 whatever `n_range` says."""
    # One solve_doa per (k, n), which the chain, flex and unit-sum rows
    # share, and one optimum per (quota, item runs): a unit-sum row's items
    # are the chain row's units cut into touching thirds, so it reuses the
    # chain row's optima.
    certify = functools.partial(_certify, rng=random.Random(seed), solved={}, opts={})
    klo, khi = k_range
    nlo, nhi = n_range
    if klo <= 2 <= khi:
        for n in range(max(nlo, 3), nhi + 1):
            yield certify(adv_ul_un_k2(n), f"k2-adversary n={n}")
    for k in range(max(klo, 3), khi + 1):
        for n in range(max(nlo, k + 1), nhi + 1):
            yield certify(adv_ul_un_general(k, n), f"chain-adversary k={k} n={n}")
            yield certify(adv_fl_un(k, n, 2.0), f"flex-adversary k={k} n={n} m=2")
            yield certify(adv_us_un(k, n, 3), f"unit-sum-adversary k={k} n={n} parts=3")
    # Arbitrary lengths: a fixed epsilon must already force a huge ratio.
    for k in range(max(klo, 2), min(khi, 3) + 1):
        yield certify(adv_al(1e-3, k, 2 * k + 2), f"al-adversary k={k} eps=0.001")


def verify_bounds(seed: int) -> Iterator[Row]:
    """Sandwich consistency and the multi-threshold formula chain."""
    rng = random.Random(seed)
    bad = None
    for k in range(2, 21):
        for n in (k + 1, k + 5, 3 * k, 100):
            for row in bound_table(k, n, 2.0):
                if row.upper is None or not isinstance(row.lower, float):
                    continue
                if row.lower > row.upper + 1e-9 and bad is None:
                    bad = {
                        "setting": row.setting,
                        "k": k,
                        "n": n,
                        "lower": row.lower,
                        "upper": row.upper,
                    }
    yield bad is None, "bound-sandwich", "grid k=2..20", bad

    bad = None
    worst = float("inf")
    lists = 1000
    for _ in range(lists):
        k = rng.randint(2, 50)
        thresholds = random_multi_thresholds(rng, k)
        gap = ub_multi(thresholds, k) - ub_soa_an(k)
        worst = min(worst, gap)
        if gap < -1e-9 and bad is None:
            bad = {"k": k, "thresholds": thresholds, "gap": gap}
    yield bad is None, "multi-threshold-floor", f"lists={lists} min-gap={worst:.3g}", bad


def check_verify_args(
    trials: int,
    max_n: int,
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    suites: Sequence[str] = SUITES,
) -> None:
    """Refuse verify arguments that would make a suite empty or invalid:
    unknown suites, then the flags each chosen suite reads (`trials` and
    `max_n` the oracle suite, `k_range` and `n_range` the adversary suite).
    The DP scores every construction, so only `max_n` meets the size guard."""
    for name in suites:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}, choose from {', '.join(SUITES)}")
    if "oracle" in suites:
        if trials < 1:
            raise ConfigError(f"need trials >= 1, got {trials}")
        if not 3 <= max_n <= offline._MAX_N:
            raise ConfigError(f"need 3 <= max-n <= {offline._MAX_N}, got {max_n}")
    if "adversary" not in suites:
        return
    for flag, (lo, hi) in (("k", k_range), ("n", n_range)):
        if lo > hi:
            raise ConfigError(f"empty {flag} range {lo}..{hi}")
    (klo, khi), (_, nhi) = k_range, n_range
    if max(klo, 2) > min(khi, nhi - 1):
        raise ConfigError(
            f"k={klo}..{khi} n={n_range[0]}..{nhi} holds no quota with 2 <= k <= n-1"
        )


def run_verify(
    trials: int = 1000,
    max_n: int = 10,
    seed: int = 42,
    suites: Sequence[str] = SUITES,
    k_range: tuple[int, int] = (2, 6),
    n_range: tuple[int, int] = (8, 12),
) -> tuple[str, bool, list[tuple[str, dict]]]:
    """Run the requested suites; returns (report text, passed, dumps), one
    ``PASS|FAIL label: detail`` report line and at most one dumped
    counterexample per check."""
    check_verify_args(trials, max_n, k_range, n_range, suites)
    calls: dict[str, Callable[[], Iterator[Row]]] = {
        "oracle": lambda: verify_oracle(trials, max_n, seed),
        "adversary": lambda: verify_adversaries(k_range, n_range, seed),
        "bounds": lambda: verify_bounds(seed),
    }
    # the header names the flags that the chosen suites read
    flags = [f"seed={seed}"]
    if "oracle" in suites:
        flags.append(f"trials={trials} max-n={max_n}")
    if "adversary" in suites:
        flags.append(f"k={k_range[0]}..{k_range[1]} n={n_range[0]}..{n_range[1]}")
    flags.append(f"eps={numeric.EPS:g} prng={PRNG_NAME}")
    lines = ["kcover verify report", " ".join(flags)]
    passed = True
    dumps: list[tuple[str, dict]] = []
    for name in suites:
        for ok, label, detail, bad in calls[name]():
            lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
            passed = passed and ok
            if bad is not None:
                dumps.append((label, bad))
    lines.append(f"RESULT {'pass' if passed else 'fail'}")
    return "\n".join(lines) + "\n", passed, dumps


# ---------------------------------------------------------------------------
# Parameter sweep.


@dataclass(frozen=True)
class SweepRow:
    """One quota of the sweep; the fields are the CSV columns, in order."""

    k: int
    soa_ub: float
    doa_c: Optional[float]
    lower_bound: float
    doa_omega: Optional[int]
    doa_theta1: Optional[float]
    doa_theta2: Optional[float]
    status: str  # "ok" | "infeasible"


def run_sweep(
    n: int = 100, k_min: int = 2, k_max: int = 99, step: float = 0.01
) -> list[SweepRow]:
    if k_min > k_max:
        raise ConfigError(f"empty quota range k={k_min}..{k_max}")
    check_quota(k_min, n)
    check_quota(k_max, n)
    rows = []
    for k in range(k_min, k_max + 1):
        soa = ub_soa(k, n, "UL")
        lower = lb_ul_un(k, n)
        try:
            sol = solve_doa(k, n, step)
            rows.append(
                SweepRow(k, soa, sol.value, lower, sol.omega, sol.theta1, sol.theta2, "ok")
            )
        except SolverEmptyError:
            rows.append(SweepRow(k, soa, None, lower, None, None, None, "infeasible"))
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    out = [",".join(f.name for f in fields(SweepRow))]
    out += [",".join(map(_fmt, astuple(r))) for r in rows]
    return "\n".join(out) + "\n"
