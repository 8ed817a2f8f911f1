"""Experiment harness: play games, measure ratios, run verification suites
and parameter sweeps.

Randomness comes from one `random.Random` (Mersenne Twister) seeded up
front and consumed in a fixed documented order, so two runs with the same
seed produce byte-identical reports and CSVs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import numeric
from .adversaries import (
    Adversary,
    adv_al,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
)
from .bounds import bound_table, lb_ul_un, ub_multi, ub_soa, ub_soa_an
from .errors import ConfigError, ProtocolError, SolverEmptyError
from .instance_io import instance_to_dict
from .intervals import Batch, Instance, Setting, SubInterval, union_length
from .offline import brute_force_offline, solve_offline, solve_offline_unit
from .policies import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    Decision,
    MultiThresholdPolicy,
    Policy,
    RejectUntilForcedPolicy,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
    run_policy,
)
from .thresholds import check_quota, default_switch, solve_doa

PRNG_NAME = "python-random-mt19937"

# The verify suites, in the order `--suite all` runs them.
SUITES = ("oracle", "adversary", "bounds")


@dataclass
class GameRecord:
    """Everything one game produced, ready for serialisation."""

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
    declared_bound: Optional[float]
    accepted: tuple[int, ...]
    trace: list[str]

    @property
    def ratio_or_inf(self) -> float:
        return float("inf") if self.ratio is None else self.ratio

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "policy": self.policy,
            "policy_config": self.policy_config,
            "source": self.source,
            "source_config": self.source_config,
            "alg_value": self.alg_value,
            "opt_value": self.opt_value,
            "ratio": self.ratio,
            "ratio_infinite": self.ratio is None,
            "declared_bound": self.declared_bound,
            "accepted": list(self.accepted),
            "trace": self.trace,
        }


def oracle_value(inst: Instance) -> float:
    """Offline optimum: the DP for plain sub-intervals, enumeration for
    multi-part unit-sum batches."""
    if all(b.is_singleton for b in inst.items):
        return solve_offline(inst)[0]
    return brute_force_offline(inst)[0]


def _score(policy, inst, trace, opt, source, source_config, declared_bound):
    """Score the items one played game accepted against the offline optimum
    `opt` and build its record; accepting more items than the quota is an
    error."""
    accepted = tuple(i for i, d in enumerate(trace) if d is Decision.ACCEPT)
    if len(accepted) > inst.quota:
        raise ProtocolError(
            f"{policy.name} accepted {len(accepted)} items with quota {inst.quota}"
        )
    alg = union_length([inst.items[i] for i in accepted])
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
        declared_bound=declared_bound,
        accepted=accepted,
        trace=[d.value for d in trace],
    )


def _play(policy: Policy, adversary: Adversary):
    """Play policy vs adversary to the horizon; returns (instance, decisions)."""
    items: list[Batch] = []
    decisions: list[Decision] = []
    item = adversary.first()
    pos = 1
    while item is not None:
        d = policy.next(item, pos)
        items.append(item)
        decisions.append(d)
        item = adversary.react(d, pos)
        pos += 1
    inst = Instance(
        adversary.target_len, adversary.quota, adversary.setting, tuple(items)
    )
    return inst, decisions


def run_game(policy: Policy, adversary: Adversary):
    """Play policy vs adversary to the horizon; returns (record, instance)."""
    inst, decisions = _play(policy, adversary)
    record = _score(
        policy, inst, decisions, oracle_value(inst), adversary.name,
        adversary.describe(), adversary.declared_bound,
    )
    return record, inst


def replay_game(policy: Policy, inst: Instance, source: str = "instance"):
    """Run a policy over a fixed instance file and score it."""
    trace = run_policy(policy, inst)[2]
    return _score(policy, inst, trace, oracle_value(inst), source, {}, None)


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
    summing to 1, placed left to right with uniform gaps in [0.05, 0.5]."""
    items: list[Batch] = []
    if length_setting == "UL":
        a = 8.0
        for _ in range(n):
            s = rng.uniform(0.0, a - 1.0)
            items.append(Batch.single(s, s + 1.0))
        setting = Setting("UL", count_setting)
    elif length_setting in ("FL", "AL"):
        fl = length_setting == "FL"
        a, lo, hi = (30.0, 1.0, m) if fl else (10.0, 0.05, 5.0)
        for _ in range(n):
            length = rng.uniform(lo, hi)
            s = rng.uniform(0.0, a - length)
            items.append(Batch.single(s, s + length))
        setting = Setting(length_setting, count_setting, m if fl else None)
    elif length_setting == "US":
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
        setting = Setting("US", count_setting)
    else:
        raise ValueError(f"unknown length setting {length_setting!r}")
    return Instance(a, k, setting, tuple(items))


def random_nk(rng: random.Random, max_n: int) -> tuple[int, int]:
    n = rng.randint(3, max_n)
    k = rng.randint(2, min(5, n - 1))
    return n, k


def random_multi_thresholds(rng: random.Random, k: int) -> list[float]:
    return sorted((rng.uniform(0.05, 1.0) for _ in range(k)), reverse=True)


# ---------------------------------------------------------------------------
# Verification suites.


@dataclass
class SuiteResult:
    name: str
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    counterexamples: list[tuple[str, dict]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label: str, detail: str, payload: Optional[dict] = None):
        status = "PASS" if ok else "FAIL"
        self.lines.append(f"{status} {label}: {detail}")
        if not ok:
            self.failures.append(f"{label}: {detail}")
            if payload is not None:
                self.counterexamples.append((label, payload))


def verify_oracle(trials: int, max_n: int, seed: int) -> SuiteResult:
    """DP vs enumeration on random instances of every setting."""
    res = SuiteResult("oracle")
    rng = random.Random(seed)
    settings = [("UL", None), ("FL", 1.5), ("FL", 2.0), ("FL", 5.0), ("AL", None), ("US", None)]
    for length, m in settings:
        label = f"oracle-equivalence {length}" + (f" m={m:g}" if m else "")
        worst = 0.0
        bad = None
        for _ in range(trials):
            n, k = random_nk(rng, max_n)
            inst = gen_instance(rng, length, n, k, m)
            bf, bf_set = brute_force_offline(inst)
            # (payload key, value) pairs to compare with the enumeration.
            if all(b.is_singleton for b in inst.items):
                checks = [("dp", solve_offline(inst)[0])]
                if length == "UL":
                    checks.append(("unit_dp", solve_offline_unit(inst)[0]))
            else:
                # Multi-part batches: the DP refuses them; check the
                # enumeration against the union of its own picks, which
                # the payload leaves out.
                checks = [(None, union_length([inst.items[i] for i in bf_set]))]
            for key, value in checks:
                gap = abs(value - bf)
                worst = max(worst, gap)
                if gap > 1e-9 and bad is None:
                    shown = {} if key is None else {key: value}
                    bad = {"instance": instance_to_dict(inst), **shown, "brute": bf}
        res.check(
            bad is None,
            label,
            f"trials={trials} max|gap|={worst:.3g}",
            bad,
        )
    return res


def full_policy_suite(
    setting: str,
    k: int,
    n: Optional[int],
    m: Optional[float],
    rng: random.Random,
    multis: int = 3,
) -> list[tuple[str, Callable[[], Policy]]]:
    """Factories for the certification test suite, one fresh policy per game.
    AL has no sound threshold, so its threshold policies use 0.5."""
    suite: list[tuple[str, Callable[[], Policy]]] = []
    theta_kwargs = {"setting": setting, "m": m}
    if setting == "AL":
        theta_kwargs = {"theta": 0.5}
    if n is not None:
        suite.append(("soa", lambda: ThresholdPolicy(k, n, **theta_kwargs)))
    suite.append(("soa-an", lambda: AnytimeThresholdPolicy(k, **theta_kwargs)))
    if n is not None:
        if setting == "AL":  # no program for AL: a fixed two-phase triple
            params = (default_switch(k), 0.3, 0.6)
        else:
            try:
                sol = solve_doa(k, n)
                params = (sol.omega, sol.theta1, sol.theta2)
            except SolverEmptyError:
                params = None
        if params is not None:
            suite.append(("doa", lambda: TwoPhaseThresholdPolicy(k, n, *params)))
    suite.append(("accept-all", lambda: AcceptAllPolicy(k)))
    suite.append(("reject-until-forced", lambda: RejectUntilForcedPolicy(k, n)))
    for i in range(multis):
        t = tuple(random_multi_thresholds(rng, k))
        suite.append((f"multi-{i}", lambda t=t: MultiThresholdPolicy(t)))
    return suite


def verify_adversaries(
    k_range: tuple[int, int], n_range: tuple[int, int], seed: int
) -> SuiteResult:
    """Every bound construction forces its declared ratio on the test suite."""
    res = SuiteResult("adversary")
    rng = random.Random(seed)
    tol = 1e-6

    def certify(adv_factory, suite, label):
        worst_slack = float("inf")
        bad = None
        declared = None
        # Policies that decide alike realise the same instance: score each once.
        opts: dict[tuple[Batch, ...], float] = {}
        for pname, factory in suite:
            adv = adv_factory()
            declared = adv.declared_bound
            policy = factory()
            inst, decisions = _play(policy, adv)
            if inst.items not in opts:
                opts[inst.items] = oracle_value(inst)
            record = _score(
                policy, inst, decisions, opts[inst.items], adv.name,
                adv.describe(), adv.declared_bound,
            )
            slack = record.ratio_or_inf - adv.declared_bound
            worst_slack = min(worst_slack, slack)
            if slack < -tol and bad is None:
                bad = {
                    "policy": pname,
                    "declared_bound": adv.declared_bound,
                    "ratio": record.ratio,
                    "instance": instance_to_dict(inst),
                    "trace": record.trace,
                }
        res.check(
            bad is None,
            label,
            f"declared={declared:.9g} min-slack={worst_slack:.3g}",
            bad,
        )

    klo, khi = k_range
    nlo, nhi = n_range
    for n in range(max(nlo, 3), nhi + 1):
        suite = full_policy_suite("UL", 2, n, None, rng)
        certify(lambda: adv_ul_un_k2(n), suite, f"k2-adversary n={n}")
    for k in range(max(klo, 3), khi + 1):
        for n in range(max(nlo, k + 1), nhi + 1):
            suite = full_policy_suite("UL", k, n, None, rng)
            certify(lambda: adv_ul_un_general(k, n), suite, f"chain-adversary k={k} n={n}")
            for m in (2.0,):
                fl_suite = full_policy_suite("FL", k, n, m, rng)
                certify(
                    lambda: adv_fl_un(k, n, m),
                    fl_suite,
                    f"flex-adversary k={k} n={n} m={m:g}",
                )
            us_suite = full_policy_suite("US", k, n, None, rng)
            certify(
                lambda: adv_us_un(k, n, 3),
                us_suite,
                f"unit-sum-adversary k={k} n={n} parts=3",
            )
    # Arbitrary lengths: a fixed epsilon must already force a huge ratio.
    eps_adv = 1e-3
    for k in (2, 3):
        horizon = 2 * k + 2
        suite = full_policy_suite("AL", k, horizon, None, rng)
        certify(
            lambda: adv_al(eps_adv, k, horizon),
            suite,
            f"al-adversary k={k} eps={eps_adv:g}",
        )
    return res


def verify_bounds(seed: int) -> SuiteResult:
    """Sandwich consistency and the multi-threshold formula chain."""
    res = SuiteResult("bounds")
    rng = random.Random(seed)
    bad = None
    for k in range(2, 21):
        for n in (k + 1, k + 5, 3 * k, 100):
            for row in bound_table(k, n, 2.0):
                if row.upper is None or not isinstance(row.lower, float):
                    continue
                if row.lower > row.upper + 1e-9:
                    bad = {
                        "setting": row.setting,
                        "k": k,
                        "n": n,
                        "lower": row.lower,
                        "upper": row.upper,
                    }
    res.check(bad is None, "bound-sandwich", "grid k=2..20", bad)

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
    res.check(
        bad is None,
        "multi-threshold-floor",
        f"lists={lists} min-gap={worst:.3g}",
        bad,
    )
    return res


def check_verify_args(
    trials: int, max_n: int, k_range: tuple[int, int], n_range: tuple[int, int]
) -> None:
    """Refuse verify arguments that would make a suite empty or invalid."""
    if trials < 1:
        raise ConfigError(f"need trials >= 1, got {trials}")
    if max_n < 3:
        raise ConfigError(f"need max-n >= 3, got {max_n}")
    for flag, (lo, hi) in (("k", k_range), ("n", n_range)):
        if lo > hi:
            raise ConfigError(f"empty {flag} range {lo}..{hi}")


def run_verify(
    trials: int = 1000,
    max_n: int = 10,
    seed: int = 42,
    suites: Sequence[str] = SUITES,
    k_range: tuple[int, int] = (2, 6),
    n_range: tuple[int, int] = (8, 12),
) -> tuple[str, bool, list[tuple[str, dict]]]:
    """Run the requested suites; returns (report text, passed, dumps)."""
    check_verify_args(trials, max_n, k_range, n_range)
    header = [
        "kcover verify report",
        f"seed={seed} trials={trials} max-n={max_n} "
        f"k={k_range[0]}..{k_range[1]} n={n_range[0]}..{n_range[1]} "
        f"eps={numeric.EPS:g} prng={PRNG_NAME}",
    ]
    lines = list(header)
    passed = True
    dumps: list[tuple[str, dict]] = []
    for name in suites:
        if name == "oracle":
            result = verify_oracle(trials, max_n, seed)
        elif name == "adversary":
            result = verify_adversaries(k_range, n_range, seed)
        elif name == "bounds":
            result = verify_bounds(seed)
        else:
            raise ValueError(f"unknown suite {name!r}")
        lines.extend(result.lines)
        passed = passed and result.passed
        dumps.extend(result.counterexamples)
    lines.append(f"RESULT {'pass' if passed else 'fail'}")
    return "\n".join(lines) + "\n", passed, dumps


# ---------------------------------------------------------------------------
# Parameter sweep.


@dataclass(frozen=True)
class SweepRow:
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
    out = ["k,soa_ub,doa_c,lower_bound,doa_omega,doa_theta1,doa_theta2,status"]
    for r in rows:
        out.append(
            ",".join(
                [
                    str(r.k),
                    _fmt(r.soa_ub),
                    _fmt(r.doa_c),
                    _fmt(r.lower_bound),
                    _fmt(r.doa_omega),
                    _fmt(r.doa_theta1),
                    _fmt(r.doa_theta2),
                    r.status,
                ]
            )
        )
    return "\n".join(out) + "\n"


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the three sweep curves (threshold-policy bound, two-phase
objective, lower bound) from a sweep CSV.  Usage: plot_sweep.py [csv [png]]\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "sweep.csv"
out = sys.argv[2] if len(sys.argv) > 2 else "sweep.png"

ks, soa, doa, low = [], [], [], []
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        ks.append(int(row["k"]))
        soa.append(float(row["soa_ub"]))
        doa.append(float(row["doa_c"]) if row["doa_c"] else None)
        low.append(float(row["lower_bound"]))

plt.figure(figsize=(7, 4.5))
plt.plot(ks, soa, label="single-threshold bound")
plt.plot(
    [k for k, d in zip(ks, doa) if d is not None],
    [d for d in doa if d is not None],
    label="two-phase objective",
)
plt.plot(ks, low, label="lower bound")
plt.xlabel("quota k")
plt.ylabel("worst-case ratio")
plt.legend()
plt.tight_layout()
plt.savefig(out, dpi=150)
print(f"wrote {out}")
"""

