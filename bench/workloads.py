"""The four benchmark workloads.

A workload builds its inputs from the seed when it is constructed (that is
the set-up the ``setup_s`` metric times) and then runs whole cycles of ops
through a recorder.  Every cycle of a workload does the same kind and amount
of work, so throughput is compared cycle against cycle.  Each op's output is
checked; a failed check is counted, never raised.  See README.md beside this
file for why each workload exists.

``tail_percentile`` fixes the percentile that ``op_tail_ms`` reports: the
highest of p50/p75/p90/p95/p99 that leaves about ten samples beyond it in a
25 s run even on a slow host.  The host's speed drifts, so a percentile
picked per run would jump between runs.  ``trace_cycles`` is the fixed
amount of traced work, so traced call counts repeat exactly for a seed.

Calls into kcover go through module attributes (``harness.run_game``), looked
up at call time, so the tracer's rebinding reaches them.  Ops run one at a
time, each inside the loop iteration that builds it, so the lambdas below may
read the loop variables.
"""

from __future__ import annotations

import math
import random

from kcover import (
    adversaries,
    bounds,
    harness,
    intervals,
    numeric,
    offline,
    policies,
    thresholds,
)

DP_TOL = 1e-9
RATIO_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DP_TOL * max(1.0, abs(a), abs(b))


def _dp_problem(inst, value: float, picked, quota: int):
    """None when (value, picked) is a consistent DP answer, else a message."""
    if len(picked) > quota:
        return f"DP picked {len(picked)} items with quota {quota}"
    covered = intervals.union_length([inst.items[i] for i in picked])
    if not _close(value, covered):
        return f"DP value {value!r} != union of its picks {covered!r}"
    return None


class Verify:
    """op = one ``run_verify`` with all three suites, on a fresh seed."""

    name = "verify"
    tail_percentile = 75
    trace_cycles = 4
    SIZES = {
        "full": dict(trials=10, max_n=10, k_range=(2, 6), n_range=(8, 12)),
        "tiny": dict(trials=2, max_n=5, k_range=(2, 3), n_range=(4, 5)),
    }

    def __init__(self, seed: int, size: str):
        self.p = self.SIZES[size]
        self.rng = random.Random(seed)

    def cycle(self, rec) -> None:
        op_seed = self.rng.randrange(2**31)
        rec.timed(
            "run_verify",
            lambda: harness.run_verify(seed=op_seed, **self.p),
            self._check,
        )

    @staticmethod
    def _check(result):
        report, passed, _ = result
        if not passed or not report.endswith("RESULT pass\n"):
            return "verify report does not end with RESULT pass"
        return None


class Sweep:
    """op = one quota's ``solve_doa`` inside ``run_sweep``.

    The sweep has no random input; the seed is recorded only.
    """

    name = "sweep"
    tail_percentile = 95
    trace_cycles = 1
    SIZES = {
        "full": dict(n=100, k_min=2, k_max=99, step=0.005),
        "tiny": dict(n=20, k_min=2, k_max=6, step=0.05),
    }

    def __init__(self, seed: int, size: str):
        self.p = self.SIZES[size]
        self.above_soa_bound: set[int] = set()

    def cycle(self, rec) -> None:
        p = self.p
        quotas = p["k_max"] - p["k_min"] + 1
        latencies: list[tuple[float, float]] = []  # (wall, reference) seconds
        inner = harness.solve_doa

        def timed_solve_doa(*args, **kwargs):
            with rec.op_scope() as op:
                try:
                    return inner(*args, **kwargs)
                finally:
                    latencies.append((op.elapsed(), op.ref))

        harness.solve_doa = timed_solve_doa
        try:
            with rec.op_scope(count=False):
                rows = harness.run_sweep(p["n"], p["k_min"], p["k_max"], p["step"])
        except Exception as exc:  # one broken sweep must not end the run
            rec.fail_many(quotas - len(latencies), f"run_sweep raised {exc!r}")
            rows = []
        finally:
            harness.solve_doa = inner
        for (seconds, ref), row in zip(latencies, rows):
            rec.add(f"k={row.k}", seconds, ref, self._check_row(row))
        if len(rows) != len(latencies):
            rec.fail_many(
                abs(len(rows) - len(latencies)),
                f"{len(rows)} rows for {len(latencies)} solve_doa calls",
            )

    def _check_row(self, row):
        n = self.p["n"]
        if row.soa_ub != bounds.ub_soa(row.k, n, "UL"):
            return f"k={row.k}: soa_ub {row.soa_ub!r} != ub_soa"
        if row.status != "ok":
            return None
        got = thresholds.doa_objective(
            row.k, n, row.doa_omega, row.doa_theta1, row.doa_theta2
        )
        if got is None:
            return f"k={row.k}: reported triple is infeasible"
        if abs(got[0] - row.doa_c) > DP_TOL:
            return f"k={row.k}: doa_c {row.doa_c!r} != objective {got[0]!r}"
        if row.doa_c > row.soa_ub:
            self.above_soa_bound.add(row.k)
        return None


class Games:
    """op = one ``run_game`` (shipped policy vs adaptive adversary) or one
    ``replay_game`` of a generated instance (plus the unit DP on UL)."""

    name = "games"
    tail_percentile = 90
    trace_cycles = 3
    POLICIES = ("soa", "soa-an", "doa", "accept-all")
    ADVERSARIES = (("chain", None), ("fl-un", 2.0), ("fl-un", 3.0))
    REPLAYS = (("UL", None, "soa"), ("FL", 2.0, "soa-an"), ("AL", None, "accept-all"))
    SIZES = {
        "full": dict(game_k=(74, 76), game_n_per_k=10, game_n_jitter=5,
                     replay_n=2000, replay_k=100),
        "tiny": dict(game_k=(3, 4), game_n_per_k=3, game_n_jitter=0,
                     replay_n=30, replay_k=4),
    }

    def __init__(self, seed: int, size: str):
        p = self.SIZES[size]
        rng = random.Random(seed)
        self.games = []
        for pol in self.POLICIES:
            for adv, m in self.ADVERSARIES:
                k = rng.randint(*p["game_k"])
                jitter = p["game_n_jitter"]
                n = p["game_n_per_k"] * k + rng.randint(-jitter, jitter)
                self.games.append((pol, adv, m, k, n))
        self.replays = [
            (harness.gen_instance(rng, length, p["replay_n"], p["replay_k"], m), pol)
            for length, m, pol in self.REPLAYS
        ]
        self.verified_opt: dict[int, float] = {}

    @staticmethod
    def _policy(name, k, n, setting, m):
        if name == "soa":
            if setting == "AL":
                return policies.ThresholdPolicy(k, n, theta=0.5)
            return policies.ThresholdPolicy(k, n, setting=setting, m=m)
        if name == "soa-an":
            if setting == "AL":
                return policies.AnytimeThresholdPolicy(k, theta=0.5)
            return policies.AnytimeThresholdPolicy(k, setting=setting, m=m)
        if name == "doa":
            sol = thresholds.solve_doa(k, n)
            return policies.TwoPhaseThresholdPolicy(k, n, sol.omega, sol.theta1, sol.theta2)
        return policies.AcceptAllPolicy(k)

    def cycle(self, rec) -> None:
        for i, (pol, adv, m, k, n) in enumerate(self.games):
            if adv == "chain":
                make_adv = lambda: adversaries.adv_ul_un_general(k, n)
                setting = "UL"
            else:
                make_adv = lambda: adversaries.adv_fl_un(k, n, m)
                setting = "FL"
            rec.timed(
                f"game {pol}/{adv}" + (f" m={m:g}" if m else ""),
                lambda: harness.run_game(self._policy(pol, k, n, setting, m), make_adv()),
                lambda out: self._check_game(i, *out),
            )
        for j, (inst, pol) in enumerate(self.replays):
            i = len(self.games) + j
            rec.timed(
                f"replay {inst.setting.length}/{pol}",
                lambda: self._replay(inst, pol),
                lambda out: self._check_replay(i, *out),
            )

    def _replay(self, inst, pol):
        policy = self._policy(pol, inst.quota, inst.n, inst.setting.length, inst.setting.m)
        record = harness.replay_game(policy, inst)
        unit = offline.solve_offline_unit(inst)[0] if inst.setting.length == "UL" else None
        return record, inst, unit

    def _check_opt(self, i, inst, opt):
        """The first time an input is seen, solve it again and check the DP's
        own answer; afterwards the op must reproduce that checked optimum."""
        if i not in self.verified_opt:
            value, picked = offline.solve_offline(inst)
            problem = _dp_problem(inst, value, picked, inst.quota)
            if problem:
                return problem
            self.verified_opt[i] = value
        if opt != self.verified_opt[i]:
            return f"opt {opt!r} != checked DP optimum {self.verified_opt[i]!r}"
        return None

    def _check_common(self, i, record, inst):
        if len(record.accepted) > inst.quota:
            return f"policy accepted {len(record.accepted)} > k={inst.quota}"
        if record.opt_value < record.alg_value - DP_TOL:
            return f"opt {record.opt_value!r} < alg {record.alg_value!r}"
        return self._check_opt(i, inst, record.opt_value)

    def _check_game(self, i, record, inst):
        if record.ratio_or_inf < record.declared_bound - RATIO_TOL:
            return (
                f"{record.policy} vs {record.source}: ratio {record.ratio!r} "
                f"below declared bound {record.declared_bound!r}"
            )
        return self._check_common(i, record, inst)

    def _check_replay(self, i, record, inst, unit):
        problem = self._check_common(i, record, inst)
        if problem is None and unit is not None and not _close(unit, record.opt_value):
            problem = f"unit DP {unit!r} != general DP {record.opt_value!r}"
        return problem


class Disjoint:
    """op = ``solve_offline(quota=5)``, ``run_policy(accept-all)`` or
    ``run_policy(soa-an)`` on pairwise-disjoint items, at three sizes."""

    name = "disjoint"
    tail_percentile = 75
    trace_cycles = 2
    DP_QUOTA = 5
    THETA = 1.2  # about 41% of items pass, so the quota n/2 never fills
    SIZES = {"full": (300, 600, 1200), "tiny": (10, 20, 40)}

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        self.instances = []
        for n in self.SIZES[size]:
            # Evenly spaced lengths and gaps in seeded order: the seed moves
            # every item, but not how many items pass THETA, which sets the
            # policies' cost.
            lengths = [0.05 + 1.95 * (i + 0.5) / n for i in range(n)]
            gaps = [0.01 + 0.49 * (i + 0.5) / n for i in range(n)]  # far above EPS
            rng.shuffle(lengths)
            rng.shuffle(gaps)
            items, x = [], 0.0
            for length, gap in zip(lengths, gaps):
                x += gap
                items.append(intervals.Batch.single(x, x + length))
                x += length
            setting = intervals.Setting("AL", "UN")
            self.instances.append(intervals.Instance(x + 1.0, n // 2, setting, tuple(items)))

    def cycle(self, rec) -> None:
        for inst in self.instances:
            n, k = inst.n, inst.quota
            lengths = [b.parts[0].length for b in inst.items]
            rec.timed(
                f"solve_offline n={n}",
                lambda: offline.solve_offline(inst, self.DP_QUOTA),
                lambda out: self._check_dp(inst, lengths, *out),
                scale=("offline.solve_offline", n),
            )
            rec.timed(
                f"accept-all n={n}",
                lambda: policies.run_policy(policies.AcceptAllPolicy(k), inst),
                lambda out: self._check_policy(lengths, tuple(range(k)), out),
                scale=("policies.run_policy", n),
            )
            rec.timed(
                f"soa-an n={n}",
                lambda: policies.run_policy(
                    policies.AnytimeThresholdPolicy(k, theta=self.THETA), inst
                ),
                lambda out: self._check_policy(lengths, self._soa_an_picks(lengths, k), out),
                scale=("policies.run_policy", n),
            )

    def _check_dp(self, inst, lengths, value, picked):
        best = math.fsum(sorted(lengths)[-self.DP_QUOTA:])
        if not _close(value, best):
            return f"n={inst.n}: DP optimum {value!r} != sum of 5 longest {best!r}"
        return _dp_problem(inst, value, picked, self.DP_QUOTA)

    def _soa_an_picks(self, lengths, k):
        """On disjoint items the marginal length is the item's own length."""
        picks = [0]
        for i in range(1, len(lengths)):
            if len(picks) < k and lengths[i] >= self.THETA - numeric.EPS:
                picks.append(i)
        return tuple(picks)

    @staticmethod
    def _check_policy(lengths, expected, out):
        value, accepted, _ = out
        if accepted != expected:
            return f"accepted {len(accepted)} items, expected {len(expected)}"
        want = math.fsum(lengths[i] for i in expected)
        if not _close(value, want):
            return f"covered {value!r} != sum of accepted lengths {want!r}"
        return None


WORKLOADS = {w.name: w for w in (Verify, Sweep, Games, Disjoint)}
