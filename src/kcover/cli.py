"""Command-line front door.

Subcommands: run, sweep, verify, solve-doa, bounds, instance.
Exit codes: 0 pass, 1 property failure, 2 usage error.
KCOVER_EPS overrides the comparison tolerance (default 1e-9).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import numeric
from .adversaries import (
    adv_al,
    adv_fl_an,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
)
from .bounds import bound_table
from .errors import ConfigError, KcoverError
from .harness import (
    PLOT_SCRIPT,
    SUITES,
    check_verify_args,
    replay_game,
    run_game,
    run_sweep,
    run_verify,
    sweep_csv,
)
from .instance_io import instance_to_dict, read_instance, write_instance, write_json
from .policies import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    MultiThresholdPolicy,
    RejectUntilForcedPolicy,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
)
from .thresholds import check_schedule, default_switch, solve_doa

CSV_COLUMNS = (
    "k, soa_ub (threshold-policy bound), doa_c (two-phase objective), "
    "lower_bound, doa_omega, doa_theta1, doa_theta2, status"
)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _finite_float(text: str) -> float:
    """argparse type for every float flag: nan and infinities are usage
    errors, not inputs."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# Each `run` name space maps a name to the flags it reads, with their
# defaults, and to its builder, which takes them as keyword arguments.  A
# callable default reads the flags resolved before it.
_ADVERSARIES = {
    "al": ({"k": 2, "epsilon": 1e-3, "horizon": lambda v: 2 * v["k"] + 2}, adv_al),
    "ul-un-k2": ({"n": 10}, adv_ul_un_k2),
    "ul-un-general": ({"k": 2, "n": 10}, adv_ul_un_general),
    "fl-un": ({"k": 2, "n": 10, "m": 2.0}, adv_fl_un),
    "fl-an": ({"k": 2, "m": 2.0, "horizon": lambda v: 2 * v["k"] + 4}, adv_fl_an),
    "us-un": ({"k": 2, "n": 10, "parts_per_batch": 3}, adv_us_un),
}


def _doa(k, n, setting, m, theta1, theta2, omega):
    if (theta1 is None) != (theta2 is None) or (theta1 is None and omega is not None):
        raise ConfigError("doa takes --theta1 --theta2 [--omega] together or not at all")
    if n is None:  # solve_doa and the policy both need the count
        raise ConfigError("doa needs the total release count")
    if theta1 is None:
        sol = solve_doa(k, n)
        omega, theta1, theta2 = sol.omega, sol.theta1, sol.theta2
    elif omega is None:
        omega = default_switch(k)
    return TwoPhaseThresholdPolicy(k, n, omega, theta1, theta2)


def _multi_threshold(k, n, setting, m, thresholds):
    if not thresholds:
        raise KcoverError("--thresholds is required for multi-threshold")
    return MultiThresholdPolicy(check_schedule(thresholds, k))


# Policy builders take the game's k, n, length setting and m first; a None
# default leaves the choice to the policy.
_POLICIES = {
    "soa": ({"theta": None},
            lambda k, n, setting, m, theta: ThresholdPolicy(k, n, theta, setting, m)),
    "soa-an": ({"theta": None},
               lambda k, n, setting, m, theta: AnytimeThresholdPolicy(k, theta, setting, m)),
    "doa": ({"theta1": None, "theta2": None, "omega": None}, _doa),
    "accept-all": ({}, lambda k, n, setting, m: AcceptAllPolicy(k)),
    "reject-until-forced": ({}, lambda k, n, setting, m: RejectUntilForcedPolicy(k, n)),
    "multi-threshold": ({"thresholds": None}, _multi_threshold),
}


def _refuse_unread(args, table, name: str) -> None:
    """Exit 2 on a flag of `table` that `name` does not read, instead of
    ignoring it; flags are checked in argparse order."""
    read = table[name][0] if name in table else {}
    for flag, value in vars(args).items():
        readers = [who for who, (flags, _) in table.items() if flag in flags]
        if value is not None and readers and flag not in read:
            *head, last = readers
            who = f"{', '.join(head)} and {last}" if head else last
            raise ConfigError(
                f"--{flag.replace('_', '-')} is read only by {who}, not {name}"
            )


def _build(args, table, name: str, *context):
    """Build `name` of `table` from the flags it reads, defaults filled in."""
    _refuse_unread(args, table, name)
    flags, build = table[name]
    values: dict = {}
    for flag, default in flags.items():
        value = getattr(args, flag)
        if value is None:
            value = default(values) if callable(default) else default
        values[flag] = value
    return build(*context, **values)


def _check_writable(*paths) -> None:
    """Raise now, not after the work, the OSError that writing any of
    `paths` would raise.  Opening for append truncates nothing; a file this
    check creates is removed again."""
    for path in paths:
        if path:
            created = not os.path.lexists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if created:
                os.remove(path)


def _print_record(record) -> None:
    ratio = "inf" if record.ratio is None else f"{record.ratio:.9g}"
    print(
        f"setting={record.setting} k={record.k} n={record.n} "
        f"policy={record.policy} source={record.source}"
    )
    print(
        f"alg={record.alg_value:.9g} opt={record.opt_value:.9g} ratio={ratio}"
        + (
            f" declared-bound={record.declared_bound:.9g}"
            if record.declared_bound is not None
            else ""
        )
    )


def cmd_run(args) -> int:
    _check_writable(args.out, args.save_instance)
    if args.instance is not None:
        _refuse_unread(args, _ADVERSARIES, "--instance")
        game = read_instance(args.instance)
        total = game.n
    else:
        game = _build(args, _ADVERSARIES, args.adversary)
        total = game.total
    setting = game.setting
    n = total if setting.count == "UN" else None
    policy = _build(args, _POLICIES, args.policy, game.quota, n, setting.length, setting.m)
    if args.instance is not None:
        record = replay_game(policy, game, source=str(args.instance))
    else:
        record, realized = run_game(policy, game)
        if args.save_instance:
            write_instance(realized, args.save_instance)
            print(f"realized instance written to {args.save_instance}")
    _print_record(record)
    if args.out:
        write_json(record.to_dict(), args.out)
        print(f"record written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    _check_writable(args.out, args.plot_script)
    t0 = time.perf_counter()
    rows = run_sweep(args.n, args.k_min, args.k_max, args.step)
    elapsed = time.perf_counter() - t0
    csv_text = sweep_csv(rows)
    out = Path(args.out)
    out.write_text(csv_text, encoding="utf-8")
    print(f"sweep n={args.n} k={args.k_min}..{args.k_max} step={args.step:g} "
          f"rows={len(rows)} elapsed={elapsed:.1f}s -> {out}")
    if args.plot_script:
        Path(args.plot_script).write_text(PLOT_SCRIPT, encoding="utf-8")
        print(f"plot script written to {args.plot_script}")
    return 0


def cmd_verify(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    check_verify_args(args.trials, args.max_n, args.k, args.n)
    out = Path(args.out) if args.out else None
    if out is not None:  # a bad path fails now, not after the whole run
        out.mkdir(parents=True, exist_ok=True)
    report, passed, dumps = run_verify(
        trials=args.trials,
        max_n=args.max_n,
        seed=args.seed,
        suites=suites,
        k_range=args.k,
        n_range=args.n,
    )
    sys.stdout.write(report)
    if out is not None:
        (out / "report.txt").write_text(report, encoding="utf-8")
        for i, (label, payload) in enumerate(dumps):
            path = out / f"counterexample-{i}.json"
            write_json({"check": label, **payload}, path)
            print(f"counterexample for {label} written to {path}")
    return 0 if passed else 1


def cmd_solve_doa(args) -> int:
    sol = solve_doa(args.k, args.n, args.step)
    print(
        f"k={args.k} n={args.n} step={args.step:g}: omega={sol.omega} "
        f"theta1={sol.theta1:.9g} theta2={sol.theta2:.9g} "
        f"s={sol.s:.9g} q={sol.q:.9g} C={sol.value:.9g}"
    )
    return 0


def cmd_bounds(args) -> int:
    rows = bound_table(args.k, args.n, args.m)
    print(f"{'setting':<8} {'lower':>12} {'upper':>12}  source")
    for r in rows:
        lower = f"{r.lower:.9g}" if isinstance(r.lower, float) else "unbounded"
        upper = f"{r.upper:.9g}" if r.upper is not None else "-"
        print(f"{r.setting:<8} {lower:>12} {upper:>12}  {r.source}")
    return 0


def cmd_instance(args) -> int:
    inst = read_instance(args.path)
    print(
        f"{args.path}: valid {inst.setting.label()} instance, "
        f"n={inst.n} k={inst.quota} target_len={inst.target_len:g}"
    )
    if args.normalize:
        write_instance(inst, args.normalize)
        print(f"normalized copy written to {args.normalize}")
    if args.show:
        print(json.dumps(instance_to_dict(inst), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcover",
        description=(
            "Online maximum k-interval coverage toolkit: play threshold "
            "policies against adaptive stress generators, compare with the "
            "exact offline optimum, and evaluate worst-case ratio bounds. "
            "Set KCOVER_EPS to override the comparison tolerance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="play one game: policy vs adversary or instance file")
    p.add_argument("--policy", required=True, choices=_POLICIES)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--adversary", choices=_ADVERSARIES)
    source.add_argument("--instance", help="replay a JSON instance file instead")
    # Table flags default to None so that a given flag can be told from an
    # absent one; _build applies the table's defaults.
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=_finite_float)
    p.add_argument("--epsilon", type=_finite_float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--parts-per-batch", type=int)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--theta1", type=_finite_float)
    p.add_argument("--theta2", type=_finite_float)
    p.add_argument("--omega", type=int)
    p.add_argument("--thresholds", help="comma-separated non-increasing list",
                   type=lambda text: [_finite_float(t) for t in text.split(",")])
    p.add_argument("--out", help="write the game record JSON here")
    p.add_argument("--save-instance", help="write the realized instance here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help=f"bound sweep CSV; columns: {CSV_COLUMNS}")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=99)
    p.add_argument("--step", type=_finite_float, default=0.01)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plot-script", help="also write a matplotlib plot script")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle/adversary/bounds suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p.add_argument("--k", type=_parse_range, default="2..6",
                   help="adversary quota range, e.g. 2..6")
    p.add_argument("--n", type=_parse_range, default="8..12",
                   help="adversary count range, e.g. 8..12")
    p.add_argument("--out", help="directory for the report and counterexamples")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve-doa", help="grid-search the two-phase parameters")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", type=_finite_float, default=0.01)
    p.set_defaults(func=cmd_solve_doa)

    p = sub.add_parser("bounds", help="print the lower/upper bound table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=_finite_float, default=2.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("instance", help="validate (and normalize) an instance file")
    p.add_argument("path")
    p.add_argument("--normalize", help="write a canonicalized copy here")
    p.add_argument("--show", action="store_true")
    p.set_defaults(func=cmd_instance)

    return parser


def main(argv=None) -> int:
    try:
        numeric.EPS  # reads and checks KCOVER_EPS before anything else runs
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KcoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
