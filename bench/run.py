"""kcover benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts a few set-up probes and one measuring process,
checks every op's output, prints every end-to-end metric with its unit, and
ends with one JSON line.  With ``--trace 1`` the measuring process runs an
untraced and then a traced phase and the JSON line carries the per-layer
metrics instead.  A record with the run's metadata goes to ``.bench_out/``.
Run it from anywhere; it measures the ``src/kcover`` beside this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "kcover"
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify", "sweep", "games", "disjoint")
SETUP_PROBES = 4  # plus the measuring process: set-up is timed 5 times
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".scaling_exp", ".accept_ratio", ".slowdown")):
        return "1"
    if name.endswith("_ops_per_s"):
        return "1/s"
    return "count"


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str]) -> dict:
    """Run one worker; its set-up time counts from just before the spawn."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.time()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out


def _metadata(seed: int, numpy_version: str) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        sha = git.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", out_dir: Path = OUT_DIR) -> dict:
    """Measure one workload; returns the full record (also written to disk)."""
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--out-dir", str(out_dir)]
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(_spawn(common + ["--seconds", "0", "--setup-only"]))
    res = _spawn(common + ["--seconds", str(seconds), "--trace", str(int(trace))])
    metrics = res["metrics"]
    if trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        probes.append(res)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        res["info"]["setup_samples_s"] = [p["setup_s"] for p in probes]
        units = END_TO_END
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "meta": _metadata(seed, res["numpy"]),
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "info": res["info"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    meta = record["meta"]
    print(f"workload={record['workload']} trace={record['trace']} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops failed their check)")
    print("info " + json.dumps(record["info"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no kcover package at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
