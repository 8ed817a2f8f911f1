"""One benchmark process: set up one workload, measure it, print one JSON line.

``run.py`` starts this file in a fresh single-threaded process for every
measurement and for every set-up probe; it is not meant to be run by hand.
The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import kcover  # noqa: E402
import numpy as np  # noqa: E402

if Path(kcover.__file__).resolve().parent != SRC / "kcover":
    sys.exit(f"kcover imported from {kcover.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KEPT_FAILURES = 5

# Reference speed.  The host this benchmark was written on shares its cores,
# and its speed drifts by up to ~1.8x within a minute, for all code alike.
# So every op is timed next to a fixed kernel of Python and numpy work that
# does not depend on kcover, and each time is scaled to the speed at which
# that kernel takes REFERENCE_S.  Raw wall times are kept in the record.
REFERENCE_S = 0.002
_GRID = np.linspace(0.005, 1.0, 200)


def reference_kernel() -> None:
    x, acc = 0.5, []
    for _ in range(3000):
        x = (x * 1.000001 + 0.37) % 7.0
        acc.append(x)
    acc.sort()
    seen = {}
    for v in acc:
        seen[int(v * 64)] = v
    t1, t2 = _GRID[:, None], _GRID[None, :]
    for omega in range(1, 5):
        s = (50.0 + (1.0 - omega) * t1 - 2.0 * t2) / (1.0 + 2.0 * t2 + t1)
        np.maximum(s, 1.0 + 2.0 * t1).min()


def reference_time() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class _Op:
    def __init__(self, ref: float):
        self.ref = ref
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


class Recorder:
    """Op latencies, check outcomes and, in the traced phase, op ids."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cycle = 0
        # (cycle, tag, wall seconds, reference seconds, scaling key or None)
        self.samples: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._next_op = 0

    @contextlib.contextmanager
    def op_scope(self, count: bool = True):
        """Time one op, after one run of the reference kernel; in the traced
        phase also switch tracing on for it.

        ``count=False`` only switches tracing on, for an enclosing call (such
        as ``run_sweep``) whose inner calls are the ops.
        """
        t = self.tracer
        ref = 0.0
        if count:
            with t.untraced() if t is not None else contextlib.nullcontext():
                ref = reference_time()
        if t is not None:
            saved = (t.active, t.op_id)
            t.active = True
            if count:
                t.op_id = self._next_op
        if count:
            self._next_op += 1
        try:
            yield _Op(ref)
        finally:
            if t is not None:
                t.active, t.op_id = saved

    def timed(self, tag, fn, check, scale=None) -> None:
        """Run one op, time it, then check its output outside the timing."""
        try:
            with self.op_scope() as op:
                out = fn()
                elapsed = op.elapsed()
        except Exception as exc:  # a failing op is counted, not fatal
            self.fail_many(1, f"{tag}: raised {exc!r}")
            return
        try:
            problem = check(out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        self.add(tag, elapsed, op.ref, problem, scale)

    def add(self, tag, seconds, ref, problem=None, scale=None) -> None:
        self.attempted += 1
        self.samples.append((self.cycle, tag, seconds, ref, scale))
        if problem:
            self._failure(f"{tag}: {problem}")

    def fail_many(self, count: int, message: str) -> None:
        self.attempted += count
        for _ in range(count):
            self._failure(message)

    def _failure(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append(message)

    def scaled_seconds(self) -> np.ndarray:
        """Op times at reference speed.  Each op's reference time is the
        median of the kernel runs just before it and just after it (before
        the next op), which damps a single disturbed kernel run."""
        ref = np.array([s[3] for s in self.samples])
        if ref.size >= 3:
            nxt = np.append(ref[1:], ref[-1])
            prev = np.insert(ref[:-1], 0, ref[0])
            ref = np.median(np.stack([prev, ref, nxt]), axis=0)
        wall = np.array([s[2] for s in self.samples])
        return wall * REFERENCE_S / ref


def run_phase(workload, rec: Recorder, seconds=None, cycles=None) -> None:
    """Whole cycles, until `cycles` are done or `seconds` have passed."""
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        workload.cycle(rec)
        rec.cycle += 1
        if cycles is not None:
            if rec.cycle >= cycles:
                return
        elif time.perf_counter() >= deadline:
            return


def ops_per_s(rec: Recorder, seconds=None) -> float:
    """Median over cycles of (ops in the cycle / seconds spent in them)."""
    if seconds is None:
        seconds = rec.scaled_seconds()
    busy = np.zeros(rec.cycle)
    ops = np.zeros(rec.cycle)
    for sample, t in zip(rec.samples, seconds):
        busy[sample[0]] += t
        ops[sample[0]] += 1
    has = busy > 0
    if not has.any():  # every op raised
        return 0.0
    return float(np.median(ops[has] / busy[has]))


def latency_metrics(rec: Recorder, tail: float) -> tuple[dict, dict]:
    scaled = rec.scaled_seconds()
    wall = np.array([s[2] for s in rec.samples])
    n = scaled.size
    ms = scaled * 1e3 if n else np.zeros(1)  # zeros: every op raised
    metrics = {
        "ops_per_s": ops_per_s(rec, scaled),
        "op_p50_ms": float(np.percentile(ms, 50)),
        "op_tail_ms": float(np.percentile(ms, tail)),
    }
    by_tag = {}
    for sample, t in zip(rec.samples, ms):
        by_tag.setdefault(sample[1], []).append(t)
    info = {
        "samples": n,
        "cycles": rec.cycle,
        "tail_percentile": tail,
        "samples_beyond_tail": int((ms > metrics["op_tail_ms"]).sum()),
        "p50_ms_by_op": {t: float(np.median(v)) for t, v in by_tag.items()},
        "wall_ops_per_s": ops_per_s(rec, wall),
        "wall_op_p50_ms": float(np.median(wall)) * 1e3 if n else 0.0,
        "reference_ms_median": float(np.median([s[3] for s in rec.samples])) * 1e3
        if n else 0.0,
    }
    return metrics, info


def scaling_exponent(rec: Recorder, layer: str) -> float:
    """Slope of log(time) against log(n): per n, the median over cycles of
    the summed time of that layer's ops.  0 when the workload has no such
    ops at two or more sizes."""
    per = {}
    for sample, seconds in zip(rec.samples, rec.scaled_seconds()):
        cycle, scale = sample[0], sample[4]
        if scale is not None and scale[0] == layer:
            per.setdefault(scale[1], {}).setdefault(cycle, 0.0)
            per[scale[1]][cycle] += seconds
    if len(per) < 2:
        return 0.0
    sizes = sorted(per)
    times = [np.median(list(per[n].values())) for n in sizes]
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def per_layer_metrics(tr, traced_wl, untraced: Recorder, traced: Recorder) -> dict:
    totals = tr.layer_totals()
    m = {}
    for name, (calls, self_s) in totals.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    c = tr.counters
    for name in ("intervals.components_max", "offline.dp_cells",
                 "offline.subsets_enumerated", "thresholds.grid_points"):
        m[name] = c[name]
    nexts = totals["policies.next"][0]
    m["policies.accept_ratio"] = c["policies.accepts"] / nexts if nexts else 0.0
    m["thresholds.above_soa_bound"] = len(getattr(traced_wl, "above_soa_bound", ()))
    m["offline.solve_offline.scaling_exp"] = scaling_exponent(untraced, "offline.solve_offline")
    m["policies.run_policy.scaling_exp"] = scaling_exponent(untraced, "policies.run_policy")
    m["trace.untraced_ops_per_s"] = ops_per_s(untraced)
    m["trace.traced_ops_per_s"] = ops_per_s(traced)
    traced_rate = m["trace.traced_ops_per_s"]
    m["trace.slowdown"] = m["trace.untraced_ops_per_s"] / traced_rate if traced_rate else 0.0
    m["trace.spans"] = sum(calls for calls, _ in totals.values())
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            out_dir: Path, setup_only: bool = False) -> dict:
    workload = WORKLOADS[name](seed, size)
    ready = time.time()
    if setup_only:
        return {"ready": ready}
    out = {"ready": ready, "numpy": np.__version__}
    untraced = Recorder()
    if not trace:
        run_phase(workload, untraced, seconds=seconds)
        metrics, info = latency_metrics(untraced, workload.tail_percentile)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        recs = [untraced]
    else:
        run_phase(workload, untraced, seconds=seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.active = True
            traced_wl = WORKLOADS[name](seed, size)  # set-up is traced too
            tr.active = False
            traced = Recorder(tr)
            run_phase(traced_wl, traced, cycles=traced_wl.trace_cycles)
        finally:
            tr.active = False
            tr.uninstall()
        metrics = per_layer_metrics(tr, traced_wl, untraced, traced)
        info = {"traced_cycles": traced.cycle, "traced_ops": traced.attempted}
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / f"spans-{name}-seed{seed}.npz"
        tr.write(spans)
        info["spans_file"] = str(spans)
        recs = [untraced, traced]
    out.update(
        metrics=metrics,
        info=info,
        attempted=sum(r.attempted for r in recs),
        failed=sum(r.failed for r in recs),
        failures=[f for r in recs for f in r.failures],
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size, args.out_dir, args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
