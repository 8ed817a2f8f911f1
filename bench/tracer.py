"""Span tracer that wraps kcover's public functions from outside the package.

Each traced function is rebound in every ``kcover`` module that holds a
reference to it (``from .intervals import absorb`` copies the name into the
importing module, so wrapping ``kcover.intervals.absorb`` alone would miss
``offline.absorb`` and ``policies.absorb``).  Methods are wrapped on every
class that defines them (``Policy.next``, ``Adversary.react`` and the
overrides of ``react``).

Spans are kept in flat arrays (name, start, end, parent, op id) and written
out once at the end.  Work counters are computed at the same boundaries from
arguments and return values, never from inside the package.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute).  Module-level functions are rebound in
# every kcover module that holds them; methods on every defining class.
FUNCTIONS = [
    ("intervals.absorb", "kcover.intervals", "absorb"),
    ("intervals.added_length", "kcover.intervals", "added_length"),
    ("intervals.union_length", "kcover.intervals", "union_length"),
    ("offline.solve_offline", "kcover.offline", "solve_offline"),
    ("offline.build_predecessors", "kcover.offline", "build_predecessors"),
    ("offline.solve_offline_unit", "kcover.offline", "solve_offline_unit"),
    ("offline.brute_force_offline", "kcover.offline", "brute_force_offline"),
    ("policies.run_policy", "kcover.policies", "run_policy"),
    ("thresholds.solve_doa", "kcover.thresholds", "solve_doa"),
    ("harness.run_game", "kcover.harness", "run_game"),
    ("harness.replay_game", "kcover.harness", "replay_game"),
    ("harness.run_verify", "kcover.harness", "run_verify"),
    ("harness.run_sweep", "kcover.harness", "run_sweep"),
    ("harness.gen_instance", "kcover.harness", "gen_instance"),
]
METHODS = [
    ("policies.next", "kcover.policies", "Policy", "next"),
    ("adversaries.react", "kcover.adversaries", "Adversary", "react"),
]
SPAN_NAMES = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
# Benchmark code that runs inside a traced call (the reference kernel between
# the quotas of run_sweep) is recorded under this id, so that it counts as a
# child of that call and not as the call's self time.
BENCH_ID = len(SPAN_NAMES)

COUNTERS = (
    "intervals.components_max",
    "offline.dp_cells",
    "offline.subsets_enumerated",
    "policies.accepts",
    "thresholds.grid_points",
)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_absorb(c, args, kwargs, result):
    c["intervals.components_max"] = max(
        c["intervals.components_max"], result.component_count
    )


def _count_solve_offline(c, args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    q = _arg(args, kwargs, 1, "quota")
    q = inst.quota if q is None else q
    if q > 0:
        c["offline.dp_cells"] += 2 * inst.n * (q + 1)


def _count_brute_force(c, args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    q = _arg(args, kwargs, 1, "quota")
    q = inst.quota if q is None else q
    c["offline.subsets_enumerated"] += math.comb(inst.n, min(q, inst.n))


def _count_next(c, args, kwargs, result):
    if result.value == "accept":
        c["policies.accepts"] += 1


def _count_solve_doa(c, args, kwargs, result):
    k = _arg(args, kwargs, 0, "k")
    step = _arg(args, kwargs, 2, "step", 0.01)
    g = int(math.floor(1.0 / step + 1e-12))
    omega_lo = max(1, -(-(k + 1) // 5))
    c["thresholds.grid_points"] += g * g * (k - omega_lo + 1)


HOOKS = {
    "intervals.absorb": _count_absorb,
    "offline.solve_offline": _count_solve_offline,
    "offline.brute_force_offline": _count_brute_force,
    "policies.next": _count_next,
    "thresholds.solve_doa": _count_solve_doa,
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = SPAN_NAMES.index(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(idx)
            self._stack.append(span)
            self.start[span] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        return span

    @contextlib.contextmanager
    def untraced(self):
        """Run benchmark code without charging it to the enclosing call."""
        if not self.active:
            yield
            return
        span = self._open(BENCH_ID)
        self.active = False
        self.start[span] = time.perf_counter()
        try:
            yield
        finally:
            self.end[span] = time.perf_counter()
            self.active = True

    def install(self) -> None:
        """Rebind every traced name in every kcover module holding it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "kcover" or n.startswith("kcover."))
        ]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for name, modname, clsname, attr in METHODS:
            base = getattr(sys.modules[modname], clsname)
            for cls in [base] + _subclasses(base):
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self) -> dict:
        """Per span name: (calls, self seconds).  Self time is the span's
        duration minus the durations of its direct children."""
        names = np.frombuffer(self.name_id, dtype=np.int16)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        calls = np.bincount(names, minlength=BENCH_ID + 1)
        self_s = np.bincount(names, weights=self_time, minlength=BENCH_ID + 1)
        return {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(SPAN_NAMES)
        }

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES + ["benchmark"]),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
