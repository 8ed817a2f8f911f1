"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest bench"""

import json

import pytest

import kcover
import run
import worker
import workloads
from kcover import harness, intervals, offline

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(names) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end_metrics(workload, tmp_path):
    record = run.run(workload, 5, 0.05, False, size="tiny", out_dir=tmp_path)
    assert record["correct"], record["failures"]
    assert record["error_rate"] == 0
    assert _units(record) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert (tmp_path / f"{workload}-seed5-trace0.json").is_file()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_per_layer_metrics(workload, tmp_path):
    record = run.run(workload, 5, 0.05, True, size="tiny", out_dir=tmp_path)
    assert record["correct"], record["failures"]
    assert _units(record) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert record["metrics"]["trace.spans"]["value"] > 0
    assert (tmp_path / f"spans-{workload}-seed5.npz").is_file()


def test_traced_counts_reach_every_importing_module(tmp_path):
    originals = {
        (mod, name): getattr(mod, name)
        for mod in (intervals, offline, harness, kcover)
        for name in ("absorb", "union_length", "solve_offline")
        if hasattr(mod, name)
    }
    out = worker.measure("disjoint", 5, 0.0, True, "tiny", tmp_path)
    m, cycles = out["metrics"], workloads.Disjoint.trace_cycles
    sizes = len(workloads.Disjoint.SIZES["tiny"])
    assert m["offline.solve_offline.calls"] == sizes * cycles
    assert m["offline.build_predecessors.calls"] == sizes * cycles
    assert m["policies.run_policy.calls"] == 2 * sizes * cycles
    # offline.absorb (the DP's prefix unions) and policies.absorb both count.
    assert m["intervals.absorb.calls"] > m["policies.next.calls"]
    assert m["intervals.components_max"] == max(workloads.Disjoint.SIZES["tiny"])
    assert m["offline.dp_cells"] == cycles * sum(
        2 * n * (workloads.Disjoint.DP_QUOTA + 1) for n in workloads.Disjoint.SIZES["tiny"]
    )
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn, f"{mod.__name__}.{name} left wrapped"


def _perturbed(real):
    def solve_offline(*args, **kwargs):
        value, picked = real(*args, **kwargs)
        return value + 0.5, picked

    return solve_offline


def _raising(*args, **kwargs):
    raise RuntimeError("deliberate")


@pytest.mark.parametrize("fault", [_perturbed(offline.solve_offline), _raising])
@pytest.mark.parametrize("workload, ops, dp_ops", [("games", 15, 15), ("disjoint", 9, 3)])
def test_wrong_dp_result_counts_as_error(fault, workload, ops, dp_ops, monkeypatch, tmp_path):
    """A wrong or raising DP fails exactly the ops that use it, and the run
    goes on.  One cycle runs, since the run length is 0 s."""
    for mod in (offline, harness, kcover):
        monkeypatch.setattr(mod, "solve_offline", fault)
    out = worker.measure(workload, 5, 0.0, False, "tiny", tmp_path)
    assert (out["attempted"], out["failed"]) == (ops, dp_ops)
    assert out["failures"]
