import json
import os
import subprocess
import sys

import pytest

from kcover import (
    Batch,
    Instance,
    SchemaError,
    Setting,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    write_instance,
)
from kcover import cli, harness
from kcover.cli import main
from kcover.harness import run_sweep, sweep_csv

from conftest import unit_instance


def make_instance():
    return unit_instance([(0, 1), (0.4, 1.4), (2, 3)], 2, target=3)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = make_instance()
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert back == inst

    def test_round_trip_flex_with_m(self, tmp_path):
        items = (Batch.single(0, 1.5), Batch.single(2, 3), Batch.single(4, 5.2))
        inst = Instance(6, 2, Setting("FL", "UN", 2.0), items)
        path = tmp_path / "fl.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_reversed_endpoints_diagnosed(self):
        doc = instance_to_dict(make_instance())
        doc["items"][1] = [[1.4, 0.4]]
        with pytest.raises(SchemaError, match=r"items\[1\]\[0\]"):
            instance_from_dict(doc)

    def test_count_floor_diagnosed(self):
        doc = {
            "target_len": 3.0,
            "quota": 2,
            "setting": {"length": "UL", "count": "UN"},
            "items": [[[0.0, 1.0]], [[1.0, 2.0]]],
        }
        with pytest.raises(SchemaError, match="n >= k\\+1"):
            instance_from_dict(doc)

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="quota"):
            instance_from_dict({"target_len": 1.0, "setting": {}, "items": []})

    @pytest.mark.parametrize(
        "bad",
        [float("inf"), float("-inf"), float("nan"), 10**400],
        ids=["inf", "-inf", "nan", "huge-int"],
    )
    def test_non_finite_number_diagnosed(self, bad):
        doc = instance_to_dict(make_instance())
        doc["items"][1][0][1] = bad
        with pytest.raises(SchemaError, match=r"items\[1\]\[0\]\[1\]: expected a finite"):
            instance_from_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_instance(path)

    def test_overlong_integer_literal_diagnosed(self, tmp_path, capsys):
        # Python refuses to parse int literals over 4,300 digits.
        path = tmp_path / "huge.json"
        doc = instance_to_dict(make_instance())
        doc["target_len"] = "TARGET"
        path.write_text(json.dumps(doc).replace('"TARGET"', "9" * 5000))
        with pytest.raises(SchemaError, match="huge.json: unreadable JSON"):
            read_instance(path)
        assert run_cli("instance", str(path)) == 2
        assert "huge.json" in capsys.readouterr().err


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_bounds_table(self, capsys):
        assert run_cli("bounds", "--k", "5", "--n", "20") == 0
        out = capsys.readouterr().out
        assert "UL-UN" in out and "unbounded" in out

    def test_solve_doa(self, capsys):
        assert run_cli("solve-doa", "--k", "10", "--n", "40", "--step", "0.05") == 0
        assert "omega=" in capsys.readouterr().out

    def test_run_adversary_and_record(self, tmp_path, capsys):
        rec = tmp_path / "rec.json"
        saved = tmp_path / "inst.json"
        code = run_cli(
            "run", "--policy", "soa", "--adversary", "ul-un-k2", "--n", "10",
            "--out", str(rec), "--save-instance", str(saved),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio=1.41421356" in out
        doc = json.loads(rec.read_text())
        assert doc["policy"] == "soa" and doc["ratio"] == pytest.approx(2 ** 0.5)
        replay = read_instance(saved)
        assert replay.n == 10

    def test_run_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(make_instance(), path)
        assert run_cli("run", "--policy", "soa", "--instance", str(path)) == 0
        assert "opt=2" in capsys.readouterr().out

    def test_run_multi_threshold(self, capsys):
        code = run_cli(
            "run", "--policy", "multi-threshold", "--thresholds", "0.9,0.4",
            "--adversary", "ul-un-k2", "--n", "6",
        )
        assert code == 0

    def test_instance_validate(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(make_instance(), path)
        assert run_cli("instance", str(path)) == 0
        assert "valid UL-UN" in capsys.readouterr().out

    def test_instance_validate_bad(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "target_len": 2.0, "quota": 2,
            "setting": {"length": "UL", "count": "UN"},
            "items": [[[1.0, 0.5]], [[0.0, 1.0]], [[0.5, 1.5]]],
        }))
        assert run_cli("instance", str(path)) == 2
        assert "items[0][0]" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # AL adversary with a thresholdless policy config is a usage error
        code = run_cli("run", "--policy", "soa", "--adversary", "al", "--k", "3")
        assert code == 2
        # an explicit 0 reaches the validators instead of becoming the default
        code = run_cli(
            "run", "--policy", "doa", "--adversary", "ul-un-general", "--k", "5",
            "--theta1", "0.3", "--theta2", "0.6", "--omega", "0",
        )
        assert code == 2
        assert "switch point <= k, got 0" in capsys.readouterr().err
        code = run_cli(
            "run", "--policy", "soa", "--theta", "0.5", "--adversary", "al",
            "--k", "3", "--horizon", "0",
        )
        assert code == 2
        assert "need horizon >= k+1, got 0" in capsys.readouterr().err
        # doa's explicit parameters come as --theta1 --theta2 [--omega] or
        # not at all; a partial set is refused, not replaced by solve_doa's
        for partial in (
            ("--theta1", "0.3"),
            ("--theta2", "0.6"),
            ("--omega", "2"),
            ("--theta1", "0.3", "--omega", "2"),
        ):
            code = run_cli(
                "run", "--policy", "doa", "--adversary", "ul-un-general",
                "--k", "5", "--n", "12", *partial,
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err == (
                "error: doa takes --theta1 --theta2 [--omega] together or not at all\n"
            )
        # a policy flag the chosen policy does not read is refused, not ignored
        for policy, flags, message in (
            ("soa", ("--theta1", "0.3", "--thresholds", "0.5"),
             "--theta1 is read only by doa, not soa"),
            ("soa-an", ("--omega", "2"), "--omega is read only by doa, not soa-an"),
            ("doa", ("--theta", "0.2"), "--theta is read only by soa and soa-an, not doa"),
            ("accept-all", ("--theta2", "0.6"), "--theta2 is read only by doa, not accept-all"),
            ("reject-until-forced", ("--thresholds", "0.5,0.5,0.5,0.5"),
             "--thresholds is read only by multi-threshold, not reject-until-forced"),
            ("multi-threshold", ("--thresholds", "0.5,0.5,0.5,0.5", "--theta", "0.5"),
             "--theta is read only by soa and soa-an, not multi-threshold"),
            # the thresholds list must match the game's quota
            ("multi-threshold", ("--thresholds", "0.5"), "need exactly k=4 thresholds, got 1"),
        ):
            code = run_cli(
                "run", "--policy", policy, "--adversary", "ul-un-general",
                "--k", "4", "--n", "11", *flags,
            )
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        code = run_cli(
            "run", "--policy", "multi-threshold", "--thresholds", "0.6,0.4,0.4,0.2",
            "--adversary", "ul-un-k2", "--n", "6",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: need exactly k=2 thresholds, got 4\n"
        # an adversary flag the chosen construction does not read is refused,
        # and an instance file reads none of them
        for source, flags, message in (
            (("--adversary", "ul-un-k2"), ("--k", "7", "--n", "9"),
             "--k is read only by al, ul-un-general, fl-un, fl-an and us-un, not ul-un-k2"),
            (("--adversary", "al"), ("--k", "3", "--n", "20", "--parts-per-batch", "5"),
             "--n is read only by ul-un-k2, ul-un-general, fl-un and us-un, not al"),
            (("--adversary", "fl-an"), ("--n", "9"),
             "--n is read only by ul-un-k2, ul-un-general, fl-un and us-un, not fl-an"),
            (("--adversary", "ul-un-general"), ("--m", "3"),
             "--m is read only by fl-un and fl-an, not ul-un-general"),
            (("--adversary", "fl-un"), ("--epsilon", "0.1"),
             "--epsilon is read only by al, not fl-un"),
            (("--adversary", "us-un"), ("--horizon", "9"),
             "--horizon is read only by al and fl-an, not us-un"),
            (("--adversary", "ul-un-general"), ("--parts-per-batch", "2"),
             "--parts-per-batch is read only by us-un, not ul-un-general"),
            (("--instance", "inst.json"), ("--k", "3"),
             "--k is read only by al, ul-un-general, fl-un, fl-an and us-un, not --instance"),
            (("--instance", "inst.json"), ("--horizon", "9"),
             "--horizon is read only by al and fl-an, not --instance"),
        ):
            assert run_cli("run", "--policy", "accept-all", *source, *flags) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # a grid finer than the size guard admits is refused before any work
        assert run_cli("solve-doa", "--k", "5", "--n", "10", "--step", "1e-6") == 2
        assert capsys.readouterr().err == (
            "error: step=1e-06 needs more than 2000 grid points per axis\n"
        )
        csv_path = tmp_path / "fine.csv"
        code = run_cli(
            "sweep", "--n", "20", "--k-min", "3", "--k-max", "3", "--step", "1e-5",
            "--out", str(csv_path),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: step=1e-05 needs more than 2000 grid points per axis\n"
        )
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "source",
        [(), ("--adversary", "ul-un-k2", "--instance", "inst.json")],
        ids=["neither", "both"],
    )
    def test_run_needs_exactly_one_source(self, source, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--policy", "soa", *source)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--adversary" in err and "--instance" in err

    def test_instance_path_is_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("instance", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    def test_verify_out_is_existing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        code = run_cli("verify", "--suite", "bounds", "--out", str(path))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno 17] File exists")
        assert "kcover verify report" not in captured.out  # failed before the run

    def test_verify_bad_arguments_create_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "d" / "deep"
        assert run_cli("verify", "--trials", "0", "--out", str(out)) == 2
        assert "trials >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_verify_small(self, capsys):
        code = run_cli(
            "verify", "--trials", "10", "--max-n", "6", "--seed", "7",
            "--suite", "oracle",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RESULT pass" in out

    def test_sweep_writes_csv_and_plot(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        plot_path = tmp_path / "plot.py"
        code = run_cli(
            "sweep", "--n", "30", "--k-min", "2", "--k-max", "12",
            "--step", "0.05", "--out", str(csv_path),
            "--plot-script", str(plot_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("k,soa_ub,doa_c,lower_bound")
        assert len(lines) == 12
        assert "matplotlib" in plot_path.read_text()


    def test_infinite_instance_length_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        write_instance(make_instance(), path)
        path.write_text(path.read_text().replace("1.4", "Infinity"))
        assert run_cli("run", "--policy", "soa", "--instance", str(path)) == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--k", "3", "--n", "9", "--m", "nan"),
            ("run", "--policy", "soa", "--adversary", "fl-un", "--k", "3", "--m", "inf"),
            ("run", "--policy", "multi-threshold", "--thresholds", "0.5,nan",
             "--adversary", "ul-un-k2"),
            ("solve-doa", "--k", "3", "--n", "9", "--step=-inf"),
        ],
    )
    def test_non_finite_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    def test_verify_inverted_quota_range_exits_2(self, capsys):
        assert run_cli("verify", "--k", "5..2") == 2
        assert "empty k range 5..2" in capsys.readouterr().err

    def test_verify_zero_trials_exits_2(self, capsys):
        assert run_cli("verify", "--trials", "0") == 2
        assert "trials >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["2", "0", "-5"])
    def test_verify_max_n_below_3_exits_2(self, max_n, capsys):
        assert run_cli("verify", "--max-n", max_n, "--suite", "oracle") == 2
        assert f"need max-n >= 3, got {max_n}" in capsys.readouterr().err

    def test_sweep_inverted_quota_range_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--k-min", "5", "--k-max", "1", "--out", str(csv_path)
        )
        assert code == 2
        assert "empty quota range" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "k_min, k_max, k", [("2", "40", 40), ("1", "5", 1)], ids=["above", "below"]
    )
    def test_sweep_quota_outside_range_refused_before_solving(
        self, k_min, k_max, k, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(harness, "solve_doa", lambda *args: calls.append(args))
        csv_path = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--n", "30", "--k-min", k_min, "--k-max", k_max,
            "--out", str(csv_path),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: need 2 <= k <= n-1, got k={k} n=30\n"
        assert calls == []
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--step", "0.005", "--out", "MISSING"),
            ("sweep", "--out", "CSV", "--plot-script", "MISSING"),
            ("run", "--policy", "doa", "--adversary", "ul-un-general", "--k", "5",
             "--n", "12", "--out", "MISSING"),
            ("run", "--policy", "soa", "--adversary", "ul-un-k2", "--save-instance",
             "MISSING"),
        ],
        ids=["sweep-out", "sweep-plot-script", "run-out", "run-save-instance"],
    )
    def test_bad_output_path_fails_before_any_work(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        calls = []
        for name in ("run_sweep", "run_game"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        missing = str(tmp_path / "no-such-dir" / "out")
        csv_path = tmp_path / "s.csv"
        argv = [{"MISSING": missing, "CSV": str(csv_path)}.get(a, a) for a in argv]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert captured.out == ""
        assert calls == []
        assert not csv_path.exists()

    def test_quota_range_message_shared(self, capsys):
        assert run_cli("bounds", "--k", "5", "--n", "5") == 2
        bounds_err = capsys.readouterr().err
        assert run_cli("solve-doa", "--k", "5", "--n", "5") == 2
        assert capsys.readouterr().err == bounds_err
        assert bounds_err == "error: need 2 <= k <= n-1, got k=5 n=5\n"


# The `run` flags each construction and policy reads, with a value that
# builds a game, and where the record shows that the value was read.
ADVERSARY_READS = {
    "al": {"--k": "3", "--epsilon": "0.01", "--horizon": "9"},
    "ul-un-k2": {"--n": "7"},
    "ul-un-general": {"--k": "3", "--n": "7"},
    "fl-un": {"--k": "3", "--n": "7", "--m": "3"},
    "fl-an": {"--k": "3", "--m": "3", "--horizon": "9"},
    "us-un": {"--k": "3", "--n": "7", "--parts-per-batch": "2"},
}
ADVERSARY_OWNERS = {
    "--k": "al, ul-un-general, fl-un, fl-an and us-un",
    "--n": "ul-un-k2, ul-un-general, fl-un and us-un",
    "--m": "fl-un and fl-an",
    "--epsilon": "al",
    "--horizon": "al and fl-an",
    "--parts-per-batch": "us-un",
}
ADVERSARY_SHOWN = {
    "--k": lambda r: r["k"] == 3,
    "--n": lambda r: r["n"] == 7,
    "--m": lambda r: r["m"] == 3.0,
    "--epsilon": lambda r: r["source_config"]["epsilon"] == 0.01,
    "--horizon": lambda r: r["n"] == 9,
    "--parts-per-batch": lambda r: r["source_config"]["parts"] == 2,
}
POLICY_READS = {
    "soa": {"--theta": "0.4"},
    "soa-an": {"--theta": "0.4"},
    "doa": {"--theta1": "0.3", "--theta2": "0.6", "--omega": "2"},
    "accept-all": {},
    "reject-until-forced": {},
    "multi-threshold": {"--thresholds": "0.9,0.5,0.2"},
}
POLICY_OWNERS = {
    "--theta": "soa and soa-an",
    "--theta1": "doa",
    "--theta2": "doa",
    "--omega": "doa",
    "--thresholds": "multi-threshold",
}
POLICY_SHOWN = {
    "--theta": lambda c: c["theta"] == 0.4,
    "--theta1": lambda c: c["theta1"] == 0.3,
    "--theta2": lambda c: c["theta2"] == 0.6,
    "--omega": lambda c: c["omega"] == 2,
    "--thresholds": lambda c: c["thresholds"] == [0.9, 0.5, 0.2],
}
FLAG_VALUES = {
    flag: value
    for reads in (*ADVERSARY_READS.values(), *POLICY_READS.values())
    for flag, value in reads.items()
}
GAME = ("--adversary", "ul-un-general", "--k", "3", "--n", "7")


def _flags(reads):
    return [part for flag, value in reads.items() for part in (flag, value)]


class TestRunTables:
    @pytest.mark.parametrize("adversary", ADVERSARY_READS)
    def test_construction_reads_its_flags(self, adversary, tmp_path, capsys):
        out = tmp_path / "rec.json"
        reads = ADVERSARY_READS[adversary]
        code = run_cli(
            "run", "--policy", "accept-all", "--adversary", adversary,
            *_flags(reads), "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["source"] == adversary
        for flag in reads:
            assert ADVERSARY_SHOWN[flag](record), flag

    @pytest.mark.parametrize(
        "adversary, flags, expected",
        [
            ("al", (), {"k": 2, "n": 6,
                        "source_config": {"quota": 2, "n": 6, "epsilon": 0.001}}),
            ("al", ("--k", "3"), {"k": 3, "n": 8}),
            ("ul-un-k2", (), {"k": 2, "n": 10}),
            ("ul-un-general", ("--k", "3"), {"k": 3, "n": 10}),
            ("fl-un", (), {"k": 2, "n": 10, "m": 2.0}),
            ("fl-an", (), {"k": 2, "n": 8, "m": 2.0}),
            ("fl-an", ("--k", "3"), {"k": 3, "n": 10}),
            ("us-un", ("--k", "3"), {"k": 3, "n": 10,
                                     "source_config": {"quota": 3, "n": 10, "parts": 3}}),
        ],
    )
    def test_construction_defaults(self, adversary, flags, expected, tmp_path, capsys):
        out = tmp_path / "rec.json"
        code = run_cli(
            "run", "--policy", "accept-all", "--adversary", adversary, *flags,
            "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert {key: record[key] for key in expected} == expected

    @pytest.mark.parametrize("policy", POLICY_READS)
    def test_policy_reads_its_flags(self, policy, tmp_path, capsys):
        out = tmp_path / "rec.json"
        reads = POLICY_READS[policy]
        code = run_cli("run", "--policy", policy, *GAME, *_flags(reads), "--out", str(out))
        assert code == 0
        record = json.loads(out.read_text())
        assert record["policy"] == policy
        for flag in reads:
            assert POLICY_SHOWN[flag](record["policy_config"]), flag

    @pytest.mark.parametrize(
        "source, flag",
        [
            (source, flag)
            for source in (*ADVERSARY_READS, "--instance")
            for flag in ADVERSARY_OWNERS
            if flag not in ADVERSARY_READS.get(source, {})
        ],
    )
    def test_construction_refuses_unread_flag(self, source, flag, capsys):
        chosen = ("--instance", "inst.json") if source == "--instance" else (
            "--adversary", source)
        code = run_cli("run", "--policy", "accept-all", *chosen, flag, FLAG_VALUES[flag])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} is read only by {ADVERSARY_OWNERS[flag]}, not {source}\n"
        )

    @pytest.mark.parametrize(
        "policy, flag",
        [
            (policy, flag)
            for policy in POLICY_READS
            for flag in POLICY_OWNERS
            if flag not in POLICY_READS[policy]
        ],
    )
    def test_policy_refuses_unread_flag(self, policy, flag, capsys):
        code = run_cli("run", "--policy", policy, *GAME, flag, FLAG_VALUES[flag])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} is read only by {POLICY_OWNERS[flag]}, not {policy}\n"
        )


class TestSweepRows:
    def test_row_invariants(self):
        rows = run_sweep(30, 2, 12, 0.05)
        for r in rows:
            assert r.lower_bound <= r.soa_ub + 1e-9
            if r.doa_c is not None:
                assert r.lower_bound <= r.doa_c + 1e-9

    def test_csv_deterministic(self):
        a = sweep_csv(run_sweep(30, 2, 8, 0.05))
        b = sweep_csv(run_sweep(30, 2, 8, 0.05))
        assert a == b


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "bounds", "--k", "3", "--n", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "US-UN" in proc.stdout


def test_cli_doa_without_release_count_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "run", "--policy", "doa",
         "--adversary", "fl-an", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: doa needs the total release count\n"


@pytest.mark.parametrize("value", ["abc", "", "-1", "nan", "inf"])
def test_cli_rejects_bad_kcover_eps(value):
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "solve-doa", "--k", "5", "--n", "10"],
        capture_output=True,
        text=True,
        env={**os.environ, "KCOVER_EPS": value},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: KCOVER_EPS")
    assert proc.stderr.count("\n") == 1


def test_cli_accepts_kcover_eps_override():
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "verify", "--suite", "bounds"],
        capture_output=True,
        text=True,
        env={**os.environ, "KCOVER_EPS": "0"},
    )
    assert proc.returncode == 0
    assert " eps=0 " in proc.stdout
