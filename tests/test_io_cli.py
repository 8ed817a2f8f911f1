import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kcover import (
    Batch,
    ConfigError,
    Instance,
    SchemaError,
    Setting,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    write_instance,
)
from kcover import cli, harness, numeric, offline
from kcover.cli import main
from kcover.harness import run_sweep, sweep_csv

from conftest import unit_instance


def make_instance():
    return unit_instance([(0, 1), (0.4, 1.4), (2, 3)], 2, target=3)


def make_doc(**fields):
    doc = instance_to_dict(make_instance())
    doc.update(fields)
    return doc


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
        with pytest.raises(SchemaError, match="need 2 <= k <= n-1, got k=2 n=2"):
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

    @pytest.mark.parametrize(
        "m, message",
        [('"x"', "expected a number, got 'x'"), ("1e400", "expected a finite number, got inf")],
        ids=["string", "overflow"],
    )
    def test_bad_flex_cap_diagnosed_once(self, m, message, tmp_path, capsys):
        path = tmp_path / "f.json"
        doc = instance_to_dict(make_instance())
        doc["setting"] = {"length": "FL", "count": "UN", "m": "M"}
        path.write_text(json.dumps(doc).replace('"M"', m))
        assert run_cli("instance", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: setting.m: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "top level: expected a JSON object"),
            (make_doc(quota=2.0), "quota: expected an integer, got 2.0"),
            (make_doc(quota=True), "quota: expected an integer, got True"),
            (make_doc(setting=[]), "setting: expected an object"),
            (make_doc(setting={"length": "XX", "count": "UN"}),
             "setting: unknown length setting 'XX'"),
            (make_doc(items={}), "items: expected a list"),
            (make_doc(items=[[]]), "items[0]: expected a non-empty list of [o, d]"),
            (make_doc(items=[[[0]]]), "items[0][0]: expected [o, d]"),
            (make_doc(setting={"length": "US", "count": "UN"}, items=[[[0, 0.6], [0.5, 0.9]]]),
             "items[0]: batch parts overlap or are unsorted: [0, 0.6] then [0.5, 0.9]"),
            (make_doc(setting={"length": "UL", "count": "XX"}),
             "setting: unknown count setting 'XX'"),
            (make_doc(items=[[[-0.5, 0.5]], [[0.4, 1.4]], [[2, 3]]]),
             "items[0][0]: start -0.5 must be >= 0"),
            (make_doc(items=[[[0, 0.5], [1, 1.5]], [[0.4, 1.4]], [[2, 3]]]),
             "items[0]: multi-part batch outside the US setting"),
            (make_doc(items=[[[0, 1]], [[0.4, "x"]], [[2, 3]]]),
             "items[1][0][1]: expected a number, got 'x'"),
            (make_doc(items=[[[0, 1]], [[0.4, 1.4]], [[1e400, 3]]]),
             "items[2][0][0]: expected a finite number, got inf"),
            (make_doc(setting={"length": "US", "count": "UN"},
                      items=[[[0, 1]], [[0.4, 1.4]], [[2, 2.5], [3, 2.5]]]),
             "items[2][1]: interval [3.0, 2.5] has non-positive length"),
            (make_doc(target_len=0), "target_len must be positive"),
            (make_doc(items=[]), "instance needs at least one item"),
        ],
        ids=["top-level", "float-quota", "bool-quota", "setting", "length", "items",
             "empty-item", "short-pair", "overlapping-parts", "count", "negative-start",
             "two-part-ul", "non-number-end", "infinite-start", "reversed-part",
             "zero-target", "no-items"],
    )
    def test_schema_error_exits_2(self, doc, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("instance", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

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

    def test_run_unit_sum_game_past_the_enumeration_guard(self, tmp_path, capsys):
        # the unit-sum construction's thirds touch, so each item is one run
        # and the DP scores the game at n = 40, past the enumeration's 20;
        # its optimum is the chain game's, whose items are those runs
        opts = {}
        for name in ("us-un", "ul-un-general"):
            rec = tmp_path / f"{name}.json"
            code = run_cli(
                "run", "--policy", "soa", "--adversary", name, "--k", "5", "--n", "40",
                "--out", str(rec),
            )
            assert code == 0, capsys.readouterr().err
            opts[name] = json.loads(rec.read_text())["opt_value"]
        assert opts["us-un"] == opts["ul-un-general"]

    def test_run_doa_on_arbitrary_lengths_needs_thetas(self, capsys):
        # solve_doa's triple is a unit-length program: AL has none, as soa
        # has no default theta there
        assert run_cli("run", "--policy", "doa", "--adversary", "al", "--k", "2") == 2
        assert capsys.readouterr().err == (
            "error: no default two-phase triple exists for arbitrary lengths; "
            "pass theta1 and theta2\n"
        )
        code = run_cli(
            "run", "--policy", "doa", "--adversary", "al", "--k", "2",
            "--theta1", "0.3", "--theta2", "0.6",
        )
        assert code == 0
        assert "policy=doa source=al" in capsys.readouterr().out

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

    def test_run_multi_threshold_needs_thresholds(self, capsys):
        code = run_cli("run", "--policy", "multi-threshold", "--adversary", "ul-un-k2")
        assert code == 2
        assert capsys.readouterr().err == "error: --thresholds is required for multi-threshold\n"

    def test_instance_validate(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(make_instance(), path)
        assert run_cli("instance", str(path)) == 0
        assert "valid UL-UN" in capsys.readouterr().out

    def test_instance_normalize_and_show(self, tmp_path, capsys):
        path, copy = tmp_path / "inst.json", tmp_path / "copy.json"
        path.write_text(json.dumps(instance_to_dict(make_instance())))
        assert run_cli("instance", str(path), "--normalize", str(copy), "--show") == 0
        assert read_instance(copy) == make_instance()
        shown = capsys.readouterr().out.split("\n", 2)[2]
        assert json.loads(shown) == instance_to_dict(make_instance())

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
            "--k", "3", "--n", "0",
        )
        assert code == 2
        assert "need 2 <= k <= n-1, got k=3 n=0" in capsys.readouterr().err
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
                "error: doa takes theta1 and theta2 (and optionally omega) "
                "together or not at all\n"
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
            (("--adversary", "al"), ("--k", "3", "--n", "20", "--parts", "5"),
             "--parts is read only by us-un, not al"),
            (("--adversary", "fl-an"), ("--n", "9", "--epsilon", "0.1"),
             "--epsilon is read only by al, not fl-an"),
            (("--adversary", "ul-un-general"), ("--m", "3"),
             "--m is read only by fl-un and fl-an, not ul-un-general"),
            (("--adversary", "fl-un"), ("--epsilon", "0.1"),
             "--epsilon is read only by al, not fl-un"),
            (("--adversary", "us-un"), ("--m", "3"),
             "--m is read only by fl-un and fl-an, not us-un"),
            (("--adversary", "ul-un-general"), ("--parts", "2"),
             "--parts is read only by us-un, not ul-un-general"),
            (("--instance", "inst.json"), ("--k", "3"),
             "--k is read only by al, ul-un-general, fl-un, fl-an and us-un, not --instance"),
            (("--instance", "inst.json"), ("--n", "9"),
             "--n is read only by al, ul-un-k2, ul-un-general, fl-un, fl-an and us-un, "
             "not --instance"),
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

    def test_al_epsilon_whose_smallest_rung_underflows_exits_2(self, capsys):
        # refused when the construction is built, before any item is played
        game = ("run", "--policy", "accept-all", "--adversary", "al", "--k", "2")
        assert run_cli(*game, "--epsilon", "1e-200") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: epsilon=1e-200 underflows at k=2: the smallest rung "
            "epsilon^(k+1) rounds to 0\n"
        )
        assert run_cli(*game, "--epsilon", "1e-100") == 0
        assert "ratio=1e+100" in capsys.readouterr().out

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

    def test_verify_out_dumps_a_failing_check(self, monkeypatch, tmp_path, capsys):
        def failing_bounds(seed):
            yield False, "bound-sandwich", "grid k=2..20", {"k": 2, "n": 3}

        monkeypatch.setattr(harness, "verify_bounds", failing_bounds)
        out = tmp_path / "out"
        assert run_cli("verify", "--suite", "bounds", "--out", str(out)) == 1
        dump = out / "counterexample-0.json"
        assert json.loads(dump.read_text()) == {"check": "bound-sandwich", "k": 2, "n": 3}
        assert (out / "report.txt").read_text().endswith("RESULT fail\n")
        assert f"counterexample for bound-sandwich written to {dump}" in capsys.readouterr().out

    def test_verify_takes_single_integer_ranges(self, capsys):
        code = run_cli("verify", "--suite", "adversary", "--k", "3", "--n", "8", "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert " k=3..3 n=8..8 " in out and "chain-adversary k=3 n=8:" in out

    def test_verify_bounds_header_names_no_oracle_or_adversary_flag(self, capsys):
        # the bounds suite reads only the seed: --trials, --max-n and --k
        # values that the other suites would refuse neither fail nor print
        assert run_cli("verify", "--suite", "bounds", "--trials", "0",
                       "--max-n", "99", "--k", "9..1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"seed=42 eps={numeric.EPS:g} prng={harness.PRNG_NAME}"
        assert lines[-1] == "RESULT pass"

    def test_verify_oracle_header_names_no_adversary_range(self, capsys):
        assert run_cli("verify", "--suite", "oracle", "--trials", "2", "--max-n", "5",
                       "--k", "9..1", "--n", "3..4", "--seed", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            f"seed=3 trials=2 max-n=5 eps={numeric.EPS:g} prng={harness.PRNG_NAME}"
        )
        assert lines[-1] == "RESULT pass"

    def test_sweep_writes_csv_and_plot(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--n", "30", "--k-min", "2", "--k-max", "12",
            "--step", "0.05", "--out", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("k,soa_ub,doa_c,lower_bound")
        assert len(lines) == 12

    def test_sweep_plot_script_flag_removed(self, tmp_path, capsys):
        # the CSV is the sweep's one output
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--out", str(tmp_path / "s.csv"), "--plot-script", "x.py")
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot-script x.py" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


    def test_dp_table_guard_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.json"
        write_instance(make_instance(), path)
        monkeypatch.setattr(offline, "_MAX_TABLE_BYTES", 100)
        assert run_cli("run", "--policy", "soa", "--instance", str(path)) == 2
        assert capsys.readouterr().err == (
            "error: the DP tables for n=3 and quota 2 take 192 bytes, over the guard of 100\n"
        )

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--k", "3", "--n", "10", "--m", "1e308"),
            ("run", "--policy", "soa-an", "--adversary", "fl-un",
             "--k", "3", "--n", "10", "--m", "1e308"),
        ],
    )
    def test_overflowing_fl_cap_exits_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert "FL length cap m=1e+308 overflows the float range" in captured.err
        assert "nan" not in captured.out and "inf" not in captured.out

    def test_verify_inverted_quota_range_exits_2(self, capsys):
        assert run_cli("verify", "--k", "5..2") == 2
        assert "empty k range 5..2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k_range, n_range",
        [("0..1", "1..2"), ("7..9", "3..5"), ("3..3", "3..3"), ("50..60", "8..12")],
    )
    def test_verify_range_without_a_quota_exits_2(self, k_range, n_range, capsys):
        # no k in the range has 2 <= k <= n-1 for an n in it: no chain, flex
        # or unit-sum construction would be certified, so no vacuous pass
        code = run_cli("verify", "--suite", "adversary", "--k", k_range, "--n", n_range)
        assert code == 2
        captured = capsys.readouterr()
        assert "holds no quota with 2 <= k <= n-1" in captured.err
        assert captured.out == ""

    def test_verify_range_without_a_quota_names_no_construction(self, capsys):
        # the al row at k = 3 would still run, so the message claims only
        # what the ranges hold
        assert run_cli("verify", "--suite", "adversary", "--k", "3..3", "--n", "3..3") == 2
        assert capsys.readouterr().err == (
            "error: k=3..3 n=3..3 holds no quota with 2 <= k <= n-1\n"
        )

    @pytest.mark.parametrize(
        "trials, max_n, k_range, n_range, suites",
        [(1, 10, (7, 9), (3, 5), ("oracle",)), (1, 10, (5, 2), (21, 30), ("oracle", "bounds")),
         (0, 2, (2, 6), (8, 12), ("adversary",)), (0, 21, (9, 1), (5, 2), ("bounds",))],
    )
    def test_verify_checks_only_the_flags_its_suites_read(
        self, trials, max_n, k_range, n_range, suites
    ):
        # --trials/--max-n belong to the oracle suite, --k/--n to the adversary suite
        harness.check_verify_args(trials, max_n, k_range, n_range, suites)

    def test_verify_oracle_ignores_the_adversary_ranges(self, capsys):
        code = run_cli(
            "verify", "--suite", "oracle", "--k", "7..9", "--n", "3..5",
            "--trials", "1", "--seed", "1",
        )
        assert code == 0
        assert "RESULT pass" in capsys.readouterr().out

    def test_verify_zero_trials_exits_2(self, capsys):
        assert run_cli("verify", "--trials", "0") == 2
        assert "trials >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["2", "0", "-5", "21"])
    def test_verify_max_n_outside_guard_exits_2(self, max_n, capsys):
        # 21 is past the enumeration guard: refused before any suite runs
        assert run_cli("verify", "--max-n", max_n, "--suite", "oracle") == 2
        captured = capsys.readouterr()
        assert f"need 3 <= max-n <= 20, got {max_n}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "k_range, n_range",
        [("3..3", "19..21"), ("3..3", "21..21"), ("2..5", "19..21"), ("3..30", "4..25")],
    )
    def test_verify_n_past_the_enumeration_guard_is_scored_by_the_dp(
        self, k_range, n_range, monkeypatch, capsys
    ):
        # every construction's items are one run each, so no row enumerates
        def refuse(inst):
            raise AssertionError(f"enumerated n={inst.n}")

        monkeypatch.setattr(harness, "brute_force_offline", refuse)
        code = run_cli("verify", "--suite", "adversary", "--k", k_range, "--n", n_range)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS unit-sum-adversary k=3 n=21 parts=3:" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("gap", [0.25, 0.0], ids=["two-runs", "touching"])
    def test_run_unit_sum_file_meets_the_guard_only_with_multi_run_items(
        self, gap, tmp_path, capsys
    ):
        # n = 21: an item of two runs is left to the enumeration, which
        # refuses it; with each item's parts touching, the DP scores the file
        items = [[[i, i + 0.5], [i + 0.5 + gap, i + 1.0 + gap]] for i in range(21)]
        path = tmp_path / "us.json"
        path.write_text(json.dumps({
            "target_len": 22.0, "quota": 3,
            "setting": {"length": "US", "count": "UN"}, "items": items,
        }))
        code = run_cli("run", "--policy", "soa", "--instance", str(path))
        captured = capsys.readouterr()
        if gap:
            assert code == 2
            assert captured.err == "error: n=21 exceeds the enumeration guard max_n=20\n"
        else:
            assert code == 0, captured.err
            assert "opt=3 " in captured.out

    def test_unknown_suite_refused_before_any_suite_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "verify_oracle", lambda *args: ran.append(args) or iter(()))
        with pytest.raises(ConfigError, match="unknown suite 'nope'"):
            harness.run_verify(trials=1, suites=("oracle", "nope"))
        assert ran == []

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
            ("run", "--policy", "doa", "--adversary", "ul-un-general", "--k", "5",
             "--n", "12", "--out", "MISSING"),
            ("run", "--policy", "soa", "--adversary", "ul-un-k2", "--save-instance",
             "MISSING"),
        ],
        ids=["sweep-out", "run-out", "run-save-instance"],
    )
    def test_bad_output_path_fails_before_any_work(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        calls = []
        for name in ("run_sweep", "run_game"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        missing = str(tmp_path / "no-such-dir" / "out")
        argv = [missing if a == "MISSING" else a for a in argv]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert captured.out == ""
        assert calls == []

    def test_quota_range_message_shared(self, tmp_path, capsys):
        path = tmp_path / "k-is-n.json"
        doc = instance_to_dict(make_instance())
        doc["quota"] = 3
        path.write_text(json.dumps(doc))
        game = ("run", "--policy", "soa", "--adversary")
        for argv, prefix, got in [
            (("bounds", "--k", "5", "--n", "5"), "", "k=5 n=5"),
            (("solve-doa", "--k", "5", "--n", "5"), "", "k=5 n=5"),
            ((*game, "ul-un-k2", "--n", "2"), "", "k=2 n=2"),
            ((*game, "ul-un-general", "--k", "5", "--n", "5"), "", "k=5 n=5"),
            ((*game, "us-un", "--k", "5", "--n", "5"), "", "k=5 n=5"),
            (("run", "--policy", "soa", "--instance", str(path)), f"{path}: ", "k=3 n=3"),
            (("instance", str(path)), f"{path}: ", "k=3 n=3"),
        ]:
            assert run_cli(*argv) == 2, argv
            assert capsys.readouterr().err == f"error: {prefix}need 2 <= k <= n-1, got {got}\n"
        # the chain constructions add their own floor
        for name in ("ul-un-general", "us-un"):
            assert run_cli(*game, name, "--k", "2", "--n", "5") == 2
            assert capsys.readouterr().err == f"error: {name} needs k >= 3, got 2\n"


# The `run` flags each construction and policy reads, with a value that
# builds a game, and where the record shows that the value was read.
ADVERSARY_READS = {
    "al": {"--k": "3", "--epsilon": "0.01", "--n": "7"},
    "ul-un-k2": {"--n": "7"},
    "ul-un-general": {"--k": "3", "--n": "7"},
    "fl-un": {"--k": "3", "--n": "7", "--m": "3"},
    "fl-an": {"--k": "3", "--m": "3", "--n": "7"},
    "us-un": {"--k": "3", "--n": "7", "--parts": "2"},
}
ADVERSARY_OWNERS = {
    "--k": "al, ul-un-general, fl-un, fl-an and us-un",
    "--n": "al, ul-un-k2, ul-un-general, fl-un, fl-an and us-un",
    "--m": "fl-un and fl-an",
    "--epsilon": "al",
    "--parts": "us-un",
}
ADVERSARY_SHOWN = {
    "--k": lambda r: r["k"] == 3,
    "--n": lambda r: r["n"] == 7,
    "--m": lambda r: r["m"] == 3.0,
    "--epsilon": lambda r: r["source_config"]["epsilon"] == 0.01,
    "--parts": lambda r: r["source_config"]["parts"] == 2,
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

    @pytest.mark.parametrize("adversary", cli._ADVERSARIES)
    def test_construction_plays_on_defaults(self, adversary, capsys):
        # accept-all plays every setting, so only the defaults can fail here
        assert run_cli("run", "--policy", "accept-all", "--adversary", adversary) == 0
        # soa has no default threshold for AL and needs the release count
        if adversary not in ("al", "fl-an"):
            assert run_cli("run", "--policy", "soa", "--adversary", adversary) == 0

    def test_save_instance_refused_with_instance(self, tmp_path, capsys):
        path, saved = tmp_path / "inst.json", tmp_path / "saved.json"
        write_instance(make_instance(), path)
        code = run_cli(
            "run", "--policy", "soa", "--instance", str(path), "--save-instance", str(saved),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --save-instance is read only by --adversary, not --instance\n"
        )
        assert captured.out == "" and not saved.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--adversary", "al", "--epsilon", "1.5"), "need 0 < epsilon < 1, got 1.5"),
            (("--adversary", "us-un", "--parts", "0"), "need parts >= 1, got 0"),
            (("--adversary", "fl-an", "--k", "3", "--n", "5"),
             "need n >= 2k for the length-m tail, got 5"),
        ],
        ids=["al-epsilon", "us-un-parts", "fl-an-count"],
    )
    def test_construction_argument_refused(self, argv, message, capsys):
        assert run_cli("run", "--policy", "accept-all", *argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_solve_doa_zero_step_exits_2(self, capsys):
        assert run_cli("solve-doa", "--k", "3", "--n", "10", "--step", "0") == 2
        assert capsys.readouterr().err == "error: step must be in (0, 1], got 0.0\n"

    @pytest.mark.parametrize("flag", ["--horizon", "--parts-per-batch"])
    def test_removed_flag_exits_2(self, flag, capsys):
        # the release count is --n for every construction, the parts --parts
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--policy", "accept-all", "--adversary", "us-un", flag, "9")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "adversary, policy",
        [
            (adversary, policy)
            for adversary in ADVERSARY_READS
            for policy in POLICY_READS
            # without the release count there is no soa or doa policy
            if not (adversary == "fl-an" and policy in ("soa", "doa"))
        ],
    )
    def test_record_keys_replay_the_game(self, adversary, policy, tmp_path, capsys):
        # The keys of source_config and policy_config are the run flags that
        # replay the game; quota is read as --k where the construction reads
        # it, and tau is derived.  A policy records the count it plays with.
        k = 2 if adversary == "ul-un-k2" else 3
        chosen = {
            "soa": ["--theta", "0.5"] if adversary == "al" else [],
            "soa-an": ["--theta", "0.5"] if adversary == "al" else [],
            "doa": ["--theta1", "0.3", "--theta2", "0.6"] if adversary == "al" else [],
            "multi-threshold": ["--thresholds", ",".join(["0.9", "0.5", "0.2"][:k])],
        }.get(policy, [])
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        game = ("run", "--policy", policy, "--adversary", adversary)
        assert run_cli(*game, *_flags(ADVERSARY_READS[adversary]), *chosen,
                       "--out", str(first)) == 0
        record = json.loads(first.read_text())
        flags = {}
        for config in (record["source_config"], record["policy_config"]):
            for key, value in config.items():
                if key in ("quota", "tau") or value is None:
                    continue
                if isinstance(value, list):
                    value = ",".join(map(str, value))
                assert flags.setdefault(f"--{key}", str(value)) == str(value), key
        if "k" in cli._ADVERSARIES[adversary][0]:
            flags["--k"] = str(record["source_config"]["quota"])
        assert run_cli(*game, *_flags(flags), "--out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()

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

    def test_infeasible_row_leaves_the_program_cells_empty(self):
        # at step 1 the grid holds no theta1 < theta2, and no single
        # threshold is feasible at k = 2
        rows = run_sweep(3, 2, 2, 1.0)
        assert [r.status for r in rows] == ["infeasible"]
        assert sweep_csv(rows).splitlines()[1] == "2,1.56155281,,1.41421356,,,,infeasible"

    def test_csv_deterministic(self):
        a = sweep_csv(run_sweep(30, 2, 8, 0.05))
        b = sweep_csv(run_sweep(30, 2, 8, 0.05))
        assert a == b


# SHA-256 over the `run --out` files of these games, in this order, recorded
# while the record's JSON keys were still listed by hand.  It pins the key
# order, the JSON shape of every field and each float's repr.  The games
# sum no floats with sum(), so the digest does not depend on the Python
# version.
RECORD_GAMES = [
    ("--policy", "soa", "--adversary", "ul-un-k2", "--n", "10"),
    ("--policy", "doa", "--adversary", "fl-un", "--k", "3", "--n", "10"),
    ("--policy", "accept-all", "--adversary", "al", "--k", "3"),
    ("--policy", "reject-until-forced", "--adversary", "us-un", "--k", "3", "--n", "8"),
    ("--policy", "multi-threshold", "--adversary", "ul-un-general", "--k", "3",
     "--n", "9", "--thresholds", "0.9,0.5,0.4"),
]
RECORD_DIGEST = "0c1d87bcc63ad7c67514775555826cb533f71cbbc2453d6398c8ca3ddfd37ae8"


def test_run_records_golden(tmp_path, capsys):
    digest = hashlib.sha256()
    for i, game in enumerate(RECORD_GAMES):
        out = tmp_path / f"record{i}.json"
        assert run_cli("run", *game, "--out", str(out)) == 0
        digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == RECORD_DIGEST


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


@pytest.mark.parametrize("seed", ["42", "7"])
def test_cli_verify_passes_at_zero_eps(seed):
    # generated unit items [s, s + 1.0] have float lengths an ulp off 1,
    # which EPS = 0 alone would refuse
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "verify", "--trials", "20", "--seed", seed],
        capture_output=True,
        text=True,
        env={**os.environ, "KCOVER_EPS": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    assert " eps=0 " in proc.stdout
    assert proc.stdout.endswith("RESULT pass\n")


def test_cli_verify_passes_at_large_eps():
    # at EPS 0.3 items across gaps up to 0.3 merge; the DP must merge them
    # as the enumeration does
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "verify", "--trials", "50", "--seed", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "KCOVER_EPS": "0.3"},
    )
    assert proc.returncode == 0, proc.stdout
    assert " eps=0.3 " in proc.stdout
    assert proc.stdout.endswith("RESULT pass\n")


def test_cli_fl_construction_runs_at_zero_eps(tmp_path):
    # the fl-un items [tau + (t-1)*m, tau + t*m] miss length m by an ulp
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "-m", "kcover", "run", "--policy", "accept-all",
         "--adversary", "fl-un", "--k", "3", "--n", "10", "--m", "2.3",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "KCOVER_EPS": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert ">=" in capsys.readouterr().out
