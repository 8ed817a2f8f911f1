import hashlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from kcover import (
    Batch,
    Instance,
    Setting,
    SettingError,
    SizeGuardError,
    brute_force_offline,
    build_predecessors,
    solve_offline,
    union_length,
)
from kcover import harness, numeric, offline
from kcover.adversaries import adv_ul_un_general
from kcover.harness import gen_instance, random_nk, run_game
from kcover.intervals import CoverageState, prefix_unions
from kcover.offline import solve_offline_unit
from kcover.policies import ThresholdPolicy

from conftest import al_instance, batch, dp_tables, extend_tables, sorted_items, unit_instance


def quarter_grid_instance(rng, unit, n=None):
    """Items on a quarter grid: many duplicates, touching pairs and equal
    ends, all exact in binary, so every DP tie is a real tie.  Without `n`,
    n and k are drawn for at most 14 items."""
    n, k = random_nk(rng, 14) if n is None else (n, 2)
    pairs = []
    for _ in range(n):
        a = rng.randint(0, 12) / 4
        pairs.append((a, a + (1.0 if unit else rng.randint(1, 6) / 4)))
    return (unit_instance if unit else al_instance)(pairs, k)


class TestSolveOffline:
    def test_three_items_quota_two(self):
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 2)
        value, chosen = solve_offline(inst)
        assert value == pytest.approx(2.0)
        assert set(chosen) in ({0, 2}, {1, 2})

    def test_quota_covers_everything(self):
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 5)
        value, chosen = solve_offline(inst)
        assert value == pytest.approx(union_length(list(inst.items)))

    def test_quota_zero(self):
        inst = al_instance([(0, 1), (2, 3)], 2)
        assert solve_offline(inst, quota=0) == (0.0, ())
        assert brute_force_offline(inst, quota=0) == (0.0, ())

    def test_negative_quota_refused(self):
        inst = al_instance([(0, 1), (2, 3)], 2)
        with pytest.raises(SettingError, match="quota must be >= 0, got -1"):
            solve_offline(inst, -1)

    @pytest.mark.parametrize("solve", [solve_offline, brute_force_offline])
    def test_non_integer_quota_refused(self, solve):
        # bools and floats are refused by name, also as the quota of a
        # library-built instance (check_quota takes 2.0); numpy integers run
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 2)
        cases = [(inst, q) for q in (True, False, np.bool_(True), 2.5, 2.0, "2")]
        cases.append((replace(inst, quota=2.0), None))
        for case, quota in cases:
            with pytest.raises(SettingError) as exc:
                solve(case, quota)
            shown = case.quota if quota is None else quota
            assert str(exc.value) == f"quota must be an integer, got {shown!r}"
        for quota in (np.int64(2), np.uint8(2), np.intp(5)):
            assert solve(inst, quota) == solve(inst, int(quota))

    def test_nested_intervals(self):
        # the inner item must not shadow the outer one
        inst = al_instance([(0.2, 0.4), (0.0, 1.0)], 2)
        value, chosen = solve_offline(inst, quota=2)
        assert value == pytest.approx(1.0)

    def test_chosen_achieves_value(self, rng):
        cases = []
        for _ in range(50):
            n, k = random_nk(rng, 9)
            cases.append((solve_offline, gen_instance(rng, "AL", n, k)))
        for _ in range(50):
            n, k = random_nk(rng, 9)
            cases.append((solve_offline, gen_instance(rng, "UL", n, k)))
        for _ in range(50):
            cases.append((solve_offline, quarter_grid_instance(rng, unit=False)))
            cases.append((solve_offline, quarter_grid_instance(rng, unit=True)))
        for solve, inst in cases:
            value, chosen = solve(inst)
            assert len(chosen) <= inst.quota
            assert union_length([inst.items[i] for i in chosen]) == pytest.approx(
                value, abs=1e-9
            )

    def test_refuses_multi_part_batches(self):
        b1 = Batch((Batch.single(0, 0.5).parts[0], Batch.single(1, 1.5).parts[0]))
        b2 = Batch((Batch.single(2, 2.5).parts[0], Batch.single(3, 3.5).parts[0]))
        inst = Instance(5, 2, Setting("US", "AN"), (b1, b2))
        with pytest.raises(SettingError) as exc:
            solve_offline(inst)
        assert str(exc.value) == (
            "solve_offline takes items whose parts touch; items[0] has 2 runs of "
            "touching parts -- use brute_force_offline for it"
        )


    def test_table_guard(self, monkeypatch):
        # chi and kappa take 2 * 8 * (q+1) * (n+1) bytes; past the guard the
        # DP is refused before it sorts or allocates anything
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 2)
        monkeypatch.setattr(offline, "_sort_instance", None)
        monkeypatch.setattr(offline, "_MAX_TABLE_BYTES", 191)
        with pytest.raises(SizeGuardError) as exc:
            solve_offline(inst)
        assert str(exc.value) == (
            "the DP tables for n=3 and quota 2 take 192 bytes, over the guard of 191"
        )
        monkeypatch.undo()
        monkeypatch.setattr(offline, "_MAX_TABLE_BYTES", 192)
        assert solve_offline(inst) == (2.0, (0, 2))

    def test_table_guard_default(self):
        # n = 20,000 at k = 10,000 would take 3.2 GB, over the 1 GiB guard
        inst = unit_instance([(i * 1e-4, i * 1e-4 + 1.0) for i in range(20_000)], 10_000)
        with pytest.raises(SizeGuardError) as exc:
            solve_offline(inst)
        assert str(exc.value) == (
            "the DP tables for n=20000 and quota 10000 take 3200480016 bytes, over "
            "the guard of 1073741824"
        )


def predecessor_rows_by_definition(starts, ends, eps):
    """psi+1 and phi+1 of every sorted item from their definitions, one
    scan over all earlier items each; 0 where there is none."""
    starts, ends = starts.tolist(), ends.tolist()
    psi1, phi1 = [], []
    for i, o_i in enumerate(starts):
        meets = [j for j in range(i) if ends[j] + eps >= o_i and starts[j] < o_i]
        apart = [j for j in range(i) if ends[j] + eps < o_i]
        psi1.append(1 + min(meets, key=lambda j: (starts[j], j), default=-1))
        phi1.append(1 + min(apart, key=lambda j: (-ends[j], j), default=-1))
    return psi1, phi1


class TestPredecessors:
    def test_reference_configuration(self):
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 2)
        psi1, phi1 = build_predecessors(*sorted_items(inst)[1:])
        assert psi1.dtype == phi1.dtype == np.intp
        assert psi1.tolist() == [0, 1, 0]
        assert phi1.tolist() == [0, 0, 2]

    def test_matches_definitions_by_brute_force(self, monkeypatch, rng):
        # Quarter-grid items repeat starts and ends, so both tie rules
        # (smallest index) decide many of these predecessors.  Items meet
        # when they touch within EPS, as union_length merges them: at EPS
        # 0.25 and 0.3 a quarter-unit gap meets, at the default it does not.
        # Both paths run on every input; the larger inputs sit on both sides
        # of the size where build_predecessors switches to numpy, and their
        # ranges of intersecting predecessors need up to eight sparse-table
        # levels.
        cases = [quarter_grid_instance(rng, unit=rng.random() < 0.5) for _ in range(300)]
        cases += [quarter_grid_instance(rng, unit=rng.random() < 0.5, n=n)
                  for n in (3, 79, 80, 81, 255, 256, 400)]
        cases.append(disjoint_instance(rng, 300))
        # every item holds [2, 3]: each one meets all earlier items
        cases.append(al_instance([(rng.randint(0, 8) / 4, rng.randint(12, 20) / 4)
                                  for _ in range(300)], 2))
        assert {offline._NUMPY_PREDECESSORS - 1, offline._NUMPY_PREDECESSORS} <= {
            inst.n for inst in cases}
        for eps in (numeric.EPS, 0.25, 0.3):
            monkeypatch.setattr(numeric, "EPS", eps)
            for _, starts, ends in map(sorted_items, cases):
                want = predecessor_rows_by_definition(starts, ends, eps)
                for got in (offline._scan_predecessors(starts.tolist(), ends.tolist()),
                            offline._numpy_predecessors(starts, ends),
                            build_predecessors(starts, ends)):
                    assert [rows.dtype for rows in got] == [np.intp, np.intp]
                    assert [rows.tolist() for rows in got] == list(want)

    def test_deep_overlap_beats_near_end(self):
        # ends 8.2, 8.5, 8.9, 9.2, 9.6, 10 -> the deeper-overlapping
        # predecessor (9.2, row 4) is picked over 9.6, and the nearest
        # disjoint one is 8.9 (row 3).
        ends = [8.2, 8.5, 8.9, 9.2, 9.6, 10.0]
        inst = unit_instance([(e - 1, e) for e in ends], 3, count="AN", target=10)
        psi1, phi1 = build_predecessors(*sorted_items(inst)[1:])
        assert psi1[5] == 4
        assert phi1[5] == 3


class TestUnitSolver:
    """``solve_offline_unit`` returns :func:`solve_offline`; the benchmark
    still calls it by name."""

    def test_disjoint_chain(self):
        inst = unit_instance([(i, i + 1) for i in range(6)], 3, count="AN")
        value, chosen = solve_offline_unit(inst)
        assert value == pytest.approx(3.0)
        assert len(chosen) == 3

    def test_all_duplicates(self):
        inst = unit_instance([(0, 1)] * 4, 2, count="AN")
        value, _ = solve_offline_unit(inst)
        assert value == pytest.approx(1.0)

    def test_matches_general_dp(self, rng):
        for _ in range(200):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            assert solve_offline_unit(inst) == solve_offline(inst)


class TestBruteForce:
    def test_single_item(self):
        inst = al_instance([(0, 1)], 2)
        assert brute_force_offline(inst, quota=1)[0] == pytest.approx(1.0)

    def test_four_items(self):
        inst = al_instance([(0, 1), (0, 1), (1, 2), (3, 4)], 2)
        assert brute_force_offline(inst)[0] == pytest.approx(2.0)

    def test_unit_sum_batches(self):
        b1 = Batch((Batch.single(0, 0.5).parts[0], Batch.single(2, 2.5).parts[0]))
        b2 = Batch((Batch.single(0.25, 0.75).parts[0], Batch.single(3, 3.5).parts[0]))
        inst = Instance(5, 2, Setting("US", "AN"), (b1, b2))
        assert brute_force_offline(inst, quota=1)[0] == pytest.approx(1.0)

    def test_size_guard(self, monkeypatch):
        inst = unit_instance([(i * 0.1, i * 0.1 + 1) for i in range(25)], 3, count="AN")
        with pytest.raises(SizeGuardError) as exc:
            brute_force_offline(inst)
        assert str(exc.value) == "n=25 exceeds the enumeration guard max_n=20"
        monkeypatch.setattr(offline, "_MAX_N", 30)
        brute_force_offline(inst, quota=1)


def reference_brute_force(inst, quota):
    """The enumeration as a plain loop: ``union_length`` of every subset in
    ``itertools.combinations`` order, the first maximum kept."""
    r = min(quota, inst.n)
    if r == 0:
        return 0.0, ()
    best_val, best_set = -1.0, ()
    for combo in itertools.combinations(range(inst.n), r):
        val = union_length([inst.items[i] for i in combo])
        if val > best_val:
            best_val, best_set = val, combo
    return best_val, best_set


def assert_matches_reference(inst, quota):
    got, want = brute_force_offline(inst, quota), reference_brute_force(inst, quota)
    assert got == want, (inst, quota)
    assert type(got[0]) is type(want[0])
    return got


def random_instances(rng, count=12, max_n=9):
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None), ("US", None)]:
        for _ in range(count):
            n, k = random_nk(rng, max_n)
            yield gen_instance(rng, length, n, k, m, count_setting="AN")


def touching_instances(rng, count=12):
    """Half-unit pieces whose gaps sit on either side of the default EPS,
    as AL items and as US batches of two pieces each."""
    gaps = [0.0, 0.5e-9, 1e-9, 1.5e-9, 3e-9, 0.25]
    for _ in range(count):
        pieces, cursor = [], 0.0
        for _ in range(2 * rng.randint(2, 5)):
            start = cursor + rng.choice(gaps)
            cursor = start + 0.5
            pieces.append((start, cursor))
        rng.shuffle(pieces)
        yield al_instance(pieces, 2)
        items = tuple(batch(*sorted(pieces[i:i + 2])) for i in range(0, len(pieces), 2))
        yield Instance(cursor, 2, Setting("US", "AN"), items)


def tie_instances(rng, count=12):
    """Nested and duplicated items on a quarter grid: exact ties everywhere."""
    yield al_instance([(0, 4), (1, 2), (1, 2), (0.5, 3), (0, 4), (3, 4)], 2)
    yield al_instance([(0, 1)] * 8, 2)
    for _ in range(count):
        yield quarter_grid_instance(rng, unit=rng.random() < 0.5)


def all_cases(rng):
    yield from random_instances(rng)
    yield from touching_instances(rng)
    yield from tie_instances(rng)


@pytest.mark.parametrize("eps", [None, 0.0, 0.5])
def test_enumeration_matches_reference_loop(monkeypatch, rng, eps):
    cases = list(all_cases(rng))  # built under the default EPS
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    for inst in cases:
        for quota in range(1, inst.n + 3):
            assert_matches_reference(inst, quota)


def test_verify_oracle_us_row_catches_a_wrong_enumeration(monkeypatch):
    # An enumeration that returns the worst subset on multi-part instances,
    # with the value of its own picks, must fail the US row: the reference
    # is an independent loop, not the union of the enumeration's picks.
    right = harness.brute_force_offline

    def worst_subset(inst):
        if all(len(b.parts) == 1 for b in inst.items):
            return right(inst)
        return min(
            (union_length([inst.items[i] for i in combo]), combo)
            for combo in itertools.combinations(range(inst.n), min(inst.quota, inst.n))
        )

    monkeypatch.setattr(harness, "brute_force_offline", worst_subset)
    report, passed, dumps = harness.run_verify(trials=20, seed=3, suites=("oracle",))
    assert not passed
    assert "FAIL oracle-equivalence US: trials=20 max|gap|=2.65\n" in report
    assert report.count("FAIL") == 1
    ((label, payload),) = dumps
    assert label == "oracle-equivalence US"
    assert list(payload) == ["instance", "reference", "brute"]
    assert payload["reference"] > payload["brute"]


def test_enumeration_block_boundaries(monkeypatch, rng):
    # a cap of 7 rows puts maxima and exact ties on both sides of a block edge
    cases = [(inst, q) for inst in all_cases(rng) for q in range(1, inst.n + 3)]
    # a maximum first reached late in the enumeration, and all subsets tied
    cases.append((al_instance([(0, 1)] * 7 + [(2, 3), (4, 5)], 3), 3))
    cases.append((al_instance([(0, 1)] * 10, 4), 4))
    default = [brute_force_offline(inst, q) for inst, q in cases]
    monkeypatch.setattr(offline, "_BLOCK_ROWS", 7)
    for (inst, q), want in zip(cases, default):
        assert assert_matches_reference(inst, q) == want
    assert default[-2] == (3.0, (0, 7, 8))
    assert default[-1] == (1.0, (0, 1, 2, 3))


def test_enumeration_many_blocks(rng):
    # C(16, 8) = 12,870 subsets: several blocks at the default cap
    for length in ("AL", "US"):
        inst = gen_instance(rng, length, 16, 8, count_setting="AN")
        assert_matches_reference(inst, 8)


@pytest.mark.parametrize("eps", [None, 0.05])
def test_enumeration_scores_parts_as_given(monkeypatch, rng, eps):
    # The enumeration scores every item's parts as given, as union_length
    # does, and reads no runs of touching parts (Batch.runs is patched
    # out).  Gaps between an item's thirds: touching exactly, within EPS,
    # at EPS, just past it and well past it.
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    e = numeric.EPS
    gaps = [0.0, e / 2, e, 1.001 * e, 3 * e]
    cases = []
    for _ in range(30):
        items = []
        for _ in range(rng.randint(3, 8)):
            between = (rng.choice(gaps), rng.choice(gaps))
            cursor, pieces = rng.uniform(0.0, 4.0), []
            for gap in (0.0, *between):
                start = cursor + gap
                cursor = start + 1 / 3
                pieces.append((start, cursor))
            items.append(batch(*pieces))
        target = max(b.parts[-1].end for b in items)
        cases.append(Instance(target, 2, Setting("US", "AN"), tuple(items)))
    want = [[assert_matches_reference(inst, q) for q in range(1, inst.n + 1)]
            for inst in cases]
    monkeypatch.setattr(Batch, "runs", None)
    got = [[brute_force_offline(inst, q) for q in range(1, inst.n + 1)] for inst in cases]
    assert got == want


def test_combination_blocks_are_bounded():
    for n, r in [(5, 2), (12, 6), (16, 8), (20, 1)]:
        masks = list(offline._mask_blocks(n, r, offline._BLOCK_ROWS))
        assert all(m.shape[0] == n and m.shape[1] <= offline._BLOCK_ROWS for m in masks)
        rows = [tuple(map(int, c.nonzero()[0])) for m in masks for c in m.T]
        assert rows == list(itertools.combinations(range(n), r))


def test_oracle_equivalence_sample(rng):
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(150):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, length, n, k, m)
            dp, _ = solve_offline(inst)
            bf, _ = brute_force_offline(inst)
            assert dp == pytest.approx(bf, abs=1e-9)


def test_dp_merges_a_gap_within_eps(monkeypatch):
    # [0, 1] and [1.2, 2.2] are one component at EPS 0.3, so their union is
    # 2.2; the DP used to split predecessors at the exact touch and score
    # these picks as 2.0
    monkeypatch.setattr(numeric, "EPS", 0.3)
    inst = al_instance([(0, 1), (1.2, 2.2), (0.5, 0.6)], 2)
    assert solve_offline(inst) == brute_force_offline(inst) == (2.2, (0, 1))
    assert union_length([inst.items[0], inst.items[1]]) == 2.2


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_dp_matches_enumeration_at_large_eps(monkeypatch, rng, eps):
    # items meet across gaps up to EPS; the quarter grid puts gaps of 0.25
    # on both sides of the two tolerances
    monkeypatch.setattr(numeric, "EPS", eps)
    cases = [quarter_grid_instance(rng, unit=unit) for unit in (False, True) * 40]
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(80):
            n, k = random_nk(rng, 10)
            cases.append(gen_instance(rng, length, n, k, m))
    for inst in cases:
        for quota in (inst.quota, rng.randint(1, inst.n)):
            value, picks = solve_offline(inst, quota)
            assert value == pytest.approx(brute_force_offline(inst, quota)[0], abs=1e-9)
            assert union_length([inst.items[i] for i in picks]) == pytest.approx(
                value, abs=1e-9
            )


def one_run_us_instance(rng, gaps, n=None):
    """A unit-sum instance of `n` items, or of at most 12 without it, each
    cut into 1-3 stick-broken pieces whose gaps are drawn from `gaps`."""
    n, k = random_nk(rng, 12) if n is None else (n, 2)
    items = []
    for _ in range(n):
        weights = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(1, 3))]
        cursor, pieces = rng.uniform(0.0, 10.0), []
        for w in weights:
            start = cursor + (rng.choice(gaps) if pieces else 0.0)
            cursor = start + w / sum(weights)
            pieces.append((start, cursor))
        items.append(batch(*pieces))
    return Instance(12.0, k, Setting("US", "UN"), tuple(items))


@pytest.mark.parametrize("eps", [None, 0.3])
def test_dp_takes_one_run_unit_sum_items(monkeypatch, rng, eps):
    # pieces that touch within EPS form one run, the one interval they
    # cover: the DP scores each such item as its run and must agree with
    # the enumeration, its picks must cover its value, and an item of two
    # runs is refused by its index
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    e = numeric.EPS
    for _ in range(200):
        inst = one_run_us_instance(rng, [0.0, e / 2, e])
        assert offline.one_run_items(inst)
        for quota in (inst.quota, rng.randint(1, inst.n)):
            value, picks = solve_offline(inst, quota)
            assert value == pytest.approx(brute_force_offline(inst, quota)[0], abs=1e-9)
            assert union_length([inst.items[i] for i in picks]) == pytest.approx(
                value, abs=1e-9
            )
    split = batch((0.0, 0.5), (0.6 + 2 * e, 1.1 + 2 * e))
    inst = replace(inst, items=inst.items + (split,))
    assert not offline.one_run_items(inst)
    with pytest.raises(SettingError) as exc:
        solve_offline(inst)
    assert str(exc.value) == (
        f"solve_offline takes items whose parts touch; items[{inst.n - 1}] has 2 "
        "runs of touching parts -- use brute_force_offline for it"
    )


def test_one_part_items_are_read_from_the_part_arrays(monkeypatch, rng):
    # instances whose items each have one part, unit-sum ones too, are
    # taken and sorted from their part arrays: no item's runs are computed
    us = Instance(4.0, 2, Setting("US", "AN"), (Batch.single(0, 1), Batch.single(2.5, 3.5),
                                               Batch.single(0.5, 1.5)))
    cases = [gen_instance(rng, length, 40, 5, m) for length, m in (("UL", None), ("FL", 2.0))]
    expected = [solve_offline(inst) for inst in cases + [us]]
    monkeypatch.setattr(Batch, "runs", None)
    for inst, want in zip(cases + [us], expected):
        assert offline.one_run_items(inst)
        assert solve_offline(inst) == want
    assert expected[-1] == (2.0, (0, 1))


def milp_offline(inst, quota):
    """The offline optimum as a mixed-integer program, sharing no code with
    the DP: a binary x_i per item, and per elementary segment e between
    consecutive distinct endpoints a y_e <= the sum of x_i over the items
    covering e; at most `quota` items; maximise the sum of len_e * y_e.
    Returns the picked indices.  Touching within EPS is not modelled: the
    model scores a subset as ``union_length`` does only where no gap
    between items is within EPS, as on random items at the default EPS."""
    pytest.importorskip("scipy", minversion="1.9")  # the first with milp
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = inst.n
    starts = np.array([b.parts[0].start for b in inst.items])
    ends = np.array([b.parts[0].end for b in inst.items])
    points = np.unique(np.concatenate([starts, ends]))
    lo, hi = points[:-1], points[1:]
    covers = (starts[None, :] <= lo[:, None]) & (hi[:, None] <= ends[None, :])
    segments = len(lo)
    # variables: x_0..x_{n-1}, then y_0..y_{segments-1}
    rows = np.hstack([-covers.astype(float), np.eye(segments)])
    quota_row = np.concatenate([np.ones(n), np.zeros(segments)])
    result = milp(
        c=np.concatenate([np.zeros(n), -(hi - lo)]),
        constraints=[
            LinearConstraint(rows, -np.inf, 0.0),
            LinearConstraint(quota_row[None, :], 0.0, quota),
        ],
        integrality=np.concatenate([np.ones(n), np.zeros(segments)]),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},  # prove optimality: HiGHS stops at 1e-4
    )
    assert result.success, result.message
    return tuple(np.flatnonzero(result.x[:n] > 0.5).tolist())


def spread_instance(rng, length, n, k):
    """n UL, FL (m = 2) or AL items with uniform starts over a span of 0.6
    to 1.2 times what k items of mean length cover end to end, so that k
    items cover it in some instances and fall short in others."""
    lo, hi = {"UL": (1.0, 1.0), "FL": (1.0, 2.0), "AL": (0.05, 5.0)}[length]
    span = max(hi, rng.uniform(0.6, 1.2) * k * (lo + hi) / 2)
    pairs = []
    for _ in range(n):
        size = rng.uniform(lo, hi)
        s = rng.uniform(0.0, span - size)
        pairs.append((s, s + size))
    items = tuple(Batch.single(a, b) for a, b in pairs)
    setting = Setting(length, "AN", 2.0 if length == "FL" else None)
    return Instance(span, k, setting, items)


def test_dp_matches_milp_reference():
    # The enumeration stops at n = 20; an independent MILP checks the DP at
    # n = 100..300 and k up to 40.  Its picks are scored by union_length,
    # not by the solver's objective, which carries the solver's tolerances.
    rng = random.Random(20261024)
    for length in ("UL", "FL", "AL"):
        for _ in range(4):
            n, k = rng.randint(100, 300), rng.randint(2, 40)
            inst = spread_instance(rng, length, n, k)
            value, picks = solve_offline(inst)
            milp_picks = milp_offline(inst, k)
            assert len(picks) <= k and len(milp_picks) <= k
            assert union_length([inst.items[i] for i in picks]) == pytest.approx(value, abs=1e-9)
            assert union_length([inst.items[i] for i in milp_picks]) == pytest.approx(
                value, abs=1e-9
            ), (length, n, k)


def test_value_table_monotonicity(rng):
    for _ in range(60):
        n, k = random_nk(rng, 9)
        inst = gen_instance(rng, "AL", n, k)
        chi, kappa = dp_tables(inst)
        for i in range(n + 1):
            for j in range(k + 1):
                if j + 1 <= k:
                    assert chi[i][j] <= chi[i][j + 1] + 1e-12
                if i >= 1:
                    assert chi[i - 1][j] <= chi[i][j] + 1e-12
                assert kappa[i][j] <= chi[i][j] + 1e-9


def test_dp_cell_budget(rng):
    # the memo stays at O(k*n): two tables of (n+1) x (k+1) cells
    for _ in range(20):
        n, k = random_nk(rng, 10)
        inst = gen_instance(rng, "AL", n, k)
        chi, kappa = dp_tables(inst)
        assert chi.shape == kappa.shape == (n + 1, k + 1)


def test_quota_override_beyond_n():
    inst = al_instance([(0, 1), (2, 3)], 2)
    value, chosen = solve_offline(inst, quota=10)
    assert value == pytest.approx(2.0)


def reference_prefix_unions(inst, order):
    """Union length of the first i sorted items as one ``place`` and
    ``apply`` per item: the loop that ``prefix_unions`` replaced in the DP."""
    pref = [0]
    state = CoverageState.empty()
    for t in order:
        state.apply(state.place(inst.items[t])[1])
        pref.append(state.total_len)
    return pref


def singleton_cases(rng):
    """Random UL/FL/AL instances, chains touching within EPS, and nested,
    duplicated and equal-end items."""
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(12):
            n = rng.randint(1, 40)
            yield gen_instance(rng, length, n, 2, m, count_setting="AN")
    for inst in itertools.chain(touching_instances(rng), tie_instances(rng)):
        if inst.setting.length != "US":
            yield inst


def disjoint_instance(rng, n):
    """n pairwise-disjoint items in shuffled order; some gaps equal 1e-3 or
    0.5 exactly, so a patched EPS merges pieces on both sides of its edge."""
    pairs, cursor = [], 0.0
    for _ in range(n):
        start = cursor + rng.choice([5e-4, 1e-3, 2e-3, 0.25, 0.5, 0.75])
        cursor = start + rng.uniform(0.05, 2.0)
        pairs.append((start, cursor))
    rng.shuffle(pairs)
    return al_instance(pairs, 2)


@pytest.mark.parametrize("eps", [None, 0.0, 1e-3, 0.5])
def test_prefix_unions_match_absorb_loop(monkeypatch, rng, eps):
    cases = list(singleton_cases(rng)) + [disjoint_instance(rng, 4000)]
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    for inst in cases:
        order, starts, ends = sorted_items(inst)
        got = prefix_unions(zip(ends.tolist(), starts.tolist()))
        want = reference_prefix_unions(inst, order)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


def with_quota(inst, quota):
    """The instance at another quota; AN, so the quota may pass n."""
    return replace(inst, quota=quota, setting=replace(inst.setting, count="AN"))


def test_dp_diagonal_is_union_of_sorted_prefix(rng):
    # chi[i][i] accepts all of the first i sorted items, so it is the union
    # length of that prefix; the prefix unions themselves are checked
    # against the coverage state in test_prefix_unions_match_absorb_loop
    for inst in singleton_cases(rng):
        order = sorted_items(inst)[0]
        chi, _ = dp_tables(with_quota(inst, max(2, inst.n)))
        for i in range(inst.n + 1):
            assert chi[i][i] == union_length([inst.items[t] for t in order[:i]])


def test_quota_past_n_fills_n_columns(rng):
    # Columns past n repeat column n.  Filling all `quota` columns made a
    # quota of 10**12 ask numpy for terabytes.
    for inst in singleton_cases(rng):
        n = inst.n
        want = solve_offline(inst, n)
        for q in (n + 1, n + 3, 3 * n, 10**12):
            got = solve_offline(inst, q)
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
        chi, _ = dp_tables(with_quota(inst, 3 * n + 2))
        assert chi[n][n:].tobytes() == np.full(2 * n + 3, chi[n][n]).tobytes()
        assert chi[n][n] == solve_offline(inst, n)[0]


def test_optimum_is_concave_in_the_quota(rng):
    """OPT(c) = ``solve_offline(inst, c)[0]`` is concave in c = 0..n on
    one-run instances: no second difference exceeds 8 ulps of OPT(n).  This
    needs no oracle.

    Why, for the exact union (EPS = 0; the random gaps here never fall
    within the default EPS):

    * Drop every item nested in another (and all but one copy of equal
      items).  Swapping a picked nested item for an unpicked item holding
      it, or dropping it, loses nothing, so OPT(c) is unchanged for c up to
      the m items left, and equals the union of all items from c = m on.
    * The items left, sorted by end, are sorted by start too.  In a picked
      chain i_1 < ... < i_c, the earlier picks meet item i_t only inside
      item i_(t-1), so the union is the sum over t of the link weights
      ``w(i_(t-1), i_t) = len(i_t) - max(0, e(i_(t-1)) - s(i_t))``, from a
      source whose end is -inf; a link of weight 0 from every item to a sink
      closes the chain.
    * For a < b < c < d the weights are Monge for a maximum:
      ``w(a, c) + w(b, d) >= w(a, d) + w(b, c)``.  The lengths cancel, and
      max(0, x) is convex while ``e(a) - s(d) <= e(a) - s(c), e(b) - s(d)
      <= e(b) - s(c)`` with equal sums.  At the sink it reads
      ``max(0, e(a) - s(c)) <= max(0, e(b) - s(c))``, as e(a) <= e(b).
    * So OPT(c), the best path of c + 1 links from source to sink, is
      concave in c (Aggarwal, Schieber and Tokuyama, "Finding a
      minimum-weight k-link path in graphs with the concave Monge property
      and applications", Discrete Comput. Geom. 12, 1994), and stays
      concave past m, where it is flat.

    Items of several runs are not covered.
    """
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(100):
            n = rng.randint(3, 60)
            inst = gen_instance(rng, length, n, 2, m, count_setting="AN")
            opt = np.array([solve_offline(inst, c)[0] for c in range(n + 1)])
            second = opt[2:] - 2 * opt[1:-1] + opt[:-2]
            assert second.max() <= 8 * np.spacing(opt[-1]), (inst, second.max())


def test_tables_end_at_their_fixed_point():
    # On the unit chain the tables stop changing after a few of the k = 75
    # columns; the fill ends there and the solver reads its last column in
    # place of every later one.
    k, n = 75, 750
    _, inst = run_game(ThresholdPolicy(k, n), adv_ul_un_general(k, n))
    chi, kappa, *_ = offline._dp_tables(*sorted_items(inst)[1:], k)
    assert chi.shape == kappa.shape == (n + 1, 4)
    # Every item holds the point 4, and the first 6 items are the first 6
    # in end order, whose union [0, 6] no 6 items exceed: the DP and the
    # enumeration both pick them.
    pairs = [(0, 4), (1, 5), (3.5, 6), (0.5, 6)] + [(3.5, 6)] * 4 + [(3.75, 6), (4, 6)]
    inst = al_instance(pairs, 6)
    chi, kappa, *_ = offline._dp_tables(*sorted_items(inst)[1:], 6)
    assert chi.shape == kappa.shape == (11, 4)
    assert solve_offline(inst) == brute_force_offline(inst) == (6.0, (0, 1, 2, 3, 4, 5))


def assert_extends_to_full_fill(monkeypatch, inst, quota):
    """The stopped tables, extended as the solver reads them, and its
    solution equal those of a fill that never stops; returns the columns
    the stopped tables hold."""
    runs = []
    for stop in (True, False):
        with monkeypatch.context() as m:
            if not stop:  # no column is certified, so all are filled
                m.setattr(offline, "_fixed_point", lambda *args: False)
            chi, kappa, *_, pref = offline._dp_tables(*sorted_items(inst)[1:], quota)
            value, picks = solve_offline(inst, quota)
        runs.append((chi, kappa, pref, (value.hex(), picks)))
    (chi, kappa, pref, got), (full_chi, full_kappa, _, want) = runs
    extended = extend_tables(chi, kappa, pref, full_chi.shape[1] - 1)
    for table, full in zip(extended, (full_chi, full_kappa)):
        assert table.tobytes() == np.ascontiguousarray(full).tobytes()
    assert got == want
    return chi.shape[1]


@pytest.mark.parametrize("length, m", [("UL", None), ("FL", 2.0), ("AL", None)])
def test_fixed_point_at_bench_size(monkeypatch, length, m):
    # n = 2000, k = 100, as the benchmark's replays, whose cost rests on the
    # columns the tables hold: a certificate that refuses more fills more.
    # On AL the tables stop changing at column 5, while some of chi's rows
    # past it differ from the prefix unions by an ulp: they end there only
    # because every later column is certified with its rows pinned to the
    # prefix unions.
    inst = gen_instance(random.Random(1), length, 2000, 100, m)
    held = assert_extends_to_full_fill(monkeypatch, inst, inst.quota)
    assert held <= {"UL": 10, "FL": 19, "AL": 6}[length]


def with_shared_ends(rng, inst):
    """`inst` with about 40% of its items replaced by a copy of an earlier
    item or, outside US, by a piece of one that ends where it ends: prefix
    unions that some items leave unchanged, summed in other orders."""
    items = list(inst.items)
    for t in range(1, len(items)):
        if rng.random() < 0.4:
            item = items[rng.randrange(t)]
            if inst.setting.length != "US" and rng.random() < 0.5:
                part = item.parts[0]
                item = Batch.single(rng.uniform(part.start, part.end), part.end)
            items[t] = item
    length = "US" if inst.setting.length == "US" else "AL"
    return Instance(inst.target_len, inst.quota, Setting(length, "AN"), tuple(items))


@pytest.mark.parametrize("eps", [0.0, None, 0.3])
def test_fixed_point_is_exact(monkeypatch, eps):
    # Stopped tables, extended with their pinned rows, equal a fill that
    # never stops, and so do the solutions, on one-run instances of every
    # setting with quotas past n, as drawn and with shared ends.  Some
    # columns equal the column before them in both tables but are refused,
    # as reading a pinned row would change a later column, so conditions
    # (A) and (B) are exercised.
    rng = random.Random(20261101)
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    refused = 0

    def counted(*args):
        nonlocal refused
        certified = fixed_point(*args)
        refused += not certified
        return certified

    fixed_point = offline._fixed_point
    monkeypatch.setattr(offline, "_fixed_point", counted)
    e = numeric.EPS
    for _ in range(10):
        for length in ("UL", "FL", "AL", "US"):
            n = rng.randint(30, 400)
            if length == "US":
                inst = one_run_us_instance(rng, [0.0, e / 2, e], n)
            else:
                inst = spread_instance(rng, length, n, rng.randint(2, 40))
            for case in (inst, with_shared_ends(rng, inst)):
                assert_extends_to_full_fill(monkeypatch, case, rng.randint(2, n + 3))
    assert refused > 0


@pytest.mark.parametrize("eps", [0.0, None, 0.3])
def test_backtrack_reads_pinned_rows(monkeypatch, eps):
    # Past the tables' last column the backtrack must read chi's rows up to
    # the column as the prefix unions, to pick what a fill that never stops
    # picks.
    #
    # Tenths are inexact in binary, so the DP's sums and the prefix unions
    # round apart.  The tables end at column 4; at quota 9 the bisection
    # must read chi[9][9] as the prefix union of the first 9 items, not as
    # row 9 of the last column.
    #
    # The second instance's items run from a * 2**50 + b to c * 2**50 + d.
    # Floats from 2**53 to 2**55 are 2 or 4 apart, so the DP's sums round
    # at the units.  The tables end at column 5, where chi[6] is 2**54 but
    # the prefix union of the first 6 sorted items is 2**54 - 2.  At quota
    # 7 the backtrack accepts the last sorted item in column 7, whose
    # disjoint predecessor row is 6: read as the stored 2**54, its disjoint
    # sum ties the intersecting one at 1.125 * 2**54 + 4 and the tie keeps
    # it; read as the pinned prefix union, it loses by 4.
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    tenths = [(3, 5), (3, 8), (5, 7), (1, 4), (3, 9), (6, 9), (2, 6), (7, 13), (7, 13), (4, 5)]
    unit = 2.0 ** 50
    coords = [(14, 4, 18, 8), (3, 5, 8, 8), (9, 2, 16, 4), (0, 6, 5, 13),
              (3, 5, 5, 7), (3, 5, 11, 8), (16, 8, 18, 12), (8, 0, 15, 4)]
    cases = [
        (al_instance([(a * 0.1, b * 0.1) for a, b in tenths], 9), 5),
        (al_instance([(a * unit + b, c * unit + d) for a, b, c, d in coords], 8), 6),
    ]
    for inst, held in cases:
        for quota in range(1, inst.n + 4):
            assert assert_extends_to_full_fill(monkeypatch, inst, quota) <= held


# SHA-256 over repr(value) and the picks of the exact DP on the inputs of
# test_golden_outputs, recorded before the DP dropped its parent tables, and
# re-recorded on that code with the entries of the deleted unit-length DP
# left out.  No input is built with sum(), which is compensated from Python
# 3.12 on, so the digest does not depend on the Python version.
GOLDEN_DIGEST = "77c1cf9670627c2e6e0cc464758e210a04466b29073600ab736f36368fae831b"


def test_golden_outputs():
    rng = random.Random(20261018)
    instances = []
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(60):
            n = rng.randint(3, 40)
            instances.append(gen_instance(rng, length, n, rng.randint(2, n - 1), m))
    for _ in range(60):
        instances.append(quarter_grid_instance(rng, unit=False))
        instances.append(quarter_grid_instance(rng, unit=True))
    digest = hashlib.sha256()
    for inst in instances:
        for quota in (inst.quota, rng.randint(1, inst.n + 1)):
            value, picks = solve_offline(inst, quota)
            digest.update(f"{value!r} {picks}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


# SHA-256 over float.hex of every chi and kappa cell of the DP and over
# the values and picks of the DP (and of the enumeration at n <= 7),
# recorded while the tables were still filled one cell at a time, and
# re-recorded on that code with the entries of the deleted unit-length DP
# left out.  Quotas run past n on purpose.
TABLE_DIGEST = "326389544e1d1c02e34a2b31fae000f83bc8ab0ce22195e67e842b746519259c"


def test_golden_tables():
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for n, k in [(1, 9), (2, 2), (7, 40), (30, rng.randint(2, 40)),
                     (120, rng.randint(2, 40)), (300, 40)]:
            inst = gen_instance(rng, length, n, k, m, count_setting="AN")
            for table in dp_tables(inst):
                assert len(table) == n + 1
                for row in table:
                    assert len(row) == k + 1
                    digest.update(" ".join(float(v).hex() for v in row).encode() + b"\n")
            solvers = [solve_offline]
            if n <= 7:
                solvers.append(brute_force_offline)
            for solve in solvers:
                for quota in (k, rng.randint(1, n + 3)):
                    value, picks = solve(inst, quota)
                    assert type(value) is float
                    digest.update(f"{value.hex()} {picks}\n".encode())
    assert digest.hexdigest() == TABLE_DIGEST
