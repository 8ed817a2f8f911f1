import hashlib
import math
import random

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
    solve_offline_unit,
    union_length,
)
from kcover.harness import gen_instance, random_nk
from kcover.offline import dp_context, sort_instance

from conftest import al_instance, unit_instance


def quarter_grid_instance(rng, unit):
    """Items on a quarter grid: many duplicates, touching pairs and equal
    ends, all exact in binary, so every DP tie is a real tie."""
    n, k = random_nk(rng, 14)
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
            inst = gen_instance(rng, "UL", n, k)
            cases += [(solve_offline, inst), (solve_offline_unit, inst)]
        for _ in range(50):
            cases.append((solve_offline, quarter_grid_instance(rng, unit=False)))
            inst = quarter_grid_instance(rng, unit=True)
            cases += [(solve_offline, inst), (solve_offline_unit, inst)]
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
        for solve, name in [
            (solve_offline, "solve_offline"),
            (solve_offline_unit, "solve_offline_unit"),
            (sort_instance, "sort_instance"),
            (dp_context, "sort_instance"),
        ]:
            with pytest.raises(SettingError) as exc:
                solve(inst)
            assert str(exc.value) == (
                f"{name} works on plain sub-intervals; items[0] is a multi-part "
                "batch -- use brute_force_offline for unit-sum input"
            )


class TestPredecessors:
    def test_reference_configuration(self):
        inst = al_instance([(0, 1), (0.5, 1.5), (2, 3)], 2)
        s = sort_instance(inst)
        psi, phi = build_predecessors(s)
        assert psi[2] is None and phi[2] == 1
        assert psi[1] == 0 and phi[1] is None
        assert psi[0] is None and phi[0] is None

    def test_matches_definitions_by_brute_force(self, rng):
        # Quarter-grid items repeat starts and ends, so both tie rules
        # (smallest index) decide many of these predecessors.
        for _ in range(300):
            s = sort_instance(quarter_grid_instance(rng, unit=rng.random() < 0.5))
            psi, phi = build_predecessors(s)
            for i, o_i in enumerate(s.starts):
                meets = [j for j in range(i) if s.ends[j] >= o_i and s.starts[j] < o_i]
                apart = [j for j in range(i) if s.ends[j] < o_i]
                assert psi[i] == min(meets, key=lambda j: (s.starts[j], j), default=None)
                assert phi[i] == min(apart, key=lambda j: (-s.ends[j], j), default=None)

    def test_deep_overlap_beats_near_end(self):
        # lam-analog in the unit DP: ends 8.2, 8.5, 8.9, 9.2, 9.6, 10 -> the
        # deeper-overlapping predecessor (9.2) is picked over 9.6, and the
        # nearest disjoint one is 8.9.
        from kcover.offline import _unit_predecessors

        ends = [8.2, 8.5, 8.9, 9.2, 9.6, 10.0]
        inst = unit_instance([(e - 1, e) for e in ends], 3, count="AN", target=10)
        lam, mu = _unit_predecessors(sort_instance(inst))
        assert lam[5] == 3
        assert mu[5] == 2


class TestUnitSolver:
    def test_disjoint_chain(self):
        inst = unit_instance([(i, i + 1) for i in range(6)], 3, count="AN")
        value, chosen = solve_offline_unit(inst)
        assert value == pytest.approx(3.0)
        assert len(chosen) == 3

    def test_all_duplicates(self):
        inst = unit_instance([(0, 1)] * 4, 2, count="AN")
        value, _ = solve_offline_unit(inst)
        assert value == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        inst = al_instance([(0, 1), (0, 2.5)], 2)
        with pytest.raises(SettingError) as exc:
            solve_offline_unit(inst)
        assert str(exc.value) == (
            "solve_offline_unit needs unit-length items; items[1] has length 2.5"
        )

    def test_matches_general_dp(self, rng):
        for _ in range(200):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            assert solve_offline_unit(inst)[0] == pytest.approx(
                solve_offline(inst)[0], abs=1e-9
            )


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

    def test_size_guard(self):
        inst = unit_instance([(i * 0.1, i * 0.1 + 1) for i in range(25)], 3, count="AN")
        with pytest.raises(SizeGuardError):
            brute_force_offline(inst)
        brute_force_offline(inst, quota=1, max_n=30)


def test_oracle_equivalence_sample(rng):
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for _ in range(150):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, length, n, k, m)
            dp, _ = solve_offline(inst)
            bf, _ = brute_force_offline(inst)
            assert dp == pytest.approx(bf, abs=1e-9)


def test_value_table_monotonicity(rng):
    for _ in range(60):
        n, k = random_nk(rng, 9)
        inst = gen_instance(rng, "AL", n, k)
        ctx = dp_context(inst)
        chi, kappa = ctx.chi, ctx.kappa
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
        ctx = dp_context(inst)
        assert ctx.chi.shape == ctx.kappa.shape == (n + 1, k + 1)


def test_quota_override_beyond_n():
    inst = al_instance([(0, 1), (2, 3)], 2)
    value, chosen = solve_offline(inst, quota=10)
    assert value == pytest.approx(2.0)


# SHA-256 over repr(value) and the picks of both exact DPs on the inputs of
# test_golden_outputs, recorded before the DPs dropped their parent tables.
# No input is built with sum(), which is compensated from Python 3.12 on, so
# the digest does not depend on the Python version.
GOLDEN_DIGEST = "dea4f76595f1051e784d11001e09a2dbe0a0f3044fc1aaf8544d0f7ce9c34b60"


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
        solvers = [solve_offline]
        if inst.setting.length == "UL":
            solvers.append(solve_offline_unit)
        for solve in solvers:
            for quota in (inst.quota, rng.randint(1, inst.n + 1)):
                value, picks = solve(inst, quota)
                digest.update(f"{value!r} {picks}\n".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


# SHA-256 over float.hex of every chi and kappa cell of dp_context and over
# the values and picks of both exact DPs (and of the enumeration at n <= 7),
# recorded while the tables were still filled one cell at a time.  Quotas
# run past n on purpose.
TABLE_DIGEST = "f900180c6540c1d9251278b3824f7c8714c197eae51970e740f92f2f13cfdcb5"


def test_golden_tables():
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for length, m in [("UL", None), ("FL", 2.0), ("AL", None)]:
        for n, k in [(1, 9), (2, 2), (7, 40), (30, rng.randint(2, 40)),
                     (120, rng.randint(2, 40)), (300, 40)]:
            inst = gen_instance(rng, length, n, k, m, count_setting="AN")
            ctx = dp_context(inst)
            for table in (ctx.chi, ctx.kappa):
                assert len(table) == n + 1
                for row in table:
                    assert len(row) == k + 1
                    digest.update(" ".join(float(v).hex() for v in row).encode() + b"\n")
            solvers = [solve_offline] + ([solve_offline_unit] if length == "UL" else [])
            if n <= 7:
                solvers.append(brute_force_offline)
            for solve in solvers:
                for quota in (k, rng.randint(1, n + 3)):
                    value, picks = solve(inst, quota)
                    assert type(value) is float
                    digest.update(f"{value.hex()} {picks}\n".encode())
    assert digest.hexdigest() == TABLE_DIGEST
