import hashlib
import itertools
import math
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
    solve_offline_unit,
    union_length,
)
from kcover import numeric, offline
from kcover.harness import gen_instance, random_nk
from kcover.intervals import CoverageState, absorb
from kcover.offline import dp_context, sort_instance

from conftest import al_instance, batch, unit_instance


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


def test_combination_blocks_are_bounded():
    for n, r in [(5, 2), (12, 6), (16, 8), (20, 1)]:
        masks = list(offline._combination_blocks(n, r))
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


def reference_prefix_unions(s):
    """Union length of the first i sorted items as one ``absorb`` call per
    item: the loop that ``offline._prefix_unions`` replaces."""
    pref = np.zeros(len(s.order) + 1)
    state = CoverageState.empty()
    for i, t in enumerate(s.order, 1):
        state = absorb(state, s.base.items[t])
        pref[i] = state.total_len
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
    cases = [sort_instance(inst) for inst in singleton_cases(rng)]
    cases.append(sort_instance(disjoint_instance(rng, 4000)))
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    for s in cases:
        got = offline._prefix_unions(s.starts, s.ends)
        assert got.tobytes() == reference_prefix_unions(s).tobytes()


def with_quota(inst, quota):
    """The instance at another quota; AN, so the quota may pass n."""
    return replace(inst, quota=quota, setting=replace(inst.setting, count="AN"))


def test_dp_diagonal_is_union_of_sorted_prefix(rng):
    # chi[i][i] accepts all of the first i sorted items: an independent
    # check of the prefix unions through union_length's sort-and-sweep
    for inst in singleton_cases(rng):
        s = sort_instance(inst)
        chi = dp_context(with_quota(inst, max(2, inst.n))).chi
        for i in range(inst.n + 1):
            assert chi[i][i] == union_length([inst.items[t] for t in s.order[:i]])


def test_quota_past_n_fills_n_columns(rng):
    # Columns past n repeat column n.  Filling all `quota` columns made a
    # quota of 10**12 ask numpy for terabytes.
    for inst in singleton_cases(rng):
        n = inst.n
        solvers = [solve_offline]
        if inst.setting.length == "UL":
            solvers.append(solve_offline_unit)
        for solve in solvers:
            want = solve(inst, n)
            for q in (n + 1, n + 3, 3 * n, 10**12):
                got = solve(inst, q)
                assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
        chi = dp_context(with_quota(inst, 3 * n + 2)).chi
        assert chi[n][n:].tobytes() == np.full(2 * n + 3, chi[n][n]).tobytes()
        assert chi[n][n] == solve_offline(inst, n)[0]


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
