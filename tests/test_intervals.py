import math
import random
from dataclasses import FrozenInstanceError, replace
from itertools import accumulate
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import numeric
from kcover import (
    Batch,
    ConfigError,
    CoverageState,
    Instance,
    KcoverError,
    Setting,
    StructureError,
    SettingError,
    SubInterval,
    union_length,
)
from kcover.intervals import absorb, added_length, prefix_unions
from kcover.harness import gen_instance
from kcover.instance_io import read_instance, write_instance
from kcover.offline import solve_offline


def iv(a, b):
    return SubInterval(a, b)


def single(a, b):
    return Batch.single(a, b)


def accept_all(batches):
    """The coverage state after placing and applying each batch in turn."""
    state = CoverageState.empty()
    for b in batches:
        state.apply(state.place(b)[1])
    return state


def sweep(parts):
    """Reference merge: sort the parts by start and sweep left to right,
    joining a part to the last component when it starts at most EPS past
    that component's end."""
    eps = numeric.EPS
    starts, ends = [], []
    for a, b in sorted((p.start, p.end) for p in parts):
        if ends and a <= ends[-1] + eps:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    sums = tuple(accumulate(map(sub, ends, starts), initial=0))
    return CoverageState(tuple(starts), tuple(ends), sums)


class TestUnionLength:
    def test_empty(self):
        assert union_length([]) == 0 and type(union_length([])) is int

    def test_half_overlap(self):
        assert union_length([single(0, 1), single(0.5, 1.5)]) == pytest.approx(1.5)

    def test_touching_merge(self):
        assert union_length([single(0, 1), single(1, 2), single(3, 4)]) == pytest.approx(3.0)

    def test_multi_part_batch(self):
        b = Batch((iv(0, 0.5), iv(2, 2.5)))
        assert union_length([b]) == pytest.approx(1.0)


class TestAddedAbsorb:
    def test_duplicate_adds_nothing(self):
        st_ = sweep([iv(0, 1)])
        assert st_.place(single(0, 1))[0] == pytest.approx(0.0)

    def test_fresh_interval(self):
        assert CoverageState.empty().place(single(2, 3))[0] == pytest.approx(1.0)

    def test_bridging_gap(self):
        st_ = sweep([iv(0, 1), iv(2, 3)])
        assert st_.place(single(0.5, 2.5))[0] == pytest.approx(1.0)

    def test_absorb_counts(self):
        s0 = CoverageState.empty()
        s1 = absorb(s0, single(0, 1))
        assert (s1.total_len, s1.component_count) == (pytest.approx(1.0), 1)
        s2 = absorb(s1, single(2, 3))
        assert (s2.total_len, s2.component_count) == (pytest.approx(2.0), 2)
        s3 = absorb(s2, single(0.5, 2.5))
        assert (s3.total_len, s3.component_count) == (pytest.approx(3.0), 1)
        # absorb leaves its input unchanged
        assert s2.component_count == 2

    def test_add_on_a_copy_leaves_the_original(self):
        s = sweep([iv(0, 1), iv(2, 3), iv(4, 5)])
        before = bits(s)
        c = s.copy()
        c.apply(c.place(Batch((iv(0.5, 2.5), iv(6, 6.5))))[1])
        assert bits(s) == before
        assert (c.starts, c.ends, c.sums) == ([0, 4, 6], [3, 5, 6.5], [0, 3, 4, 4.5])

    def test_added_matches_absorb(self):
        s = sweep([iv(1, 2)])
        b = single(1.5, 3)
        assert added_length(s, b) == s.place(b)[0] == absorb(s, b).total_len - s.total_len


class TestValidation:
    def test_reversed_interval(self):
        with pytest.raises(StructureError):
            SubInterval(1.0, 0.5)

    def test_zero_length(self):
        with pytest.raises(StructureError):
            SubInterval(1.0, 1.0)

    def test_overlapping_batch_parts(self):
        with pytest.raises(StructureError):
            Batch((iv(0, 1), iv(0.5, 2)))

    def test_empty_batch(self):
        with pytest.raises(StructureError):
            Batch(())

    def test_slotted_parts_stay_frozen_values(self):
        # slotted SubInterval and Batch hold no __dict__, refuse every
        # assignment, and compare and hash by their fields; a one-part
        # batch skips the overlap scan, and an empty one is still refused
        p, b = iv(0.5, 1.5), Batch((iv(0, 1), iv(1, 2)))
        for obj, field in ((p, "start"), (p, "end"), (b, "parts")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, 1.0)
        for obj in (p, b):
            # a name outside the fields: which error depends on the Python version
            with pytest.raises((AttributeError, TypeError)):
                obj.other = 1.0
        assert not hasattr(p, "__dict__") and not hasattr(b, "__dict__")
        assert p == iv(0.5, 1.5) and hash(p) == hash(iv(0.5, 1.5)) and p != iv(0.5, 1.25)
        assert b == Batch((iv(0, 1), iv(1, 2))) and hash(b) == hash(Batch((iv(0, 1), iv(1, 2))))
        assert Batch.single(0.5, 1.5) == Batch((p,)) and len({b, Batch((iv(0, 1),)), b}) == 2
        with pytest.raises(StructureError) as exc:
            Batch(())
        assert str(exc.value) == "batch needs at least one part"

    def test_non_integer_quota_refused(self, tmp_path):
        # a quota the instance file could not hold is refused when the
        # instance is built, with the exact solvers' text; a numpy integer
        # is taken and held as a plain int, so the instance file round-trips
        inst = gen_instance(random.Random(1), "UL", 6, 3, count_setting="AN")
        for quota in (2.5, 2.0, True, np.bool_(True), "3"):
            with pytest.raises(SettingError) as exc:
                replace(inst, quota=quota)
            assert str(exc.value) == f"quota must be an integer, got {quota!r}"
        numpy_quota = replace(inst, quota=np.int64(4))
        assert type(numpy_quota.quota) is int and numpy_quota == replace(inst, quota=4)
        assert solve_offline(numpy_quota) == solve_offline(replace(inst, quota=4))
        write_instance(numpy_quota, tmp_path / "inst.json")
        assert read_instance(tmp_path / "inst.json") == numpy_quota

    def test_unit_sum_enforced(self):
        with pytest.raises(SettingError):
            Instance(5, 2, Setting("US", "AN"), (Batch((iv(0, 0.4), iv(1, 1.4))),))
        Instance(5, 2, Setting("US", "AN"), (Batch((iv(0, 0.4), iv(1, 1.6))),))

    def test_unit_length_allows_rounding_of_the_end(self, monkeypatch):
        # [s, s + 1.0] has float length 1.0000000000000004 here; EPS = 0
        # must still take it as a unit item, and the DP scores it as it is
        monkeypatch.setattr(numeric, "EPS", 0.0)
        s = 3.785144227477605
        item = single(s, s + 1.0)
        assert item.parts[0].length != 1.0
        inst = Instance(5, 2, Setting("UL", "AN"), (item,))
        assert solve_offline(inst)[0] == item.parts[0].length
        with pytest.raises(SettingError, match="unit-length item"):
            Instance(5, 2, Setting("UL", "AN"), (single(0.0, 1.0 + 1e-12),))
        with pytest.raises(SettingError, match="unit-sum batch"):
            Instance(5, 2, Setting("US", "AN"), (Batch((iv(0, 0.4), iv(1, 1.6 + 1e-12))),))

    def test_flex_length_allows_rounding_of_the_end(self, monkeypatch):
        # at EPS = 0 an FL length computed from endpoints may still miss
        # [1, m] by a few ulps of the item's end, and by no more
        monkeypatch.setattr(numeric, "EPS", 0.0)
        fl = Setting("FL", "AN", 2.0)
        short, long = 0.6718212205620061, 2.1638353395252667
        items = (single(short, short + 1.0), single(long, long + 2.0))
        assert items[0].parts[0].length < 1.0 < 2.0 < items[1].parts[0].length
        Instance(5, 2, fl, items)
        for a, b in ((0.0, 1.0 - 1e-12), (0.0, 2.0 + 1e-12)):
            with pytest.raises(SettingError, match="FL item length"):
                Instance(5, 2, fl, (single(a, b),))

    def test_un_count_floor(self):
        items = (single(0, 1), single(1, 2))
        with pytest.raises(ConfigError, match="need 2 <= k <= n-1, got k=2 n=2"):
            Instance(3, 2, Setting("UL", "UN"), items)

    def test_item_outside_target(self):
        with pytest.raises(SettingError):
            Instance(1.5, 2, Setting("UL", "AN"), (single(1, 2),))

    def test_fl_needs_m(self):
        with pytest.raises(SettingError):
            Setting("FL", "UN")

    def test_infinite_end_refused(self):
        # an infinite part would score a game's ratio nan and could not be
        # written to an instance file and read back
        with pytest.raises(StructureError) as exc:
            SubInterval(0.0, math.inf)
        assert str(exc.value) == "interval [0.0, inf] has an infinite end"
        with pytest.raises(StructureError, match="infinite end"):
            Batch.single(2.5, math.inf)

    def test_infinite_target_refused(self):
        with pytest.raises(SettingError) as exc:
            Instance(math.inf, 2, Setting("UL", "AN"), (single(0, 1),))
        assert str(exc.value) == "target_len must be finite, got inf"
        with pytest.raises(SettingError, match="target_len must be positive"):
            Instance(math.nan, 2, Setting("UL", "AN"), (single(0, 1),))


grid = st.integers(min_value=0, max_value=120)


@st.composite
def batches(draw, max_count=6):
    count = draw(st.integers(1, max_count))
    out = []
    for _ in range(count):
        a = draw(grid)
        width = draw(st.integers(1, 40))
        out.append(single(a / 10.0, (a + width) / 10.0))
    return out


@settings(max_examples=120, deadline=None)
@given(batches(), st.integers(0, 120), st.integers(1, 30))
def test_added_length_nonnegative_and_monotone(bs, a, w):
    v = single(a / 10.0, (a + w) / 10.0)
    assert accept_all(bs).place(v)[0] >= -1e-12
    assert union_length(bs + [v]) >= union_length(bs) - 1e-12


@settings(max_examples=120, deadline=None)
@given(batches(), st.data(), st.integers(0, 120), st.integers(1, 30))
def test_submodular(bs, data, a, w):
    # A is a sub-collection of B; the marginal of v can only shrink on B.
    keep = data.draw(st.lists(st.booleans(), min_size=len(bs), max_size=len(bs)))
    sub = [b for b, k in zip(bs, keep) if k]
    v = single(a / 10.0, (a + w) / 10.0)
    assert accept_all(sub).place(v)[0] >= accept_all(bs).place(v)[0] - 1e-9


@settings(max_examples=120, deadline=None)
@given(batches(), st.randoms(use_true_random=False))
def test_absorb_order_irrelevant(bs, rnd):
    shuffled = list(bs)
    rnd.shuffle(shuffled)
    s1, s2 = accept_all(bs), accept_all(shuffled)
    assert s1.component_count == s2.component_count
    assert s1.total_len == pytest.approx(s2.total_len, abs=1e-9)
    for a, b, c, d in zip(s1.starts, s1.ends, s2.starts, s2.ends):
        assert a == pytest.approx(c, abs=1e-9)
        assert b == pytest.approx(d, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(batches())
def test_union_equals_absorbed_total(bs):
    assert accept_all(bs).total_len == pytest.approx(union_length(bs), abs=1e-9)


EPS = numeric.EPS
GAPS = (0.0, EPS / 2, EPS, 2 * EPS, 0.25)  # merge, merge, the edge, apart, apart
SIZES = (EPS / 2, 3 * EPS, 0.1, 1 / 3, 0.7)  # the small ones bridge near-touching pieces


@st.composite
def edge_batches(draw):
    """Batches placed 0, EPS/2, EPS or 2*EPS (give or take one ulp) away
    from an endpoint of an earlier piece, on either side, including
    multi-part unit-sum batches."""
    anchors = [1.1, 2.3, 4.7]  # not dyadic, so EPS steps round both ways
    out = []
    for _ in range(draw(st.integers(1, 12))):
        parts = draw(st.integers(1, 3))
        sizes = [1.0 / parts] * parts if parts > 1 else [draw(st.sampled_from(SIZES))]
        anchor = draw(st.sampled_from(anchors))
        gap = draw(st.sampled_from(GAPS))
        ulp = draw(st.sampled_from((-1.0, 0.0, 1.0)))  # straddle the EPS edge
        pieces = []
        if anchor >= 2.0 and draw(st.booleans()):  # ends left of the anchor
            at = math.nextafter(anchor - gap, anchor - gap + ulp)
            for size in sizes:
                pieces.insert(0, SubInterval(at - size, at))
                at -= size + draw(st.sampled_from(GAPS[:4]))
        else:  # starts right of the anchor
            at = math.nextafter(anchor + gap, anchor + gap + ulp)
            for size in sizes:
                pieces.append(SubInterval(at, at + size))
                at += size + draw(st.sampled_from(GAPS[:4]))
        anchors += [p.start for p in pieces] + [p.end for p in pieces]
        out.append(Batch(tuple(pieces)))
    return out


def bits(state):
    floats = state.starts + state.ends + state.reach + state.sums
    return [float(x).hex() for x in floats]


def check_against_sweep(bs):
    """place then apply in place (the gain, and every component after every
    batch), prefix_unions (every prefix) and union_length against the
    reference merge, bit for bit."""
    state = CoverageState.empty()
    for i, b in enumerate(bs):
        before, total = bits(state), state.total_len
        gain, splice = state.place(b)
        assert bits(state) == before  # placing changes nothing
        state.apply(splice)
        assert gain == state.total_len - total
        want = union_length(bs[: i + 1]) - union_length(bs[:i])
        assert float(gain).hex() == float(want).hex()
        assert bits(state) == bits(sweep([p for c in bs[: i + 1] for p in c.parts]))
    parts = [p for b in bs for p in b.parts]
    for end, start in zip(state.ends, state.starts[1:]):
        assert start > end + numeric.EPS  # canonical: no two components touch
    parts.sort(key=lambda p: (p.end, p.start))
    totals = prefix_unions((p.end, p.start) for p in parts)
    assert len(totals) == len(parts) + 1
    for i, total in enumerate(totals):
        assert float(total).hex() == float(sweep(parts[:i]).total_len).hex()
    assert float(union_length(bs)).hex() == float(state.total_len).hex()


@settings(max_examples=400, deadline=None)
@given(edge_batches(), st.randoms(use_true_random=False))
def test_absorb_matches_sort_and_sweep_bit_for_bit(bs, rnd):
    # the batches are built under the default EPS, then merged under each
    rnd.shuffle(bs)
    for eps in (None, 0.0, 1e-3, 0.5):
        with pytest.MonkeyPatch.context() as mp:
            if eps is not None:
                mp.setattr(numeric, "EPS", eps)
            check_against_sweep(bs)


@pytest.mark.parametrize("eps", [None, 0.0, 0.5])
def test_one_run_batch_places_as_one_splice(monkeypatch, rng, eps):
    # a batch whose parts touch within EPS is placed as its run's interval:
    # place returns a splice, not a state, whose gain and resulting state
    # are those of its parts applied one by one to a copy, bit for bit; a
    # batch of two or more runs is still spliced as a state.  Each part
    # starts 0, EPS/2, or EPS (give or take one ulp) past the one before.
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    e = numeric.EPS
    kinds = set()
    for _ in range(300):
        state = CoverageState.empty()
        for _ in range(rng.randint(0, 6)):
            a = rng.uniform(0.0, 8.0)
            state.apply(state.place(single(a, a + rng.uniform(0.05, 1.5)))[1])
        cursor, parts = rng.uniform(0.0, 8.0), []
        for _ in range(rng.randint(2, 4)):
            edge = cursor + e
            start = rng.choice([cursor, cursor + e / 2, edge, math.nextafter(edge, math.inf),
                                max(cursor, math.nextafter(edge, -math.inf))])
            cursor = start + rng.uniform(0.05, 0.5)
            parts.append(iv(start, cursor))
        b = Batch(tuple(parts))
        ref = state.copy()
        for p in parts:
            ref.apply(ref.place(Batch((p,)))[1])
        gain, splice = state.place(b)
        one_run = len(b.runs()) == 1
        kinds.add(one_run)
        assert (type(splice) is tuple) == one_run
        assert float(gain).hex() == float(ref.total_len - state.total_len).hex()
        state.apply(splice)
        assert bits(state) == bits(ref)
    assert kinds == {True, False}


def test_many_disjoint_items():
    state = CoverageState.empty()
    total, x = 0.0, 0.0
    for i in range(4000):
        x += 0.01 + (i % 5) / 100
        length = 0.1 + (i * 7 % 13) / 10
        b = single(x, x + length)
        total += b.parts[0].length
        state.apply(state.place(b)[1])
        x += length
    assert state.component_count == 4000
    assert state.total_len == total


def end_rounding(end):
    return 8 * math.ulp(end)


def off_unit_length(length, end):
    miss = abs(length - 1.0)
    return miss > numeric.EPS and miss > end_rounding(end)


def reference_item_checks(target_len, setting, items):
    """Instance's item checks as one helper call per item: the rule that
    its one pass over the parts must keep, refusal for refusal."""
    for i, batch in enumerate(items):
        where = f"items[{i}]"
        for p in batch.parts:
            if p.end > target_len + numeric.EPS:
                raise SettingError(f"{where}: part {p} outside [0, {target_len}]")
        if setting.length == "US":
            total = sum(p.length for p in batch.parts)
            if off_unit_length(total, batch.parts[-1].end):
                raise SettingError(f"{where}: unit-sum batch has total length {total!r}")
            continue
        if len(batch.parts) != 1:
            raise SettingError(f"{where}: multi-part batch outside the US setting")
        length = batch.parts[0].length
        if setting.length == "UL":
            if off_unit_length(length, batch.parts[0].end):
                raise SettingError(f"{where}: unit-length item has length {length!r}")
        elif setting.length == "FL":
            m, slack = setting.m, end_rounding(batch.parts[0].end)
            if (length < 1.0 - max(numeric.EPS, slack)
                    or length > m + max(numeric.EPS * max(1.0, m), slack)):
                raise SettingError(f"{where}: FL item length {length!r} outside [1, {m}]")


def near_tolerance_case(choice, uniform):
    """(target_len, setting, items) of a random UL, FL, AL or US instance
    with one endpoint, or the target, moved by about EPS, EPS relative to it
    or 8 ulps of it, give or take an ulp, where the item checks' tolerance
    ends; None when
    the move breaks a part or a batch.  Items sit near 0 or near 3e6, where
    8 ulps of an end pass 1e-9, and start on whole numbers now and then, so
    that a move of EPS = 2**-20 lands exactly on it; a non-US item is now
    and then cut in two."""
    kind = choice(("UL", "FL", "AL", "US"))
    m = choice((1.5, 2.0, 1e7)) if kind == "FL" else None
    at = choice((0.0, 3e6))
    items = []
    for _ in range(choice((1, 2, 3))):
        cursor = at + choice((uniform(0.0, 8.0), float(choice(range(8)))))
        if kind == "US":
            weights = [uniform(0.2, 1.0) for _ in range(choice((1, 2, 3)))]
            parts = []
            for w in weights:
                start = cursor + (uniform(0.05, 0.5) if parts else 0.0)
                cursor = start + w / sum(weights)
                parts.append([start, cursor])
        else:
            size = {"UL": 1.0, "FL": choice((1.0, m, uniform(1.0, m or 1.0))),
                    "AL": uniform(0.05, 5.0)}[kind]
            parts = [[cursor, cursor + size]]
            if choice((False, False, False, True)):
                cut = cursor + size / 2
                parts = [[cursor, cut], [cut, cursor + size]]
        items.append(parts)
    target = [max(e for parts in items for _, e in parts)]
    spot = choice([(target, 0)] + [(p, j) for parts in items for p in parts for j in (0, 1)])
    value = spot[0][spot[1]]
    base = choice((0.0, numeric.EPS / 2, numeric.EPS, 2 * numeric.EPS, numeric.EPS * value / 2,
                   4 * math.ulp(value), 8 * math.ulp(value), 16 * math.ulp(value)))
    value += choice((-1.0, 1.0)) * base
    for _ in range(choice((0, 1))):
        value = math.nextafter(value, choice((-math.inf, math.inf)))
    spot[0][spot[1]] = value
    try:
        batches = tuple(Batch(tuple(SubInterval(a, e) for a, e in parts)) for parts in items)
    except StructureError:
        return None
    return target[0], Setting(kind, "AN", m), batches


def outcome(make):
    try:
        make()
    except KcoverError as exc:
        return type(exc).__name__, str(exc)
    return None


def check_one_pass_validation(case):
    """Instance refuses `case` exactly as the per-item rule does; when it
    takes it, its part arrays are the parts, read-only, and no part of
    ``==``, ``hash`` or ``repr``."""
    target, setting, items = case
    got = outcome(lambda: Instance(target, 2, setting, items))
    assert got == outcome(lambda: reference_item_checks(target, setting, items))
    if got is None:
        inst, twin = Instance(target, 2, setting, items), Instance(target, 2, setting, items)
        starts, ends = inst.part_arrays
        assert inst.part_arrays is inst.part_arrays  # built once
        parts = [p for b in items for p in b.parts]
        assert starts.dtype == ends.dtype == np.float64
        assert starts.tolist() == [p.start for p in parts]
        assert ends.tolist() == [p.end for p in parts]
        for arr in (starts, ends):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)
        assert "part_arrays" not in twin.__dict__
    return got


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from((None, 0.0, 2.0**-20)))
def test_one_pass_validation_matches_per_item_rule(data, eps):
    with pytest.MonkeyPatch.context() as mp:
        if eps is not None:
            mp.setattr(numeric, "EPS", eps)
        case = near_tolerance_case(
            lambda seq: data.draw(st.sampled_from(seq)),
            lambda lo, hi: data.draw(st.floats(lo, hi)),
        )
        if case is not None:
            check_one_pass_validation(case)


@pytest.mark.parametrize("eps", [None, 0.0, 2.0**-20])
def test_near_tolerance_cases_reach_every_refusal(monkeypatch, eps):
    # the same check on a seeded sample, which must take and refuse
    # instances of every setting and reach every item refusal
    if eps is not None:
        monkeypatch.setattr(numeric, "EPS", eps)
    rng = random.Random(36)
    seen = set()
    for _ in range(3000):
        case = near_tolerance_case(rng.choice, rng.uniform)
        if case is not None:
            got = check_one_pass_validation(case)
            # the first word after "items[i]: ", which names the refusal
            seen.add((case[1].length, got and got[1].split(": ")[1].split()[0]))
    assert seen == {
        ("UL", None), ("UL", "unit-length"), ("FL", None), ("FL", "FL"), ("AL", None),
        ("US", None), ("US", "unit-sum"),
        *((kind, "part") for kind in ("UL", "FL", "AL", "US")),
        *((kind, "multi-part") for kind in ("UL", "FL", "AL")),
    }
