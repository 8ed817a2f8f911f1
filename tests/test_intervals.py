import math
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import numeric
from kcover import (
    Batch,
    ConfigError,
    CoverageState,
    Instance,
    Setting,
    StructureError,
    SettingError,
    SubInterval,
    absorb,
    added_length,
    union_length,
)
from kcover.intervals import prefix_unions


def iv(a, b):
    return SubInterval(a, b)


def single(a, b):
    return Batch.single(a, b)


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
        assert added_length(st_, single(0, 1)) == pytest.approx(0.0)

    def test_fresh_interval(self):
        assert added_length(CoverageState.empty(), single(2, 3)) == pytest.approx(1.0)

    def test_bridging_gap(self):
        st_ = sweep([iv(0, 1), iv(2, 3)])
        assert added_length(st_, single(0.5, 2.5)) == pytest.approx(1.0)

    def test_absorb_counts(self):
        s0 = CoverageState.empty()
        s1 = absorb(s0, single(0, 1))
        assert (s1.total_len, s1.component_count) == (pytest.approx(1.0), 1)
        s2 = absorb(s1, single(2, 3))
        assert (s2.total_len, s2.component_count) == (pytest.approx(2.0), 2)
        s3 = absorb(s2, single(0.5, 2.5))
        assert (s3.total_len, s3.component_count) == (pytest.approx(3.0), 1)
        # absorbed inputs stayed frozen
        assert s2.component_count == 2

    def test_add_on_a_copy_leaves_the_original(self):
        s = sweep([iv(0, 1), iv(2, 3), iv(4, 5)])
        before = bits(s)
        c = s.copy()
        c.add(Batch((iv(0.5, 2.5), iv(6, 6.5))))
        assert bits(s) == before
        assert (c.starts, c.ends, c.sums) == ([0, 4, 6], [3, 5, 6.5], [0, 3, 4, 4.5])

    def test_added_matches_absorb(self):
        s = sweep([iv(1, 2)])
        b = single(1.5, 3)
        assert added_length(s, b) == pytest.approx(absorb(s, b).total_len - s.total_len)


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

    def test_unit_sum_enforced(self):
        with pytest.raises(SettingError):
            Instance(5, 2, Setting("US", "AN"), (Batch((iv(0, 0.4), iv(1, 1.4))),))
        Instance(5, 2, Setting("US", "AN"), (Batch((iv(0, 0.4), iv(1, 1.6))),))

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
    state = CoverageState.empty()
    for b in bs:
        state = absorb(state, b)
    assert added_length(state, v) >= -1e-12
    assert union_length(bs + [v]) >= union_length(bs) - 1e-12


@settings(max_examples=120, deadline=None)
@given(batches(), st.data(), st.integers(0, 120), st.integers(1, 30))
def test_submodular(bs, data, a, w):
    # A is a sub-collection of B; the marginal of v can only shrink on B.
    keep = data.draw(st.lists(st.booleans(), min_size=len(bs), max_size=len(bs)))
    sub = [b for b, k in zip(bs, keep) if k]
    v = single(a / 10.0, (a + w) / 10.0)
    state_a = CoverageState.empty()
    for b in sub:
        state_a = absorb(state_a, b)
    state_b = CoverageState.empty()
    for b in bs:
        state_b = absorb(state_b, b)
    assert added_length(state_a, v) >= added_length(state_b, v) - 1e-9


@settings(max_examples=120, deadline=None)
@given(batches(), st.randoms(use_true_random=False))
def test_absorb_order_irrelevant(bs, rnd):
    shuffled = list(bs)
    rnd.shuffle(shuffled)
    s1 = CoverageState.empty()
    for b in bs:
        s1 = absorb(s1, b)
    s2 = CoverageState.empty()
    for b in shuffled:
        s2 = absorb(s2, b)
    assert s1.component_count == s2.component_count
    assert s1.total_len == pytest.approx(s2.total_len, abs=1e-9)
    for a, b, c, d in zip(s1.starts, s1.ends, s2.starts, s2.ends):
        assert a == pytest.approx(c, abs=1e-9)
        assert b == pytest.approx(d, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(batches())
def test_union_equals_absorbed_total(bs):
    state = CoverageState.empty()
    for b in bs:
        state = absorb(state, b)
    assert state.total_len == pytest.approx(union_length(bs), abs=1e-9)


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
    """absorb (every component), in-place add (every component after every
    batch), added_length, prefix_unions (every prefix) and union_length
    against the reference merge, bit for bit."""
    state, live = CoverageState.empty(), CoverageState.empty()
    for i, b in enumerate(bs):
        before = bits(state)
        new = absorb(state, b)
        assert added_length(state, b) == new.total_len - state.total_len
        assert bits(state) == before  # the input state is untouched
        state = new
        gain = union_length(bs[: i + 1]) - union_length(bs[:i])
        assert float(added_length(live, b)).hex() == float(gain).hex()
        live.add(b)
        assert bits(live) == bits(sweep([p for c in bs[: i + 1] for p in c.parts]))
    parts = [p for b in bs for p in b.parts]
    assert bits(state) == bits(sweep(parts))
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


def test_many_disjoint_items():
    state = CoverageState.empty()
    total, x = 0.0, 0.0
    for i in range(4000):
        x += 0.01 + (i % 5) / 100
        length = 0.1 + (i * 7 % 13) / 10
        b = single(x, x + length)
        total += b.parts[0].length
        state = absorb(state, b)
        x += length
    assert state.component_count == 4000
    assert state.total_len == total
