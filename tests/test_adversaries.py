import hashlib
import itertools
import json
import math

import pytest

from kcover import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    ConfigError,
    Decision,
    Policy,
    ProtocolError,
    RejectUntilForcedPolicy,
    SettingError,
    ThresholdPolicy,
    adv_al,
    adv_fl_an,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
    chain_alpha,
    lb_fl_an,
    lb_fl_un,
    lb_ul_un,
    solve_offline,
)
from kcover import adversaries, harness
from kcover.harness import full_policy_suite, replay_game, run_game


class RejectAt(Policy):
    """Accept everything except the given positions (1-based)."""

    name = "reject-at"

    def __init__(self, quota, skip):
        super().__init__(quota)
        self.skip = set(skip)

    def _decide(self, gain, position):
        return position not in self.skip and self.accepted_count < self.quota


def ratio_of(policy, adversary):
    record, inst = run_game(policy, adversary)
    return record.ratio_or_inf, record, inst


class TestGeometricGadget:
    def test_head_to_tail_chaining(self):
        k, n = 6, 14
        _, inst = run_game(AcceptAllPolicy(k), adv_ul_un_general(k, n))
        ivs = [b.parts[0] for b in inst.items]
        assert len(ivs) == n
        tail = ivs[chain_alpha(k) :]  # items alpha+1..n, 1-based
        for prev, cur in zip(tail, tail[1:]):
            assert cur.start == pytest.approx(prev.end, abs=1e-9)

    def test_offsets_shapes(self):
        k = 5
        offsets = adversaries._chain_offsets(k, 12)
        alpha = chain_alpha(k)
        assert len(offsets) == 12 and offsets[0] == 0.0
        for i in range(1, alpha + 1):
            assert offsets[i] == pytest.approx(
                k ** (i / k) - k ** ((i - 1) / k), abs=1e-12
            )
            assert 0.0 < offsets[i] <= 1.0 + 1e-12
        assert all(o == 1.0 for o in offsets[alpha + 1 :])


class TestQuotaTwoAdversary:
    def test_threshold_policy_hits_sqrt2(self):
        r, record, inst = ratio_of(ThresholdPolicy(2, 10), adv_ul_un_k2(10))
        assert record.alg_value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert record.opt_value == pytest.approx(2.0, abs=1e-12)
        assert r == pytest.approx(math.sqrt(2), abs=1e-9)
        assert record.trace[:2] == ["accept", "accept"]

    def test_rejecting_second_item(self):
        r, record, _ = ratio_of(RejectAt(2, {2}), adv_ul_un_k2(8))
        assert r == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_rejecting_first_item(self):
        r, _, _ = ratio_of(RejectAt(2, {1}), adv_ul_un_k2(8))
        assert r >= math.sqrt(2) - 1e-9

    def test_suite_certification(self, rng):
        for n in (5, 12):
            for name, factory in full_policy_suite("UL", 2, n, None, rng):
                adv = adv_ul_un_k2(n)
                r, _, _ = ratio_of(factory(), adv)
                assert r >= adv.declared_bound - 1e-6, (name, n)


class TestUnitChainAdversary:
    def test_accept_all_matches_formula(self):
        # with alpha <= k-1 the full-accept ratio equals the third bound term
        for k in (4, 5):
            a = chain_alpha(k)
            assert a <= k - 1
            n = a + k + 2
            r, _, _ = ratio_of(AcceptAllPolicy(k), adv_ul_un_general(k, n))
            assert r == pytest.approx(k / (k ** (a / k) + k - a - 1), abs=1e-9)

    def test_accept_all_alpha_equals_quota(self):
        # k=3 has alpha = k; the realized full-accept ratio is then k^(1/k)
        r, _, _ = ratio_of(AcceptAllPolicy(3), adv_ul_un_general(3, 10))
        assert r == pytest.approx(3 ** (1 / 3), abs=1e-9)

    def test_early_rejection_telescopes(self):
        # rejecting within the geometric prefix forces exactly k^(1/k)
        r, record, _ = ratio_of(RejectAt(5, {2}), adv_ul_un_general(5, 12))
        assert r == pytest.approx(5 ** (1 / 5), abs=1e-9)

    def test_rejecting_opening_item(self):
        r, _, _ = ratio_of(RejectAt(4, {1}), adv_ul_un_general(4, 10))
        assert r >= 2.0 - 1e-9

    def test_suite_certification(self, rng):
        for k, n in [(3, 4), (3, 10), (5, 6), (5, 12), (8, 9)]:
            for name, factory in full_policy_suite("UL", k, n, None, rng):
                adv = adv_ul_un_general(k, n)
                r, _, _ = ratio_of(factory(), adv)
                assert r >= adv.declared_bound - 1e-6, (name, k, n)

    def test_realized_instances_are_valid(self, rng):
        _, record, inst = ratio_of(AcceptAllPolicy(5), adv_ul_un_general(5, 12))
        assert inst.setting.label() == "UL-UN"
        assert inst.n == 12

    def test_domain(self):
        with pytest.raises(ConfigError):
            adv_ul_un_general(2, 10)
        with pytest.raises(ConfigError):
            adv_ul_un_general(5, 5)


class TestFlexAdversary:
    def test_accept_all_meets_formula(self):
        for k, n, m in [(4, 10, 2.0), (5, 12, 5.0)]:
            adv = adv_fl_un(k, n, m)
            r, _, _ = ratio_of(AcceptAllPolicy(k), adv)
            assert r >= 2 * k * m / (2 * k * m + (1 - m) * min(k, n - k)) - 1e-9

    def test_reject_all_probes_hits_two(self):
        # skipping every unit probe lands in the clone tail: ratio >= 2
        k, n, m = 4, 12, 2.0
        adv = adv_fl_un(k, n, m)
        tau = min(k, n - k)
        r, _, _ = ratio_of(RejectAt(k, set(range(1, tau + 1))), adv)
        assert r >= 2.0 - 1e-9
        assert r >= adv.declared_bound - 1e-6

    def test_short_horizon_corner(self, rng):
        # n = k+1 makes tau = 1; the withheld-quota policy must still lose
        for k in (3, 8):
            for m in (2.0, 5.0):
                adv = adv_fl_un(k, k + 1, m)
                r, _, _ = ratio_of(RejectUntilForcedPolicy(k, k + 1), adv)
                assert r >= adv.declared_bound - 1e-6

    def test_unknown_count_variant(self, rng):
        adv = adv_fl_an(4, 3.0, 12)
        assert adv.declared_bound == pytest.approx(1.5)
        for name, factory in full_policy_suite("FL", 4, None, 3.0, rng):
            adv = adv_fl_an(4, 3.0, 12)
            r, _, _ = ratio_of(factory(), adv)
            assert r >= lb_fl_an(3.0) - 1e-6, name

    def test_suite_certification(self, rng):
        for k, n, m in [(3, 4, 2.0), (4, 9, 2.0), (6, 14, 5.0)]:
            for name, factory in full_policy_suite("FL", k, n, m, rng):
                adv = adv_fl_un(k, n, m)
                r, _, _ = ratio_of(factory(), adv)
                assert r >= adv.declared_bound - 1e-6, (name, k, n, m)

    # the largest cap adv_fl_un(3, 10, m) takes before its target length overflows
    LARGEST_M = 2.568133049803308e307

    def test_length_m_items_pass_the_fl_check(self):
        # the tail items [tau + (t-1)m, tau + tm] round by about an ulp of tm;
        # the FL length check allows that relative to m, so every game plays
        caps = [7860520.742121479, self.LARGEST_M] + [
            f * 10.0 ** e for e in range(1, 307) for f in (1.5, 4.2, 8.7)
        ]
        for m in caps:
            for adv in (adv_fl_un(3, 10, m), adv_fl_an(3, m, 8)):
                _, inst = run_game(AcceptAllPolicy(3), adv)
                assert max(b.parts[0].length for b in inst.items) > 0.99 * m

    def test_largest_m_is_the_edge(self):
        with pytest.raises(SettingError, match="overflows"):
            adv_fl_un(3, 10, 1.01 * self.LARGEST_M)


class TestUnitSumAdversary:
    def test_single_part_matches_plain_chain(self):
        a1 = adv_us_un(5, 12, 1)
        a2 = adv_ul_un_general(5, 12)
        item1, item2 = a1.first(), a2.first()
        for pos in range(1, 13):
            assert item1 is not None and item2 is not None
            assert [(p.start, p.end) for p in item1.parts] == [
                (p.start, p.end) for p in item2.parts
            ]
            item1 = a1.react(Decision.ACCEPT, pos)
            item2 = a2.react(Decision.ACCEPT, pos)
        assert item1 is None and item2 is None

    def test_split_preserves_thresholds_trace(self):
        r1, rec1, _ = ratio_of(
            ThresholdPolicy(5, 12, setting="US"), adv_us_un(5, 12, 3)
        )
        r2, rec2, _ = ratio_of(ThresholdPolicy(5, 12), adv_ul_un_general(5, 12))
        assert rec1.trace == rec2.trace
        assert rec1.alg_value == pytest.approx(rec2.alg_value, abs=1e-9)

    def test_suite_certification(self, rng):
        for k, n, parts in [(3, 8, 3), (5, 10, 3), (4, 9, 1)]:
            for name, factory in full_policy_suite("US", k, n, None, rng):
                adv = adv_us_un(k, n, parts)
                r, _, _ = ratio_of(factory(), adv)
                assert r >= adv.declared_bound - 1e-6, (name, k, n, parts)


class TestArbitraryLengthAdversary:
    def test_accept_all_forced(self):
        adv = adv_al(1e-3, 3, 8)
        r, record, inst = ratio_of(AcceptAllPolicy(3), adv)
        assert r >= 1000.0 - 1e-6
        assert record.alg_value == pytest.approx(1e-3, rel=1e-9)

    def test_reject_first_forced(self):
        adv = adv_al(1e-3, 3, 8)
        r, _, _ = ratio_of(RejectAt(3, {1}), adv)
        assert r >= 1000.0 - 1e-6

    def test_suite_forced(self, rng):
        for k in (2, 5):
            horizon = 2 * k + 2
            for name, factory in full_policy_suite("AL", k, horizon, None, rng):
                adv = adv_al(1e-3, k, horizon)
                r, _, _ = ratio_of(factory(), adv)
                assert r >= 1000.0 - 1e-6, (name, k)

    def test_opt_checked_against_solver(self):
        adv = adv_al(1e-2, 2, 6)
        _, record, inst = ratio_of(AcceptAllPolicy(2), adv)
        assert record.opt_value == pytest.approx(solve_offline(inst)[0], abs=1e-12)


def test_adaptivity_window(rng):
    # the reaction to position p only shapes items at positions > p: two
    # runs that diverge at p share the prefix up to p
    advA = adv_ul_un_general(4, 10)
    advB = adv_ul_un_general(4, 10)
    a_items = [advA.first()]
    b_items = [advB.first()]
    for pos in range(1, 4):
        a_items.append(advA.react(Decision.ACCEPT, pos))
        b_items.append(advB.react(Decision.REJECT if pos == 3 else Decision.ACCEPT, pos))
    assert a_items[:3] == b_items[:3]
    assert a_items[3] != b_items[3]


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("make_adv", [adv_ul_un_general, lambda k, n: adv_us_un(k, n, 3)])
def test_live_and_replayed_games_agree(k, make_adv, rng):
    # A policy learns the release count only from its constructor, so the
    # live game and the replay of its realised instance see the same input
    # and must decide the same way.
    for n in (k + 1, 2 * k + 2):
        suite = full_policy_suite("UL", k, n, None, rng)
        suite.append(("reject-until-forced, no count", lambda: RejectUntilForcedPolicy(k)))
        for name, factory in suite:
            live, inst = run_game(factory(), make_adv(k, n))
            replayed = replay_game(factory(), inst)
            assert live.trace == replayed.trace, (name, k, n)
            assert live.accepted == replayed.accepted, (name, k, n)


def test_game_over_quota_is_an_error():
    # The policy's own quota (5) exceeds the game's (3).
    with pytest.raises(ProtocolError):
        run_game(AcceptAllPolicy(5), adv_ul_un_general(3, 10))


# Every adversary factory over a small parameter grid.  The golden test plays
# every accept/reject pattern of full length against each, so any change to
# an item, a rule or a declared figure moves the digest.
STREAM_GRID = (
    [lambda n=n: adv_ul_un_k2(n) for n in range(3, 8)]
    + [lambda k=k, n=n: adv_ul_un_general(k, n)
       for k, n in [(3, 4), (3, 7), (4, 8), (5, 9), (6, 10)]]
    + [lambda k=k, n=n, p=p: adv_us_un(k, n, p)
       for k, n in [(3, 5), (4, 8)] for p in (1, 2, 3)]
    + [lambda k=k, n=n, m=m: adv_fl_un(k, n, m)
       for k, n in [(2, 3), (3, 4), (3, 8), (4, 9), (5, 10)] for m in (1.5, 5.0)]
    + [lambda k=k, m=m, h=h: adv_fl_an(k, m, h)
       for k, m, h in [(2, 2.0, 4), (3, 3.0, 8), (4, 1.5, 9)]]
    + [lambda e=e, k=k, h=h: adv_al(e, k, h)
       for e in (1e-3, 0.5) for k, h in [(2, 5), (3, 8), (4, 9)]]
)
STREAM_DIGEST = "b92c92583583ed0f1d81a5e2e3ea61227cbf73f318a4b8217335c82a7ad305c1"


def test_item_streams_golden():
    digest = hashlib.sha256()
    games = 0
    for make in STREAM_GRID:
        total = make().total
        for pattern in itertools.product((Decision.ACCEPT, Decision.REJECT), repeat=total):
            adv = make()
            digest.update(
                f"{adv.name} {json.dumps(adv.describe())} {adv.setting.label()} "
                f"{adv.setting.count == 'UN'} {adv.target_len.hex()} "
                f"{adv.declared_bound.hex()}\n".encode()
            )
            item = adv.first()
            for pos, decision in enumerate(pattern, 1):
                assert item is not None
                digest.update(
                    " ".join(f"{p.start.hex()}:{p.end.hex()}" for p in item.parts).encode()
                    + b"\n"
                )
                item = adv.react(decision, pos)
            assert item is None
            games += 1
    assert games == 9064
    assert digest.hexdigest() == STREAM_DIGEST


@pytest.mark.parametrize(
    "make",
    [STREAM_GRID[i] for i in (0, 5, 10, 16, 26, 29)],
    ids=["ul-un-k2", "ul-un-general", "us-un", "fl-un", "fl-an", "al"],
)
def test_protocol_violations_raise(make):
    adv = make()
    with pytest.raises(ProtocolError, match="react out of turn: expected position 0, got 1"):
        adv.react(Decision.ACCEPT, 1)
    item = adv.first()
    assert item is not None
    with pytest.raises(ProtocolError, match=r"first\(\) may only be called once"):
        adv.first()
    with pytest.raises(ProtocolError, match="expected position 1, got 2"):
        adv.react(Decision.ACCEPT, 2)
    for pos in range(1, adv.total):
        assert adv.react(Decision.REJECT, pos) is not None
    assert adv.react(Decision.REJECT, adv.total) is None
    # past the horizon the stream stays empty
    assert adv.react(Decision.ACCEPT, adv.total + 1) is None
    with pytest.raises(ProtocolError, match="expected position"):
        adv.react(Decision.ACCEPT, 1)


def test_certify_scores_each_distinct_game_once(monkeypatch):
    # Policies that decide alike realise the same instance; the adversary
    # suite runs the offline oracle once per distinct game, not per policy.
    games, solved = [], []
    score, oracle = harness._score, harness.oracle_value

    def counting_score(policy, inst, *rest):
        games.append((inst.quota, inst.items))
        return score(policy, inst, *rest)

    def counting_oracle(inst):
        solved.append((inst.quota, inst.items))
        return oracle(inst)

    monkeypatch.setattr(harness, "_score", counting_score)
    monkeypatch.setattr(harness, "oracle_value", counting_oracle)
    res = harness.verify_adversaries((2, 4), (5, 7), seed=7)
    assert res.passed
    assert len(solved) == len(set(games)) < len(games)
    assert len(set(solved)) == len(solved)
