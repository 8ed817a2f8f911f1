import hashlib
import itertools
import json
import math
import random

import pytest

from kcover import (
    AcceptAllPolicy,
    ConfigError,
    Decision,
    Policy,
    ProtocolError,
    RejectUntilForcedPolicy,
    SettingError,
    SolverEmptyError,
    ThresholdPolicy,
    adv_al,
    adv_fl_an,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
    chain_alpha,
    lb_fl_an,
    run_policy,
    solve_offline,
)
from kcover import adversaries, harness, policies
from kcover.harness import full_policy_suite, gen_instance, replay_game, run_game
from kcover.instance_io import instance_to_dict


class RejectAt(Policy):
    """Accept everything except the given positions (1-based)."""

    name = "reject-at"

    def __init__(self, quota, skip):
        super().__init__(quota, (-math.inf,))
        self.skip = set(skip)

    def _decide(self, gain, position):
        return position not in self.skip and len(self.accepted) < self.quota


def ratio_of(policy, adversary):
    record, inst = run_game(policy, adversary)
    return record.ratio_or_inf, record, inst


def assert_certified(adversaries, rng):
    """Every construction's ratio reaches its declared bound against the
    whole certification suite, played through the verify suite's own
    ``harness._certify``."""
    solved, opts = {}, {}
    for adv in adversaries:
        ok, _, detail, bad = harness._certify(adv, adv.name, rng, solved, opts)
        assert ok, (adv.describe(), detail, bad)


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
        assert_certified([adv_ul_un_k2(n) for n in (5, 12)], rng)


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
        assert_certified(
            [adv_ul_un_general(k, n) for k, n in [(3, 4), (3, 10), (5, 6), (5, 12), (8, 9)]],
            rng,
        )

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

    @pytest.mark.parametrize("k", [0, 1])
    def test_unknown_count_quota_is_checked(self, k):
        # refused when the adversary is built, before any game is played
        with pytest.raises(ConfigError, match=f"need k >= 2, got {k}"):
            adv_fl_an(k, 2.0, 4)

    def test_unknown_count_variant(self, rng, monkeypatch):
        # the suite is not told the release count of an unknown-count game,
        # so it plays no soa or doa
        played, score = set(), harness._score

        def recording_score(policy, *rest):
            played.add(policy.name)
            return score(policy, *rest)

        monkeypatch.setattr(harness, "_score", recording_score)
        adv = adv_fl_an(4, 3.0, 12)
        assert adv.declared_bound == lb_fl_an(3.0) == pytest.approx(1.5)
        assert_certified([adv], rng)
        assert "soa-an" in played and not {"soa", "doa"} & played

    def test_suite_certification(self, rng):
        assert_certified(
            [adv_fl_un(k, n, m) for k, n, m in [(3, 4, 2.0), (4, 9, 2.0), (6, 14, 5.0)]], rng
        )

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
        (item1, mem1), (item2, mem2) = a1.first(), a2.first()
        for pos in range(1, 13):
            assert item1 is not None and item2 is not None
            assert [(p.start, p.end) for p in item1.parts] == [
                (p.start, p.end) for p in item2.parts
            ]
            item1, mem1 = a1.react(mem1, Decision.ACCEPT, pos)
            item2, mem2 = a2.react(mem2, Decision.ACCEPT, pos)
        assert item1 is None and item2 is None

    def test_split_preserves_thresholds_trace(self):
        r1, rec1, _ = ratio_of(
            ThresholdPolicy(5, 12, setting="US"), adv_us_un(5, 12, 3)
        )
        r2, rec2, _ = ratio_of(ThresholdPolicy(5, 12), adv_ul_un_general(5, 12))
        assert rec1.trace == rec2.trace
        assert rec1.alg_value == pytest.approx(rec2.alg_value, abs=1e-9)

    def test_suite_certification(self, rng):
        assert_certified(
            [adv_us_un(k, n, parts) for k, n, parts in [(3, 8, 3), (5, 10, 3), (4, 9, 1)]], rng
        )


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
        advs = [adv_al(1e-3, k, 2 * k + 2) for k in (2, 5)]
        assert all(adv.declared_bound == 1000.0 for adv in advs)
        assert_certified(advs, rng)

    def test_opt_checked_against_solver(self):
        adv = adv_al(1e-2, 2, 6)
        _, record, inst = ratio_of(AcceptAllPolicy(2), adv)
        assert record.opt_value == pytest.approx(solve_offline(inst)[0], abs=1e-12)

    def test_epsilon_whose_smallest_rung_underflows_is_refused(self):
        # a rejection at position 1 freezes the stream on [0, eps^(k+1)]
        with pytest.raises(ConfigError, match=r"epsilon=1e-200 underflows at k=2"):
            adv_al(1e-200, 2, 6)
        with pytest.raises(ConfigError, match=r"epsilon=1e-100 underflows at k=3"):
            adv_al(1e-100, 3, 8)
        r, record, _ = ratio_of(AcceptAllPolicy(2), adv_al(1e-100, 2, 6))
        assert r == record.declared_bound == 1e100
        r, _, _ = ratio_of(RejectAt(2, {1}), adv_al(1e-100, 2, 6))
        assert r >= 1e100


def test_adaptivity_window(rng):
    # the reaction to position p only shapes items at positions > p: two
    # runs that diverge at p share the prefix up to p
    adv = adv_ul_un_general(4, 10)
    a_item, a_mem = b_item, b_mem = adv.first()
    a_items, b_items = [a_item], [b_item]
    for pos in range(1, 4):
        a_item, a_mem = adv.react(a_mem, Decision.ACCEPT, pos)
        b_item, b_mem = adv.react(
            b_mem, Decision.REJECT if pos == 3 else Decision.ACCEPT, pos
        )
        a_items.append(a_item)
        b_items.append(b_item)
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
# every accept/reject pattern of full length against each, all patterns on
# one adversary, so any change to an item, a rule or a declared figure, or
# state kept outside the memory, moves the digest.
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
        adv = make()
        for pattern in itertools.product((Decision.ACCEPT, Decision.REJECT), repeat=adv.n):
            digest.update(
                f"{adv.name} {json.dumps(adv.describe())} {adv.setting.label()} "
                f"{adv.setting.count == 'UN'} {adv.target_len.hex()} "
                f"{adv.declared_bound.hex()}\n".encode()
            )
            item, memory = adv.first()
            for pos, decision in enumerate(pattern, 1):
                assert item is not None
                digest.update(
                    " ".join(f"{p.start.hex()}:{p.end.hex()}" for p in item.parts).encode()
                    + b"\n"
                )
                item, memory = adv.react(memory, decision, pos)
            assert item is None  # the reaction to position n ends the stream
            # past the n-th release the stream stays empty
            for decision in (Decision.ACCEPT, Decision.REJECT):
                assert adv.react(memory, decision, adv.n + 1)[0] is None
            games += 1
    assert games == 9064
    assert digest.hexdigest() == STREAM_DIGEST


def test_certify_scores_each_distinct_game_once(monkeypatch):
    # Policies that decide alike realise the same instance, and instances
    # whose items have the same runs of touching parts have the same
    # optimum: the adversary suite runs the offline oracle once per distinct
    # (quota, item runs), across constructions.  The unit-sum rows' items are
    # the chain rows' units cut into touching thirds, so they reuse the
    # chain rows' optima, and the oracle runs fewer times than there are
    # distinct games.
    games, solved = [], []
    score, oracle = harness._score, harness.oracle_value

    def runs(inst):
        return inst.quota, tuple(tuple(b.runs()) for b in inst.items)

    def counting_score(policy, inst, *rest):
        games.append(inst)
        return score(policy, inst, *rest)

    def counting_oracle(inst):
        solved.append(runs(inst))
        return oracle(inst)

    monkeypatch.setattr(harness, "_score", counting_score)
    monkeypatch.setattr(harness, "oracle_value", counting_oracle)
    rows = list(harness.verify_adversaries((2, 4), (5, 7), seed=7))
    assert all(ok for ok, *_ in rows)
    assert any(label.startswith("unit-sum-adversary") for _, label, *_ in rows)
    distinct = {(inst.quota, inst.items) for inst in games}
    assert len(set(solved)) == len(solved) == len({runs(inst) for inst in games})
    assert len(solved) < len(distinct) < len(games)


# One construction of each kind, at sizes where the suite's policies split
# into several decision traces.
CONSTRUCTIONS = [
    lambda: adv_ul_un_k2(8),
    lambda: adv_ul_un_general(4, 8),
    lambda: adv_fl_un(4, 8, 2.0),
    lambda: adv_us_un(3, 8, 3),
    lambda: adv_al(1e-3, 3, 8),
]


def plain_certify(make_adversary, label, rng, solved):
    """The certification as a plain loop: every suite policy plays a fresh
    adversary through run_game."""
    adv = make_adversary()
    declared = adv.declared_bound
    suite = harness.full_policy_suite(
        adv.setting.length, adv.quota, adv.n, adv.setting.m, rng, solved=solved
    )
    worst, bad = math.inf, None
    for pname, factory in suite:
        record, inst = run_game(factory(), make_adversary())
        slack = record.ratio_or_inf - declared
        worst = min(worst, slack)
        if slack < -1e-6 and bad is None:
            bad = {
                "policy": pname,
                "declared_bound": declared,
                "ratio": record.ratio,
                "instance": instance_to_dict(inst),
                "trace": record.trace,
            }
    return bad is None, label, f"declared={declared:.9g} min-slack={worst:.3g}", bad


@pytest.mark.parametrize("make", CONSTRUCTIONS)
@pytest.mark.parametrize("reverse", [False, True])
def test_certify_matches_a_plain_run_game_loop(monkeypatch, make, reverse):
    # Declared bounds just past each ratio the suite reaches fail the
    # policies at or below it; the shared decision tree must give the same
    # row and the same first counterexample as a fresh adversary per policy.
    # soa reaches the least ratio, so the reversed suite also fails first at
    # a policy after some that pass.
    if reverse:
        build = harness.full_policy_suite
        monkeypatch.setattr(harness, "full_policy_suite", lambda *a, **kw: build(*a, **kw)[::-1])
    adv = make()
    suite = harness.full_policy_suite(
        adv.setting.length, adv.quota, adv.n, adv.setting.m, random.Random(11)
    )
    ratios = sorted({run_game(factory(), make())[0].ratio_or_inf for _, factory in suite})
    firsts = set()
    for bound in [adv.declared_bound] + [r + 1e-3 for r in ratios if r < math.inf]:
        def raised():
            adv = make()
            adv.declared_bound = bound
            return adv

        got = harness._certify(raised(), "row", random.Random(11), {}, {})
        assert got == plain_certify(raised, "row", random.Random(11), {})
        firsts.add(got[3] and got[3]["policy"])
    assert None in firsts and len(firsts) >= 2  # passes and failures both


@pytest.mark.parametrize("make", CONSTRUCTIONS)
def test_certify_reacts_once_per_distinct_decision_prefix(monkeypatch, make):
    # one react per node of the suite's decision tree: policies that decide
    # alike share the reactions, and no prefix is ever replayed
    traces, reacted = [], []
    score, react = harness._score, adversaries.Adversary.react

    def recording_score(policy, *rest):
        traces.append(tuple(policy.trace))
        return score(policy, *rest)

    def counting_react(self, memory, decision, position):
        reacted.append(position)
        return react(self, memory, decision, position)

    monkeypatch.setattr(harness, "_score", recording_score)
    monkeypatch.setattr(adversaries.Adversary, "react", counting_react)
    ok, *_ = harness._certify(make(), "row", random.Random(7), {}, {})
    assert ok
    prefixes = {t[:i] for t in traces for i in range(1, len(t) + 1)}
    assert sorted(reacted) == sorted(map(len, prefixes))
    assert len(prefixes) < sum(map(len, traces))


@pytest.mark.parametrize("make", CONSTRUCTIONS)
def test_policy_holds_the_record_of_its_game(make, rng):
    # the policy is the one record of a game: run_game's record and
    # run_policy's tally read its trace and accepts
    adv = make()
    suite = full_policy_suite(adv.setting.length, adv.quota, adv.n, adv.setting.m, rng)
    for name, factory in suite:
        live = factory()
        record, inst = run_game(live, adv)
        assert record.trace == [d.value for d in live.trace], name
        assert record.accepted == tuple(live.accepted), name
        assert live.accepted == [i for i, d in enumerate(live.trace) if d is Decision.ACCEPT]
        replayed = factory()
        _, accepted, trace = run_policy(replayed, inst)
        assert trace == replayed.trace == live.trace, name
        assert accepted == tuple(replayed.accepted) == record.accepted, name


def test_adversary_suite_solves_each_program_once(monkeypatch):
    # the chain, flex and unit-sum rows share (k, n): one solve_doa each,
    # made by the doa policy's constructor
    calls = []
    solve = policies.solve_doa

    def counting_solve(k, n, *rest):
        calls.append((k, n))
        return solve(k, n, *rest)

    monkeypatch.setattr(policies, "solve_doa", counting_solve)
    rows = list(harness.verify_adversaries((2, 6), (8, 12), seed=42))
    assert all(ok for ok, *_ in rows)
    assert len(calls) == len(set(calls)) == 25


def test_suite_without_a_feasible_program_has_no_doa(monkeypatch):
    # an infeasible program is memoised as None: no doa entry, one solve
    calls = []

    def empty(k, n, *rest):
        calls.append((k, n))
        raise SolverEmptyError(f"no feasible two-phase triple for k={k} n={n}")

    monkeypatch.setattr(policies, "solve_doa", empty)
    solved = {}
    for _ in range(2):
        suite = full_policy_suite("UL", 4, 10, None, random.Random(5), solved=solved)
        names = [name for name, _ in suite]
        assert "doa" not in names and "soa" in names
    assert calls == [(4, 10)]
    assert solved == {(4, 10): None}


def test_gen_instance_checks_the_flex_cap(rng):
    # m is the FL cap and nothing else: needed there, at most the [0, 30]
    # target, and refused elsewhere as Setting refuses it
    with pytest.raises(SettingError, match="FL needs a finite length cap m > 1, got None"):
        gen_instance(rng, "FL", 5, 3)
    with pytest.raises(SettingError, match=r"m=40.0 do not fit the \[0, 30\] target"):
        gen_instance(rng, "FL", 5, 3, 40.0)
    for length in ("UL", "AL", "US"):
        with pytest.raises(SettingError, match="m is only meaningful in FL, got m=2.0"):
            gen_instance(rng, length, 5, 3, 2.0)
    inst = gen_instance(rng, "FL", 5, 3, 30.0)
    assert inst.setting.m == 30.0 and all(b.parts[0].start >= 0.0 for b in inst.items)


def test_multi_thresholds_draw_as_uniform_does():
    # the verify suites' threshold lists write random.uniform out: the same
    # floats, drawn in the same order
    mine, plain = random.Random(3), random.Random(3)
    for k in range(2, 60):
        want = sorted((plain.uniform(0.05, 1.0) for _ in range(k)), reverse=True)
        assert harness.random_multi_thresholds(mine, k) == want


@pytest.mark.parametrize(
    "k_range, n_range", [((3, 4), (8, 9)), ((2, 2), (5, 6)), ((3, 3), (8, 8)), ((2, 6), (8, 12))]
)
def test_verify_rows_certify_only_quotas_in_the_k_range(monkeypatch, k_range, n_range):
    # every row, k2 and al ones included, builds a construction whose quota
    # lies in the k range, and every quota in it that some n admits has rows
    quotas = []

    def certify(adversary, label, rng, solved, opts):
        quotas.append(adversary.quota)
        return True, label, "", None

    monkeypatch.setattr(harness, "_certify", certify)
    labels = [label for _, label, _, _ in harness.verify_adversaries(k_range, n_range, seed=1)]
    klo, khi = k_range
    assert set(quotas) == set(range(max(klo, 2), min(khi, n_range[1] - 1) + 1))
    assert (f"k2-adversary n={n_range[0]}" in labels) == (klo <= 2)
    assert ("al-adversary k=2 eps=0.001" in labels) == (klo <= 2)
    assert ("al-adversary k=3 eps=0.001" in labels) == (klo <= 3 <= khi)
