import json
import math

import pytest

from kcover import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    Batch,
    ConfigError,
    CoverageState,
    Decision,
    MultiThresholdPolicy,
    Policy,
    ProtocolError,
    RejectUntilForcedPolicy,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
    run_policy,
    soa_an_theta,
    soa_theta,
    solve_doa,
    solve_offline,
)
from kcover.policies import tally
from kcover.harness import gen_instance, random_nk
from kcover.thresholds import default_switch

from conftest import unit_instance


class RejectAllStub(Policy):
    name = "reject-all"

    def _decide(self, gain, position):
        return False


def feed(policy, pairs):
    return [
        policy.next(Batch.single(a, b), i + 1).value
        for i, (a, b) in enumerate(pairs)
    ]


class TestThresholdPolicy:
    def test_first_item_always_accepted(self):
        pol = ThresholdPolicy(2, 5, theta=0.9)
        assert feed(pol, [(0.3, 1.3)])[0] == "accept"

    def test_threshold_and_quota_enough_walkthrough(self):
        # k=2, n=4: second item below theta is rejected twice, then taken
        # when the remaining quota covers all remaining releases.
        pol = ThresholdPolicy(2, 4)
        assert pol.describe()["theta"] == pytest.approx((math.sqrt(17) - 3) / 4, abs=1e-12)
        trace = feed(pol, [(0, 1), (0.1, 1.1), (0.1, 1.1), (0.1, 1.1)])
        assert trace == ["accept", "reject", "reject", "accept"]

    def test_accepts_marginal_above_threshold(self):
        pol = ThresholdPolicy(2, 100)
        trace = feed(pol, [(0, 1), (0.9, 1.9)])
        assert trace == ["accept", "accept"]  # 0.9 >= 0.2808

    def test_boundary_marginal_accepted(self):
        theta = soa_theta(3, 50)
        pol = ThresholdPolicy(3, 50, theta=theta)
        trace = feed(pol, [(0, 1), (theta, 1 + theta)])
        assert trace == ["accept", "accept"]  # exactly theta, weak inequality

    def test_quota_exhaustion_precedes_everything(self):
        pol = ThresholdPolicy(2, 6)
        trace = feed(pol, [(0, 1), (2, 3), (4, 5)])
        assert trace == ["accept", "accept", "reject"]

    def test_requires_count(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(2, None)

    def test_al_requires_explicit_theta(self):
        with pytest.raises(ConfigError):
            ThresholdPolicy(2, 10, setting="AL")
        ThresholdPolicy(2, 10, setting="AL", theta=0.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "make",
    [lambda t: ThresholdPolicy(3, 10, theta=t), lambda t: AnytimeThresholdPolicy(3, theta=t)],
    ids=["soa", "soa-an"],
)
def test_theta_must_be_finite_and_positive(make, theta):
    # a nan theta would play and then reach describe() and the JSON record
    with pytest.raises(ConfigError, match=f"theta must be a finite number > 0, got {theta}"):
        make(theta)


def test_empty_schedule_refused():
    # with no threshold the second item would index an empty schedule
    with pytest.raises(ConfigError, match="at least one threshold"):
        Policy(3, ())


class TestAnytimePolicy:
    def test_k3_boundary(self):
        theta = soa_an_theta(3)
        assert theta == pytest.approx(0.36603, abs=1e-5)
        pol = AnytimeThresholdPolicy(3, theta=theta)
        trace = feed(pol, [(0, 1), (0.64, 1.64), (1.28, 2.28)])
        # second adds 0.64 >= theta, third adds 0.64 >= theta
        assert trace == ["accept", "accept", "accept"]
        pol = AnytimeThresholdPolicy(3)
        trace = feed(pol, [(0, 1), (0.64, 1.64), (2.0, 3.0), (2.1, 3.1)])
        assert trace[-1] == "reject"  # quota gone

    def test_reject_below_threshold(self):
        pol = AnytimeThresholdPolicy(3)
        trace = feed(pol, [(0, 1), (0.36, 1.36)])
        assert trace == ["accept", "reject"]  # 0.36 < 0.36603
        pol = AnytimeThresholdPolicy(3)
        trace = feed(pol, [(0, 1), (0.37, 1.37)])
        assert trace == ["accept", "accept"]


class TestTwoPhasePolicy:
    def test_switch_boundaries(self):
        # switching after 2 accepts: marginal in [theta1, theta2) passes
        # while exploring, fails once exploiting
        pol = TwoPhaseThresholdPolicy(3, 20, 2, 0.3, 0.8)
        trace = feed(pol, [(0, 1), (0.5, 1.5), (1.0, 2.0)])
        assert trace == ["accept", "accept", "reject"]  # third: 0.5 < theta2

    def test_equal_thresholds_match_single(self, rng):
        for _ in range(150):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            theta = min(soa_theta(k, n), 1.0)
            omega = rng.randint(1, k)
            single = run_policy(ThresholdPolicy(k, n, theta=theta), inst)[2]
            double = run_policy(
                TwoPhaseThresholdPolicy(k, n, omega, theta, theta), inst
            )[2]
            assert single == double

    def test_validation(self):
        with pytest.raises(ConfigError):
            TwoPhaseThresholdPolicy(3, 20, 0, 0.3, 0.8)
        with pytest.raises(ConfigError):
            TwoPhaseThresholdPolicy(3, 20, 2, 0.8, 0.3)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_default_plays_the_program(self, k):
        for n in sorted({k + 1, k + 2, 2 * k + 3, 30}):
            sol = solve_doa(k, n)
            assert TwoPhaseThresholdPolicy(k, n).describe() == {
                "quota": k, "n": n, "omega": sol.omega,
                "theta1": sol.theta1, "theta2": sol.theta2,
            }

    def test_thetas_without_omega_switch_at_the_default(self):
        for k in range(2, 12):
            pol = TwoPhaseThresholdPolicy(k, 20, theta1=0.3, theta2=0.6)
            assert pol.config["omega"] == default_switch(k)
            assert pol.schedule == (0.3,) * default_switch(k) + (0.6,)

    @pytest.mark.parametrize(
        "partial",
        [{"theta1": 0.3}, {"theta2": 0.6}, {"omega": 2}, {"omega": 2, "theta1": 0.3},
         {"omega": 2, "theta2": 0.6}],
    )
    def test_partial_triple_refused(self, partial):
        # refused before the count check and before any program is solved
        message = r"^doa takes theta1 and theta2 \(and optionally omega\) together or not at all$"
        with pytest.raises(ConfigError, match=message):
            TwoPhaseThresholdPolicy(5, None, **partial)

    @pytest.mark.parametrize(
        "make, name",
        [(lambda: ThresholdPolicy(3, None), "soa"),
         (lambda: TwoPhaseThresholdPolicy(3, None), "doa"),
         (lambda: TwoPhaseThresholdPolicy(3, None, 2, 0.3, 0.6), "doa")],
    )
    def test_unknown_count_names_the_policy(self, make, name):
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == f"{name} needs the total release count"


class TestMultiThresholdPolicy:
    def test_no_free_first_accept_but_unit_passes(self):
        pol = MultiThresholdPolicy([1.0, 0.5])
        assert feed(pol, [(0, 1)]) == ["accept"]

    def test_quota_bound(self):
        pol = MultiThresholdPolicy([0.5, 0.4])
        trace = feed(pol, [(0, 1), (2, 3), (4, 5)])
        assert trace == ["accept", "accept", "reject"]

    def test_constant_matches_anytime(self, rng):
        for _ in range(150):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            theta = soa_an_theta(k)
            a = run_policy(AnytimeThresholdPolicy(k, theta=theta), inst)[2]
            b = run_policy(MultiThresholdPolicy([theta] * k), inst)[2]
            assert a == b

    def test_increasing_rejected(self):
        with pytest.raises(ConfigError):
            MultiThresholdPolicy([0.3, 0.5])


class TestRunPolicy:
    def test_single_pass_and_quota(self, rng):
        for _ in range(100):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            value, accepted, trace = run_policy(AcceptAllPolicy(k), inst)
            assert len(trace) == n
            assert len(accepted) == min(k, n)

    def test_threshold_policy_spends_quota(self, rng):
        # with a known count the single-threshold policy always accepts
        # exactly k items
        for _ in range(100):
            n, k = random_nk(rng, 10)
            inst = gen_instance(rng, "UL", n, k)
            _, accepted, _ = run_policy(ThresholdPolicy(k, n), inst)
            assert len(accepted) == k

    def test_reject_stub_scores_zero(self):
        inst = unit_instance([(0, 1), (1, 2), (2, 3)], 2)
        value, accepted, _ = run_policy(RejectAllStub(2, (math.inf,)), inst)
        assert value == 0.0 and accepted == ()

    def test_reject_until_forced_takes_tail(self):
        inst = unit_instance([(i, i + 1) for i in range(5)], 2)
        value, accepted, _ = run_policy(RejectUntilForcedPolicy(2, 5), inst)
        assert accepted == (3, 4)
        assert value == pytest.approx(2.0)

    def test_out_of_turn_call(self):
        pol = ThresholdPolicy(2, 5)
        pol.next(Batch.single(0, 1), 1)
        with pytest.raises(ProtocolError):
            pol.next(Batch.single(1, 2), 3)

    def test_anytime_on_unknown_count(self, rng):
        inst = gen_instance(rng, "UL", 6, 3, count_setting="AN")
        value, accepted, trace = run_policy(AnytimeThresholdPolicy(3), inst)
        assert len(trace) == 6 and len(accepted) <= 3


# The run JSON and the verify report carry each policy's configuration, so
# its keys, their order and its values are pinned.
DESCRIBE_GOLDEN = [
    (lambda: ThresholdPolicy(3, 10),
     'soa {"quota": 3, "n": 10, "theta": 0.3660254037844386}'),
    (lambda: ThresholdPolicy(4, 12, theta=0.4),
     'soa {"quota": 4, "n": 12, "theta": 0.4}'),
    (lambda: ThresholdPolicy(3, 10, setting="FL", m=2.5),
     'soa {"quota": 3, "n": 10, "theta": 0.8693063937629153}'),
    (lambda: AnytimeThresholdPolicy(3),
     'soa-an {"quota": 3, "theta": 0.3660254037844386}'),
    (lambda: AnytimeThresholdPolicy(5, theta=0.25),
     'soa-an {"quota": 5, "theta": 0.25}'),
    (lambda: TwoPhaseThresholdPolicy(5, 12, 3, 0.2, 0.5),
     'doa {"quota": 5, "n": 12, "omega": 3, "theta1": 0.2, "theta2": 0.5}'),
    (lambda: MultiThresholdPolicy([0.9, 0.5, 0.5]),
     'multi-threshold {"quota": 3, "thresholds": [0.9, 0.5, 0.5]}'),
    (lambda: AcceptAllPolicy(3), 'accept-all {"quota": 3}'),
    (lambda: RejectUntilForcedPolicy(3, 8), 'reject-until-forced {"quota": 3, "n": 8}'),
    (lambda: RejectUntilForcedPolicy(2), 'reject-until-forced {"quota": 2, "n": null}'),
]


@pytest.mark.parametrize("make, expected", DESCRIBE_GOLDEN)
def test_describe_golden(make, expected):
    p = make()
    assert f"{p.name} {json.dumps(p.describe())}" == expected


def test_each_item_absorbed_at_most_once(monkeypatch, rng):
    # Deciding on an item places it once, for its gain, and only an accept
    # applies that same splice: at most one placement per item seen before
    # the quota fills, none after, and exactly one splice per accept, in
    # accept order.
    placed, applied = [], []
    real_place, real_apply = CoverageState.place, CoverageState.apply

    def counting_place(state, item):
        gain, splice = real_place(state, item)
        placed.append((item, splice))
        return gain, splice

    def counting_apply(state, splice):
        (item,) = [item for item, s in placed if s is splice]
        applied.append(item)
        real_apply(state, splice)

    monkeypatch.setattr(CoverageState, "place", counting_place)
    monkeypatch.setattr(CoverageState, "apply", counting_apply)
    for _ in range(50):
        n, k = random_nk(rng, 10)
        inst = gen_instance(rng, "UL", n, k)
        index = {id(item): i for i, item in enumerate(inst.items)}
        for pol in (ThresholdPolicy(k, n), AnytimeThresholdPolicy(k),
                    TwoPhaseThresholdPolicy(k, n, 1, 0.3, 0.6),
                    MultiThresholdPolicy([0.5] * k), AcceptAllPolicy(k),
                    RejectUntilForcedPolicy(k, n)):
            placed.clear()
            applied.clear()
            _, accepted, _ = run_policy(pol, inst)
            seen = accepted[-1] + 1 if len(accepted) == k else n
            positions = [index[id(item)] for item, _ in placed]
            assert len(set(positions)) == len(positions), pol.name
            assert all(i < seen for i in positions), pol.name
            assert [index[id(item)] for item in applied] == list(accepted), pol.name


def test_tally_refuses_a_trace_the_policy_did_not_play(rng):
    # tally scores a game from the policy's own coverage state, so a trace
    # that policy did not play is refused, not scored from the wrong state.
    inst = gen_instance(rng, "UL", 8, 3)
    played = AcceptAllPolicy(3)
    _, _, trace = run_policy(played, inst)
    with pytest.raises(ProtocolError, match="trace holds 3 accepts"):
        tally(AcceptAllPolicy(3), inst, trace)
    half = AcceptAllPolicy(3)
    half.next(inst.items[0], 1)
    with pytest.raises(ProtocolError, match="accepted 1 items"):
        tally(half, inst, trace)
    assert tally(played, inst, trace)[1] == (0, 1, 2)


def test_schedules_stop_at_their_last_threshold(rng):
    # The last threshold repeats for every later accept, so a huge quota
    # stores one threshold, and the short two-phase schedule plays like the
    # one spelled out per accept.
    assert len(AcceptAllPolicy(10**9).schedule) == 1
    assert len(AnytimeThresholdPolicy(10**9, theta=0.5).schedule) == 1
    assert len(ThresholdPolicy(10**9, 10**9 + 1, theta=0.5).schedule) == 1
    assert len(RejectUntilForcedPolicy(10**9).schedule) == 1
    assert TwoPhaseThresholdPolicy(5, 9, 2, 0.3, 0.6).schedule == (0.3, 0.3, 0.6)
    for _ in range(100):
        n, k = random_nk(rng, 10)
        inst = gen_instance(rng, "UL", n, k)
        omega = rng.randint(1, k)
        short = TwoPhaseThresholdPolicy(k, n, omega, 0.3, 0.6)
        full = Policy(k, (0.3,) * omega + (0.6,) * (k - omega), n=n)
        assert run_policy(short, inst)[2] == run_policy(full, inst)[2]


# Unit-length instances on which DOA, playing the triple solve_doa gives it,
# does worse than that program's value C (ROADMAP direction 2): phase 1
# leaves two components, and phase 2 rejects items just below theta2 that
# hang off both.  Starts in release order.
DOA_ABOVE_C = {
    (5, 10): ((4, 0.38, 0.71), 1.8112660749864156,
              [1.1657, 5.2481, 0.7856, 1.5461, 2.1801, 5.7494, 4.5593, 4.5433,
               0.1399, 1.0877]),
    (6, 12): ((5, 0.39, 0.79), 1.8787840565085774,
              [1.426, 7.141, 1.8161, 6.75, 1.0359, 7.926, 0.617, 0.253, 2.558,
               7.163, 5.968, 6.93]),
}


def _doa_played_ratio(k, n):
    triple, _, starts = DOA_ABOVE_C[k, n]
    inst = unit_instance([(s, s + 1.0) for s in starts], k)
    policy = TwoPhaseThresholdPolicy(k, n)
    c = policy.config
    assert (c["omega"], c["theta1"], c["theta2"]) == triple
    alg, _, _ = run_policy(policy, inst)
    return solve_offline(inst)[0] / alg


@pytest.mark.parametrize("k, n", list(DOA_ABOVE_C))
def test_doa_played_ratio_on_direction_two_instances(k, n):
    assert _doa_played_ratio(k, n).hex() == DOA_ABOVE_C[k, n][1].hex()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP direction 2: DOA's program value C is not its played worst case",
)
@pytest.mark.parametrize("k, n", list(DOA_ABOVE_C))
def test_doa_played_ratio_within_program_value(k, n):
    assert _doa_played_ratio(k, n) <= solve_doa(k, n).value
