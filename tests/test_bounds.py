import math
import random
import sys

import pytest

from kcover import (
    UNBOUNDED,
    ConfigError,
    Setting,
    SettingError,
    adv_fl_an,
    adv_fl_un,
    bound_table,
    chain_alpha,
    lb_al,
    lb_fl_an,
    lb_fl_un,
    lb_ul_an,
    lb_ul_un,
    lb_us_un,
    soa_an_theta,
    soa_theta,
    ub_multi,
    ub_soa,
    ub_soa_an,
)
from kcover import harness
from kcover.bounds import BoundReport


class TestAlpha:
    def test_known_values(self):
        assert chain_alpha(3) == 3
        assert chain_alpha(4) == 3
        assert chain_alpha(5) == 4
        assert chain_alpha(10) == 6

    def test_largest_gap_under_one_unit(self):
        def gap(k, i):
            return k ** (i / k) - k ** ((i - 1) / k)

        for k in range(3, 120):
            a = chain_alpha(k)
            assert gap(k, a) <= 1.0 < gap(k, a + 1)

    def test_within_quota(self):
        for k in range(3, 200):
            assert 3 <= chain_alpha(k) <= k

    def test_domain(self):
        with pytest.raises(ConfigError, match="chain_alpha needs k >= 3, got 2"):
            chain_alpha(2)


class TestUnitLowerBounds:
    def test_quota_two(self):
        assert lb_ul_un(2, 10) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert lb_ul_an(2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_k3_three_terms(self):
        a = chain_alpha(3)
        kak = 3 ** (a / 3)
        want = min(
            3 ** (1 / 3),
            (kak + 3 - a - 1) / (kak + 3 - a - 2),
            3 / (kak + 3 - a - 1),
        )
        assert lb_ul_un(3, a + 7) == pytest.approx(want, abs=1e-12)

    def test_below_two_and_decreasing(self):
        vals = [lb_ul_un(k, 2 * k + 2) for k in range(3, 101)]
        assert all(1.0 < v < 2.0 for v in vals)
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_unknown_count_at_least_known(self):
        for k in range(3, 30):
            for n in range(k + 1, 50):
                assert lb_ul_un(k, n) <= lb_ul_an(k) + 1e-12

    def test_short_horizon_cap(self):
        # at n <= alpha + k the last-k coverage cap kicks in and lowers the bound
        assert lb_ul_un(5, 6) < lb_ul_an(5) - 1e-6

    def test_domain(self):
        with pytest.raises(ConfigError):
            lb_ul_un(1, 5)
        with pytest.raises(ConfigError):
            lb_ul_un(5, 5)


class TestOtherLowerBounds:
    def test_fl_an_m2(self):
        assert lb_fl_an(2.0) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_fl_un_formula(self):
        k, n, m = 4, 10, 2.0
        want = 2 * k * m / (2 * k * m + (1 - m) * min(k, n - k))
        assert lb_fl_un(k, n, m) == pytest.approx(want, abs=1e-12)

    def test_fl_un_continuity_toward_unit(self):
        assert lb_fl_un(4, 10, 1.001) == pytest.approx(1.0, abs=0.01)
        assert lb_fl_un(4, 10, 1.001) > 1.0

    def test_unit_sum_inherits_unit(self):
        assert lb_us_un(2, 10) == pytest.approx(math.sqrt(2), abs=1e-12)
        for k in (3, 5, 8):
            assert lb_us_un(k, 14) == lb_ul_un(k, 14)

    def test_al_marker(self):
        assert lb_al() is UNBOUNDED
        assert repr(lb_al()) == "UNBOUNDED"


class TestUpperBounds:
    def test_k2_n100(self):
        want = (math.sqrt(17) - 3) / 2 + 1
        assert ub_soa(2, 100) == pytest.approx(want, abs=1e-12)
        assert ub_soa(2, 100) == pytest.approx(1.5615528, abs=1e-6)

    def test_an_k2_matches(self):
        assert ub_soa_an(2) == pytest.approx(ub_soa(2, 100), abs=1e-12)

    def test_turning_point_window(self):
        n = 100
        best_k = max(range(2, n), key=lambda k: ub_soa(k, n))
        assert 60 <= best_k <= 72

    def test_fl_exceeds_two_for_large_m(self):
        assert ub_soa(5, 50, "FL", 8.0) > 2.0
        for k in range(2, 30):
            assert ub_soa(k, 60, "UL") < 2.0
            assert ub_soa(k, 60, "US") < 2.0


class TestMultiThresholdBound:
    def test_constant_at_optimum_equals_single(self):
        for k in range(2, 51):
            theta = soa_an_theta(k)
            assert ub_multi([theta] * k, k) == pytest.approx(
                ub_soa_an(k), abs=1e-9
            )

    def test_never_beats_single(self, rng):
        for _ in range(1000):
            k = rng.randint(2, 50)
            ts = sorted((rng.uniform(0.05, 1.0) for _ in range(k)), reverse=True)
            assert ub_multi(ts, k) >= ub_soa_an(k) - 1e-9

    def test_capped_at_quota(self):
        # ALG >= 1 (the first item is accepted) and OPT <= k, so no game at
        # k = 2 exceeds 2, though 1 + 2*theta_2 does once theta_2 > 1/2
        assert ub_multi([0.9, 0.8], 2) == 2.0
        assert ub_multi([1.0, 1.0, 1.0], 3) == 3.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ub_multi([0.3, 0.5], 2)
        with pytest.raises(ConfigError):
            ub_multi([0.5, 0.3], 3)
        with pytest.raises(ConfigError):
            ub_multi([0.5, 1.5][::-1], 2)


def test_sandwich_all_settings():
    for k in range(2, 25):
        for n in (k + 1, k + 3, 3 * k, 120):
            for m in (1.5, 2.0, 5.0):
                for row in bound_table(k, n, m):
                    if row.upper is None or not isinstance(row.lower, float):
                        continue
                    assert row.lower <= row.upper + 1e-9, (row.setting, k, n, m)


def test_verify_bounds_reports_first_sandwich_violation(monkeypatch):
    # the dumped counterexample is the first violating row, as in every
    # other verify check, not the last one the grid reaches; with every
    # multi-threshold list below ub_soa_an, that is the first list drawn
    def two_violations(k, n, m):
        return [BoundReport(s, k, n, m, 2.0, 1.0, "test") for s in ("first", "second")]

    def below_floor(thresholds, k):
        return ub_soa_an(k) - 1.0

    monkeypatch.setattr(harness, "bound_table", two_violations)
    monkeypatch.setattr(harness, "ub_multi", below_floor)
    rows = {label: (ok, bad) for ok, label, _, bad in harness.verify_bounds(seed=1)}
    assert rows["bound-sandwich"] == (False, {
        "setting": "first", "k": 2, "n": 3, "lower": 2.0, "upper": 1.0,
    })
    rng = random.Random(1)
    k = rng.randint(2, 50)
    thresholds = harness.random_multi_thresholds(rng, k)
    assert rows["multi-threshold-floor"] == (False, {
        "k": k, "thresholds": thresholds, "gap": below_floor(thresholds, k) - ub_soa_an(k),
    })


def test_bound_table_shape():
    rows = bound_table(4, 12, 2.0)
    labels = [r.setting for r in rows]
    assert labels == ["UL-UN", "UL-AN", "FL-UN", "FL-AN", "AL", "US-UN"]
    al_row = rows[4]
    assert al_row.lower is UNBOUNDED and al_row.upper is None


# Everything that takes the FL length cap m.
FL_CALLS = [
    lambda m: lb_fl_un(3, 10, m),
    lambda m: lb_fl_an(m),
    lambda m: bound_table(3, 10, m),
    lambda m: soa_theta(3, 10, "FL", m),
    lambda m: ub_soa_an(3, "FL", m),
    lambda m: adv_fl_un(3, 10, m),
    lambda m: adv_fl_an(3, m, 8),
    lambda m: Setting("FL", "UN", m),
]
FL_IDS = ["lb_fl_un", "lb_fl_an", "bound_table", "soa_theta", "ub_soa_an",
          "adv_fl_un", "adv_fl_an", "Setting"]


@pytest.mark.parametrize("m", [1.0, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("call", FL_CALLS, ids=FL_IDS)
def test_fl_cap_refused_everywhere(call, m):
    # one check, one message: nan and inf are refused like m <= 1
    with pytest.raises(SettingError) as info:
        call(m)
    assert str(info.value) == f"FL needs a finite length cap m > 1, got {m!r}"


def _figures(result):
    if isinstance(result, list):  # bound_table rows
        return [v for r in result for v in (r.lower, r.upper) if isinstance(v, float)]
    if hasattr(result, "declared_bound"):  # an adversary
        return [result.declared_bound, result.target_len]
    return [] if isinstance(result, Setting) else [result]


@pytest.mark.parametrize("m", [1e100, 1e300, 1e307, 5e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize("call", FL_CALLS, ids=FL_IDS)
def test_huge_fl_cap_is_finite_or_refused(call, m):
    # a finite m whose figures overflow is refused, never turned into nan or inf
    try:
        result = call(m)
    except SettingError as exc:
        assert str(exc) == f"FL length cap m={m!r} overflows the float range"
        return
    assert all(math.isfinite(v) for v in _figures(result))
