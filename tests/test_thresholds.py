import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest

from kcover import (
    ConfigError,
    DoaSolution,
    SolverEmptyError,
    doa_objective,
    soa_an_theta,
    soa_theta,
    solve_doa,
    theta_crossover,
    ub_soa,
)
from kcover import numeric, thresholds
from kcover.numeric import EPS


def term_count_dep(k, n, m=1.0):
    return (math.sqrt(1 + 2 * (k - 1) * (n - k) * m) - 1) / (2 * k - 2)


def term_count_free(k):
    return (math.sqrt(9 * k * k - 14 * k + 9) - k - 1) / (4 * (k - 1))


class TestSoaTheta:
    def test_k2_large_n(self):
        assert soa_theta(2, 100) == pytest.approx((math.sqrt(17) - 3) / 4, abs=1e-12)
        assert soa_theta(2, 100) == pytest.approx(0.2807764064, abs=1e-9)

    def test_k3_n10(self):
        assert soa_theta(3, 10) == pytest.approx((math.sqrt(48) - 4) / 8, abs=1e-12)
        assert soa_theta(3, 10) == pytest.approx(0.3660254038, abs=1e-9)

    def test_k_near_n_uses_count_term(self):
        assert soa_theta(99, 100) == pytest.approx(term_count_dep(99, 100), abs=1e-12)
        assert term_count_dep(99, 100) < term_count_free(99)

    def test_domain(self):
        with pytest.raises(ConfigError):
            soa_theta(1, 10)
        with pytest.raises(ConfigError):
            soa_theta(10, 10)
        with pytest.raises(ConfigError):
            soa_theta(3, 10, "AL")

    def test_range(self):
        for n in (5, 20, 200):
            for k in range(2, n):
                assert 0.0 < soa_theta(k, n) <= 1.0
        for m in (1.5, 2.0, 5.0):
            for k in range(2, 20):
                assert 0.0 < soa_theta(k, 40, "FL", m) <= m


class TestSoaAnTheta:
    def test_k2(self):
        assert soa_an_theta(2) == pytest.approx((math.sqrt(17) - 3) / 4, abs=1e-12)

    def test_k3(self):
        assert soa_an_theta(3) == pytest.approx((math.sqrt(48) - 4) / 8, abs=1e-12)
        assert soa_an_theta(3) == pytest.approx(0.36603, abs=1e-5)

    def test_limit_half(self):
        assert soa_an_theta(10**6) == pytest.approx(0.5, abs=1e-5)
        ks = [soa_an_theta(k) for k in range(2, 200)]
        assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))

    def test_fl_value(self):
        # (sqrt((1+8m)k^2 - (6+8m)k + 9) - k - 1) / (4(k-1)) at m=2, k=2
        assert soa_an_theta(2, "FL", 2.0) == pytest.approx(
            (math.sqrt(33) - 3) / 4, abs=1e-12
        )


class TestCrossover:
    @pytest.mark.parametrize("n,expected", [(1000, 667), (10, 7), (3, 3)])
    def test_values(self, n, expected):
        assert theta_crossover(n) == expected

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_candidates_cross_at_breakpoint(self, n):
        b = theta_crossover(n)
        assert term_count_dep(b, n) <= term_count_free(b)
        assert term_count_dep(b - 1, n) >= term_count_free(b - 1)

    @pytest.mark.parametrize("n", [30, 100])
    def test_monotone_candidates(self, n):
        dep = [term_count_dep(k, n) for k in range(2, n)]
        free = [term_count_free(k) for k in range(2, n)]
        assert all(a >= b - 1e-12 for a, b in zip(dep, dep[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(free, free[1:]))

    def test_selection_follows_breakpoint(self):
        n = 100
        b = theta_crossover(n)
        for k in range(2, n):
            want = term_count_dep(k, n) if k >= b else term_count_free(k)
            assert soa_theta(k, n) == pytest.approx(want, abs=1e-12)


class TestDoaObjective:
    def test_infeasible_component_count(self):
        assert doa_objective(5, 20, 1, 0.3, 0.6) is None

    def test_omega_equals_quota_drops_theta2_from_q(self):
        r1 = doa_objective(8, 30, 8, 0.4, 0.5)
        r2 = doa_objective(8, 30, 8, 0.4, 0.7)
        assert r1 is not None and r2 is not None
        assert r1[2] == pytest.approx(r2[2])  # q independent of theta2

    def test_degenerate_single_threshold_matches_bound(self):
        # with theta1 = theta2 = the single-threshold optimum and omega = k,
        # the objective collapses onto the single-threshold guarantee
        hits = 0
        for k in range(3, 80):
            th = soa_theta(k, 100)
            r = doa_objective(k, 100, k, th, th)
            if r is None:
                continue
            hits += 1
            assert r[0] <= ub_soa(k, 100) + 0.02
        assert hits > 60

    def test_validation(self):
        with pytest.raises(ConfigError):
            doa_objective(5, 20, 0, 0.3, 0.6)
        with pytest.raises(ConfigError):
            doa_objective(5, 20, 3, 0.6, 0.3)


class TestSolveDoa:
    def test_known_point(self):
        sol = solve_doa(50, 100)
        assert 0.7 * 50 <= sol.omega <= 0.9 * 50
        assert sol.theta1 < sol.theta2
        assert sol.value == pytest.approx(1.9, abs=1e-9)

    def test_solution_satisfies_program(self):
        for k in (4, 10, 33, 70):
            sol = solve_doa(k, 100)
            c, s, q = doa_objective(k, 100, sol.omega, sol.theta1, sol.theta2)
            assert c == pytest.approx(sol.value, abs=1e-12)
            assert 1.0 - 1e-9 <= s <= sol.omega - 1 + 1e-9
            assert 0.0 < sol.theta1 < sol.theta2 <= 1.0
            assert 1 <= sol.omega <= k
            # objective dominates each of its four terms by construction
            assert sol.value >= 1 + 2 * sol.theta1 - 1e-12

    def test_coarse_step_contract(self):
        # a very coarse grid either finds a feasible triple or reports empty
        try:
            sol = solve_doa(2, 100, step=0.5)
            assert 1.0 - 1e-9 <= sol.s <= sol.omega - 1 + 1e-9
        except SolverEmptyError:
            pass

    def test_never_above_single_threshold_bound(self):
        # the single-threshold triple theta1 == theta2 == soa_theta is in the
        # search space, so for k >= 3 the value never exceeds ub_soa
        for n in (10, 30, 100):
            for step in (0.01, 0.05):
                for k in range(3, n):
                    sol = solve_doa(k, n, step)
                    assert sol.value <= ub_soa(k, n) + EPS, (k, n, step)
                    c, _, _ = doa_objective(k, n, sol.omega, sol.theta1, sol.theta2)
                    assert c == pytest.approx(sol.value, abs=1e-12), (k, n, step)

    def test_refinement_never_worse(self):
        for k, n in [(5, 30), (7, 40), (12, 60)]:
            coarse = solve_doa(k, n, step=0.1)
            fine = solve_doa(k, n, step=0.05)
            assert fine.value <= coarse.value + 1e-12

    def test_deterministic(self):
        a = solve_doa(23, 100)
        b = solve_doa(23, 100)
        assert a == b

    def test_domain(self):
        with pytest.raises(ConfigError):
            solve_doa(1, 10)
        with pytest.raises(ConfigError):
            solve_doa(10, 10)


def doa_line(solve, k, n, step):
    """float.hex of every DoaSolution field, or "empty" when none exists."""
    try:
        sol = solve(k, n, step)
    except SolverEmptyError:
        return "empty"
    return " ".join(float(v).hex() for v in astuple(sol))


# SHA-256 over doa_line for every k at n in {5, 10, 30, 100} and five steps,
# plus every 7th k at n = 100, step 0.005; recorded while solve_doa still
# evaluated the full grid at every omega.
DOA_DIGEST = "8a7362c2be9c1e4118ee008ca883dab55ac8e1f3f2520f78c67d3fdf630123b7"


def test_solve_doa_golden():
    cases = [
        (k, n, step)
        for n in (5, 10, 30, 100)
        for step in (0.5, 0.25, 0.1, 0.05, 0.01)
        for k in range(2, n)
    ]
    cases += [(k, 100, 0.005) for k in range(2, 100, 7)]
    digest = hashlib.sha256()
    for k, n, step in cases:
        digest.update(f"{k} {n} {step} {doa_line(solve_doa, k, n, step)}\n".encode())
    assert digest.hexdigest() == DOA_DIGEST


def full_grid_solve_doa(k, n, step):
    """Reference search: every theta1 < theta2 cell of the grid at every
    omega, then the single-threshold triple, with solve_doa's tie-break."""
    grid = thresholds._theta_grid(step)
    strict = np.triu(np.ones((grid.size, grid.size), dtype=bool), 1)
    best = None
    omega_lo = max(1, -((-(k + 1)) // 5))
    for omega in range(omega_lo, k + 1):
        point = thresholds._program(k, n, omega, grid[:, None], grid[None, :], strict)
        if point is None:
            continue
        cmax = np.where(point[3], point[0], np.inf)
        cmin = cmax.min()
        if np.isfinite(cmin):
            i1, i2 = np.argwhere(cmax == cmin)[0]
            cand = (float(cmin), float(grid[i1]), omega, float(grid[i2]))
            best = cand if best is None else min(best, cand)
    theta = soa_theta(k, n)
    omegas = np.arange(omega_lo, k + 1)
    point = thresholds._program(k, n, omegas, theta, theta)
    if point is not None:
        cmax = np.where(point[3], point[0], np.inf)
        i = int(np.argmin(cmax))
        cand = (float(cmax[i]), theta, int(omegas[i]), theta)
        best = cand if best is None else min(best, cand)
    if best is None:
        raise SolverEmptyError
    c, th1, omega, th2 = best
    _, s, q = doa_objective(k, n, omega, th1, th2)
    return DoaSolution(omega, th1, th2, s, q, c)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.5])
def test_cut_matches_full_grid_under_eps(monkeypatch, eps):
    # the column bound depends on EPS; the default EPS is covered by
    # test_solve_doa_golden.  At EPS = 0.5 and step 0.02, k = 3 wins at a
    # cell that a bound without its EPS terms would skip.
    monkeypatch.setattr(numeric, "EPS", eps)
    for n in (5, 10, 30):
        for step in (0.25, 0.05, 0.02):
            for k in range(2, n):
                assert doa_line(solve_doa, k, n, step) == doa_line(
                    full_grid_solve_doa, k, n, step
                ), (k, n, step)
