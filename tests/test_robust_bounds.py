"""Worst-case bounds: hand values, edge cases, numeric limits, monotonicity.

Closed form = enumeration and robust1 >= enumeration over the input space
are gated by tests/test_acceptance.py (criteria 1-3) and by the properties
in tests/test_properties.py.
"""

import hashlib
import math

import numpy as np
import pytest

from paoiq import kernels, robust_bounds
from paoiq.errors import NumericError, StabilityError, ValidationError
from paoiq.experiments import SweepConfig, run_sweep
from paoiq.robust_bounds import (
    MAX_ENUMERATION_N,
    SOURCES,
    BoundResult,
    UncertaintyParams,
    bound_robust1_single,
    bound_robust2_single,
    bound_robust3_two,
    kingman_bound,
    paoi_from_system_bound,
    system_bound,
    worst_case_exact_single,
    worst_case_exact_two,
)
from paoiq.simulator import SystemParams, simulate_fcfs


class TestUncertaintyParams:
    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            UncertaintyParams(1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            UncertaintyParams(2.5, 1.0, 1.0)
        UncertaintyParams(2.0, 0.0, 0.0)

    def test_gamma_sign(self):
        with pytest.raises(ValidationError):
            UncertaintyParams(2.0, -0.1, 0.0)
        with pytest.raises(ValidationError):
            UncertaintyParams(2.0, 0.0, -0.1)

    @pytest.mark.parametrize("alpha, gamma_a, gamma_s", [
        (math.nan, 1.0, 1.0), (2.0, math.nan, 1.0), (2.0, 1.0, math.nan),
        (2.0, math.inf, 1.0), (2.0, 1.0, math.inf),
    ])
    def test_non_finite_rejected(self, alpha, gamma_a, gamma_s):
        with pytest.raises(ValidationError):
            UncertaintyParams(alpha, gamma_a, gamma_s)


class TestExactSingle:
    def test_deterministic_light_load(self):
        # gammas zero, lam < mu: f decreases in m, max at m = 0 is 1/mu
        res = worst_case_exact_single(SystemParams(0.5, 1.0, 50, 1), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(1.0)
        assert res.m_star == 0

    def test_deterministic_overload_grows_linearly(self):
        # lam > mu allowed here; max sits at m = n-1
        res = worst_case_exact_single(SystemParams(2.0, 1.0, 5, 1), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(5.0 - 4.0 / 2.0)
        assert res.m_star == 4

    def test_rejects_two_source_params(self):
        with pytest.raises(ValidationError):
            worst_case_exact_single(SystemParams(0.2, 1.0, 5, 2), UncertaintyParams(2, 1, 1))


class TestRobust1:
    def test_hand_value(self):
        res = bound_robust1_single(SystemParams(0.5, 1.0, 100, 1), UncertaintyParams(2, 1, 1))
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_zero_variability_reduces_to_mean_interarrival(self):
        res = bound_robust1_single(SystemParams(0.25, 1.0, 100, 1), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(4.0)

    def test_requires_stability(self):
        with pytest.raises(StabilityError):
            bound_robust1_single(SystemParams(1.0, 1.0, 100, 1), UncertaintyParams(2, 1, 1))


class TestRobust2:
    def test_candidate_example_frozen_from_oracle(self):
        # alpha=2, gammas=1, lam=0.5, mu=1: l=1, candidates {0,1,2},
        # enumeration at n=100 gives f(1) = 1 + sqrt(2)
        sysp = SystemParams(0.5, 1.0, 100, 1)
        unc = UncertaintyParams(2.0, 1.0, 1.0)
        exact = worst_case_exact_single(sysp, unc)
        res = bound_robust2_single(sysp, unc)
        assert exact.value == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)
        assert res.value == pytest.approx(exact.value, rel=1e-12)
        assert res.m_star == 1

    def test_single_update(self):
        res = bound_robust2_single(SystemParams(0.5, 1.0, 1, 1), UncertaintyParams(2, 3, 2))
        assert res.value == pytest.approx(1.0 + 2.0)  # 1/mu + gamma_s

    def test_zero_gamma_is_first_window(self):
        res = bound_robust2_single(SystemParams(0.5, 1.0, 10, 1), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(1.0)

    def test_requires_stability(self):
        with pytest.raises(StabilityError):
            bound_robust2_single(SystemParams(1.0, 1.0, 10, 1), UncertaintyParams(2, 1, 1))


class TestExactTwo:
    def test_deterministic_hand_case(self):
        # gammas zero, lam=0.2, mu=1: max of 2(m+1) - 5m over the grid is at m=0
        res = worst_case_exact_two(SystemParams(0.2, 1.0, 10, 2), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(2.0)

    def test_single_update_boundary(self):
        res = worst_case_exact_two(SystemParams(0.2, 1.0, 1, 2), UncertaintyParams(2, 1, 0.5))
        assert res.value == pytest.approx(1.0 + 0.5)
        assert res.m_star == -0.5


class TestRobust3:
    def test_deterministic_hand_case(self):
        res = bound_robust3_two(SystemParams(0.2, 1.0, 10, 2), UncertaintyParams(2, 0, 0))
        assert res.value == pytest.approx(2.0)

    def test_two_update_domain(self):
        # n=2: grid is {-1/2, 0}; f(0) = 2/mu + 2*gamma_s dominates
        res = bound_robust3_two(SystemParams(0.2, 1.0, 2, 2), UncertaintyParams(2, 1, 0.5))
        assert res.value == pytest.approx(2.0 + 1.0)

    def test_requires_two_source_stability(self):
        with pytest.raises(StabilityError):
            bound_robust3_two(SystemParams(0.5, 1.0, 10, 2), UncertaintyParams(2, 1, 1))


class TestKingman:
    def test_hand_value(self):
        res = kingman_bound(0.5, 1.0, 4.0, 1.0)
        assert res.value == pytest.approx(3.5)

    def test_deterministic_floor(self):
        assert kingman_bound(0.5, 1.0, 0.0, 0.0).value == pytest.approx(1.0)

    def test_requires_stability(self):
        with pytest.raises(StabilityError):
            kingman_bound(1.0, 1.0, 1.0, 1.0)

    def test_rejects_unavailable_variance(self):
        with pytest.raises(ValidationError):
            kingman_bound(0.5, 1.0, None, 1.0)

    @pytest.mark.parametrize("lam, mu, var_a, var_s", [
        (0.5, 1.0, math.nan, 1.0), (0.5, 1.0, 1.0, math.nan), (0.5, 1.0, math.inf, 1.0),
        (math.nan, 1.0, 1.0, 1.0), (0.5, math.nan, 1.0, 1.0), (0.5, math.inf, 1.0, 1.0),
    ])
    def test_non_finite_rejected(self, lam, mu, var_a, var_s):
        with pytest.raises(ValidationError):
            kingman_bound(lam, mu, var_a, var_s)


class TestSystemBound:
    DIRECT = {"exact_single": worst_case_exact_single, "robust1": bound_robust1_single,
              "robust2": bound_robust2_single, "exact_two": worst_case_exact_two,
              "robust3": bound_robust3_two}

    @pytest.mark.parametrize("method", list(SOURCES))
    @pytest.mark.parametrize("lam, mu, n, unc", [
        (0.3, 1.1, 5000, UncertaintyParams(1.7, 0.8, 0.4)),
        (0.45, 1.0, 3000, UncertaintyParams(1.5, 2.0, 1.0)),
    ])
    def test_equals_direct_call(self, method, lam, mu, n, unc):
        direct = self.DIRECT[method](SystemParams(lam, mu, n, SOURCES[method]), unc)
        got = system_bound(method, lam, mu, n, unc)
        assert (got.value, got.method, got.m_star) == (direct.value, direct.method,
                                                       direct.m_star)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            system_bound("kingman", 0.5, 1.0, 100, UncertaintyParams(2.0, 1.0, 1.0))

    def test_function_looked_up_at_call_time(self, monkeypatch):
        # a wrapper bound to the module attribute after import must run,
        # both from system_bound and from a sweep
        calls = []
        original = robust_bounds.bound_robust2_single

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(robust_bounds, "bound_robust2_single", spy)
        system_bound("robust2", 0.5, 1.0, 100, UncertaintyParams(2.0, 1.0, 1.0))
        assert len(calls) == 1
        run_sweep(SweepConfig(scenario="single", lambdas=(0.5,), n=200, replications=1))
        assert len(calls) == 2


class TestPaoiConversion:
    def test_additive_shift(self):
        res = kingman_bound(0.5, 1.0, 4.0, 1.0)
        assert paoi_from_system_bound(res, 0.5) == pytest.approx(5.5)

    def test_zero_bound(self):
        from paoiq.robust_bounds import BoundResult

        assert paoi_from_system_bound(BoundResult(0.0, "robust2"), 1.0) == pytest.approx(1.0)

    def test_infinite_rate_rejected(self):
        # 1/inf = 0 would return the system-time bound as a peak-age bound
        with pytest.raises(ValidationError, match="lam must be finite and > 0, got inf"):
            paoi_from_system_bound(BoundResult(5.0, "robust2"), math.inf)


class TestNumericLimits:
    @pytest.mark.parametrize("sysp, unc", [
        # (gamma_s + gamma_a)^(alpha/(alpha-1)) overflows
        (SystemParams(0.5, 1.0, 100, 1), UncertaintyParams(1.001, 5.0, 5.0)),
        # (1/lam - 1/mu)^(1/(alpha-1)) underflows to 0 and divides
        (SystemParams(0.9, 1.0, 100, 1), UncertaintyParams(1.001, 0.5, 0.4)),
    ])
    def test_robust1_out_of_range_is_numeric_error(self, sysp, unc):
        with pytest.raises(NumericError):
            bound_robust1_single(sysp, unc)

    @pytest.mark.parametrize("lam, gamma, expected", [
        # 4^1000 overflows; no variability leaves exactly 1/lam
        (0.2, 0.0, 5.0),
        # 4^1000 overflows and the first term is about 1e-605, below the
        # float range: 1/lam
        (0.2, 0.5, 5.0),
        # 0.25^1000 underflows and divides by zero, while the first term is
        # (a-1)/a^beta * 0.25^1001/0.25^1000, about 9.2e-5
        (0.8, 0.125, 1.25 + 0.001 / 1.001 ** 1001 * 0.25),
    ])
    def test_robust1_small_bound_past_float_powers(self, lam, gamma, expected):
        sysp, unc = SystemParams(lam, 1.0, 100, 1), UncertaintyParams(1.001, gamma, gamma)
        res = bound_robust1_single(sysp, unc)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.value >= worst_case_exact_single(sysp, unc).value

    @pytest.mark.parametrize("bound, sources", [
        (worst_case_exact_single, 1), (bound_robust1_single, 1), (bound_robust2_single, 1),
        (worst_case_exact_two, 2), (bound_robust3_two, 2),
    ])
    def test_infinite_worst_case_is_numeric_error(self, bound, sources):
        unc = UncertaintyParams(2.0, 1e308, 1e308)
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            bound(SystemParams(0.2, 1.0, 100, sources), unc)

    def test_non_finite_values_rejected(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(NumericError):
                BoundResult(value, "robust2")
        with pytest.raises(NumericError):
            kingman_bound(0.5, 1.0, 1e308, 1e308)
        with pytest.raises(NumericError):
            paoi_from_system_bound(BoundResult(1.7e308, "robust2"), 1e-308)

    @pytest.mark.parametrize("sources", [1, 2])
    def test_underflowing_stationary_point_takes_the_top_point(self, sources):
        # alpha*(1/lam - k/mu)/(gamma_a + k*gamma_s) underflows to 0, so l is
        # past the grid; the closed form must still equal enumeration
        sysp = SystemParams(0.5e307 / sources, 1e307, 100, sources)
        unc = UncertaintyParams(1.5, 1e20, 1e20)
        exact = (worst_case_exact_single if sources == 1 else worst_case_exact_two)(sysp, unc)
        closed = (bound_robust2_single if sources == 1 else bound_robust3_two)(sysp, unc)
        assert closed.value == pytest.approx(exact.value, rel=1e-12)
        assert closed.m_star == exact.m_star == 100 / sources - 1

    @pytest.mark.parametrize("bound, sources, gamma", [
        (worst_case_exact_single, 1, 1.0), (worst_case_exact_two, 2, 1.0),
    ])
    def test_enumeration_size_capped(self, bound, sources, gamma):
        sysp = SystemParams(0.2, 1.0, MAX_ENUMERATION_N + 1, sources)
        with pytest.raises(ValidationError, match="capped"):
            bound(sysp, UncertaintyParams(2.0, gamma, gamma))

    @pytest.mark.parametrize("bound, sources", [(bound_robust2_single, 1),
                                                (bound_robust3_two, 2)])
    def test_zero_gamma_closed_forms_past_the_cap(self, bound, sources):
        # deterministic inputs: f decreases, so the first window m = 0 wins
        res = bound(SystemParams(0.5 / sources, 1.0, 10**8, sources),
                    UncertaintyParams(2.0, 0.0, 0.0))
        assert (res.value, res.m_star) == (sources / 1.0, 0.0)

    def test_closed_forms_need_no_enumeration_cap(self):
        unc = UncertaintyParams(2.0, 1.0, 1.0)
        for bound, sources in ((bound_robust2_single, 1), (bound_robust3_two, 2)):
            res = bound(SystemParams(0.2, 1.0, MAX_ENUMERATION_N + 1, sources), unc)
            assert math.isfinite(res.value)


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_tie_breaks_to_smallest_m(k):
    # gammas zero and lam one ulp below mu/k, the largest stable rate: f
    # rounds to one value on the candidates m = 0..1, so m = 0 must be
    # reported, as the enumeration does
    mu = 0.9046800706458055
    lam = math.nextafter(mu / k, 0.0)
    sysp, unc = SystemParams(lam, mu, 50, k), UncertaintyParams(2.0, 0.0, 0.0)
    assert len({kernels.window_bound(j / k, k, lam, mu, 2.0, 0.0, 0.0)
                for j in range(k + 1)}) == 1
    closed = (bound_robust2_single if k == 1 else bound_robust3_two)(sysp, unc)
    exact = (worst_case_exact_single if k == 1 else worst_case_exact_two)(sysp, unc)
    assert (closed.value, closed.m_star) == (exact.value, exact.m_star) == (k / mu, 0.0)


def bound_bits_cases(count, seed):
    """(lam, mu, n, unc) tuples that reach every branch of the five bounds:
    n = 1 (the two-source empty window), the closed forms' top point and
    candidates, zero gammas, alpha = 2 and alpha near 1, overloaded systems,
    and services so short that windows overflow, to inf or to inf - inf."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = (2.0, 1.0 + float(rng.uniform(1e-6, 1e-3)),
                 float(rng.uniform(1.001, 2.0)))[i % 3]
        n = (1, 2)[i % 8] if i % 8 < 2 else int(rng.integers(1, 500))
        frac = float(rng.uniform(0.05, 1.2))
        ga, gs = (float(g) for g in rng.uniform(0.0, 10.0, 2))
        if i % 5 == 0:
            ga, gs = 0.0, (0.0, gs)[i % 2]
        if i % 7 == 0:
            mu = 10.0 ** float(rng.uniform(-307.5, -306.0))
            ga, gs = (min(float(g) / mu, 1e308) for g in rng.uniform(0.0, 10.0, 2))
        elif i % 11 == 0:
            mu, ga, gs = float(rng.uniform(0.5, 2.0)), 1e308, float(rng.uniform(0, 1e308))
        else:
            mu = float(rng.uniform(0.5, 2.0))
        yield frac * mu, mu, n, UncertaintyParams(alpha, ga, gs)


# sha256 of the bits of all five bounds over bound_bits_cases(2500, 35):
# per call, the value's and m_star's float.hex() and the method, or the
# name of the exception raised.  A change to the bound path that keeps its
# arithmetic leaves this digest unchanged.
BOUND_BITS_SHA256 = "685c157a3dc81d6c1e3c6edff02c9fc8fc55945626c65678885021181c59c4ea"


def test_bound_bits_are_pinned():
    digest = hashlib.sha256()
    single = (worst_case_exact_single, bound_robust1_single, bound_robust2_single)
    two = (worst_case_exact_two, bound_robust3_two)
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, mu, n, unc in bound_bits_cases(2500, 35):
            for bounds, k in ((single, 1), (two, 2)):
                sysp = SystemParams(lam / k, mu, n, k)
                for bound in bounds:
                    try:
                        res = bound(sysp, unc)
                    except (NumericError, StabilityError) as exc:
                        entry = type(exc).__name__
                    else:
                        m_star = None if res.m_star is None else res.m_star.hex()
                        entry = f"{res.value.hex()} {m_star} {res.method}"
                    digest.update(f"{entry}\n".encode())
    assert digest.hexdigest() == BOUND_BITS_SHA256


class TestProperties:
    def test_monotone_in_gammas_and_service_mean(self):
        rng = np.random.default_rng(66)
        for _ in range(300):
            alpha = float(rng.uniform(1.05, 2.0))
            mu = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(0.05, 0.9)) * mu
            ga, gs = float(rng.uniform(0, 5)), float(rng.uniform(0, 5))
            n = int(rng.integers(1, 200))
            sysp = SystemParams(lam, mu, n, 1)
            base = bound_robust2_single(sysp, UncertaintyParams(alpha, ga, gs)).value
            assert bound_robust2_single(sysp, UncertaintyParams(alpha, ga + 0.5, gs)).value >= base - 1e-12
            assert bound_robust2_single(sysp, UncertaintyParams(alpha, ga, gs + 0.5)).value >= base - 1e-12
            slower = SystemParams(lam, mu * 0.9, n, 1)  # larger 1/mu
            if lam < slower.mu:
                assert bound_robust2_single(slower, UncertaintyParams(alpha, ga, gs)).value >= base - 1e-12

    def test_exact_monotone_in_n(self):
        rng = np.random.default_rng(75)
        for _ in range(200):
            alpha = float(rng.uniform(1.05, 2.0))
            mu = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(0.05, 1.5)) * mu
            unc = UncertaintyParams(alpha, float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
            n = int(rng.integers(1, 100))
            v1 = worst_case_exact_single(SystemParams(lam, mu, n, 1), unc).value
            v2 = worst_case_exact_single(SystemParams(lam, mu, n + 10, 1), unc).value
            assert v2 >= v1 - 1e-12

    def test_continuous_at_alpha_boundary(self):
        sysp = SystemParams(0.5, 1.0, 200, 1)
        v2 = bound_robust2_single(sysp, UncertaintyParams(2.0, 1.5, 0.5)).value
        v2eps = bound_robust2_single(sysp, UncertaintyParams(2.0 - 1e-9, 1.5, 0.5)).value
        assert math.isfinite(v2) and math.isfinite(v2eps)
        assert v2 == pytest.approx(v2eps, rel=1e-6)

    def test_heavy_tail_coefficient_near_one(self):
        # the stationary-point exponent alpha/(1-alpha) explodes as alpha -> 1;
        # l overflowing the float range must select the endpoint, not crash
        rng = np.random.default_rng(31337)
        for _ in range(300):
            alpha = float(rng.uniform(1.0005, 1.05))
            mu = float(rng.uniform(0.5, 2.0))
            frac = float(rng.uniform(0.05, 0.95))
            unc = UncertaintyParams(alpha, float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            n = int(rng.integers(1, 500))
            s1 = SystemParams(frac * mu, mu, n, 1)
            exact = worst_case_exact_single(s1, unc).value
            assert abs(bound_robust2_single(s1, unc).value - exact) <= 1e-9 * exact
            s2 = SystemParams(frac * mu / 2, mu, n, 2)
            exact2 = worst_case_exact_two(s2, unc).value
            assert abs(bound_robust3_two(s2, unc).value - exact2) <= 1e-9 * exact2

    def test_sample_path_soundness_with_empirical_gammas(self):
        # any realized path belongs to the uncertainty sets with its own
        # empirical gammas, so its S_n must sit below the exact worst case
        rng = np.random.default_rng(50)
        alpha = 2.0
        for _ in range(50):
            n = 150
            lam, mu = 0.7, 1.0
            t = rng.exponential(1.0 / lam, n)
            x = rng.exponential(1.0 / mu, n)
            sx = np.cumsum(x[::-1])[::-1]
            ln = np.arange(n, 0, -1, dtype=float)
            g_s = float(np.max((sx - ln / mu) / ln ** (1 / alpha)))
            st = np.cumsum(t[::-1])[::-1]
            mvals = np.arange(n, 0, -1, dtype=float)
            g_a = float(np.max(-(st - mvals / lam) / mvals ** (1 / alpha)))
            unc = UncertaintyParams(alpha, max(g_a, 0.0), max(g_s, 0.0))
            s_n = simulate_fcfs(t, x)[-1]
            bound = worst_case_exact_single(SystemParams(lam, mu, n, 1), unc).value
            assert s_n <= bound + 1e-9
