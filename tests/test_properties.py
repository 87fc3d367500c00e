"""Property-based checks of the queue recursion, the two-source merge, the
worst-case bounds, their inversion in gamma_s, the scalar input rules and
every subcommand of the command line.

The examples are derandomized, so every run checks the same cases.
"""

import contextlib
import io
import json
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paoiq import kernels, simulator
from paoiq import robust_bounds as rb
from paoiq.calibration import (
    SCENARIOS,
    CalibrationCoefficients,
    CalibrationDataset,
    CalibrationRow,
    build_calibration_dataset,
    fit_theta,
    invert_gamma_s,
    map_variability,
)
from paoiq.cli import main
from paoiq.errors import NumericError, PaoiqError, ValidationError
from paoiq.experiments import FAMILIES, SweepConfig, family_spec, read_report_csv
from paoiq.kernels import lindley_system_times
from paoiq.simulator import SystemParams, _replicate_points, merge_arrivals
from paoiq.stochastic import make_exponential, make_folded_normal, make_pareto, make_uniform_mean

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)

positive = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@DETERMINISTIC
@given(st.lists(st.tuples(positive, positive), min_size=1, max_size=300))
def test_lindley_matches_scalar_recursion(pairs):
    t, x = (np.array(column) for column in zip(*pairs))
    expected, w = [], 0.0
    for k in range(len(x)):
        # waiting time W_k = max(0, W_{k-1} + X_{k-1} - T_k), with W_1 = 0
        if k:
            w = max(0.0, w + x[k - 1] - t[k])
        expected.append(w + x[k])
    # W = C - min C carries the roundings of the walk's prefix sums C, which
    # the whole path's horizon bounds in size
    horizon = t.sum() + x.sum()
    np.testing.assert_allclose(lindley_system_times(t, x), expected,
                               rtol=1e-9, atol=1e-14 * horizon)


def waiting_time_lindley(t, x):
    """The reflected-walk form with plain NumPy calls: S = X + C - min C,
    C the prefix sums of U_1 = 0, U_i = X_{i-1} - T_i."""
    c = np.cumsum(np.concatenate(([0.0], x[:-1] - t[1:])))
    return x + (c - np.minimum.accumulate(c))


@DETERMINISTIC
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=2**32),
       st.sampled_from(["none", "work", "services in work[2]"]),
       st.one_of(st.none(), st.tuples(st.sampled_from(["t", "x"]), st.floats(0.0, 1.0))))
def test_lindley_is_bitwise_the_waiting_time_form(n, seed, layout, nan_at):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    t = rng.exponential(scale, n)
    x = rng.exponential(scale * rng.uniform(0.2, 1.5), n)
    if nan_at is not None:
        stream, where = nan_at
        at = min(int(where * n), n - 1)
        (t if stream == "t" else x)[at] = np.nan
    expected = waiting_time_lindley(t, x)
    if layout == "none":
        got = lindley_system_times(t, x)
    else:
        work = np.full((3, n), np.inf)  # stale contents must not leak in
        if layout == "work":
            got = lindley_system_times(t, x, work)
        else:
            work[2] = x
            got = lindley_system_times(t, work[2], work)
        assert np.shares_memory(got, work)
    assert np.array_equal(got, expected, equal_nan=nan_at is not None)
    if nan_at is not None:
        # S is NaN from the planted position on; T_1 is never read
        first = n if (stream, at) == ("t", 0) else at
        assert not np.isnan(got[:first]).any()
        assert np.isnan(got[first:]).all()


def light_to_overloaded_path(n, seed):
    """Exponential interarrivals and services at a load drawn from 1e-12 to 2."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    load = 10.0 ** rng.uniform(-12, 0.3)
    return rng.exponential(scale / load, n), rng.exponential(scale, n)


@DETERMINISTIC
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=2**32))
def test_lindley_never_waits_less_than_zero(n, seed):
    t, x = light_to_overloaded_path(n, seed)
    s = lindley_system_times(t, x)
    assert s[0] == x[0]  # the first update finds the queue empty
    assert np.all(s >= x)


def exponential_path(n, load, seed):
    """n exponential interarrivals of mean 1 and services of mean ``load``."""
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0, n), rng.exponential(load, n)


# seeded exponential paths from light load to overload, and paths of
# arbitrary interarrivals and services from 1e-3 to 10
paths = st.one_of(
    st.builds(light_to_overloaded_path, st.integers(min_value=1, max_value=300),
              st.integers(min_value=0, max_value=2**32)),
    st.lists(st.tuples(positive, positive), min_size=1, max_size=300).map(
        lambda pairs: tuple(np.array(column) for column in zip(*pairs))),
)


@DETERMINISTIC
@given(paths)
@example(exponential_path(2000, 0.9, seed=1))  # long busy periods at high load
def test_lindley_within_the_summation_bound_of_the_exact_recursion(path):
    t, x = path
    n = len(x)
    s = lindley_system_times(t, x)
    # W*_i = max(0, W*_{i-1} + X_{i-1} - T_i) in exact rational arithmetic
    exact, w = [], Fraction(0)
    for i in range(n):
        if i:
            w = max(Fraction(0), w + Fraction(x[i - 1]) - Fraction(t[i]))
        exact.append(w + Fraction(x[i]))
    # With u = 2**-53 and C_i the float64 prefix sums of U_i = fl(X_{i-1} - T_i),
    # the recursive-summation bound gives, for every k <= i,
    # |(C_i - C_k) - sum_{k<j<=i} (X_{j-1} - T_j)| <= u sum_{j<=i} (|U_j| + |C_j|)
    # to first order, so max_k (C_i - C_k) is within that of W*_i.  The
    # rounded differences W = C - min C and S = X + W add u W and u S.
    # Doubling u covers the terms of order u**2.
    steps = np.concatenate(([0.0], x[:-1] - t[1:]))
    c = np.cumsum(steps)
    waits = c - np.minimum.accumulate(c)
    bound = 2 * 2.0**-53 * (np.cumsum(np.abs(steps) + np.abs(c)) + waits + s)
    error = np.array([float(abs(Fraction(si) - ei)) for si, ei in zip(s, exact)])
    assert np.all(error <= bound)


# small integer steps make equal arrival times across the sources common
steps = st.lists(st.integers(min_value=1, max_value=3), max_size=60)


@DETERMINISTIC
@given(steps, steps)
def test_merge_keeps_source_order_and_sends_ties_to_source_1(steps1, steps2):
    a1 = np.cumsum(np.array(steps1, dtype=np.float64))
    a2 = np.cumsum(np.array(steps2, dtype=np.float64))
    merged, order = merge_arrivals(np.concatenate((a1, a2)))
    ids = 1 + (order >= len(a1))
    assert np.all(np.diff(merged) >= 0)
    # every update is kept, each source in its own order
    assert np.array_equal(merged[ids == 1], a1)
    assert np.array_equal(merged[ids == 2], a2)
    # within a tie, source 1 comes first
    tied = merged[1:] == merged[:-1]
    assert not np.any(tied & (ids[:-1] == 2) & (ids[1:] == 1))


alphas = st.floats(min_value=1.0, max_value=2.0, exclude_min=True)
gammas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
loads = st.floats(min_value=0.01, max_value=0.99)
mus = st.floats(min_value=0.5, max_value=2.0)
sizes = st.integers(min_value=1, max_value=500)
SOURCES = {1: (rb.worst_case_exact_single, rb.bound_robust2_single),
           2: (rb.worst_case_exact_two, rb.bound_robust3_two)}


def scenario(sources, load, mu, n):
    return SystemParams(load * mu / sources, mu, n, sources)


@DETERMINISTIC
@given(st.sampled_from([1, 2]), alphas, gammas, gammas, loads, mus, sizes)
# robust3's worst case at its candidate floor(l) - 1: m_star = 26.0, l ~ 27.12
@example(2, 1.6116185723987844, 0.3389225051650624, 1.8679367935380853,
         0.6711956075260819, 1.3558468969287474, 266)
def test_closed_forms_equal_enumeration(sources, alpha, ga, gs, load, mu, n):
    sysp, unc = scenario(sources, load, mu, n), rb.UncertaintyParams(alpha, ga, gs)
    exact, closed = (bound(sysp, unc).value for bound in SOURCES[sources])
    assert closed == pytest.approx(exact, rel=1e-9)


@DETERMINISTIC
@given(st.sampled_from([1, 2]),
       st.one_of(st.just(2.0), st.floats(min_value=1.0, max_value=1.001, exclude_min=True),
                 alphas),
       gammas, gammas, st.floats(min_value=0.01, max_value=3.0), mus,
       st.integers(min_value=1, max_value=3000))
@example(1, 2.0, 0.0, 0.0, 2.5, 1.0, 3000)
@example(2, 1.0 + 1e-9, 0.0, 0.0, 1.5, 0.7, 2999)
def test_enumeration_has_the_bits_of_one_window_bound_call(k, alpha, ga, gs, load, mu, n):
    # the enumeration raises one shared grid to 1/alpha; it must return the
    # exact max and first argmax of window_bound evaluated on m in one call
    lam = load * mu / k
    kernel = kernels.exact_single_max if k == 1 else kernels.exact_two_max
    value, m_star = kernel(lam, mu, alpha, ga, gs, n)
    if n < k:
        assert (value, m_star) == (1.0 / mu + gs, kernels.EMPTY_WINDOW)
        return
    grid = np.arange(0.0, (n - k + 1) / k, 1 / k)
    vals = kernels.window_bound(grid, k, lam, mu, alpha, ga, gs)
    i = int(np.argmax(vals))
    assert (value, m_star) == (vals[i], grid[i])


@DETERMINISTIC
@given(alphas, gammas, gammas, loads, mus, sizes)
def test_robust1_dominates_exact(alpha, ga, gs, load, mu, n):
    sysp, unc = scenario(1, load, mu, n), rb.UncertaintyParams(alpha, ga, gs)
    try:
        relaxed = rb.bound_robust1_single(sysp, unc).value
    except NumericError:
        return  # beyond the float range, which no finite exact value can exceed
    assert relaxed >= rb.worst_case_exact_single(sysp, unc).value - 1e-12


@DETERMINISTIC
@given(st.sampled_from([1, 2]), alphas, gammas, gammas, loads, mus, sizes,
       st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=50),
       st.floats(min_value=0.0, max_value=1.0))
def test_monotone_in_gammas_and_n(sources, alpha, ga, gs, load, mu, n, dg, dn, slowdown):
    # the closed form rises with gamma_a, gamma_s and the mean service time
    # 1/mu, the enumeration with n
    exact, closed = SOURCES[sources]
    sysp = scenario(sources, load, mu, n)
    unc = rb.UncertaintyParams(alpha, ga, gs)
    base = closed(sysp, unc).value
    tol = 1e-12 * base
    assert closed(sysp, rb.UncertaintyParams(alpha, ga + dg, gs)).value >= base - tol
    assert closed(sysp, rb.UncertaintyParams(alpha, ga, gs + dg)).value >= base - tol
    slower = SystemParams(sysp.lam, mu / (1.0 + slowdown), n, sources)
    if slower.stable:
        assert closed(slower, unc).value >= base - tol
    longer = scenario(sources, load, mu, n + dn)
    shorter = exact(sysp, unc).value
    assert exact(longer, unc).value >= shorter - 1e-12 * shorter


@DETERMINISTIC
@given(st.sampled_from([1, 2]), alphas, gammas, loads, mus, sizes,
       st.floats(min_value=0.0, max_value=10.0))
def test_invert_gamma_s_is_the_least_ratio(sources, alpha, ga, load, mu, n, excess):
    sysp = scenario(sources, load, mu, n)
    closed = SOURCES[sources][1]
    target = closed(sysp, rb.UncertaintyParams(alpha, ga, 0.0)).value + excess
    gs = invert_gamma_s(sysp, alpha, ga, target)
    back = closed(sysp, rb.UncertaintyParams(alpha, ga, gs)).value
    assert back == pytest.approx(target, rel=1e-12)
    # the bound is the upper envelope of the line c_m + s_m*gamma_s of every window m
    windows = [j / sources for j in range(n - sources + 1)] + ([-0.5] if sources == 2 else [])
    least = min((target - rb.f(m, sources, sysp.lam, mu, alpha, ga, 0.0))
                / (1.0 if m == -0.5 else sources * (m + 1.0) ** (1.0 / alpha))
                for m in windows)
    assert gs == pytest.approx(least, rel=1e-12)


# finite extremes of the mapping's inputs: a float ``**`` of them can raise
# OverflowError where ``*`` gives inf, and a sum of them can overflow
huge_sigmas = st.floats(min_value=0.0, max_value=1e300)
huge_thetas = st.floats(min_value=-1e308, max_value=1e308)


def finite_theta(theta):
    return all(map(math.isfinite, (theta.theta0, theta.theta1, theta.theta2)))


@DETERMINISTIC
@given(huge_sigmas, huge_sigmas, st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
       huge_thetas, huge_thetas, huge_thetas)
@example(1e160, 1.0, 0.5, *SCENARIOS["single"].theta)
@example(1.0, 1.0, 0.5, 1e308, 1e308, 1e308)
def test_variability_mapping_is_finite_or_an_error(sigma_a, sigma_s, rho, t0, t1, t2):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clamp of a negative gamma_s
            gamma_a, gamma_s = map_variability(sigma_a, sigma_s, rho,
                                               CalibrationCoefficients(t0, t1, t2, "single"))
    except PaoiqError:
        return
    assert 0 <= gamma_a < math.inf and 0 <= gamma_s < math.inf


@DETERMINISTIC
@given(st.floats(), st.floats(), st.floats())
@example(math.nan, 1.0, 1.0)
@example(1.0, math.inf, 1.0)
def test_coefficients_are_finite_or_an_error(t0, t1, t2):
    try:
        theta = CalibrationCoefficients(t0, t1, t2, "single")
    except PaoiqError:
        return
    assert finite_theta(theta)


# a row as a dataset CSV read back with read_dataset_csv may hold it
row_values = st.floats() | st.floats(min_value=-1e300, max_value=1e300)


@DETERMINISTIC
@given(st.lists(st.tuples(row_values, row_values, row_values, row_values), max_size=8))
@example([(0.1, 1.0, 0.2, 0.0), (0.2, 2.0, 0.7, 0.3), (0.3, 3.0, 1.2, 0.6),
          (0.4, 4.0, 1.7, math.nan)])
@example([(0.1, 1.0, 0.2, 0.0), (0.2, 2.0, 0.7, 0.3), (0.3, 3.0, 1.2, 0.6),
          (0.4, 4.0, 1.7, math.inf)])
@example([(0.1, 1.0, 0.2, 0.0), (0.2, 2.0, 0.7, 0.3), (0.3, 3.0, 1.2, 0.6),
          (0.4, 4.0, 1.7, 1e200)])
# a finite design whose fitted theta2 overflows
@example([(0.1, 1.0, 0.2, 0.0), (0.2, 2.0, 0.7, 0.0), (0.3, 3.0, 1.2, 0.0),
          (0.4, 4.0, 1.7, 1.33e154)])
def test_fitted_theta_is_finite_or_an_error(rows):
    dataset = CalibrationDataset("single", [CalibrationRow(*r, "exponential", "exponential", 0)
                                            for r in rows])
    # every failure of the fit is numeric: ``calibrate`` exits 2
    try:
        theta = fit_theta(dataset)
    except NumericError:
        return
    assert finite_theta(theta)


@DETERMINISTIC
@given(alphas, gammas, gammas, loads, mus, st.one_of(st.integers(1, 3), sizes))
def test_empty_window_wins_only_at_one_update(alpha, ga, gs, load, mu, n):
    # f(0) = 2/mu + 2*gamma_s is twice the empty window's 1/mu + gamma_s
    sysp, unc = scenario(2, load, mu, n), rb.UncertaintyParams(alpha, ga, gs)
    for bound in SOURCES[2]:
        assert (bound(sysp, unc).m_star == -0.5) == (n == 1)



@DETERMINISTIC
@given(alphas, loads, mus, st.one_of(st.integers(1, 3), sizes))
def test_zero_radii_leave_the_service_floor(alpha, load, mu, n):
    # at gamma_a = gamma_s = 0 the window m = 0 charges two services for two
    # sources and one for one, so no map of the radii reaches below them;
    # a single update leaves two sources only the empty window
    unc = rb.UncertaintyParams(alpha, 0.0, 0.0)
    floor = (1.0 / mu, kernels.EMPTY_WINDOW) if n == 1 else (2.0 / mu, 0.0)
    for sources, expected in ((2, floor), (1, (1.0 / mu, 0.0))):
        for bound in SOURCES[sources]:
            result = bound(scenario(sources, load, mu, n), unc)
            assert (result.value, result.m_star) == expected


@DETERMINISTIC
@given(st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=1e-3, max_value=0.585),
       st.integers(min_value=2, max_value=500))
@example(mu=1.0, load=0.02, n=10**5)
def test_light_load_identity_of_one_source(mu, load, n):
    # gamma_a = 1/lam at alpha = 2 makes the arrival span of the window m = 1,
    # -1/lam + gamma_a*1, exactly 0, so that window charges two services;
    # f(m) - f(1) = (m - 1)/mu - (m - sqrt(m))/lam is negative for every
    # m >= 2 while lam/mu < sqrt(2)/(1 + sqrt(2)) = 0.5858; and 2/mu is a
    # power of two, so (2/mu - 1/lam) + 1/lam rounds back to 2/mu exactly
    sysp = scenario(1, load, mu, n)
    unc = rb.UncertaintyParams(2.0, 1.0 / sysp.lam, 0.0)
    for bound in SOURCES[1]:
        result = bound(sysp, unc)
        assert (result.value, result.m_star) == (2.0 / mu, 1.0)


# Witness paths.  Robust queueing (Bandi, Bertsimas & Youssef, "Robust
# Queueing Theory", Operations Research 2015) attains the worst case on the
# boundary of the uncertainty set, so a boundary path fed through the queue
# checks the window expression against the queue rather than against
# another evaluation of itself.

# gamma_a as a fraction of 1/lam: below 1, every witness interarrival is positive
gamma_a_fracs = st.floats(min_value=0.0, max_value=0.99)


def increments(count, alpha, k=1):
    """k*((j/k)^(1/alpha) - ((j-1)/k)^(1/alpha)) for j = count, ..., 1, so that
    the last J entries sum to k*(J/k)^(1/alpha)."""
    j = np.arange(count, 0, -1, dtype=np.float64)
    return k * ((j / k) ** (1.0 / alpha) - ((j - 1.0) / k) ** (1.0 / alpha))


def meets_suffix_constraints(t, x, lam, mu, alpha, ga, gs, k=1):
    """Whether, up to rounding, the last J interarrivals of ``t`` sum to at
    least J/lam - gamma_a*J^(1/alpha) and the last J services of ``x`` to at
    most J/mu + k*gamma_s*(J/k)^(1/alpha), for every J."""
    j = np.arange(1, len(t) + 1, dtype=np.float64)
    slack = ga * j ** (1.0 / alpha)
    arrivals_ok = np.cumsum(t[::-1]) >= j / lam - slack - 1e-12 * (j / lam + slack)
    j = np.arange(1, len(x) + 1, dtype=np.float64)
    cap = j / mu + k * gs * (j / k) ** (1.0 / alpha)
    return bool(np.all(arrivals_ok) and np.all(np.cumsum(x[::-1]) <= cap * (1 + 1e-12)))


def single_witness(sysp, alpha, ga, gs):
    """With delta_j = j^(1/alpha) - (j-1)^(1/alpha), j counted back from
    update n: T_i = 1/lam - gamma_a*delta_j and X_i = 1/mu + gamma_s*delta_j."""
    delta = increments(sysp.n, alpha)
    return 1.0 / sysp.lam - ga * delta, 1.0 / sysp.mu + gs * delta


@DETERMINISTIC
@given(alphas, gamma_a_fracs, gammas, loads, mus, sizes)
def test_single_source_witness_attains_exact_worst_case(alpha, ga_frac, gs, load, mu, n):
    # every suffix constraint holds with equality, so the window of every m
    # reaches f(m) and update n waits the exact worst case
    sysp = scenario(1, load, mu, n)
    ga = ga_frac / sysp.lam
    t, x = single_witness(sysp, alpha, ga, gs)
    assert meets_suffix_constraints(t, x, sysp.lam, mu, alpha, ga, gs)
    exact = rb.worst_case_exact_single(sysp, rb.UncertaintyParams(alpha, ga, gs)).value
    assert lindley_system_times(t, x)[-1] == pytest.approx(exact, rel=1e-10)


@DETERMINISTIC
@given(alphas, gamma_a_fracs, gammas, loads, mus, sizes, st.floats(0.0, 1.0))
def test_mixes_of_witness_and_nominal_path_stay_sound(alpha, ga_frac, gs, load, mu, n, w):
    # the uncertainty set is convex and holds the nominal path T = 1/lam, X = 1/mu
    sysp = scenario(1, load, mu, n)
    ga = ga_frac / sysp.lam
    t, x = single_witness(sysp, alpha, ga, gs)
    t, x = w * t + (1.0 - w) / sysp.lam, w * x + (1.0 - w) / mu
    assert meets_suffix_constraints(t, x, sysp.lam, mu, alpha, ga, gs)
    exact = rb.worst_case_exact_single(sysp, rb.UncertaintyParams(alpha, ga, gs)).value
    assert lindley_system_times(t, x)[-1] <= exact * (1 + 1e-10)


@DETERMINISTIC
@given(alphas, gamma_a_fracs, gammas, loads, mus, st.integers(min_value=1, max_value=250))
def test_two_source_witness_attains_integer_windows(alpha, ga_frac, gs, load, mu, per_source):
    """Both sources arrive at the single-source witness's instants, and
    source 1 goes first at each tie.  The 2p merged services have suffix sums
    J/mu + 2*gamma_s*(J/2)^(1/alpha).  The last J = 2(m+1) merged updates
    span m interarrivals, so their window reaches f(m) at every integer m;
    an odd window spans as many interarrivals as the even one after it, with
    less service.  The path therefore attains the integer-grid max, and the
    bound whenever m_star is an integer.

    Known gap: no path attains a half-integer m_star below the grid's top
    (the only kind at even n), and none can while each source meets its own
    suffix constraints.  The last 2q+3 merged updates hold the last q+2
    updates of one source, so they span at least
    A(q+1) = (q+1)/lam - gamma_a*(q+1)^(1/alpha), whereas f(q+1/2) counts
    A(q+1/2); and f(q+1/2) >= f(q+1) forces A(q+1) > A(q+1/2).  There the
    bound is a relaxation, which this test checks only for soundness.
    """
    sysp = scenario(2, load, mu, 2 * per_source)
    ga = ga_frac / sysp.lam
    t = 1.0 / sysp.lam - ga * increments(per_source, alpha)
    x = 1.0 / mu + gs * increments(sysp.n, alpha, k=2)
    assert meets_suffix_constraints(t, x, sysp.lam, mu, alpha, ga, gs, k=2)
    gaps = np.zeros(sysp.n)
    gaps[0::2] = t
    s_n = lindley_system_times(gaps, x)[-1]
    integer_max = max(rb.f(float(m), 2, sysp.lam, mu, alpha, ga, gs) for m in range(per_source))
    assert s_n == pytest.approx(integer_max, rel=1e-10)
    exact = rb.worst_case_exact_two(sysp, rb.UncertaintyParams(alpha, ga, gs))
    assert s_n <= exact.value * (1 + 1e-10)
    if exact.m_star.is_integer():
        assert s_n == pytest.approx(exact.value, rel=1e-10)


# Every site of the two scalar range rules: (rule, the name its message
# gives, a call with that one value varied and every other input valid).
_THETA = CalibrationCoefficients(1.0, 1.0, 1.0, "single")


def _sweep_rate(v):
    return SweepConfig("single", lambdas=(v,))


RANGE_SITES = [
    ("> 0", "lam", lambda v: SystemParams(v, 1.0, 10)),
    ("> 0", "mu", lambda v: SystemParams(0.5, v, 10)),
    ("> 0", "exponential rate", make_exponential),
    ("> 0", "folded-normal scale", lambda v: make_folded_normal(1.0, v)),
    ("> 0", "uniform mean", make_uniform_mean),
    ("> 0", "pareto scale", lambda v: make_pareto(2.5, v)),
    *[("> 0", f"{family} mean", lambda v, family=family: family_spec(family, v))
      for family in ("exponential", "normal", "uniform")],
    ("> 0", "mu", lambda v: rb.system_bound("robust2", 1e-300, v, 10,
                                            rb.UncertaintyParams(2.0, 0.0, 0.0))),
    ("> 0", "lam", _sweep_rate),
    ("> 0", "rho", lambda v: map_variability(0.0, 1.0, v, _THETA)),
    ("> 0", "lam", lambda v: rb.kingman_bound(v, 2 * v, 1.0, 1.0)),
    ("> 0", "mu", lambda v: rb.kingman_bound(1e-300, v, 1.0, 1.0)),
    ("> 0", "lam", lambda v: rb.paoi_from_system_bound(rb.BoundResult(1.0, "robust2"), v)),
    (">= 0", "sigma_a", lambda v: map_variability(v, 1.0, 1.0, _THETA)),
    (">= 0", "sigma_s", lambda v: map_variability(0.0, v, 1.0, _THETA)),
    (">= 0", "gamma_a", lambda v: rb.UncertaintyParams(1.5, v, 0.0)),
    (">= 0", "gamma_s", lambda v: rb.UncertaintyParams(1.5, 0.0, v)),
    (">= 0", "var_a", lambda v: rb.kingman_bound(0.5, 1.0, v, 1.0)),
    (">= 0", "var_s", lambda v: rb.kingman_bound(0.5, 1.0, 1.0, v)),
]
OUT_OF_RANGE = {
    "> 0": st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=0.0),
    ">= 0": st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(max_value=-5e-324),
}
IN_RANGE = {"> 0": st.floats(1e-100, 1e100), ">= 0": st.floats(0.0, 1e100)}
# a sweep's rates are in units of mu = 1, so one in range must also be stable
IN_RANGE_AT = {_sweep_rate: st.floats(1e-100, 0.99)}


@pytest.mark.parametrize("rule, name, call", RANGE_SITES,
                         ids=[f"{name}-{i}" for i, (_, name, _) in enumerate(RANGE_SITES)])
@settings(DETERMINISTIC, max_examples=40)
@given(st.data())
def test_scalar_range_rules_hold_at_every_site(rule, name, call, data):
    bad = data.draw(OUT_OF_RANGE[rule], label="out of range")
    with pytest.raises(ValidationError) as exc:
        call(bad)
    assert str(exc.value).startswith(f"{name} must be finite and {rule}, got ")
    call(data.draw(IN_RANGE_AT.get(call, IN_RANGE[rule]), label="in range"))


def run_main(argv):
    """``main(argv)`` with its exit code and captured stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def numbers(*valid):
    return st.sampled_from([*valid, "nan", "inf", "1e308", "-1", "abc"])


@DETERMINISTIC
@given(st.sampled_from(rb.METHODS), numbers("0.2", "0.5", "0.9"), numbers("1", "2"),
       numbers("1.001", "1.5", "2"), numbers("0", "1", "5"), numbers("0", "0.4", "5"),
       st.one_of(st.integers(min_value=1, max_value=10_000).map(str), numbers()),
       numbers("1"), numbers("1"))
def test_bound_cli_exits_cleanly(method, lam, mu, alpha, ga, gs, n, var_a, var_s):
    argv = ["bound", "--method", method, "--lambda", lam, "--mu", mu, "--alpha", alpha,
            "--gamma-a", ga, "--gamma-s", gs, "--n", n, "--var-a", var_a, "--var-s", var_s]
    code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        row = out.strip().split("\n")[-1].split(",")
        assert all(math.isfinite(float(x)) for x in row[7:9])


# The other subcommands read config files.  Each example is a valid
# document, or one with a single field (or a distribution's first parameter,
# "<field>.param") set to an invalid value, or with an unknown field added.
# Half of the invalid values are huge integers, which a size field must
# reject; they stay >= 10**13, where NumPy refuses an unchecked size before
# allocating anything.
INVALID = st.one_of(
    st.sampled_from([0, -1, 1e-300, 1e308, math.inf, math.nan,
                     "abc", "1", None, True, [1], {"a": 1}]),
    st.sampled_from([10**13, 10**18]),
)
FUZZ = settings(DETERMINISTIC, max_examples=60)

specs = st.sampled_from([
    {"kind": "exponential", "rate": 1.0},
    {"kind": "uniform", "mean": 2.0},
    {"kind": "folded_normal", "location": 1.0, "scale": 0.5},
    {"kind": "pareto", "shape": 1.5, "scale": 0.5},
])


def documents(fields: dict):
    """(document, corrupted): a valid document of ``fields``, or one with one
    entry corrupted."""
    names = [None, None, None, "replicatons", *fields,
             *(f"{k}.param" for k in fields if k in ("interarrival", "service"))]
    return st.builds(_corrupt, st.fixed_dictionaries(fields), st.sampled_from(names), INVALID)


def _corrupt(doc: dict, name, bad) -> tuple[dict, bool]:
    if name is None:
        return doc, False
    if name.endswith(".param"):
        field = name.removesuffix(".param")
        spec = doc[field] = dict(doc[field])  # the drawn spec is shared
        spec[next(k for k in spec if k != "kind")] = bad
    else:
        doc[name] = bad
    return doc, True


def run_with_file(tmp_path_factory, name, content, argv):
    """Run ``argv`` with "{file}" naming ``content`` written to a fresh directory
    and "{dir}" that directory; check the exit code and stderr."""
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(content)
    code, out, err = run_main([arg.replace("{file}", str(path)).replace("{dir}", str(path.parent))
                               for arg in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    return code, out, path.parent


@FUZZ
@given(documents({
    "n": st.sampled_from([4, 2000]),
    "sources": st.sampled_from([1, 2]), "replications": st.sampled_from([1, 3]),
    "warmup_fraction": st.sampled_from([0.0, 0.5]), "master_seed": st.just(7),
    "interarrival": specs, "service": specs,
}))
@example(({"n": 2000, "sources": 2, "interarrival": {"kind": "exponential", "rate": 0.25},
           "service": {"kind": "uniform", "mean": 1.0}}, False))
def test_simulate_cli_exits_cleanly(tmp_path_factory, drawn):
    doc, corrupted = drawn
    code, out, _ = run_with_file(tmp_path_factory, "sim.json", json.dumps(doc),
                                 ["simulate", "--config", "{file}"])
    assert corrupted or code == 0
    if code == 0:
        row = out.strip().split("\n")[-1].split(",")
        assert all(math.isfinite(float(x)) for x in row if x)


@FUZZ
@given(documents({
    "scenario": st.sampled_from(["single", "two"]),
    "lambdas": st.sampled_from([[0.2], [0.4, 0.2]]), "n": st.just(2000),
    "replications": st.sampled_from([1, 3]), "warmup_fraction": st.just(0.1),
    "interarrival_family": st.sampled_from(["exponential", "normal"]),
    "service_family": st.sampled_from(["exponential", "uniform"]),
    "master_seed": st.just(0),
}))
@example(({"scenario": "two", "lambdas": [0.4, 0.2], "n": 2000}, False))
def test_sweep_cli_exits_cleanly(tmp_path_factory, drawn):
    doc, corrupted = drawn
    code, _, workdir = run_with_file(tmp_path_factory, "sweep.json", json.dumps(doc),
                                     ["sweep", "--config", "{file}", "--out", "{dir}/r.csv"])
    assert corrupted or code == 0
    if code == 0:
        report = read_report_csv(workdir / "r.csv")
        assert all(math.isfinite(r.sim_paoi_mean) and math.isfinite(r.sim_paoi_ci95)
                   for r in report.rows)
        # a failed bound reads nan; the sweep exits 2 when every one failed
        assert not any(math.isinf(r.bound_paoi) for r in report.rows)
        assert any(math.isfinite(v) for v in report.error_percents.values())


# four points whose inversion succeeds at n = 2000, loads 0.8 to 0.9; the
# last three alone have rank 3, whatever service the first point draws
CAL_POINTS = [
    {"lam": 0.8, "interarrival": {"kind": "exponential", "rate": 0.8},
     "service": {"kind": "exponential", "rate": 1.0}},
    {"lam": 0.85, "interarrival": {"kind": "uniform", "mean": 1 / 0.85},
     "service": {"kind": "exponential", "rate": 1.0}},
    {"lam": 0.9, "interarrival": {"kind": "exponential", "rate": 0.9},
     "service": {"kind": "uniform", "mean": 1.0}},
    {"lam": 0.85, "interarrival": {"kind": "uniform", "mean": 1 / 0.85},
     "service": {"kind": "uniform", "mean": 1.0}},
]


@FUZZ
@given(documents({
    "mu": st.just(1.0), "n": st.just(2000), "replications": st.just(3),
    "warmup_fraction": st.just(0.1), "master_seed": st.sampled_from([0, 5]),
    # services of mean 1 (the folded normal's is 1.008): load 0.8 at lam 0.8
    "lam": st.just(0.8), "service": st.sampled_from([
        {"kind": "exponential", "rate": 1.0},
        {"kind": "uniform", "mean": 1.0},
        {"kind": "folded_normal", "location": 1.0, "scale": 0.5},
    ]),
}))
def test_calibrate_cli_exits_cleanly(tmp_path_factory, drawn):
    doc, corrupted = drawn
    # the first point takes "lam" and "service"; the rest are grid settings
    first = {**CAL_POINTS[0], "lam": doc.pop("lam"), "service": doc.pop("service")}
    code, _, workdir = run_with_file(
        tmp_path_factory, "grid.json", json.dumps({**doc, "points": [first, *CAL_POINTS[1:]]}),
        ["calibrate", "--scenario", "single", "--grid", "{file}",
         "--out", "{dir}/theta.json"])
    assert corrupted or code == 0
    if code == 0:
        theta = json.loads((workdir / "theta.json").read_text())
        assert all(math.isfinite(theta[k]) for k in ("theta0", "theta1", "theta2"))


cells = st.sampled_from(["0", "-1", "1e-300", "1e308", "inf", "nan", "4", "abc"])


@FUZZ
@given(st.lists(st.tuples(cells, cells, cells), max_size=3),
       st.lists(st.tuples(st.sampled_from(["kingman", "robust1", "robust2", "robust3"]), cells),
                max_size=3))
def test_report_cli_exits_cleanly(tmp_path_factory, rows, summary):
    text = "lambda,sim_paoi_mean,sim_paoi_ci95,method,bound_paoi,rel_error\n"
    text += "".join(f"0.5,{sim},0.1,robust2,{bound},{rel}\n" for sim, bound, rel in rows)
    text += "method,error_percent\n" + "".join(f"{m},{pct}\n" for m, pct in summary)
    code, out, _ = run_with_file(tmp_path_factory, "report.csv", text,
                                 ["report", "--in", "{file}"])
    if code == 0:
        assert "nan" not in out and "inf" not in out


# Fan-out.  With FORK_MIN_UPDATES patched to 1 every drawn grid forks, over
# 1 to 4 fake CPUs and at most ``cap`` processes of n updates each, so an
# example starts at most 3 children; each result must have the bits of the
# same call on affinity {0}.
FORKED = settings(DETERMINISTIC, max_examples=60,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
grid_points = st.tuples(st.floats(min_value=0.1, max_value=0.8), st.sampled_from(FAMILIES),
                        st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=2**32))


def on_cpus(cpus, cap, call):
    """``call()`` on ``cpus`` fake CPUs, forking at any size, with
    ``MAX_REPLICATE_N // n`` = ``cap``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "FORK_MIN_UPDATES", 1)
        m.setattr(simulator, "MAX_REPLICATE_N", cap)
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return call()


def bits(summary):
    return (summary.mean_paoi, summary.mean_system_time, summary.ci95_paoi,
            summary.per_source_paoi, summary.paoi_rep_means.tobytes())


def grid_point(sources, n, load, family_a, family_s, seed):
    """(system, laws, seed) at total load ``load`` with mean service 1."""
    ia, svc = family_spec(family_a, sources / load), family_spec(family_s, 1.0)
    return SystemParams.realized(ia, svc, n, sources), ia, svc, seed


@pytest.mark.usefixtures("no_child_outlives")
@FORKED
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 2]),
       st.integers(4, 300), st.integers(1, 20), st.lists(grid_points, min_size=1, max_size=12),
       st.sampled_from([0.0, 0.1, 0.5]))
def test_grid_point_blocks_have_the_bits_of_one_cpu(cpus, cap, sources, n, replications,
                                                    drawn, warmup):
    points = [grid_point(sources, n, *point) for point in drawn]

    def call():
        return [bits(s) for s in _replicate_points(points, replications, warmup)]

    assert on_cpus(cpus, cap * n, call) == on_cpus(1, cap * n, call)


@pytest.mark.usefixtures("no_child_outlives")
@FORKED
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(["single", "two"]),
       st.integers(4, 100), st.integers(1, 5), st.lists(grid_points, min_size=3, max_size=12),
       st.sampled_from([0.0, 0.1, 0.5]))
def test_calibration_blocks_have_the_bits_of_one_cpu(cpus, cap, scenario, n, replications,
                                                     drawn, warmup):
    # the first point's drawn seed is the master seed of the grid
    sources = SCENARIOS[scenario].sources
    grid = [(family_spec(family_a, sources / load), family_spec(family_s, 1.0))
            for load, family_a, family_s, _ in drawn]

    def call():
        """The rows and the skip warnings."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = build_calibration_dataset(grid, scenario, n, replications, warmup,
                                           drawn[0][3])
        return ds.rows, [(w.category, str(w.message)) for w in caught]

    assert on_cpus(cpus, cap * n, call) == on_cpus(1, cap * n, call)
