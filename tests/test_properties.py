"""Property-based checks of the queue recursion, the two-source merge, the
worst-case bounds and the ``bound`` command line.

The examples are derandomized, so every run checks the same cases.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paoiq import robust_bounds as rb
from paoiq.cli import main
from paoiq.errors import NumericError
from paoiq.kernels import lindley_system_times
from paoiq.simulator import SystemParams, merge_arrivals

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
    # the prefix-sum form rounds at the scale of the whole path's horizon
    horizon = t.sum() + x.sum()
    np.testing.assert_allclose(lindley_system_times(t, x), expected,
                               rtol=1e-9, atol=1e-14 * horizon)


# small integer steps make equal arrival times across the sources common
steps = st.lists(st.integers(min_value=1, max_value=3), max_size=60)


@DETERMINISTIC
@given(steps, steps)
def test_merge_keeps_source_order_and_sends_ties_to_source_1(steps1, steps2):
    a1 = np.cumsum(np.array(steps1, dtype=np.float64))
    a2 = np.cumsum(np.array(steps2, dtype=np.float64))
    if len(a1) + len(a2) == 0:
        return
    merged, ids = merge_arrivals(a1, a2)
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
def test_closed_forms_equal_enumeration(sources, alpha, ga, gs, load, mu, n):
    sysp, unc = scenario(sources, load, mu, n), rb.UncertaintyParams(alpha, ga, gs)
    exact, closed = (bound(sysp, unc).value for bound in SOURCES[sources])
    assert closed == pytest.approx(exact, rel=1e-9)


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
       st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=50))
def test_monotone_in_gammas_and_n(sources, alpha, ga, gs, load, mu, n, dg, dn):
    exact, closed = SOURCES[sources]
    sysp = scenario(sources, load, mu, n)
    base = closed(sysp, rb.UncertaintyParams(alpha, ga, gs)).value
    tol = 1e-12 * base
    assert closed(sysp, rb.UncertaintyParams(alpha, ga + dg, gs)).value >= base - tol
    assert closed(sysp, rb.UncertaintyParams(alpha, ga, gs + dg)).value >= base - tol
    unc = rb.UncertaintyParams(alpha, ga, gs)
    longer = scenario(sources, load, mu, n + dn)
    shorter = exact(sysp, unc).value
    assert exact(longer, unc).value >= shorter - 1e-12 * shorter


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        row = out.getvalue().strip().split("\n")[-1].split(",")
        assert all(math.isfinite(float(x)) for x in row[7:9])
