"""The NumPy kernels against plain-Python references."""

import numpy as np
import pytest

import paoiq
from paoiq import kernels
from paoiq.errors import ValidationError
from paoiq.stochastic import make_exponential, sample_stream


def tuples(count, seed, two_source=False):
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = 2.0 if i % 7 == 0 else float(rng.uniform(1.05, 2.0))
        mu = float(rng.uniform(0.5, 2.0))
        frac = float(rng.uniform(0.05, 1.5))  # includes overloaded systems
        lam = frac * mu / (2.0 if two_source else 1.0)
        ga = float(rng.uniform(0.0, 10.0))
        gs = float(rng.uniform(0.0, 10.0))
        n = int(rng.integers(1, 400))
        yield lam, mu, alpha, ga, gs, n


def scalar_lindley(t, x):
    """S_k = max(0, S_{k-1} - T_k) + X_k, one update at a time."""
    out, s = [], 0.0
    for tk, xk in zip(t, x):
        s = max(0.0, s - tk) + xk
        out.append(s)
    return out


def reference_max(f, grid):
    """(max of f over grid, its smallest argmax)."""
    return max(((f(m), m) for m in grid), key=lambda vm: (vm[0], -vm[1]))


def f_single(lam, mu, alpha, ga, gs):
    return lambda m: (m + 1) / mu - m / lam + gs * (m + 1) ** (1 / alpha) + ga * m ** (1 / alpha)


def f_two(lam, mu, alpha, ga, gs):
    def f(m):
        if m == -0.5:
            return 1 / mu + gs
        return (2 * (m + 1) / mu - m / lam
                + 2 * gs * (m + 1) ** (1 / alpha) + ga * m ** (1 / alpha))
    return f


def test_backend_reported():
    assert kernels.BACKEND == paoiq.BACKEND == "python"


def test_lindley_parity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 2000))
        t = rng.exponential(1.0, n)
        x = rng.exponential(0.9, n)
        assert np.allclose(kernels.lindley_system_times(t, x), scalar_lindley(t, x),
                           rtol=1e-9, atol=1e-9)


def test_exact_single_parity():
    for lam, mu, alpha, ga, gs, n in tuples(500, seed=2):
        value, m = kernels.exact_single_max(lam, mu, alpha, ga, gs, n)
        f = f_single(lam, mu, alpha, ga, gs)
        ref_value, ref_m = reference_max(f, range(n))
        assert value == pytest.approx(ref_value, rel=1e-12)
        # pow may differ in its last ulp, so a near-tie may pick another m
        assert m == ref_m or f(m) == pytest.approx(ref_value, rel=1e-12)


def test_exact_two_parity():
    for lam, mu, alpha, ga, gs, n in tuples(500, seed=3, two_source=True):
        value, m = kernels.exact_two_max(lam, mu, alpha, ga, gs, n)
        f = f_two(lam, mu, alpha, ga, gs)
        ref_value, ref_m = reference_max(f, [0.5 * k - 0.5 for k in range(n)])
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert m == ref_m or f(m) == pytest.approx(ref_value, rel=1e-12)


def test_lindley_single_element():
    out = kernels.lindley_system_times(np.array([2.0]), np.array([0.7]))
    assert out.tolist() == [0.7]


@pytest.mark.parametrize("k", [1, 2])
def test_exact_max_tie_breaks_to_smallest_m(k):
    # gammas zero and lam == mu/k make f constant on m >= 0, so m = 0 must be
    # reported; the two-source empty window is worth half of it
    kernel = kernels.exact_single_max if k == 1 else kernels.exact_two_max
    _, m = kernel(1.0 / k, 1.0, 2.0, 0.0, 0.0, 50)
    assert m == 0


@pytest.mark.parametrize("k", [1, 2])
def test_kept_grid_has_the_bits_of_a_fresh_one(k, monkeypatch):
    # grow, shrink, grow again: a smaller n slices the kept grid, and each
    # call must return what window_bound gives on a fresh grid of m
    monkeypatch.setattr(kernels, "_GRIDS", {})
    lam, mu, alpha, ga, gs = 0.8 / k, 1.0, 1.37, 2.5, 4.0
    for n in (3000, 7, 3000):
        value, m_star = kernels._exact_max(k, lam, mu, alpha, ga, gs, n)
        grid = np.arange(0.0, (n - k + 1) / k, 1 / k)
        vals = kernels.window_bound(grid, k, lam, mu, alpha, ga, gs)
        i = int(np.argmax(vals))
        assert (value, m_star) == (vals[i], grid[i])
        assert kernels._GRIDS[k].shape == (3001,)
    with pytest.raises(ValueError, match="read-only"):
        kernels._GRIDS[k][0] = 1.0


def test_lindley_work_matches_allocating_call():
    rng = np.random.default_rng(4)
    for n in (1, 2, 1000):
        t = rng.exponential(1.0, n)
        x = rng.exponential(0.9, n)
        work = np.full((3, n), np.nan)  # stale contents must not leak in
        out = kernels.lindley_system_times(t, x, work=work)
        assert np.shares_memory(out, work)
        assert np.array_equal(out, kernels.lindley_system_times(t, x))


def test_lindley_services_may_alias_the_result_row():
    # the layout of ``replicate``: services in work[2], where the result goes
    rng = np.random.default_rng(5)
    for n in (1, 2, 1000):
        t = rng.exponential(1.0, n)
        x = rng.exponential(0.9, n)
        work = np.full((3, n), np.nan)
        work[2] = x
        out = kernels.lindley_system_times(t, work[2], work)
        assert np.shares_memory(out, work[2])
        assert np.array_equal(out, kernels.lindley_system_times(t, x))


@pytest.mark.parametrize("lam", [1e-3, 1e-11])
def test_lindley_light_load_waits_are_never_negative(lam):
    # a difference of horizon-sized prefix sums gave S < X for 50,003 and
    # 56,532 of these updates, and S off by up to 1.99 at lam = 1e-11
    n = 100_000
    t = sample_stream(make_exponential(lam), n, 1)
    x = sample_stream(make_exponential(1.0), n, 2)
    s = kernels.lindley_system_times(t, x)
    assert not np.any(s < x)
    if lam == 1e-11:  # no update waits
        assert np.array_equal(s, x)


@pytest.mark.parametrize("work", [
    np.empty((2, 10)),
    np.empty((3, 11)),
    np.empty((3, 10), dtype=np.float32),
    np.empty(30),
    [[0.0] * 10] * 3,
    np.broadcast_to(np.zeros(10), (3, 10)),
], ids=["rows", "length", "float32", "flat", "list", "read-only"])
def test_lindley_work_rejects_wrong_shape_or_dtype(work):
    with pytest.raises(ValidationError, match="work must be"):
        kernels.lindley_system_times(np.ones(10), np.ones(10), work=work)
