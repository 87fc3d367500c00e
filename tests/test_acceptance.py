"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest

from paoiq.calibration import builtin_theta, invert_gamma_s, map_variability
from paoiq.experiments import SweepConfig, report_to_csv_text, run_sweep
from paoiq.robust_bounds import (
    UncertaintyParams,
    bound_robust1_single,
    bound_robust2_single,
    bound_robust3_two,
    worst_case_exact_single,
    worst_case_exact_two,
)
from paoiq.seeding import derive_seed
from paoiq.simulator import SystemParams, replicate, simulate_fcfs
from paoiq.stochastic import make_exponential, sample_stream

GRID_SIZE = 10_000
REL_TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_tuples(count, seed, two_source):
    rng = np.random.default_rng(seed)
    for i in range(count):
        alpha = 2.0 if i % 10 == 0 else float(rng.uniform(1.05, 2.0))
        mu = float(rng.uniform(0.5, 2.0))
        load = float(rng.uniform(0.05, 0.95))
        lam = load * mu / (2.0 if two_source else 1.0)
        ga = 0.0 if i % 19 == 0 else float(rng.uniform(0.0, 10.0))
        gs = 0.0 if i % 29 == 0 else float(rng.uniform(0.0, 10.0))
        n = int(rng.integers(1, 501))
        yield SystemParams(lam, mu, n, 2 if two_source else 1), UncertaintyParams(alpha, ga, gs)


@pytest.fixture(scope="module")
def single_grid_results():
    """Shared pass over the criterion-1 grid: oracle equality and dominance."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    dominance_margin = np.inf
    for sysp, unc in _random_tuples(GRID_SIZE, seed=20240101, two_source=False):
        exact = worst_case_exact_single(sysp, unc).value
        closed = bound_robust2_single(sysp, unc).value
        worst_rel = max(worst_rel, abs(closed - exact) / max(abs(exact), 1e-300))
        relaxed = bound_robust1_single(sysp, unc).value
        dominance_margin = min(dominance_margin, relaxed - exact)
    return {"worst_rel": worst_rel, "dominance_margin": dominance_margin,
            "elapsed": time.perf_counter() - t0}


def test_criterion_1_single_source_oracle_equality(single_grid_results):
    r = single_grid_results
    ok = r["worst_rel"] <= REL_TOL and r["elapsed"] < 10.0
    _report(
        "criterion 1",
        ok,
        f"closed form vs enumeration over {GRID_SIZE} tuples: worst rel diff "
        f"{r['worst_rel']:.2e} (tol {REL_TOL}), elapsed {r['elapsed']:.2f}s (< 10s)",
    )


def test_criterion_2_two_source_oracle_equality():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for sysp, unc in _random_tuples(GRID_SIZE, seed=20240202, two_source=True):
        exact = worst_case_exact_two(sysp, unc).value
        closed = bound_robust3_two(sysp, unc).value
        worst_rel = max(worst_rel, abs(closed - exact) / max(abs(exact), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= REL_TOL and elapsed < 10.0
    _report(
        "criterion 2",
        ok,
        f"closed form vs half-integer enumeration over {GRID_SIZE} tuples: worst rel "
        f"diff {worst_rel:.2e} (tol {REL_TOL}), elapsed {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_relaxation_dominance(single_grid_results):
    margin = single_grid_results["dominance_margin"]
    ok = margin >= -1e-12
    _report(
        "criterion 3",
        ok,
        f"exact worst case <= relaxed bound on every stable tuple; smallest "
        f"(relaxed - exact) = {margin:.3e}",
    )


def test_criterion_4_mm1_simulator_oracle():
    t0 = time.perf_counter()
    summary = replicate(
        SystemParams(lam=0.5, mu=1.0, n=100_000, sources=1),
        make_exponential(0.5),
        make_exponential(1.0),
        replications=50,
        warmup_fraction=0.1,
        master_seed=0,
    )
    elapsed = time.perf_counter() - t0
    rel = abs(summary.mean_paoi - 4.0) / 4.0
    ok = rel < 0.02 and elapsed < 30.0
    _report(
        "criterion 4",
        ok,
        f"M/M/1 mean PAoI {summary.mean_paoi:.4f} vs closed form 4.0 "
        f"(rel err {rel:.4%}, tol 2%), elapsed {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_error_percent_windows(table_sweeps):
    single = table_sweeps["single"].error_percents
    two = table_sweeps["two"].error_percents
    elapsed = table_sweeps["elapsed"]
    windows = {
        "robust2": (8.32, 4.0, single["robust2"]),
        "kingman": (33.86, 6.0, single["kingman"]),
        "robust1": (32.01, 6.0, single["robust1"]),
        "robust3": (12.68, 5.0, two["robust3"]),
    }
    in_window = {
        name: abs(got - center) <= tol for name, (center, tol, got) in windows.items()
    }
    ordering = single["robust2"] < single["kingman"] and single["robust2"] < single["robust1"]
    positive = all(got > 0 for _, _, got in windows.values())
    ok = all(in_window.values()) and ordering and positive and elapsed < 300.0
    detail = ", ".join(
        f"{name} {got:.2f}% (target {center}+-{tol})"
        for name, (center, tol, got) in windows.items()
    )
    _report(
        "criterion 5",
        ok,
        f"{detail}; ordering robust2 strictly best: {ordering}; "
        f"elapsed {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_light_and_heavy_load_shape(table_sweeps):
    rows = table_sweeps["single"].rows
    lams = sorted({r.lam for r in rows})
    lightest, heaviest = lams[0], lams[-1]
    err = {(r.lam, r.method): r.rel_error for r in rows}
    ok = all(
        err[(lam, "robust2")] < err[(lam, "kingman")]
        and err[(lam, "robust2")] < err[(lam, "robust1")]
        for lam in (lightest, heaviest)
    )
    _report(
        "criterion 6",
        ok,
        f"robust2 rel error at lam={lightest}: {err[(lightest, 'robust2')]:.3f} vs "
        f"kingman {err[(lightest, 'kingman')]:.3f}, robust1 {err[(lightest, 'robust1')]:.3f}; "
        f"at lam={heaviest}: {err[(heaviest, 'robust2')]:.3f} vs "
        f"kingman {err[(heaviest, 'kingman')]:.3f}, robust1 {err[(heaviest, 'robust1')]:.3f}",
    )


def test_criterion_7_calibration_recovery():
    import math

    from paoiq.calibration import CalibrationDataset, CalibrationRow, fit_theta

    def synthetic(theta, noise, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for rho in (0.2, 0.4, 0.6, 0.8):
            for sa in (0.5, 1.0, 1.5):
                for ss in (0.5, 1.0, 2.0):
                    gs = math.sqrt(theta[0] + theta[1] * ss**2 + theta[2] * sa**2 * rho**2) - sa
                    if noise:
                        gs *= 1.0 + noise * rng.standard_normal()
                    rows.append(CalibrationRow(rho, sa, ss, gs, "exponential", "exponential", 0))
        return CalibrationDataset("single", rows)

    t0 = time.perf_counter()
    theta_true = (0.5, 3.0, 0.8)
    exact = fit_theta(synthetic(theta_true, noise=0.0, seed=0))
    exact_err = max(
        abs(exact.theta0 - theta_true[0]),
        abs(exact.theta1 - theta_true[1]),
        abs(exact.theta2 - theta_true[2]),
    )
    noisy = fit_theta(synthetic(theta_true, noise=0.01, seed=11))
    noisy_rel = max(
        abs(noisy.theta0 - theta_true[0]) / theta_true[0],
        abs(noisy.theta1 - theta_true[1]) / theta_true[1],
        abs(noisy.theta2 - theta_true[2]) / theta_true[2],
    )
    elapsed = time.perf_counter() - t0
    ok = exact_err <= 1e-8 and noisy_rel <= 0.05 and elapsed < 5.0
    _report(
        "criterion 7",
        ok,
        f"noiseless recovery err {exact_err:.2e} (tol 1e-8); 1%-noise recovery "
        f"rel err {noisy_rel:.4f} (tol 0.05); elapsed {elapsed:.2f}s (< 5s)",
    )


def test_criterion_8_inversion_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(321)
    worst = 0.0
    for i in range(100):
        two_source = i % 2 == 1
        mu = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.1, 0.9)) * mu / (2.0 if two_source else 1.0)
        n = int(rng.integers(50, 2000))
        sysp = SystemParams(lam, mu, n, 2 if two_source else 1)
        gamma_a = float(rng.uniform(0.0, 3.0))
        gs_true = float(rng.uniform(0.0, 5.0))
        fn = bound_robust3_two if two_source else bound_robust2_single
        target = fn(sysp, UncertaintyParams(2.0, gamma_a, gs_true)).value
        gs_hat = invert_gamma_s(sysp, 2.0, gamma_a, target)
        back = fn(sysp, UncertaintyParams(2.0, gamma_a, gs_hat)).value
        worst = max(worst, abs(back - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        "criterion 8",
        ok,
        f"bound(invert(target)) vs target over 100 stable configs: worst rel "
        f"{worst:.2e} (tol 1e-6); elapsed {elapsed:.2f}s (< 5s)",
    )


def test_criterion_9_sweep_determinism():
    config = SweepConfig(
        scenario="single", lambdas=(0.3, 0.6, 0.9), n=20_000, replications=5, master_seed=7
    )
    text_a = report_to_csv_text(run_sweep(config))
    text_b = report_to_csv_text(run_sweep(config))
    ok = text_a.encode() == text_b.encode()
    _report(
        "criterion 9",
        ok,
        f"two sweeps with an identical config serialized to "
        f"{'identical' if ok else 'DIFFERENT'} bytes ({len(text_a)} bytes)",
    )


def _set_membership(t, x, lam, mu, gamma_a, gamma_s, alpha=2.0):
    """Direct check of the partial-sum constraints defining the uncertainty sets."""
    n = len(x)
    suffix_x = np.cumsum(x[::-1])[::-1]
    len_x = np.arange(n, 0, -1, dtype=float)
    services_ok = np.all((suffix_x - len_x / mu) / len_x ** (1.0 / alpha) <= gamma_s)
    suffix_t = np.cumsum(t[::-1])[::-1]
    len_t = np.arange(n, 0, -1, dtype=float)
    arrivals_ok = np.all((suffix_t - len_t / lam) / len_t ** (1.0 / alpha) >= -gamma_a)
    return services_ok and arrivals_ok


def test_criterion_10_uncertainty_set_soundness():
    lam, mu, n = 0.9, 1.0, 200
    theta = builtin_theta("single")
    spec_t, spec_x = make_exponential(lam), make_exponential(mu)
    gamma_a, gamma_s = map_variability(spec_t.std, spec_x.std, lam / mu, theta)
    bound = worst_case_exact_single(
        SystemParams(lam, mu, n, 1), UncertaintyParams(2.0, gamma_a, gamma_s)
    ).value
    qualifying = 0
    violations = 0
    attempts = 0
    while qualifying < 100 and attempts < 20_000:
        t = sample_stream(spec_t, n, derive_seed(70, attempts, 0))
        x = sample_stream(spec_x, n, derive_seed(70, attempts, 1))
        attempts += 1
        if not _set_membership(t, x, lam, mu, gamma_a, gamma_s):
            continue
        qualifying += 1
        s_n = simulate_fcfs(t, x)[-1]
        if s_n > bound:
            violations += 1
    ok = qualifying == 100 and violations == 0
    _report(
        "criterion 10",
        ok,
        f"{qualifying} member paths found in {attempts} attempts (lam={lam}, "
        f"gamma=({gamma_a:.3f}, {gamma_s:.3f})); realized S_n exceeded the exact "
        f"worst case {bound:.3f} on {violations} of them",
    )
