"""Variability mapping, bound inversion, theta fitting, dataset pipeline."""

import math
import os
import warnings

import numpy as np
import pytest

from paoiq import simulator
from paoiq.calibration import (
    CalibrationDataset,
    CalibrationRow,
    build_calibration_dataset,
    builtin_theta,
    fit_theta,
    grid_from_config,
    invert_gamma_s,
    map_variability,
    read_dataset_csv,
    read_theta_json,
    write_dataset_csv,
    write_theta_json,
)
from paoiq.errors import (
    CalibrationRangeError,
    NoSolutionError,
    SingularDesignError,
    ValidationError,
)
from paoiq.robust_bounds import (
    UncertaintyParams,
    bound_robust2_single,
    bound_robust3_two,
)
from paoiq.simulator import SystemParams
from paoiq.stochastic import make_exponential, make_pareto, make_uniform_mean


class TestBuiltinTheta:
    def test_single_source(self):
        t = builtin_theta("single")
        assert (t.theta0, t.theta1, t.theta2) == (-0.376, 3.978, 0.5)

    def test_two_source(self):
        t = builtin_theta("two")
        assert (t.theta0, t.theta1, t.theta2) == (-1.302, 6.021, 0.7)

    def test_scenarios_distinct_and_finite(self):
        single, two = builtin_theta("single"), builtin_theta("two")
        assert single != two
        for t in (single, two):
            assert all(math.isfinite(v) for v in (t.theta0, t.theta1, t.theta2))

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError):
            builtin_theta("three")


class TestMapVariability:
    def test_hand_value(self):
        ga, gs = map_variability(1.0, 1.0, 0.5, builtin_theta("single"))
        assert ga == 1.0
        assert gs == pytest.approx(math.sqrt(3.727) - 1.0, rel=1e-12)

    def test_gamma_a_always_equals_sigma_a(self):
        rng = np.random.default_rng(2)
        theta = builtin_theta("two")
        for _ in range(50):
            sa = float(rng.uniform(0.1, 5))
            ga, _ = map_variability(sa, float(rng.uniform(0.5, 3)), float(rng.uniform(0, 1)), theta)
            assert ga == sa

    def test_negative_radicand_is_an_error(self):
        with pytest.raises(CalibrationRangeError, match="-0.376"):
            map_variability(0.0, 0.0, 0.5, builtin_theta("single"))

    @pytest.mark.parametrize("sigma_a, sigma_s, rho", [
        (math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (math.inf, 1.0, 0.5), (1.0, math.inf, 0.5),
        (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, -0.5), (1.0, 1.0, 0.0),
    ])
    def test_non_finite_or_non_positive_inputs_rejected(self, sigma_a, sigma_s, rho):
        with pytest.raises(ValidationError, match="must be finite"):
            map_variability(sigma_a, sigma_s, rho, builtin_theta("single"))

    def test_negative_gamma_s_clamps_with_warning(self):
        # sigma_a large enough that sqrt(radicand) < sigma_a
        with pytest.warns(RuntimeWarning, match="clamped"):
            _, gs = map_variability(10.0, 1.0, 0.1, builtin_theta("single"))
        assert gs == 0.0


class TestInvertGammaS:
    def test_root_at_boundary(self):
        sysp = SystemParams(0.5, 1.0, 1000, 1)
        target = bound_robust2_single(sysp, UncertaintyParams(2.0, 1.0, 0.0)).value
        assert invert_gamma_s(sysp, 2.0, 1.0, target) == 0.0

    def test_round_trip(self):
        sysp = SystemParams(0.6, 1.0, 5000, 1)
        target = bound_robust2_single(sysp, UncertaintyParams(2.0, 1.2, 0.8)).value
        gs = invert_gamma_s(sysp, 2.0, 1.2, target)
        back = bound_robust2_single(sysp, UncertaintyParams(2.0, 1.2, gs)).value
        assert back == pytest.approx(target, rel=1e-6)

    def test_round_trip_two_source(self):
        sysp = SystemParams(0.3, 1.0, 5000, 2)
        target = bound_robust3_two(sysp, UncertaintyParams(2.0, 0.7, 1.4)).value
        gs = invert_gamma_s(sysp, 2.0, 0.7, target)
        back = bound_robust3_two(sysp, UncertaintyParams(2.0, 0.7, gs)).value
        assert back == pytest.approx(target, rel=1e-6)

    def test_monotone(self):
        sysp = SystemParams(0.6, 1.0, 1000, 1)
        base = bound_robust2_single(sysp, UncertaintyParams(2.0, 1.0, 0.0)).value
        g1 = invert_gamma_s(sysp, 2.0, 1.0, base + 0.5)
        g2 = invert_gamma_s(sysp, 2.0, 1.0, base + 1.5)
        assert 0 < g1 < g2

    def test_unreachable_target(self):
        sysp = SystemParams(0.5, 1.0, 1000, 1)
        base = bound_robust2_single(sysp, UncertaintyParams(2.0, 2.0, 0.0)).value
        with pytest.raises(NoSolutionError):
            invert_gamma_s(sysp, 2.0, 2.0, base * 0.5)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target(self, target):
        with pytest.raises(NoSolutionError):
            invert_gamma_s(SystemParams(0.5, 1.0, 1000, 1), 2.0, 1.0, target)


def synthetic_dataset(theta, noise=0.0, seed=0):
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


class TestFitTheta:
    def test_noiseless_exact_recovery(self):
        theta = (0.5, 3.0, 0.8)
        fitted = fit_theta(synthetic_dataset(theta))
        assert fitted.theta0 == pytest.approx(theta[0], abs=1e-8)
        assert fitted.theta1 == pytest.approx(theta[1], abs=1e-8)
        assert fitted.theta2 == pytest.approx(theta[2], abs=1e-8)

    def test_noisy_recovery_within_five_percent(self):
        theta = (0.5, 3.0, 0.8)
        fitted = fit_theta(synthetic_dataset(theta, noise=0.01, seed=11))
        assert fitted.theta0 == pytest.approx(theta[0], rel=0.05)
        assert fitted.theta1 == pytest.approx(theta[1], rel=0.05)
        assert fitted.theta2 == pytest.approx(theta[2], rel=0.05)

    def test_underdetermined_rejected(self):
        ds = CalibrationDataset("single", synthetic_dataset((0.5, 3.0, 0.8)).rows[:2])
        with pytest.raises(SingularDesignError):
            fit_theta(ds)

    def test_rank_deficient_rejected(self):
        # constant sigma_s and sigma_a*rho makes two regressors collinear with the intercept
        rows = [CalibrationRow(0.5, 1.0, 1.0, 0.3 * i, "x", "x", 0) for i in range(5)]
        with pytest.raises(SingularDesignError):
            fit_theta(CalibrationDataset("single", rows))

    def test_scale_consistency(self):
        theta = (0.5, 3.0, 0.8)
        base = synthetic_dataset(theta)
        c = 2.0
        scaled = CalibrationDataset(
            "single",
            [CalibrationRow(r.rho, c * r.sigma_a, c * r.sigma_s, c * r.gamma_s_star,
                            r.kind_a, r.kind_s, r.seed) for r in base.rows],
        )
        fitted = fit_theta(scaled)
        assert fitted.theta0 == pytest.approx(c**2 * theta[0], rel=1e-10)
        assert fitted.theta1 == pytest.approx(theta[1], rel=1e-10)
        assert fitted.theta2 == pytest.approx(theta[2], rel=1e-10)


class TestDatasetPipeline:
    def grid(self, lams):
        return [(make_exponential(lam), make_exponential(1.0)) for lam in lams]

    def test_smoke_three_rows(self):
        ds = build_calibration_dataset(self.grid((0.6, 0.7, 0.8)), "single",
                                       n=10_000, replications=4, master_seed=3)
        assert len(ds) == 3
        assert all(np.isfinite(r.gamma_s_star) for r in ds.rows)

    def test_deterministic_to_the_byte(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            ds = build_calibration_dataset(self.grid((0.6, 0.8)), "single",
                                           n=5_000, replications=3, master_seed=3)
            path = tmp_path / name
            write_dataset_csv(ds, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_infeasible_rows_skipped_with_warning(self):
        # at light load the gamma_s = 0 bound already exceeds the mean system time
        with pytest.warns(RuntimeWarning, match="skipping"):
            ds = build_calibration_dataset(self.grid((0.2, 0.7)), "single",
                                           n=5_000, replications=3, master_seed=1)
        assert len(ds) == 1

    def simulated(self, monkeypatch):
        """The calls ``build_calibration_dataset`` makes to ``replicate``."""
        calls = []
        monkeypatch.setattr(simulator, "replicate", lambda *args, **kw: calls.append(args))
        return calls

    def test_heavy_tailed_spec_rejected(self, monkeypatch):
        # the bad point comes after a good one, and nothing is simulated
        calls = self.simulated(monkeypatch)
        grid = [*self.grid((0.5,)), (make_pareto(1.5, 1.0), make_exponential(1.0))]
        with pytest.raises(ValidationError, match="infinite variance"):
            build_calibration_dataset(grid, "single", n=1_000, replications=2)
        assert calls == []

    def test_unstable_grid_point_rejected(self, monkeypatch):
        calls = self.simulated(monkeypatch)
        with pytest.raises(ValidationError, match="grid point 1 violates stability"):
            build_calibration_dataset(self.grid((0.5, 1.2)), "single",
                                      n=1_000, replications=2)
        assert calls == []

    @pytest.mark.parametrize("replications", ["10", 2.5, 0, None])
    def test_bad_replications_rejected(self, monkeypatch, replications):
        # checked before the fork decision multiplies it by n
        calls = self.simulated(monkeypatch)
        with pytest.raises(ValidationError, match="replications must be"):
            build_calibration_dataset(self.grid((0.5,)), "single", n=1_000,
                                      replications=replications)
        assert calls == []

    def test_end_to_end_theta_reproduces_targets(self):
        # fit on simulated rows, map back, and compare bound values to the
        # simulated system times the rows were built from; the grid must mix
        # families, otherwise the regressors are constant in lam (every scale
        # family has sigma*rate fixed) and the design is singular
        from paoiq.experiments import family_spec

        grid = []
        for fam_a in ("exponential", "uniform", "normal"):
            for fam_s in ("exponential", "uniform"):
                for lam in (0.6, 0.7, 0.8, 0.9):
                    grid.append((family_spec(fam_a, 1.0 / lam), family_spec(fam_s, 1.0)))
        ds = build_calibration_dataset(grid, "single",
                                       n=20_000, replications=5, master_seed=12)
        assert len(ds) >= 12
        theta = fit_theta(ds)
        rel_errors = []
        for row in ds.rows:
            lam = row.rho
            ga, gs = map_variability(row.sigma_a, row.sigma_s, row.rho, theta)
            bound = bound_robust2_single(
                SystemParams(lam, 1.0, 20_000, 1), UncertaintyParams(2.0, ga, gs)
            ).value
            target = bound_robust2_single(
                SystemParams(lam, 1.0, 20_000, 1), UncertaintyParams(2.0, row.sigma_a, row.gamma_s_star)
            ).value
            rel_errors.append(abs(bound - target) / target)
        assert float(np.mean(rel_errors)) < 0.15

    def test_rho_is_the_realized_load(self):
        # a grid file's folded-normal point: its lam of 0.75 is a label, and
        # the law's post-folding mean 1/0.7437 sets the load the row records
        grid = grid_from_config({"points": [{
            "lam": 0.75,
            "interarrival": {"kind": "folded_normal", "location": 4 / 3, "scale": 2 / 3},
            "service": {"kind": "exponential", "rate": 1.0}}]})
        ds = build_calibration_dataset(grid, "single", n=5_000, replications=3, master_seed=2)
        assert [r.rho for r in ds.rows] == [0.7436855868417047]
        assert ds.rows[0].rho == 1.0 / grid[0][0].mean

    def test_csv_round_trip(self, tmp_path):
        ds = build_calibration_dataset(self.grid((0.7, 0.8)), "single",
                                       n=5_000, replications=3, master_seed=3)
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path, "single")
        assert len(back) == len(ds)
        for a, b in zip(ds.rows, back.rows):
            assert a.gamma_s_star == pytest.approx(b.gamma_s_star, rel=1e-11)
            assert (a.kind_a, a.kind_s, a.seed) == (b.kind_a, b.kind_s, b.seed)

    @pytest.mark.parametrize("body", [
        "",
        "rho,sigma_a,sigma_s,gamma_s_star,kind_a,kind_s,seed\n0.5,1,1\n",
        "rho,sigma_a,sigma_s,gamma_s_star,kind_a,kind_s,seed\n"
        "0.5,abc,1,0.2,exponential,exponential,3\n",
    ], ids=["empty", "short-row", "text-cell"])
    def test_malformed_csv_is_validation_error(self, tmp_path, body):
        path = tmp_path / "ds.csv"
        path.write_text(body)
        with pytest.raises(ValidationError):
            read_dataset_csv(path, "single")


@pytest.mark.usefixtures("no_child_outlives")
class TestDatasetProcesses:
    """build_calibration_dataset() writes the same bytes and warnings on one
    process and on every CPU, and keeps them through the fan-out's failure
    modes, which ``tests/test_simulator.py::TestReplicatePoints`` tests in full."""

    # 12 points of 2e4 x 5 updates: each replicate call stays serial, and
    # the whole call reaches FORK_MIN_UPDATES; the light loads are skipped
    GRID = [(law_a(1.0 / lam), law_s(1.0))
            for law_a in (make_uniform_mean, lambda mean: make_exponential(1.0 / mean))
            for law_s in (make_uniform_mean, lambda mean: make_exponential(1.0 / mean))
            for lam in (0.2, 0.6, 0.8)]

    @classmethod
    def run(cls, tmp_path, name):
        """The bytes of the theta JSON and the dataset CSV, and the warnings."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = build_calibration_dataset(cls.GRID, "single", n=20_000, replications=5,
                                           master_seed=4)
        write_theta_json(fit_theta(ds), tmp_path / f"{name}.json")
        write_dataset_csv(ds, tmp_path / f"{name}.csv")
        return ((tmp_path / f"{name}.json").read_bytes(), (tmp_path / f"{name}.csv").read_bytes(),
                [(w.category, str(w.message)) for w in caught])

    @classmethod
    def serial(cls, monkeypatch, tmp_path):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return cls.run(tmp_path, "serial")

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_bytes_equal_across_process_counts(self, monkeypatch, tmp_path, forks):
        expected = self.serial(monkeypatch, tmp_path)
        assert forks == []
        # three light-load points skipped, nine rows under the header
        assert len(expected[2]) == 3 and expected[1].count(b"\n") == 10
        assert len(self.GRID) * 20_000 * 5 >= simulator.FORK_MIN_UPDATES
        assert self.run(tmp_path, "forked") == expected
        cpus = len(os.sched_getaffinity(0))
        assert forks == [os.getpid()] * (min(cpus, len(self.GRID)) - 1)

    def test_failed_fork_runs_the_block_here(self, monkeypatch, tmp_path, two_cpus,
                                             refused_forks):
        expected = self.serial(monkeypatch, tmp_path)
        assert self.run(tmp_path, "refused") == expected
        assert refused_forks == [os.getpid()]

    def test_failed_child_block_runs_here(self, monkeypatch, tmp_path, two_cpus, forks,
                                          fail_replicate):
        expected = self.serial(monkeypatch, tmp_path)
        fail_replicate(monkeypatch, in_parent=False)
        assert self.run(tmp_path, "rerun") == expected
        assert forks == [os.getpid()]

    def test_failed_parent_block_propagates(self, monkeypatch, tmp_path, two_cpus, forks,
                                            fail_replicate):
        fail_replicate(monkeypatch, in_parent=True)
        with pytest.raises(RuntimeError, match=f"replicate failed in pid {os.getpid()}"):
            self.run(tmp_path, "failed")
        assert forks == [os.getpid()]

    def test_no_fork_beside_another_thread(self, monkeypatch, tmp_path, two_cpus, forks,
                                           another_thread):
        assert self.run(tmp_path, "threaded") == self.serial(monkeypatch, tmp_path)
        assert forks == []

    def test_empty_grid_has_no_rows(self):
        ds = build_calibration_dataset([], "single")
        assert (ds.scenario, ds.rows) == ("single", [])


class TestThetaJson:
    def test_round_trip(self, tmp_path):
        theta = builtin_theta("two")
        path = tmp_path / "theta.json"
        write_theta_json(theta, path, {"note": "test"})
        back = read_theta_json(path)
        assert back == theta
