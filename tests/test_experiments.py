"""Sweep engine, error metric, report persistence, and the CLI surface."""

import errno
import functools
import hashlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from paoiq import calibration, cli, experiments, simulator
from paoiq.calibration import CalibrationCoefficients
from paoiq.cli import main
from paoiq.errors import PaoiqError, ValidationError, read_fields, write_text
from paoiq.experiments import (
    FAMILIES,
    SweepConfig,
    config_from_json,
    error_percent,
    family_spec,
    read_report_csv,
    report_to_csv_text,
    run_sweep,
)

QUICK = dict(n=3000, replications=3, master_seed=9)

# sha256 of the report CSV of each default grid at n=2e4, 5 replications,
# master seed 0.  A refactor leaves these bytes unchanged; a deliberate
# change to sampling or to the queue arithmetic updates them and says so in
# CHANGES.md.
GOLDEN_REPORT_SHA256 = {
    "single": "9af2781ddd8099053ce9dd1910834ae25646100e15862fb3590f8810370c61db",
    "two": "e0de1dd9798dd7be31ff27c9e890d514750bd6cbd90ba286c36d59e0dac1ffe6",
}
# sha256 of the report CSV of each full default sweep (n=1e5, 50
# replications, master seed 0), under the same rule.
DEFAULT_REPORT_SHA256 = {
    "single": "88559874d0f28e0d7628600698efa0c4edaf3e1c185787d80b5c03a902970721",
    "two": "9e680947f4f81097c9958e19a8b48c477afcf7b84dd02de832d0b4774e09b3db",
}
# sha256 of the theta JSON (``--out``) and the dataset CSV (``--dataset-out``)
# of each default ``paoiq calibrate`` grid, under the same rule.
DEFAULT_CALIBRATE_SHA256 = {
    "single": ("5b2837eb552cdd91a3c20b8166ef08d32073dbb8f6856072501a1c8fdee9183b",
               "90dcaaf2d386475a4abf5db48c52ad5e4bf507dd5648a7f997d39fa9f67215e2"),
    "two": ("399159b55f895ee8df2f6e52ae0001f627f5fe10084fec29ec09b970b7f0cd4f",
            "caebb5a4ee61d20bebc683a2d65f438c232d8fbd36f4f3f7a42cf5bba65cca5e"),
}
# sha256 of the 18 report CSVs of every (scenario, arrival family, service
# family) default grid at n=2e4, 5 replications, master seed 0, in the loop
# order of test_every_family_pair_gives_finite_error_percents, under the same
# rule.  Only these sweeps run the normal and uniform families.
FAMILY_PAIRS_SHA256 = "15f53cd369e82457f5d0e4016079bb790059f56c90d71804bbae308ee7e67591"
# The light-load rates of README "At light load", below each default grid,
# and the sha256 of the 18 report CSVs of every (scenario, arrival family,
# service family) sweep over them at n=2e4, 5 replications, master seed 0,
# in the loop order of test_light_load_matrix, under the same rule.
LIGHT_LOAD_RATES = {"single": (0.02, 0.05, 0.1), "two": (0.05, 0.1, 0.2)}
LIGHT_LOAD_SHA256 = "e78722833d08a6b95ec1e9c571f0c3ad558f7ba3a4c58a735c179ea767e9e11d"


class TestErrorPercent:
    def test_identical_series(self):
        assert error_percent([4.0, 4.0], [4.0, 4.0]) == 0.0

    def test_hand_arithmetic(self):
        assert error_percent([4.0, 8.0], [5.0, 6.0]) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            error_percent([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            error_percent([], [])
        with pytest.raises(ValidationError):
            error_percent([0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("simulated, bound", [
        ([1.0, 2.0], [1.0, math.nan]), ([1.0, 2.0], [math.inf, 1.0]),
        ([1.0, 2.0], [-math.inf, 1.0]), ([1.0, math.inf], [1.0, 2.0]),
        ([math.nan, 2.0], [1.0, 2.0]),
    ])
    def test_non_finite_values_rejected(self, simulated, bound):
        with pytest.raises(ValidationError, match="must be finite"):
            error_percent(simulated, bound)


class TestFamilies:
    def test_exponential(self):
        spec = family_spec("exponential", 2.0)
        assert spec.kind == "exponential" and spec.mean == pytest.approx(2.0)

    def test_uniform(self):
        spec = family_spec("uniform", 2.0)
        assert spec.kind == "uniform" and spec.mean == pytest.approx(2.0)

    def test_normal_close_to_target(self):
        spec = family_spec("normal", 2.0)
        assert spec.kind == "folded_normal"
        assert spec.mean == pytest.approx(2.0, rel=0.01)

    def test_unknown(self):
        with pytest.raises(ValidationError):
            family_spec("weibull", 1.0)
        with pytest.raises(ValidationError, match="unknown family"):
            family_spec(["normal"], 1.0)

    def test_mean_must_be_finite_and_positive(self):
        for family in FAMILIES:
            for mean in (0.0, math.inf):
                with pytest.raises(ValidationError, match=f"{family} mean must be finite"):
                    family_spec(family, mean)


class TestConfigValidation:
    def test_stability_gating(self):
        with pytest.raises(ValidationError, match="stability"):
            SweepConfig(scenario="single", lambdas=(0.5, 1.0))
        with pytest.raises(ValidationError, match="stability"):
            SweepConfig(scenario="two", lambdas=(0.5,))
        # stability is judged at the realized rates: the folded normal's mean
        # is 1.0085 times its target, so the load here is 0.9916
        SweepConfig(scenario="single", lambdas=(1.0,), interarrival_family="normal")

    def test_theta_scenario_mismatch(self):
        from paoiq.calibration import builtin_theta

        with pytest.raises(ValidationError, match="scenario"):
            SweepConfig(scenario="single", lambdas=(0.5,), theta=builtin_theta("two"))

    def test_default_grids_are_stable(self):
        assert SweepConfig(scenario="single").grid()
        assert SweepConfig(scenario="two").grid()

    @pytest.mark.parametrize("scenario", ["single", "two"])
    def test_default_grid_at_unit_mu_is_the_scenario_grid(self, scenario):
        rates = calibration.get_scenario(scenario).sweep_rates
        assert SweepConfig(scenario=scenario).grid() == rates

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown"):
            config_from_json({"scenario": "single", "lambda_grid": [0.5]})

    @pytest.mark.parametrize("scenario", ["single", "two"])
    def test_from_json_defaults_are_the_config_defaults(self, scenario):
        assert config_from_json({"scenario": scenario}) == SweepConfig(scenario=scenario)

    def test_from_json_reads_every_field(self, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(
            {"scenario": "single", "theta0": -0.376, "theta1": 3.978, "theta2": 0.5}))
        doc = {"scenario": "single", "lambdas": [0.5, 0.25], "n": 300,
               "interarrival_family": "uniform", "service_family": "normal",
               "replications": 2, "warmup_fraction": 0.2, "master_seed": 4,
               "theta": str(theta)}
        assert set(doc) == {f.name for f in fields(SweepConfig)}
        assert config_from_json(doc) == SweepConfig(
            scenario="single", lambdas=(0.5, 0.25), n=300,
            interarrival_family="uniform", service_family="normal", replications=2,
            warmup_fraction=0.2, master_seed=4,
            theta=CalibrationCoefficients(-0.376, 3.978, 0.5, "single"))

    def test_repeated_rate(self):
        # the report writes 0.5000000000001 as 0.5, so its rows would read 0.5 twice
        for lambdas in ((0.4, 0.5, 0.4), (0.5, 0.5000000000001)):
            with pytest.raises(ValidationError, match="arrival rates must not repeat"):
                SweepConfig(scenario="single", lambdas=lambdas)

    @pytest.mark.parametrize("scenario", ["three", None, ["single"], 2],
                             ids=["three", "none", "list", "int"])
    def test_one_scenario_check(self, scenario):
        from paoiq.calibration import (
            CalibrationCoefficients,
            build_calibration_dataset,
            builtin_theta,
        )

        message = f"scenario must be one of ('single', 'two'), got {scenario!r}"
        for make in (lambda: SweepConfig(scenario=scenario),
                     lambda: CalibrationCoefficients(0.0, 1.0, 0.0, scenario),
                     lambda: builtin_theta(scenario),
                     lambda: build_calibration_dataset([], scenario)):
            with pytest.raises(ValidationError) as info:
                make()
            assert str(info.value) == message


class TestRunSweep:
    def test_row_counts_and_sorting(self):
        report = run_sweep(SweepConfig(scenario="single", lambdas=(0.6, 0.3), **QUICK))
        assert len(report.rows) == 2 * 3
        keys = [(r.lam, r.method) for r in report.rows]
        assert keys == sorted(keys)
        assert set(report.error_percents) == {"kingman", "robust1", "robust2"}

    def test_bounds_include_interarrival_term(self):
        config = SweepConfig(scenario="single", lambdas=(0.3, 0.7), **QUICK)
        report = run_sweep(config)
        for row in report.rows:
            assert row.bound_paoi >= 1.0 / row.lam

    def test_two_source_sweep(self):
        report = run_sweep(SweepConfig(scenario="two", lambdas=(0.3, 0.4), **QUICK))
        assert set(report.error_percents) == {"robust3"}
        assert len(report.rows) == 2

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_REPORT_SHA256))
    def test_reduced_default_sweep_golden_bytes(self, scenario):
        config = config_from_json({"scenario": scenario, "n": 20_000, "replications": 5})
        text = report_to_csv_text(run_sweep(config))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_SHA256[scenario]

    @pytest.mark.filterwarnings("ignore:mapped gamma_s:RuntimeWarning")
    def test_every_family_pair_gives_finite_error_percents(self):
        # every (scenario, arrival family, service family) sweep on the
        # default grid ends in a finite error percent per method, or in a
        # PaoiqError, which the CLI maps to its documented exit code; the
        # report texts, in loop order, hash to FAMILY_PAIRS_SHA256
        digest = hashlib.sha256()
        for scenario in ("single", "two"):
            for arrivals, services in itertools.product(FAMILIES, repeat=2):
                config = SweepConfig(scenario=scenario, interarrival_family=arrivals,
                                     service_family=services, n=20_000, replications=5)
                try:
                    report = run_sweep(config)
                except PaoiqError:
                    continue
                percents = report.error_percents
                assert all(map(math.isfinite, percents.values())), (config, percents)
                digest.update(report_to_csv_text(report).encode())
        assert digest.hexdigest() == FAMILY_PAIRS_SHA256

    @pytest.mark.filterwarnings("ignore:mapped gamma_s:RuntimeWarning")
    def test_light_load_matrix(self):
        # a measurement, gated on its bytes only, and on the paper's
        # single-source ordering: robust2 closer than Kingman's bound at
        # each light rate on exponential/exponential
        digest = hashlib.sha256()
        for scenario, lambdas in LIGHT_LOAD_RATES.items():
            for arrivals, services in itertools.product(FAMILIES, repeat=2):
                report = run_sweep(SweepConfig(
                    scenario=scenario, lambdas=lambdas, interarrival_family=arrivals,
                    service_family=services, n=20_000, replications=5))
                digest.update(report_to_csv_text(report).encode())
                if (scenario, arrivals, services) == ("single", "exponential", "exponential"):
                    rel = {(r.lam, r.method): r.rel_error for r in report.rows}
                    for lam in lambdas:
                        assert rel[lam, "robust2"] < rel[lam, "kingman"], lam
        assert digest.hexdigest() == LIGHT_LOAD_SHA256

    def test_deterministic(self):
        config = SweepConfig(scenario="single", lambdas=(0.4, 0.8), **QUICK)
        assert report_to_csv_text(run_sweep(config)) == report_to_csv_text(run_sweep(config))


@pytest.mark.usefixtures("no_child_outlives")
class TestSweepProcesses:
    """run_sweep() writes the same report bytes and warnings on one process
    and on every CPU, forks once over its rates, and keeps its bytes through
    the fan-out's failure modes, which ``tests/test_simulator.py::
    TestReplicatePoints`` tests in full."""

    # 3 rates of 2e4 x 20 updates: each replicate call stays below
    # FORK_MIN_UPDATES and the sweep reaches it
    CONFIG = SweepConfig(scenario="single", lambdas=(0.3, 0.5, 0.7), n=20_000,
                         replications=20, master_seed=3)

    @classmethod
    def run(cls):
        """The report CSV bytes and the warnings."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = report_to_csv_text(run_sweep(cls.CONFIG))
        return text.encode(), [(w.category, str(w.message)) for w in caught]

    @classmethod
    def serial(cls, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return cls.run()

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_bytes_equal_across_process_counts(self, monkeypatch, forks):
        expected = self.serial(monkeypatch)
        assert forks == []
        calls = []
        run_blocks = simulator._run_blocks

        def spy(block, count, k):
            calls.append((count, k))
            run_blocks(block, count, k)

        monkeypatch.setattr(simulator, "_run_blocks", spy)
        assert self.run() == expected
        points = len(self.CONFIG.lambdas)
        assert 20_000 * 20 < simulator.FORK_MIN_UPDATES <= points * 20_000 * 20
        k = min(len(os.sched_getaffinity(0)), points)
        assert forks == [os.getpid()] * (k - 1)
        assert calls == [(points, k)]

    def test_failed_fork_runs_the_block_here(self, monkeypatch, two_cpus, refused_forks):
        expected = self.serial(monkeypatch)
        assert self.run() == expected
        assert refused_forks == [os.getpid()]

    def test_failed_child_block_runs_here(self, monkeypatch, two_cpus, forks, fail_replicate):
        expected = self.serial(monkeypatch)
        fail_replicate(monkeypatch, in_parent=False)
        assert self.run() == expected
        assert forks == [os.getpid()]

    def test_failed_parent_block_propagates_and_the_next_call_forks(self, monkeypatch, two_cpus,
                                                                    forks, fail_replicate):
        with monkeypatch.context() as m:
            fail_replicate(m, in_parent=True)
            with pytest.raises(RuntimeError, match=f"replicate failed in pid {os.getpid()}"):
                self.run()
        assert forks == [os.getpid()]
        # the next sweep forks its k - 1 = 1 child again
        self.run()
        assert forks == [os.getpid()] * 2

    def test_no_fork_beside_another_thread(self, monkeypatch, two_cpus, forks, another_thread):
        assert self.run() == self.serial(monkeypatch)
        assert forks == []


class TestReportCsv:
    def make_report(self):
        return run_sweep(SweepConfig(scenario="single", lambdas=(0.4, 0.8), **QUICK))

    def test_layout(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_text(path, report_to_csv_text(report))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,sim_paoi_mean,sim_paoi_ci95,method,bound_paoi,rel_error"
        assert lines[7] == "method,error_percent"
        assert len(lines) == 1 + 6 + 1 + 3

    def test_round_trip_lossless(self, tmp_path):
        report = self.make_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_text(p1, report_to_csv_text(report))
        write_text(p2, report_to_csv_text(read_report_csv(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            read_report_csv(path)


class TestWriteText:
    def test_short_text_over_a_longer_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("an older and much longer report\n" * 50)
        write_text(path, "a,b\n")
        assert path.read_bytes() == b"a,b\n"

    def test_failed_write_leaves_no_old_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("x" * 100)
        write = os.write
        calls = []

        def short_then_full_disk(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(fd, data[:3])

        monkeypatch.setattr(os, "write", short_then_full_disk)
        with pytest.raises(OSError):
            write_text(path, "abcdef")
        assert calls == [6, 3]
        assert path.read_bytes() == b"abc"


class TestCli:
    def sweep_config(self, tmp_path, **overrides):
        doc = {"scenario": "single", "lambdas": [0.4, 0.8], "n": 3000,
               "replications": 3, "master_seed": 9}
        doc.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return path

    def test_bound_row(self, capsys):
        assert main(["bound", "--method", "robust2", "--lambda", "0.5", "--mu", "1",
                     "--alpha", "2", "--gamma-a", "1", "--gamma-s", "1", "--n", "100"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "method,lambda,mu,alpha,gamma_a,gamma_s,n,system_bound,paoi_bound"
        fields = out[1].split(",")
        assert fields[0] == "robust2"
        assert float(fields[7]) == pytest.approx(1.0 + np.sqrt(2.0))
        assert float(fields[8]) == pytest.approx(3.0 + np.sqrt(2.0))

    def test_bound_kingman_needs_variances(self, capsys):
        assert main(["bound", "--method", "kingman", "--lambda", "0.5", "--mu", "1"]) == 1
        assert main(["bound", "--method", "kingman", "--lambda", "0.5", "--mu", "1",
                     "--var-a", "4", "--var-s", "1"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert float(out[-1].split(",")[7]) == pytest.approx(3.5)

    def test_bound_validation_exit_code(self, capsys):
        assert main(["bound", "--method", "robust2", "--lambda", "2", "--mu", "1"]) == 1
        assert main(["bound", "--method", "unknown", "--lambda", "0.5", "--mu", "1"]) == 1
        # a method has one spelling
        assert main(["bound", "--method", "exact-single", "--lambda", "0.5", "--mu", "1"]) == 1
        # kingman reads neither n nor the uncertainty set, but its row echoes them
        kingman = ["bound", "--method", "kingman", "--lambda", "0.5", "--mu", "1",
                   "--var-a", "4", "--var-s", "1"]
        for bad in (["--n", "-5"], ["--alpha", "7"], ["--gamma-a", "-3"]):
            assert main([*kingman, *bad]) == 1

    def test_simulate(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "sources": 1, "n": 5000, "replications": 3, "master_seed": 4,
            "interarrival": {"kind": "exponential", "rate": 0.5},
            "service": {"kind": "exponential", "rate": 1.0},
        }))
        assert main(["simulate", "--config", str(config)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        header = out[0].split(",")
        row = dict(zip(header, out[1].split(",")))
        assert float(row["mean_paoi"]) == pytest.approx(4.0, rel=0.1)
        assert row["master_seed"] == "4"

    def test_readme_config_examples_are_accepted(self, tmp_path, capsys):
        # the simulate, sweep and calibrate examples under README "Config files"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files\n", 1)[1].split("\n## ", 1)[0]
        sim, sweep, grid = (json.loads(block)
                            for block in re.findall(r"```json\n(.*?)```", section, re.S))
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(sim))
        assert main(["simulate", "--config", str(config)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), row.split(",")))
        assert (row["lam"], row["mu"]) == ("0.5", "1")  # as the README says
        config_from_json(sweep)
        settings = cli._defaults(calibration.build_calibration_dataset)
        doc = read_fields(grid, ("points", "mu", *settings), "calibration grid config")
        assert calibration.grid_from_config(doc)

    def test_readme_library_example_runs(self):
        # the example under README "Library", in a fresh interpreter: a name
        # the package no longer exports fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        simulated, bound = map(float, proc.stdout.split())
        # M/M/1 at load 0.5: mean peak age 1/lam + 1/(mu - lam) = 4
        assert simulated == pytest.approx(4.0, rel=0.02)
        assert math.isfinite(bound) and bound > 0

    def test_simulate_prints_the_rates_of_its_laws(self, tmp_path, capsys):
        # a folded normal's mean is not its location, so its rate is no round label
        arrivals = {"kind": "folded_normal", "location": 4 / 3, "scale": 2 / 3}
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n": 2000, "replications": 2, "interarrival": arrivals,
                                      "service": {"kind": "uniform", "mean": 0.5}}))
        assert main(["simulate", "--config", str(config)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), row.split(",")))
        assert (row["lam"], row["mu"]) == ("0.743685586842", "2")

    def test_simulate_light_load_mean_system_time_is_the_mean_service(self, tmp_path, capsys):
        # with the same uniforms, nobody waits at either rate, so S == X and
        # both print the post-warmup mean service time
        printed = []
        for lam in (1e-11, 1e-9):
            config = tmp_path / f"sim-{lam}.json"
            config.write_text(json.dumps({
                "n": 100_000, "replications": 3,
                "interarrival": {"kind": "exponential", "rate": lam},
                "service": {"kind": "exponential", "rate": 1.0}}))
            assert main(["simulate", "--config", str(config)]) == 0
            header, row = capsys.readouterr().out.splitlines()
            printed.append(dict(zip(header.split(","), row.split(",")))["mean_system_time"])
        assert printed[0] == printed[1]

    def test_simulate_missing_field_exit_one(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"n": 5000}))
        assert main(["simulate", "--config", str(config)]) == 1

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    def test_field_less_document_gets_library_defaults(self, tmp_path, monkeypatch, command):
        # the CLI takes its defaults from the signature of the function it calls
        exp = {"kind": "exponential", "rate": 1.0}
        module, name, doc = {
            "simulate": (cli, "replicate",
                         {"interarrival": exp, "service": exp}),
            "calibrate": (calibration, "build_calibration_dataset",
                          {"points": [{"lam": 0.5, "interarrival": exp, "service": exp}]}),
        }[command]
        real, seen = getattr(module, name), {}

        class Reached(Exception):
            pass

        @functools.wraps(real)
        def spy(*args, **kwargs):
            seen.update(inspect.signature(real).bind(*args, **kwargs).arguments)
            raise Reached

        monkeypatch.setattr(module, name, spy)
        config = tmp_path / "doc.json"
        config.write_text(json.dumps(doc))
        argv = {"simulate": ["simulate", "--config", str(config)],
                "calibrate": ["calibrate", "--scenario", "single", "--grid", str(config),
                              "--out", str(tmp_path / "theta.json")]}[command]
        with pytest.raises(Reached):
            main(argv)
        defaults = {p.name: p.default for p in inspect.signature(real).parameters.values()
                    if p.default is not inspect.Parameter.empty}
        assert defaults
        assert {key: seen[key] for key in defaults} == defaults
        if command == "simulate":
            sources = inspect.signature(simulator.SystemParams).parameters["sources"]
            assert seen["params"].sources == sources.default

    @pytest.mark.parametrize("sources, n", [(1, 1), (2, 3)])
    def test_simulate_short_path_exit_one(self, tmp_path, capsys, sources, n):
        config = tmp_path / "short.json"
        config.write_text(json.dumps({
            "sources": sources, "n": n, "replications": 3,
            "interarrival": {"kind": "exponential", "rate": 0.2},
            "service": {"kind": "exponential", "rate": 1.0},
        }))
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "post-warmup peak" in captured.err

    @pytest.mark.parametrize("method, values", [
        ("robust2", ["--gamma-a", "nan", "--gamma-s", "1", "--n", "100"]),
        ("kingman", ["--var-a", "nan", "--var-s", "1"]),
    ])
    def test_bound_nan_parameter_exit_one(self, capsys, method, values):
        assert main(["bound", "--method", method, "--lambda", "0.5", "--mu", "1", *values]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("values", [
        ["--method", "robust1", "--alpha", "1.001", "--gamma-a", "5", "--gamma-s", "5"],
        ["--method", "robust1", "--lambda", "0.9", "--alpha", "1.001",
         "--gamma-a", "0.5", "--gamma-s", "0.4"],
        ["--method", "robust2", "--lambda", "0.2", "--gamma-a", "1e308", "--gamma-s", "1e308"],
        ["--method", "robust3", "--lambda", "0.2", "--gamma-a", "1e308", "--gamma-s", "1e308"],
        ["--method", "exact_single", "--lambda", "0.2", "--gamma-a", "1e308",
         "--gamma-s", "1e308", "--n", "100"],
        ["--method", "robust1", "--lambda", "0.2", "--gamma-a", "1e308", "--gamma-s", "1e308"],
    ], ids=["robust1-overflow", "robust1-underflow", "robust2-huge-gammas",
            "robust3-huge-gammas", "exact-single-huge-gammas", "robust1-huge-gammas"])
    def test_bound_out_of_float_range_exit_two(self, capsys, values):
        # the last option given wins, so --lambda may override this default
        argv = ["bound", "--lambda", "0.5", "--mu", "1", *values]
        with np.errstate(over="ignore"):
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: ")

    def test_bound_overflow_prints_no_numpy_warning(self, capsys):
        argv = ["bound", "--method", "exact_single", "--lambda", "0.2", "--mu", "1",
                "--gamma-a", "1e308", "--gamma-s", "1e308", "--n", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy warning would escape main
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ")
        assert "RuntimeWarning" not in err

    def test_bound_robust1_small_bound_past_float_powers(self, capsys):
        # (1/lam - 1/mu)^(1/(alpha-1)) = 4^1000 overflows, yet the bound is 1/lam
        assert main(["bound", "--method", "robust1", "--lambda", "0.2", "--mu", "1",
                     "--alpha", "1.001"]) == 0
        fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(fields[7]) == 5.0
        assert float(fields[8]) == 10.0

    def test_bound_enumeration_cap_exit_one(self, capsys):
        from paoiq.robust_bounds import MAX_ENUMERATION_N

        assert main(["bound", "--method", "exact_two", "--lambda", "0.2", "--mu", "1",
                     "--n", str(MAX_ENUMERATION_N + 1)]) == 1
        assert "capped" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--method", "robust2", "--lambda", "abc", "--mu", "1"],
        ["bound", "--method", "robust2", "--lambda", "0.5", "--mu", "1", "--bogus", "1"],
        ["bound", "--method", "robust2", "--mu", "1"],
    ], ids=["bad-value", "unknown-flag", "missing-required"])
    def test_usage_error_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage: " in err and "Traceback" not in err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--help"])
        assert exc.value.code == 0
        assert "--method" in capsys.readouterr().out

    SIM = {"n": 100,
           "interarrival": {"kind": "exponential", "rate": 0.5},
           "service": {"kind": "exponential", "rate": 1.0}}
    REPORT = "lambda,sim_paoi_mean,sim_paoi_ci95,method,bound_paoi,rel_error\n"
    GRID = {"points": [{"lam": 0.5, "interarrival": {"kind": "exponential", "rate": 0.5},
                        "service": {"kind": "exponential", "rate": 1.0}}]}
    # one small grid point, so that a config accepted by mistake finishes quickly
    SWEEP = {"scenario": "single", "lambdas": [0.5], "n": 200, "replications": 2}
    # a (config, theta file) pair: the config names the file "theta.json" in
    # the working directory
    SWEEP_THETA = json.dumps({**SWEEP, "theta": "theta.json"})

    @pytest.mark.parametrize("command, name, content", [
        ("simulate", "sim.json", json.dumps({**SIM, "lam": "abc"})),
        ("simulate", "sim.json", json.dumps([SIM])),
        ("sweep", "sweep.json", json.dumps(7)),
        ("calibrate", "grid.json", json.dumps(["points"])),
        ("calibrate", "grid.json", json.dumps({"points": [{"lam": 0.5}]})),
        ("sweep", "sweep.json", (SWEEP_THETA, json.dumps({"scenario": "single", "theta0": 1.0}))),
        ("sweep", "sweep.json", json.dumps({"scenario": "single", "n": "many"})),
        ("report", "report.csv", REPORT + "0.5,3\nmethod,error_percent\n"),
        ("report", "report.csv", REPORT + "method,error_percent\nrobust2,abc\n"),
        ("simulate", "sim.json", json.dumps({**SIM, "n": 2000.7})),
        ("simulate", "sim.json", json.dumps({**SIM, "sources": 1.9})),
        ("simulate", "sim.json", json.dumps({**SIM, "replications": 2.7})),
        ("simulate", "sim.json", json.dumps({**SIM, "master_seed": True})),
        ("sweep", "sweep.json", json.dumps({"scenario": "single", "n": 3000.9})),
        ("sweep", "sweep.json", json.dumps({"scenario": "single", "replications": 2.5})),
        ("sweep", "sweep.json", json.dumps({"scenario": "single", "master_seed": 1.7})),
        ("calibrate", "grid.json", json.dumps({**GRID, "n": 2.5})),
        ("calibrate", "grid.json", json.dumps({**GRID, "replications": "10"})),
        ("simulate", "sim.json", json.dumps({**SIM, "master_seed": -1})),
        ("simulate", "sim.json", json.dumps(
            {**SIM, "service": {"kind": "exponential", "rate": 1e308}})),
        ("simulate", "sim.json", json.dumps({**SIM, "replicatons": 7})),
        ("calibrate", "grid.json", json.dumps({**GRID, "replicatons": 3})),
        ("calibrate", "grid.json", json.dumps(
            {"points": [{**GRID["points"][0], "rate": 0.5}]})),
        ("simulate", "sim.json", json.dumps({**SIM, "replications": 10**12})),
        ("simulate", "sim.json", json.dumps({**SIM, "n": 10**15})),
        ("sweep", "sweep.json", json.dumps({"scenario": "two", "n": 10**15})),
        ("calibrate", "grid.json", json.dumps({**GRID, "replications": 10**12})),
        ("sweep", "sweep.json", json.dumps(
            {**SWEEP, "methods": ["robust2", "robust2"]})),
        ("sweep", "sweep.json", (SWEEP_THETA, json.dumps({
            "scenario": "single", "theta0": -0.376, "theta1": 3.978, "theta2": 0.5,
            "thetaa2": 9}))),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "lambdas": []})),
        ("simulate", "sim.json", json.dumps({**SIM, "lam": "0.5"})),
        ("simulate", "sim.json", json.dumps({**SIM, "mu": True})),
        ("simulate", "sim.json", json.dumps({**SIM, "warmup_fraction": "0.1"})),
        ("simulate", "sim.json", json.dumps({**SIM, "mu": 10**400})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "mu": "1"})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "lambdas": ["0.5"]})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "warmup_fraction": False})),
        ("sweep", "sweep.json", (SWEEP_THETA, json.dumps({
            "scenario": "single", "theta0": "-0.376", "theta1": 3.978, "theta2": 0.5}))),
        ("calibrate", "grid.json", json.dumps({**GRID, "mu": True})),
        ("calibrate", "grid.json", json.dumps({**GRID, "warmup_fraction": "0.1"})),
        ("calibrate", "grid.json", json.dumps(
            {**GRID, "points": [{**GRID["points"][0], "lam": "0.5"}]})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "methods": "robust2"})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "methods": {"robust2": 1}})),
        ("simulate", "sim.json", json.dumps(
            {**SIM, "interarrival": {"kind": "exponential", "rate": True}})),
        ("calibrate", "grid.json", json.dumps({**GRID, "n": 200, "points": [
            {**GRID["points"][0], "service": {"kind": "exponential", "rate": True}}]})),
        ("sweep", "sweep.json", json.dumps({**SWEEP, "lambdas": [0.5, 0.5]})),
        # JSON reads 1e309 as inf
        ("sweep", "sweep.json", '{"scenario": "single", "mu": 1e309, "lambdas": [0.5]}'),
        ("report", "report.csv", REPORT + "0.5,4,0.1,kingman,5,0.25\n"),
    ], ids=["simulate-text-rate", "simulate-list", "sweep-number", "calibrate-list",
            "calibrate-point-fields", "sweep-theta-fields", "sweep-text-n",
            "report-short-row", "report-text-percent",
            "simulate-float-n", "simulate-float-sources", "simulate-float-replications",
            "simulate-bool-seed", "sweep-float-n", "sweep-float-replications",
            "sweep-float-seed", "calibrate-float-n", "calibrate-text-replications",
            "simulate-negative-seed", "simulate-huge-rate",
            "simulate-unknown-field", "calibrate-unknown-field",
            "calibrate-unknown-point-field", "simulate-huge-replications",
            "simulate-huge-n", "sweep-huge-n", "calibrate-huge-replications",
            "sweep-repeated-method", "sweep-theta-unknown-field", "sweep-empty-lambdas",
            "simulate-text-lam", "simulate-bool-mu", "simulate-text-warmup",
            "simulate-huge-integer-mu", "sweep-text-mu", "sweep-text-lambda",
            "sweep-false-warmup", "sweep-text-theta0", "calibrate-bool-mu",
            "calibrate-text-warmup", "calibrate-text-point-lam", "sweep-text-methods",
            "sweep-object-methods", "simulate-bool-rate", "calibrate-bool-point-rate",
            "sweep-repeated-lambda", "sweep-infinite-mu", "report-no-summary"])
    def test_malformed_input_exit_one(self, tmp_path, monkeypatch, capsys, command, name,
                                      content):
        theta = None
        if isinstance(content, tuple):
            content, theta = content
            (tmp_path / "theta.json").write_text(theta)
            monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        path.write_text(content)
        flag = {"simulate": "--config", "sweep": "--config", "calibrate": "--grid",
                "report": "--in"}[command]
        argv = [command, flag, str(path)]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "r.csv")]
        if command == "calibrate":
            argv += ["--scenario", "single", "--out", str(tmp_path / "theta.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if theta is not None:
            assert "theta" in err

    def test_theta_file_fields_are_numbers(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(
            {"scenario": "single", "theta0": "-0.376", "theta1": True, "theta2": 0.5}))
        config = self.sweep_config(tmp_path, lambdas=[0.4], theta=str(theta))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == "error: theta0 must be a number, got '-0.376'\n"
        assert not (tmp_path / "r.csv").exists()
        # Python's json reads these literals; a coefficient must be finite
        for literal, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
            theta.write_text(
                f'{{"scenario": "single", "theta0": 1, "theta1": {literal}, "theta2": 1}}')
            assert main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "r.csv")]) == 1
            assert capsys.readouterr().err == f"error: theta1 must be finite, got {value}\n"
            assert not (tmp_path / "r.csv").exists()

    def test_theta_file_not_json(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text("not json")
        config = self.sweep_config(tmp_path, lambdas=[0.4], theta=str(theta))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {theta} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-text", "too-deep"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_not_json_text(self, tmp_path, capsys, command, content):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = ["--out", str(tmp_path / "r.csv")] if command == "sweep" else []
        assert main([command, "--config", str(config), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config} is not valid JSON: ")

    def test_theta_file_rejects_unknown_fields(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"scenario": "single", "theta0": -0.376,
                                     "theta1": 3.978, "theta2": 0.5, "thetaa2": 9}))
        config = self.sweep_config(tmp_path, lambdas=[0.4], theta=str(theta))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown theta file {theta} fields: ['thetaa2']\n")
        assert not (tmp_path / "r.csv").exists()

    def test_report_not_text_exit_one(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, 300, dtype=np.uint8)))
        assert main(["report", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed sweep report {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, name, content, message", [
        ("simulate", "sim.json", {**SIM, "replicatons": 7},
         "unknown simulate config fields: ['replicatons']"),
        ("calibrate", "grid.json", {**GRID, "replicatons": 3},
         "unknown calibration grid config fields: ['replicatons']"),
        ("calibrate", "grid.json", {"points": [{**GRID["points"][0], "rate": 0.5}]},
         "unknown calibration grid point fields: ['rate']"),
        ("sweep", "sweep.json", {**SWEEP, "lambdas": "0.5"},
         "lambdas must be a list of numbers, got '0.5'"),
        ("sweep", "sweep.json", {**SWEEP, "lambdas": {"0.5": 1}},
         "lambdas must be a list of numbers, got {'0.5': 1}"),
        ("sweep", "sweep.json", {**SWEEP, "mu": 1.0}, "unknown sweep config fields: ['mu']"),
        ("sweep", "sweep.json", {**SWEEP, "methods": ["robust2"]},
         "unknown sweep config fields: ['methods']"),
        ("sweep", "sweep.json", {**SWEEP, "theta": None},
         "theta must be a theta file path, got None"),
        ("sweep", "sweep.json", {**SWEEP, "theta": {"theta0": -0.376, "theta1": 3.978}},
         "theta must be a theta file path, got {'theta0': -0.376, 'theta1': 3.978}"),
        ("sweep", "sweep.json", {**SWEEP, "theta": 0}, "theta must be a theta file path, got 0"),
        ("sweep", "sweep.json", {"lambdas": [0.5]}, "sweep config needs a 'scenario'"),
        ("sweep", "sweep.json", {**SWEEP, "lambdas": [10**400]},
         f"lambdas entry is out of the float range: {10**400}"),
        ("calibrate", "grid.json", {}, "calibration grid config needs a 'points' list"),
        ("calibrate", "grid.json", {"points": 5},
         "calibration grid config needs a 'points' list"),
    ], ids=["simulate", "calibrate", "calibrate-point", "sweep-text-lambdas",
            "sweep-object-lambdas", "sweep-mu", "sweep-methods", "sweep-null-theta",
            "sweep-object-theta", "sweep-number-theta", "sweep-no-scenario",
            "sweep-huge-integer-lambda", "calibrate-empty", "calibrate-number-points"])
    def test_unknown_fields_named(self, tmp_path, capsys, command, name, content, message):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        argv = {"simulate": ["simulate", "--config", str(path)],
                "sweep": ["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")],
                "calibrate": ["calibrate", "--grid", str(path), "--scenario", "single",
                              "--out", str(tmp_path / "theta.json")]}[command]
        assert main(argv) == 1
        # the form sweep uses
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "theta.json").exists()
        assert not (tmp_path / "r.csv").exists()

    def test_report_failed_method_prints_n_a(self, tmp_path, capsys):
        # sweep writes nan for a method that failed at every grid point
        path = tmp_path / "report.csv"
        # a one-replication sweep writes a ci95 of 0, which gives no standard error
        path.write_text(self.REPORT
                        + "0.5,4,0.1,kingman,5,0.25\n0.5,4,0,robust1,5,0.25\n"
                        + "0.5,4,0.1,robust2,nan,nan\n"
                        + "method,error_percent\nkingman,25\nrobust1,25\nrobust2,nan\n"
                        + "robust3,inf\n")
        assert main(["report", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # kingman's one row: 100 * 5/4**2 * 0.1/1.96 = 1.594
        assert lines[-4:] == [f"{'kingman':<10} {'25.00%':>14} {'1.594':>10}",
                              f"{'robust1':<10} {'25.00%':>14} {'n/a':>10}",
                              f"{'robust2':<10} {'n/a':>14} {'n/a':>10}",
                              f"{'robust3':<10} {'n/a':>14} {'n/a':>10}"]

    def test_report_prints_standard_errors_of_the_default_sweeps(self, tmp_path, capsys,
                                                                table_sweeps):
        expected = {"single": {"kingman": ("33.53%", "0.088"), "robust1": ("35.13%", "0.082"),
                               "robust2": ("5.94%", "0.080")},
                    "two": {"robust3": ("13.18%", "0.218")}}
        for scenario, cells in expected.items():
            path = tmp_path / f"{scenario}.csv"
            write_text(path, report_to_csv_text(table_sweeps[scenario]))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == DEFAULT_REPORT_SHA256[scenario]
            assert main(["report", "--in", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[2:] == [f"{method:<10} {pct:>14} {se:>10}"
                                 for method, (pct, se) in cells.items()]

    def test_sweep_and_report(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        out_csv = tmp_path / "report.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 0
        assert out_csv.exists()
        assert main(["report", "--in", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "error percent" in out
        assert "robust2" in out

    def test_sweep_byte_identical(self, tmp_path):
        config = self.sweep_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("overrides", [
        {"n": 1},
        {"scenario": "two", "lambdas": [0.2], "n": 3},
        {"replications": 0},
        {"warmup_fraction": 0.6},
        {"master_seed": -1},
        {"interarrival_family": "weibull"},
        # stable at the nominal rate 0.995, not at the realized 0.995 * 1.0085
        {"lambdas": [0.5, 0.995], "service_family": "normal", "n": 2000, "replications": 2},
    ], ids=["n-1", "two-source-n-3", "no-replications", "warmup-0.6", "negative-seed",
            "unknown-family", "unstable-at-realized-rates"])
    def test_sweep_rejected_before_sampling(self, tmp_path, capsys, monkeypatch, overrides):
        # the families and the stability of every grid point are checked when
        # the config is built; replications, warmup and seed by replicate and
        # derive_seed at the first grid point
        calls = []
        sample_stream = simulator.sample_stream

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_stream(*args, **kwargs)

        monkeypatch.setattr(simulator, "sample_stream", counted)
        config = self.sweep_config(tmp_path, **overrides)
        out_csv = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not out_csv.exists()

    def test_sweep_reports_kingman_where_mapping_fails(self, tmp_path, capsys):
        # theta0 = -50 makes the mapping's radicand negative at every rate,
        # and coefficients of 1e308 make it overflow
        for coefficients, failure in (((-50.0, 3.978, 0.5), "is negative"),
                                      ((1e308, 1e308, 1e308), "overflows")):
            theta = tmp_path / "theta.json"
            theta.write_text(json.dumps(
                {"scenario": "single", **dict(zip(("theta0", "theta1", "theta2"),
                                                  coefficients))}))
            config = self.sweep_config(tmp_path, lambdas=[0.5, 0.8], n=2000, replications=2,
                                       theta=str(theta))
            out_csv = tmp_path / "r.csv"
            with pytest.warns(RuntimeWarning) as record:
                assert main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 0
            messages = [str(w.message) for w in record]
            assert sum("variability mapping failed" in m and failure in m
                       for m in messages) == 2
            assert sum(m.startswith("bound robust") for m in messages) == 4
            assert not any("bound kingman failed" in m for m in messages)
            report = read_report_csv(out_csv)
            for row in report.rows:
                assert math.isfinite(row.bound_paoi) == (row.method == "kingman")
            assert len(report.rows) == 6
            assert math.isfinite(report.error_percents["kingman"])
            assert math.isnan(report.error_percents["robust1"])
            assert math.isnan(report.error_percents["robust2"])

    def test_sweep_every_point_failed_exit_two(self, tmp_path, capsys):
        # theta0 = -100 makes robust3's mapping radicand negative at every rate
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"scenario": "two", "theta0": -100, "theta1": 0,
                                     "theta2": 0}))
        config = self.sweep_config(tmp_path, scenario="two", lambdas=[0.3, 0.4], n=200,
                                   replications=2, theta=str(theta))
        out_csv = tmp_path / "r.csv"
        with pytest.warns(RuntimeWarning) as record:
            assert main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 2
        messages = [str(w.message) for w in record]
        assert sum("variability mapping failed" in m for m in messages) == 2
        assert sum(m.startswith("bound robust3 failed") for m in messages) == 2
        assert capsys.readouterr().err == (
            "numeric error: every grid point failed; no bound could be evaluated\n")
        assert not out_csv.exists()

    def test_sweep_invalid_config_exit_one(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, lambdas=[1.5])
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 1

    def test_simulate_non_finite_result_exit_two(self, tmp_path, capsys):
        # a Pareto mean of 1e304 draws infinite gaps; the spread overflows
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "n": 1000, "replications": 3,
            "interarrival": {"kind": "pareto", "shape": 1.0001, "scale": 1e300},
            "service": {"kind": "exponential", "rate": 1.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric error: replication results are not finite: ")

    def test_sweep_out_may_be_a_device(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, **self.SWEEP)
        assert main(["sweep", "--config", str(config), "--out", os.devnull]) == 0
        assert capsys.readouterr().err == f"wrote 3 rows -> {os.devnull}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("redirect", [">", ">>"])
    def test_sweep_out_stdout_keeps_the_shell_redirect(self, tmp_path, redirect):
        # `paoiq sweep --out /dev/stdout > f` or `>> f`: the report goes
        # through the shell's descriptor, at its offset, and nothing else does
        config = self.sweep_config(tmp_path, lambdas=[0.5], n=2000)
        report = report_to_csv_text(run_sweep(config_from_json(json.loads(config.read_text()))))
        target = tmp_path / "f"
        target.write_bytes(b"HEADER-LINE\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(target, "wb" if redirect == ">" else "ab") as out:
            proc = subprocess.run([sys.executable, "-m", "paoiq.cli", "sweep", "--config",
                                   str(config), "--out", "/dev/stdout"],
                                  env=env, stdout=out, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "wrote 3 rows -> /dev/stdout\n")
        earlier = "HEADER-LINE\n" if redirect == ">>" else ""
        assert target.read_text() == earlier + report

    def test_calibrate_progress_line_goes_to_stderr(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": 2000, "replications": 2, "points": [
            {"lam": 0.8, "interarrival": {"kind": "exponential", "rate": 0.8},
             "service": {"kind": "exponential", "rate": 1.0}},
            {"lam": 0.8, "interarrival": {"kind": "uniform", "mean": 1.25},
             "service": {"kind": "uniform", "mean": 1.0}},
            {"lam": 0.85, "interarrival": {"kind": "exponential", "rate": 0.85},
             "service": {"kind": "folded_normal", "location": 1.0, "scale": 0.5}}]}))
        theta = tmp_path / "theta.json"
        assert main(["calibrate", "--scenario", "single", "--grid", str(grid),
                     "--out", str(theta)]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fitted theta=(") and err.endswith(f" -> {theta}\n")

    def test_sweep_out_directory_exit_three(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, **self.SWEEP)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_outputs_are_rewritten_in_place(self, tmp_path, capsys, monkeypatch):
        # an O_TRUNC open stalls on a file whose old contents are still dirty
        report = tmp_path / "r.csv"
        theta, rows = tmp_path / "theta.json", tmp_path / "rows.csv"
        outputs = (report, theta, rows)
        for path in outputs:
            path.write_text("stale contents, longer than any of the outputs\n" * 200)
        opened = []
        os_open = os.open

        def recorded(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorded)
        config = self.sweep_config(tmp_path, **self.SWEEP)
        assert main(["sweep", "--config", str(config), "--out", str(report)]) == 0
        # a fit needs three rows of rank 3
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n": 2000, "replications": 2, "points": [
            {"lam": 0.8, "interarrival": {"kind": "exponential", "rate": 0.8},
             "service": {"kind": "exponential", "rate": 1.0}},
            {"lam": 0.8, "interarrival": {"kind": "uniform", "mean": 1.25},
             "service": {"kind": "uniform", "mean": 1.0}},
            {"lam": 0.85, "interarrival": {"kind": "exponential", "rate": 0.85},
             "service": {"kind": "folded_normal", "location": 1.0, "scale": 0.5}}]}))
        assert main(["calibrate", "--scenario", "single", "--grid", str(grid),
                     "--out", str(theta), "--dataset-out", str(rows)]) == 0
        for path in outputs:
            flags = [f for p, f in opened if p == str(path)]
            assert len(flags) == 1
            assert not flags[0] & os.O_TRUNC
        assert read_report_csv(report).error_percents.keys() == {"kingman", "robust1", "robust2"}
        assert json.loads(theta.read_text())["provenance"]["rows"] == 3
        assert len(rows.read_text().splitlines()) == 4

    def test_missing_file_exit_three(self, tmp_path, monkeypatch, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.csv")]) == 3
        assert main(["report", "--in", str(tmp_path / "nope.csv")]) == 3
        # "builtin" is a theta path like any other; the built-in theta is an omitted one
        monkeypatch.chdir(tmp_path)
        config = self.sweep_config(tmp_path, theta="builtin")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 3
        assert capsys.readouterr().err.endswith(
            "i/o error: [Errno 2] No such file or directory: 'builtin'\n")

    def test_calibrate(self, tmp_path, capsys):
        grid = {
            "mu": 1.0, "n": 5000, "replications": 3, "master_seed": 2,
            "points": [
                {"lam": lam,
                 "interarrival": {"kind": "exponential", "rate": lam},
                 "service": {"kind": "exponential", "rate": 1.0}}
                for lam in (0.6, 0.7, 0.8, 0.85)
            ] + [
                {"lam": 0.8,
                 "interarrival": {"kind": "uniform", "mean": 1.25},
                 "service": {"kind": "uniform", "mean": 1.0}},
                {"lam": 0.75,
                 "interarrival": {"kind": "folded_normal", "location": 4 / 3, "scale": 2 / 3},
                 "service": {"kind": "exponential", "rate": 1.0}},
            ],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        theta_path = tmp_path / "theta.json"
        ds_path = tmp_path / "ds.csv"
        code = main(["calibrate", "--scenario", "single", "--grid", str(grid_path),
                     "--out", str(theta_path), "--dataset-out", str(ds_path)])
        assert code == 0
        doc = json.loads(theta_path.read_text())
        assert doc["scenario"] == "single"
        assert all(k in doc for k in ("theta0", "theta1", "theta2", "provenance"))
        assert ds_path.read_text().startswith("rho,sigma_a,sigma_s,gamma_s_star")

    def test_calibrate_empty_grid_exit_two(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"points": []}))
        theta = tmp_path / "theta.json"
        assert main(["calibrate", "--scenario", "single", "--grid", str(grid),
                     "--out", str(theta)]) == 2
        assert capsys.readouterr().err == (
            "numeric error: need at least 3 calibration rows, got 0\n")
        assert not theta.exists()

    @pytest.mark.parametrize("scenario", ["single", "two"])
    @pytest.mark.filterwarnings("ignore:skipping grid point")
    def test_calibrate_default_grid_golden_bytes(self, tmp_path, capsys, scenario):
        theta_path, ds_path = tmp_path / "theta.json", tmp_path / "ds.csv"
        assert main(["calibrate", "--scenario", scenario, "--out", str(theta_path),
                     "--dataset-out", str(ds_path)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (theta_path, ds_path))
        assert digests == DEFAULT_CALIBRATE_SHA256[scenario]

    @pytest.mark.parametrize("scenario", ["single", "two"])
    def test_benchmark_measures_the_default_calibrate_grid(self, monkeypatch, scenario):
        # the calibrate workload writes its own grid files; read, not run, and
        # without writing bytecode next to it
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        doc = worker.calibration_grid_doc(scenario, 0, worker.SIZES["small"])
        assert (calibration.grid_from_config(doc)
                == experiments.default_calibration_grid(scenario))

    def test_benchmark_traces_names_the_package_defines(self, monkeypatch):
        # the tracer looks up each traced name with getattr; read, not run,
        # and without writing bytecode next to it
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        # its dataclass resolves annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, tracer)
        spec.loader.exec_module(tracer)
        for module, name, _ in tracer.TRACED:
            fn = getattr(importlib.import_module(f"paoiq.{module}"), name, None)
            assert callable(fn), f"paoiq.{module}.{name}"

    def test_sweep_with_theta_file(self, tmp_path, capsys):
        from paoiq.calibration import builtin_theta, write_theta_json

        theta_path = tmp_path / "theta.json"
        write_theta_json(builtin_theta("single"), theta_path)
        config = self.sweep_config(tmp_path, theta=str(theta_path))
        out_csv = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out_csv)]) == 0
