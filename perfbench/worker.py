"""One measured iteration of one benchmark workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last stdout line:

* ``setup_done``: ``time.monotonic()`` once the package is imported and the
  workload's config is parsed and validated (the parent subtracts its own
  spawn time, both clocks being the system-wide CLOCK_MONOTONIC);
* ``wall_s``: time from the end of set-up to the finished report, theta
  files or oracle verdict;
* ``peak_rss_mb``, ``attempted`` / ``failed`` ops and the output checks;
* with ``--trace 1``, the per-layer metrics of ``tracer.py``.

``--workload kernel-rows`` instead times the kernels alone on fixed sizes.

    python3 perfbench/worker.py --workload sweep-single --seed 0 --size full \
        --trace 0 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

import paoiq
import paoiq.cli
from paoiq import calibration, experiments, robust_bounds
from paoiq.errors import PaoiqError
from paoiq.robust_bounds import UncertaintyParams
from paoiq.simulator import SystemParams

import tracer as tracing

# Per-size parameters.  "full" is the paper's configuration; "small" keeps
# every code path and check but runs in about a second (used by the test).
SIZES = {
    "full": {"sweep_n": 100_000, "sweep_reps": 50, "cal_n": 20_000, "cal_reps": 10,
             "oracle_tuples": 10_000},
    "small": {"sweep_n": 10_000, "sweep_reps": 5, "cal_n": 4_000, "cal_reps": 3,
              "oracle_tuples": 1_000},
}

# Criterion-5 windows of the acceptance suite: (center, half-width).
ERROR_WINDOWS = {
    "single": {"robust2": (8.32, 4.0), "kingman": (33.86, 6.0), "robust1": (32.01, 6.0)},
    "two": {"robust3": (12.68, 5.0)},
}

# The default calibration grids of ``paoiq calibrate``: per-source rates as
# fractions of mu, crossed with every pairing of the sweep families.
CAL_RHOS = {
    "single": tuple(round(0.1 * i, 3) for i in range(1, 10)),
    "two": tuple(round(0.05 * i, 3) for i in range(1, 10)),
}

ORACLE_SEEDS = (20240101, 20240202)
ORACLE_REL_TOL = 1e-9
DOMINANCE_SLACK = 1e-12


def _silent_main(argv: list[str]) -> int:
    """``paoiq.cli.main`` with its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return paoiq.cli.main(argv)


# ---------------------------------------------------------------- sweeps

class Sweep:
    def __init__(self, scenario: str, seed: int, size: dict, workdir: Path) -> None:
        self.scenario = scenario
        doc = {"scenario": scenario, "master_seed": seed,
               "n": size["sweep_n"], "replications": size["sweep_reps"]}
        self.config = experiments.config_from_json(doc)
        self.grid = self.config.grid()
        self.config_path = workdir / f"sweep-{scenario}.json"
        self.config_path.write_text(json.dumps(doc))
        self.out_path = workdir / f"report-{scenario}.csv"

    def run(self) -> int:
        return _silent_main(["sweep", "--config", str(self.config_path),
                             "--out", str(self.out_path)])

    def check(self, code: int) -> dict:
        attempted = len(self.grid)
        if code != 0:
            return {"attempted": attempted, "failed": attempted,
                    "problems": [f"paoiq sweep exited {code}"]}
        data = self.out_path.read_bytes()
        report = experiments.read_report_csv(self.out_path)
        bad = set()
        for row in report.rows:
            if not all(math.isfinite(v) for v in
                       (row.sim_paoi_mean, row.sim_paoi_ci95, row.bound_paoi)):
                bad.add(row.lam)
        missing = set(self.grid) - {row.lam for row in report.rows}
        problems = [f"non-finite output at lam={lam}" for lam in sorted(bad)]
        problems += [f"no rows for lam={lam}" for lam in sorted(missing)]
        err = report.error_percents
        for method, (center, tol) in ERROR_WINDOWS[self.scenario].items():
            got = err.get(method, math.nan)
            if not abs(got - center) <= tol:
                problems.append(f"{method} error {got:.4g}% outside {center}+-{tol}")
        if self.scenario == "single" and not (
                err["robust2"] < err["kingman"] and err["robust2"] < err["robust1"]):
            problems.append("robust2 is not the most accurate bound")
        failed = len(bad | missing)
        if problems and not failed:
            failed = attempted  # a run-level check failed: the report is wrong
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "csv_sha256": hashlib.sha256(data).hexdigest(),
                "err_pct": {m: err[m] for m in sorted(err)}}


# ------------------------------------------------------------ calibration

def calibration_grid_doc(scenario: str, seed: int, size: dict) -> dict:
    """The default ``paoiq calibrate`` grid as a grid file, with its seed set."""
    mu = 1.0
    points = []
    for fam_a, fam_s in itertools.product(experiments.FAMILIES, repeat=2):
        for rho in CAL_RHOS[scenario]:
            lam = rho * mu
            points.append({
                "lam": lam,
                "interarrival": experiments.family_spec(fam_a, 1.0 / lam).to_dict(),
                "service": experiments.family_spec(fam_s, 1.0 / mu).to_dict(),
            })
    return {"mu": mu, "n": size["cal_n"], "replications": size["cal_reps"],
            "warmup_fraction": 0.1, "master_seed": seed, "points": points}


class Calibrate:
    def __init__(self, seed: int, size: dict, workdir: Path) -> None:
        self.runs = []
        for scenario in calibration.SCENARIOS:
            doc = calibration_grid_doc(scenario, seed, size)
            points = len(calibration.grid_from_config(doc))
            grid_path = workdir / f"grid-{scenario}.json"
            grid_path.write_text(json.dumps(doc))
            self.runs.append((scenario, points, grid_path,
                              workdir / f"theta-{scenario}.json",
                              workdir / f"rows-{scenario}.csv"))

    def run(self) -> list[int]:
        return [_silent_main(["calibrate", "--scenario", scenario, "--grid", str(grid),
                              "--out", str(theta), "--dataset-out", str(rows)])
                for scenario, _, grid, theta, rows in self.runs]

    def check(self, codes: list[int]) -> dict:
        out = {"attempted": 0, "failed": 0, "problems": [], "theta": {}, "rows_kept": {}}
        for code, (scenario, points, _, theta_path, rows_path) in zip(codes, self.runs):
            out["attempted"] += points
            problems = []
            if code != 0:
                problems.append(f"paoiq calibrate --scenario {scenario} exited {code}")
            else:
                theta = json.loads(theta_path.read_text())
                values = [theta[k] for k in ("theta0", "theta1", "theta2")]
                out["theta"][scenario] = values
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"{scenario}: non-finite theta {values}")
                dataset = calibration.read_dataset_csv(rows_path, scenario)
                out["rows_kept"][scenario] = [len(dataset), points]
                x, _ = dataset.design()
                rank = int(np.linalg.matrix_rank(x)) if len(dataset) else 0
                if rank < 3:
                    problems.append(f"{scenario}: design rank {rank} < 3")
            if problems:
                out["failed"] += points
                out["problems"] += problems
        return out


# ----------------------------------------------------------- bound oracle

def random_tuples(count: int, seed: int, two_source: bool) -> list:
    """The random (system, uncertainty) tuples of acceptance criteria 1-3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        alpha = 2.0 if i % 10 == 0 else float(rng.uniform(1.05, 2.0))
        mu = float(rng.uniform(0.5, 2.0))
        load = float(rng.uniform(0.05, 0.95))
        lam = load * mu / (2.0 if two_source else 1.0)
        ga = 0.0 if i % 19 == 0 else float(rng.uniform(0.0, 10.0))
        gs = 0.0 if i % 29 == 0 else float(rng.uniform(0.0, 10.0))
        n = int(rng.integers(1, 501))
        out.append((SystemParams(lam, mu, n, 2 if two_source else 1),
                    UncertaintyParams(alpha, ga, gs)))
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Oracle:
    def __init__(self, seed: int, size: dict) -> None:
        count = size["oracle_tuples"]
        self.single = random_tuples(count, ORACLE_SEEDS[0] + seed, two_source=False)
        self.two = random_tuples(count, ORACLE_SEEDS[1] + seed, two_source=True)

    def run(self) -> list[str]:
        """One verdict per tuple: "" when it holds, else what broke."""
        rb = robust_bounds
        verdicts = []
        for sysp, unc in self.single:
            try:
                exact = rb.worst_case_exact_single(sysp, unc).value
                closed = rb.bound_robust2_single(sysp, unc).value
                relaxed = rb.bound_robust1_single(sysp, unc).value
            except PaoiqError as exc:
                verdicts.append(f"single: {exc}")
                continue
            if not _rel(closed, exact) <= ORACLE_REL_TOL:
                verdicts.append(f"robust2 {closed!r} != exact {exact!r}")
            elif not relaxed - exact >= -DOMINANCE_SLACK:
                verdicts.append(f"robust1 {relaxed!r} < exact {exact!r}")
            else:
                verdicts.append("")
        for sysp, unc in self.two:
            try:
                exact = rb.worst_case_exact_two(sysp, unc).value
                closed = rb.bound_robust3_two(sysp, unc).value
            except PaoiqError as exc:
                verdicts.append(f"two: {exc}")
                continue
            if not _rel(closed, exact) <= ORACLE_REL_TOL:
                verdicts.append(f"robust3 {closed!r} != exact {exact!r}")
            else:
                verdicts.append("")
        return verdicts

    def check(self, verdicts: list[str]) -> dict:
        problems = [v for v in verdicts if v]
        return {"attempted": len(verdicts), "failed": len(problems),
                "problems": problems[:10]}


# ------------------------------------------------------------ per-layer

MODULES = ("stochastic", "seeding", "kernels", "simulator", "robust_bounds",
           "calibration", "experiments", "cli")

ROBUST_BOUNDS = ("worst_case_exact_single", "bound_robust2_single", "bound_robust1_single",
                 "worst_case_exact_two", "bound_robust3_two")


def layer_metrics(tr: tracing.Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""
    st = tr.stats

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    s = st["stochastic.sample_stream"]
    m["stochastic.sample_stream.calls"] = (s.calls, "count")
    m["stochastic.sample_stream.self_s"] = (s.self_s, "s")
    m["stochastic.sample_stream.ns_per_sample"] = (per(1e9 * s.self_s, s.work), "ns")
    s = st["seeding.derive_seed"]
    m["seeding.derive_seed.calls"] = (s.calls, "count")
    m["seeding.derive_seed.self_s"] = (s.self_s, "s")
    s = st["kernels.lindley_system_times"]
    m["kernels.lindley_system_times.self_s"] = (s.self_s, "s")
    m["kernels.lindley_system_times.ns_per_update"] = (per(1e9 * s.self_s, s.work), "ns")
    for name in ("exact_single_max", "exact_two_max"):
        s = st[f"kernels.{name}"]
        m[f"kernels.{name}.self_s"] = (s.self_s, "s")
        m[f"kernels.{name}.ns_per_grid_point"] = (per(1e9 * s.self_s, s.work), "ns")
    for name in ("simulate_fcfs", "paoi_trace_single", "merge_arrivals",
                 "simulate_two_source", "paoi_trace_two_source", "replicate"):
        m[f"simulator.{name}.self_s"] = (st[f"simulator.{name}"].self_s, "s")
    s = st["simulator.replicate"]
    m["simulator.replicate.updates"] = (s.work, "count")
    m["simulator.replicate.ns_per_update"] = (per(1e9 * s.total_s, s.work), "ns")
    for name in ROBUST_BOUNDS:
        s = st[f"robust_bounds.{name}"]
        m[f"robust_bounds.{name}.us_per_call"] = (per(1e6 * s.total_s, s.calls), "us")
    m["robust_bounds.calls"] = (
        sum(v.calls for k, v in st.items() if k.startswith("robust_bounds.")), "count")
    s = st["calibration.map_variability"]
    m["calibration.map_variability.clamped_frac"] = (per(s.work, s.calls), "frac")
    s = st["calibration.invert_gamma_s"]
    evals = sum(tr.child_calls("calibration.invert_gamma_s", f"robust_bounds.{b}")
                for b in ("bound_robust2_single", "bound_robust3_two"))
    m["calibration.invert_gamma_s.self_s"] = (s.self_s, "s")
    m["calibration.invert_gamma_s.bound_evals_per_call"] = (per(evals, s.calls), "count")
    # one replicate call per grid point; the work count is the rows kept
    points = tr.child_calls("calibration.build_calibration_dataset", "simulator.replicate")
    m["calibration.rows_kept_frac"] = (
        per(st["calibration.build_calibration_dataset"].work, points), "frac")
    m["calibration.fit_theta.self_s"] = (st["calibration.fit_theta"].self_s, "s")
    m["experiments.run_sweep.self_s"] = (st["experiments.run_sweep"].self_s, "s")
    m["cli.main.self_s"] = (st["cli.main"].self_s, "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(v.self_s for k, v in st.items() if k.startswith(module + ".")), "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.unattributed_s"] = (wall_s - tr.root_s(), "s")
    return m


# ----------------------------------------------------------- kernel rows

def _best_of(repeat: int, fn) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _enumeration_grid(kernel, seed: int, two_source: bool, points: int, n: int):
    rng = np.random.default_rng(seed)
    args = []
    for _ in range(points):
        mu = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.05, 0.95) * mu / (2.0 if two_source else 1.0)
        args.append((lam, mu, rng.uniform(1.05, 2.0), rng.uniform(0, 10),
                     rng.uniform(0, 10), n))
    return lambda: [kernel(*a) for a in args]


def kernel_rows(seed: int, repeat: int = 5) -> dict:
    """The kernel-only rows: Lindley at three path lengths, both
    enumerations on 2000 random tuples of n = 500; best of ``repeat``."""
    kernels = paoiq.kernels
    rng = np.random.default_rng(seed)
    m = {}
    for label, n in (("1e4", 10_000), ("1e5", 100_000), ("1e6", 1_000_000)):
        t = rng.exponential(2.0, n)
        x = rng.exponential(1.0, n)
        best = _best_of(repeat, lambda: kernels.lindley_system_times(t, x))
        m[f"kernels.bench.lindley_n{label}.ns_per_update"] = (1e9 * best / n, "ns")
    for i, name in enumerate(("exact_single", "exact_two")):
        fn = _enumeration_grid(getattr(kernels, f"{name}_max"), seed + 1 + i,
                               name == "exact_two", 2_000, 500)
        best = _best_of(repeat, fn)
        m[f"kernels.bench.{name}_2000x500.ns_per_grid_point"] = (
            1e9 * best / (2_000 * 500), "ns")
    return m


# ------------------------------------------------------------------ main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-single", "sweep-two", "calibrate", "bounds-oracle",
                                 "kernel-rows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    size = SIZES[args.size]

    if args.workload == "kernel-rows":
        metrics = kernel_rows(args.seed)
        print(json.dumps({"metrics": metrics}))
        return 0

    if args.workload == "sweep-single":
        workload = Sweep("single", args.seed, size, args.workdir)
    elif args.workload == "sweep-two":
        workload = Sweep("two", args.seed, size, args.workdir)
    elif args.workload == "calibrate":
        workload = Calibrate(args.seed, size, args.workdir)
    else:
        workload = Oracle(args.seed, size)
    setup_done = time.monotonic()

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    t0, c0 = time.perf_counter(), time.process_time()
    output = workload.run()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0

    result = workload.check(output)
    result.update({
        "setup_done": setup_done,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": bool(args.trace),
        "environment": {
            "backend": paoiq.BACKEND,
            "paoiq": paoiq.__version__,
            "paoiq_file": paoiq.__file__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
    })
    if tr is not None:
        result["layers"] = layer_metrics(tr, wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
