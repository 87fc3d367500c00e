"""Mapping distribution moments to uncertainty-set variability parameters.

The mapping is

    gamma_a = sigma_a
    gamma_s = sqrt(theta0 + theta1*sigma_s^2 + theta2*sigma_a^2*rho^2) - sigma_a

with rho = lam/mu the per-source load at the rates the simulated laws
realize (``SystemParams.realized``).  Built-in (theta0, theta1, theta2)
triples ship for the one- and two-source scenarios; ``fit_theta``
re-derives them from simulation data by ordinary least squares on the
linearized form y = (gamma_s* + sigma_a)^2 against
[1, sigma_s^2, sigma_a^2*rho^2], which inverts the mapping exactly.

Target gamma_s* values are extracted per instance by inverting the
closed-form worst-case bound against the simulated mean system time
(exact, by Dinkelbach's iteration on ``m_star``); the points are
simulated over forked processes where ``simulator._processes`` allows.
The tail coefficient is fixed to alpha = 2 throughout calibration.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CalibrationRangeError,
    NoSolutionError,
    SingularDesignError,
    ValidationError,
    check_nonnegative,
    check_positive,
    fmt,
    load_json,
    parsing,
    read_fields,
    write_text,
)
from .kernels import EMPTY_WINDOW
from .robust_bounds import UncertaintyParams, bound_robust2_single, bound_robust3_two, f
from .seeding import derive_seed
from .simulator import SystemParams, _replicate_points
from .stochastic import DistributionSpec, spec_from_dict

CALIBRATION_ALPHA = 2.0

_DATASET_HEADER = ("rho", "sigma_a", "sigma_s", "gamma_s_star", "kind_a", "kind_s", "seed")


@dataclass(frozen=True)
class Scenario:
    """What one scenario fixes; rates are per source, as fractions of mu.

    Values only: a stored function would bypass perfbench's tracer, which
    rebinds module attributes.
    """

    sources: int
    theta: tuple[float, float, float]     # built-in (theta0, theta1, theta2)
    methods: tuple[str, ...]              # the bounds every sweep evaluates
    sweep_rates: tuple[float, ...]        # default sweep grid
    calibration_rates: tuple[float, ...]  # default calibrate grid


SCENARIOS = {
    "single": Scenario(
        1, (-0.376, 3.978, 0.5), ("kingman", "robust1", "robust2"),
        sweep_rates=tuple(round(0.05 * i, 3) for i in range(3, 19)),       # 0.15 .. 0.90
        calibration_rates=tuple(round(0.1 * i, 3) for i in range(1, 10)),  # 0.1 .. 0.9
    ),
    "two": Scenario(
        2, (-1.302, 6.021, 0.7), ("robust3",),
        sweep_rates=tuple(round(0.025 * i, 3) for i in range(12, 20)),      # 0.30 .. 0.475
        calibration_rates=tuple(round(0.05 * i, 3) for i in range(1, 10)),  # 0.05 .. 0.45
    ),
}


def get_scenario(name) -> Scenario:
    """The record of a scenario name; anything else raises ValidationError."""
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ValidationError(f"scenario must be one of {tuple(SCENARIOS)}, got {name!r}")
    return SCENARIOS[name]


@dataclass(frozen=True)
class CalibrationCoefficients:
    theta0: float
    theta1: float
    theta2: float
    scenario: str

    def __post_init__(self) -> None:
        get_scenario(self.scenario)


def builtin_theta(scenario: str) -> CalibrationCoefficients:
    """The shipped regression coefficients for a scenario."""
    return CalibrationCoefficients(*get_scenario(scenario).theta, scenario)


def map_variability(
    sigma_a: float,
    sigma_s: float,
    rho: float,
    theta: CalibrationCoefficients,
) -> tuple[float, float]:
    """(gamma_a, gamma_s) from the moment mapping.

    The sigmas must be finite and >= 0, the load ``rho`` finite and > 0.
    A negative radicand is an error (the regression is being evaluated far
    outside its fitted region); a real but negative gamma_s is clamped to 0
    with a warning, since the uncertainty set needs gamma_s >= 0.
    """
    check_nonnegative(sigma_a, "sigma_a")
    check_nonnegative(sigma_s, "sigma_s")
    check_positive(rho, "rho")
    radicand = theta.theta0 + theta.theta1 * sigma_s**2 + theta.theta2 * sigma_a**2 * rho**2
    if radicand < 0:
        raise CalibrationRangeError(
            f"variability mapping radicand is negative ({radicand:.6g}) at "
            f"sigma_a={sigma_a}, sigma_s={sigma_s}, rho={rho}"
        )
    gamma_s = math.sqrt(radicand) - sigma_a
    if gamma_s < 0:
        warnings.warn(
            f"mapped gamma_s = {gamma_s:.6g} < 0 clamped to 0 "
            "(mapping extrapolated below its fitted region)",
            RuntimeWarning,
            stacklevel=2,
        )
        gamma_s = 0.0
    return float(sigma_a), gamma_s


def invert_gamma_s(
    sys: SystemParams,
    alpha: float,
    gamma_a: float,
    target_system_time: float,
) -> float:
    """The unique gamma_s >= 0 whose closed-form bound equals the target T.

    Window m gives the line c_m + s_m*gamma_s, where c_m is its value at
    gamma_s = 0 and s_m = k(m+1)^(1/alpha), or 1 at the two-source empty
    window m = -1/2.  The bound is their upper envelope, so the answer is
    min_m (T - c_m)/s_m; Dinkelbach's iteration steps to where the line of
    the worst window ``m_star`` reaches T until ``m_star`` repeats, which it
    must: each step after the first lands between the root and the previous
    point, on a line of smaller slope.
    """
    bound_fn = bound_robust2_single if sys.sources == 1 else bound_robust3_two
    start = bound_fn(sys, UncertaintyParams(alpha, gamma_a, 0.0))
    if not start.value <= target_system_time < math.inf:
        raise NoSolutionError(
            f"target system time {target_system_time:.6g} is not a finite value at or above "
            f"the gamma_s=0 bound {start.value:.6g}; no gamma_s >= 0 can reach it"
        )
    k, m, seen = sys.sources, start.m_star, set()
    while m not in seen:
        seen.add(m)
        slope = 1.0 if m == EMPTY_WINDOW else k * (m + 1.0) ** (1.0 / alpha)
        gamma_s = (target_system_time - f(m, k, sys.lam, sys.mu, alpha, gamma_a, 0.0)) / slope
        m = bound_fn(sys, UncertaintyParams(alpha, gamma_a, gamma_s)).m_star
    return gamma_s


@dataclass(frozen=True)
class CalibrationRow:
    rho: float
    sigma_a: float
    sigma_s: float
    gamma_s_star: float
    kind_a: str
    kind_s: str
    seed: int


@dataclass
class CalibrationDataset:
    scenario: str
    rows: list[CalibrationRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def design(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) of the linearized regression."""
        x = np.array([[1.0, r.sigma_s**2, r.sigma_a**2 * r.rho**2] for r in self.rows])
        y = np.array([(r.gamma_s_star + r.sigma_a) ** 2 for r in self.rows])
        return x, y


def fit_theta(dataset: CalibrationDataset) -> CalibrationCoefficients:
    """Least-squares (theta0, theta1, theta2) from a calibration dataset."""
    if len(dataset) < 3:
        raise SingularDesignError(
            f"need at least 3 calibration rows, got {len(dataset)}"
        )
    x, y = dataset.design()
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < 3:
        raise SingularDesignError(
            f"calibration design matrix is rank deficient (rank {rank} < 3)"
        )
    return CalibrationCoefficients(float(coef[0]), float(coef[1]), float(coef[2]),
                                   dataset.scenario)


def build_calibration_dataset(
    grid: list[tuple[DistributionSpec, DistributionSpec]],
    scenario: str,
    n: int = 20_000,
    replications: int = 10,
    warmup_fraction: float = 0.1,
    master_seed: int = 0,
) -> CalibrationDataset:
    """Simulate every (interarrival spec, service spec) grid point and
    invert the bound against its mean system time.

    Stability, the inversion and each row's rho are taken at the rates the
    laws realize (``SystemParams.realized``), as in the sweep that applies
    theta.  Rows whose inversion fails (target below the gamma_s = 0 bound;
    typical at light load, where the worst case already exceeds the mean)
    are reported and skipped.  Heavy-tailed specs are rejected: this path
    needs finite sigma values.
    """
    sources = get_scenario(scenario).sources
    # every point is checked before the first is simulated
    points = []
    for i, (spec_a, spec_s) in enumerate(grid):
        params = SystemParams.realized(spec_a, spec_s, n, sources)
        params.require_stable(f"{scenario} calibration grid point {i}")
        points.append((params, spec_a, spec_s, derive_seed(master_seed, i),
                       spec_a.std, spec_s.std))
    summaries = _replicate_points([p[:4] for p in points], replications, warmup_fraction)
    dataset = CalibrationDataset(scenario=scenario)
    for i, ((params, spec_a, spec_s, seed, sigma_a, sigma_s), summary) in enumerate(
            zip(points, summaries)):
        try:
            gamma_s_star = invert_gamma_s(params, CALIBRATION_ALPHA, sigma_a,
                                          summary.mean_system_time)
        except NoSolutionError as exc:
            warnings.warn(f"skipping grid point {i} (lam={fmt(params.lam)}): {exc}",
                          RuntimeWarning, stacklevel=2)
            continue
        dataset.rows.append(
            CalibrationRow(
                rho=params.lam / params.mu,
                sigma_a=sigma_a,
                sigma_s=sigma_s,
                gamma_s_star=gamma_s_star,
                kind_a=spec_a.kind,
                kind_s=spec_s.kind,
                seed=seed,
            )
        )
    return dataset


def write_dataset_csv(dataset: CalibrationDataset, path) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(_DATASET_HEADER)
    for r in dataset.rows:
        writer.writerow(
            [fmt(r.rho), fmt(r.sigma_a), fmt(r.sigma_s), fmt(r.gamma_s_star),
             r.kind_a, r.kind_s, r.seed]
        )
    write_text(path, buf.getvalue())


def read_dataset_csv(path, scenario: str) -> CalibrationDataset:
    dataset = CalibrationDataset(scenario=scenario)
    with open(path, newline="") as fh, parsing(f"calibration dataset {path}"):
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != _DATASET_HEADER:
            raise ValidationError(f"unexpected dataset header {header}")
        for rho, sigma_a, sigma_s, gamma_s_star, kind_a, kind_s, seed in reader:
            dataset.rows.append(
                CalibrationRow(float(rho), float(sigma_a), float(sigma_s),
                               float(gamma_s_star), kind_a, kind_s, int(seed))
            )
    return dataset


def write_theta_json(theta: CalibrationCoefficients, path, provenance: dict | None = None) -> None:
    doc = {
        "scenario": theta.scenario,
        "theta0": theta.theta0,
        "theta1": theta.theta1,
        "theta2": theta.theta2,
        "provenance": provenance or {},
    }
    write_text(path, json.dumps(doc, indent=2) + "\n")


def read_theta_json(path) -> CalibrationCoefficients:
    """The coefficients in a theta file, as ``write_theta_json`` writes it;
    its ``provenance`` is not read."""
    what = f"theta file {path}"
    theta = read_fields(load_json(path),
                        ("theta0", "theta1", "theta2", "scenario", "provenance"), what)
    with parsing(what):
        return CalibrationCoefficients(
            theta["theta0"], theta["theta1"], theta["theta2"], theta["scenario"])


def grid_from_config(doc: dict) -> list[tuple[DistributionSpec, DistributionSpec]]:
    """The (interarrival, service) laws of a calibrate grid document,
    {"points": [{"interarrival", "service"}]}; its other fields are the
    settings the caller reads.  A point's optional ``lam`` is typed, unused."""
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise ValidationError("calibration grid config needs a 'points' list")
    points = [read_fields(p, ("lam", "interarrival", "service"), "calibration grid point")
              for p in doc["points"]]
    with parsing("calibration grid point"):
        return [(spec_from_dict(p["interarrival"]), spec_from_dict(p["service"]))
                for p in points]
