"""Load sweeps comparing simulated peak age against the closed-form bounds.

A sweep simulates every arrival rate in a grid, maps the configured
distributions' analytic moments to variability parameters, evaluates each
of its scenario's bounds, and reports per-point relative errors plus a
per-method error percent (the grid average of |bound - simulated| /
simulated).  Time is measured in mean service times (mu = 1), the unit
theta is fitted in.

The whole sweep is a pure function of its config document, master seed
included, so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import (
    CALIBRATION_ALPHA,
    CalibrationCoefficients,
    builtin_theta,
    get_scenario,
    map_variability,
    read_theta_json,
)
from .errors import (
    NumericError,
    ValidationError,
    check_positive,
    fmt,
    json_float,
    parsing,
    read_fields,
    write_text,
)
from .robust_bounds import (
    UncertaintyParams,
    kingman_bound,
    paoi_from_system_bound,
    system_bound,
)
from .seeding import derive_seed
from .simulator import SystemParams, _replicate_points
from .stochastic import (
    DistributionSpec,
    make_exponential,
    make_folded_normal,
    make_uniform_mean,
)

FAMILIES = ("exponential", "normal", "uniform")

_REPORT_HEADER = "lambda,sim_paoi_mean,sim_paoi_ci95,method,bound_paoi,rel_error"
_SUMMARY_HEADER = "method,error_percent"


def family_spec(family: str, mean: float) -> DistributionSpec:
    """A distribution from one of the sweep families, pinned to a target mean.

    The normal family folds N(mean, (mean/2)^2); its post-folding mean is
    within 0.9% of the target, so the system it simulates runs at the rates
    ``SystemParams.realized`` reads off the means, and a sweep judges
    stability and evaluates its bounds there.
    """
    check_positive(mean, f"{family} mean")
    if family == "exponential":
        return make_exponential(1.0 / mean)
    if family == "normal":
        return make_folded_normal(location=mean, scale=0.5 * mean)
    if family == "uniform":
        return make_uniform_mean(mean)
    raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")


def default_calibration_grid(scenario: str) -> list[tuple[DistributionSpec, DistributionSpec]]:
    """The (interarrival, service) laws of ``paoiq calibrate``'s default grid:
    every pairing of the families at each calibration rate, with mu = 1."""
    return [(family_spec(fam_a, 1.0 / rho), family_spec(fam_s, 1.0))
            for fam_a in FAMILIES for fam_s in FAMILIES
            for rho in get_scenario(scenario).calibration_rates]


@dataclass(frozen=True)
class SweepConfig:
    scenario: str
    lambdas: tuple[float, ...] | None = None      # None -> scenario default
    interarrival_family: str = "exponential"
    service_family: str = "exponential"
    n: int = 100_000
    replications: int = 50
    warmup_fraction: float = 0.1
    master_seed: int = 0
    theta: CalibrationCoefficients | None = None  # None -> builtin for scenario

    def __post_init__(self) -> None:
        # the scenario first; n and the families with the rates, by points();
        # replications, warmup_fraction and master_seed by replicate and
        # derive_seed at the first rate
        get_scenario(self.scenario)
        if self.lambdas is not None and not self.lambdas:
            raise ValidationError("lambdas must not be empty; omit it for the default grid")
        rates = self.grid()
        if len(set(rates)) < len(rates):
            raise ValidationError(f"arrival rates must not repeat, got {rates}")
        for lam, system, _, _ in self.points():
            system.require_stable(f"rate {lam} of the {self.scenario} sweep")
        if self.theta is not None and self.theta.scenario != self.scenario:
            raise ValidationError(
                f"theta is calibrated for the {self.theta.scenario!r} scenario, "
                f"but the sweep scenario is {self.scenario!r}"
            )

    def grid(self) -> tuple[float, ...]:
        # an empty lambdas is rejected before this is called
        return self.lambdas or get_scenario(self.scenario).sweep_rates

    def points(self) -> Iterator[tuple[float, SystemParams, DistributionSpec, DistributionSpec]]:
        """(nominal rate, system at the laws' realized rates, interarrival law,
        service law) per grid rate; the nominal rate labels the report rows."""
        sources = get_scenario(self.scenario).sources
        svc_spec = family_spec(self.service_family, 1.0)
        for lam in self.grid():
            check_positive(lam, "lam")
            ia_spec = family_spec(self.interarrival_family, 1.0 / lam)
            yield lam, SystemParams.realized(ia_spec, svc_spec, self.n, sources), ia_spec, svc_spec


def config_from_json(doc: dict) -> SweepConfig:
    """Build a SweepConfig from the fields a JSON document holds; others keep their defaults."""
    kwargs = read_fields(doc, [f.name for f in fields(SweepConfig)], "sweep config")
    if "scenario" not in kwargs:
        raise ValidationError("sweep config needs a 'scenario'")
    if not isinstance(kwargs.get("lambdas", []), list):
        raise ValidationError(f"lambdas must be a list of numbers, got {kwargs['lambdas']!r}")
    if not isinstance(kwargs.get("theta", ""), str):
        raise ValidationError(f"theta must be a theta file path, got {kwargs['theta']!r}")
    with parsing("sweep config"):
        if "lambdas" in kwargs:
            kwargs["lambdas"] = tuple(json_float(x, "lambdas entry") for x in kwargs["lambdas"])
        if "theta" in kwargs:
            kwargs["theta"] = read_theta_json(kwargs["theta"])
        return SweepConfig(**kwargs)


@dataclass(frozen=True)
class SweepRow:
    lam: float
    sim_paoi_mean: float
    sim_paoi_ci95: float
    method: str
    bound_paoi: float
    rel_error: float


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    error_percents: dict[str, float] = field(default_factory=dict)


def error_percent(simulated, bound) -> float:
    """Grid-averaged absolute relative deviation, as a percentage, of finite
    bounds from finite, positive simulated values."""
    sim = np.asarray(simulated, dtype=np.float64)
    bnd = np.asarray(bound, dtype=np.float64)
    if sim.shape != bnd.shape or sim.size == 0:
        raise ValidationError(
            f"series must be non-empty and equal length, got {sim.shape} vs {bnd.shape}"
        )
    if not np.all((sim > 0) & (sim < np.inf)):
        raise ValidationError("simulated values must be finite and positive")
    if not np.all(np.isfinite(bnd)):
        raise ValidationError("bound values must be finite")
    return float(np.mean(np.abs(bnd - sim) / sim) * 100.0)


def error_percent_se(rows: list[SweepRow]) -> float:
    """Delta-method standard error of the error percent over ``rows``.

    Each simulated mean s has standard error ci95/1.96, and |b - s|/s has
    slope -b/s^2 in s, so the error percent has (100/N) sqrt(sum (b/s^2 *
    ci95/1.96)^2).  It is nan for no rows or where a ci95 is not positive,
    as a one-replication sweep writes 0 there, and rows from a file may make
    it inf or nan.
    """
    sim = np.array([r.sim_paoi_mean for r in rows])
    bnd = np.array([r.bound_paoi for r in rows])
    ci = np.array([r.sim_paoi_ci95 for r in rows])
    if not rows or not np.all(ci > 0):
        return math.nan
    with np.errstate(all="ignore"):
        return float(100.0 / len(rows) * np.sqrt(np.sum((bnd / sim**2 * ci / 1.96) ** 2)))


def _scored(rows: list[SweepRow], method: str) -> list[SweepRow]:
    """The rows of ``method`` that its error percent averages over."""
    return [r for r in rows if r.method == method and math.isfinite(r.rel_error)]


def run_sweep(config: SweepConfig) -> SweepReport:
    """Simulate every grid rate and evaluate each of the scenario's bounds."""
    theta = config.theta or builtin_theta(config.scenario)
    methods = get_scenario(config.scenario).methods
    report = SweepReport()

    points = list(config.points())
    summaries = _replicate_points(
        [(system, ia_spec, svc_spec, derive_seed(config.master_seed, gi))
         for gi, (_, system, ia_spec, svc_spec) in enumerate(points)],
        config.replications, config.warmup_fraction)
    for (lam, system, ia_spec, svc_spec), summary in zip(points, summaries):
        unc = None
        try:
            gamma_a, gamma_s = map_variability(
                ia_spec.std, svc_spec.std, rho=system.lam / system.mu, theta=theta
            )
            unc = UncertaintyParams(CALIBRATION_ALPHA, gamma_a, gamma_s)
        except NumericError as exc:
            warnings.warn(
                f"variability mapping failed at lam={lam}: {exc}",
                RuntimeWarning, stacklevel=2,
            )
        for method in methods:
            try:
                if method == "kingman":
                    bound = kingman_bound(system.lam, system.mu, ia_spec.variance,
                                          svc_spec.variance)
                elif unc is None:
                    raise NumericError("no variability parameters for this grid point")
                else:
                    bound = system_bound(method, system.lam, system.mu, config.n, unc)
                bound_paoi = paoi_from_system_bound(bound, system.lam)
            except NumericError as exc:
                warnings.warn(
                    f"bound {method} failed at lam={lam}: {exc}", RuntimeWarning, stacklevel=2
                )
                bound_paoi = float("nan")
            report.rows.append(
                SweepRow(
                    lam=lam,
                    sim_paoi_mean=summary.mean_paoi,
                    sim_paoi_ci95=summary.ci95_paoi,
                    method=method,
                    bound_paoi=bound_paoi,
                    rel_error=abs(bound_paoi - summary.mean_paoi) / summary.mean_paoi,
                )
            )
    # rows are still in grid order here, the order error_percent sums in
    for method in methods:
        done = _scored(report.rows, method)
        report.error_percents[method] = error_percent(
            [r.sim_paoi_mean for r in done], [r.bound_paoi for r in done]) if done else math.nan
    report.rows.sort(key=lambda r: (r.lam, r.method))
    return report


def report_to_csv_text(report: SweepReport) -> str:
    """Serialize a report: data rows, then the per-method summary block."""
    lines = [_REPORT_HEADER]
    for r in report.rows:
        lines.append(
            f"{fmt(r.lam)},{fmt(r.sim_paoi_mean)},{fmt(r.sim_paoi_ci95)},"
            f"{r.method},{fmt(r.bound_paoi)},{fmt(r.rel_error)}"
        )
    lines.append(_SUMMARY_HEADER)
    for method in sorted(report.error_percents):
        lines.append(f"{method},{fmt(report.error_percents[method])}")
    return "\n".join(lines) + "\n"


def report_csv(report: SweepReport, destination) -> None:
    """Persist a report; numbers carry 12 significant digits."""
    write_text(destination, report_to_csv_text(report))


def read_report_csv(path) -> SweepReport:
    """Parse a persisted sweep report (inverse of report_csv)."""
    report = SweepReport()
    with parsing(f"sweep report {path}"):
        with open(path, newline="") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines or lines[0] != _REPORT_HEADER:
            raise ValidationError(f"{path} does not look like a sweep report")
        i = 1
        while i < len(lines) and lines[i] != _SUMMARY_HEADER:
            lam, sim_mean, sim_ci, method, bound, rel = lines[i].split(",")
            report.rows.append(
                SweepRow(float(lam), float(sim_mean), float(sim_ci), method,
                         float(bound), float(rel))
            )
            i += 1
        if i >= len(lines):
            raise ValidationError(f"{path} is missing the summary block")
        for line in lines[i + 1:]:
            method, pct = line.split(",")
            report.error_percents[method] = float(pct)
    return report


def report_summary_text(report: SweepReport) -> str:
    """Human-readable error-percent table."""
    lams = sorted({r.lam for r in report.rows})
    out = [f"{len(report.rows)} rows over {len(lams)} arrival rates"]
    out.append(f"{'method':<10} {'error percent':>14} {'std error':>10}")
    for method in sorted(report.error_percents):
        pct = report.error_percents[method]
        # a method that failed at every point has no error percent
        cell = f"{pct:>13.2f}%" if math.isfinite(pct) else f"{'n/a':>14}"
        se = error_percent_se(_scored(report.rows, method))
        se_cell = f"{se:>10.3f}" if math.isfinite(se) else f"{'n/a':>10}"
        out.append(f"{method:<10} {cell} {se_cell}")
    return "\n".join(out)
