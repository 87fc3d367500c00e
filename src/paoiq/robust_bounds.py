"""Worst-case system-time bounds over partial-sum uncertainty sets.

The uncertainty model constrains normalized partial sums of service and
interarrival times by variability parameters (gamma_s, gamma_a) and a tail
coefficient alpha in (1, 2].  Available methods:

* ``exact_single`` - exact worst case for one source, enumerated over the
  integer grid m = 0..n-1 of
  f(m) = (m+1)/mu - m/lam + gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha);
* ``robust1``      - closed-form relaxation, n-independent, tight at high load;
* ``robust2``      - closed form equal to exact_single via a three-candidate
  argmax around the continuous stationary point l;
* ``exact_two``    - two-symmetric-source worst case on the half-integer grid
  m = -1/2, 0, 1/2, ..., n/2-1 of
  f(m) = 2(m+1)/mu - m/lam + 2*gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha),
  with f(-1/2) = 1/mu + gamma_s (empty interarrival sum);
* ``robust3``      - closed form equal to exact_two via five half-integer
  candidates;
* ``kingman``      - classical mean-variance bound on the expected system time.

System-time bounds convert to peak-age bounds by adding the mean
interarrival time (``paoi_from_system_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import StabilityError, ValidationError
from .simulator import SystemParams

METHODS = ("exact_single", "robust1", "robust2", "exact_two", "robust3", "kingman")


@dataclass(frozen=True)
class UncertaintyParams:
    """Tail coefficient and variability parameters of the uncertainty sets."""

    alpha: float
    gamma_a: float
    gamma_s: float

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha <= 2.0:
            raise ValidationError(f"alpha must be in (1, 2], got {self.alpha}")
        if not (0 <= self.gamma_a < math.inf and 0 <= self.gamma_s < math.inf):
            raise ValidationError(
                f"variability parameters must be finite and >= 0, got "
                f"gamma_a={self.gamma_a}, gamma_s={self.gamma_s}"
            )


@dataclass(frozen=True)
class BoundResult:
    """A system-time bound value plus the inputs that produced it."""

    value: float
    method: str
    m_star: float | None = None
    sys: SystemParams | None = None
    unc: UncertaintyParams | None = None


def f_single(m: float, lam: float, mu: float, alpha: float,
             gamma_a: float, gamma_s: float) -> float:
    ia = 1.0 / alpha
    return (m + 1.0) / mu - m / lam + gamma_s * (m + 1.0) ** ia + gamma_a * m**ia


def f_two(m: float, lam: float, mu: float, alpha: float,
          gamma_a: float, gamma_s: float) -> float:
    if m == -0.5:
        return 1.0 / mu + gamma_s
    ia = 1.0 / alpha
    return (2.0 * (m + 1.0) / mu - m / lam
            + 2.0 * gamma_s * (m + 1.0) ** ia + gamma_a * m**ia)


def worst_case_exact_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Exact single-source worst case by full enumeration over m = 0..n-1.

    Always well defined, including overloaded systems (lam >= mu), where the
    maximum simply moves to m = n-1.
    """
    _require_sources(sys, 1)
    value, m_star = kernels.exact_single_max(
        sys.lam, sys.mu, unc.alpha, unc.gamma_a, unc.gamma_s, sys.n
    )
    return BoundResult(float(value), "exact_single", float(m_star), sys, unc)


def bound_robust1_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Closed-form single-source relaxation; independent of n.

    value = (alpha-1)/alpha^(alpha/(alpha-1))
            * (gamma_s+gamma_a)^(alpha/(alpha-1)) / (1/lam - 1/mu)^(1/(alpha-1))
            + 1/lam
    """
    _require_sources(sys, 1)
    _require_stable_single(sys)
    a = unc.alpha
    beta = a / (a - 1.0)
    drift = 1.0 / sys.lam - 1.0 / sys.mu
    value = ((a - 1.0) / a**beta * (unc.gamma_s + unc.gamma_a) ** beta
             / drift ** (1.0 / (a - 1.0)) + 1.0 / sys.lam)
    return BoundResult(value, "robust1", None, sys, unc)


def bound_robust2_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Single-source worst case via the three-candidate closed form.

    The concave continuation of f has its stationary point between l-1 and
    l, where l = (alpha*(1/lam-1/mu)/(gamma_a+gamma_s))^(alpha/(1-alpha)),
    so the integer argmax lies in {floor(l)-1, floor(l), floor(l)+1}
    intersected with [0, n-1]; if the domain ends before that window, f is
    still increasing and the endpoint n-1 wins.  Degenerate deterministic
    inputs (gamma_a + gamma_s = 0) fall back to plain enumeration.
    """
    _require_sources(sys, 1)
    _require_stable_single(sys)
    lam, mu, n = sys.lam, sys.mu, sys.n
    a, ga, gs = unc.alpha, unc.gamma_a, unc.gamma_s

    if ga + gs == 0.0:
        value, m_star = kernels.exact_single_max(lam, mu, a, ga, gs, n)
        return BoundResult(max(float(value), 0.0), "robust2", float(m_star), sys, unc)

    try:
        l = (a * (1.0 / lam - 1.0 / mu) / (ga + gs)) ** (a / (1.0 - a))
    except OverflowError:
        # the exponent blows up as alpha -> 1; an out-of-range l means the
        # stationary point sits far past any finite domain
        l = math.inf
    if not math.isfinite(l) or l >= n:
        # stationary point at or beyond the domain end (n-1 <= floor(l)-1):
        # f still increases on [0, n-1], the endpoint wins
        m_star = n - 1
    else:
        fl = math.floor(l)
        candidates = [m for m in (fl - 1, fl, fl + 1) if 0 <= m <= n - 1]
        m_star = max(candidates, key=lambda m: (f_single(m, lam, mu, a, ga, gs), -m))
    value = max(f_single(m_star, lam, mu, a, ga, gs), 0.0)
    return BoundResult(value, "robust2", float(m_star), sys, unc)


def worst_case_exact_two(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Exact two-source worst case by enumeration over the half-integer grid.

    The grid point m = -1/2 corresponds to bounding the final update alone
    (empty interarrival sum) and evaluates to 1/mu + gamma_s exactly.
    """
    _require_sources(sys, 2)
    value, m_star = kernels.exact_two_max(
        sys.lam, sys.mu, unc.alpha, unc.gamma_a, unc.gamma_s, sys.n
    )
    return BoundResult(float(value), "exact_two", float(m_star), sys, unc)


def bound_robust3_two(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Two-source worst case via the five-candidate closed form.

    Candidates are the half-integers {floor(l)-1, floor(l)-1/2, floor(l),
    floor(l)+1/2, floor(l)+1} capped to [0, n/2-1], with
    l = (alpha*(1/lam-2/mu)/(gamma_a+2*gamma_s))^(alpha/(1-alpha)); the
    boundary value f(-1/2) = 1/mu + gamma_s always competes.  n = 1 has only
    the boundary point.  Degenerate gamma_a + 2*gamma_s = 0 falls back to
    enumeration.
    """
    _require_sources(sys, 2)
    if not 2.0 * sys.lam < sys.mu:
        raise StabilityError(
            f"two-source bound requires 2*lam < mu, got lam={sys.lam}, mu={sys.mu}"
        )
    lam, mu, n = sys.lam, sys.mu, sys.n
    a, ga, gs = unc.alpha, unc.gamma_a, unc.gamma_s
    boundary = f_two(-0.5, lam, mu, a, ga, gs)

    if ga + 2.0 * gs == 0.0:
        value, m_star = kernels.exact_two_max(lam, mu, a, ga, gs, n)
        return BoundResult(max(float(value), 0.0), "robust3", float(m_star), sys, unc)

    m_top = 0.5 * n - 1.0  # largest half-integer grid point
    if n == 1:
        return BoundResult(max(boundary, 0.0), "robust3", -0.5, sys, unc)

    try:
        l = (a * (1.0 / lam - 2.0 / mu) / (ga + 2.0 * gs)) ** (a / (1.0 - a))
    except OverflowError:
        l = math.inf
    if not math.isfinite(l) or l >= 0.5 * n:
        # stationary point at or past the top of the grid: f increases there
        candidates = [m_top]
    else:
        fl = math.floor(l)
        candidates = [m for m in (fl - 1.0, fl - 0.5, float(fl), fl + 0.5, fl + 1.0)
                      if 0.0 <= m <= m_top]
    best_m = max(candidates, key=lambda m: (f_two(m, lam, mu, a, ga, gs), -m))
    best = f_two(best_m, lam, mu, a, ga, gs)
    if boundary >= best:
        best, best_m = boundary, -0.5
    return BoundResult(max(best, 0.0), "robust3", best_m, sys, unc)


def kingman_bound(lam: float, mu: float, var_a: float | None, var_s: float | None) -> BoundResult:
    """Mean-variance bound on the expected system time:
    (lam/2) * (var_a + var_s) / (1 - rho) + 1/mu, for rho = lam/mu < 1.
    """
    if not (0 < lam < math.inf and 0 < mu < math.inf):
        raise ValidationError(f"rates must be finite and positive, got lam={lam}, mu={mu}")
    if var_a is None or var_s is None:
        raise ValidationError("kingman bound requires finite variances")
    if not (0 <= var_a < math.inf and 0 <= var_s < math.inf):
        raise ValidationError(
            f"variances must be finite and >= 0, got var_a={var_a}, var_s={var_s}"
        )
    rho = lam / mu
    if rho >= 1.0:
        raise StabilityError(f"kingman bound requires lam < mu, got rho={rho}")
    value = 0.5 * lam * (var_a + var_s) / (1.0 - rho) + 1.0 / mu
    return BoundResult(value, "kingman", None, None, None)


def paoi_from_system_bound(bound: BoundResult, lam: float) -> float:
    """Peak-age value of a system-time bound: bound + mean interarrival time."""
    if not lam > 0:
        raise ValidationError(f"lam must be > 0, got {lam}")
    return bound.value + 1.0 / lam


def _require_sources(sys: SystemParams, expected: int) -> None:
    if sys.sources != expected:
        raise ValidationError(
            f"this bound applies to {expected}-source systems, got sources={sys.sources}"
        )


def _require_stable_single(sys: SystemParams) -> None:
    if not sys.lam < sys.mu:
        raise StabilityError(
            f"single-source bound requires lam < mu, got lam={sys.lam}, mu={sys.mu}"
        )
