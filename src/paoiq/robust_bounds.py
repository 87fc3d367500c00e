"""Worst-case system-time bounds over partial-sum uncertainty sets.

The uncertainty model constrains normalized partial sums of service and
interarrival times by variability parameters (gamma_s, gamma_a) and a tail
coefficient alpha in (1, 2].  With k = 1 or 2 symmetric sources the worst
case is the max of

    f(m) = k(m+1)/mu - m/lam + k*gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha)

(``kernels.window_bound``) over the grid m = 0, 1/k, ..., n/k - 1, which is
empty only for k = 2 and n = 1: then the worst case is the empty window
m = -1/2 (``kernels.EMPTY_WINDOW``), f = 1/mu + gamma_s.  Available methods:

* ``exact_single`` / ``exact_two`` - that max by enumeration (k = 1 / 2);
* ``robust2`` / ``robust3``        - closed forms equal to it, an argmax
  over a few candidates around the continuous stationary point l;
* ``robust1``      - closed-form relaxation, n-independent, tight at high load;
* ``kingman``      - classical mean-variance bound on the expected system time.

System-time bounds convert to peak-age bounds by adding the mean
interarrival time (``paoi_from_system_bound``).  A bound that is not finite
raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import NumericError, ValidationError, check_nonnegative, check_positive
from .simulator import SystemParams

# Sources of every worst-case method; kingman takes variances instead.
SOURCES = {"exact_single": 1, "robust1": 1, "robust2": 1, "exact_two": 2, "robust3": 2}
METHODS = (*SOURCES, "kingman")

# Enumeration peaks at 32 bytes per grid point, four float64 arrays: the grid,
# its powers, the value and one temporary; a first k = 2 call adds the k = 1
# grid, 40 in all (tracemalloc, n = 10**6 and 10**7).  On kept grids a call
# adds 24 bytes per point to the grids' 8 per k, which stay until exit
# (``kernels._grid``); k = 2 keeps the k = 1 grid too.  This keeps one
# enumeration under about 0.4 GB, and a kept grid under 80 MB per k.
MAX_ENUMERATION_N = 10**7


@dataclass(frozen=True, slots=True)
class UncertaintyParams:
    """Tail coefficient and variability parameters of the uncertainty sets."""

    alpha: float
    gamma_a: float
    gamma_s: float

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha <= 2.0:
            raise ValidationError(f"alpha must be in (1, 2], got {self.alpha}")
        check_nonnegative(self.gamma_a, "gamma_a")
        check_nonnegative(self.gamma_s, "gamma_s")


@dataclass(slots=True)
class BoundResult:
    """A system-time bound value, and where the worst case is reached."""

    value: float
    method: str
    m_star: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise NumericError(f"{self.method} bound is not finite: {self.value}")


def f(m: float, k: int, lam: float, mu: float, alpha: float,
      gamma_a: float, gamma_s: float) -> float:
    """``window_bound`` at a float m, or 1/mu + gamma_s at the empty window."""
    if m == kernels.EMPTY_WINDOW:
        return 1.0 / mu + gamma_s
    return kernels.window_bound(m, k, lam, mu, alpha, gamma_a, gamma_s)


def worst_case_exact_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Exact single-source worst case by full enumeration over m = 0..n-1.

    Always well defined, including overloaded systems (lam >= mu), where the
    maximum simply moves to m = n-1.
    """
    _require_sources(sys, 1)
    return _enumerate(sys, unc, "exact_single")


def bound_robust1_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Closed-form single-source relaxation; independent of n.

    value = (alpha-1)/alpha^(alpha/(alpha-1))
            * (gamma_s+gamma_a)^(alpha/(alpha-1)) / (1/lam - 1/mu)^(1/(alpha-1))
            + 1/lam
    """
    _require_sources(sys, 1)
    sys.require_stable("robust1")
    a = unc.alpha
    beta = a / (a - 1.0)
    drift = 1.0 / sys.lam - 1.0 / sys.mu
    g = unc.gamma_s + unc.gamma_a
    try:
        value = ((a - 1.0) / a**beta * g**beta
                 / drift ** (1.0 / (a - 1.0)) + 1.0 / sys.lam)
    except (OverflowError, ZeroDivisionError):
        # alpha near 1 sends both powers past the float range even where
        # their ratio, and so the bound, is small: take the ratio in logs
        value = _robust1_term_in_logs(a, beta, g, drift) + 1.0 / sys.lam
    return BoundResult(value, "robust1")


def _robust1_term_in_logs(a: float, beta: float, g: float, drift: float) -> float:
    """(a-1)/a^beta * g^beta / drift^(1/(a-1)) for g >= 0, drift > 0, through logs."""
    if g == 0.0:
        return 0.0
    log_term = (math.log(a - 1.0) - beta * math.log(a) + beta * math.log(g)
                - math.log(drift) / (a - 1.0))
    try:
        return math.exp(log_term)
    except OverflowError as exc:
        raise NumericError(
            f"robust1 bound out of float range: its first term is exp({log_term:.6g})"
        ) from exc


def bound_robust2_single(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Single-source worst case via the three-candidate closed form
    (see ``_closed_form``, k = 1)."""
    _require_sources(sys, 1)
    return _closed_form(sys, unc, "robust2")


def worst_case_exact_two(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Exact two-source worst case by enumeration over the half-integer grid,
    or the empty window when n = 1."""
    _require_sources(sys, 2)
    return _enumerate(sys, unc, "exact_two")


def bound_robust3_two(sys: SystemParams, unc: UncertaintyParams) -> BoundResult:
    """Two-source worst case via the five-candidate closed form
    (see ``_closed_form``, k = 2)."""
    _require_sources(sys, 2)
    return _closed_form(sys, unc, "robust3")


def kingman_bound(lam: float, mu: float, var_a: float | None, var_s: float | None) -> BoundResult:
    """Mean-variance bound on the expected system time:
    (lam/2) * (var_a + var_s) / (1 - rho) + 1/mu, for rho = lam/mu < 1.
    """
    sys = SystemParams(lam, mu, 1)  # the bound does not depend on n
    if var_a is None or var_s is None:
        raise ValidationError("kingman bound requires finite variances")
    check_nonnegative(var_a, "var_a")
    check_nonnegative(var_s, "var_s")
    sys.require_stable("kingman")
    value = 0.5 * lam * (var_a + var_s) / (1.0 - lam / mu) + 1.0 / mu
    return BoundResult(value, "kingman")


def system_bound(method: str, lam: float, mu: float, n: int,
                 unc: UncertaintyParams) -> BoundResult:
    """The worst-case ``method`` bound for SOURCES[method] sources at rate lam each."""
    if method not in SOURCES:
        raise ValidationError(f"unknown method {method!r}; expected one of {tuple(SOURCES)}")
    # built per call, so that a module attribute rebound after import is used
    fn = {"exact_single": worst_case_exact_single, "robust1": bound_robust1_single,
          "robust2": bound_robust2_single, "exact_two": worst_case_exact_two,
          "robust3": bound_robust3_two}[method]
    return fn(SystemParams(lam, mu, n, SOURCES[method]), unc)


def paoi_from_system_bound(bound: BoundResult, lam: float) -> float:
    """Peak-age value of a system-time bound: bound + mean interarrival time."""
    check_positive(lam, "lam")
    paoi = bound.value + 1.0 / lam
    if not math.isfinite(paoi):
        raise NumericError(f"peak-age bound is not finite: {paoi}")
    return paoi


def _require_sources(sys: SystemParams, expected: int) -> None:
    if sys.sources != expected:
        raise ValidationError(
            f"this bound applies to {expected}-source systems, got sources={sys.sources}"
        )


def _enumerate(sys: SystemParams, unc: UncertaintyParams, method: str) -> BoundResult:
    """Exact worst case over the k-source grid, by enumeration."""
    if sys.n > MAX_ENUMERATION_N:
        raise ValidationError(
            f"enumeration is capped at n <= {MAX_ENUMERATION_N}, got n={sys.n}"
        )
    kernel = kernels.exact_single_max if sys.sources == 1 else kernels.exact_two_max
    value, m_star = kernel(sys.lam, sys.mu, unc.alpha, unc.gamma_a, unc.gamma_s, sys.n)
    return BoundResult(value, method, m_star)


def _closed_form(sys: SystemParams, unc: UncertaintyParams, method: str) -> BoundResult:
    """The k-source worst case from a few candidates around the stationary point.

    The concave continuation of f has its stationary point within one unit
    of l = (alpha*(1/lam-k/mu)/(gamma_a+k*gamma_s))^(alpha/(1-alpha)), so the
    grid argmax lies among floor(l) + j/k, j = -k..k, capped to [0, n/k-1];
    if l is at or past the grid's end, f still increases there and the top
    point n/k-1 wins; at k = 2, n = 1 that top point is the empty window.
    Ties go to the smallest m.  Deterministic inputs (gamma_a = gamma_s = 0)
    take l's limit 0: f then decreases, as the load k*lam/mu is below 1, and
    the first window wins, or the empty window when k = 2, n = 1.
    """
    sys.require_stable(method)
    k, lam, mu, n = sys.sources, sys.lam, sys.mu, sys.n
    a, ga, gs = unc.alpha, unc.gamma_a, unc.gamma_s
    g = ga + k * gs
    top = n / k - 1.0
    try:
        l = (a * (1.0 / lam - k / mu) / g) ** (a / (1.0 - a)) if g > 0.0 else 0.0
    except (OverflowError, ZeroDivisionError):
        # the exponent blows up as alpha -> 1, and a base that underflows to 0
        # raises: either way the stationary point lies past any finite grid
        l = math.inf
    if n == 1 or not l < n / k:
        # a one-point grid, or f still increasing at its end: the top point wins
        value, m_star = f(top, k, lam, mu, a, ga, gs), top
    else:
        # ascending m, kept only when strictly larger: ties go to the smallest
        # m, and a NaN is kept only as the first candidate
        fl = math.floor(l)
        value = m_star = None
        for j in range(-k, k + 1):
            m = fl + j / k
            if 0.0 <= m <= top:
                v = kernels.window_bound(m, k, lam, mu, a, ga, gs)
                if m_star is None or v > value:
                    value, m_star = v, m
    return BoundResult(max(value, 0.0), method, m_star)
