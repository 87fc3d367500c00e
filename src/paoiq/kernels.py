"""NumPy kernels: the FCFS waiting-time recursion and the worst-case enumeration.

The Lindley recursion is evaluated in its prefix-sum max form so it
vectorizes:

    S_n = max_{1<=k<=n} (sum_{i=k}^n X_i - sum_{i=k+1}^n T_i)
        = CX_n - CT_n + max_{1<=k<=n} (CT_k - CX_{k-1})

with CX, CT the cumulative sums of services and interarrivals.  The running
max is a single ``np.fmax.accumulate``.

``window_bound`` is the one worst-case window expression; ``_exact_max``
enumerates it over m = 0, 1/k, ..., n/k - 1.  It raises one grid
e = 0, 1/k, ..., n/k to the power 1/alpha: m^(1/alpha) and (m+1)^(1/alpha)
are its first n - k + 1 and its last n - k + 1 points.  The grid of m is
empty only for k = 2 and n = 1, where the two-source ``EMPTY_WINDOW`` is
the worst case.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BACKEND = "python"

# The two-source window of the last update alone, with no interarrival.
EMPTY_WINDOW = -0.5


def lindley_system_times(interarrivals: np.ndarray, services: np.ndarray,
                         work: np.ndarray | None = None) -> np.ndarray:
    """System time of every update in an FCFS queue.

    ``work`` is an optional caller-owned float64 array of shape (3, n); the
    result is then written to ``work[0]`` and returned as that view, so a
    caller that reuses ``work`` allocates nothing here.  The inputs may
    alias the rows that hold their own cumulative sums: ``services`` may be
    ``work[0]`` and ``interarrivals`` may be ``work[1]`` (both are read only
    by the in-place ``cumsum``, which gives the same bits as the
    out-of-place call and allocates no temporary).  No other overlap with
    ``work`` is allowed.
    """
    x = np.asarray(services, dtype=np.float64)
    t = np.asarray(interarrivals, dtype=np.float64)
    n = x.shape[0]
    if work is None:
        work = np.empty((3, n))
    elif not (isinstance(work, np.ndarray) and work.dtype == np.float64
              and work.shape == (3, n)):
        raise ValidationError(
            f"work must be a float64 array of shape (3, {n}), got "
            f"{getattr(work, 'dtype', type(work).__name__)} {np.shape(work)}"
        )
    cx, ct, d = work
    if n == 0:
        return cx
    np.cumsum(x, out=cx)
    np.cumsum(t, out=ct)
    # d[k-1] = CT_k - CX_{k-1}
    d[0] = ct[0]
    np.subtract(ct[1:], cx[:-1], out=d[1:])
    # S = (CX - CT) + running max of d; each step writes a row it no longer reads.
    # fmax is faster than maximum and gives the same S: a NaN input makes
    # CX - CT, and so S, NaN from its position on either way.
    np.subtract(cx, ct, out=ct)
    np.fmax.accumulate(d, out=cx)
    return np.add(ct, cx, out=cx)


def window_bound(m: float | np.ndarray, k: int, lam: float, mu: float, alpha: float,
                 gamma_a: float, gamma_s: float) -> float | np.ndarray:
    """Worst-case system time of a window of m >= 0 interarrivals with k sources,
    k(m+1)/mu - m/lam + k*gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha), for a
    float or an array m.  A float stays a float: Python's pow and NumPy's
    may differ in the last bits."""
    ia = 1.0 / alpha
    p = m + 1.0
    return _combine(m, p, m**ia, p**ia, k, lam, mu, gamma_a, gamma_s)


def _combine(m: float | np.ndarray, p: float | np.ndarray, m_pow: float | np.ndarray,
             p_pow: float | np.ndarray, k: int, lam: float, mu: float,
             gamma_a: float, gamma_s: float) -> float | np.ndarray:
    """``window_bound`` from m, p = m + 1 and their powers 1/alpha."""
    return k * p / mu - m / lam + k * gamma_s * p_pow + gamma_a * m_pow


def exact_single_max(lam: float, mu: float, alpha: float,
                     gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """``_exact_max`` for one source: m in {0..n-1}."""
    return _exact_max(1, lam, mu, alpha, gamma_a, gamma_s, n)


def exact_two_max(lam: float, mu: float, alpha: float,
                  gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """``_exact_max`` for two sources: m in {0, 1/2, ..., n/2 - 1}, or the empty window."""
    return _exact_max(2, lam, mu, alpha, gamma_a, gamma_s, n)


def _exact_max(k: int, lam: float, mu: float, alpha: float,
               gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """(max, argmax) of ``window_bound`` over m = 0, 1/k, ..., n/k - 1, ties to
    the smallest m.  An empty grid (k = 2, n = 1) leaves the empty window,
    worth 1/mu + gamma_s; it never wins otherwise, as m = 0 is worth twice that."""
    if n < k:
        return 1.0 / mu + gamma_s, EMPTY_WINDOW
    # e = 0, 1/k, ..., n/k holds m and m + 1 with the same bits as m + 1.0:
    # each point i/k is exact, so one power pass serves both terms
    size = n - k + 1
    e = np.arange(0.0, (n + 1) / k, 1.0 / k)
    pw = e ** (1.0 / alpha)
    vals = _combine(e[:size], e[k:], pw[:size], pw[k:], k, lam, mu, gamma_a, gamma_s)
    i = int(vals.argmax())
    return float(vals[i]), i / k
