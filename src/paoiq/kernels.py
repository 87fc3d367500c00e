"""NumPy kernels: the FCFS waiting-time recursion and the worst-case enumerations.

The Lindley recursion is evaluated in its prefix-sum max form so it
vectorizes:

    S_n = max_{1<=k<=n} (sum_{i=k}^n X_i - sum_{i=k+1}^n T_i)
        = CX_n - CT_n + max_{1<=k<=n} (CT_k - CX_{k-1})

with CX, CT the cumulative sums of services and interarrivals.  The running
max is a single ``np.fmax.accumulate``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

BACKEND = "python"


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


def exact_single_max(lam: float, mu: float, alpha: float,
                     gamma_a: float, gamma_s: float, n: int) -> tuple[float, int]:
    """Max over m in {0..n-1} of
    (m+1)/mu - m/lam + gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha).

    Returns (value, argmax); ties resolve to the smallest m.
    """
    ia = 1.0 / alpha
    m = np.arange(n, dtype=np.float64)
    vals = (m + 1.0) / mu - m / lam + gamma_s * (m + 1.0) ** ia + gamma_a * m ** ia
    i = int(np.argmax(vals))
    return float(vals[i]), i


def exact_two_max(lam: float, mu: float, alpha: float,
                  gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """Max over the half-integer grid m in {-1/2, 0, 1/2, ..., n/2 - 1} of
    2(m+1)/mu - m/lam + 2*gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha),
    with the m = -1/2 boundary defined as 1/mu + gamma_s.

    Returns (value, argmax); ties resolve to the smallest m.
    """
    ia = 1.0 / alpha
    boundary = 1.0 / mu + gamma_s
    if n <= 1:
        return boundary, -0.5
    m = 0.5 * np.arange(1, n, dtype=np.float64) - 0.5
    vals = (2.0 * (m + 1.0) / mu - m / lam
            + 2.0 * gamma_s * (m + 1.0) ** ia + gamma_a * m ** ia)
    i = int(np.argmax(vals))
    if boundary >= float(vals[i]):
        return boundary, -0.5
    return float(vals[i]), float(m[i])
