"""NumPy kernels: the FCFS waiting-time recursion and the worst-case enumeration.

The Lindley recursion is evaluated in its prefix-sum max form so it
vectorizes:

    S_n = max_{1<=k<=n} (sum_{i=k}^n X_i - sum_{i=k+1}^n T_i)
        = CX_n - CT_n + max_{1<=k<=n} (CT_k - CX_{k-1})

with CX, CT the cumulative sums of services and interarrivals.  Both sums
come from one ``cumsum`` over complex128 values whose real lane holds the
services and imaginary lane the interarrivals: a complex add adds the two
lanes separately, each with the bits of one float64 add, so one serial scan
gives CX and CT bit for bit.  The running max is a single
``np.fmax.accumulate``.

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
    result is then written to ``work[2]`` and returned as that view, so a
    caller that reuses a C-contiguous ``work`` allocates nothing here.
    ``work[:2]`` holds the paired cumulative sums (see ``_lanes``).
    ``services`` may be ``work[2]``, which is read before it is written;
    ``interarrivals`` must not overlap ``work[:2]``, and no other overlap
    with ``work`` is allowed.
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
    pairs, cx, ct = _lanes(work)
    d = work[2]
    if n == 0:
        return d
    np.copyto(cx, x)
    np.copyto(ct, t)
    np.cumsum(pairs, out=pairs)
    # d[k-1] = CT_k - CX_{k-1}
    d[0] = ct[0]
    np.subtract(ct[1:], cx[:-1], out=d[1:])
    # S = (CX - CT) + running max of d, each step in place.
    # fmax is faster than maximum and gives the same S: a NaN input makes
    # CX - CT, and so S, NaN from its position on either way.
    np.subtract(cx, ct, out=cx)
    np.fmax.accumulate(d, out=d)
    return np.add(cx, d, out=d)


def _lanes(work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``work[:2]`` of a (3, n) float64 ``work`` as n complex128 values, with
    their real and imaginary lanes as strided float64 views; all three are
    views into ``work`` when it is C-contiguous."""
    pairs = work[:2].reshape(2 * work.shape[1]).view(np.complex128)
    lanes = pairs.view(np.float64).reshape(-1, 2)
    return pairs, lanes[:, 0], lanes[:, 1]


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
