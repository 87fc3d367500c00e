"""NumPy kernels: the FCFS waiting-time recursion and the worst-case enumeration.

The Lindley recursion W_1 = 0, W_i = max(0, W_{i-1} + X_{i-1} - T_i) is
evaluated in its reflected-random-walk form so it vectorizes:

    C_i = sum_{j<=i} U_j,   U_1 = 0,  U_j = X_{j-1} - T_j,
    W_i = C_i - min_{k<=i} C_k,       S_i = X_i + W_i,

one ``cumsum`` for the walk C and one ``np.fmin.accumulate`` for its running
minimum.  W is a float64 difference of C_i and a value C_k that the scan
itself produced, so W >= 0 with no rounding in the comparison, and W is
exactly 0 wherever C_i is its own running minimum: at the first update and
at every update that finds the queue empty.  The rounding errors of C up
to the minimum cancel in the difference, so W carries only those of the
current busy period, not those of the whole path.

``window_bound`` is the one worst-case window expression; ``_exact_max``
enumerates it over m = 0, 1/k, ..., n/k - 1.  It raises one grid
e = 0, 1/k, ..., n/k to the power 1/alpha: m^(1/alpha) and (m+1)^(1/alpha)
are its first n - k + 1 and its last n - k + 1 points.  The grid of m is
empty only for k = 2 and n = 1, where the two-source ``EMPTY_WINDOW`` is
the worst case.

The grid is kept, read-only, one per k, and replaced only when a larger n
arrives; a call slices off its first n + 1 points.  Each point i/k is
exact, so the slice has the bits of a fresh grid, and the k = 1 grid holds
k * (m + 1) = i + k for both k: a k = 2 enumeration keeps and grows it too.
The cost of the reuse is the kept grids themselves, 8 bytes per point of
the largest n enumerated so far, per grid, until the process exits.  The
window expression updates its value in place, so a first enumeration
peaks at 32 bytes per grid point: the grid, its powers, the value and one
temporary; a first k = 2 call also builds the k = 1 grid, 40 in all.  On
kept grids the call itself adds 24 of them.
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
    ``work[0]`` ends holding the waiting times and ``work[1]`` the running
    minimum of the walk C.  ``services`` may be ``work[2]``, which is written
    last, and ``interarrivals`` may be ``work[1]``, which is read only while
    ``work[0]`` is built, before ``work[1]`` is written; no other input may
    overlap ``work``.

    T_1 is never read: the first update finds the queue empty.  A NaN in
    X_i, or in T_i for i >= 2, makes S NaN from update i on: C is NaN from
    there, ``fmin`` skips it in the running minimum, and C - min C keeps it.
    """
    x = np.asarray(services, dtype=np.float64)
    t = np.asarray(interarrivals, dtype=np.float64)
    n = x.shape[0]
    if work is None:
        work = np.empty((3, n))
    elif not (isinstance(work, np.ndarray) and work.dtype == np.float64
              and work.shape == (3, n) and work.flags.writeable):
        got = (f"{work.dtype} {work.shape}, writeable={work.flags.writeable}"
               if isinstance(work, np.ndarray) else f"{type(work).__name__} {np.shape(work)}")
        raise ValidationError(
            f"work must be a writeable float64 array of shape (3, {n}), got {got}")
    c = work[0]
    # U_1 = 0, U_i = X_{i-1} - T_i, summed in place into the walk C; every
    # slice is empty for n = 0
    c[:1] = 0.0
    np.subtract(x[:-1], t[1:], out=c[1:])
    np.cumsum(c, out=c)
    # W = C - running min C; fmin is faster than minimum and gives the same W
    np.fmin.accumulate(c, out=work[1])
    c -= work[1]
    return np.add(x, c, out=work[2])


def window_bound(m: float | np.ndarray, k: int, lam: float, mu: float, alpha: float,
                 gamma_a: float, gamma_s: float) -> float | np.ndarray:
    """Worst-case system time of a window of m >= 0 interarrivals with k sources,
    k(m+1)/mu - m/lam + k*gamma_s*(m+1)^(1/alpha) + gamma_a*m^(1/alpha), for a
    float or an array m.  A float stays a float: Python's pow and NumPy's
    may differ in the last bits."""
    ia = 1.0 / alpha
    p = m + 1.0
    return _combine(m, k * p, m**ia, p**ia, k, lam, mu, gamma_a, gamma_s)


def _combine(m: float | np.ndarray, kp: float | np.ndarray, m_pow: float | np.ndarray,
             p_pow: float | np.ndarray, k: int, lam: float, mu: float,
             gamma_a: float, gamma_s: float) -> float | np.ndarray:
    """``window_bound`` from m, kp = k * (m + 1) and the powers 1/alpha of m
    and m + 1: the new value kp / mu, updated in place with the roundings, in
    the order, of kp / mu - m / lam + k * gamma_s * p_pow + gamma_a * m_pow.
    No input is written."""
    v = kp / mu
    v -= m / lam
    v += k * gamma_s * p_pow
    v += gamma_a * m_pow
    return v


def exact_single_max(lam: float, mu: float, alpha: float,
                     gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """``_exact_max`` for one source: m in {0..n-1}."""
    return _exact_max(1, lam, mu, alpha, gamma_a, gamma_s, n)


def exact_two_max(lam: float, mu: float, alpha: float,
                  gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """``_exact_max`` for two sources: m in {0, 1/2, ..., n/2 - 1}, or the empty window."""
    return _exact_max(2, lam, mu, alpha, gamma_a, gamma_s, n)


# The kept grid e = 0, 1/k, ... of each k; see the module docstring.  Two
# threads that grow it at once at worst build a grid twice: each uses its own.
_GRIDS: dict[int, np.ndarray] = {}


def _grid(k: int, n: int) -> np.ndarray:
    """The first n + 1 points of the kept grid of k, grown to exactly n + 1
    points when it is shorter."""
    e = _GRIDS.get(k)
    if e is None or e.shape[0] <= n:
        e = np.arange(0.0, (n + 1) / k, 1.0 / k)
        e.flags.writeable = False
        _GRIDS[k] = e
    return e[:n + 1]


def _exact_max(k: int, lam: float, mu: float, alpha: float,
               gamma_a: float, gamma_s: float, n: int) -> tuple[float, float]:
    """(max, argmax) of ``window_bound`` over m = 0, 1/k, ..., n/k - 1, ties to
    the smallest m.  An empty grid (k = 2, n = 1) leaves the empty window,
    worth 1/mu + gamma_s; it never wins otherwise, as m = 0 is worth twice that."""
    if n < k:
        return 1.0 / mu + gamma_s, EMPTY_WINDOW
    # e = 0, 1/k, ..., n/k holds m and m + 1 with the same bits as m + 1.0:
    # each point i/k is exact, so one power pass serves both terms; for the
    # same reason the k = 1 grid holds k * (m + 1) = i + k exactly
    size = n - k + 1
    ints = _grid(1, n)
    e = ints if k == 1 else _grid(k, n)
    pw = e ** (1.0 / alpha)
    vals = _combine(e[:size], ints[k:], pw[:size], pw[k:], k, lam, mu, gamma_a, gamma_s)
    i = int(vals.argmax())
    return float(vals[i]), i / k
