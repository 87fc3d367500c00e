"""FCFS information-update queue simulation and peak-age extraction.

Single-source paths run the Lindley waiting-time recursion of
``kernels.lindley_system_times``.  Two-source paths merge both arrival
streams into one FCFS queue (ties broken toward source 1) and read each
source's peak ages off the kernel's system times, which no step rewrites.

``replicate`` runs these steps on plain float64 arrays in the calling
process and reduces them straight to means: ``sample_stream`` fills and
returns the arrays of one workspace allocated per call, no step builds a
per-path object or re-checks what the sampler already guarantees, and every
warmup cut is an index fixed before the replication loop.  Only a grid of
calls forks (``_replicate_points``: a sweep's rates, a calibration grid's
points).  One rule, ``_processes``, decides how many processes share its
points, and ``_run_blocks`` runs one block function, which calls ``replicate``
per point into that point's row of shared memory, over k contiguous blocks of
points: blocks 1..k-1 in forked children and block 0 in the caller.  Nothing
forks below ``FORK_MIN_UPDATES`` updates in all, where ``os.fork`` or
``os.sched_getaffinity`` is missing, or while another Python thread runs.
Each replication seeds its own streams and each point has its own master
seed, so every result has the bits of a serial run.  Python 3.12 and later
may emit a ``DeprecationWarning`` at the fork while other OS threads exist,
such as an OpenBLAS pool.

``merge_arrivals``, ``simulate_two_source``, ``paoi_trace_single`` and
``paoi_trace_two_source`` are the replication's steps.  They do not check
their float64 inputs, and ``paoiq`` does not export them.  The loops look
each one up as a module global at call time, so the benchmark's per-layer
rows ``simulator.<step>.self_s`` time the code that runs.  ``simulate_fcfs``
is the one inspection wrapper: it checks one single-source path (t, x) and
returns the kernel's system times s; the path's arrival, waiting and finish
times are ``np.cumsum(t)``, ``s - x`` and ``np.cumsum(t) + s``.

Conventions: the first arrival occurs at time T_1 (the first interarrival
draw is the delay from time zero), and per-replication warmup discards the
leading fraction of samples before averaging.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NumericError, StabilityError, ValidationError, check_int, check_positive
from .seeding import ROLE_ARRIVAL_1, ROLE_ARRIVAL_2, ROLE_SERVICE, derive_seed
from .stochastic import DistributionSpec, sample_stream


# Size caps of ``replicate``: the workspace of one call takes about 41
# bytes per update for one or two sources, so n = 10**7 needs 0.4 GB.  A
# grid runs at most MAX_REPLICATE_N // n processes, so together they hold
# no more than one call at the cap.
MAX_REPLICATE_N = 10**7
MAX_REPLICATIONS = 10**6
# Fewest updates, n * replications * points, for which a grid forks: on
# shorter grids the fork and its copy-on-write faults eat the gain.
FORK_MIN_UPDATES = 10**6


@dataclass(frozen=True, slots=True)
class SystemParams:
    """One queueing scenario: per-source arrival rate, service rate, path length."""

    lam: float
    mu: float
    n: int
    sources: int = 1

    def __post_init__(self) -> None:
        check_positive(self.lam, "lam")
        check_positive(self.mu, "mu")
        check_int(self.n, "n", 1)
        if self.sources not in (1, 2):
            raise ValidationError(f"sources must be 1 or 2, got {self.sources}")

    @property
    def load(self) -> float:
        """Total offered load: lam/mu for one source, 2*lam/mu for two."""
        return self.sources * self.lam / self.mu

    @property
    def stable(self) -> bool:
        # ``load`` inlined: bounds check this on every call
        return self.sources * self.lam / self.mu < 1.0

    def require_stable(self, what: str) -> None:
        """The one stability rule: raise StabilityError, naming ``what``, unless load < 1."""
        if not self.stable:
            raise StabilityError(
                f"{what} violates stability: load={self.load} >= 1 "
                f"(lam={self.lam}, mu={self.mu}, sources={self.sources})"
            )

    @classmethod
    def realized(cls, interarrival: DistributionSpec, service: DistributionSpec, n: int,
                 sources: int) -> SystemParams:
        """The system two laws simulate, the one source of every command's rates:
        each rate is 1/mean of its law, and a law without a finite one is named."""
        for role, law in (("interarrival", interarrival), ("service", service)):
            if 1.0 / law.mean == math.inf:
                raise ValidationError(
                    f"{role} law {law.kind} has mean {law.mean}, whose rate 1/mean is not finite")
        return cls(1.0 / interarrival.mean, 1.0 / service.mean, n, sources)


@dataclass
class ReplicationSummary:
    """Across-replication averages of post-warmup PAoI and system time."""

    replications: int
    mean_paoi: float
    mean_system_time: float
    ci95_paoi: float
    per_source_paoi: tuple[float, float] | None
    paoi_rep_means: np.ndarray = field(repr=False)


# The steps of ``replicate``: with ``out`` given they write into it and allocate nothing.

def paoi_trace_single(t: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Peak ages T_i + S_i of deliveries 2..n of a single-source path."""
    return np.add(t[1:], s[1:], out=out)


def paoi_trace_two_source(a: np.ndarray, s: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Peak ages of deliveries 2..k of one merged source.

    ``a`` and ``s`` are the source's arrival and system times in its own
    order; P_i = (a_i - a_{i-1}) + s_i, and neither input is written.
    """
    peaks = np.subtract(a[1:], a[:-1], out=out)
    peaks += s[1:]
    return peaks


def merge_arrivals(times: np.ndarray,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Merged arrival times and the permutation of ``times`` that sorts them.

    ``times`` holds source 1's arrival times followed by source 2's, none
    of them NaN or with its sign bit set.  For such floats the int64 order
    of the bit patterns is the float order, and sorting integers is faster.
    The sort is stable, so ties go to source 1 and each source keeps its own
    order.
    """
    order = np.argsort(times.view(np.int64), kind="stable")
    # a permutation is never out of range, and mode="raise" would copy ``out``
    return np.take(times, order, out=out, mode="clip"), order


def simulate_two_source(merged: np.ndarray, services: np.ndarray, gaps: np.ndarray,
                        work: np.ndarray) -> np.ndarray:
    """System times of the FCFS queue fed by ``merged``; ``gaps`` takes its
    gaps.  ``merged`` may be ``work[0]`` and ``gaps`` ``work[1]``: the gaps
    are taken before the kernel runs, and it reads them before it writes
    ``work[1]``."""
    gaps[0] = merged[0]
    np.subtract(merged[1:], merged[:-1], out=gaps[1:])
    return kernels.lindley_system_times(gaps, services, work)


def _kept(count: int, fraction: float) -> int:
    """Index of the first post-warmup entry among ``count`` entries."""
    return int(fraction * count)


def _check_path(interarrivals: np.ndarray, services: np.ndarray) -> None:
    if interarrivals.ndim != 1 or interarrivals.shape != services.shape:
        raise ValidationError(
            f"a sample path is two 1-D streams of one length, got shapes "
            f"{interarrivals.shape} interarrivals vs {services.shape} services"
        )
    if len(services) < 1:
        raise ValidationError("empty sample path")
    # the first entry is the delay from time zero and may be 0
    if not (np.isfinite(interarrivals).all() and interarrivals[0] >= 0
            and (interarrivals[1:] > 0).all()):
        raise ValidationError("interarrival times must be finite and positive")
    if not (np.isfinite(services).all() and (services > 0).all()):
        raise ValidationError("service times must be finite and positive")


def simulate_fcfs(interarrivals, services) -> np.ndarray:
    """System times of one single-server FCFS path; arrival i happens at cumsum(T)[i]."""
    t = np.asarray(interarrivals, dtype=np.float64)
    x = np.asarray(services, dtype=np.float64)
    _check_path(t, x)
    return kernels.lindley_system_times(t, x)


def replicate(
    params: SystemParams,
    interarrival_spec: DistributionSpec,
    service_spec: DistributionSpec,
    replications: int = 50,
    warmup_fraction: float = 0.1,
    master_seed: int = 0,
) -> ReplicationSummary:
    """Average post-warmup PAoI over independent seeded replications.

    Deterministic in ``master_seed``, a non-negative integer: replication r
    derives its stream seeds as (master_seed, r, role).  ``params`` gives n
    and the number of sources; the rates are those of the two laws
    (``SystemParams.realized``), read again here whatever ``params`` holds.
    A system they load at or above 1 still runs, with a RuntimeWarning (its
    means need not converge).  Every source needs at least one post-warmup
    peak, so n must be >= 2 per source; n and the integer ``replications`` are
    capped at MAX_REPLICATE_N and MAX_REPLICATIONS.  The call runs in the
    calling process; only a grid of calls forks (see the module docstring).
    A mean or CI half-width that is not finite raises NumericError.
    """
    _check_settings((params,), replications, warmup_fraction)
    simulated = SystemParams.realized(interarrival_spec, service_spec, params.n, params.sources)
    if not simulated.stable:
        warnings.warn(
            f"unstable configuration (load {simulated.load:.3f} >= 1); "
            "simulation runs but means may diverge",
            RuntimeWarning,
            stacklevel=2,
        )

    # row r: replication r's mean peak age and mean system time and, for two
    # sources, each source's mean peak age
    res = np.empty((replications, 4))
    (_single_block if params.sources == 1 else _two_block)(
        res, params.n, interarrival_spec, service_spec, warmup_fraction, master_seed)
    paoi_means = res[:, 0].copy()
    system_means = res[:, 1].copy()
    src_means = res[:, 2:].copy() if params.sources == 2 else None

    # a sum or spread that overflows, or is inf - inf, is reported below as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        mean_paoi = float(paoi_means.mean())
        mean_system_time = float(system_means.mean())
        half_width = (float(1.96 * paoi_means.std(ddof=1) / np.sqrt(replications))
                      if replications > 1 else 0.0)
    if not all(map(math.isfinite, (mean_paoi, half_width, mean_system_time))):
        raise NumericError(
            f"replication results are not finite: mean_paoi={mean_paoi}, "
            f"ci95_paoi={half_width}, mean_system_time={mean_system_time}"
        )
    return ReplicationSummary(
        replications=replications,
        mean_paoi=mean_paoi,
        mean_system_time=mean_system_time,
        ci95_paoi=half_width,
        per_source_paoi=(
            tuple(float(v) for v in src_means.mean(axis=0)) if src_means is not None else None
        ),
        paoi_rep_means=paoi_means,
    )


def _check_settings(systems, replications, warmup_fraction: float) -> int:
    """``replicate``'s caps, warmup rule and path length for each of
    ``systems``, checked before anything is sized or forked; the longest n."""
    check_int(replications, "replications", 1)
    n = max((params.n for params in systems), default=1)
    if n > MAX_REPLICATE_N or replications > MAX_REPLICATIONS:
        raise ValidationError(
            f"replicate is capped at n <= {MAX_REPLICATE_N} and replications <= "
            f"{MAX_REPLICATIONS}, got n={n}, replications={replications}"
        )
    if not 0.0 <= warmup_fraction <= 0.5:
        raise ValidationError(f"warmup fraction must be in [0, 0.5], got {warmup_fraction}")
    # a source with k >= 2 updates has k - 1 peaks, and a warmup of at most
    # half keeps at least one of them
    for params in systems:
        if params.n < 2 * params.sources:
            raise ValidationError(
                f"n must be >= {2 * params.sources} for a {params.sources}-source replication "
                f"(each source needs a post-warmup peak), got {params.n}"
            )
    return n


def _replicate_points(points: list, replications: int,
                      warmup_fraction: float) -> list[ReplicationSummary]:
    """``replicate`` at each (params, interarrival spec, service spec, master
    seed) point of a grid, with the bits of a serial loop."""
    n = _check_settings([params for params, *_ in points], replications, warmup_fraction)
    if not points:  # mmap cannot map zero bytes
        return []
    # row i: point i's mean PAoI, mean system time, CI half-width, per-source
    # means (NaN for one source) and per-replication means
    res = np.frombuffer(mmap.mmap(-1, len(points) * (5 + replications) * 8)).reshape(
        len(points), 5 + replications)

    def block(first: int, stop: int) -> None:
        for i, (params, ia, svc, seed) in enumerate(points[first:stop], first):
            s = replicate(params, ia, svc, replications, warmup_fraction, seed)
            res[i, :5] = (s.mean_paoi, s.mean_system_time, s.ci95_paoi,
                          *(s.per_source_paoi or (math.nan, math.nan)))
            res[i, 5:] = s.paoi_rep_means

    _run_blocks(block, len(points), _processes(n, replications, len(points)))
    return [ReplicationSummary(replications, float(row[0]), float(row[1]), float(row[2]),
                               (float(row[3]), float(row[4])) if params.sources == 2 else None,
                               row[5:].copy())
            for (params, *_), row in zip(points, res)]


def _processes(n: int, replications: int, points: int) -> int:
    """How many processes share the points of a grid of ``replicate`` calls
    of at most n updates each."""
    # fork copies only the calling thread, so a lock that another thread
    # holds would stay held in the child
    if (n * replications * points < FORK_MIN_UPDATES
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), points, MAX_REPLICATE_N // n)


def _run_blocks(block, count: int, k: int) -> None:
    """Run ``block(first, stop)`` over k contiguous blocks of range(count).

    Blocks 1..k-1 run in forked children, which share the memory ``block``
    writes, and block 0 in this process; a block whose fork failed or whose
    child exited non-zero runs here afterwards.  Every child is reaped
    before this returns or raises.
    """
    bounds = [count * i // k for i in range(k + 1)]
    children = {}  # pid -> index of its block
    again = []
    try:
        for i in range(1, k):
            try:
                pid = os.fork()
            except OSError:
                again.append(i)
                continue
            if pid == 0:
                status = 1
                try:
                    block(bounds[i], bounds[i + 1])
                    status = 0
                finally:
                    # no exit handler, flush or traceback: all belong to the parent
                    os._exit(status)
            children[pid] = i
        block(bounds[0], bounds[1])
        while children:
            pid, status = os.waitpid(next(iter(children)), 0)
            if status:
                again.append(children[pid])
            del children[pid]
        for i in again:
            block(bounds[i], bounds[i + 1])
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# The two replication loops of ``replicate``.  Each allocates one workspace
# for every replication, in the layout of
# ``kernels.lindley_system_times``: services are sampled into work[2], where
# the kernel leaves the system times, and work[0] and work[1] hold the
# prefix sums of U_i = X_{i-1} - T_i and their running min; work[0] (one
# source) or work[1] (two) then takes the post-warmup peaks.  Two sources
# also pass through work[:2] their merged arrival times (row 0), the merged
# gaps (row 1) and, once the kernel returns, the system times scattered
# back into the layout of the arrival times (row 0), so both loops keep
# the same workspace and one n-length buffer besides.

def _single_block(res: np.ndarray, n: int, interarrival_spec: DistributionSpec,
                  service_spec: DistributionSpec, warmup: float, master_seed: int) -> None:
    """Single-source replication r for each row r of ``res``, reduced into that row."""
    work = np.empty((3, n))
    x = work[2]
    t = np.empty(n)
    ws = _kept(n, warmup)  # first post-warmup system time
    w = _kept(n - 1, warmup)
    peaks = work[0, :n - 1 - w]
    for r in range(len(res)):
        sample_stream(interarrival_spec, n, derive_seed(master_seed, r, ROLE_ARRIVAL_1), out=t)
        sample_stream(service_spec, n, derive_seed(master_seed, r, ROLE_SERVICE), out=x)
        s = kernels.lindley_system_times(t, x, work)
        # peaks of the post-warmup deliveries only
        paoi_trace_single(t[w:], s[w:], out=peaks)
        res[r, :2] = peaks.mean(), s[ws:].mean()


def _two_block(res: np.ndarray, n: int, interarrival_spec: DistributionSpec,
               service_spec: DistributionSpec, warmup: float, master_seed: int) -> None:
    """Two-source replication r for each row r of ``res``, reduced into that row."""
    work = np.empty((3, n))
    x = work[2]
    ws = _kept(n, warmup)
    n1, n2 = (n + 1) // 2, n // 2
    # source 1's arrival times, then source 2's
    times = np.empty(n)
    a1, a2 = times[:n1], times[n1:]
    # work[0] holds the merged arrival times until the kernel runs, then the
    # system times scattered into the layout of times; a scatter through
    # the mixed index work[0, order] would allocate n more values
    scattered = work[0]
    s1, s2 = scattered[:n1], scattered[n1:]
    w1 = _kept(n1 - 1, warmup)
    w2 = _kept(n2 - 1, warmup)
    k1 = n1 - 1 - w1
    # both sources' post-warmup peaks side by side
    peaks = work[1, :k1 + n2 - 1 - w2]
    for r in range(len(res)):
        for a, role in ((a1, ROLE_ARRIVAL_1), (a2, ROLE_ARRIVAL_2)):
            sample_stream(interarrival_spec, len(a), derive_seed(master_seed, r, role), out=a)
            np.cumsum(a, out=a)
        sample_stream(service_spec, n, derive_seed(master_seed, r, ROLE_SERVICE), out=x)
        merged, order = merge_arrivals(times, out=work[0])
        # the kernel reads the merged gaps in work[1] before it writes that row
        s = simulate_two_source(merged, x, work[1], work)
        # order[i] is the source-layout index of the i-th merged update; it is
        # released before the next replication's draws
        scattered[order] = s
        del order
        paoi_trace_two_source(a1[w1:], s1[w1:], out=peaks[:k1])
        paoi_trace_two_source(a2[w2:], s2[w2:], out=peaks[k1:])
        res[r] = peaks.mean(), s[ws:].mean(), peaks[:k1].mean(), peaks[k1:].mean()
