"""FCFS information-update queue simulation and peak-age extraction.

Single-source paths run the Lindley waiting-time recursion of
``kernels.lindley_system_times``.  Two-source paths merge both arrival streams into one FCFS
queue (ties broken toward source 1) and read each source's peak ages off the
kernel's system times, which no step rewrites.

``replicate`` runs these steps on plain float64 arrays and reduces them
straight to means: ``sample_stream`` fills and returns the arrays of one
workspace allocated per call, no step builds a per-path object or re-checks
what the sampler already guarantees, and every warmup cut is an index fixed
before the replication loop.  ``simulate_fcfs``, ``paoi_trace_single``,
``merge_arrivals``, ``simulate_two_source`` and ``paoi_trace_two_source``
are inspection wrappers over the same private steps: they validate their
input and return the per-update arrays as dataclasses.

Conventions: the first arrival occurs at time T_1 (the first interarrival
draw is the delay from time zero), and per-replication warmup discards the
leading fraction of samples before averaging.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NumericError, ValidationError, check_int, check_positive
from .seeding import ROLE_ARRIVAL_1, ROLE_ARRIVAL_2, ROLE_SERVICE, derive_seed
from .stochastic import DistributionSpec, sample_stream


# Size caps of ``replicate``: its workspace takes about 40 bytes per update
# for one source and about 57 for two, so n = 10**7 needs 0.4 to 0.6 GB.
MAX_REPLICATE_N = 10**7
MAX_REPLICATIONS = 10**6


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


@dataclass
class QueueResult:
    """Per-update timestamps of one simulated FCFS sample path."""

    arrival_times: np.ndarray
    service_times: np.ndarray
    waiting_times: np.ndarray
    finish_times: np.ndarray
    system_times: np.ndarray
    source_ids: np.ndarray | None = None  # 1-based, two-source paths only

    def __len__(self) -> int:
        return len(self.arrival_times)


@dataclass
class PAoITrace:
    """Peak-age samples P_i = T_i + S_i for deliveries i = 2..n of one source."""

    peaks: np.ndarray
    interarrivals: np.ndarray
    system_times: np.ndarray

    def __len__(self) -> int:
        return len(self.peaks)


@dataclass
class ReplicationSummary:
    """Across-replication averages of post-warmup PAoI and system time."""

    replications: int
    mean_paoi: float
    mean_system_time: float
    ci95_paoi: float
    per_source_paoi: tuple[float, float] | None
    stable: bool
    paoi_rep_means: np.ndarray = field(repr=False, default=None)


# The private steps below are shared by ``replicate`` and the public
# wrappers; their float64 inputs are not checked.  With ``out`` given they
# write into it and allocate nothing.

def _single_peaks(t: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Peak ages T_i + S_i of deliveries 2..n of a single-source path."""
    return np.add(t[1:], s[1:], out=out)


def _source_peaks(a: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Peak ages of deliveries 2..k of one merged source.

    ``a`` and ``s`` are the source's arrival and system times in its own
    order; P_i = (a_i - a_{i-1}) + s_i, and neither input is written.
    """
    peaks = np.subtract(a[1:], a[:-1], out=out)
    peaks += s[1:]
    return peaks


def _merge(times: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
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


def _merged_system_times(merged: np.ndarray, services: np.ndarray,
                         gaps: np.ndarray | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    """System times of the FCFS queue fed by a non-empty merged arrival sequence."""
    if gaps is None:
        gaps = np.empty_like(merged)
    gaps[0] = merged[0]
    np.subtract(merged[1:], merged[:-1], out=gaps[1:])
    return kernels.lindley_system_times(gaps, services, work)


def _kept(count: int, fraction: float) -> int:
    """Index of the first post-warmup entry among ``count`` entries."""
    return int(fraction * count)


def _values(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _check_path(interarrivals: np.ndarray, services: np.ndarray) -> None:
    if len(interarrivals) != len(services):
        raise ValidationError(
            f"stream length mismatch: {len(interarrivals)} interarrivals vs "
            f"{len(services)} services"
        )
    if len(services) < 1:
        raise ValidationError("empty sample path")
    # the first entry is the delay from time zero and may be 0
    if interarrivals[0] < 0 or (len(interarrivals) > 1 and not np.all(interarrivals[1:] > 0)):
        raise ValidationError("interarrival times must be positive")
    if not np.all(services > 0):
        raise ValidationError("service times must be positive")


def simulate_fcfs(interarrivals, services) -> QueueResult:
    """Run one single-server FCFS path; arrival i happens at cumsum(T)[i]."""
    t = _values(interarrivals)
    x = _values(services)
    _check_path(t, x)
    arrivals = np.cumsum(t)
    s = kernels.lindley_system_times(t, x)
    return QueueResult(
        arrival_times=arrivals,
        service_times=x,
        waiting_times=s - x,
        finish_times=arrivals + s,
        system_times=s,
    )


def paoi_trace_single(result: QueueResult, interarrivals) -> PAoITrace:
    """Peak ages of a single-source path: P_i = T_i + S_i for i >= 2."""
    t = _values(interarrivals)
    if len(t) != len(result):
        raise ValidationError(
            f"interarrival stream length {len(t)} does not match path length {len(result)}"
        )
    if len(t) > 1:
        # diff(cumsum(t)) wobbles at the scale of the time horizon, not of t
        slack = 1e-9 * max(abs(result.arrival_times[-1]), 1.0)
        if not np.allclose(np.diff(result.arrival_times), t[1:], rtol=0.0, atol=slack):
            raise ValidationError("interarrival stream does not match the simulated path")
    s = result.system_times
    return PAoITrace(_single_peaks(t, s), t[1:], s[1:])


def merge_arrivals(arrivals_1: np.ndarray, arrivals_2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge two arrival-time sequences into FCFS order.

    Returns (merged arrival times, source ids).  Ties go to source 1; each
    source's internal order is preserved and no update is dropped.
    """
    a1 = np.asarray(arrivals_1, dtype=np.float64)
    a2 = np.asarray(arrivals_2, dtype=np.float64)
    if len(a1) + len(a2) == 0:
        raise ValidationError("both arrival streams are empty")
    times = np.concatenate([a1, a2])
    if np.isnan(times).any() or np.signbit(times).any():
        raise ValidationError("arrival times must be 0.0 or positive, not negative, -0.0 or NaN")
    merged, order = _merge(times)
    return merged, np.where(order < len(a1), 1, 2)


def simulate_two_source(
    interarrivals_1,
    interarrivals_2,
    service_spec: DistributionSpec,
    seed: int,
    services=None,
) -> QueueResult:
    """Run one FCFS path fed by two merged symmetric sources.

    Each merged update receives the next service-time draw from
    ``service_spec`` (seeded); pass ``services`` explicitly to pin the
    draws, e.g. in tests.
    """
    merged_times, ids = merge_arrivals(
        np.cumsum(_values(interarrivals_1)), np.cumsum(_values(interarrivals_2))
    )
    n = len(merged_times)
    if services is None:
        if service_spec is None:
            raise ValidationError("need either a service spec or explicit service times")
        x = sample_stream(service_spec, n, seed)
    else:
        x = _values(services)
        if len(x) != n:
            raise ValidationError(f"need {n} service times, got {len(x)}")
    s = _merged_system_times(merged_times, x)
    return QueueResult(
        arrival_times=merged_times,
        service_times=x,
        waiting_times=s - x,
        finish_times=merged_times + s,
        system_times=s,
        source_ids=ids,
    )


def paoi_trace_two_source(result: QueueResult) -> tuple[PAoITrace, PAoITrace]:
    """Per-source peak ages of a merged two-source path."""
    if result.source_ids is None:
        raise ValidationError("result does not carry source ids; not a two-source path")
    from1 = result.source_ids == 1
    traces = []
    for mask in (from1, ~from1):
        a = result.arrival_times[mask]
        s = result.system_times[mask]
        peaks = _source_peaks(a, s)
        traces.append(PAoITrace(peaks, np.diff(a), s[1:]))
    return tuple(traces)


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
    derives its stream seeds as (master_seed, r, role).  Unstable parameter
    sets still run but are flagged (their means need not converge).  Every
    source needs at least one post-warmup peak, so n must be >= 2 per
    source; n and the integer ``replications`` are capped at MAX_REPLICATE_N
    and MAX_REPLICATIONS.
    A mean or CI half-width that is not finite raises NumericError.
    """
    check_int(replications, "replications", 1)
    if params.n > MAX_REPLICATE_N or replications > MAX_REPLICATIONS:
        raise ValidationError(
            f"replicate is capped at n <= {MAX_REPLICATE_N} and replications <= "
            f"{MAX_REPLICATIONS}, got n={params.n}, replications={replications}"
        )
    if not 0.0 <= warmup_fraction <= 0.5:
        raise ValidationError(f"warmup fraction must be in [0, 0.5], got {warmup_fraction}")
    # a source with k >= 2 updates has k - 1 peaks, and a warmup of at most
    # half keeps at least one of them
    if params.n < 2 * params.sources:
        raise ValidationError(
            f"n must be >= {2 * params.sources} for a {params.sources}-source replication "
            f"(each source needs a post-warmup peak), got {params.n}"
        )
    if not params.stable:
        warnings.warn(
            f"unstable configuration (load {params.load:.3f} >= 1); "
            "simulation runs but means may diverge",
            RuntimeWarning,
            stacklevel=2,
        )

    n = params.n
    paoi_means = np.empty(replications)
    system_means = np.empty(replications)
    src_means = np.empty((replications, 2)) if params.sources == 2 else None
    # one workspace for every replication, in the layout of
    # ``kernels.lindley_system_times``: services are sampled into work[2],
    # where the kernel leaves the system times, and work[0] and work[1] hold
    # the prefix sums of U_i = X_{i-1} - T_i and their running min; work[0]
    # or work[1] then takes the post-warmup peaks
    work = np.empty((3, n))
    x = work[2]
    ws = _kept(n, warmup_fraction)  # first post-warmup system time

    if params.sources == 1:
        t = np.empty(n)
        w = _kept(n - 1, warmup_fraction)
        peaks = work[0, :n - 1 - w]
        for r in range(replications):
            sample_stream(interarrival_spec, n, derive_seed(master_seed, r, ROLE_ARRIVAL_1),
                          out=t)
            sample_stream(service_spec, n, derive_seed(master_seed, r, ROLE_SERVICE), out=x)
            s = kernels.lindley_system_times(t, x, work)
            # peaks of the post-warmup deliveries only
            _single_peaks(t[w:], s[w:], out=peaks)
            paoi_means[r] = peaks.mean()
            system_means[r] = s[ws:].mean()
    else:
        n1, n2 = (n + 1) // 2, n // 2
        # source 1's arrival times, then source 2's
        times = np.empty(n)
        a1, a2 = times[:n1], times[n1:]
        # the merged gaps, then per-source system times in the layout of times
        by_source = np.empty(n)
        s1, s2 = by_source[:n1], by_source[n1:]
        w1 = _kept(n1 - 1, warmup_fraction)
        w2 = _kept(n2 - 1, warmup_fraction)
        k1 = n1 - 1 - w1
        # both sources' post-warmup peaks side by side
        peaks = work[1, :k1 + n2 - 1 - w2]
        # both interarrival streams in the lanes of one paired cumsum; source
        # 2's lane is one entry longer when n is odd and ends in a zero
        pairs, lane1, lane2 = (v[:n1] for v in kernels._lanes(work))
        for r in range(replications):
            for a, lane, role in ((a1, lane1, ROLE_ARRIVAL_1), (a2, lane2, ROLE_ARRIVAL_2)):
                sample_stream(interarrival_spec, len(a),
                              derive_seed(master_seed, r, role), out=a)
                lane[:len(a)] = a
            lane2[n2:] = 0.0
            np.cumsum(pairs, out=pairs)
            a1[:] = lane1
            a2[:] = lane2[:n2]
            sample_stream(service_spec, n, derive_seed(master_seed, r, ROLE_SERVICE), out=x)
            merged, order = _merge(times, out=work[0])
            s = _merged_system_times(merged, x, by_source, work)
            # order[i] is the source-layout index of the i-th merged update
            by_source[order] = s
            _source_peaks(a1[w1:], s1[w1:], out=peaks[:k1])
            _source_peaks(a2[w2:], s2[w2:], out=peaks[k1:])
            src_means[r] = peaks[:k1].mean(), peaks[k1:].mean()
            paoi_means[r] = peaks.mean()
            system_means[r] = s[ws:].mean()

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
        stable=params.stable,
        paoi_rep_means=paoi_means,
    )
