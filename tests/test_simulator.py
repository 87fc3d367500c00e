"""FCFS simulation: Lindley recursion, the replication's steps, replication."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from paoiq import experiments, kernels, simulator
from paoiq.errors import ValidationError
from paoiq.experiments import SweepConfig, error_percent_se, family_spec, run_sweep
from paoiq.seeding import ROLE_ARRIVAL_1, ROLE_ARRIVAL_2, ROLE_SERVICE, derive_seed
from paoiq.simulator import (
    MAX_REPLICATE_N,
    MAX_REPLICATIONS,
    ReplicationSummary,
    SystemParams,
    _replicate_points,
    merge_arrivals,
    paoi_trace_single,
    paoi_trace_two_source,
    replicate,
    simulate_fcfs,
    simulate_two_source,
)
from paoiq.stochastic import (
    make_exponential,
    make_folded_normal,
    make_pareto,
    make_uniform_mean,
    sample_stream,
)


def brute_force_system_times(t, x):
    """Direct evaluation of S_n = max_k (sum_{i=k}^n X_i - sum_{i=k+1}^n T_i)."""
    n = len(x)
    return np.array(
        [max(x[k:i + 1].sum() - t[k + 1:i + 1].sum() for k in range(i + 1)) for i in range(n)]
    )


def event_list_fcfs(arrival_times, services):
    """Independent FCFS oracle: serve arrivals in time order, track server idle time."""
    finish = np.empty(len(arrival_times))
    free_at = 0.0
    for i in np.argsort(arrival_times, kind="stable"):
        start = max(arrival_times[i], free_at)
        finish[i] = start + services[i]
        free_at = finish[i]
    return finish


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SystemParams(0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            SystemParams(1.0, -1.0, 10)
        with pytest.raises(ValidationError):
            SystemParams(1.0, 1.0, 0)
        with pytest.raises(ValidationError):
            SystemParams(1.0, 1.0, 10, sources=3)

    @pytest.mark.parametrize("lam, mu, n", [
        (math.inf, 1.0, 10),
        (math.nan, 1.0, 10),
        (0.5, math.inf, 10),
        (0.5, math.nan, 10),
        (0.5, 1.0, 2.5),
        (0.5, 1.0, 10.0),
    ])
    def test_non_finite_rates_and_non_integer_n_rejected(self, lam, mu, n):
        with pytest.raises(ValidationError):
            SystemParams(lam, mu, n)

    def test_numpy_integer_n_accepted(self):
        assert SystemParams(0.5, 1.0, np.int64(10)).n == 10

    @pytest.mark.parametrize("role", ["interarrival", "service"])
    def test_realized_names_a_law_without_a_finite_rate(self, role):
        laws = {"interarrival": make_exponential(0.5), "service": make_exponential(1.0),
                role: make_uniform_mean(1e-310)}
        with pytest.raises(ValidationError, match=f"^{role} law uniform has mean 1e-310, "):
            SystemParams.realized(laws["interarrival"], laws["service"], 10, 1)

    def test_stability(self):
        assert SystemParams(0.5, 1.0, 10).stable
        assert not SystemParams(1.0, 1.0, 10).stable
        assert SystemParams(0.4, 1.0, 10, sources=2).stable
        assert not SystemParams(0.5, 1.0, 10, sources=2).stable


class TestSimulateFcfs:
    def test_no_queueing_when_service_shorter_than_gaps(self):
        x = np.array([0.5, 0.5, 0.5])
        s = simulate_fcfs([0.0, 1.0, 1.0], x)
        assert np.allclose(s - x, 0.0)
        assert np.allclose(s, 0.5)

    def test_hand_unrolled_backlog(self):
        s = simulate_fcfs([0.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert np.allclose(s, [2.0, 3.0, 4.0])

    def test_returns_the_kernel_system_times(self):
        rng = np.random.default_rng(5)
        t = rng.exponential(1.0, 1000)
        x = rng.exponential(0.9, 1000)
        s = simulate_fcfs(t, x)
        assert s.dtype == np.float64
        assert np.array_equal(s, kernels.lindley_system_times(t, x))
        assert np.array_equal(simulate_fcfs(list(t), list(x)), s)

    def test_invariants_on_random_path(self):
        rng = np.random.default_rng(0)
        t = rng.exponential(1.0, 500)
        x = rng.exponential(0.8, 500)
        s = simulate_fcfs(t, x)
        arrivals = np.cumsum(t)
        finishes = arrivals + s
        assert np.all(s >= x - 1e-12)
        # FCFS: finishes are non-decreasing, service starts at max(a_i, f_{i-1})
        assert np.all(np.diff(finishes) >= -1e-12)
        expected = np.maximum(arrivals, np.concatenate([[0.0], finishes[:-1]]))
        assert np.allclose(finishes - x, expected)

    def test_matches_brute_force_max_form(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            t = rng.exponential(1.0, n)
            x = rng.exponential(0.8, n)
            s = simulate_fcfs(t, x)
            ref = brute_force_system_times(t, x)
            assert np.abs(s - ref).max() <= 1e-12 * max(1.0, ref.max())

    def test_work_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            t = rng.exponential(1.0, n)
            x = rng.exponential(0.9, n)
            finish = np.cumsum(t)[-1] + simulate_fcfs(t, x)[-1]
            assert x.sum() <= finish - t[0] + x[0] + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            simulate_fcfs([1.0, 1.0], [1.0])
        with pytest.raises(ValidationError):
            simulate_fcfs([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            simulate_fcfs([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError):
            simulate_fcfs([], [])
        # a non-finite time fails before the kernel runs, and so does a NaN
        # first interarrival, which would make every arrival time NaN
        for t, x, what in (([1.0, np.inf, 1.0], [1.0, 1.0, 1.0], "interarrival"),
                           ([1.0, 1.0, 1.0], [1.0, np.inf, 1.0], "service"),
                           ([np.nan, 1.0, 1.0], [1.0, 1.0, 1.0], "interarrival")):
            with pytest.raises(ValidationError, match=f"^{what} times must be"):
                simulate_fcfs(t, x)
        # a scalar, a 2-D path and column services are not 1-D streams
        for t, x in ((1.0, 1.0), ([[1.0, 1.0]], [[1.0, 1.0]]), ([1.0, 1.0], [[1.0], [1.0]])):
            with pytest.raises(ValidationError, match="^a sample path is two 1-D streams"):
                simulate_fcfs(t, x)


def merged_with_ids(a1, a2):
    """``merge_arrivals`` over source 1's arrival times then source 2's, with
    the 1-based source id of each merged update."""
    merged, order = merge_arrivals(np.concatenate((a1, a2)))
    return merged, 1 + (order >= len(a1))


def two_source_path(t1, t2, services):
    """One merged path through the steps ``replicate`` runs: merged arrival
    times, source ids, system times, and the system times scattered back to
    each source's own order as ``_two_block`` does (source 1, then source 2)."""
    times = np.concatenate((np.cumsum(t1), np.cumsum(t2)))
    merged, order = merge_arrivals(times)
    n = len(merged)
    s = simulate_two_source(merged, np.asarray(services, dtype=np.float64), np.empty(n),
                            np.empty((3, n)))
    by_source = np.empty(n)
    by_source[order] = s
    return merged, 1 + (order >= len(t1)), s, by_source


class TestPaoiTraceSingle:
    def test_direct_sum(self):
        s = simulate_fcfs([0.5, 1.0], [0.5, 0.5])
        assert paoi_trace_single(np.array([0.5, 1.0]), s) == pytest.approx([1.5])

    def test_single_update_has_no_peak(self):
        assert len(paoi_trace_single(np.array([1.0]), np.array([0.5]))) == 0

    def test_peaks_equal_interarrival_plus_system_time(self):
        rng = np.random.default_rng(8)
        t = rng.exponential(2.0, 300)
        x = rng.exponential(1.0, 300)
        s = simulate_fcfs(t, x)
        peaks = paoi_trace_single(t, s)
        assert len(peaks) == 299
        assert np.allclose(peaks, t[1:] + s[1:])
        # peaks are also f_i - a_{i-1}
        arrivals = np.cumsum(t)
        assert np.allclose(peaks, (arrivals + s)[1:] - arrivals[:-1])


class TestMergeArrivals:
    def test_matches_lexsort_reference_with_ties(self):
        # integer arrival times tie often, within and across sources
        rng = np.random.default_rng(31)
        cross_ties = 0
        for _ in range(300):
            a1 = np.cumsum(rng.integers(0, 3, int(rng.integers(0, 25)))).astype(np.float64)
            a2 = np.cumsum(rng.integers(0, 3, int(rng.integers(1, 25)))).astype(np.float64)
            times = np.concatenate([a1, a2])
            ids = np.concatenate([np.ones(len(a1), dtype=np.int64),
                                  np.full(len(a2), 2, dtype=np.int64)])
            ref = np.lexsort((ids, times))  # primary: time, secondary: source id
            merged, got_ids = merged_with_ids(a1, a2)
            assert np.array_equal(merged, times[ref])
            assert np.array_equal(got_ids, ids[ref])
            cross_ties += len(np.intersect1d(a1, a2)) > 0
        assert cross_ties > 100


class TestTwoSource:
    def test_hand_merge(self):
        # source 1 arrives at {0, 10}, source 2 at {5}, unit services
        merged, ids, s, _ = two_source_path([0.0, 10.0], [5.0], [1.0, 1.0, 1.0])
        assert list(ids) == [1, 2, 1]
        assert np.allclose(merged + s, [1.0, 6.0, 11.0])

    def test_tie_goes_to_source_one(self):
        _, ids = merged_with_ids(np.array([3.0]), np.array([3.0]))
        assert list(ids) == [1, 2]

    def test_merge_preserves_order_and_counts(self):
        rng = np.random.default_rng(4)
        t1 = rng.exponential(1.0, 40)
        t2 = rng.exponential(1.0, 25)
        merged, ids = merged_with_ids(np.cumsum(t1), np.cumsum(t2))
        assert len(merged) == 65
        assert (ids == 1).sum() == 40
        assert (ids == 2).sum() == 25
        for sid, t in ((1, t1), (2, t2)):
            assert np.allclose(merged[ids == sid], np.cumsum(t))

    def test_matches_event_list_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            t1 = rng.exponential(2.0, n1)
            t2 = rng.exponential(2.0, n2)
            x = rng.exponential(0.8, n1 + n2)
            merged, _, s, _ = two_source_path(t1, t2, x)
            ref = event_list_fcfs(merged, x)
            assert np.abs(merged + s - ref).max() < 1e-9

    def test_single_update_source_has_empty_trace(self):
        t1, t2 = [1.0, 1.0], [1.5]
        _, _, _, by_source = two_source_path(t1, t2, [0.2, 0.2, 0.2])
        assert len(paoi_trace_two_source(np.cumsum(t1), by_source[:2])) == 1
        assert len(paoi_trace_two_source(np.cumsum(t2), by_source[2:])) == 0

    def test_per_source_peaks(self):
        rng = np.random.default_rng(21)
        t1 = rng.exponential(2.0, 50)
        t2 = rng.exponential(2.0, 50)
        merged, ids, s, by_source = two_source_path(
            t1, t2, sample_stream(make_exponential(1.0), 100, 5))
        for sid, t, s_own in ((1, t1, by_source[:50]), (2, t2, by_source[50:])):
            a = merged[ids == sid]
            f = (merged + s)[ids == sid]
            assert np.allclose(paoi_trace_two_source(np.cumsum(t), s_own), f[1:] - a[:-1])

    def test_trace_keeps_the_queue_system_times(self):
        # each source's peaks read the system times the queue computed, bit for bit
        rng = np.random.default_rng(31)
        t1 = rng.exponential(2.5, 5_000)
        t2 = rng.exponential(2.5, 5_000)
        _, ids, s, by_source = two_source_path(t1, t2, rng.exponential(1.0, 10_000))
        for sid, t, s_own in ((1, t1, by_source[:5_000]), (2, t2, by_source[5_000:])):
            a = np.cumsum(t)
            assert np.array_equal(s_own, s[ids == sid])
            assert np.array_equal(paoi_trace_two_source(a, s_own), np.diff(a) + s[ids == sid][1:])

    def test_symmetric_sources_have_similar_means(self):
        params = SystemParams(0.25, 1.0, 40_000, sources=2)
        summary = replicate(params, make_exponential(0.25), make_exponential(1.0),
                            replications=10, master_seed=17)
        p1, p2 = summary.per_source_paoi
        assert abs(p1 - p2) / summary.mean_paoi < 0.02

    def test_two_source_exponential_matches_closed_form(self):
        # merged Poisson arrivals at 2*lam: E[P] = 1/lam + 1/(mu - 2*lam)
        lam = 0.35
        summary = replicate(SystemParams(lam, 1.0, 60_000, sources=2),
                            make_exponential(lam), make_exponential(1.0),
                            replications=10, master_seed=1)
        expected = 1.0 / lam + 1.0 / (1.0 - 2.0 * lam)
        assert summary.mean_paoi == pytest.approx(expected, rel=0.03)


class TestReplicate:
    def test_mm1_closed_form(self):
        summary = replicate(SystemParams(0.5, 1.0, 30_000, 1),
                            make_exponential(0.5), make_exponential(1.0),
                            replications=10, warmup_fraction=0.1, master_seed=0)
        assert summary.mean_paoi == pytest.approx(4.0, rel=0.03)
        assert summary.mean_system_time == pytest.approx(2.0, rel=0.05)

    def test_single_replication_identity(self):
        params = SystemParams(0.4, 1.0, 2_000, 1)
        summary = replicate(params, make_exponential(0.4), make_exponential(1.0),
                            replications=1, warmup_fraction=0.0, master_seed=12)
        # reproduce the path by hand with the same derived seeds
        t = sample_stream(make_exponential(0.4), 2_000, derive_seed(12, 0, ROLE_ARRIVAL_1))
        x = sample_stream(make_exponential(1.0), 2_000, derive_seed(12, 0, ROLE_SERVICE))
        peaks = paoi_trace_single(t, simulate_fcfs(t, x))
        assert summary.mean_paoi == pytest.approx(peaks.mean(), rel=1e-12)
        assert summary.ci95_paoi == 0.0

    def test_deterministic_in_master_seed(self):
        params = SystemParams(0.3, 1.0, 3_000, 1)
        a = replicate(params, make_exponential(0.3), make_exponential(1.0),
                      replications=3, master_seed=5)
        b = replicate(params, make_exponential(0.3), make_exponential(1.0),
                      replications=3, master_seed=5)
        assert a.mean_paoi == b.mean_paoi
        assert a.ci95_paoi == b.ci95_paoi
        c = replicate(params, make_exponential(0.3), make_exponential(1.0),
                      replications=3, master_seed=6)
        assert a.mean_paoi != c.mean_paoi

    def test_unstable_config_warns_but_runs(self):
        params = SystemParams(1.2, 1.0, 2_000, 1)
        with pytest.warns(RuntimeWarning, match="unstable"):
            summary = replicate(params, make_exponential(1.2), make_exponential(1.0),
                                replications=2, master_seed=0)
        assert np.isfinite(summary.mean_paoi)
        # the verdict reads the laws that are sampled, not the rates of params
        with pytest.warns(RuntimeWarning, match="unstable"):
            summary = replicate(SystemParams(0.5, 1.0, 20_000, 1), make_exponential(1.5),
                                make_exponential(1.0), replications=3, master_seed=0)
        assert np.isfinite(summary.mean_paoi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replicate(SystemParams(1.5, 1.0, 20_000, 1), make_exponential(0.5),
                      make_exponential(1.0), replications=3, master_seed=0)

    @pytest.mark.parametrize("sources, n", [(1, 1), (2, 2), (2, 3)])
    def test_short_paths_rejected(self, sources, n):
        with pytest.raises(ValidationError, match="post-warmup peak"):
            replicate(SystemParams(0.2, 1.0, n, sources), make_exponential(0.2),
                      make_exponential(1.0), replications=2)

    @pytest.mark.parametrize("sources, n", [(1, 2), (2, 4)])
    def test_shortest_paths_give_finite_means(self, sources, n):
        summary = replicate(SystemParams(0.2, 1.0, n, sources), make_exponential(0.2),
                            make_exponential(1.0), replications=2, warmup_fraction=0.5)
        assert np.all(np.isfinite(summary.paoi_rep_means))
        assert np.isfinite(summary.mean_system_time)
        assert np.all(np.isfinite(summary.per_source_paoi or ()))

    def test_parameter_validation(self):
        params = SystemParams(0.5, 1.0, 100, 1)
        with pytest.raises(ValidationError):
            replicate(params, make_exponential(0.5), make_exponential(1.0), replications=0)
        with pytest.raises(ValidationError):
            replicate(params, make_exponential(0.5), make_exponential(1.0),
                      warmup_fraction=0.6)

    @pytest.mark.parametrize("sources", [1, 2])
    @pytest.mark.parametrize("n, replications", [
        (MAX_REPLICATE_N + 1, 1), (100, MAX_REPLICATIONS + 1), (10**15, 10**12),
    ])
    def test_size_caps(self, sources, n, replications):
        # rejected before anything is allocated
        with pytest.raises(ValidationError, match="capped"):
            replicate(SystemParams(0.2, 1.0, n, sources), make_exponential(0.2),
                      make_exponential(1.0), replications=replications)

    @pytest.mark.parametrize("sources", [1, 2])
    def test_workspace_bytes_per_update(self, sources):
        # both hold 40.7 B/update: a (3, n) workspace and one n-length buffer
        # (the interarrivals, or both sources' arrival times), plus the
        # sampler's temporary or, for two sources, the merge permutation,
        # which never live at once; one more n-length float64 buffer adds 8
        n = 100_000
        args = (SystemParams(0.4 / sources, 1.0, n, sources), make_exponential(0.4 / sources),
                make_exponential(1.0))
        replicate(*args, replications=3)
        tracemalloc.start()
        try:
            replicate(*args, replications=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 44.0


def law(family, mean):
    """The law of ``family`` with the given mean; Pareto has shape 2.5."""
    if family == "pareto":
        return make_pareto(2.5, mean * 1.5 / 2.5)
    return family_spec(family, mean)


def rebuilt_through_steps(params, ia_spec, svc_spec, replications, warmup, master_seed):
    """replicate()'s per-replication means, recomputed by composing its steps
    on fresh arrays: no workspace, source masks for the scatter."""
    paoi, system, per_source = [], [], []
    for r in range(replications):
        def seed(role):
            return derive_seed(master_seed, r, role)

        if params.sources == 1:
            t = sample_stream(ia_spec, params.n, seed(ROLE_ARRIVAL_1))
            x = sample_stream(svc_spec, params.n, seed(ROLE_SERVICE))
            s = simulate_fcfs(t, x)
            peaks = paoi_trace_single(t, s)
            paoi.append(peaks[int(warmup * len(peaks)):].mean())
        else:
            t1 = sample_stream(ia_spec, (params.n + 1) // 2, seed(ROLE_ARRIVAL_1))
            t2 = sample_stream(ia_spec, params.n // 2, seed(ROLE_ARRIVAL_2))
            merged, ids = merged_with_ids(np.cumsum(t1), np.cumsum(t2))
            x = sample_stream(svc_spec, params.n, seed(ROLE_SERVICE))
            s = simulate_two_source(merged, x, np.empty(params.n), None)
            kept = []
            for sid in (1, 2):
                peaks = paoi_trace_two_source(merged[ids == sid], s[ids == sid])
                kept.append(peaks[int(warmup * len(peaks)):])
            per_source.append([k.mean() for k in kept])
            paoi.append(np.concatenate(kept).mean())
        system.append(s[int(warmup * len(s)):].mean())
    return np.array(paoi), np.array(system), np.array(per_source)


class TestReplicateParity:
    """replicate() and its steps composed on fresh arrays agree to the last bit."""

    @pytest.mark.parametrize("warmup", [0.0, 0.5])
    @pytest.mark.parametrize("family", ["exponential", "normal", "uniform", "pareto"])
    @pytest.mark.parametrize("sources", [1, 2])
    def test_bitwise_equal_to_wrappers(self, sources, family, warmup):
        lam = 0.6 / sources
        params = SystemParams(lam, 1.0, 2_001, sources)  # odd n: uneven source split
        ia_spec, svc_spec = law(family, 1.0 / lam), law(family, 1.0)
        summary = replicate(params, ia_spec, svc_spec, replications=3,
                            warmup_fraction=warmup, master_seed=23)
        paoi, system, per_source = rebuilt_through_steps(
            params, ia_spec, svc_spec, 3, warmup, 23)
        assert np.array_equal(summary.paoi_rep_means, paoi)
        assert np.array_equal(summary.mean_system_time, float(system.mean()))
        if sources == 2:
            assert np.array_equal(summary.per_source_paoi, per_source.mean(axis=0))


STEPS = ("merge_arrivals", "simulate_two_source", "paoi_trace_single", "paoi_trace_two_source")


def test_replicate_runs_the_named_steps(monkeypatch):
    # the benchmark's tracer rebinds these module globals, so its per-layer
    # rows time the steps only if replicate looks each one up at call time
    r = 3

    def run(sources):
        lam = 0.4 / sources
        s = replicate(SystemParams(lam, 1.0, 1_001, sources), make_exponential(lam),
                      make_exponential(1.0), replications=r, master_seed=7)
        return (s.paoi_rep_means.tobytes(), s.mean_system_time, s.ci95_paoi, s.per_source_paoi)

    expected = {sources: run(sources) for sources in (1, 2)}
    calls = {}

    def spy(name, step):
        def counted(*args, **kwargs):
            calls[name] += 1
            return step(*args, **kwargs)
        return counted

    for name in STEPS:
        monkeypatch.setattr(simulator, name, spy(name, getattr(simulator, name)))
    for sources, counts in ((1, (0, 0, r, 0)), (2, (r, r, 0, 2 * r))):
        calls.update(dict.fromkeys(STEPS, 0))
        assert run(sources) == expected[sources]
        assert calls == dict(zip(STEPS, counts))


def bits(summary):
    return (summary.mean_paoi, summary.mean_system_time, summary.ci95_paoi,
            summary.per_source_paoi, summary.paoi_rep_means.tobytes())


@pytest.mark.usefixtures("no_child_outlives")
class TestReplicateProcesses:
    """A lone replicate() call runs in its caller: it forks nothing, even
    past the fork threshold, and has the same bits on one CPU and on every CPU."""

    @staticmethod
    def run(sources, replications):
        lam = 0.4 / sources
        return replicate(SystemParams(lam, 1.0, 300, sources), make_exponential(lam),
                         make_exponential(1.0), replications=replications, master_seed=5)

    @pytest.mark.parametrize("replications", [3, 11, 50])
    @pytest.mark.parametrize("sources", [1, 2])
    def test_bits_equal_across_process_counts(self, monkeypatch, forks, sources, replications):
        monkeypatch.setattr(simulator, "FORK_MIN_UPDATES", 1)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            expected = self.run(sources, replications)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert bits(self.run(sources, replications)) == bits(expected)
        assert forks == []


@pytest.mark.usefixtures("no_child_outlives")
class TestReplicatePoints:
    """_replicate_points(), the one fan-out of a grid of replicate() calls:
    it forks over the points by one rule, checks every point first, has the
    bits of a serial loop whatever fails, and leaves no child process behind."""

    POINTS = [(SystemParams(lam, 1.0, 300), make_exponential(lam), make_exponential(1.0), seed)
              for seed, lam in enumerate((0.3, 0.5, 0.7))]

    @classmethod
    def run(cls, points=None, replications=4):
        return [bits(s) for s in _replicate_points(points or cls.POINTS, replications, 0.1)]

    @classmethod
    def serial(cls, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return cls.run()

    @pytest.fixture
    def forking(self, monkeypatch):
        """Three fake CPUs, and a fork at any size."""
        monkeypatch.setattr(simulator, "FORK_MIN_UPDATES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def test_serial_grid_calls_replicate_once_per_point(self, monkeypatch):
        # the benchmark counts its updates and kept calibration rows from
        # these calls to the module global
        calls = []
        replicate = simulator.replicate

        def spy(*args):
            calls.append(args)
            return replicate(*args)

        monkeypatch.setattr(simulator, "replicate", spy)
        self.serial(monkeypatch)
        assert calls == [(params, ia, svc, 4, 0.1, seed) for params, ia, svc, seed in self.POINTS]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_one_process_per_cpu_up_to_the_points(self, monkeypatch, forking, forks, cpus):
        expected = self.serial(monkeypatch)
        calls = []
        run_blocks = simulator._run_blocks

        def spy(block, count, k):
            calls.append((count, k))
            run_blocks(block, count, k)

        monkeypatch.setattr(simulator, "_run_blocks", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert self.run() == expected
        k = min(cpus, len(self.POINTS))
        assert calls == [(len(self.POINTS), k)]
        assert forks == [os.getpid()] * (k - 1)

    def test_failed_fork_runs_the_block_here(self, monkeypatch, forking, refused_forks):
        expected = self.serial(monkeypatch)
        assert self.run() == expected
        assert refused_forks == [os.getpid()] * 2

    def test_failed_child_block_runs_here(self, monkeypatch, forking, forks, fail_replicate):
        expected = self.serial(monkeypatch)
        fail_replicate(monkeypatch, in_parent=False)
        assert self.run() == expected
        assert forks == [os.getpid()] * 2

    def test_failed_parent_block_propagates_and_the_next_call_forks(self, monkeypatch, forking,
                                                                    forks, fail_replicate):
        with monkeypatch.context() as m:
            fail_replicate(m, in_parent=True)
            with pytest.raises(RuntimeError, match=f"replicate failed in pid {os.getpid()}"):
                self.run()
        assert forks == [os.getpid()] * 2
        self.run()
        assert forks == [os.getpid()] * 4

    def test_no_fork_beside_another_thread(self, monkeypatch, forking, forks, another_thread):
        assert self.run() == self.serial(monkeypatch)
        assert forks == []

    def test_no_fork_below_the_threshold(self, monkeypatch, forks):
        # the real threshold; the rule counts the longest path, n, at both points
        n = simulator.FORK_MIN_UPDATES // 20
        assert n * 20 == simulator.FORK_MIN_UPDATES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        self.run(self.POINTS[:1] + [(SystemParams(0.5, 1.0, n - 1), *self.POINTS[1][1:])], 10)
        assert forks == []
        self.run(self.POINTS[:1] + [(SystemParams(0.5, 1.0, n), *self.POINTS[1][1:])], 10)
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("params, replications, warmup, match", [
        (SystemParams(0.2, 1.0, 3, 2), 4, 0.1, "n must be >= 4 for a 2-source replication"),
        (SystemParams(0.5, 1.0, 300), 4, 0.6, "warmup fraction must be in"),
        (SystemParams(0.5, 1.0, MAX_REPLICATE_N + 1), 4, 0.1, "replicate is capped"),
        (SystemParams(0.5, 1.0, 300), MAX_REPLICATIONS + 1, 0.1, "replicate is capped"),
    ], ids=["short-path", "warmup", "n-cap", "replications-cap"])
    def test_settings_checked_before_any_fork(self, forking, forks, params, replications,
                                              warmup, match):
        # the bad point comes last, past the blocks that would fork
        points = self.POINTS + [(params, make_exponential(params.lam), make_exponential(1.0), 0)]
        with pytest.raises(ValidationError, match=match):
            _replicate_points(points, replications, warmup)
        assert forks == []

    def test_empty_grid(self, forking, forks):
        assert _replicate_points([], 4, 0.1) == []
        with pytest.raises(ValidationError, match="warmup fraction must be in"):
            _replicate_points([], 4, 0.6)
        assert forks == []


def reference_replicate(params, ia_spec, svc_spec, replications, warmup, master_seed):
    """replicate()'s per-replication means from an event-list queue.

    Builds each path from ``sample_stream`` alone, serves it with
    ``event_list_fcfs`` and takes each source's peaks f_i - a_prev at its
    deliveries, so it shares no step with the simulator module.
    """
    sizes = (params.n,) if params.sources == 1 else ((params.n + 1) // 2, params.n // 2)
    roles = (ROLE_ARRIVAL_1, ROLE_ARRIVAL_2)
    paoi, system, per_source = [], [], []
    for r in range(replications):
        times, ids = [], []
        for source, (size, role) in enumerate(zip(sizes, roles)):
            gaps = sample_stream(ia_spec, size, derive_seed(master_seed, r, role))
            times.append(np.cumsum(gaps))
            ids.append(np.full(size, source))
        times, ids = np.concatenate(times), np.concatenate(ids)
        order = np.lexsort((ids, times))  # FCFS, ties to source 1
        arrivals, ids = times[order], ids[order]
        # the i-th update served takes the i-th service draw
        services = sample_stream(svc_spec, params.n,
                                 derive_seed(master_seed, r, ROLE_SERVICE))
        finish = event_list_fcfs(arrivals, services)
        peaks = [[] for _ in sizes]
        last_arrival = [None for _ in sizes]
        for a, f, source in zip(arrivals, finish, ids):
            if last_arrival[source] is not None:
                peaks[source].append(f - last_arrival[source])
            last_arrival[source] = a
        kept = [p[int(warmup * len(p)):] for p in peaks]
        paoi.append(np.mean(np.concatenate(kept)))
        per_source.append([np.mean(k) for k in kept])
        system.append(np.mean((finish - arrivals)[int(warmup * params.n):]))
    return np.array(paoi), np.array(system), np.array(per_source)


@pytest.mark.parametrize("warmup", [0.0, 0.5])
@pytest.mark.parametrize("family", ["exponential", "normal", "uniform", "pareto"])
@pytest.mark.parametrize("sources", [1, 2])
def test_replicate_matches_event_list_reference(sources, family, warmup):
    lam = 0.6 / sources
    params = SystemParams(lam, 1.0, 1_001, sources)  # odd n: uneven source split
    ia_spec, svc_spec = law(family, 1.0 / lam), law(family, 1.0)
    summary = replicate(params, ia_spec, svc_spec, replications=3,
                        warmup_fraction=warmup, master_seed=31)
    paoi, system, per_source = reference_replicate(params, ia_spec, svc_spec, 3, warmup, 31)
    assert summary.paoi_rep_means == pytest.approx(paoi, rel=1e-9, abs=0)
    assert summary.mean_system_time == pytest.approx(system.mean(), rel=1e-9, abs=0)
    if sources == 2:
        assert summary.per_source_paoi == pytest.approx(per_source.mean(axis=0), rel=1e-9, abs=0)
    else:
        assert summary.per_source_paoi is None


def test_replicate_matches_mg1_peak_age():
    """Replicated mean peak age against the M/G/1 formula (Kleinrock 1975).

    Poisson arrivals of total rate L = k*lam into one FCFS server give a
    mean system time E[S] + L*E[S^2] / (2(1 - rho)) (Pollaczek-Khinchine,
    rho = L*E[S]), and a source's peak age adds its mean interarrival time
    1/lam.  The seed is fixed in advance at every point.
    """
    mu, replications = 1.0, 20
    services = {
        "exponential": make_exponential(mu),
        "uniform": make_uniform_mean(1.0 / mu),
        "normal": make_folded_normal(1.0 / mu, 0.5 / mu),
    }
    z = {}
    for sources in (1, 2):
        for name, svc in services.items():
            for load in (0.2, 0.5, 0.8, 0.9):
                lam = load * mu / sources
                total = sources * lam
                rho = total * svc.mean
                second_moment = svc.variance + svc.mean**2
                expected = 1.0 / lam + svc.mean + total * second_moment / (2.0 * (1.0 - rho))
                summary = replicate(SystemParams(lam, mu, 100_000, sources),
                                    make_exponential(lam), svc, replications=replications,
                                    warmup_fraction=0.1, master_seed=11)
                means = summary.paoi_rep_means
                stderr = means.std(ddof=1) / math.sqrt(replications)
                z[sources, name, load] = (means.mean() - expected) / stderr
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= 4.0, f"|z| = {abs(z[worst]):.2f} at {worst}; all: {z}"


def laplace_transform(spec, s):
    """E[exp(-s T)] at s > 0 of an exponential, uniform or folded-normal law."""
    p = dict(spec.params)
    if spec.kind == "exponential":
        return p["rate"] / (p["rate"] + s)
    if spec.kind == "uniform":  # on [0, 2*mean]
        b = 2.0 * p["mean"] * s
        return -math.expm1(-b) / b
    # |X| with X ~ N(loc, sc^2): the parts X > 0 and X < 0, each a shifted normal
    loc, sc = p["location"], p["scale"]
    z, v = loc / sc, s * sc
    return (math.exp(0.5 * v * v - s * loc) * 0.5 * math.erfc((v - z) / math.sqrt(2.0))
            + math.exp(0.5 * v * v + s * loc) * 0.5 * math.erfc((v + z) / math.sqrt(2.0)))


def gim1_sigma(interarrival, mu):
    """The root in (0, 1) of sigma = A*(mu (1 - sigma)), by bisection.

    A* is the Laplace transform of the interarrival law.  Below load 1 the
    map minus sigma is positive on [0, sigma) and negative on (sigma, 1).
    """
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if laplace_transform(interarrival, mu * (1.0 - mid)) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_replicate_matches_gim1_peak_age():
    """Replicated mean peak age against the GI/M/1 solution (Kleinrock 1975).

    Renewal arrivals into one FCFS server with exponential services of rate
    mu give an exponential system time of rate mu(1 - sigma), with sigma the
    root of ``gim1_sigma``, so the mean peak age is E[T] + 1/(mu(1 - sigma)).
    For Poisson arrivals sigma is the load.  The seed is fixed in advance at
    every point.
    """
    mu, replications = 1.0, 20
    assert gim1_sigma(make_exponential(0.3), mu) == pytest.approx(0.3, rel=1e-12)
    z = {}
    for family in ("exponential", "normal", "uniform"):
        for load in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9):
            ia = family_spec(family, 1.0 / (load * mu))
            expected = ia.mean + 1.0 / (mu * (1.0 - gim1_sigma(ia, mu)))
            summary = replicate(SystemParams(1.0 / ia.mean, mu, 100_000), ia,
                                make_exponential(mu), replications=replications,
                                warmup_fraction=0.1, master_seed=11)
            means = summary.paoi_rep_means
            stderr = means.std(ddof=1) / math.sqrt(replications)
            z[family, load] = (means.mean() - expected) / stderr
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= 4.0, f"|z| = {abs(z[worst]):.2f} at {worst}; all: {z}"


# kingman / robust1 / robust2 error percents of a single-source grid
# (realized rates, built-in theta, n = 1e5) against the GI/M/1 means: the
# default grid, and the light-load rates 0.02, 0.05 and 0.1
EXACT_ERROR_PERCENTS = {
    "exponential": {"kingman": 33.56, "robust1": 35.16, "robust2": 5.98},
    "normal": {"kingman": 12.79, "robust1": 48.48, "robust2": 21.64},
    "uniform": {"kingman": 14.81, "robust1": 44.36, "robust2": 17.09},
}
LIGHT_LOAD_RATES = (0.02, 0.05, 0.1)
LIGHT_LOAD_EXACT_ERROR_PERCENTS = {
    "exponential": {"kingman": 49.785, "robust1": 113.6667, "robust2": 4.8067},
    "normal": {"kingman": 11.6055, "robust1": 95.107, "robust2": 0.0968},
    "uniform": {"kingman": 16.702, "robust1": 97.4108, "robust2": 0.2164},
}


def check_exact_error_percents(monkeypatch, family, lambdas, expected):
    """The sweep's error percents with each simulated mean replaced by the
    exact GI/M/1 mean peak age, and a reduced simulated sweep against them.

    ``lambdas`` is the sweep's grid (None for the default one).  The reduced
    sweep (n = 2e4, 10 replications, seed 0) must agree within 4 of its
    delta-method standard errors (``error_percent_se``).
    """
    def exact_points(points, replications, warmup_fraction):
        out = []
        for system, ia, _, _ in points:
            mean = ia.mean + 1.0 / (system.mu * (1.0 - gim1_sigma(ia, system.mu)))
            out.append(ReplicationSummary(1, mean, math.nan, 0.0, None, np.array([mean])))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_replicate_points", exact_points)
        exact = run_sweep(SweepConfig("single", lambdas, interarrival_family=family))
    assert exact.error_percents == pytest.approx(expected, abs=0.005)

    simulated = run_sweep(SweepConfig("single", lambdas, interarrival_family=family, n=20_000,
                                      replications=10, master_seed=0))
    for method, pct in simulated.error_percents.items():
        se = error_percent_se([r for r in simulated.rows if r.method == method])
        assert abs(pct - expected[method]) <= 4.0 * se, (method, pct, se)


@pytest.mark.filterwarnings("ignore:mapped gamma_s:RuntimeWarning")
@pytest.mark.parametrize("family", sorted(EXACT_ERROR_PERCENTS))
def test_default_grid_exact_error_percents(monkeypatch, family):
    check_exact_error_percents(monkeypatch, family, None, EXACT_ERROR_PERCENTS[family])


@pytest.mark.filterwarnings("ignore:mapped gamma_s:RuntimeWarning")
@pytest.mark.parametrize("family", sorted(LIGHT_LOAD_EXACT_ERROR_PERCENTS))
def test_light_load_exact_error_percents(monkeypatch, family):
    check_exact_error_percents(monkeypatch, family, LIGHT_LOAD_RATES,
                               LIGHT_LOAD_EXACT_ERROR_PERCENTS[family])
