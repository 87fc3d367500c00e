"""Distribution specs: analytic moments, sampling contracts, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paoiq
from paoiq.errors import ValidationError
from paoiq.seeding import derive_seed
from paoiq.simulator import SystemParams, replicate
from paoiq.stochastic import (
    make_exponential,
    make_folded_normal,
    make_pareto,
    make_uniform_mean,
    sample_stream,
    spec_from_dict,
)

# Monte-Carlo reference moments of |N(0,1)|, 1e7 draws with an independent
# generator (numpy default_rng(2024)); standard errors ~2e-4.
MC_FOLDED01_MEAN = 0.798145
MC_FOLDED01_VAR = 0.363773


def test_exponential_moments():
    spec, half = make_exponential(1.0), make_exponential(0.5)
    assert (spec.mean, spec.variance) == (1.0, 1.0)
    assert (half.mean, half.variance) == (2.0, 4.0)


def test_exponential_invalid_rate():
    with pytest.raises(ValidationError):
        make_exponential(0.0)
    with pytest.raises(ValidationError):
        make_exponential(-1.0)


def test_folded_normal_standard_moments():
    spec = make_folded_normal(0.0, 1.0)
    assert spec.mean == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert spec.variance == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-12)
    # cross-check against the frozen Monte-Carlo estimates
    assert spec.mean == pytest.approx(MC_FOLDED01_MEAN, abs=1e-3)
    assert spec.variance == pytest.approx(MC_FOLDED01_VAR, abs=1e-3)


def test_folded_normal_negligible_folding():
    spec = make_folded_normal(10.0, 0.1)
    # folding correction is exp(-5000)-sized here
    assert spec.mean == pytest.approx(10.0, abs=1e-10)
    assert spec.variance == pytest.approx(0.01, abs=1e-10)


def test_folded_normal_invalid_scale():
    with pytest.raises(ValidationError):
        make_folded_normal(1.0, 0.0)


def test_uniform_moments_and_support():
    spec, half = make_uniform_mean(1.0), make_uniform_mean(0.5)
    assert (spec.mean, spec.variance) == (1.0, pytest.approx(1.0 / 3.0))
    assert (half.mean, half.variance) == (0.5, pytest.approx(1.0 / 12.0))
    values = sample_stream(make_uniform_mean(1.0), 100_000, 7)
    assert values.min() >= 0.0 and values.max() <= 2.0


def test_uniform_invalid_mean():
    with pytest.raises(ValidationError):
        make_uniform_mean(-1.0)


def test_pareto_moments():
    spec = make_pareto(3.0, 2.0)
    assert spec.mean == pytest.approx(3.0)
    assert spec.variance == pytest.approx(3.0)
    assert not spec.heavy_tailed


def test_pareto_heavy_tail_flag():
    spec = make_pareto(1.5, 1.0)
    assert spec.mean == pytest.approx(3.0)
    assert spec.variance is None
    assert spec.heavy_tailed
    with pytest.raises(ValidationError):
        spec.std  # noqa: B018 - the property itself raises


def test_pareto_invalid_shape():
    with pytest.raises(ValidationError):
        make_pareto(1.0, 1.0)


@pytest.mark.parametrize("factory, args", [
    (make_exponential, (math.inf,)),
    (make_exponential, (math.nan,)),
    (make_folded_normal, (math.inf, 1.0)),
    (make_folded_normal, (math.nan, 1.0)),
    (make_folded_normal, (1.0, math.inf)),
    (make_uniform_mean, (math.inf,)),
    (make_pareto, (math.inf, 1.0)),
    (make_pareto, (3.0, math.inf)),
])
def test_non_finite_parameters_rejected(factory, args):
    with pytest.raises(ValidationError, match="finite"):
        factory(*args)


@pytest.mark.parametrize("factory, args", [
    (make_exponential, (1e308,)),
    (make_exponential, (1e-300,)),
    (make_uniform_mean, (1e308,)),
    (make_folded_normal, (1e308, 1.0)),
    (make_pareto, (2.5, 1e308)),
    (make_pareto, (1.0000001, 1e308)),
    (derive_seed, (-1,)),
], ids=["exponential-huge-rate", "exponential-tiny-rate", "uniform-huge-mean",
        "folded-normal-huge-location", "pareto-huge-scale", "pareto-infinite-mean",
        "negative-seed"])
def test_out_of_range_parameters_rejected(factory, args):
    # finite parameters whose moments leave the float range, and a seed
    # SeedSequence refuses, are invalid input, not arithmetic failures
    with pytest.raises(ValidationError):
        factory(*args)


def test_sample_stream_rejects_zero_count():
    with pytest.raises(ValidationError):
        sample_stream(make_exponential(1.0), 0, 1)


REPLICATION = (SystemParams(0.5, 1.0, 100, 1), make_exponential(0.5), make_exponential(1.0))


@pytest.mark.parametrize("fn, args, kwargs", [
    (derive_seed, (1.5, 0), {}),
    (derive_seed, (True, 0), {}),
    (derive_seed, (1, 0.0), {}),
    (derive_seed, (1, -1), {}),
    (sample_stream, (make_exponential(1.0), 2.5, 0), {}),
    (sample_stream, (make_exponential(1.0), 10, 1.5), {}),
    (sample_stream, (make_exponential(1.0), 10, -1), {}),
    (replicate, REPLICATION, {"master_seed": 1.5}),
    (replicate, REPLICATION, {"replications": 2.5}),
    (replicate, REPLICATION, {"replications": True}),
], ids=["float-master", "bool-master", "float-key", "negative-key", "float-count",
        "float-seed", "negative-seed", "replicate-float-seed", "float-replications",
        "bool-replications"])
def test_seeds_and_counts_must_be_non_negative_integers(fn, args, kwargs):
    # int() would truncate a float seed or count to another valid one
    with pytest.raises(ValidationError, match="must be"):
        fn(*args, **kwargs)


def test_sample_stream_law_of_large_numbers():
    s = sample_stream(make_exponential(1.0), 1_000_000, 42)
    assert abs(s.mean() - 1.0) < 0.005


def test_sample_stream_deterministic():
    a = sample_stream(make_exponential(1.0), 10_000, 42)
    b = sample_stream(make_exponential(1.0), 10_000, 42)
    assert np.array_equal(a, b)
    c = sample_stream(make_exponential(1.0), 10_000, 43)
    assert not np.array_equal(a, c)


SAMPLED_FAMILIES = [
    make_exponential(0.5),
    make_folded_normal(1.0, 0.5),
    make_uniform_mean(1.5),
    make_pareto(2.5, 1.0),
]


def reference_stream(spec, count, seed):
    """The sampling contract written out with allocating NumPy expressions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = dict(spec.params)
    if spec.kind == "folded_normal":
        values = np.abs(p["location"] + p["scale"] * rng.standard_normal(count))
        return np.maximum(values, np.finfo(np.float64).tiny)
    u = rng.integers(1, 2**53, size=count).astype(np.float64) / float(2**53)
    if spec.kind == "exponential":
        return -np.log(u) / p["rate"]
    if spec.kind == "uniform":
        return 2.0 * p["mean"] * u
    return p["scale"] * u ** (-1.0 / p["shape"])


@pytest.mark.parametrize("spec", SAMPLED_FAMILIES, ids=lambda s: s.kind)
def test_sample_stream_bitwise_contract(spec):
    for count, seed in ((1, 0), (10_000, 42)):
        assert np.array_equal(sample_stream(spec, count, seed),
                              reference_stream(spec, count, seed))


# Run in a fresh interpreter: sys.argv[1] is "factory", or the repr of a
# folded-normal spec to rebuild directly, without make_folded_normal. For
# "factory", sys.argv[2] is a calibrate grid and sys.argv[3] the theta file
# calibrate writes.
NO_SCIPY_SCRIPT = """
import sys
from paoiq import (DistributionSpec, SystemParams, make_exponential,
                   make_folded_normal, replicate, sample_stream)
from paoiq.cli import main

for sources in (1, 2):
    replicate(SystemParams(0.2, 1.0, 1000, sources), make_exponential(0.2),
              make_exponential(1.0), replications=2)
print(sys.modules.get("scipy") is not None)
if sys.argv[1] == "factory":
    make_folded_normal(1.0, 0.5)
    print(main(["calibrate", "--scenario", "single", "--grid", sys.argv[2],
                "--out", sys.argv[3]]))
else:
    spec = eval(sys.argv[1], {"DistributionSpec": DistributionSpec})
    print(sample_stream(spec, 10_000, 42).tobytes().hex())
print(sys.modules.get("scipy") is not None)
"""


# SciPy is loaded at most for folded normals, and since they are drawn with
# NumPy's ziggurat, not even for them.
@pytest.mark.parametrize("build", ["factory", "direct"])
def test_scipy_loaded_only_for_folded_normal(build, tmp_path):
    spec = make_folded_normal(1.0, 0.5)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": 2000, "replications": 2, "points": [
        {"lam": 0.5, "interarrival": {"kind": "folded_normal", "location": 2, "scale": 1},
         "service": spec.to_dict()}]}))
    src = str(Path(paoiq.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", NO_SCIPY_SCRIPT]
    argv += (["factory", str(grid), str(tmp_path / "theta.json")] if build == "factory"
             else [repr(spec)])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                         timeout=120).stdout.split()
    assert out[0] == "False"
    assert out[-1] == "False"
    if build == "factory":
        # the folded-normal point was simulated; one row is too few to fit (exit 2)
        assert out[1] == "2"
    else:
        # a directly built spec keeps the sampling contract
        assert np.array_equal(np.frombuffer(bytes.fromhex(out[1])),
                              reference_stream(spec, 10_000, 42))


def folded_normal_cdf(x, location, scale):
    erf = np.frompyfunc(math.erf, 1, 1)
    z = scale * math.sqrt(2.0)
    return (0.5 * (erf((x + location) / z) + erf((x - location) / z))).astype(np.float64)


@pytest.mark.parametrize("location, scale", [(0.5, 1.0), (1.0, 0.5), (0.0, 2.0)])
def test_folded_normal_kolmogorov_smirnov(location, scale):
    n = 200_000
    x = np.sort(sample_stream(make_folded_normal(location, scale), n, 7))
    cdf = folded_normal_cdf(x, location, scale)
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    # 1.95 is the asymptotic 0.1% critical value of sqrt(n) * D
    assert math.sqrt(n) * d < 1.95


@pytest.mark.parametrize("spec", SAMPLED_FAMILIES, ids=lambda s: s.kind)
def test_sample_stream_out_matches_allocating_call(spec):
    out = np.full(10_000, np.nan)
    assert sample_stream(spec, 10_000, 42, out=out) is out
    values = sample_stream(spec, 10_000, 42)
    assert type(values) is np.ndarray and values.dtype == np.float64
    assert values.flags.c_contiguous
    assert np.array_equal(out, values)


@pytest.mark.parametrize("out", [
    np.empty(9),
    np.empty(10, dtype=np.float32),
    np.empty((10, 1)),
    [0.0] * 10,
    np.empty((10, 2))[:, 0],
    np.empty(10)[::-1],
    np.frombuffer(bytes(80)),
], ids=["length", "float32", "2d", "list", "strided", "reversed", "read-only"])
def test_sample_stream_out_rejects_wrong_shape_or_dtype(out):
    for spec in SAMPLED_FAMILIES:
        with pytest.raises(ValidationError, match="out must be"):
            sample_stream(spec, 10, 0, out=out)


@pytest.mark.parametrize(
    "spec",
    [
        make_exponential(0.5),
        make_folded_normal(1.0, 0.5),
        make_folded_normal(0.0, 2.0),
        make_uniform_mean(1.0),
        make_pareto(5.0, 1.0),
        make_pareto(1.5, 1.0),
    ],
    ids=lambda s: s.kind,
)
def test_positivity(spec):
    values = sample_stream(spec, 200_000, 99)
    assert np.all(values > 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        make_exponential(0.5),
        make_folded_normal(1.0, 0.5),
        make_uniform_mean(1.0),
        make_pareto(5.0, 1.0),
    ],
    ids=lambda s: s.kind,
)
def test_moment_consistency(spec):
    # empirical mean within 1% and variance within 3% over 1e6 samples
    values = sample_stream(spec, 1_000_000, 7)
    assert abs(values.mean() - spec.mean) / spec.mean < 0.01
    assert abs(values.var() - spec.variance) / spec.variance < 0.03


def test_spec_from_dict_round_trip():
    for spec in (
        make_exponential(0.7),
        make_folded_normal(1.0, 0.25),
        make_uniform_mean(2.0),
        make_pareto(2.5, 0.5),
    ):
        again = spec_from_dict(spec.to_dict())
        assert again == spec


def test_spec_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "gaussian", "mean": 1.0})
    with pytest.raises(ValidationError):
        spec_from_dict({"rate": 1.0})
    with pytest.raises(ValidationError):
        spec_from_dict({"kind": "exponential", "rate": 1.0, "extra": 2.0})
