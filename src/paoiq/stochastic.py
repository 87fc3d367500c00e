"""Distribution specifications with closed-form moments and seeded sampling.

Four positive-support families are provided:

* ``exponential`` with a rate parameter,
* ``folded_normal``: the absolute value of a normal with the given
  pre-folding location and scale (moments reported are post-folding),
* ``uniform``: uniform on [0, 2*mean], a single-parameter family pinned to
  its mean,
* ``pareto``: classic Pareto on [scale, inf) with tail index ``shape``;
  shape <= 2 marks the spec heavy-tailed (infinite variance).

Every stream comes from one PCG64 generator, so it is reproducible for a
fixed (spec, seed, count) and every sampled value is strictly positive.
Folded normals are ``|location + scale*Z|`` with Z from NumPy's ziggurat
``standard_normal``; the other three families are inverse transforms of
uniforms drawn on the open interval via ``integers(1, 2**53) * 2**-53``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, json_float

KINDS = ("exponential", "folded_normal", "uniform", "pareto")

_TWO_M53 = 2.0**-53


@dataclass(frozen=True)
class DistributionSpec:
    """Parametric law of a positive random variable with known moments."""

    kind: str
    params: tuple[tuple[str, float], ...]
    mean: float
    variance: float | None  # None when infinite (heavy-tailed Pareto)

    def __post_init__(self) -> None:
        if not 0 < self.mean < math.inf or not (
                self.variance is None or math.isfinite(self.variance)):
            raise ValidationError(
                f"{self.kind} spec with {dict(self.params)} needs a finite mean > 0 and a "
                f"finite variance, got mean={self.mean}, variance={self.variance}"
            )

    @property
    def heavy_tailed(self) -> bool:
        return self.variance is None

    @property
    def std(self) -> float:
        if self.variance is None:
            raise ValidationError(
                f"{self.kind} spec with {dict(self.params)} has infinite variance"
            )
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}


@contextlib.contextmanager
def _moments_in_range(kind: str, **params: float):
    """Report moments that leave the float range as ValidationError.

    A parameter finite on its own can still overflow a power or underflow
    a divisor to zero while the factories compute the moments.
    """
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"{kind} moments leave the float range for {params}") from exc


def make_exponential(rate: float) -> DistributionSpec:
    """Exponential law with the given rate; mean 1/rate, variance 1/rate^2."""
    if not 0 < rate < math.inf:
        raise ValidationError(f"exponential rate must be finite and > 0, got {rate}")
    with _moments_in_range("exponential", rate=rate):
        return DistributionSpec(
            kind="exponential",
            params=(("rate", float(rate)),),
            mean=1.0 / rate,
            variance=1.0 / rate**2,
        )


def make_folded_normal(location: float, scale: float) -> DistributionSpec:
    """|N(location, scale^2)| with exact post-folding moments.

    mean = scale*sqrt(2/pi)*exp(-location^2/(2 scale^2))
           + location*(1 - 2*Phi(-location/scale))
    variance = location^2 + scale^2 - mean^2
    """
    if not math.isfinite(location):
        raise ValidationError(f"folded-normal location must be finite, got {location}")
    if not 0 < scale < math.inf:
        raise ValidationError(f"folded-normal scale must be finite and > 0, got {scale}")
    z = location / scale
    mean = scale * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + location * (
        1.0 - 2.0 * _norm_cdf(-z)
    )
    with _moments_in_range("folded_normal", location=location, scale=scale):
        variance = location**2 + scale**2 - mean**2
    return DistributionSpec(
        kind="folded_normal",
        params=(("location", float(location)), ("scale", float(scale))),
        mean=mean,
        variance=variance,
    )


def make_uniform_mean(mean: float) -> DistributionSpec:
    """Uniform on [0, 2*mean]; variance mean^2/3."""
    if not 0 < mean < math.inf:
        raise ValidationError(f"uniform mean must be finite and > 0, got {mean}")
    with _moments_in_range("uniform", mean=mean):
        variance = mean**2 / 3.0
    return DistributionSpec(
        kind="uniform",
        params=(("mean", float(mean)),),
        mean=float(mean),
        variance=variance,
    )


def make_pareto(shape: float, scale: float) -> DistributionSpec:
    """Pareto on [scale, inf): mean shape*scale/(shape-1), finite iff shape > 1.

    Variance is finite only for shape > 2; below that the spec is flagged
    heavy-tailed and reports its variance as unavailable.
    """
    if not 1 < shape < math.inf:
        raise ValidationError(f"pareto shape must be finite and > 1 (finite mean), got {shape}")
    if not 0 < scale < math.inf:
        raise ValidationError(f"pareto scale must be finite and > 0, got {scale}")
    mean = shape * scale / (shape - 1.0)
    if shape > 2:
        with _moments_in_range("pareto", shape=shape, scale=scale):
            variance = scale**2 * shape / ((shape - 1.0) ** 2 * (shape - 2.0))
    else:
        variance = None
    return DistributionSpec(
        kind="pareto",
        params=(("shape", float(shape)), ("scale", float(scale))),
        mean=mean,
        variance=variance,
    )


def spec_from_dict(doc: dict) -> DistributionSpec:
    """Build a spec from its config-file form, e.g. {"kind": "exponential", "rate": 1}.

    Every parameter must be a JSON number: ``true`` is not read as 1.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError(f"distribution spec must be a dict with a 'kind': {doc!r}")
    kind = doc["kind"]
    args = {k: json_float(v, f"{kind} {k}") for k, v in doc.items() if k != "kind"}
    try:
        if kind == "exponential":
            return make_exponential(**args)
        if kind == "folded_normal":
            return make_folded_normal(**args)
        if kind == "uniform":
            return make_uniform_mean(**args)
        if kind == "pareto":
            return make_pareto(**args)
    except TypeError as exc:
        raise ValidationError(f"bad parameters for {kind!r}: {args}") from exc
    raise ValidationError(f"unknown distribution kind {kind!r}; expected one of {KINDS}")


@dataclass(frozen=True)
class SampleStream:
    """A seeded, reproducible draw of positive values from one spec."""

    values: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.values)


def sample_stream(spec: DistributionSpec, count: int, seed: int,
                  out: np.ndarray | None = None) -> SampleStream:
    """Draw ``count`` i.i.d. values from ``spec``, deterministic in (spec, seed, count).

    ``out`` is an optional caller-owned float64 array of shape (count,),
    C-contiguous and writeable; the values are then written into it and the
    stream holds it as ``values``.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if out is None:
        out = np.empty(count)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (count,) and out.flags.c_contiguous and out.flags.writeable):
        got = (f"{out.dtype} {out.shape}, C-contiguous={out.flags.c_contiguous}, "
               f"writeable={out.flags.writeable}" if isinstance(out, np.ndarray)
               else type(out).__name__)
        raise ValidationError(
            f"out must be a writeable C-contiguous float64 array of shape ({count},), got {got}")
    rng = np.random.Generator(np.random.PCG64(seed))
    p = dict(spec.params)
    if spec.kind == "folded_normal":
        # ziggurat normals written straight into out, with no integer draws
        rng.standard_normal(out=out)
        np.multiply(p["scale"], out, out=out)
        np.add(p["location"], out, out=out)
        np.abs(out, out=out)
        # exact zero has measure zero but would break the positivity contract
        np.maximum(out, np.finfo(np.float64).tiny, out=out)
        return SampleStream(values=out)
    # uniforms strictly inside (0, 1) so every transform below stays positive;
    # scaling by 2**-53 is exact, so this equals a division by 2**53
    u = np.multiply(rng.integers(1, 2**53, size=count), _TWO_M53, out=out)
    if spec.kind == "exponential":
        # -log(u) / rate, with the sign moved onto the divisor (bitwise equal)
        np.log(u, out=u)
        np.divide(u, -p["rate"], out=u)
    elif spec.kind == "uniform":
        np.multiply(2.0 * p["mean"], u, out=u)
    elif spec.kind == "pareto":
        # in-place ``**=`` takes the same scalar-exponent path as ``u ** e``
        u **= -1.0 / p["shape"]
        np.multiply(p["scale"], u, out=u)
    else:  # pragma: no cover - specs are only built by the factories above
        raise ValidationError(f"unknown distribution kind {spec.kind!r}")
    return SampleStream(values=u)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
