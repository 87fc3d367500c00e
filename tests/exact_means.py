"""Exact mean system times of the FCFS queues the tests judge against.

Two classical results cover the laws of the sweep families (exponential,
uniform, folded normal); see Kleinrock, *Queueing Systems* Vol. 1, 1975:

- GI/M/1: renewal arrivals into one server with exponential services of
  rate mu give an exponential system time of rate mu(1 - sigma), with
  sigma the root in (0, 1) of sigma = A*(mu(1 - sigma)) and A* the
  interarrival Laplace transform.  For Poisson arrivals sigma is the load.
- M/G/1 (Pollaczek-Khinchine): Poisson arrivals of total rate L into one
  server give a mean system time E[X] + L E[X^2] / (2(1 - rho)), with X the
  service time and rho = L E[X].  Two merged Poisson sources are one
  Poisson stream, so it covers two sources too.

A source's mean peak age is its mean interarrival time E[T] plus the mean
system time.
"""

import math


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


def mean_system_time(interarrival, service, sources):
    """The exact mean system time of ``sources`` symmetric renewal sources,
    each with the ``interarrival`` law, sharing one FCFS server with the
    ``service`` law; None where neither result applies, as two merged
    renewal streams that are not Poisson are not a renewal stream."""
    if sources == 1 and service.kind == "exponential":
        mu = 1.0 / service.mean
        return 1.0 / (mu * (1.0 - gim1_sigma(interarrival, mu)))
    if interarrival.kind == "exponential":
        total = sources / interarrival.mean
        second_moment = service.variance + service.mean**2
        return service.mean + total * second_moment / (2.0 * (1.0 - total * service.mean))
    return None
