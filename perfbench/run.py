#!/usr/bin/env python3
"""The paoiq benchmark: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep-single --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every iteration is a fresh, single-threaded ``worker.py`` process that
imports the package, parses and validates its config (``setup_s``), runs
the workload through the public entry points (``wall_s``) and checks the
outputs.  Iterations repeat, closed loop, for about ``--seconds``; at
least three run, so that a median exists and two runs of one seed can be
compared byte for byte.

``wall_rel`` is ``wall_s`` divided by the time of a fixed NumPy and
interpreter loop (``reference_s``), timed in this process before the first
iteration and after each one; an iteration is divided by the mean of the
two timings around it.  The speed of a shared 2-CPU machine drifts by up
to +-20 % within minutes, which moves ``wall_s`` and ``reference_s``
alike: over ten 30-second runs per workload the quartile spread of
``wall_s`` was 0.13-0.19 of its median, that of ``wall_rel`` 0.05-0.07.
``wall_rel`` is therefore the gated time; ``wall_s`` is reported beside it.

Workloads (inputs depend only on ``--seed``):

* ``sweep-single``: ``paoiq sweep`` on the default single-source sweep,
  16 rates in 0.15..0.90 x 50 reps x n = 1e5, exponential/exponential,
  builtin theta, kingman/robust1/robust2; master seed = ``--seed`` (default
  0).  The paper's headline table.  Its time goes to sampling, the Lindley
  recursion and the single-source peak trace; the bounds take ~0 %, so it
  shows hot-path and kernel gains.
* ``sweep-two``: the default two-source sweep, 8 rates x 50 reps x
  n = 1e5, robust3.  The same simulator layer used differently: the merge
  and the per-source mask gathers dominate and Lindley drops, so a gain
  for the single-source path alone should not show here, and vice versa.
* ``calibrate``: ``paoiq calibrate`` on the default grids, ``single`` then
  ``two``, each 81 points x 10 reps x n = 2e4 over all 9 family pairings,
  master seed = ``--seed`` (default 0).  Short paths, so per-call overhead
  weighs more; the only workload that samples folded-normal and uniform
  streams and runs ``invert_gamma_s`` and ``fit_theta``.
* ``bounds-oracle``: acceptance criteria 1-3, 2 x 1e4 random tuples with
  seeds 20240101 + ``--seed`` (exact vs robust2, robust1 >= exact) and
  20240202 + ``--seed`` (exact vs robust3).  The only workload where the
  closed forms and the enumeration kernels do the work; no simulation.

Output: a ``{"report": ...}`` line with the environment, every iteration,
``wall_s``, ``failed_frac`` and the accuracy numbers (``err_pct.*``), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``.  A traced run alternates untraced and traced
iterations, so ``trace.overhead_frac`` compares like with like, and ends
with the kernel-only rows.  Exits non-zero, printing no result, when the
checkout has no ``src/paoiq``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-single", "sweep-two", "calibrate", "bounds-oracle")
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str]) -> tuple[float, dict]:
    """Run one worker process; returns (its spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {ITERATION_TIMEOUT_S}s: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(lines[-1])


def reference_s(rounds: int = 240) -> float:
    """Time of a fixed NumPy and interpreter loop that runs no paoiq code.

    Timed in this process right before and right after every worker, it
    tracks how fast the machine runs at that moment; ``wall_rel`` divides
    the workload's time by it.
    """
    rng = np.random.Generator(np.random.PCG64(12345))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(rounds):
        u = rng.integers(1, 2**53, size=100_000).astype(np.float64) / 2.0**53
        x = -np.log(u)
        c = np.cumsum(x)
        acc += float(np.maximum.accumulate(c - x)[-1])
        acc += float(x[np.argsort(c, kind="stable")][0])
        for i in range(3000):
            acc += math.sqrt(i)
    if not math.isfinite(acc):
        raise BenchmarkError("the reference loop produced a non-finite sum")
    return time.perf_counter() - t0


def environment() -> dict:
    try:
        with open("/proc/loadavg") as fh:
            loadavg = [float(v) for v in fh.read().split()[:3]]
    except OSError:
        loadavg = None
    try:
        sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"nproc": len(os.sched_getaffinity(0)), "git_sha": sha or "unknown",
            "loadavg_at_start": loadavg}


def measure(workload: str, seed: int, seconds: float, size: str, trace: bool,
            workdir: Path) -> list[dict]:
    """Closed loop of worker iterations for about ``seconds``.

    Untraced runs make every iteration untraced; traced runs alternate
    untraced and traced iterations.  The reference loop runs before the
    first iteration and after each one, so every iteration sits between two
    reference timings.
    """
    iterations = []
    start = time.monotonic()
    minimum = 2 if trace else MIN_ITERATIONS  # traced: one untraced, one traced
    ref_before = reference_s()
    while True:
        traced = trace and len(iterations) % 2 == 1
        spawned, result = run_worker([
            "--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(traced)), "--workdir", str(workdir)])
        ref_after = reference_s()
        result["ref_s"] = 0.5 * (ref_before + ref_after)
        result["wall_rel"] = result["wall_s"] / result["ref_s"]
        result["setup_s"] = result.pop("setup_done") - spawned
        if not 0.0 < result["setup_s"] < ITERATION_TIMEOUT_S:
            raise BenchmarkError(f"implausible set-up time {result['setup_s']!r}")
        iterations.append(result)
        ref_before = ref_after
        elapsed = time.monotonic() - start
        if len(iterations) >= minimum and elapsed * (1 + 1 / len(iterations)) > seconds:
            return iterations


def summarize(workload: str, seed: int, size: str, trace: bool,
              iterations: list[dict], kernel: dict | None, env: dict) -> tuple[dict, dict]:
    """(report, last-line result) of one run."""
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [p for it in iterations for p in it["problems"]]
    shas = {it["csv_sha256"] for it in iterations if "csv_sha256" in it}
    if len(shas) > 1:
        problems.append(f"one seed gave {len(shas)} different report CSVs")
        failed = attempted
    for key in ("theta", "err_pct"):
        values = {json.dumps(it[key], sort_keys=True) for it in iterations if key in it}
        if len(values) > 1:
            problems.append(f"one seed gave {len(values)} different {key} results")
            failed = attempted

    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    e2e = {
        "setup_s": (statistics.median(it["setup_s"] for it in plain), "s"),
        "wall_s": (statistics.median(it["wall_s"] for it in plain), "s"),
        "wall_rel": (statistics.median(it["wall_rel"] for it in plain), "ratio"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in plain), "MB"),
        "failed_frac": (failed / attempted, "frac"),
    }
    first = iterations[0]
    for method, value in first.get("err_pct", {}).items():
        e2e[f"err_pct.{method}"] = (value, "%")

    if trace:
        names = traced[0]["layers"].keys()
        layers = {name: (statistics.median(it["layers"][name][0] for it in traced),
                         traced[0]["layers"][name][1]) for name in names}
        layers["trace.overhead_frac"] = (
            statistics.median(it["wall_rel"] for it in traced) / e2e["wall_rel"][0] - 1.0,
            "frac")
        layers.update(kernel)
        chosen = layers
    else:
        chosen = {k: e2e[k] for k in ("setup_s", "wall_rel", "peak_rss_mb")}

    report = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "environment": {**first["environment"], **env},
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "csv_sha256": sorted(shas),
        "theta": first.get("theta"), "rows_kept": first.get("rows_kept"),
        "iterations": [{k: it[k] for k in ("traced", "setup_s", "wall_s", "wall_rel", "ref_s",
                                           "cpu_s", "peak_rss_mb")} for it in iterations],
    }
    if trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    result = {"correct": report["correct"], "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced sizes for the benchmark's own test")
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, so subprocess.run kills and
    # reaps the worker it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "paoiq" / "__init__.py").is_file():
        print(f"error: no paoiq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # writes the package's bytecode and warms the file cache, so the
        # first measured set-up pays no one-off cost
        subprocess.run([sys.executable, "-c", "import paoiq.cli"], env=worker_env(),
                       cwd=ROOT, check=True, timeout=ITERATION_TIMEOUT_S)
        iterations = measure(args.workload, args.seed, args.seconds, args.size,
                             bool(args.trace), workdir)
        kernel = None
        if args.trace:
            _, rows = run_worker(["--workload", "kernel-rows", "--seed", str(args.seed),
                                  "--workdir", str(workdir)])
            kernel = {k: tuple(v) for k, v in rows["metrics"].items()}
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    report, result = summarize(args.workload, args.seed, args.size, bool(args.trace),
                               iterations, kernel, env)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
