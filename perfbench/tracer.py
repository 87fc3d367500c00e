"""Per-function tracing of paoiq from outside the package.

``install`` wraps the public functions named in ``TRACED`` and rebinds
every name under which a ``paoiq`` module holds them, so a call such as
``simulator.replicate -> sample_stream`` (looked up in the simulator
module's globals) or ``kernels.lindley_system_times`` (looked up as a
module attribute) passes through the wrapper.  Nothing under ``src/`` is
edited; the rebinding lives only in the traced process.

Each wrapper keeps, per function: calls, inclusive time, self time (its
span minus the spans of wrapped callees) and a work count.  Calls of one
traced function made directly inside another are counted per edge, which
gives, for instance, the bound evaluations made by one ``invert_gamma_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


def _n_arg(pos: int):
    """Work = the integer positional argument at ``pos`` (kernels, sampling)."""
    return lambda args, kwargs, result: int(args[pos])


def _len_arg(pos: int):
    return lambda args, kwargs, result: len(args[pos])


def _replicate_updates(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return result.replications * params.n


def _clamped(args, kwargs, result):
    # map_variability clamps a negative gamma_s to exactly 0.0
    return int(result[1] == 0.0)


def _rows_kept(args, kwargs, result):
    return len(result)


# (module, function, work counter or None).  The work count is what the
# per-layer "per unit of work" figures divide by.
TRACED = (
    ("stochastic", "sample_stream", _n_arg(1)),
    ("seeding", "derive_seed", None),
    ("kernels", "lindley_system_times", _len_arg(1)),
    ("kernels", "exact_single_max", _n_arg(5)),
    ("kernels", "exact_two_max", _n_arg(5)),
    ("simulator", "simulate_fcfs", None),
    ("simulator", "paoi_trace_single", None),
    ("simulator", "merge_arrivals", None),
    ("simulator", "simulate_two_source", None),
    ("simulator", "paoi_trace_two_source", None),
    ("simulator", "replicate", _replicate_updates),
    ("robust_bounds", "worst_case_exact_single", None),
    ("robust_bounds", "bound_robust1_single", None),
    ("robust_bounds", "bound_robust2_single", None),
    ("robust_bounds", "worst_case_exact_two", None),
    ("robust_bounds", "bound_robust3_two", None),
    ("robust_bounds", "kingman_bound", None),
    ("calibration", "map_variability", _clamped),
    ("calibration", "invert_gamma_s", None),
    ("calibration", "build_calibration_dataset", _rows_kept),
    ("calibration", "fit_theta", None),
    ("experiments", "run_sweep", None),
    ("cli", "main", None),
)


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    """Aggregated spans of the wrapped functions of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.edges: dict[tuple[str, str], int] = {}
        # one [name, child seconds] frame per open span
        self._stack: list[list] = []

    def wrap(self, name: str, fn, work):
        stats = self.stats.setdefault(name, FunctionStats())
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                key = (stack[-1][0], name)
                edges[key] = edges.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
            if work is not None:
                stats.work += work(args, kwargs, result)
            return result

        return traced

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def root_s(self) -> float:
        """Sum of self times, which equals the time spent inside traced spans."""
        return sum(s.self_s for s in self.stats.values())


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` and rebind all names that hold it."""
    for module_name in {m for m, _, _ in TRACED}:
        importlib.import_module(f"paoiq.{module_name}")
    loaded = [mod for key, mod in list(sys.modules.items())
              if key == "paoiq" or key.startswith("paoiq.")]
    for module_name, func_name, work in TRACED:
        original = getattr(sys.modules[f"paoiq.{module_name}"], func_name)
        wrapped = tracer.wrap(f"{module_name}.{func_name}", original, work)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
