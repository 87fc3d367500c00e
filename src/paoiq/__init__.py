"""Robust-queueing worst-case bounds on peak age-of-information.

Simulates FCFS single- and two-source information-update queues, evaluates
exact and closed-form worst-case system-time bounds over partial-sum
uncertainty sets, calibrates the variability parameters from distribution
moments, and runs load sweeps comparing bounds against simulation.
"""

from .calibration import (
    CalibrationCoefficients,
    CalibrationDataset,
    CalibrationRow,
    build_calibration_dataset,
    builtin_theta,
    fit_theta,
    invert_gamma_s,
    map_variability,
)
from .errors import (
    CalibrationRangeError,
    NoSolutionError,
    NumericError,
    PaoiqError,
    SingularDesignError,
    StabilityError,
    ValidationError,
)
from .experiments import (
    SweepConfig,
    SweepReport,
    error_percent,
    family_spec,
    report_csv,
    run_sweep,
)
from .kernels import BACKEND
from .robust_bounds import (
    BoundResult,
    UncertaintyParams,
    bound_robust1_single,
    bound_robust2_single,
    bound_robust3_two,
    kingman_bound,
    paoi_from_system_bound,
    system_bound,
    worst_case_exact_single,
    worst_case_exact_two,
)
from .simulator import (
    PAoITrace,
    QueueResult,
    ReplicationSummary,
    SystemParams,
    paoi_trace_single,
    paoi_trace_two_source,
    replicate,
    simulate_fcfs,
    simulate_two_source,
)
from .stochastic import (
    DistributionSpec,
    SampleStream,
    make_exponential,
    make_folded_normal,
    make_pareto,
    make_uniform_mean,
    sample_stream,
)

__version__ = "0.1.0"
