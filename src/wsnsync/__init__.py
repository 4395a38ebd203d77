"""Clock synchronization for wireless sensor networks.

Drifting-oscillator clock models, flooding-style rate-and-offset
synchronization protocols (a Newton-step rate update plus two classic
rate-averaging baselines), closed-form convergence analysis with a Monte
Carlo oracle, trace quality metrics, and a deterministic event-driven
network simulator.
"""
from __future__ import annotations

from .analysis import (
    MeanStateModel,
    MomentParams,
    NonconvergentMomentError,
    OracleTrace,
    asymptotic_error_variance,
    eigenvalues,
    is_mean_convergent,
    final_step_sigma,
    mean_agreement_max_sigma,
    mean_fixed_point,
    mean_step,
    mean_trace,
    pairwise_oracle,
    second_moment_coefficients,
    second_moment_fixed_point,
    second_moment_step,
    steady_state_stats,
    variant_moment_predictions,
)
from .clocks import (
    ClockRegressionError,
    HardwareClock,
    LogicalClock,
    OscillatorParams,
)
from .metrics import (
    TraceSummary,
    convergence_time,
    max_global_error,
    max_local_error,
    summarize,
)
from .protocols import (
    Protocol,
    ProtocolParams,
    avgpisync_rate_update,
    default_step_size,
    effective_gain,
    grades_rate_update,
    newton_rate_update,
    rate_update,
    step_size_bound,
)
from .simulation import (
    DelayModel,
    RoundRecord,
    SimulationTrace,
    Topology,
    build_line_topology,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "ClockRegressionError",
    "DelayModel",
    "HardwareClock",
    "LogicalClock",
    "MeanStateModel",
    "MomentParams",
    "NonconvergentMomentError",
    "OracleTrace",
    "OscillatorParams",
    "Protocol",
    "ProtocolParams",
    "RoundRecord",
    "SimulationTrace",
    "Topology",
    "TraceSummary",
    "asymptotic_error_variance",
    "avgpisync_rate_update",
    "build_line_topology",
    "convergence_time",
    "default_step_size",
    "effective_gain",
    "eigenvalues",
    "grades_rate_update",
    "is_mean_convergent",
    "max_global_error",
    "max_local_error",
    "final_step_sigma",
    "mean_agreement_max_sigma",
    "mean_fixed_point",
    "mean_step",
    "mean_trace",
    "newton_rate_update",
    "pairwise_oracle",
    "rate_update",
    "run_simulation",
    "second_moment_coefficients",
    "second_moment_fixed_point",
    "second_moment_step",
    "steady_state_stats",
    "summarize",
    "variant_moment_predictions",
    "__version__",
]
