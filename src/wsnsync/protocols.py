"""Clock-rate update rules and their convergence bounds.

All three protocols share the same round structure (collect neighbor clock
values, average the offsets, correct value and rate) and differ only in how
the averaged error e moves the logical rate:

    newton:     rate' = rate - mu * e / (B * f)        dimensionless mu
    grades:     rate' = rate - mu * e * B * f          gradient step, constant
                                                       factors absorbed in mu
    avgpisync:  rate' = rate - mu * e                  proportional step

with B the beacon period in seconds and f the nominal frequency in Hz. The
newton form divides the gradient by its known curvature (B*f)^2 up to the
measured error, so its stable range 0 < mu < 2 is hardware independent and
mu = 1 removes the measured rate error in a single round.

Published sufficient bounds on mu (step_size_bound) keep the per-round error
contraction factor |1 - gain| below 1, where gain = effective_gain(). For
grades the published bound equals half the actual stability edge under the
absorbed-constant form used here.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Protocol(enum.Enum):
    NEWTON = "newton"
    GRADES = "grades"
    AVGPISYNC = "avgpisync"

    @classmethod
    def parse(cls, name: str) -> "Protocol":
        key = name.strip().lower()
        if key == "pisync":
            key = "avgpisync"
        try:
            return cls(key)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown protocol {name!r}; expected one of {valid}")


@dataclass(frozen=True)
class ProtocolParams:
    """Per-node protocol configuration.

    step_size: mu in the update rules above.
    beacon_period_s: B, seconds between a node's sync rounds.
    nominal_hz: f, nominal oscillator frequency.
    max_error_s: guard threshold; rate updates are skipped when the averaged
        offset magnitude is not below it (offset corrections always apply).
    gather_wait_s: delay between broadcasting requests and averaging the
        replies. Zero is allowed for idealized runs with zero network delay.
    """

    kind: Protocol
    step_size: float
    beacon_period_s: float = 30.0
    nominal_hz: float = 1e6
    max_error_s: float = 6e-3
    gather_wait_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beacon_period_s", "nominal_hz", "max_error_s", "step_size"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.beacon_period_s * self.nominal_hz < math.inf:
            raise ValueError("beacon_period_s * nominal_hz (ticks per round) must be finite")
        if not 0 <= self.gather_wait_s < self.beacon_period_s:
            raise ValueError("gather_wait_s must satisfy 0 <= wait < beacon period")

    def within_bound(self) -> bool:
        low, high = step_size_bound(self.kind, self.beacon_period_s, self.nominal_hz)
        return low < self.step_size < high


def nominal_interval_ticks(beacon_period_s: float, nominal_hz: float) -> float:
    """Expected hardware ticks per beacon period, B*f."""
    return beacon_period_s * nominal_hz


def newton_rate_update(rate: float, error_s: float, p: ProtocolParams) -> float:
    """rate - mu * e / (B*f); the measured error scaled by the inverse of the
    error-vs-rate slope, so mu=1 cancels the measured rate error outright."""
    return rate - p.step_size * error_s / nominal_interval_ticks(
        p.beacon_period_s, p.nominal_hz
    )


def grades_rate_update(rate: float, error_s: float, p: ProtocolParams) -> float:
    """rate - mu * e * B*f, a raw gradient step on the squared error."""
    return rate - p.step_size * error_s * nominal_interval_ticks(
        p.beacon_period_s, p.nominal_hz
    )


def avgpisync_rate_update(rate: float, error_s: float, p: ProtocolParams) -> float:
    """rate - mu * e, a plain proportional step."""
    return rate - p.step_size * error_s


_UPDATES = {
    Protocol.NEWTON: newton_rate_update,
    Protocol.GRADES: grades_rate_update,
    Protocol.AVGPISYNC: avgpisync_rate_update,
}


def rate_update(rate: float, error_s: float, p: ProtocolParams) -> float:
    """Dispatch to the rule selected by p.kind.

    error_s is the node's own clock error (own minus reference); positive
    error means the node runs fast and the rate is reduced.
    """
    return _UPDATES[p.kind](rate, error_s, p)


def step_size_bound(
    kind: Protocol, beacon_period_s: float, nominal_hz: float
) -> tuple[float, float]:
    """Published open interval (0, upper) of step sizes with guaranteed
    mean convergence."""
    bf = nominal_interval_ticks(beacon_period_s, nominal_hz)
    if kind is Protocol.NEWTON:
        return (0.0, 2.0)
    if kind is Protocol.GRADES:
        return (0.0, 1.0 / (bf * bf))
    return (0.0, 2.0 / bf)


def effective_gain(
    kind: Protocol, step_size: float, beacon_period_s: float, nominal_hz: float
) -> float:
    """Per-round gain on the rate error; the noiseless pairwise mean error
    contracts by (1 - gain) each round, so stability requires 0 < gain < 2."""
    bf = nominal_interval_ticks(beacon_period_s, nominal_hz)
    if kind is Protocol.NEWTON:
        return step_size
    if kind is Protocol.GRADES:
        return step_size * bf * bf
    return step_size * bf


def default_step_size(
    kind: Protocol, beacon_period_s: float, nominal_hz: float
) -> float:
    """Default mu per protocol for comparison experiments.

    newton runs at its design point mu=1 (single-round rate correction). The
    reconstructed baselines run at conservative fixed gains (0.15 and 0.2
    per round), standing in for the cautious adaptive steppers the original
    protocols use; both sit inside their published bounds.
    """
    bf = nominal_interval_ticks(beacon_period_s, nominal_hz)
    if kind is Protocol.NEWTON:
        return 1.0
    if kind is Protocol.GRADES:
        return 0.15 / (bf * bf)
    return 0.2 / bf


def default_max_error_s(
    beacon_period_s: float, nominal_hz: float, max_drift_hz: float
) -> float:
    """Guard threshold 2*B*max_drift/f: twice the largest error a bounded
    drift can accumulate between two successive sync rounds."""
    return 2.0 * beacon_period_s * max_drift_hz / nominal_hz
