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

Each rule's published sufficient bound and its default are per-round gains
(_BOUND_GAIN, _DEFAULT_GAIN), gain = effective_gain(): the bound keeps the
error contraction factor |1 - gain| below 1. For grades it equals half the
actual stability edge under the absorbed-constant form used here.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .ranges import require

# The worst-case oscillator drift bound, in Hz, that the default guard
# threshold and the pairwise analysis (analysis.MomentParams and
# validate-analysis) are stated for. Deployed crystals drift less, so `run`
# defaults to a lower bound.
WORST_CASE_DRIFT_HZ = 100.0


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

    step_size: mu in the update rules above; unset (None), the kind's
        default_step_size at this B and f, refused unless finite and
        positive.
    beacon_period_s: B, seconds between a node's sync rounds.
    nominal_hz: f, nominal oscillator frequency.
    max_error_s: guard threshold; rate updates are skipped when the averaged
        offset magnitude is not below it (offset corrections always apply).
        The default is twice the error a bounded drift can build up between
        two rounds, 2*B*f_max/f at f_max = WORST_CASE_DRIFT_HZ: 6 ms.
    gather_wait_s: delay between broadcasting requests and averaging the
        replies. Zero is allowed for idealized runs with zero network delay.
    """

    kind: Protocol
    step_size: float | None = None
    beacon_period_s: float = 30.0
    nominal_hz: float = 1e6
    max_error_s: float = 2.0 * beacon_period_s * WORST_CASE_DRIFT_HZ / nominal_hz
    gather_wait_s: float = 1.0

    def __post_init__(self) -> None:
        ticks_per_round(self.beacon_period_s, self.nominal_hz)
        if self.step_size is None:
            b, f = self.beacon_period_s, self.nominal_hz
            step = default_step_size(self.kind, b, f)
            # refused under B and f, which chose it, not under step_size
            require("positive", **{f"{self.kind.value}'s default step size at beacon_period_s "
                                   f"= {b:g} and nominal_hz = {f:g}": step})
            object.__setattr__(self, "step_size", step)  # frozen
        require("positive", max_error_s=self.max_error_s, step_size=self.step_size)
        if not 0 <= self.gather_wait_s < self.beacon_period_s:
            raise ValueError("gather_wait_s must satisfy 0 <= wait < beacon period, "
                             f"got {self.gather_wait_s}")


def ticks_per_round(beacon_period_s: float, nominal_hz: float) -> float:
    """B * f, the nominal ticks of one round. ValueError unless B, f and
    their product are finite and positive."""
    bf = beacon_period_s * nominal_hz
    require("positive", beacon_period_s=beacon_period_s, nominal_hz=nominal_hz,
            **{"beacon_period_s * nominal_hz (ticks per round)": bf})
    return bf


def rate_update(rate: float, error_s: float, p: ProtocolParams) -> float:
    """The rule selected by p.kind, as given in the module docstring.

    error_s is the node's own clock error (own minus reference); positive
    error means the node runs fast and the rate is reduced.
    """
    if p.kind is Protocol.NEWTON:
        return rate - p.step_size * error_s / (p.beacon_period_s * p.nominal_hz)
    if p.kind is Protocol.GRADES:
        return rate - p.step_size * error_s * (p.beacon_period_s * p.nominal_hz)
    return rate - p.step_size * error_s


_BOUND_GAIN = {Protocol.NEWTON: 2.0, Protocol.GRADES: 1.0, Protocol.AVGPISYNC: 2.0}
_DEFAULT_GAIN = {Protocol.NEWTON: 1.0, Protocol.GRADES: 0.15, Protocol.AVGPISYNC: 0.2}


def effective_gain(
    kind: Protocol, step_size: float, beacon_period_s: float, nominal_hz: float
) -> float:
    """Per-round gain on the rate error; the noiseless pairwise mean error
    contracts by (1 - gain) each round, so stability requires 0 < gain < 2.
    ValueError for a B or f that ticks_per_round refuses."""
    bf = ticks_per_round(beacon_period_s, nominal_hz)
    if kind is Protocol.NEWTON:
        return step_size
    if kind is Protocol.GRADES:
        return step_size * bf * bf
    return step_size * bf


def step_size_bound(
    kind: Protocol, beacon_period_s: float, nominal_hz: float
) -> tuple[float, float]:
    """Published open interval (0, upper) of step sizes with guaranteed
    mean convergence; upper is inf where the gain of step size 1
    underflows to 0 (grades, (B*f)^2 below the smallest float)."""
    unit = effective_gain(kind, 1.0, beacon_period_s, nominal_hz)
    return (0.0, _BOUND_GAIN[kind] / unit if unit else math.inf)


def default_step_size(
    kind: Protocol, beacon_period_s: float, nominal_hz: float
) -> float:
    """Default mu per protocol for comparison experiments.

    newton runs at its design point mu=1 (single-round rate correction). The
    reconstructed baselines run at conservative fixed gains (0.15 and 0.2
    per round), standing in for the cautious adaptive steppers the original
    protocols use; both sit inside their published bounds. Like the
    bound, inf where the gain of step size 1 underflows to 0.
    """
    unit = effective_gain(kind, 1.0, beacon_period_s, nominal_hz)
    return _DEFAULT_GAIN[kind] / unit if unit else math.inf
