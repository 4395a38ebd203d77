"""Hardware and logical clock models.

A hardware clock counts oscillator ticks. The oscillator runs at a nominal
frequency plus a drift term that is piecewise constant in time: the drift is
redrawn uniformly from [-max_drift_hz, +max_drift_hz] at fixed resample
boundaries anchored at the clock's start time. Tick counts are exact floats
by default; an optional quantization flag floors readings to whole ticks.

A logical clock maps tick readings to seconds through an affine
(value, rate, anchor) state. Synchronization protocols adjust the value and
rate; the hardware clock is never adjusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ranges import require


class ClockRegressionError(ValueError):
    """Raised when a clock is asked to move backwards in time or ticks."""


@dataclass(frozen=True)
class OscillatorParams:
    """Physical oscillator description.

    nominal_hz: ideal tick rate f, in ticks per second.
    max_drift_hz: drift bound; instantaneous rate stays within
        [nominal - max_drift, nominal + max_drift].
    resample_interval_s: length of each constant-drift segment.
    quantize_ticks: floor readings to whole ticks when True.

    Drift and segment length have no default: results depend on both, so
    every caller states them (the CLI's are 25 Hz redrawn every 3600 s).
    """

    nominal_hz: float
    max_drift_hz: float
    resample_interval_s: float
    quantize_ticks: bool = False

    def __post_init__(self) -> None:
        require("positive", nominal_hz=self.nominal_hz,
                resample_interval_s=self.resample_interval_s)
        if not 0 <= self.max_drift_hz < self.nominal_hz:
            raise ValueError(
                f"max_drift_hz must satisfy 0 <= max_drift < nominal, got {self.max_drift_hz}")


class HardwareClock:
    """Free-running tick counter with piecewise-constant drift.

    The drift value for each segment is drawn lazily from ``rng`` as segment
    boundaries are crossed, so the drifts do not depend on how an advance is
    split into calls. The tick count does, in its last bits: each call adds
    its own rounded product of rate and elapsed time. The trajectory is a
    pure function of (params, rng seed, start_time, initial_ticks) and the
    times advanced to; splitting an advance agrees only in exact arithmetic.
    """

    def __init__(
        self,
        params: OscillatorParams,
        rng: np.random.Generator,
        *,
        start_time: float = 0.0,
        initial_ticks: float = 0.0,
    ) -> None:
        if not math.isfinite(start_time):
            raise ValueError(f"start_time must be finite, got {start_time}")
        require("nonnegative", initial_ticks=initial_ticks)
        self.params = params
        # Read on every advance and read_ticks; params is frozen, so cache
        # the fields here.
        self._nominal_hz = params.nominal_hz
        self._quantize = params.quantize_ticks
        self._rng = rng
        self._ticks = float(initial_ticks)
        self._now = float(start_time)
        self._drift_hz = self._draw_drift()
        self._next_resample = self._now + params.resample_interval_s

    def _draw_drift(self) -> float:
        m = self.params.max_drift_hz
        return float(self._rng.uniform(-m, m))

    def read_ticks(self) -> float:
        if self._quantize:
            return float(math.floor(self._ticks))
        return self._ticks

    def advance(self, to_time: float) -> float:
        """Run the oscillator forward to ``to_time`` and return read_ticks() there."""
        now = self._now
        if not to_time >= now:  # NaN too
            raise ClockRegressionError(
                f"advance to {to_time} before current time {now}"
            )
        ticks = self._ticks
        rate = self._nominal_hz
        # One rounded product per constant-drift segment crossed and one
        # for the rest, so the ticks depend on the times advanced to.
        while self._next_resample <= to_time:
            # Past this the boundary stops growing under `+=` (at inf too),
            # so the loop would never end.
            if math.ulp(to_time) >= 2.0 * self.params.resample_interval_s:
                raise ValueError(
                    f"advance to {to_time}: drift segments of "
                    f"{self.params.resample_interval_s} s cannot be counted that far"
                )
            ticks += (rate + self._drift_hz) * (self._next_resample - now)
            now = self._next_resample
            self._drift_hz = self._draw_drift()
            self._next_resample += self.params.resample_interval_s
        ticks += (rate + self._drift_hz) * (to_time - now)
        self._ticks = ticks
        self._now = to_time
        return self.read_ticks()


@dataclass
class LogicalClock:
    """Affine mapping from hardware ticks to protocol time.

    value: logical seconds at the anchor point.
    rate: seconds advanced per hardware tick. Nominal is 1/nominal_hz.
    anchor_ticks: hardware reading where (value, rate) were last set.
    """

    value: float
    rate: float
    anchor_ticks: float = 0.0

    def read(self, at_ticks: float) -> float:
        if not at_ticks >= self.anchor_ticks:  # NaN too
            raise ClockRegressionError(
                f"read at {at_ticks} before anchor {self.anchor_ticks}"
            )
        return self.value + self.rate * (at_ticks - self.anchor_ticks)

    def apply_correction(
        self,
        at_ticks: float,
        offset_s: float = 0.0,
        new_rate: float | None = None,
    ) -> None:
        """Re-anchor at ``at_ticks``, shifting value by ``offset_s``.

        The read up to ``at_ticks`` uses the old rate (the clock physically
        ran at it until this instant); ``new_rate`` takes effect afterwards.
        Passing new_rate=None keeps the current rate. A non-finite offset or
        rate raises ValueError and leaves the clock unchanged.
        """
        value = self.read(at_ticks) + offset_s
        if not (math.isfinite(offset_s) and (new_rate is None or math.isfinite(new_rate))):
            raise ValueError(
                f"correction must be finite, got offset_s={offset_s}, new_rate={new_rate}"
            )
        self.value = value
        if new_rate is not None:
            self.rate = new_rate
        self.anchor_ticks = at_ticks
