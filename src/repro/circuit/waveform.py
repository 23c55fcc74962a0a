"""Source waveforms: DC, ideal/ramped step, SPICE-style pulse, and PWL.

A waveform maps time (seconds) to a value (volts or amps). Sources hold a
waveform; the MNA right-hand side samples it at each timepoint.

Each waveform samples a whole time grid at once with ``values(times)``,
which is bitwise equal to ``[value(t) for t in times]``: the array form
performs the same floating-point operations in the same order, so a
transient driven from either gives identical states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class Waveform(Protocol):
    """Anything with ``value(t)``, ``values(times)`` and ``final_value()``."""

    def value(self, t: float) -> float:
        """Waveform value at time ``t`` (t < 0 is clamped to t = 0)."""
        ...

    def values(self, times: np.ndarray) -> np.ndarray:
        """``value`` at every entry of ``times``, as a float array."""
        ...

    def final_value(self) -> float:
        """The t → ∞ asymptote, used for DC/steady-state reasoning."""
        ...


@dataclass(frozen=True)
class DC:
    """A constant source."""

    level: float = 0.0

    def value(self, t: float) -> float:
        return self.level

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.level, dtype=float)

    def final_value(self) -> float:
        return self.level


@dataclass(frozen=True)
class Step:
    """A step from ``v0`` to ``v1`` at ``delay``, with optional linear rise.

    ``rise = 0`` gives the ideal step the paper's decks use. A nonzero rise
    makes the transition a linear ramp of that duration, which is what a
    SPICE PULSE source with a finite rise time does.

    The step is *right-continuous*: ``value(delay) == v1``. With the
    default ``delay = 0`` this makes a transient from ``x(0) = 0`` the
    textbook zero-state step response, and keeps the trapezoidal
    integrator at its full 2nd-order accuracy (a left-continuous step
    would smear the discontinuity across the first timestep).
    """

    v0: float = 0.0
    v1: float = 1.0
    delay: float = 0.0
    rise: float = 0.0

    def __post_init__(self) -> None:
        if self.rise < 0 or self.delay < 0:
            raise ValueError("step delay and rise must be non-negative")

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.v0
        if self.rise > 0 and t < self.delay + self.rise:
            frac = (t - self.delay) / self.rise
            return self.v0 + frac * (self.v1 - self.v0)
        return self.v1

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = np.where(t < self.delay, float(self.v0), float(self.v1))
        if self.rise > 0:
            ramp = (t >= self.delay) & (t < self.delay + self.rise)
            frac = (t[ramp] - self.delay) / self.rise
            out[ramp] = self.v0 + frac * (self.v1 - self.v0)
        return out

    def final_value(self) -> float:
        return self.v1


@dataclass(frozen=True)
class Pulse:
    """A SPICE-style periodic pulse: PULSE(v0 v1 td tr tf pw per)."""

    v0: float
    v1: float
    delay: float
    rise: float
    fall: float
    width: float
    period: float

    def __post_init__(self) -> None:
        if min(self.rise, self.fall, self.width, self.period) < 0:
            raise ValueError("pulse timing parameters must be non-negative")
        if self.period > 0 and self.period < self.rise + self.fall + self.width:
            raise ValueError("pulse period shorter than one full pulse")

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.v0
        local = t - self.delay
        if self.period > 0:
            local = local % self.period
            # Floating-point modulo can land a cycle boundary at
            # period−ulp instead of 0, shifting the edge by one sample
            # in some cycles but not others; snap it.
            if self.period - local < 1e-9 * self.period:
                local = 0.0
        if local < self.rise:
            return self.v0 + (self.v1 - self.v0) * (local / self.rise if self.rise else 1.0)
        local -= self.rise
        if local < self.width:
            return self.v1
        local -= self.width
        if local < self.fall:
            return self.v1 + (self.v0 - self.v1) * (local / self.fall if self.fall else 1.0)
        return self.v0

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = np.full(t.shape, float(self.v0))
        active = t >= self.delay
        local = t[active] - self.delay
        if self.period > 0:
            local = local % self.period
            local[self.period - local < 1e-9 * self.period] = 0.0
        level = np.full(local.shape, float(self.v0))
        rising = local < self.rise
        if self.rise:
            level[rising] = (self.v0 + (self.v1 - self.v0)
                             * (local[rising] / self.rise))
        local = local - self.rise
        high = ~rising & (local < self.width)
        level[high] = self.v1
        local = local - self.width
        falling = ~rising & ~high & (local < self.fall)
        if self.fall:
            level[falling] = (self.v1 + (self.v0 - self.v1)
                              * (local[falling] / self.fall))
        out[active] = level
        return out

    def final_value(self) -> float:
        # A periodic pulse has no DC asymptote; SPICE treats its DC value
        # as v0, and so do we (used only for operating-point seeding).
        return self.v0


class PWL:
    """A piece-wise-linear waveform through ``(time, value)`` breakpoints."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 1:
            raise ValueError("PWL needs at least one breakpoint")
        times = [t for t, _ in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL breakpoints must be strictly increasing in time")
        self._times = np.array(times, dtype=float)
        self._values = np.array([v for _, v in points], dtype=float)

    def value(self, t: float) -> float:
        return float(np.interp(t, self._times, self._values))

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(times, dtype=float), self._times,
                         self._values)

    def final_value(self) -> float:
        return float(self._values[-1])

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(float(t), float(v))
                for t, v in zip(self._times, self._values)]

    def __repr__(self) -> str:
        return f"PWL({self.points})"
