"""Circuit elements: the linear device library.

Every element is an immutable record naming its terminals (node labels) and
value. Terminal order matters for sources: positive source current flows
from ``pos`` through the source to ``neg``, the SPICE convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.circuit.waveform import DC, Waveform

Node = str


@dataclass(frozen=True)
class Resistor:
    """A linear resistor of ``value`` ohms between ``n1`` and ``n2``."""

    name: str
    n1: Node
    n2: Node
    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"resistor {self.name}: non-positive resistance")

    @property
    def conductance(self) -> float:
        return 1.0 / self.value


@dataclass(frozen=True)
class Capacitor:
    """A linear capacitor of ``value`` farads; ``ic`` is the initial voltage."""

    name: str
    n1: Node
    n2: Node
    value: float
    ic: float = 0.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"capacitor {self.name}: non-positive capacitance")


@dataclass(frozen=True)
class Inductor:
    """A linear inductor of ``value`` henries; ``ic`` is the initial current."""

    name: str
    n1: Node
    n2: Node
    value: float
    ic: float = 0.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"inductor {self.name}: non-positive inductance")


@dataclass(frozen=True)
class VoltageSource:
    """An independent voltage source; ``pos`` is the + terminal."""

    name: str
    pos: Node
    neg: Node
    waveform: Union[Waveform, float] = field(default=0.0)

    def __post_init__(self) -> None:
        if isinstance(self.waveform, (int, float)):
            object.__setattr__(self, "waveform", DC(float(self.waveform)))

    def value(self, t: float) -> float:
        return self.waveform.value(t)  # type: ignore[union-attr]

    def values(self, times: np.ndarray) -> np.ndarray:
        return self.waveform.values(times)  # type: ignore[union-attr]


@dataclass(frozen=True)
class CurrentSource:
    """An independent current source; current flows from ``pos`` to ``neg``
    through the source (i.e. it is *injected into* the ``neg`` node)."""

    name: str
    pos: Node
    neg: Node
    waveform: Union[Waveform, float] = field(default=0.0)

    def __post_init__(self) -> None:
        if isinstance(self.waveform, (int, float)):
            object.__setattr__(self, "waveform", DC(float(self.waveform)))

    def value(self, t: float) -> float:
        return self.waveform.value(t)  # type: ignore[union-attr]

    def values(self, times: np.ndarray) -> np.ndarray:
        return self.waveform.values(times)  # type: ignore[union-attr]


Element = Union[Resistor, Capacitor, Inductor, VoltageSource, CurrentSource]
