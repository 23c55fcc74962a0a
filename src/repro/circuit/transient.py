"""Fixed-step transient analysis: trapezoidal and backward-Euler integration.

For the linear system ``C·ẋ + G·x = u(t)`` a fixed timestep turns each
integration step into a linear solve with a *constant* matrix, so the LU
factorization is computed once and reused across all steps — the same
strategy SPICE uses for linear circuits with a fixed step.

Trapezoidal (SPICE's default, A-stable, 2nd order)::

    (C/h + G/2) x₊ = (C/h − G/2) x + (u₊ + u)/2

Backward Euler (L-stable, 1st order, damps everything)::

    (C/h + G) x₊ = (C/h) x + u₊

The trapezoidal method takes its *first* step with backward Euler, as
SPICE does: MNA rows without storage terms (voltage-source constraints,
purely resistive nodes) are algebraic, and trapezoidal is only marginally
stable on them — an initial state inconsistent with ``u(0)`` (e.g. the
zero state under an already-high step) would otherwise ring undamped
forever. One L-stable step kills the inconsistency at O(h²) total cost,
preserving the method's 2nd-order convergence.

Every later step uses the same matrices, so the recurrence is
time-invariant: ``x₊ = P·x + q₊`` with the propagator ``P = A⁻¹B``
(trapezoidal: ``A = C/h + G/2``, ``B = C/h − G/2``; backward Euler:
``A = C/h + G``, ``B = C/h``) and the drive ``q₊ = A⁻¹·½(u₊ + u)``
(backward Euler: ``A⁻¹u₊``). ``P`` is formed once with one multi-column
solve; the drive is formed a block of :data:`BLOCK_STEPS` steps at a time,
also with one multi-column solve over the block's excitation, so the
per-step work is one small matrix–vector product. Each finished block is
checked for non-finite states: an unstable system raises a
:class:`~repro.guard.incidents.NumericalIncident` rather than returning
NaN.

Optionally the integration stops early: given node → level thresholds,
it stops at the end of the first block in which every listed node has
reached its level. The samples up to that point are exactly those of the
full window, so a threshold crossing measured on the shortened result
equals the one measured on the full result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from repro.guard.incidents import NumericalIncident
from repro.guard.numerics import GuardedFactorization

from repro.circuit.mna import MNASystem, build_mna
from repro.circuit.netlist import Circuit, CircuitError

_METHODS = ("trapezoidal", "backward-euler")

#: Steps propagated between non-finite checks and early-exit tests.
BLOCK_STEPS = 64


@dataclass
class TransientResult:
    """Simulated waveforms: ``states[:, k]`` is the state at ``times[k]``."""

    times: np.ndarray
    states: np.ndarray
    mna: MNASystem
    method: str

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform at ``node`` (ground returns zeros)."""
        if node == "0":
            return np.zeros_like(self.times)
        return self.states[self.mna.voltage_row(node)]

    def branch_current(self, name: str) -> np.ndarray:
        """Branch-current waveform of inductor/voltage-source ``name``."""
        try:
            row = self.mna.branch_index[name]
        except KeyError:
            raise CircuitError(f"no branch current for element {name!r}") from None
        return self.states[row]

    def final_voltages(self) -> dict[str, float]:
        """Node voltages at the last timepoint."""
        return {node: float(self.states[row, -1])
                for node, row in self.mna.node_index.items()}


def transient(circuit: Circuit, t_stop: float, num_steps: int = 1000,
              method: str = "trapezoidal",
              x0: np.ndarray | None = None, *,
              stop_levels: Mapping[str, float] | None = None,
              ) -> TransientResult:
    """Simulate ``circuit`` from 0 to ``t_stop`` with a fixed step.

    Args:
        circuit: the netlist to simulate.
        t_stop: end time in seconds (must be positive).
        num_steps: number of integration steps (≥ 1); the result has
            ``num_steps + 1`` timepoints including t = 0.
        method: ``"trapezoidal"`` (default) or ``"backward-euler"``.
        x0: optional initial state; defaults to the circuit's declared
            initial conditions (zero for quiescent interconnect).
        stop_levels: optional node label → voltage level. Integration
            stops at the end of the first block of :data:`BLOCK_STEPS`
            steps in which every listed node has been at or above its
            level, and the result holds only the timepoints simulated.

    Raises:
        NumericalIncident: a singular or ill-conditioned integration
            matrix, a non-finite source value, or states that blow up.
    """
    if t_stop <= 0:
        raise ValueError("t_stop must be positive")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    mna = build_mna(circuit)
    h = t_stop / num_steps
    times = np.linspace(0.0, t_stop, num_steps + 1)
    x = mna.initial_state() if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (mna.size,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({mna.size},)")
    levels = dict(stop_levels or {})
    watch = [mna.voltage_row(node) for node in levels]
    thresholds = np.array(list(levels.values()), dtype=float)

    C_h = mna.C / h
    # Conditioned LU factorizations: a singular integration matrix (bad
    # step size, degenerate netlist) surfaces as a NumericalIncident with
    # the system's fingerprint, not a LinAlgError mid-sweep.
    fact_be = GuardedFactorization(
        C_h + mna.G, spd=False, context=f"transient-be[n={mna.size},h={h:g}]")
    if method == "trapezoidal":
        fact = GuardedFactorization(
            C_h + mna.G / 2.0, spd=False,
            context=f"transient-trap[n={mna.size},h={h:g}]")
        propagator = fact.solve(C_h - mna.G / 2.0)
    else:
        fact = fact_be
        propagator = fact.solve(C_h)

    # rows[k] is the state at times[k]; transposed into states at the end.
    rows = np.empty((num_steps + 1, mna.size))
    rows[0] = x
    # Backward-Euler first step: the damped start of the trapezoidal
    # method, and the first step of the backward-Euler method.
    rows[1] = fact_be.solve(C_h @ x + mna.rhs(times[1]))
    reached = (rows[:2, watch] >= thresholds).any(axis=0)
    k = 1
    # A blow-up surfaces as the NumericalIncident below, not as numpy
    # overflow warnings from the steps that produced it.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < num_steps and not (watch and reached.all()):
            stop = min(k + BLOCK_STEPS, num_steps)
            u = mna.excitation(times[k:stop + 1])
            if method == "trapezoidal":
                drive = 0.5 * (u[:, 1:] + u[:, :-1])
            else:
                drive = u[:, 1:]
            block = rows[k + 1:stop + 1]
            block[:] = fact.solve(drive).T
            x = rows[k]
            for row in block:
                row += propagator @ x
                x = row
            if not np.isfinite(block).all():
                raise NumericalIncident(
                    f"transient states became non-finite by t={times[stop]:g}s "
                    "(unstable system)", fact.fingerprint())
            reached |= (block[:, watch] >= thresholds).any(axis=0)
            k = stop
    return TransientResult(times=times[:k + 1],
                           states=np.ascontiguousarray(rows[:k + 1].T),
                           mna=mna, method=method)
