"""Moment (AWE-style) analysis of step responses.

For a step input, the Laplace-domain state is
``X(s) = (G + sC)⁻¹ · u∞ / s = (m₀ + m₁ s + m₂ s² + …) / s`` with::

    m₀ = G⁻¹ u∞          (the DC solution)
    mₖ₊₁ = −G⁻¹ C mₖ     (one back-substitution per extra moment)

The normalized first moment ``−m₁/m₀`` is the Elmore delay; matching two
moments to a two-pole model gives the classic AWE "two-pole" delay
estimate, markedly closer to SPICE than Elmore on far-from-critically-
damped nets. Used by the ``two-pole`` delay model and the oracle ablation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from repro.circuit.dcop import GMIN
from repro.circuit.mna import build_mna
from repro.circuit.netlist import Circuit


def node_moments(circuit: Circuit, count: int = 3,
                 gmin: float = GMIN) -> dict[str, np.ndarray]:
    """The first ``count`` step-response moments at every node.

    Sources are held at their *final* values (a step's asymptote), so
    ``m₀`` is the settled solution. Returns node → array of ``count``
    moments.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mna = build_mna(circuit)
    G = mna.G.copy()
    for row in mna.node_index.values():
        G[row, row] += gmin
    lu = lu_factor(G)
    u_final = np.zeros(mna.size)
    for source in circuit.voltage_sources():
        u_final[mna.branch_index[source.name]] = source.waveform.final_value()
    for source in circuit.current_sources():
        current = source.waveform.final_value()
        pos = mna.node_index.get(source.pos)
        neg = mna.node_index.get(source.neg)
        if pos is not None:
            u_final[pos] -= current
        if neg is not None:
            u_final[neg] += current
    moments = np.empty((count, mna.size))
    moments[0] = lu_solve(lu, u_final)
    for k in range(1, count):
        moments[k] = lu_solve(lu, -(mna.C @ moments[k - 1]))
    return {node: moments[:, row].copy()
            for node, row in mna.node_index.items()}


def elmore_from_moments(moments: np.ndarray) -> float:
    """Elmore delay ``−m₁/m₀`` from a node's moment vector."""
    m = np.asarray(moments, dtype=float)
    if m.size < 2:
        raise ValueError("need at least two moments for Elmore delay")
    if m[0] == 0:
        raise ValueError("m0 is zero: node has no DC response")
    return float(-m[1] / m[0])


def two_pole_delay(moments: np.ndarray, fraction: float = 0.5) -> float:
    """Threshold-crossing delay of the two-pole (Padé [0/2]) model.

    Matches ``H(s) ≈ 1 / (1 + a₁s + a₂s²)`` to the node's normalized
    moments; the model step response is a sum of two real exponentials
    whose ``fraction`` crossing is solved exactly. Falls back to the
    single-pole estimate ``τ ln(1/(1−f))`` with ``τ`` = Elmore delay when
    the two-pole fit is unstable or complex (both poles must be real
    negative for a passive RC response).
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie strictly between 0 and 1")
    m = np.asarray(moments, dtype=float)
    if m.size < 3:
        raise ValueError("need at least three moments for a two-pole fit")
    mu1 = m[1] / m[0]
    mu2 = m[2] / m[0]
    elmore = -mu1
    single_pole = elmore * math.log(1.0 / (1.0 - fraction))
    a1 = -mu1
    a2 = mu1 * mu1 - mu2
    if a2 <= 0:
        return single_pole
    disc = a1 * a1 - 4.0 * a2
    if disc <= 0:
        return single_pole
    sqrt_disc = math.sqrt(disc)
    p1 = (-a1 + sqrt_disc) / (2.0 * a2)
    p2 = (-a1 - sqrt_disc) / (2.0 * a2)
    if p1 >= 0 or p2 >= 0:
        return single_pole
    k1 = 1.0 / (a2 * p1 * (p1 - p2))
    k2 = 1.0 / (a2 * p2 * (p2 - p1))
    return _crossing(p1, p2, k1, k2, fraction)


def _crossing(p1: float, p2: float, k1: float, k2: float,
              fraction: float) -> float:
    """First upward crossing of the two-exponential step response."""

    def value(t: float) -> float:
        return 1.0 + k1 * math.exp(p1 * t) + k2 * math.exp(p2 * t)

    slowest = 1.0 / min(abs(p1), abs(p2))
    horizon = 4.0 * slowest
    for _ in range(60):
        grid = np.linspace(0.0, horizon, 257)
        samples = 1.0 + k1 * np.exp(p1 * grid) + k2 * np.exp(p2 * grid)
        above = np.nonzero(samples >= fraction)[0]
        if above.size:
            k = int(above[0])
            if k == 0:
                return 0.0
            # Imported here: scipy.optimize costs about a quarter of a
            # second, and only this root-find needs it.
            from scipy.optimize import brentq
            return float(brentq(lambda t: value(t) - fraction,
                                grid[k - 1], grid[k]))
        horizon *= 2.0
    raise RuntimeError("two-pole response never reaches the threshold")
