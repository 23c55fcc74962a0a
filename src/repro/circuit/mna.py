"""Modified Nodal Analysis (MNA) assembly.

The circuit equations are written as::

    C · dx/dt + G · x = u(t)

where ``x`` stacks the non-ground node voltages followed by one branch
current per inductor and per voltage source. ``G`` holds the resistive
stamps and source/inductor incidence rows, ``C`` the capacitor stamps and
inductor ``-L`` terms, and ``u(t)`` the source excitations. This is the
standard formulation used by SPICE for linear circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import GROUND, Circuit, CircuitError


@dataclass
class MNASystem:
    """Assembled MNA matrices and bookkeeping for one circuit.

    Attributes:
        G: (n, n) conductance/incidence matrix.
        C: (n, n) storage matrix (capacitors, inductor -L terms).
        node_index: node label → row (ground excluded).
        branch_index: inductor/source name → row of its branch current.
        circuit: the source circuit (used to sample ``u(t)``).
    """

    G: np.ndarray
    C: np.ndarray
    node_index: dict[str, int]
    branch_index: dict[str, int]
    circuit: Circuit

    @property
    def size(self) -> int:
        return self.G.shape[0]

    @property
    def num_nodes(self) -> int:
        return len(self.node_index)

    def rhs(self, t: float) -> np.ndarray:
        """The excitation vector ``u(t)``."""
        return self.excitation(np.array([t], dtype=float))[:, 0]

    def excitation(self, times: np.ndarray) -> np.ndarray:
        """The excitation over a time grid: column ``k`` is ``u(times[k])``."""
        times = np.asarray(times, dtype=float)
        u = np.zeros((self.size, times.size))
        for source in self.circuit.voltage_sources():
            u[self.branch_index[source.name]] = source.values(times)
        for source in self.circuit.current_sources():
            current = source.values(times)
            pos = self.node_index.get(source.pos)
            neg = self.node_index.get(source.neg)
            # Positive source current leaves `pos` and is injected into `neg`.
            if pos is not None:
                u[pos] -= current
            if neg is not None:
                u[neg] += current
        return u

    def initial_state(self) -> np.ndarray:
        """State honouring capacitor/inductor initial conditions at t = 0.

        Node voltages are seeded from capacitor ``ic`` values where given
        (last writer wins for nodes shared by several capacitors), branch
        currents from inductor ``ic`` values; voltage-source branch
        currents start at zero. For the interconnect circuits in this repo
        all initial conditions are zero, matching a quiescent net.
        """
        x0 = np.zeros(self.size)
        for cap in self.circuit.capacitors():
            if cap.ic == 0.0:
                continue
            n1 = self.node_index.get(cap.n1)
            n2 = self.node_index.get(cap.n2)
            if n1 is not None and n2 is None:
                x0[n1] = cap.ic
            elif n2 is not None and n1 is None:
                x0[n2] = -cap.ic
            elif n1 is not None and n2 is not None:
                x0[n1] = x0[n2] + cap.ic
        for ind in self.circuit.inductors():
            if ind.ic != 0.0:
                x0[self.branch_index[ind.name]] = ind.ic
        return x0

    def voltage_row(self, node: str) -> int:
        """Row of ``node``'s voltage in the state vector."""
        if node == GROUND:
            raise CircuitError("ground voltage is identically zero")
        try:
            return self.node_index[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None


def build_mna(circuit: Circuit) -> MNASystem:
    """Assemble the MNA system for ``circuit``."""
    circuit.validate()
    nodes = [n for n in circuit.nodes if n != GROUND]
    node_index = {label: i for i, label in enumerate(nodes)}
    branch_names = ([e.name for e in circuit.inductors()]
                    + [e.name for e in circuit.voltage_sources()])
    branch_index = {name: len(nodes) + i for i, name in enumerate(branch_names)}
    size = len(nodes) + len(branch_names)
    G = np.zeros((size, size))
    C = np.zeros((size, size))

    def row(label: str) -> int | None:
        return node_index.get(label)

    for res in circuit.resistors():
        _stamp_conductance(G, row(res.n1), row(res.n2), res.conductance)
    for cap in circuit.capacitors():
        _stamp_conductance(C, row(cap.n1), row(cap.n2), cap.value)
    for ind in circuit.inductors():
        k = branch_index[ind.name]
        _stamp_branch(G, row(ind.n1), row(ind.n2), k)
        C[k, k] = -ind.value
    for src in circuit.voltage_sources():
        k = branch_index[src.name]
        _stamp_branch(G, row(src.pos), row(src.neg), k)
    return MNASystem(G=G, C=C, node_index=node_index,
                     branch_index=branch_index, circuit=circuit)


def _stamp_conductance(M: np.ndarray, i: int | None, j: int | None,
                       value: float) -> None:
    """Two-terminal stamp: +value on diagonals, -value off-diagonal."""
    if i is not None:
        M[i, i] += value
    if j is not None:
        M[j, j] += value
    if i is not None and j is not None:
        M[i, j] -= value
        M[j, i] -= value


def _stamp_branch(G: np.ndarray, pos: int | None, neg: int | None,
                  k: int) -> None:
    """Branch-current stamp shared by inductors and voltage sources.

    KCL rows get ±1 for the branch current; the branch row enforces
    ``v_pos - v_neg = (branch voltage)``.
    """
    if pos is not None:
        G[pos, k] += 1.0
        G[k, pos] += 1.0
    if neg is not None:
        G[neg, k] -= 1.0
        G[k, neg] -= 1.0
