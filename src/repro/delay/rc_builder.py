"""Build electrical models of a routing graph.

Two builders share one discretization convention:

* :func:`build_reduced_rc` produces the ground-referenced
  :class:`~repro.circuit.analytic.ReducedRC` system used by the exact
  analytic solver and the graph-Elmore computation;
* :func:`build_interconnect_circuit` produces a full
  :class:`~repro.circuit.netlist.Circuit` (driver source included) for the
  MNA transient engine, deck export, and the inductance ablation.

Each wire is discretized into π-sections: a segment of length ``ℓ``
becomes a series resistance ``r·ℓ`` with half the segment capacitance
``c·ℓ/2`` at each end (plus an optional series inductance ``l·ℓ``). One
π-section per edge already matches the distributed line's first moment
exactly (which is why the Elmore formula carries the ``c_e/2`` term); more
sections refine the 50%-crossing waveform. Sink loading capacitors sit on
every sink pin, and the driver is a step source behind
``driver_resistance``, exactly the paper's SPICE setup.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike

from repro.circuit.analytic import ReducedRC
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.waveform import Step
from repro.delay.parameters import Technology
from repro.graph.routing_graph import RoutingGraph, RoutingGraphError

#: Node label of the driver input in full circuits.
INPUT_NODE = "in"

EdgeWidths = Mapping[tuple[int, int], float]

#: Conductance of a zero-length edge: a 1 µΩ pseudo-short. Steiner points
#: may land on a pin's coordinates; the edge must still conduct.
PSEUDO_SHORT_CONDUCTANCE = 1.0 / 1e-6


def node_label(node: int) -> str:
    """Circuit node label of routing-graph node ``node``."""
    return f"n{node}"


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (sorted) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


def edge_width(widths: EdgeWidths | None, u: int, v: int) -> float:
    """Width of edge ``(u, v)``; unit width when unspecified."""
    if widths is None:
        return 1.0
    return float(widths.get(edge_key(u, v), 1.0))


def segment_count_for(length: float, segments: int) -> int:
    """Number of π-sections for a wire of ``length`` µm.

    ``segments`` is the per-edge target; zero-length edges (coincident
    pins cannot occur, but Steiner points may land on a pin's coordinate
    lines) still get one section so the topology stays connected.
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    return segments if length > 0 else 1


def pi_section(tech: Technology, lengths: ArrayLike,
               widths: ArrayLike = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-wire ``(g, c)`` of one π-section, elementwise over ``lengths``.

    ``g = 1/(r(w)·ℓ)`` is the series conductance and ``c = c(w)·ℓ`` the
    total capacitance, which callers split ``c/2`` onto each end. A
    zero-length wire is the :data:`PSEUDO_SHORT_CONDUCTANCE` with no
    capacitance. Every reduced-RC assembler and every Sherman–Morrison
    update (edge additions, width changes) takes its numbers from here.
    """
    lengths = np.asarray(lengths, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if (widths <= 0).any():
        raise ValueError("wire width must be positive")
    positive = lengths > 0
    resistance = tech.wire_resistance / widths
    g = np.where(positive,
                 1.0 / (resistance * np.where(positive, lengths, 1.0)),
                 PSEUDO_SHORT_CONDUCTANCE)
    area = tech.cap_area_fraction * widths
    fringe = 1.0 - tech.cap_area_fraction
    c = tech.wire_capacitance * (area + fringe) * lengths
    return g, c


def build_reduced_rc(graph: RoutingGraph, tech: Technology,
                     segments: int = 1,
                     widths: EdgeWidths | None = None) -> ReducedRC:
    """The reduced RC system of a routing graph.

    Rows are ordered: graph nodes first (in node order), then the internal
    wire nodes of each edge. ``labels[i]`` is the graph node id for pin
    rows and ``("w", u, v, j)`` for internal rows.

    Raises :class:`RoutingGraphError` when the graph does not span the
    net — a disconnected pin would silently float otherwise.
    """
    if not graph.spans_net():
        raise RoutingGraphError(
            f"routing over net {graph.net.name!r} does not span all pins")
    nodes = sorted(graph.nodes())
    labels: list = list(nodes)
    row_of = {node: i for i, node in enumerate(nodes)}

    # Each edge becomes a chain of rows; its internal wire nodes are
    # appended after the graph nodes.
    edges = graph.edges()
    chains = []
    for u, v in edges:
        key = edge_key(u, v)
        chain = [row_of[key[0]]]
        for j in range(segment_count_for(graph.edge_length(u, v),
                                         segments) - 1):
            chain.append(len(labels))
            labels.append(("w", key[0], key[1], j))
        chains.append(chain + [row_of[key[1]]])
    seg_gs, seg_cs = pi_section(
        tech,
        [graph.edge_length(u, v) / (len(chain) - 1)
         for (u, v), chain in zip(edges, chains)],
        1.0 if widths is None else [edge_width(widths, u, v)
                                    for u, v in edges])

    n = len(labels)
    G = np.zeros((n, n))
    c = np.zeros(n)
    for chain, seg_g, seg_c in zip(chains, seg_gs.tolist(),
                                   seg_cs.tolist()):
        for a, b_row in zip(chain, chain[1:]):
            G[a, a] += seg_g
            G[b_row, b_row] += seg_g
            G[a, b_row] -= seg_g
            G[b_row, a] -= seg_g
            c[a] += seg_c / 2.0
            c[b_row] += seg_c / 2.0

    for sink in graph.sink_indices():
        c[row_of[sink]] += tech.sink_capacitance

    g_driver = 1.0 / tech.driver_resistance
    source_row = row_of[graph.source]
    G[source_row, source_row] += g_driver
    b = np.zeros(n)
    b[source_row] = g_driver

    # Nodes with zero capacitance (possible only for degenerate zero-length
    # topologies) get a vanishing cap so the state space stays well-posed.
    floor = 1e-24
    c[c < floor] = floor
    return ReducedRC(G=G, c=c, b=b, labels=labels)


def build_interconnect_circuit(graph: RoutingGraph, tech: Technology,
                               segments: int = 1,
                               widths: EdgeWidths | None = None,
                               include_inductance: bool = False,
                               step: Step | None = None) -> Circuit:
    """A full circuit netlist of the routing: driver, wires, sink loads.

    Node ``n{i}`` carries routing node ``i``; the step source drives node
    ``in`` through the driver resistor. With ``include_inductance`` each
    wire segment gains its series inductance (Table 1's 492 fH/µm), which
    only the MNA transient engine can simulate.
    """
    if not graph.spans_net():
        raise RoutingGraphError(
            f"routing over net {graph.net.name!r} does not span all pins")
    circuit = Circuit(name=f"route_{graph.net.name}")
    circuit.add_voltage_source("vin", INPUT_NODE, GROUND,
                               step if step is not None else Step())
    circuit.add_resistor("rdrv", INPUT_NODE, node_label(graph.source),
                         tech.driver_resistance)

    cap_at: dict[str, float] = {}
    for u, v in graph.edges():
        key = edge_key(u, v)
        length = graph.edge_length(u, v)
        width = edge_width(widths, u, v)
        count = segment_count_for(length, segments)
        seg_len = length / count
        seg_r = max(tech.resistance_per_um(width) * seg_len, 1e-6)
        seg_c = tech.capacitance_per_um(width) * seg_len
        seg_l = tech.inductance_per_um(width) * seg_len
        chain = [node_label(key[0])]
        chain += [f"w{key[0]}_{key[1]}_{j}" for j in range(count - 1)]
        chain.append(node_label(key[1]))
        for j, (a, b) in enumerate(zip(chain, chain[1:])):
            if include_inductance and seg_l > 0:
                mid = f"l{key[0]}_{key[1]}_{j}"
                circuit.add_resistor(f"r{key[0]}_{key[1]}_{j}", a, mid, seg_r)
                circuit.add_inductor(f"ll{key[0]}_{key[1]}_{j}", mid, b, seg_l)
            else:
                circuit.add_resistor(f"r{key[0]}_{key[1]}_{j}", a, b, seg_r)
            cap_at[a] = cap_at.get(a, 0.0) + seg_c / 2.0
            cap_at[b] = cap_at.get(b, 0.0) + seg_c / 2.0

    for sink in graph.sink_indices():
        label = node_label(sink)
        cap_at[label] = cap_at.get(label, 0.0) + tech.sink_capacitance

    for index, (label, value) in enumerate(sorted(cap_at.items())):
        if value > 0:
            circuit.add_capacitor(f"c{index}", label, GROUND, value)
    return circuit
