"""The "SPICE" delay oracle: 50%-threshold delay from circuit simulation.

Given a routing graph, build its interconnect circuit and report, for
every sink, the time its voltage first reaches 50% of the final value
under a unit step at the driver — the quantity all of the paper's tables
are built from.

Two engines, identical answers on RC circuits (cross-validated in tests):

* ``"analytic"`` (default): exact eigendecomposition solution of the
  reduced RC system — no timestep error, fast enough to sit inside LDRG's
  greedy loop;
* ``"transient"``: full MNA trapezoidal integration; supports wire
  inductance (RLC) and arbitrary source waveforms, at fixed-step accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuit.analytic import AnalyticRC
from repro.circuit.measure import threshold_crossing
from repro.circuit.transient import transient
from repro.delay.parameters import Technology
from repro.delay.rc_builder import (
    EdgeWidths,
    build_interconnect_circuit,
    build_reduced_rc,
    node_label,
)
from repro.graph.routing_graph import RoutingGraph

#: How many slowest-time-constants to simulate before extending (transient).
_HORIZON_FACTOR = 8.0
_MAX_EXTENSIONS = 8


@dataclass(frozen=True)
class SpiceOptions:
    """Knobs of the SPICE-level delay evaluation.

    Attributes:
        segments: π-sections per wire (more = finer distributed-line
            approximation; 3 is within a fraction of a percent of the
            converged 50% delay on the paper's nets — see the segmentation
            ablation benchmark).
        threshold: crossing fraction of the final value (0.5 = paper).
        engine: ``"analytic"`` or ``"transient"``.
        include_inductance: add series wire inductance (transient engine
            only — the analytic engine is RC-exact and will refuse).
        num_steps: timesteps per transient window.
        method: transient integration method.
    """

    segments: int = 3
    threshold: float = 0.5
    engine: str = "analytic"
    include_inductance: bool = False
    num_steps: int = 2000
    method: str = "trapezoidal"

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError("segments must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie strictly between 0 and 1")
        if self.engine not in ("analytic", "transient"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.include_inductance and self.engine == "analytic":
            raise ValueError(
                "the analytic engine is RC-only; use engine='transient' "
                "for inductive interconnect")

    def with_segments(self, segments: int) -> "SpiceOptions":
        return replace(self, segments=segments)


def spice_delays(graph: RoutingGraph, tech: Technology,
                 options: SpiceOptions | None = None,
                 widths: EdgeWidths | None = None) -> dict[int, float]:
    """Per-sink 50% delays (seconds) of the routing graph."""
    opts = options or SpiceOptions()
    if opts.engine == "analytic":
        return _analytic_delays(graph, tech, opts, widths)
    return _transient_delays(graph, tech, opts, widths)


def spice_delay(graph: RoutingGraph, tech: Technology,
                options: SpiceOptions | None = None,
                widths: EdgeWidths | None = None) -> float:
    """Max source→sink 50% delay — ``t(G)`` in the paper's notation."""
    return max(spice_delays(graph, tech, options, widths).values())


def _analytic_delays(graph: RoutingGraph, tech: Technology,
                     opts: SpiceOptions,
                     widths: EdgeWidths | None) -> dict[int, float]:
    system = build_reduced_rc(graph, tech, segments=opts.segments,
                              widths=widths)
    solution = AnalyticRC(system)
    sinks = list(graph.sink_indices())
    thresholds = np.array([
        opts.threshold * float(solution.v_inf[system.row(sink)])
        for sink in sinks])
    times = solution.crossing_times(sinks, thresholds)
    return dict(zip(sinks, (float(t) for t in times)))


def _transient_delays(graph: RoutingGraph, tech: Technology,
                      opts: SpiceOptions,
                      widths: EdgeWidths | None) -> dict[int, float]:
    circuit = build_interconnect_circuit(
        graph, tech, segments=opts.segments, widths=widths,
        include_inductance=opts.include_inductance)
    # Scale the window from the graph's first-moment delays, then extend
    # until every sink has crossed its threshold.
    rc_system = build_reduced_rc(graph, tech, segments=1, widths=widths)
    elmore = rc_system.elmore()
    t_stop = _HORIZON_FACTOR * max(float(max(elmore)), 1e-15)
    final = 1.0  # unit step; RC(L) nets settle to the source level
    sinks = list(graph.sink_indices())
    # Stop integrating once every sink has crossed: the crossings read
    # the same samples as the full window, so the delays are unchanged.
    levels = {node_label(sink): opts.threshold * final for sink in sinks}
    for attempt in range(_MAX_EXTENSIONS):
        if attempt:
            t_stop *= 2.0
        result = transient(circuit, t_stop=t_stop, num_steps=opts.num_steps,
                           method=opts.method, stop_levels=levels)
        delays: dict[int, float] = {}
        for sink in sinks:
            crossing = threshold_crossing(result.times,
                                          result.voltage(node_label(sink)),
                                          opts.threshold * final)
            if crossing is None:
                break
            delays[sink] = crossing
        else:
            return delays
    raise RuntimeError(
        f"transient window grew to {t_stop:.3g}s without all sinks crossing "
        f"{opts.threshold:.0%} — circuit may be mis-scaled")
