"""Differential tests: the propagator transient kernel vs the step loop.

``reference_transient`` below is the kernel's previous implementation,
kept verbatim as the oracle: one guarded LU solve per step, with the
excitation rebuilt from the source list at every timepoint. The
propagator kernel in :mod:`repro.circuit.transient` must reproduce its
states to within 1e-12 of the largest state magnitude on every circuit
here:

* the circuits the SPICE delay oracle builds while LDRG routes the
  Table 2 nets and serve-style 3–5 pin pool nets;
* structured net families after FRAME's netgen (chain, collinear chain,
  star, ring, grid) and seeded noise — rings and grids are non-tree
  routings, collinear chains and stars stress conditioning;
* RLC interconnect, ramped steps, pulses and PWL sources, backward
  Euler, and a nonzero initial state.

Early exit must return a prefix of the full run whose threshold
crossings are exactly the full run's, and a blow-up must raise a
:class:`~repro.guard.incidents.NumericalIncident`, never return NaN.
"""

from __future__ import annotations

import importlib
import math
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.circuit.measure import threshold_crossing
from repro.circuit.mna import build_mna
from repro.circuit.netlist import GROUND, Circuit, CircuitError
from repro.circuit.transient import BLOCK_STEPS, transient
from repro.circuit.waveform import DC, PWL, Pulse, Step
from repro.core.ldrg import ldrg
from repro.delay.incremental import DelayMemo, MemoizedDelayModel
from repro.delay.models import SpiceDelayModel
from repro.delay.parameters import Technology
from repro.delay.rc_builder import build_interconnect_circuit, node_label
from repro.delay.spice_delay import SpiceOptions, spice_delays
from repro.experiments import ExperimentConfig
from repro.geometry.net import Net
from repro.graph.mst import prim_mst
from repro.graph.routing_graph import RoutingGraph
from repro.guard.incidents import NumericalIncident
from repro.guard.numerics import GuardedFactorization

TECH = Technology.cmos08()
RTOL = 1e-12
#: The delay-oracle module (the package re-exports a function of the
#: same name, so ``from repro.delay import spice_delay`` is not it).
oracle = importlib.import_module("repro.delay.spice_delay")


def reference_transient(circuit, t_stop, num_steps=1000,
                        method="trapezoidal", x0=None):
    """The per-step solve loop the propagator replaced."""
    mna = build_mna(circuit)
    h = t_stop / num_steps
    times = np.linspace(0.0, t_stop, num_steps + 1)
    states = np.empty((mna.size, num_steps + 1))
    x = mna.initial_state() if x0 is None else np.asarray(x0, dtype=float).copy()
    states[:, 0] = x
    C_h = mna.C / h
    fact_be = GuardedFactorization(
        C_h + mna.G, spd=False, context=f"transient-be[n={mna.size},h={h:g}]")
    if method == "trapezoidal":
        fact_trap = GuardedFactorization(
            C_h + mna.G / 2.0, spd=False,
            context=f"transient-trap[n={mna.size},h={h:g}]")
        rhs_trap = C_h - mna.G / 2.0
    u_prev = mna.rhs(times[0])
    for k in range(1, num_steps + 1):
        u_next = mna.rhs(times[k])
        if method == "trapezoidal" and k > 1:
            x = fact_trap.solve(rhs_trap @ x + 0.5 * (u_next + u_prev))
        else:
            x = fact_be.solve(C_h @ x + u_next)
        states[:, k] = x
        u_prev = u_next
    return times, states


def assert_matches_reference(circuit, t_stop, num_steps, method="trapezoidal",
                             x0=None):
    times, states = reference_transient(circuit, t_stop, num_steps, method, x0)
    result = transient(circuit, t_stop, num_steps, method=method, x0=x0)
    assert np.array_equal(result.times, times)
    assert result.states.shape == states.shape
    error = float(np.max(np.abs(result.states - states)))
    assert error <= RTOL * float(np.max(np.abs(states))), error


@contextmanager
def recorded_oracle_calls():
    """Record every ``transient`` call the delay oracle makes."""
    calls = []
    real = oracle.transient

    def record(circuit, t_stop, **kwargs):
        calls.append((circuit, t_stop, kwargs["num_steps"], kwargs["method"]))
        return real(circuit, t_stop, **kwargs)

    with mock.patch.object(oracle, "transient", record):
        yield calls


def transient_model(segments):
    """A transient oracle with a private memo, so every call reaches the
    kernel whatever other tests have routed in this process."""
    model = SpiceDelayModel(TECH, SpiceOptions(segments=segments,
                                               engine="transient"))
    return MemoizedDelayModel(model, memo=DelayMemo())


def table2_oracle_calls():
    """Oracle circuits of LDRG on the first Table 2 nets (5 and 10 pins)."""
    config = ExperimentConfig(sizes=(5, 10), trials=1)
    with recorded_oracle_calls() as calls:
        for size in config.sizes:
            for net in config.nets(size):
                ldrg(net, TECH, delay_model=transient_model(1),
                     evaluation_model=transient_model(3))
    return calls


def pool_net(pins, index):
    """A serve-style pool net: ``pins`` pins uniform in the 10 mm square."""
    rng = random.Random(f"kernel-net-{pins}-{index}")
    points = []
    while len(points) < pins:
        point = (round(rng.uniform(0.0, 10_000.0), 1),
                 round(rng.uniform(0.0, 10_000.0), 1))
        if point not in points:
            points.append(point)
    return Net.from_points(points, name=f"p{pins}_{index}")


def pool_oracle_calls():
    """Oracle circuits of the daemon's LDRG on 20 pool nets."""
    nets = [pool_net(3 + i % 3, i) for i in range(20)]
    with recorded_oracle_calls() as calls:
        for net in nets:
            ldrg(net, TECH, delay_model=transient_model(1))
    return calls


def _net(points):
    return Net.from_points(points)


def chain():
    points = [(i * 1500.0, 800.0 * (i % 2)) for i in range(6)]
    return RoutingGraph.from_edges(_net(points), [(i, i + 1) for i in range(5)])


def collinear_chain():
    points = [(x, 500.0) for x in (0.0, 300.0, 2300.0, 2400.0, 7000.0, 9800.0)]
    return RoutingGraph.from_edges(_net(points), [(i, i + 1) for i in range(5)])


def star():
    points = [(5000.0, 5000.0)] + [
        (5000.0 + 4000.0 * math.cos(a), 5000.0 + 4000.0 * math.sin(a))
        for a in np.linspace(0.0, 2 * math.pi, 7)[:-1]]
    return RoutingGraph.from_edges(_net(points), [(0, i) for i in range(1, 7)])


def ring():
    points = [(5000.0 + 3000.0 * math.cos(a), 5000.0 + 3000.0 * math.sin(a))
              for a in np.linspace(0.0, 2 * math.pi, 7)[:-1]]
    return RoutingGraph.from_edges(
        _net(points), [(i, (i + 1) % 6) for i in range(6)])


def grid():
    points = [(2000.0 * c, 2500.0 * r) for r in range(3) for c in range(3)]
    edges = [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
    edges += [(3 * r + c, 3 * (r + 1) + c) for r in range(2) for c in range(3)]
    return RoutingGraph.from_edges(_net(points), edges)


def noisy_grid(seed):
    rng = np.random.default_rng(seed)
    points = [(1000.0 + 2500.0 * c + rng.normal(0.0, 300.0),
               1000.0 + 2500.0 * r + rng.normal(0.0, 300.0))
              for r in range(3) for c in range(3)]
    graph = prim_mst(_net(points))
    far = max(graph.sink_indices(), key=lambda s: graph.distance(0, s))
    if not graph.has_edge(0, far):
        graph.add_edge(0, far)
    return graph


FAMILIES = {
    "chain": chain, "collinear-chain": collinear_chain, "star": star,
    "ring": ring, "grid": grid,
    "noise-1": lambda: noisy_grid(1), "noise-2": lambda: noisy_grid(2),
}


def family_calls(graph, **options):
    with recorded_oracle_calls() as calls:
        spice_delays(graph, TECH, SpiceOptions(engine="transient", **options))
    return calls


def rc_ladder(source, stages=4):
    ckt = Circuit("ladder")
    ckt.add_voltage_source("vin", "n0", GROUND, source)
    for i in range(stages):
        ckt.add_resistor(f"r{i}", f"n{i}", f"n{i + 1}", 200.0 * (i + 1))
        ckt.add_capacitor(f"c{i}", f"n{i + 1}", GROUND, 1e-13 * (stages - i))
    return ckt


class TestOracleCircuits:
    # Every fourth call: the reference loop costs about 60 ms a circuit.
    def test_table2_nets(self):
        calls = table2_oracle_calls()
        assert len(calls) >= 40
        for circuit, t_stop, num_steps, method in calls[::4]:
            assert_matches_reference(circuit, t_stop, num_steps, method)

    def test_pool_nets(self):
        calls = pool_oracle_calls()
        assert len(calls) >= 40
        for circuit, t_stop, num_steps, method in calls[::4]:
            assert_matches_reference(circuit, t_stop, num_steps, method)


class TestStructuredFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rc(self, family):
        for circuit, t_stop, num_steps, method in family_calls(
                FAMILIES[family](), segments=2):
            assert_matches_reference(circuit, t_stop, num_steps, method)

    @pytest.mark.parametrize("family", ["chain", "ring", "star"])
    def test_rlc(self, family):
        calls = family_calls(FAMILIES[family](), segments=2,
                             include_inductance=True)
        for circuit, t_stop, num_steps, method in calls:
            assert circuit.inductors()
            assert_matches_reference(circuit, t_stop, num_steps, method)

    @pytest.mark.parametrize("family", ["collinear-chain", "grid"])
    def test_backward_euler(self, family):
        for circuit, t_stop, num_steps, method in family_calls(
                FAMILIES[family](), method="backward-euler", num_steps=700):
            assert method == "backward-euler"
            assert_matches_reference(circuit, t_stop, num_steps, method)


class TestSources:
    def test_ramped_step(self):
        graph = ring()
        circuit = build_interconnect_circuit(
            graph, TECH, segments=2, step=Step(rise=2e-10, delay=1e-10))
        assert_matches_reference(circuit, 5e-9, 1000)

    def test_pulse_train(self):
        source = Pulse(0.0, 1.0, delay=1e-10, rise=5e-11, fall=8e-11,
                       width=3e-10, period=7e-10)
        assert_matches_reference(rc_ladder(source), 3e-9, 900)

    def test_pwl(self):
        source = PWL([(0.0, 0.0), (2e-10, 1.0), (5e-10, 1.0), (7e-10, 0.3)])
        assert_matches_reference(rc_ladder(source), 1.5e-9, 640)

    def test_current_source(self):
        ckt = rc_ladder(DC(0.0))
        ckt.add_current_source("iin", GROUND, "n3",
                               PWL([(0.0, 0.0), (3e-10, 2e-3)]))
        assert_matches_reference(ckt, 1e-9, 300, method="backward-euler")

    def test_nonzero_initial_state(self):
        circuit = rc_ladder(Step())
        x0 = np.linspace(0.2, -0.4, build_mna(circuit).size)
        assert_matches_reference(circuit, 1e-9, 500, x0=x0)

    @pytest.mark.parametrize("num_steps", [1, 2, BLOCK_STEPS, BLOCK_STEPS + 1])
    def test_block_boundaries(self, num_steps):
        assert_matches_reference(rc_ladder(Step()), 1e-9, num_steps)


class TestEarlyExit:
    def test_oracle_crossings_equal_full_window(self):
        graph = noisy_grid(3)
        circuit = build_interconnect_circuit(graph, TECH, segments=3)
        t_stop = 8.0 * 5e-9
        levels = {node_label(s): 0.5 for s in graph.sink_indices()}
        full = transient(circuit, t_stop, 2000)
        early = transient(circuit, t_stop, 2000, stop_levels=levels)
        taken = len(early.times)
        assert taken < len(full.times)
        assert (taken - 1) % BLOCK_STEPS == 1
        assert np.array_equal(early.times, full.times[:taken])
        assert np.array_equal(early.states, full.states[:, :taken])
        for node, level in levels.items():
            crossing = threshold_crossing(early.times, early.voltage(node),
                                          level)
            assert crossing is not None
            assert crossing == threshold_crossing(
                full.times, full.voltage(node), level)

    def test_oracle_delays_unchanged(self):
        graph = chain()
        with recorded_oracle_calls() as calls:
            delays = spice_delays(graph, TECH,
                                  SpiceOptions(engine="transient"))
        (circuit, t_stop, num_steps, method), = calls
        full = transient(circuit, t_stop, num_steps, method=method)
        for sink, delay in delays.items():
            assert delay == threshold_crossing(
                full.times, full.voltage(node_label(sink)), 0.5)

    def test_unreached_level_runs_the_full_window(self):
        circuit = rc_ladder(Step())
        full = transient(circuit, 1e-9, 300)
        capped = transient(circuit, 1e-9, 300, stop_levels={"n4": 2.0})
        assert np.array_equal(capped.times, full.times)
        assert np.array_equal(capped.states, full.states)

    def test_level_reached_at_start_stops_after_first_step(self):
        circuit = rc_ladder(Step())
        result = transient(circuit, 1e-9, 300, stop_levels={"n1": -1.0})
        assert len(result.times) == 2

    def test_unknown_node_rejected(self):
        with pytest.raises(CircuitError):
            transient(rc_ladder(Step()), 1e-9, 10, stop_levels={"nx": 0.5})


class TestGuards:
    def test_nonfinite_source_raises(self):
        # NaN from the first step on, and +inf only after 5e-10 s: the
        # second reaches the kernel through a later block's drive.
        late = PWL([(0.0, 0.0), (5e-10, 1.0), (6e-10, float("inf"))])
        for circuit in (rc_ladder(DC(float("nan"))), rc_ladder(late)):
            with pytest.raises(NumericalIncident):
                transient(circuit, 1e-9, 400)

    def test_unstable_system_raises(self):
        ckt = Circuit("unstable")
        ckt.add_voltage_source("vin", "in", GROUND, Step())
        ckt.add_resistor("r1", "in", "out", 1e3)
        ckt.add_capacitor("c1", "out", GROUND, 1e-12)
        negative = ckt.add_resistor("r2", "out", GROUND, 500.0)
        # A negative resistance cannot be built through the API; force
        # one to get a system whose states grow without bound.
        object.__setattr__(negative, "value", -500.0)
        with pytest.raises(NumericalIncident):
            reference_transient(ckt, 1e-6, 2000)
        with pytest.raises(NumericalIncident, match="non-finite"):
            transient(ckt, 1e-6, 2000)
