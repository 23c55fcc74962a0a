"""Unit tests for the SPICE-level delay oracle."""

import importlib

import pytest

from repro.circuit.waveform import Step
from repro.delay.elmore_graph import graph_elmore_delays
from repro.delay.spice_delay import SpiceOptions, spice_delay, spice_delays
from repro.geometry.net import Net
from repro.graph.mst import prim_mst
from repro.graph.routing_graph import RoutingGraph


class TestSpiceOptions:
    def test_defaults(self):
        opts = SpiceOptions()
        assert opts.segments == 3
        assert opts.threshold == 0.5
        assert opts.engine == "analytic"

    @pytest.mark.parametrize("kwargs", [
        {"segments": 0},
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"engine": "hspice"},
        {"include_inductance": True},  # analytic engine is RC-only
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SpiceOptions(**kwargs)

    def test_inductance_allowed_with_transient(self):
        opts = SpiceOptions(engine="transient", include_inductance=True)
        assert opts.include_inductance

    def test_with_segments(self):
        assert SpiceOptions().with_segments(7).segments == 7


class TestSingleWirePhysics:
    def test_two_pin_delay_between_bounds(self, tech):
        """50% delay of an RC wire lies below its Elmore delay (the first
        moment over-weights the tail) and above ln2 x the driver-only
        estimate."""
        net = Net.from_points([(0, 0), (5000, 0)])
        tree = prim_mst(net)
        measured = spice_delay(tree, tech)
        elmore = graph_elmore_delays(tree, tech)[1]
        assert 0.3 * elmore < measured < elmore

    def test_longer_wire_is_slower(self, tech):
        short = prim_mst(Net.from_points([(0, 0), (2000, 0)]))
        long = prim_mst(Net.from_points([(0, 0), (8000, 0)]))
        assert spice_delay(long, tech) > spice_delay(short, tech)

    def test_threshold_monotonicity(self, tech):
        tree = prim_mst(Net.from_points([(0, 0), (5000, 0)]))
        d30 = spice_delay(tree, tech, SpiceOptions(threshold=0.3))
        d50 = spice_delay(tree, tech, SpiceOptions(threshold=0.5))
        d90 = spice_delay(tree, tech, SpiceOptions(threshold=0.9))
        assert d30 < d50 < d90


class TestEngineAgreement:
    def test_analytic_vs_transient_on_mst(self, mst10, tech):
        analytic = spice_delays(mst10, tech, SpiceOptions(segments=2))
        numeric = spice_delays(mst10, tech, SpiceOptions(
            engine="transient", segments=2, num_steps=4000))
        for sink in analytic:
            assert numeric[sink] == pytest.approx(analytic[sink], rel=0.02)

    def test_analytic_vs_transient_on_cyclic_graph(self, mst10, tech):
        cyclic = mst10.with_edge(*mst10.candidate_edges()[0])
        analytic = spice_delays(cyclic, tech, SpiceOptions(segments=2))
        numeric = spice_delays(cyclic, tech, SpiceOptions(
            engine="transient", segments=2, num_steps=4000))
        worst = max(analytic, key=analytic.get)
        assert numeric[worst] == pytest.approx(analytic[worst], rel=0.02)


class TestTransientWindow:
    def test_give_up_names_the_last_simulated_window(self, tech,
                                                     monkeypatch):
        """A sink that never crosses exhausts the extensions; the error
        must name the largest window actually integrated."""
        # The package re-exports a function named like the module.
        oracle = importlib.import_module("repro.delay.spice_delay")
        windows = []
        real_transient = oracle.transient
        real_build = oracle.build_interconnect_circuit

        def recording(circuit, t_stop, **kwargs):
            windows.append(t_stop)
            return real_transient(circuit, t_stop, **kwargs)

        def undriven(*args, **kwargs):
            return real_build(*args, step=Step(v1=0.0), **kwargs)

        monkeypatch.setattr(oracle, "transient", recording)
        monkeypatch.setattr(oracle, "build_interconnect_circuit", undriven)
        monkeypatch.setattr(oracle, "_MAX_EXTENSIONS", 3)
        tree = prim_mst(Net.from_points([(0, 0), (5000, 0)]))
        with pytest.raises(RuntimeError, match="without all sinks") as info:
            spice_delays(tree, tech,
                         SpiceOptions(engine="transient", num_steps=200))
        assert windows == [windows[0], 2 * windows[0], 4 * windows[0]]
        assert f"grew to {windows[-1]:.3g}s" in str(info.value)


class TestAPI:
    def test_delays_cover_exactly_the_sinks(self, mst10, tech):
        delays = spice_delays(mst10, tech)
        assert set(delays) == set(range(1, 10))

    def test_spice_delay_is_max(self, mst10, tech):
        delays = spice_delays(mst10, tech)
        assert spice_delay(mst10, tech) == pytest.approx(max(delays.values()))

    def test_steiner_nodes_not_reported(self, net10, tech):
        from repro.graph.steiner import iterated_one_steiner

        tree = iterated_one_steiner(net10)
        delays = spice_delays(tree, tech)
        assert set(delays) == set(range(1, 10))

    def test_non_spanning_graph_rejected(self, net10, tech):
        from repro.graph.routing_graph import RoutingGraphError

        with pytest.raises(RoutingGraphError):
            spice_delays(RoutingGraph(net10), tech)

    def test_deterministic(self, mst10, tech):
        assert spice_delays(mst10, tech) == spice_delays(mst10, tech)
