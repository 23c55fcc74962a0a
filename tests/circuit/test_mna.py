"""Unit tests for MNA assembly — stamps checked against hand calculations."""

import numpy as np
import pytest

from repro.circuit.mna import build_mna
from repro.circuit.netlist import GROUND, Circuit, CircuitError
from repro.circuit.waveform import PWL, Pulse, Step


class TestResistorStamps:
    def test_single_resistor_to_ground(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", GROUND, 2.0)
        ckt.add_current_source("i1", GROUND, "a", 1.0)
        mna = build_mna(ckt)
        row = mna.node_index["a"]
        assert mna.G[row, row] == pytest.approx(0.5)

    def test_resistor_between_nodes(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", "b", 4.0)
        ckt.add_resistor("r2", "b", GROUND, 1.0)
        mna = build_mna(ckt)
        a, b = mna.node_index["a"], mna.node_index["b"]
        assert mna.G[a, a] == pytest.approx(0.25)
        assert mna.G[a, b] == pytest.approx(-0.25)
        assert mna.G[b, b] == pytest.approx(1.25)
        assert np.allclose(mna.G, mna.G.T)

    def test_parallel_resistors_sum(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", GROUND, 2.0)
        ckt.add_resistor("r2", "a", GROUND, 2.0)
        mna = build_mna(ckt)
        row = mna.node_index["a"]
        assert mna.G[row, row] == pytest.approx(1.0)


class TestCapacitorStamps:
    def test_capacitor_in_C_matrix_only(self):
        ckt = Circuit()
        ckt.add_capacitor("c1", "a", GROUND, 3e-12)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        row = mna.node_index["a"]
        assert mna.C[row, row] == pytest.approx(3e-12)
        assert mna.G[row, row] == pytest.approx(1.0)


class TestBranchStamps:
    def test_voltage_source_branch(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND, 5.0)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        a = mna.node_index["a"]
        k = mna.branch_index["v1"]
        assert mna.G[a, k] == 1.0
        assert mna.G[k, a] == 1.0
        assert mna.rhs(0.0)[k] == 5.0

    def test_inductor_branch(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND, 1.0)
        ckt.add_inductor("l1", "a", "b", 2e-9)
        ckt.add_resistor("r1", "b", GROUND, 1.0)
        mna = build_mna(ckt)
        k = mna.branch_index["l1"]
        assert mna.C[k, k] == pytest.approx(-2e-9)
        assert mna.G[k, mna.node_index["a"]] == 1.0
        assert mna.G[k, mna.node_index["b"]] == -1.0

    def test_size_counts_nodes_plus_branches(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND, 1.0)
        ckt.add_inductor("l1", "a", "b", 1e-9)
        ckt.add_resistor("r1", "b", GROUND, 1.0)
        mna = build_mna(ckt)
        assert mna.num_nodes == 2
        assert mna.size == 4  # 2 nodes + 1 inductor + 1 source


class TestRhs:
    def test_step_source_sampled_in_time(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND, Step(delay=1.0))
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        k = mna.branch_index["v1"]
        assert mna.rhs(0.5)[k] == 0.0
        assert mna.rhs(2.0)[k] == 1.0

    def test_current_source_signs(self):
        # Current flows pos -> (through source) -> neg: injected at neg.
        ckt = Circuit()
        ckt.add_current_source("i1", GROUND, "a", 2.0)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        assert mna.rhs(0.0)[mna.node_index["a"]] == 2.0

    def test_rhs_is_a_column_of_the_grid_excitation(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND,
                               Step(delay=1e-10, rise=2e-10))
        ckt.add_voltage_source("v2", "c", GROUND,
                               Pulse(0.0, 1.0, 5e-11, 1e-10, 1e-10, 2e-10,
                                     6e-10))
        ckt.add_current_source("i1", "a", "b",
                               PWL([(0.0, 0.0), (4e-10, 3e-3)]))
        ckt.add_current_source("i2", GROUND, "b", 1e-3)
        ckt.add_resistor("r1", "a", "b", 1.0)
        ckt.add_resistor("r2", "b", GROUND, 1.0)
        ckt.add_resistor("r3", "c", GROUND, 1.0)
        mna = build_mna(ckt)
        times = np.linspace(0.0, 1e-9, 257)
        grid = mna.excitation(times)
        assert grid.shape == (mna.size, times.size)
        for k, t in enumerate(times):
            assert mna.rhs(t).tobytes() == grid[:, k].tobytes()


class TestInitialState:
    def test_capacitor_ic_sets_node_voltage(self):
        ckt = Circuit()
        ckt.add_capacitor("c1", "a", GROUND, 1e-12, ic=0.7)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        assert mna.initial_state()[mna.node_index["a"]] == pytest.approx(0.7)

    def test_inductor_ic_sets_branch_current(self):
        ckt = Circuit()
        ckt.add_inductor("l1", "a", GROUND, 1e-9, ic=0.1)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        assert mna.initial_state()[mna.branch_index["l1"]] == pytest.approx(0.1)

    def test_default_state_is_zero(self):
        ckt = Circuit()
        ckt.add_voltage_source("v1", "a", GROUND, 1.0)
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        assert not build_mna(ckt).initial_state().any()


class TestErrors:
    def test_voltage_row_of_ground_raises(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        with pytest.raises(CircuitError, match="ground"):
            mna.voltage_row(GROUND)

    def test_voltage_row_of_unknown_node_raises(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", GROUND, 1.0)
        mna = build_mna(ckt)
        with pytest.raises(CircuitError, match="unknown node"):
            mna.voltage_row("zz")
