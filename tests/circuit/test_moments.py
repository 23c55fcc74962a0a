"""Unit tests for moment (AWE) analysis."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.circuit.moments import (
    elmore_from_moments,
    node_moments,
    two_pole_delay,
)
from repro.circuit.netlist import GROUND, Circuit
from repro.circuit.waveform import Step


def rc_ladder(r1=1e3, c1=1e-12, r2=2e3, c2=2e-12) -> Circuit:
    ckt = Circuit("ladder")
    ckt.add_voltage_source("vin", "in", GROUND, Step())
    ckt.add_resistor("r1", "in", "a", r1)
    ckt.add_capacitor("ca", "a", GROUND, c1)
    ckt.add_resistor("r2", "a", "b", r2)
    ckt.add_capacitor("cb", "b", GROUND, c2)
    return ckt


class TestNodeMoments:
    def test_m0_is_dc_solution(self):
        moments = node_moments(rc_ladder(), count=2)
        assert moments["a"][0] == pytest.approx(1.0, abs=1e-6)
        assert moments["b"][0] == pytest.approx(1.0, abs=1e-6)

    def test_first_moment_gives_elmore_ladder(self):
        r1, c1, r2, c2 = 1e3, 1e-12, 2e3, 2e-12
        moments = node_moments(rc_ladder(r1, c1, r2, c2), count=2)
        assert elmore_from_moments(moments["a"]) == pytest.approx(
            r1 * (c1 + c2), rel=1e-6)
        assert elmore_from_moments(moments["b"]) == pytest.approx(
            r1 * (c1 + c2) + r2 * c2, rel=1e-6)

    def test_single_rc_moments_are_powers_of_tau(self):
        ckt = Circuit()
        ckt.add_voltage_source("vin", "in", GROUND, Step())
        ckt.add_resistor("r1", "in", "out", 1e3)
        ckt.add_capacitor("c1", "out", GROUND, 1e-12)
        tau = 1e-9
        m = node_moments(ckt, count=4)["out"]
        # H(s) = 1/(1+tau s) -> moments alternate (-tau)^k.
        for k in range(4):
            assert m[k] == pytest.approx((-tau) ** k, rel=1e-6)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            node_moments(rc_ladder(), count=0)


class TestElmoreFromMoments:
    def test_requires_two_moments(self):
        with pytest.raises(ValueError, match="two moments"):
            elmore_from_moments(np.array([1.0]))

    def test_zero_m0_rejected(self):
        with pytest.raises(ValueError, match="m0"):
            elmore_from_moments(np.array([0.0, 1.0]))


class TestTwoPoleDelay:
    def test_single_pole_exact(self):
        # For a true single-pole response the two-pole fit degenerates and
        # must still return tau*ln2.
        tau = 1e-9
        moments = np.array([1.0, -tau, tau * tau])
        delay = two_pole_delay(moments, fraction=0.5)
        assert delay == pytest.approx(tau * math.log(2.0), rel=1e-6)

    def test_matches_simulation_on_ladder(self):
        from repro.circuit.transient import transient
        from repro.circuit.measure import delay_to_fraction

        ckt = rc_ladder()
        moments = node_moments(ckt, count=3)
        estimate = two_pole_delay(moments["b"])
        result = transient(ckt, t_stop=50e-9, num_steps=4000)
        measured = delay_to_fraction(result.times, result.voltage("b"), 1.0)
        assert estimate == pytest.approx(measured, rel=0.05)

    def test_beats_elmore_on_ladder(self):
        from repro.circuit.transient import transient
        from repro.circuit.measure import delay_to_fraction

        ckt = rc_ladder()
        moments = node_moments(ckt, count=3)["b"]
        result = transient(ckt, t_stop=50e-9, num_steps=4000)
        measured = delay_to_fraction(result.times, result.voltage("b"), 1.0)
        err_two_pole = abs(two_pole_delay(moments) - measured)
        err_elmore = abs(elmore_from_moments(moments) - measured)
        assert err_two_pole < err_elmore

    def test_fraction_monotonicity(self):
        moments = node_moments(rc_ladder(), count=3)["b"]
        d25 = two_pole_delay(moments, fraction=0.25)
        d50 = two_pole_delay(moments, fraction=0.5)
        d90 = two_pole_delay(moments, fraction=0.9)
        assert d25 < d50 < d90

    def test_requires_three_moments(self):
        with pytest.raises(ValueError, match="three moments"):
            two_pole_delay(np.array([1.0, -1e-9]))

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            two_pole_delay(np.array([1.0, -1e-9, 1e-18]), fraction=fraction)


class TestLazyOptimizeImport:
    def test_cli_and_daemon_do_not_import_scipy_optimize(self):
        """``scipy.optimize`` costs about a quarter second of start-up;
        only the two-pole root-find needs it, so it loads on first use."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        probe = ("import sys, repro.cli, repro.service.daemon; "
                 "print(sorted(m for m in sys.modules"
                 " if m.startswith('scipy.optimize')))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": src}).stdout
        assert out.strip() == "[]"
