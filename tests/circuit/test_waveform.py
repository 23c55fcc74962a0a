"""Unit tests for source waveforms."""

import numpy as np
import pytest

from repro.circuit.waveform import DC, PWL, Pulse, Step, Waveform


class TestDC:
    def test_constant(self):
        wave = DC(2.5)
        assert wave.value(0.0) == 2.5
        assert wave.value(1e9) == 2.5
        assert wave.final_value() == 2.5

    def test_satisfies_protocol(self):
        assert isinstance(DC(1.0), Waveform)


class TestStep:
    def test_ideal_step_is_right_continuous(self):
        wave = Step()
        assert wave.value(0.0) == 1.0  # zero-state-response convention
        assert wave.value(-1e-12) == 0.0
        assert wave.value(1.0) == 1.0

    def test_delayed_step(self):
        wave = Step(delay=2e-9)
        assert wave.value(1e-9) == 0.0
        assert wave.value(2e-9) == 1.0
        assert wave.value(3e-9) == 1.0

    def test_linear_rise(self):
        wave = Step(v0=0.0, v1=2.0, delay=1.0, rise=2.0)
        assert wave.value(1.0) == 0.0
        assert wave.value(2.0) == pytest.approx(1.0)
        assert wave.value(3.0) == 2.0
        assert wave.value(10.0) == 2.0

    def test_falling_step(self):
        wave = Step(v0=5.0, v1=1.0)
        assert wave.value(0.0) == 1.0
        assert wave.final_value() == 1.0

    def test_rejects_negative_timing(self):
        with pytest.raises(ValueError):
            Step(delay=-1.0)
        with pytest.raises(ValueError):
            Step(rise=-1.0)


class TestPulse:
    def test_first_period_shape(self):
        wave = Pulse(v0=0, v1=1, delay=1, rise=1, fall=1, width=2, period=10)
        assert wave.value(0.5) == 0
        assert wave.value(1.5) == pytest.approx(0.5)   # mid-rise
        assert wave.value(3.0) == 1                    # plateau
        assert wave.value(4.5) == pytest.approx(0.5)   # mid-fall
        assert wave.value(6.0) == 0                    # back low

    def test_periodicity(self):
        wave = Pulse(v0=0, v1=1, delay=0, rise=1, fall=1, width=2, period=10)
        assert wave.value(3.0) == wave.value(13.0)
        assert wave.value(0.5) == wave.value(10.5)

    def test_zero_rise_is_instant(self):
        wave = Pulse(v0=0, v1=1, delay=0, rise=0, fall=0, width=5, period=10)
        assert wave.value(0.0) == 1
        assert wave.value(4.9) == 1
        assert wave.value(5.1) == 0

    def test_rejects_period_shorter_than_pulse(self):
        with pytest.raises(ValueError, match="period"):
            Pulse(v0=0, v1=1, delay=0, rise=2, fall=2, width=2, period=5)

    def test_final_value_is_v0(self):
        wave = Pulse(v0=0.25, v1=1, delay=0, rise=1, fall=1, width=1, period=10)
        assert wave.final_value() == 0.25


class TestPWL:
    def test_interpolation(self):
        wave = PWL([(0.0, 0.0), (2.0, 4.0)])
        assert wave.value(1.0) == pytest.approx(2.0)

    def test_clamps_outside_range(self):
        wave = PWL([(1.0, 2.0), (3.0, 6.0)])
        assert wave.value(0.0) == 2.0
        assert wave.value(10.0) == 6.0
        assert wave.final_value() == 6.0

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PWL([(0.0, 0.0), (0.0, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            PWL([])

    def test_points_roundtrip(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (5.0, -1.0)]
        assert PWL(pts).points == pts


def assert_values_match_scalar(wave, times):
    """``values(times)`` is bitwise ``[value(t) for t in times]``."""
    times = np.asarray(times, dtype=float)
    vector = wave.values(times)
    scalar = np.array([wave.value(t) for t in times], dtype=float)
    assert vector.dtype == np.float64
    assert vector.shape == times.shape
    assert vector.tobytes() == scalar.tobytes()


GRID = np.linspace(0.0, 1e-9, 2001)


class TestVectorizedValues:
    def test_dc(self):
        assert_values_match_scalar(DC(0.7), GRID)
        assert_values_match_scalar(DC(1), GRID[:3])

    @pytest.mark.parametrize("wave", [
        Step(),
        Step(v0=0.2, v1=-1.5, delay=3e-10),
        Step(v0=0.0, v1=1.0, delay=1e-10, rise=3e-10),
        Step(v0=1.0, v1=0.25, rise=7e-11),
    ], ids=["ideal", "delayed", "ramped", "ramped-falling"])
    def test_step(self, wave):
        assert_values_match_scalar(wave, GRID)
        # Exactly at the edges of the delay and the ramp.
        edges = [0.0, wave.delay, wave.delay + wave.rise, 2.0 * wave.delay]
        assert_values_match_scalar(wave, edges)

    @pytest.mark.parametrize("wave", [
        Pulse(0.0, 1.0, delay=1e-10, rise=5e-11, fall=8e-11, width=3e-10,
              period=7e-10),
        Pulse(0.3, -1.0, delay=0.0, rise=0.0, fall=0.0, width=2e-10,
              period=4e-10),
        Pulse(0, 1, delay=2e-10, rise=1e-10, fall=1e-10, width=1e-10,
              period=0.0),
    ], ids=["periodic", "square", "single-shot"])
    def test_pulse(self, wave):
        assert_values_match_scalar(wave, GRID)

    def test_pulse_period_boundary_snapping(self):
        wave = Pulse(0.0, 1.0, delay=0.0, rise=0.01, fall=0.01, width=0.03,
                     period=0.1)
        times = np.linspace(0.0, 1.0, 1001)
        # The grid lands cycle boundaries at period − ulp, which value()
        # snaps back to the cycle start; values() must snap the same ones.
        snapped = [t for t in times
                   if 0.0 < 0.1 - t % 0.1 < 1e-9 * 0.1]
        assert snapped
        assert_values_match_scalar(wave, times)
        assert wave.values(np.array(snapped)).tolist() == [0.0] * len(snapped)

    def test_pwl_at_between_and_beyond_breakpoints(self):
        points = [(1e-10, 0.0), (3e-10, 1.0), (4e-10, 1.0), (7e-10, -0.4)]
        wave = PWL(points)
        breakpoints = [t for t, _ in points]
        between = [2e-10, 3.5e-10, 5.5e-10]
        beyond = [0.0, 5e-11, 8e-10, 1.0]
        assert_values_match_scalar(wave, breakpoints + between + beyond)
        assert_values_match_scalar(wave, GRID)
        assert_values_match_scalar(PWL([(2e-10, 0.6)]), GRID)
