"""Shot/thermal variance and swept transmit-SNR tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmimo.config import NoiseConfig
from vlcmimo.noise import (BOLTZMANN, ELECTRON_CHARGE, shot_variance,
                           sigma_from_transmit_snr, thermal_variance, total_sigma)

P = NoiseConfig()


class TestShotVariance:
    def test_dark_term_only(self):
        got = shot_variance(np.zeros(4), np.zeros(4), 1.0, P)
        expected = (2.0 * ELECTRON_CHARGE * P.bandwidth_hz * P.background_current_a
                    * P.noise_bandwidth_factor_i2)  # hand computation
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert got == pytest.approx(1.80e-15, rel=1e-2, abs=0.0)

    def test_signal_term_linear(self):
        h = np.array([1e-4, 2e-4])
        x = np.array([1.0, 2.0])
        dark = shot_variance(h, np.zeros(2), 1.0, P)
        one = shot_variance(h, x, 1.0, P) - dark
        two = shot_variance(h, 2 * x, 1.0, P) - dark
        assert two == pytest.approx(2.0 * one, rel=1e-12, abs=0.0)

    def test_negative_signal_rejected(self):
        with pytest.raises(ValueError):
            shot_variance(np.ones(2), np.array([1.0, -0.5]), 1.0, P)

    @given(scale=st.floats(0.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_in_signal(self, scale):
        h = np.array([2e-4, 1e-4, 5e-5])
        x = np.array([0.5, 1.0, 2.0])
        base = shot_variance(h, np.zeros(3), 1.0, P)
        slope = shot_variance(h, x, 1.0, P) - base
        assert shot_variance(h, scale * x, 1.0, P) == pytest.approx(
            base + scale * slope, rel=1e-9, abs=1e-30)


class TestThermalVariance:
    def test_matches_two_term_hand_computation(self):
        area = 1e-4
        kt = BOLTZMANN * P.temperature_k
        term1 = 8 * math.pi * kt / P.open_loop_gain * P.capacitance_per_area_f_m2 \
            * area * P.noise_bandwidth_factor_i2 * P.bandwidth_hz**2
        term2 = 16 * math.pi**2 * kt * P.fet_noise_factor / P.fet_transconductance_s \
            * P.capacitance_per_area_f_m2**2 * area**2 * P.noise_bandwidth_factor_i3 \
            * P.bandwidth_hz**3
        got = thermal_variance(area, P)
        assert got == pytest.approx(term1 + term2, rel=1e-13, abs=0.0)
        assert got > 0.0

    def test_bandwidth_scaling_of_terms(self):
        area = 1e-4
        f1 = thermal_variance(area, P)
        b = P.bandwidth_hz
        f2 = thermal_variance(area, NoiseConfig(bandwidth_hz=2 * b))
        # f(B) = c2 B^2 + c3 B^3 -> solve the two coefficients
        c2 = (8 * f1 - f2) / (4 * b**2)
        c3 = (f2 - 4 * f1) / (4 * b**3)
        assert c2 > 0 and c3 > 0
        assert c2 * b**2 + c3 * b**3 == pytest.approx(f1, rel=1e-12, abs=0.0)

    def test_vanishes_with_area(self):
        assert thermal_variance(1e-12, P) < thermal_variance(1e-4, P) * 1e-7

    def test_positive_at_defaults(self):
        assert thermal_variance(1e-4, P) > 0.0


class TestTotalSigma:
    def test_zero(self):
        assert total_sigma(0.0, 0.0) == 0.0

    def test_pythagorean(self):
        assert total_sigma(9.0, 16.0) == pytest.approx(5.0, rel=1e-15)

    def test_symmetric(self):
        assert total_sigma(3.0, 7.0) == total_sigma(7.0, 3.0)

    def test_composes_with_sub_operations(self):
        sh = shot_variance(np.array([2e-4]), np.array([1.0]), 1.0, P)
        th = thermal_variance(1e-4, P)
        assert total_sigma(sh, th) == pytest.approx(math.sqrt(sh + th), rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            total_sigma(-1.0, 1.0)


class TestSweptSnr:
    def test_zero_db_definition(self):
        assert sigma_from_transmit_snr(0.0, 1.0, 1.0) == 1.0

    def test_twenty_db(self):
        assert sigma_from_transmit_snr(20.0, 1.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_monotone_decreasing(self):
        sigmas = [sigma_from_transmit_snr(s, 1.0, 36.0) for s in range(0, 81, 10)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_snr_round_trip(self):
        sigma = sigma_from_transmit_snr(47.3, 2.0, 5.0)
        assert 20 * math.log10(2.0 * 5.0 / sigma) == pytest.approx(47.3, rel=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_transmit_snr(10.0, 1.0, 0.0)


class TestParams:
    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(temperature_k=-1.0)
