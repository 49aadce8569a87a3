import math
import warnings

import numpy as np
import pytest

from qamlink.channel import (
    ChannelSpec,
    complex_noise,
    friis_received_power,
    noise_floor,
    noise_generator,
    path_gain_db,
)

PAPER_CHANNEL = ChannelSpec(frequency_hz=5e9, distance_m=1.79)


class TestChannelSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ChannelSpec(frequency_hz=0.0, distance_m=1.0)
        with pytest.raises(ValueError):
            ChannelSpec(frequency_hz=5e9, distance_m=0.0)

    @pytest.mark.parametrize("field", ["frequency_hz", "distance_m",
                                       "tx_antenna_gain_db", "rx_antenna_gain_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        fields = dict(frequency_hz=5e9, distance_m=1.79)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChannelSpec(**fields)


class TestFriis:
    def test_published_operating_point(self):
        p_rx = friis_received_power(23.31, PAPER_CHANNEL)
        assert p_rx == pytest.approx(-28.2, abs=0.15)
        assert p_rx == pytest.approx(-28.174243928201616, abs=1e-9)

    def test_zero_path_loss_distance(self):
        lam = 299792458.0 / 5e9
        spec = ChannelSpec(frequency_hz=5e9, distance_m=lam / (4 * math.pi))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert friis_received_power(10.0, spec) == pytest.approx(10.0, abs=1e-9)

    def test_inverse_square_law(self):
        near = friis_received_power(20.0, ChannelSpec(5e9, 4.0))
        far = friis_received_power(20.0, ChannelSpec(5e9, 8.0))
        assert near - far == pytest.approx(6.0206, abs=1e-4)

    def test_decade_costs_exactly_20db(self):
        for d in (1.0, 3.7, 12.0):
            a = friis_received_power(0.0, ChannelSpec(5e9, d))
            b = friis_received_power(0.0, ChannelSpec(5e9, 10.0 * d))
            assert a - b == pytest.approx(20.0, abs=1e-9)

    def test_antenna_gains_add(self):
        base = friis_received_power(0.0, ChannelSpec(5e9, 5.0))
        gained = friis_received_power(
            0.0, ChannelSpec(5e9, 5.0, tx_antenna_gain_db=6.0, rx_antenna_gain_db=3.0))
        assert gained - base == pytest.approx(9.0, abs=1e-9)

    def test_near_field_warning(self):
        lam = 299792458.0 / 5e9
        with pytest.warns(UserWarning, match="far-field"):
            path_gain_db(ChannelSpec(5e9, 5.0 * lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path_gain_db(ChannelSpec(5e9, 20.0 * lam))  # no warning


class TestNoiseFloor:
    def test_definition(self):
        assert noise_floor(1.0, 0.0) == -174.0

    def test_paper_bandwidth(self):
        assert noise_floor(250e6, 0.0) == pytest.approx(-90.02059991327963, abs=1e-9)
        assert noise_floor(250e6, 6.24) == pytest.approx(-83.78059991327963, abs=1e-9)

    def test_linear_in_nf(self):
        for nf in (0.0, 3.3, 9.9):
            assert noise_floor(1e6, nf + 1.0) - noise_floor(1e6, nf) == pytest.approx(
                1.0, abs=1e-12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_floor(0.0, 3.0)


class TestAwgn:
    def test_noise_power_calibration(self):
        """1e6 samples of 0.1 W noise (unit-power symbols at 10 dB SNR)."""
        noise = complex_noise(noise_generator(2, 0), 1_000_000, 0.1)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.1, abs=0.001)

    def test_same_seed_bit_identical(self):
        var = 10.0 ** (-5.0 / 10.0)
        a = complex_noise(noise_generator(7, 0), 4096, var)
        b = complex_noise(noise_generator(7, 0), 4096, var)
        np.testing.assert_array_equal(a, b)
        c = complex_noise(noise_generator(7, 1), 4096, var)
        assert not np.array_equal(a, c)

    def test_zero_mean(self):
        n = 1_000_000
        out = complex_noise(noise_generator(3, 0), n, 1.0)
        sigma = math.sqrt(1.0 / 2.0)
        assert abs(np.mean(out.real)) < 4 * sigma / math.sqrt(n)
        assert abs(np.mean(out.imag)) < 4 * sigma / math.sqrt(n)

    def test_real_imag_variance_balance(self):
        n = 1_000_000
        out = complex_noise(noise_generator(4, 0), n, 1.0)
        v_re = np.var(out.real)
        v_im = np.var(out.imag)
        assert v_re / v_im == pytest.approx(1.0, rel=0.01)


class TestNoiseGenerator:
    def test_streams_are_independent_and_reproducible(self):
        a = noise_generator(1, 0).standard_normal(8)
        b = noise_generator(1, 0).standard_normal(8)
        c = noise_generator(1, 1).standard_normal(8)
        d = noise_generator(2, 0).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_seed_and_stream_are_keyed_apart(self):
        """A key that packs (seed, stream) into one word list would give
        (2**32 + 1, 0) and (1, 1) the same entropy words."""
        a = noise_generator(2**32 + 1, 0).standard_normal(8)
        b = noise_generator(1, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(noise_generator(-7, 3).standard_normal(8),
                                      noise_generator(-7, 3).standard_normal(8))
