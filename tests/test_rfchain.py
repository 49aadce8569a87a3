import math
from pathlib import Path

import numpy as np
import pytest

from qamlink.channel import complex_noise, noise_floor, noise_generator
from qamlink import rfchain
from qamlink.config import default_rx_stages, default_tx_stages, load_config
from qamlink.rfchain import (
    MAX_GAIN_DB,
    ChainSpec,
    StageSpec,
    amplifier_transfer,
    cascade,
    chain_transfer,
    oip3_from_p1db,
    stage_added_noise_watts,
)
from qamlink.units import db_to_linear, dbm_to_watts, watts_to_dbm

LNA = StageSpec("lna", gain_db=13.0, nf_db=1.5)
PA = StageSpec("pa", gain_db=32.0, nf_db=5.0, p1db_out_dbm=32.0)
BOM_RX = ChainSpec(tuple(default_rx_stages()))
PAPER_CFG = Path(__file__).resolve().parent.parent / "paper.cfg"


def brute_force_cascade(stages):
    """Friis formula evaluated directly in linear units."""
    f_total = db_to_linear(stages[0].nf_db)
    g = db_to_linear(stages[0].gain_db)
    for stage in stages[1:]:
        f_total += (db_to_linear(stage.nf_db) - 1.0) / g
        g *= db_to_linear(stage.gain_db)
    return 10.0 * math.log10(f_total), 10.0 * math.log10(g)


class TestStageSpec:
    def test_rejects_negative_nf(self):
        with pytest.raises(ValueError):
            StageSpec("bad", gain_db=10.0, nf_db=-0.1)

    @pytest.mark.parametrize("p1db", [math.nan, math.inf])
    def test_rejects_non_finite_p1db(self, p1db):
        with pytest.raises(ValueError, match=r"p1db_out_dbm must be within \[-500, 500\] dBm"):
            StageSpec("bad", gain_db=10.0, nf_db=1.0, p1db_out_dbm=p1db)

    @pytest.mark.parametrize("p1db", [-500.5, 500.5, -4000.0, 4000.0])
    def test_rejects_p1db_beyond_bound(self, p1db):
        """10^(P1dB/10) under- or overflowed in _polynomial_coefficients."""
        with pytest.raises(ValueError, match="p1db_out_dbm must be within"):
            StageSpec("bad", gain_db=10.0, nf_db=1.0, p1db_out_dbm=p1db)
        for edge in (-MAX_GAIN_DB, MAX_GAIN_DB):
            assert StageSpec("ok", 10.0, 1.0, edge).p1db_out_dbm == edge

    def test_passive_helper_sets_nf_to_loss(self):
        stage = StageSpec.passive("filter", loss_db=3.0)
        assert stage.gain_db == -3.0
        assert stage.nf_db == 3.0
        with pytest.raises(ValueError):
            StageSpec.passive("filter", loss_db=-1.0)

    def test_linearized_drops_compression(self):
        assert PA.is_nonlinear
        assert not PA.linearized().is_nonlinear

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(())

    def test_gain_through_every_stage_is_bounded(self):
        """The gain from the chain input through each stage lies within
        +-MAX_GAIN_DB, where the cascade stays finite and nonzero; the BOM
        chains sit far inside it."""
        assert MAX_GAIN_DB == 500.0
        for gains in ((500.0,), (-500.0,), (400.0, 100.0, -1000.0), (-250.0, 750.0)):
            chain = ChainSpec(tuple(StageSpec(f"s{i}", g, 1.0) for i, g in enumerate(gains)))
            result = cascade(chain)
            assert math.isfinite(result.total_nf_db) and result.total_nf_db > 0.0
        for gains, bad in (((500.5,), "s0"), ((-400.0, -100.5), "s1"),
                           ((400.0, 101.0, -10.0), "s1")):
            with pytest.raises(ValueError, match=f"stage '{bad}': gain_db summed"):
                ChainSpec(tuple(StageSpec(f"s{i}", g, 1.0) for i, g in enumerate(gains)))
        ChainSpec(tuple(default_rx_stages()))
        ChainSpec(tuple(default_tx_stages()))

    @pytest.mark.parametrize("nf_db", [500.5, math.inf, math.nan])
    def test_rejects_noise_figure_beyond_bound(self, nf_db):
        with pytest.raises(ValueError, match=r"noise figure must be within \[0, 500\] dB"):
            StageSpec("bad", gain_db=10.0, nf_db=nf_db)
        assert StageSpec("ok", gain_db=10.0, nf_db=500.0).nf_db == 500.0


class TestCascade:
    def test_single_stage_identity(self):
        result = cascade(ChainSpec((LNA,)))
        assert result.total_nf_db == pytest.approx(1.5, abs=1e-12)
        assert result.total_gain_db == pytest.approx(13.0, abs=1e-12)

    def test_bom_receive_chain(self):
        """Hand evaluation: F = 1.995 + 0.413/0.501 + 11.303/10.0 -> 5.96 dB."""
        result = cascade(BOM_RX)
        assert result.total_nf_db == pytest.approx(5.964488277002962, abs=1e-9)
        assert result.total_gain_db == pytest.approx(17.0, abs=1e-12)

    def test_matches_brute_force_on_random_chains(self):
        """About a third of the stages compress; the Friis figure ignores it."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            stages = tuple(
                StageSpec(f"s{i}", gain_db=float(rng.uniform(-10, 30)),
                          nf_db=float(rng.uniform(0, 12)),
                          p1db_out_dbm=float(rng.uniform(-10, 40))
                          if rng.random() < 1 / 3 else None)
                for i in range(rng.integers(2, 6)))
            got = cascade(ChainSpec(stages))
            nf, gain = brute_force_cascade(stages)
            assert got.total_nf_db == pytest.approx(nf, abs=1e-9)
            assert got.total_gain_db == pytest.approx(gain, abs=1e-9)

    def test_unity_stage_does_not_change_nf(self):
        base = cascade(BOM_RX).total_nf_db
        extended = ChainSpec(BOM_RX.stages + (StageSpec("unity", 0.0, 0.0),))
        assert cascade(extended).total_nf_db == base

    def test_nf_monotone_in_any_stage_nf(self):
        base = cascade(BOM_RX).total_nf_db
        for i in range(3):
            stages = list(BOM_RX.stages)
            bumped = StageSpec(stages[i].name, stages[i].gain_db,
                               stages[i].nf_db + 1.0)
            stages[i] = bumped
            assert cascade(ChainSpec(tuple(stages))).total_nf_db > base

    def test_large_first_gain_pins_nf_to_first_stage(self):
        first = StageSpec("big", gain_db=60.0, nf_db=2.0)
        second = StageSpec("noisy", gain_db=10.0, nf_db=12.0)
        total = cascade(ChainSpec((first, second))).total_nf_db
        assert total == pytest.approx(2.0, abs=0.05)


class TestIntercept:
    def test_oip3_published_values(self):
        assert oip3_from_p1db(32.0) == 42.6
        assert oip3_from_p1db(30.946) == 41.546
        assert oip3_from_p1db(0.0) == 10.6


class TestAmplifier:
    def test_linear_stage_is_pure_gain(self):
        x = np.array([0.1 + 0.2j, -0.3j])
        y = amplifier_transfer(x, LNA)
        np.testing.assert_allclose(y, x * 10 ** (13 / 20), rtol=1e-12)

    def test_small_signal_gain(self):
        """40 dB below the compression input the gain is the nameplate value."""
        a_1db = self._input_amplitude_at_1db()
        x = a_1db * 1e-2  # 40 dB back
        gain_db = 20 * math.log10(abs(amplifier_transfer(x + 0j, PA)) / x)
        assert gain_db == pytest.approx(32.0, abs=0.01)

    def _input_amplitude_at_1db(self):
        """Solve for the 1 dB compression input by bisection on the transfer
        itself; independent of the coefficient bookkeeping inside."""
        a1 = 10 ** (32.0 / 20.0)
        lo, hi = 1e-6, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            drop = 20 * math.log10(a1 * mid / abs(amplifier_transfer(mid + 0j, PA)))
            if drop < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_output_power_at_compression_point(self):
        a_1db = self._input_amplitude_at_1db()
        out = abs(amplifier_transfer(a_1db + 0j, PA))
        assert watts_to_dbm(out ** 2) == pytest.approx(32.0, abs=0.05)

    def test_phase_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.001, 3.0, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
        y = amplifier_transfer(x, PA)
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)

    def test_matches_masked_divide_formula(self):
        """Drives from 0.1x to 5x the polynomial's peak input, 0% to 98%
        clipped, and a 0-d input give the masked-divide form bit for bit."""
        a1, a3 = rfchain._polynomial_coefficients(PA)
        peak_in = math.sqrt(a1 / (3.0 * a3))

        def masked_divide(x):
            env = np.abs(x)
            shrink = np.ones_like(env)
            np.divide(peak_in, env, out=shrink, where=env > peak_in)
            clipped = env * shrink
            return (a1 - a3 * clipped * clipped) * shrink * x

        rng = np.random.default_rng(9)
        x = complex_noise(rng, 32768, 1.0)
        for drive in (0.1, 0.5, 1.0, 2.0, 5.0):
            scaled = drive * peak_in * x
            np.testing.assert_array_equal(amplifier_transfer(scaled, PA),
                                          masked_divide(scaled))
        edges = np.array([0.0, peak_in, np.nextafter(peak_in, np.inf), 3.0 * peak_in])
        np.testing.assert_array_equal(amplifier_transfer(edges + 0j, PA),
                                      masked_divide(edges + 0j))
        for value in (0.3 * peak_in, 2.0 * peak_in):
            y = amplifier_transfer(value * (1 - 1j), PA)
            assert isinstance(y, complex)
            assert y == masked_divide(np.complex128(value * (1 - 1j)))

    def test_gain_in_one_array_rounds_as_the_expression(self):
        """The gain built in one array equals a1 - a3 * env * env bit for bit,
        driven below, at and past the polynomial's peak input (the clip
        branch), for 1-D, 2-D and 0-d input, signed zeros included."""
        a1, a3 = rfchain._polynomial_coefficients(PA)
        peak_in = math.sqrt(a1 / (3.0 * a3))

        def expression_form(x):
            flat = x.reshape(-1)
            env = np.abs(flat)
            gain = a1 - a3 * env * env
            clip = np.flatnonzero(env > peak_in)
            shrink = peak_in / env[clip]
            clipped = env[clip] * shrink
            gain[clip] = (a1 - a3 * clipped * clipped) * shrink
            return (gain * flat).reshape(x.shape)

        def bits(y):
            return np.asarray(y, dtype=np.complex128).reshape(-1).view(np.int64)

        rng = np.random.default_rng(21)
        x = complex_noise(rng, 32768, 1.0)
        x[:4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
        inputs = [drive * peak_in * x for drive in (0.05, 0.3, 1.0, 3.0)]
        inputs.append(np.array([peak_in, np.nextafter(peak_in, 0.0),
                                np.nextafter(peak_in, np.inf), 3.0 * peak_in]) + 0j)
        inputs.append(0.8 * peak_in * x.reshape(64, 512))
        for sample in inputs:
            y = amplifier_transfer(sample, PA)
            assert y.shape == sample.shape
            np.testing.assert_array_equal(bits(y), bits(expression_form(sample)))
        for value in (0.3 * peak_in * (1 - 1j), 2.0 * peak_in * (1 - 1j)):
            y = amplifier_transfer(value, PA)
            assert isinstance(y, complex)
            np.testing.assert_array_equal(bits(y),
                                          bits(expression_form(np.complex128(value))))

    def test_envelope_monotone_and_clipped(self):
        amps = np.linspace(0.0, 5.0, 4000)
        out = np.abs(amplifier_transfer(amps + 0j, PA))
        assert np.all(np.diff(out) >= -1e-12)
        # deep saturation: flat output
        assert out[-1] == pytest.approx(np.max(out), rel=1e-12)

    def test_two_tone_im3_matches_formula(self):
        """FFT of a two-tone test through the polynomial vs the two-tone
        relation IM3 gap = 2 (OIP3 - P), with each tone backed off 10.6 dB
        from P1dB."""
        n = 4096
        t = np.arange(n)
        k1, k2 = 200, 230
        a1 = 10 ** (32.0 / 20.0)
        amp = math.sqrt(dbm_to_watts(32.0 - 10.6)) / a1
        x = amp * (np.exp(2j * np.pi * k1 * t / n) + np.exp(2j * np.pi * k2 * t / n))
        spectrum = np.fft.fft(amplifier_transfer(x, PA)) / n
        p_fund = watts_to_dbm(abs(spectrum[k1]) ** 2)
        p_im3 = watts_to_dbm(abs(spectrum[2 * k1 - k2]) ** 2)
        expected = 2.0 * (oip3_from_p1db(32.0) - p_fund)
        assert p_fund - p_im3 == pytest.approx(expected, abs=1.0)


class TestStageNoise:
    def test_noiseless_stage_only_amplifies(self):
        stage = StageSpec("ideal", gain_db=13.0, nf_db=0.0)
        out = watts_to_dbm(dbm_to_watts(-90.0) * db_to_linear(13.0)
                           + stage_added_noise_watts(stage, 1e6))
        assert out == pytest.approx(-77.0, abs=1e-12)
        assert stage_added_noise_watts(stage, 1e6) == 0.0

    def test_added_noise_term(self):
        out = watts_to_dbm(dbm_to_watts(noise_floor(250e6, 0.0)) * db_to_linear(13.0)
                           + stage_added_noise_watts(LNA, 250e6))
        # thermal in, so output noise is floor + gain + NF by definition
        assert out == pytest.approx(noise_floor(250e6, 0.0) + 13.0 + 1.5, abs=1e-9)

    @pytest.mark.parametrize("bandwidth_hz", [1e6, 125e6, 250e6])
    def test_added_noise_takes_ktb_from_the_channel_floor(self, bandwidth_hz):
        """kTB is the thermal floor of channel.noise_floor at NF 0 dB, the
        same value the link budget and the calibrated noise use, to the bit."""
        ktb_w = dbm_to_watts(noise_floor(bandwidth_hz, 0.0))
        for stage in (LNA, *BOM_RX.stages):
            expected = ktb_w * (db_to_linear(stage.nf_db) - 1.0) * db_to_linear(stage.gain_db)
            assert stage_added_noise_watts(stage, bandwidth_hz) == expected, stage.name

    def test_single_stage_composite_nf_monte_carlo(self):
        bw = 250e6
        ktb_w = dbm_to_watts(noise_floor(bw, 0.0))
        x = complex_noise(noise_generator(7, 0), 500_000, ktb_w)
        y = chain_transfer(x, ChainSpec((LNA,)), bw, noise_generator(7, 1))
        f_meas = np.mean(np.abs(y) ** 2) / (ktb_w * db_to_linear(13.0))
        assert 10 * math.log10(f_meas) == pytest.approx(1.5, abs=0.1)

    def test_full_chain_composite_nf_matches_cascade(self):
        bw = 250e6
        ktb_w = dbm_to_watts(noise_floor(bw, 0.0))
        x = complex_noise(noise_generator(7, 2), 1_000_000, ktb_w)
        y = chain_transfer(x, BOM_RX, bw, noise_generator(7, 3))
        result = cascade(BOM_RX)
        f_meas = np.mean(np.abs(y) ** 2) / (ktb_w * db_to_linear(result.total_gain_db))
        assert 10 * math.log10(f_meas) == pytest.approx(result.total_nf_db, abs=0.2)


class CountingRng:
    """numpy Generator stand-in that counts the N(0, 1) samples drawn."""

    def __init__(self, seed):
        self._rng = noise_generator(seed, 0)
        self.samples = 0

    def standard_normal(self, shape):
        out = self._rng.standard_normal(shape)
        self.samples += out.size
        return out


class TestMergedNoise:
    """One noise draw per maximal run of linear stages."""

    BW = 250e6
    N = 10_000

    def _complex_draws(self, chain, input_noise_watts=0.0):
        rng = CountingRng(1)
        x = np.full(self.N, 1e-3 + 0j)
        chain_transfer(x, chain, self.BW, rng, input_noise_watts)
        assert rng.samples % (2 * self.N) == 0
        return rng.samples // (2 * self.N)

    def test_paper_chains_draw_twice(self):
        cfg = load_config(str(PAPER_CFG))
        ktb_w = dbm_to_watts(noise_floor(self.BW, 0.0))
        # before the PA, and at the TX output
        assert self._complex_draws(ChainSpec(tuple(cfg.tx_stages))) == 2
        # channel + RX filter before the LNA, LNA + demodulator at the output
        assert self._complex_draws(ChainSpec(tuple(cfg.rx_stages)), ktb_w) == 2

    def test_linearized_chain_draws_once(self):
        ktb_w = dbm_to_watts(noise_floor(self.BW, 0.0))
        assert self._complex_draws(ChainSpec(tuple(default_tx_stages())).linearized()) == 1
        assert self._complex_draws(BOM_RX.linearized(), ktb_w) == 1

    def test_no_rng_means_no_noise(self):
        x = np.array([1e-3 + 0j, -2e-3j])
        expected = x * 10 ** (17.0 / 20.0)
        y = chain_transfer(x, BOM_RX.linearized(), self.BW, None, 1.0)
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_noise_only_output_variance_matches_sum(self):
        """Zero signal plus kTB at the input of the paper RX chain: output
        variance is sum_i g_i^2 sigma_i^2 over the input and every stage."""
        ktb_w = dbm_to_watts(noise_floor(self.BW, 0.0))
        y = chain_transfer(np.zeros(1_000_000, dtype=complex), BOM_RX, self.BW,
                           noise_generator(11, 0), ktb_w)
        sources = [(ktb_w, 0)] + [(stage_added_noise_watts(s, self.BW), i + 1)
                                  for i, s in enumerate(BOM_RX.stages)]
        expected = sum(
            var * db_to_linear(sum(s.gain_db for s in BOM_RX.stages[first:]))
            for var, first in sources)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(expected, rel=0.02)


def whole_array_chain(x, chain, bandwidth_hz, rng, input_noise_watts):
    """The folded chain applied to whole arrays: each run's gain and one
    noise draw of the full length, then its compressing stage."""
    y = np.asarray(x, dtype=complex)
    gain = 1.0
    noise_w = input_noise_watts if rng is not None else 0.0

    def run(y):
        if gain != 1.0:
            y = y * gain
        if noise_w > 0.0:
            y = y + complex_noise(rng, y.shape, noise_w)
        return y

    for stage in chain.stages:
        if stage.is_nonlinear:
            y = amplifier_transfer(run(y), stage)
            gain, noise_w = 1.0, 0.0
        else:
            g = 10.0 ** (stage.gain_db / 20.0)
            gain *= g
            noise_w *= g * g
        if rng is not None:
            noise_w += stage_added_noise_watts(stage, bandwidth_hz)
    return run(y)


class TestChunkedChain:
    """chain_transfer works in place; its output must equal the whole-array
    fold bit for bit, noise draws included, at sizes around 32,768 samples,
    a Monte-Carlo block's instants."""

    BW = 250e6
    C = 32768

    # drives that push the PA and the LNA well into compression
    CHAINS = {"tx": (lambda cfg: cfg.tx_stages, 0.0, 0.0),
              "rx": (lambda cfg: cfg.rx_stages, -10.0, dbm_to_watts(noise_floor(BW, 0.0)))}

    @pytest.mark.parametrize("size", [0, 1, C - 1, C, C + 1, 3 * C + 5])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_matches_whole_array_fold(self, side, noisy, size):
        stages, drive_dbm, input_noise_watts = self.CHAINS[side]
        chain = ChainSpec(tuple(stages(load_config(str(PAPER_CFG)))))
        base = complex_noise(noise_generator(3, size), 3 * size, dbm_to_watts(drive_dbm))
        for x in (base[:size], base[::3]):
            rngs = [noise_generator(5, 1) if noisy else None for _ in range(2)]
            expected = whole_array_chain(x.copy(), chain, self.BW, rngs[1],
                                         input_noise_watts)
            y = chain_transfer(x, chain, self.BW, rngs[0], input_noise_watts)
            assert y.shape == (size,)
            np.testing.assert_array_equal(y, expected)
            # transformed in place
            assert size == 0 or np.shares_memory(y, x)
