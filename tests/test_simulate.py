import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qamlink
from qamlink import cli, rfchain, simulate
from qamlink.channel import complex_noise, friis_received_power, noise_generator
from qamlink.config import RunConfig, load_config
from qamlink.modem import SUPPORTED_ORDERS, build_constellation, demap_hard, theoretical_ber
from qamlink.rfchain import cascade
from qamlink.units import THERMAL_NOISE_DBM_PER_HZ, dbm_to_watts
from qamlink.simulate import (
    estimate_spectrum,
    gaussian_taps,
    pulse_shape,
    run_link_sim,
    transmit_waveform,
    welch_psd,
    wilson_interval,
    worker_count,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = REPO_ROOT / "paper.cfg"
QPSK_CFG = REPO_ROOT / "qpsk.cfg"


def calibration_config(order=4, ebn0_db=7.0, n_bits=200_000, seed=1, **overrides):
    cfg = RunConfig()
    cfg.modulation_order = order
    cfg.pulse_shape = "rectangular"
    cfg.samples_per_symbol = 2
    cfg.ebn0_override_db = None
    cfg.rx_nf_override_db = None
    cfg.n_bits = n_bits
    cfg.seed = seed
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.sim_config(calibration_ebn0_db=ebn0_db, pa_linear=True)


def tx_noise_var_w(config):
    """The TX chain's white-noise variance in a thermal run's spectrum window."""
    return rfchain.output_noise_watts(config.tx_chain, config.scenario.bandwidth_hz)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for k, n in ((0, 100), (5, 1000), (999, 1000), (1, 7)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_zero_errors_has_meaningful_upper_bound(self):
        lo, hi = wilson_interval(0, 10_000_000)
        assert lo == 0.0
        assert hi == pytest.approx(3.8414573450141057e-07, rel=1e-9)

    def test_frozen_value(self):
        lo, hi = wilson_interval(5, 1000)
        assert lo == pytest.approx(0.0021375355273244596, rel=1e-9)
        assert hi == pytest.approx(0.011650955373375111, rel=1e-9)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestPulseShaping:
    def test_gaussian_taps_unit_dc_and_symmetric(self):
        for bt in (0.3, 0.5, 1.0):
            taps = gaussian_taps(bt, 8)
            assert taps.sum() == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=0)

    def test_gaussian_taps_rejects_bad_bt(self):
        with pytest.raises(ValueError):
            gaussian_taps(0.0, 8)

    def test_rectangular_hold(self):
        config = calibration_config()
        held = pulse_shape(np.array([1 + 0j]), simulate._SymbolRatePulse.of(config))
        np.testing.assert_array_equal(held, np.ones(2, dtype=complex))

    def test_isolated_symbol_peaks_at_sampling_instant(self):
        """The filtered hold is symmetric about sps//2 into the symbol."""
        cfg = RunConfig()
        cfg.gaussian_bt = 0.5
        config = cfg.sim_config()
        symbols = np.zeros(5, dtype=complex)
        symbols[2] = 1.0
        wave = np.abs(pulse_shape(symbols, simulate._SymbolRatePulse.of(config)))
        center = 2 * 8 + 4
        assert np.argmax(wave) == center
        np.testing.assert_allclose(wave[center - 4:center], wave[center + 4:center:-1],
                                   rtol=1e-12)

    def test_lower_bt_slews_less(self):
        symbols = np.array([1.0, -1.0] * 64, dtype=complex)
        cfg = RunConfig()
        slews = []
        for bt in (0.3, 1.0):
            cfg.gaussian_bt = bt
            wave = pulse_shape(symbols, simulate._SymbolRatePulse.of(cfg.sim_config()))
            slews.append(np.max(np.abs(np.diff(wave))))
        assert slews[0] < slews[1]


def serial_welch(samples, sample_rate_hz, segment_len):
    """welch_psd as a serial loop over 256-segment chunks, summing each
    chunk's periodograms into one running total."""
    step = segment_len - segment_len // 2
    segments = np.lib.stride_tricks.sliding_window_view(samples, segment_len)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    power = np.zeros(segment_len)
    for start in range(0, len(segments), 256):
        spectra = np.fft.fft(segments[start:start + 256] * window, axis=1)
        power += np.sum(spectra.real ** 2 + spectra.imag ** 2, axis=0)
    density = power / (len(segments) * sample_rate_hz * np.sum(window ** 2))
    freqs = np.fft.fftfreq(segment_len, 1.0 / sample_rate_hz)
    return np.fft.fftshift(freqs), np.fft.fftshift(density)


class TestSpectrumEstimate:
    def test_single_tone_peak_location(self):
        fs = 1e9
        t = np.arange(1 << 16)
        freqs, density = welch_psd(np.exp(2j * np.pi * 0.123 * t), fs, 1024)
        bin_width = freqs[1] - freqs[0]
        peak_freq = freqs[np.argmax(density)]
        assert abs(peak_freq - 0.123 * fs) <= bin_width

    def test_white_noise_is_flat(self):
        """64 half-overlapping segments keep every bin within 1.5 dB of the
        mean level for this frozen draw."""
        x = complex_noise(noise_generator(2, 0), (65 * 64) // 2, 1.0)
        _, density = welch_psd(x, 1.0, 64)
        db = 10.0 * np.log10(density)
        assert np.abs(db - db.mean()).max() <= 1.5

    def test_frequencies_span_sampling_band(self):
        x = complex_noise(noise_generator(0, 0), 4096, 1.0)
        fs = 8e6
        psd = estimate_spectrum(x, fs)
        # 512-sample segments; below 1024 samples, the largest power of two
        # that fits twice
        assert psd.shape[0] == 512
        assert estimate_spectrum(x[:100], fs).shape[0] == 32
        assert psd[0, 0] == pytest.approx(-fs / 2, rel=1e-9)
        assert psd[-1, 0] < fs / 2
        assert np.max(psd[:, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_welch_psd_parseval(self):
        x = complex_noise(noise_generator(5, 0), 1 << 17, 2.5)
        freqs, density = welch_psd(x, 8.0, 512)
        integral = np.sum(density) * (8.0 / 512)
        assert integral == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.01)

    @pytest.mark.parametrize("segment_len", [64, 512, 2048])
    def test_welch_psd_matches_scipy(self, segment_len):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(segment_len)
        x = rng.standard_normal(300_001) + 1j * rng.standard_normal(300_001)
        freqs, density = welch_psd(x, 3.0, segment_len)
        ref_freqs, ref_density = signal.welch(
            x, fs=3.0, window="hann", nperseg=segment_len,
            noverlap=segment_len // 2, detrend=False, return_onesided=False,
            scaling="density")
        np.testing.assert_array_equal(freqs, np.fft.fftshift(ref_freqs))
        np.testing.assert_allclose(density, np.fft.fftshift(ref_density), rtol=1e-12)

    @pytest.mark.parametrize("n_segments", [3, 255, 256, 512, 4095])
    def test_welch_psd_matches_serial_chunk_loop(self, n_segments):
        """The in-place chunk kernel's sums, added in chunk order, equal the
        serial loop over windowed copies bit for bit, whether or not the
        segments fill whole chunks (4,095 segments are the 1 M-sample
        spectrum window's)."""
        segment_len = 512
        x = complex_noise(noise_generator(n_segments, 0),
                          (n_segments + 1) * segment_len // 2 + 7, 1.0)
        expected = serial_welch(x, 8e6, segment_len)
        freqs, density = welch_psd(x, 8e6, segment_len)
        np.testing.assert_array_equal(freqs, expected[0])
        np.testing.assert_array_equal(density, expected[1])

    def test_too_short_input_rejected(self):
        with pytest.raises(ValueError):
            welch_psd(np.ones(100, dtype=complex), 1.0, 512)
        with pytest.raises(ValueError):
            estimate_spectrum(np.ones(2, dtype=complex), 1.0)


class TestSimConfigValidation:
    def test_ragged_bits_rejected(self):
        cfg = RunConfig()
        cfg.n_bits = 1001  # not a multiple of 8
        with pytest.raises(ValueError):
            cfg.sim_config()

    def test_too_few_samples_per_symbol(self):
        cfg = RunConfig()
        cfg.samples_per_symbol = 1
        with pytest.raises(ValueError):
            cfg.sim_config()

    @pytest.mark.parametrize("name", ["gaussian_bt", "evm_threshold_pct"])
    def test_non_finite_values_rejected(self, name):
        cfg = RunConfig()
        setattr(cfg, name, math.nan)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg.sim_config()

    def test_non_finite_calibration_ebn0_rejected(self):
        with pytest.raises(ValueError, match="Eb/N0 must be finite"):
            RunConfig().sim_config(calibration_ebn0_db=math.nan)

    def test_calibration_ebn0_without_noise_rejected(self):
        """Used to run noise-free and ignore the Eb/N0."""
        with pytest.raises(ValueError, match="no effect with noise disabled"):
            RunConfig().sim_config(calibration_ebn0_db=6.0, noise_enabled=False)

    def test_unknown_pulse_shape(self):
        cfg = RunConfig()
        cfg.pulse_shape = "triangular"
        with pytest.raises(ValueError):
            cfg.sim_config()


class TestRunLinkSim:
    def test_distortion_free_chain(self):
        cfg = RunConfig()
        cfg.pulse_shape = "rectangular"
        cfg.n_bits = 80_000
        result = run_link_sim(cfg.sim_config(noise_enabled=False, pa_linear=True))
        assert result.measured_ber == 0.0
        assert result.n_bit_errors == 0
        assert result.rx_evm_pct < 0.1
        assert result.tx_evm_pct < 0.1

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_clouds_are_block_zeros_first_instants(self, monkeypatch, threads):
        """A 3-block thermal run: both clouds are block 0's first 4,096
        instants, TX behind the TX chain and RX behind the RX chain, each
        divided by that block's gain estimate."""
        monkeypatch.setenv("QAMLINK_THREADS", threads)
        n0 = simulate._SYMBOLS_PER_BLOCK
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=8 * (2 * n0 + 1000))
        result = run_link_sim(config)
        ctx = simulate._build_context(config)
        assert len(simulate._block_sizes(ctx.n_symbols)) == 3
        _, symbols, tx = simulate._tx_block(config, ctx, 0, n0)
        ref = symbols[ctx.guard_symbols:ctx.guard_symbols + n0]
        rx = simulate.chain_transfer(tx * ctx.path_amplitude, ctx.rx_chain,
                                     ctx.bandwidth_hz,
                                     noise_generator(config.seed, simulate._STREAM_RX),
                                     simulate._channel_noise_var_w(config))
        for cloud, wave in ((result.tx_constellation, tx), (result.rx_constellation, rx)):
            gain, _ = gain_and_error(wave, ref, simulate._energy(ref))
            assert cloud.shape == (4096,)
            np.testing.assert_allclose(cloud, wave[:4096] / gain, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_short_run_clouds_hold_every_symbol(self, monkeypatch, threads):
        monkeypatch.setenv("QAMLINK_THREADS", threads)
        result = run_link_sim(load_config(str(PAPER_CFG)).sim_config(n_bits=800))
        assert result.tx_constellation.shape == (100,)
        assert result.rx_constellation.shape == (100,)

    def test_qpsk_awgn_matches_theory(self):
        """Calibrated AWGN at 7 dB: BER within a small factor of the
        closed-form value and the interval covers it."""
        result = run_link_sim(calibration_config(4, 7.0, 2_000_000, seed=3))
        theory = theoretical_ber(4, 7.0)
        lo, hi = result.ber_confidence
        assert lo <= theory <= hi
        assert theory / 1.3 < result.measured_ber < theory * 1.3

    def test_evm_tracks_snr_in_calibration_runs(self):
        """rx EVM ~ 100/sqrt(SNR) over 10..30 dB of per-symbol SNR."""
        for snr_db in (10.0, 20.0, 30.0):
            ebn0 = snr_db - 10 * math.log10(2)  # QPSK: 2 bits/symbol
            result = run_link_sim(calibration_config(4, ebn0, 100_000, seed=9))
            expected = 100.0 / math.sqrt(10 ** (snr_db / 10))
            assert result.rx_evm_pct == pytest.approx(expected, rel=0.10)

    def test_tx_evm_decreases_with_backoff(self):
        values = []
        for backoff in (2.69, 8.69, 14.69):
            cfg = RunConfig()
            cfg.n_bits = 100_000
            cfg.tx_power_dbm = 32.0 - backoff  # backoff below the PA's 32 dBm P1dB
            values.append(run_link_sim(cfg.sim_config()).tx_evm_pct)
        assert values[0] > values[1] > values[2]

    def test_result_shapes_and_invariants(self):
        cfg = RunConfig()
        cfg.n_bits = 200_000
        result = run_link_sim(cfg.sim_config())
        lo, hi = result.ber_confidence
        assert 0.0 <= lo <= result.measured_ber <= hi <= 1.0
        assert result.tx_constellation.size <= 4096
        assert result.rx_constellation.size <= 4096
        assert result.n_bits_run == 200_000
        psd, fs, _ = transmit_waveform(cfg.sim_config())
        assert psd[0, 0] == pytest.approx(-fs / 2, rel=1e-9)
        assert psd[-1, 0] < fs / 2

    def test_deterministic_rerun(self):
        cfg = RunConfig()
        cfg.n_bits = 120_000
        a = run_link_sim(cfg.sim_config())
        b = run_link_sim(cfg.sim_config())
        assert a.measured_ber == b.measured_ber
        assert a.tx_evm_pct == b.tx_evm_pct
        assert a.rx_evm_pct == b.rx_evm_pct
        np.testing.assert_array_equal(a.rx_constellation, b.rx_constellation)
        (wave_a, *rest_a), (wave_b, *rest_b) = (
            transmit_waveform(cfg.sim_config()) for _ in range(2))
        np.testing.assert_array_equal(wave_a, wave_b)
        assert rest_a == rest_b

    def test_worker_count_does_not_change_results(self, monkeypatch):
        """Multi-block run reduced on one thread and on four is bit-identical,
        and so is its spectrum."""
        config = calibration_config(4, 4.0, 163_840, seed=5)
        results, windows = [], []
        for threads in ("1", "4"):
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            results.append(run_link_sim(config))
            windows.append(transmit_waveform(config))
        a, b = results
        assert a.measured_ber == b.measured_ber
        assert a.n_bit_errors == b.n_bit_errors
        assert a.tx_evm_pct == b.tx_evm_pct
        assert a.rx_evm_pct == b.rx_evm_pct
        np.testing.assert_array_equal(windows[0][0], windows[1][0])
        assert windows[0][1:] == windows[1][1:]
        np.testing.assert_array_equal(a.tx_constellation, b.tx_constellation)
        np.testing.assert_array_equal(a.rx_constellation, b.rx_constellation)

    @pytest.mark.parametrize("pa_linear", [False, True])
    def test_calibrated_noise_is_referred_to_the_budget_rx_power(self, monkeypatch,
                                                                 pa_linear):
        """Every block draws unit AWGN once and scales it to the budget's
        received power over Es/N0. A linear chain transmits that power; the
        compressing PA delivers ~0.15 dB less, which leaves the noise level
        unchanged."""
        config = load_config(str(PAPER_CFG)).sim_config(
            n_bits=800_000, calibration_ebn0_db=20.0, pa_linear=pa_linear)
        scenario = config.scenario
        rx_power_w = dbm_to_watts(friis_received_power(scenario.tx_power_dbm,
                                                       scenario.channel))
        expected = rx_power_w / 10.0 ** ((20.0 + 10.0 * math.log10(8)) / 10.0)
        variances, block_variances = [], []
        real_noise, real_block = simulate.complex_noise, simulate._simulate_block

        def recording(rng, shape, variance):
            variances.append(variance)
            return real_noise(rng, shape, variance)

        def simulate_block(config, ctx, block, n_sym, noise_vars):
            block_variances.append(noise_vars)
            return real_block(config, ctx, block, n_sym, noise_vars)

        monkeypatch.setattr(simulate, "complex_noise", recording)
        monkeypatch.setattr(simulate, "_simulate_block", simulate_block)
        run_link_sim(config)
        assert variances == [2.0] * 4
        assert block_variances == [[pytest.approx(expected, rel=1e-12, abs=0)]] * 4
        # the drive is normalised on the samples between the block guards,
        # which make up the window where the TX power is measured
        drop = scenario.tx_power_dbm - transmit_waveform(config)[2]
        if pa_linear:
            assert drop == pytest.approx(0.0, abs=1e-4)
        else:
            assert drop == pytest.approx(0.15, abs=0.02)

    @pytest.mark.parametrize("path,n_bits,sps,n_window", [
        ("paper.cfg", 1_048_576, 8, 4),
        ("paper.cfg", 80_000, 8, 1),
        ("qpsk.cfg", 1_200_000, 2, 16),
        ("paper.cfg", 800, 8, 1),
        ("paper.cfg", 262_224, 8, 2),
    ])
    def test_spectrum_is_the_welch_estimate_of_the_window(self, monkeypatch, path,
                                                          n_bits, sps, n_window):
        """The window blocks reduce their samples on the block pool, yet the
        spectrum equals estimate_spectrum of the assembled window bit for bit,
        and the power is its mean square plus the TX noise variance. The runs
        fill the 1 M-sample window from 4 and from 16 blocks, lie inside one
        block, make a window under 1,024 samples (256-sample segments), and
        end in an 80-sample block that no segment reaches. At 4 workers, more
        than there are cores, with a short switch interval."""
        cfg = load_config(str(REPO_ROOT / path))
        assert cfg.samples_per_symbol == sps
        config = cfg.sim_config(n_bits=n_bits)
        window = assembled_window(config)
        noise_var_w = tx_noise_var_w(config)
        real = simulate._tx_block
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for threads in ("1", "2", "4"):
                calls = []

                def counting(*args, **kwargs):
                    calls.append(args[2])
                    return real(*args, **kwargs)

                monkeypatch.setattr(simulate, "_tx_block", counting)
                monkeypatch.setenv("QAMLINK_THREADS", threads)
                psd, fs, power_dbm = transmit_waveform(config)
                assert sorted(calls) == list(range(n_window)), threads
                assert fs == sps * config.scenario.symbol_rate_hz
                np.testing.assert_array_equal(psd, estimate_spectrum(window, fs, noise_var_w))
                assert power_dbm == pytest.approx(
                    10.0 * math.log10(np.mean(np.abs(window) ** 2) + noise_var_w) + 30.0,
                    abs=1e-9)
        finally:
            sys.setswitchinterval(interval)

    def test_odd_samples_per_symbol_restart_chunks_per_block(self, monkeypatch):
        """At 3 samples per symbol a block holds 384 segments, so its chunks
        of 256 restart at every block: the spectrum is the same at any worker
        count and agrees with the array-level estimate to rounding."""
        cfg = load_config(str(PAPER_CFG))
        cfg.samples_per_symbol = 3
        config = cfg.sim_config(n_bits=800_000)
        ctx = simulate._build_context(config)
        assert len(window_blocks(ctx)) == 4
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        psds = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            psd, fs, _ = transmit_waveform(config)
            psds.append(psd)
        for psd in psds[1:]:
            np.testing.assert_array_equal(psd, psds[0])
        expected = estimate_spectrum(assembled_window(config), fs, tx_noise_var_w(config))
        np.testing.assert_allclose(psds[0], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_window_blocks_hold_no_window(self, monkeypatch, threads):
        """The 1 M-sample spectrum of paper.cfg peaks under one full-rate
        block's samples (4.2 MB) per worker: no window-sized array (16 MB)
        and no block-sized one, only 32,768-sample pieces of the blocks
        running at once and their Welch chunk sums, and nothing is held
        after. Blocks held whole peak at 2.0x per worker."""
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=1_048_576)
        block_bytes = simulate._SYMBOLS_PER_BLOCK * config.samples_per_symbol * 16
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("QAMLINK_THREADS", str(threads))
        # numpy imports these on first use; loaded inside the trace, their
        # modules would count as held memory when the test runs alone
        import numpy.fft  # noqa: F401
        import numpy.random  # noqa: F401
        tracemalloc.start()
        try:
            psd = transmit_waveform(config)[0]
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < threads * block_bytes
        assert current < psd.nbytes + 65536

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_window_pieces_bound_every_chain_call(self, monkeypatch, tmp_path, threads):
        """The window pieces are the one bound on the full-rate path: the
        1 M-sample spectrum of paper.cfg runs its one compressing TX stage
        once per piece, 32 times, and no chain call of simulate or spectrum
        takes more than a piece, 128 segments of 256 new samples plus the
        256 that overlap the next piece."""
        real_amplifier, real_chain = rfchain.amplifier_transfer, simulate.chain_transfer
        passes, sizes = [], []

        def amplifier_transfer(x, spec):
            passes.append(x.size)
            return real_amplifier(x, spec)

        def chain_transfer(x, *args):
            sizes.append(x.size)
            return real_chain(x, *args)

        monkeypatch.setattr(rfchain, "amplifier_transfer", amplifier_transfer)
        monkeypatch.setattr(simulate, "chain_transfer", chain_transfer)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("QAMLINK_THREADS", threads)
        common = ["--config", str(PAPER_CFG), "--bits", "1048576", "--seed", "3",
                  "--out", str(tmp_path)]
        assert cli.main(["spectrum", *common]) == 0
        assert len(passes) == 32
        assert cli.main(["simulate", *common]) == 0
        assert len(sizes) == 32 + 32 + 4 * 2  # window pieces, then 4 blocks' TX and RX
        assert max(sizes) == 128 * 256 + 256 == 33_024

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_labels_are_uniform_masked_bytes(self, order):
        """A block's labels are its bits stream's uniform byte draw masked to
        the order, so order-256 labels are the unmasked draw; over 8 blocks
        they pass a chi-square uniformity test."""
        chi2 = pytest.importorskip("scipy.stats").chi2
        config = calibration_config(order=order, n_bits=96_000, seed=11)
        ctx = simulate._build_context(config)
        labels = []
        for block in range(8):
            drawn = simulate._tx_block(config, ctx, block, simulate._SYMBOLS_PER_BLOCK)[0]
            stream = block * simulate._STREAMS_PER_BLOCK + simulate._STREAM_BITS
            draw = noise_generator(11, stream).integers(0, 256, drawn.size, dtype=np.uint8)
            np.testing.assert_array_equal(drawn, draw & (order - 1))
            labels.append(drawn)
        counts = np.bincount(np.concatenate(labels), minlength=order)
        assert counts.size == order
        expected = counts.sum() / order
        statistic = np.sum((counts - expected) ** 2) / expected
        assert statistic < chi2.ppf(1.0 - 1e-4, order - 1), order

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_ideal_chain_without_noise_reads_zero_evm(self, order):
        """Ideal chains and rectangular pulses put every instant on its symbol
        times one gain. The sums leave a rounding residue of a few ulps of the
        reference energy, of either sign: the EVMs are never nan and print as
        0.0000 %."""
        cfg = load_config(str(QPSK_CFG))
        cfg.modulation_order = order
        result = run_link_sim(cfg.sim_config(n_bits=240_000, noise_enabled=False))
        assert result.n_bit_errors == 0
        for evm in (result.tx_evm_pct, result.rx_evm_pct):
            assert 0.0 <= evm < 5e-5, order


def gain_and_error(measured, reference, reference_energy):
    """The simulator's gain estimate and EVM error energy of measured
    against reference, from its power and projection sums."""
    return simulate._gain_and_error(*simulate._power_and_projection(measured, reference),
                                    reference_energy)


def evm_error_energy(measured, reference):
    """The EVM error energy of the simulator's shared-sums helper."""
    measured = np.asarray(measured, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    energy = np.sum(reference.real ** 2 + reference.imag ** 2)
    return gain_and_error(measured, reference, energy)[1]


def direct_error_energy(measured, reference):
    """Oracle: sum |a * measured - reference|**2 at the minimising a."""
    scale = np.sum(np.conj(measured) * reference) / np.sum(np.abs(measured) ** 2)
    return float(np.sum(np.abs(scale * measured - reference) ** 2))


class TestGainAndError:
    def test_identical_sequences(self):
        ref = np.array([1 + 1j, -1 + 1j, 0.5 - 0.25j])
        assert evm_error_energy(ref, ref) == pytest.approx(0.0, abs=1e-12)

    def test_pure_gain_is_not_error(self):
        ref = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        assert evm_error_energy(2.0 * ref, ref) == pytest.approx(0.0, abs=1e-9)

    def test_fixed_offset_four_symbols(self):
        """Offset orthogonal to the reference on average: closed-form value
        evaluated inline with plain complex arithmetic."""
        ref = [1 + 0j, 1j, -1 + 0j, -1j]
        meas = [r + 0.05 for r in ref]
        scale = sum(m.conjugate() * r for m, r in zip(meas, ref)) / sum(
            abs(m) ** 2 for m in meas)
        expected = sum(abs(scale * m - r) ** 2 for m, r in zip(meas, ref))
        got = evm_error_energy(np.array(meas), np.array(ref))
        assert got == pytest.approx(expected, abs=1e-12)
        # unit-energy reference: 4 symbols carry 4 units, so EVM = 5%
        assert 100.0 * math.sqrt(got / 4.0) == pytest.approx(5.0, abs=0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                              allow_nan=False, allow_infinity=False))
    def test_invariant_under_complex_scaling(self, scale):
        rng = np.random.default_rng(17)
        ref = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        meas = ref + 0.1 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        base = evm_error_energy(meas, ref)
        assert evm_error_energy(scale * meas, ref) == pytest.approx(base, rel=1e-6)

    def test_silent_measurement_is_all_error(self):
        ref = np.array([1 + 1j, -1 + 1j])
        assert evm_error_energy(np.zeros(2, dtype=complex), ref) == pytest.approx(4.0)

    def test_matches_direct_oracle_on_random_signals(self):
        """32k symbols at 100% and 10% EVM agree to 1e-12 relative. The sums
        form subtracts two near-equal sums, so at any EVM its error stays
        within a few ulps of the reference energy."""
        rng = np.random.default_rng(23)
        n = 32768
        ref = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        energy = np.sum(np.abs(ref) ** 2)
        for noise in (1.0, 0.1, 1e-4):
            meas = (0.3 - 0.7j) * (ref + noise * (rng.standard_normal(n)
                                                  + 1j * rng.standard_normal(n)))
            got = evm_error_energy(meas, ref)
            expected = direct_error_energy(meas, ref)
            if noise >= 0.1:
                assert got == pytest.approx(expected, rel=1e-12, abs=0)
            assert abs(got - expected) <= 1e-14 * energy

    def test_rounding_below_zero_reads_zero(self):
        """Scaled copies of a 16-QAM reference carry no error; the sums leave
        some of them a residue below zero, which reads as zero."""
        rng = np.random.default_rng(3)
        ref = build_constellation(16).points[rng.integers(0, 16, 32768)]
        energy = np.sum(ref.real ** 2 + ref.imag ** 2)
        raw, errors = [], []
        for gain in rng.uniform(0.01, 100.0, 64):
            meas = gain * ref
            c = np.sum(np.conj(ref) * meas)
            raw.append(energy - abs(c) ** 2 / np.sum(meas.real ** 2 + meas.imag ** 2))
            errors.append(evm_error_energy(meas, ref))
        assert min(raw) < 0.0
        assert min(errors) == 0.0
        assert errors == [max(0.0, r) for r in raw]

    def test_gain_is_the_projection_on_the_reference(self):
        rng = np.random.default_rng(5)
        ref = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        energy = np.sum(ref.real ** 2 + ref.imag ** 2)
        gain, _ = gain_and_error((2 - 1j) * ref, ref, energy)
        np.testing.assert_allclose((2 - 1j) * ref / gain, ref, rtol=1e-13)
        gain, error = gain_and_error(np.zeros(100, complex), ref, energy)
        assert gain == 1.0 and error == energy


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the real N(0,1) samples drawn."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._counts.append(out.size)
        return out

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def held_pulse_oracle(symbols, config):
    """The pulse shaper written out at full rate: hold each symbol for sps
    samples, then the Gaussian lowpass as a 'same'-mode convolution."""
    held = np.repeat(np.asarray(symbols, dtype=complex), config.samples_per_symbol)
    if config.pulse_shape == "rectangular":
        return held
    return np.convolve(held, gaussian_taps(config.gaussian_bt, config.samples_per_symbol),
                       mode="same")


def block_instants(wave, ctx, n_sym):
    """The n_sym symbol instants of a full-rate block waveform with guards."""
    start = ctx.guard_symbols * ctx.sps + ctx.sps // 2
    return wave[start:start + n_sym * ctx.sps:ctx.sps]


def window_blocks(ctx):
    """Sizes of the blocks that feed transmit_waveform's spectrum window."""
    block_samples = simulate._SYMBOLS_PER_BLOCK * ctx.sps
    n_window = min(ctx.n_symbols * ctx.sps, simulate._PSD_TARGET_SAMPLES)
    return simulate._block_sizes(ctx.n_symbols)[:math.ceil(n_window / block_samples)]


def window_pieces(ctx):
    """transmit_waveform's pulse_shape calls: one per 128-segment piece of
    each window block's samples between its guards."""
    n_window = min(ctx.n_symbols * ctx.sps, simulate._PSD_TARGET_SAMPLES)
    segment_len = simulate._segment_len(n_window)
    piece = simulate._WELCH_PIECE_SEGMENTS * (segment_len - segment_len // 2)
    block_samples = simulate._SYMBOLS_PER_BLOCK * ctx.sps
    return sum(math.ceil(min(n_sym * ctx.sps, n_window - block * block_samples) / piece)
               for block, n_sym in enumerate(window_blocks(ctx)))


def full_rate_block(config, ctx, block, n_sym):
    """A block's whole noise-free full-rate TX waveform, guards included."""
    return simulate._tx_block(config, ctx, block, n_sym, reduce=lambda piece: piece())[2]


def assembled_window(config):
    """The spectrum window as one array: each window block's full-rate
    samples between its guards, in block order, cut to the window."""
    ctx = simulate._build_context(config)
    first = ctx.guard_symbols * ctx.sps
    parts = [full_rate_block(config, ctx, block, n_sym)[first:first + n_sym * ctx.sps]
             for block, n_sym in enumerate(window_blocks(ctx))]
    return np.concatenate(parts)[:simulate._PSD_TARGET_SAMPLES]


class TestSymbolRateBlocks:
    """Every Monte-Carlo block runs every stage after the pulse shaper at the
    symbol instants only; that must change no result."""

    def test_tx_block_at_instants_matches_full_rate_samples(self):
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=80_000,
                                                        noise_enabled=False)
        ctx = simulate._build_context(config)
        n_sym = 10_000
        full = full_rate_block(config, ctx, 5, n_sym)
        _, _, at_instants = simulate._tx_block(config, ctx, 5, n_sym)
        assert at_instants.size == n_sym
        np.testing.assert_array_equal(at_instants, block_instants(full, ctx, n_sym))

    @pytest.mark.parametrize("sps", [2, 3, 8, 16])
    @pytest.mark.parametrize("shape,bt", [("rectangular", 0.5), ("gaussian", 0.3),
                                          ("gaussian", 0.5), ("gaussian", 1.0)])
    def test_symbol_rate_pulse_matches_full_rate_pulse(self, sps, shape, bt):
        """The filter bank gives the held, filtered pulse train, one of its
        phases the instants, and the closed form the mean power, for every
        block size down to one symbol."""
        config = calibration_config(order=256, samples_per_symbol=sps,
                                    pulse_shape=shape, gaussian_bt=bt)
        ctx = simulate._build_context(config)
        rng = np.random.default_rng(sps)
        for n_sym in (1, 7, 1000):
            symbols = ctx.cmap.points[rng.integers(0, 256, n_sym + 2 * ctx.guard_symbols)]
            oracle = held_pulse_oracle(symbols, config)
            full = pulse_shape(symbols, simulate._SymbolRatePulse.of(config))
            # the bank sums in another order than the full-rate convolution
            np.testing.assert_allclose(full, oracle, rtol=0,
                                       atol=1e-12 * np.max(np.abs(oracle)))
            at_instants = ctx.pulse.at_instants(symbols, ctx.guard_symbols, n_sym)
            np.testing.assert_array_equal(at_instants, block_instants(full, ctx, n_sym))
            for guard in (0, ctx.guard_symbols):
                span = oracle[guard * sps:oracle.size - guard * sps]
                power = np.mean(span.real ** 2 + span.imag ** 2)
                assert ctx.pulse.mean_power(symbols, guard) == pytest.approx(
                    power, rel=1e-12, abs=0)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(simulate.PULSE_SHAPES), sps=st.sampled_from([2, 3, 8]),
           bt=st.sampled_from([0.3, 0.5, 1.0]), n_sym=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pulse_shape_span_is_the_slice_of_the_whole(self, shape, sps, bt, n_sym,
                                                         seed, data):
        """Samples [start, stop) of the shaped waveform, from the filter bank
        or the config, equal that slice of the whole waveform bit for bit,
        spans at either end included."""
        config = calibration_config(order=256, samples_per_symbol=sps, pulse_shape=shape,
                                    gaussian_bt=bt)
        pulse = simulate._SymbolRatePulse.of(config)
        rng = np.random.default_rng(seed)
        symbols = rng.standard_normal(n_sym) + 1j * rng.standard_normal(n_sym)
        whole = pulse_shape(symbols, simulate._SymbolRatePulse.of(config))
        n = whole.size
        # short spans, and spans within a filter length of either end
        start = data.draw(st.just(0) | st.integers(0, n - 1)
                          | st.integers(max(0, n - 64), n - 1), label="start")
        stop = data.draw(st.just(n) | st.integers(start + 1, n)
                         | st.integers(start + 1, min(n, start + 64)), label="stop")
        np.testing.assert_array_equal(pulse_shape(symbols, pulse, start, stop),
                                      whole[start:stop])
        np.testing.assert_array_equal(pulse_shape(symbols, simulate._SymbolRatePulse.of(config),
                                                  start, stop),
                                      whole[start:stop])

    def test_paper_pulse_is_a_three_tap_fir(self):
        """An isolated symbol reaches three instants: its own and one either side."""
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=80_000)
        ctx = simulate._build_context(config)
        symbols = np.zeros(2 * ctx.guard_symbols + 7, dtype=complex)
        symbols[ctx.guard_symbols + 3] = 1.0
        at_instants = ctx.pulse.at_instants(symbols, ctx.guard_symbols, 7)
        np.testing.assert_allclose(at_instants.real, [0, 0, 0.0284, 0.943, 0.0284, 0, 0],
                                   atol=5e-4)
        assert np.count_nonzero(at_instants) == 3

    def test_pulse_shape_runs_only_in_transmit_waveform(self, monkeypatch):
        """4 Mbit of paper.cfg: run_link_sim shapes every block at the symbol
        instants, under calibrated AWGN too; transmit_waveform shapes the 4
        window blocks at full rate, 8 pieces of 32,768 samples each."""
        real = simulate.pulse_shape
        for ebn0 in (None, 20.0):
            config = load_config(str(PAPER_CFG)).sim_config(n_bits=4_000_000,
                                                            calibration_ebn0_db=ebn0)
            n_pieces = window_pieces(simulate._build_context(config))
            assert n_pieces == 32
            for threads in ("1", "2"):
                calls = []

                def counting(*args):
                    calls.append(args)
                    return real(*args)

                monkeypatch.setattr(simulate, "pulse_shape", counting)
                monkeypatch.setenv("QAMLINK_THREADS", threads)
                run_link_sim(config)
                assert len(calls) == 0, (ebn0, threads)
                transmit_waveform(config)
                assert len(calls) == n_pieces, (ebn0, threads)

    def test_ber_sweep_runs_no_pulse_shape(self, monkeypatch, tmp_path):
        """qpsk.cfg at 200 kbit: all 4 blocks lie in the window, so simulate
        shapes each at full rate for the spectrum, two 32,768-sample pieces of
        each full block and one of the last, and ber-sweep shapes none."""
        real = simulate.pulse_shape
        config = load_config(str(QPSK_CFG)).sim_config(n_bits=200_000)
        ctx = simulate._build_context(config)
        assert len(window_blocks(ctx)) == len(simulate._block_sizes(ctx.n_symbols)) == 4
        n_pieces = window_pieces(ctx)
        assert n_pieces == 7
        common = ["--config", str(QPSK_CFG), "--bits", "200000", "--out", str(tmp_path)]
        for threads in ("1", "2"):
            calls = []

            def counting(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(simulate, "pulse_shape", counting)
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            assert cli.main(["ber-sweep", "--from", "6", "--to", "8", *common]) == 0
            assert len(calls) == 0, threads
            assert cli.main(["simulate", *common]) == 0
            assert len(calls) == n_pieces, threads

    @pytest.mark.parametrize("path,n_bits,n_window", [
        ("paper.cfg", 1_600_000, 4),
        ("qpsk.cfg", 1_200_000, 16),
    ])
    def test_window_instants_match_symbol_rate_blocks(self, path, n_bits, n_window):
        """Noise off, with paper.cfg's compressing PA and raised-cosine pulses
        and with qpsk.cfg's ideal chains and rectangular pulses: at every
        window block the symbol instants of the full-rate spectrum window are
        the block's TX output at the instants, as run_link_sim computes it.
        Both runs have blocks past the window."""
        config = load_config(str(REPO_ROOT / path)).sim_config(n_bits=n_bits, seed=7,
                                                               noise_enabled=False)
        ctx = simulate._build_context(config)
        wave = assembled_window(config)
        sizes = window_blocks(ctx)
        assert len(sizes) == n_window < len(simulate._block_sizes(ctx.n_symbols))
        instants = wave[ctx.sps // 2::ctx.sps]
        for block, n_sym in enumerate(sizes):
            _, _, at_instants = simulate._tx_block(config, ctx, block, n_sym)
            first = block * simulate._SYMBOLS_PER_BLOCK
            np.testing.assert_array_equal(instants[first:first + n_sym], at_instants)

    def test_thermal_draw_count_follows_block_plan(self, monkeypatch):
        """4 Mbit of paper.cfg: run_link_sim draws three complex (six real)
        values per symbol: once on the TX side, before the PA, and twice on
        the RX side, at the LNA input, where the PA's output noise is drawn
        with kTB, and at the chain output. The TX-only window blocks of
        transmit_waveform draw none: the window carries the TX noise as its
        variance."""
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=4_000_000)
        ctx = simulate._build_context(config)
        expected_sim = 6 * ctx.n_symbols
        assert expected_sim == 3_000_000

        real = simulate.noise_generator
        for threads in ("1", "2"):
            counts = []
            monkeypatch.setattr(simulate, "noise_generator",
                                lambda *a: _CountingGenerator(real(*a), counts))
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            run_link_sim(config)
            assert sum(counts) == expected_sim, threads
            counts.clear()
            transmit_waveform(config)
            assert sum(counts) == 0, threads


def drawn_window(monkeypatch, config):
    """The assembled spectrum window with the TX stage noise drawn: every
    full-rate block runs its TX chain on the block's TX noise stream, as the
    Monte-Carlo blocks do at the instants."""
    local = threading.local()
    real_tx, real_chain = simulate._tx_block, simulate.chain_transfer

    def tx_block(config, ctx, block, n_sym, *, reduce=None):
        local.block = block
        return real_tx(config, ctx, block, n_sym, reduce=reduce)

    def chain_transfer(x, chain, bandwidth_hz=None, rng=None, input_noise_watts=0.0):
        assert rng is None
        stream = local.block * simulate._STREAMS_PER_BLOCK + simulate._STREAM_TX
        return real_chain(x, chain, bandwidth_hz, noise_generator(config.seed, stream),
                          input_noise_watts)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_tx_block", tx_block)
        patch.setattr(simulate, "chain_transfer", chain_transfer)
        return assembled_window(config)


class TestWindowNoiseExpectation:
    """The spectrum window draws no noise: the TX chain's white noise enters
    its power and its Welch density as their expectations."""

    def test_noise_variance_is_the_tx_cascade_output_noise(self):
        """The chain's small-signal output noise is kTB(F - 1)G from the Friis
        cascade, and equals the chain's folded runs composed through the PA's
        small-signal gain."""
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=80_000)
        ctx = simulate._build_context(config)
        tx = cascade(ctx.tx_chain)
        ktb = 10.0 ** ((THERMAL_NOISE_DBM_PER_HZ - 30.0) / 10.0) * ctx.bandwidth_hz
        expected = ktb * (10.0 ** (tx.total_nf_db / 10.0) - 1.0) * 10.0 ** (
            tx.total_gain_db / 10.0)
        noise_var_w = rfchain.output_noise_watts(ctx.tx_chain, ctx.bandwidth_hz)
        assert noise_var_w == pytest.approx(expected, rel=1e-12, abs=0)
        assert noise_var_w == pytest.approx(2.4201e-8, rel=1e-4)
        folded = 0.0
        for gain, noise_w, stage in rfchain._folded_runs(ctx.tx_chain, ctx.bandwidth_hz, 0.0):
            folded = folded * gain ** 2 + noise_w
            if stage is not None:
                folded *= 10.0 ** (stage.gain_db / 10.0)
        assert noise_var_w == pytest.approx(folded, rel=1e-12, abs=0)

    def test_expected_density_matches_drawn_window(self, monkeypatch):
        """4 seeds of 1,048,576 bits of paper.cfg against the window with the
        TX noise drawn: the mean beyond 250 MHz agrees within 0.03 dB, every
        bin within 0.2 dB and the power within 0.001 dB. Without the density
        term the far band reads 0.2-0.5 dB low."""
        for seed in (41, 42, 43, 44):
            config = load_config(str(PAPER_CFG)).sim_config(n_bits=1_048_576, seed=seed)
            expected, fs, power_dbm = transmit_waveform(config)
            noise_var_w = tx_noise_var_w(config)
            drawn = drawn_window(monkeypatch, config)
            drawn_power_w = np.mean(np.abs(drawn) ** 2)
            reference = estimate_spectrum(drawn, fs)
            far = np.abs(reference[:, 0]) >= 250e6

            def far_db(psd):
                return 10.0 * np.log10(np.mean(10.0 ** (psd[far, 1] / 10.0)))

            assert far_db(expected) == pytest.approx(far_db(reference), abs=0.03), seed
            np.testing.assert_allclose(expected[:, 1], reference[:, 1], rtol=0, atol=0.2)
            assert power_dbm == pytest.approx(
                10.0 * math.log10(drawn_power_w) + 30.0, abs=1e-3)
            # the drawn window's power with the variance added on top as well
            assert 10.0 * math.log10(drawn_power_w + noise_var_w) + 30.0 == pytest.approx(
                power_dbm, abs=1e-3)

    def test_window_without_stage_noise_is_the_noise_free_welch(self, tmp_path):
        """The window is the same noise-free signal in every noise mode; under
        --no-noise and --ebn0 its variance is 0 and both commands write the
        plain Welch estimate of that window."""
        bits, seed = 300_000, 6
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=bits, seed=seed)
        wave = assembled_window(config)
        fs = transmit_waveform(config)[1]
        assert tx_noise_var_w(config) > 0.0
        welch = estimate_spectrum(wave, fs)
        for options in ({"noise_enabled": False}, {"calibration_ebn0_db": 20.0}):
            quiet_config = load_config(str(PAPER_CFG)).sim_config(n_bits=bits, seed=seed,
                                                                  **options)
            np.testing.assert_array_equal(assembled_window(quiet_config), wave)
            np.testing.assert_array_equal(transmit_waveform(quiet_config)[0], welch)
        cli._write_psd_csv(str(tmp_path / "welch.csv"), welch)
        expected = (tmp_path / "welch.csv").read_bytes()
        common = ["--config", str(PAPER_CFG), "--bits", str(bits), "--seed", str(seed)]
        for command in (["simulate", "--no-noise"], ["simulate", "--ebn0", "20"],
                        ["spectrum", "--no-noise"]):
            out = tmp_path / "-".join(command)
            assert cli.main([*command, *common, "--out", str(out)]) == 0
            assert (out / "psd.csv").read_bytes() == expected, command


class TestOnePool:
    """Every block job of a command runs on one thread pool."""

    def test_simulate_overlaps_window_and_monte_carlo_blocks(self, monkeypatch,
                                                             tmp_path):
        """1.2 Mbit of paper.cfg: 4 full-rate window blocks and 5 Monte-Carlo
        blocks run on the threads of one pool. The last window block waits
        until a Monte-Carlo block has started; with a barrier between the two
        runs, or the Monte-Carlo run first, no Monte-Carlo block would start
        while a window block runs."""
        real_tx, real_sim = simulate._tx_block, simulate._simulate_block
        running, overlaps, pools = set(), [], set()
        started = threading.Event()

        def pool_of_this_thread():
            pools.add(threading.current_thread().name.rpartition("_")[0])

        def tx_block(config, ctx, block, n_sym, *, reduce=None):
            if reduce is None:
                return real_tx(config, ctx, block, n_sym)
            pool_of_this_thread()
            running.add(block)
            try:
                if block == 3:
                    started.wait(timeout=10)
                return real_tx(config, ctx, block, n_sym, reduce=reduce)
            finally:
                running.discard(block)

        def simulate_block(*args):
            pool_of_this_thread()
            overlaps.append(bool(running))
            started.set()
            return real_sim(*args)

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("QAMLINK_THREADS", "2")
        monkeypatch.setattr(simulate, "_tx_block", tx_block)
        monkeypatch.setattr(simulate, "_simulate_block", simulate_block)
        assert cli.main(["simulate", "--config", str(PAPER_CFG), "--bits", "1200000",
                         "--out", str(tmp_path)]) == 0
        assert len(overlaps) == 5
        assert any(overlaps)
        assert len(pools) == 1 and next(iter(pools)).startswith("ThreadPoolExecutor")

    def test_sweep_builds_one_pool(self, monkeypatch, tmp_path):
        """A 3-point ber-sweep queues all its blocks on one pool, not one per
        point."""
        pools = []
        real = simulate.ThreadPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", counting)
        assert cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from", "4",
                         "--to", "6", "--bits", "200000", "--out", str(tmp_path)]) == 0
        assert len(pools) == 1

    def test_sweep_rows_are_per_point_runs(self, monkeypatch, tmp_path):
        """Point i of a sweep reads what run_link_sim gives for it alone at
        the sweep's seed, EVMs and constellations included, at 1 and 2
        workers; each point has 4 blocks."""
        cfg = load_config(str(QPSK_CFG))
        alone = [run_link_sim(cfg.sim_config(n_bits=200_000, calibration_ebn0_db=ebn0))
                 for ebn0 in (3.0, 4.5, 6.0)]
        expected = [f"{r.measured_ber:.8e},{r.ber_confidence[0]:.8e},"
                    f"{r.ber_confidence[1]:.8e}" for r in alone]
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        real_run_plans, finished = cli.run_plans, []

        def run_plans(plans):
            for result in real_run_plans(plans):
                finished.append(result)
                yield result

        monkeypatch.setattr(cli, "run_plans", run_plans)
        for threads in ("1", "2"):
            finished.clear()
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            out = tmp_path / threads
            assert cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from", "3",
                             "--to", "6", "--step", "1.5", "--bits", "200000",
                             "--out", str(out)]) == 0
            rows = (out / "waterfall.csv").read_text().splitlines()[1:]
            assert [row.split(",", 2)[2] for row in rows] == expected, threads
            [points] = finished
            for point, result in zip(points, alone, strict=True):
                assert point.n_bit_errors == result.n_bit_errors, threads
                assert point.tx_evm_pct == result.tx_evm_pct, threads
                assert point.rx_evm_pct == result.rx_evm_pct, threads
                np.testing.assert_array_equal(point.tx_constellation,
                                              result.tx_constellation)
                np.testing.assert_array_equal(point.rx_constellation,
                                              result.rx_constellation)

    def test_sweep_shares_each_blocks_labels_and_noise(self, monkeypatch, tmp_path):
        """A 3-point sweep of 200 kbit of qpsk.cfg (4 blocks) maps each
        block's labels once and draws its 2 n_sym channel N(0, 1) samples
        once, at 1 and 2 workers: not once per point."""
        cfg = load_config(str(QPSK_CFG))
        ctx = simulate._build_context(cfg.sim_config(n_bits=200_000))
        sizes = simulate._block_sizes(ctx.n_symbols)
        assert len(sizes) == 4 and 2 * ctx.n_symbols == 200_000
        real_map, real_generator = simulate.map_bits, simulate.noise_generator
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        for threads in ("1", "2"):
            mapped, draws = [], []

            def map_bits(labels, cmap):
                mapped.append(labels.size)
                return real_map(labels, cmap)

            monkeypatch.setattr(simulate, "map_bits", map_bits)
            monkeypatch.setattr(simulate, "noise_generator",
                                lambda *a: _CountingGenerator(real_generator(*a), draws))
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            assert cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from", "3",
                             "--to", "6", "--step", "1.5", "--bits", "200000",
                             "--out", str(tmp_path / threads)]) == 0
            assert sorted(mapped) == sorted(sizes), threads
            assert sum(draws) == 2 * ctx.n_symbols, threads

    def test_closing_early_cancels_queued_jobs(self, monkeypatch):
        """One worker, a one-block plan, then a slow three-block plan: after
        the first result, closing the iterator lets the running block finish
        and cancels the rest. A failing block raises at its plan's turn."""
        monkeypatch.setenv("QAMLINK_THREADS", "1")
        ran = []

        def slow(block):
            ran.append(block)
            time.sleep(0.2)

        results = simulate.run_plans([simulate.Plan(1, lambda i: i, sum),
                                      simulate.Plan(3, slow, len)])
        assert next(results) == 0
        results.close()
        assert ran in ([], [0])

        def failing(block):
            raise ValueError(f"block {block}")

        results = simulate.run_plans([simulate.Plan(2, lambda i: i, sum),
                                      simulate.Plan(2, failing, len)])
        assert next(results) == 1
        with pytest.raises(ValueError, match="block 0"):
            next(results)


def plain_gain_and_error(measured, reference, reference_energy):
    """The gain estimate and EVM error energy written out in one piece: the
    projection c = sum conj(reference) * measured over the reference energy,
    and reference_energy - |c|**2 / sum |measured|**2 clamped at 0; a silent
    signal has gain 1."""
    c = np.sum(np.conj(reference) * measured)
    power = np.sum(np.abs(measured) ** 2)
    error = max(0.0, reference_energy - abs(c) ** 2 / power) if power else reference_energy
    gain = c / reference_energy
    return (gain if gain != 0.0 else 1.0), error


def direct_points(config, ebn0_values):
    """Reference for the points of link_sim_plan(config, ebn0_values): each
    block's labels, TX samples and unit channel noise rebuilt from its
    streams, and every point run the plain way, the faded samples plus its
    noise through chain_transfer, the gain and error energy of
    plain_gain_and_error, then demap_hard. Per point: bit errors, TX EVM %,
    RX EVM % and RX cloud."""
    ctx = simulate._build_context(replace(config, calibration_ebn0_db=ebn0_values[0]))
    noise_vars = [simulate._channel_noise_var_w(replace(config, calibration_ebn0_db=ebn0))
                  for ebn0 in ebn0_values]
    ref_energy = tx_err = 0.0
    errors, rx_err, clouds = [0] * len(noise_vars), [0.0] * len(noise_vars), []
    for block, n_sym in enumerate(simulate._block_sizes(ctx.n_symbols)):
        labels, symbols, tx = simulate._tx_block(config, ctx, block, n_sym)
        ref = symbols[ctx.guard_symbols:ctx.guard_symbols + n_sym]
        ref_labels = labels[ctx.guard_symbols:ctx.guard_symbols + n_sym]
        energy = np.sum(np.abs(ref) ** 2)
        ref_energy += energy
        tx_err += plain_gain_and_error(tx, ref, energy)[1]
        stream = block * simulate._STREAMS_PER_BLOCK + simulate._STREAM_CHANNEL
        unit = complex_noise(noise_generator(config.seed, stream), n_sym, 2.0)
        faded = tx * ctx.path_amplitude
        for k, noise_var_w in enumerate(noise_vars):
            rx = rfchain.chain_transfer(faded + unit * math.sqrt(noise_var_w / 2.0),
                                        ctx.rx_chain, ctx.bandwidth_hz)
            gain, err = plain_gain_and_error(rx, ref, energy)
            rx = rx / gain
            wrong = np.unpackbits(demap_hard(rx, ctx.cmap) ^ ref_labels)
            errors[k] += int(wrong.sum())
            rx_err[k] += err
            if block == 0:
                clouds.append(rx[:simulate._MAX_CLOUD_POINTS])
    return [(errors[k], 100.0 * math.sqrt(tx_err / ref_energy),
             100.0 * math.sqrt(rx_err[k] / ref_energy), clouds[k])
            for k in range(len(noise_vars))]


class TestBlockSums:
    """Under calibrated AWGN a linear RX chain is one voltage gain, and each
    point's gain and EVM come from five block sums; a compressing RX chain
    runs the chain itself."""

    @settings(max_examples=20, deadline=None)
    @given(gains=st.lists(st.floats(-40.0, 40.0).filter(lambda g: abs(g) >= 0.5),
                          min_size=1, max_size=3),
           order=st.sampled_from([4, 16, 256]),
           ebn0_values=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_points_match_the_direct_chain(self, gains, order, ebn0_values, seed):
        """paper.cfg's pulse and TX chain with a drawn linear RX chain, over
        two blocks: bit errors equal, EVMs to 1e-12 and clouds to 1e-12
        relative, against direct_points."""
        cfg = load_config(str(PAPER_CFG))
        cfg.modulation_order = order
        cfg.rx_stages = [rfchain.StageSpec(f"s{i}", g, 3.0) for i, g in enumerate(gains)]
        n_sym = simulate._SYMBOLS_PER_BLOCK + 500
        config = cfg.sim_config(n_bits=n_sym * int(math.log2(order)), seed=seed)
        ctx = simulate._build_context(replace(config, calibration_ebn0_db=ebn0_values[0]))
        assert ctx.rx_linear
        results = next(simulate.run_plans([simulate.link_sim_plan(config, ebn0_values)]))
        for result, (errors, tx_evm, rx_evm, cloud) in zip(
                results, direct_points(config, ebn0_values), strict=True):
            assert result.n_bit_errors == errors
            assert result.tx_evm_pct == pytest.approx(tx_evm, rel=1e-12, abs=0)
            assert result.rx_evm_pct == pytest.approx(rx_evm, rel=1e-12, abs=0)
            np.testing.assert_allclose(result.rx_constellation, cloud, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_linear_rx_gains_change_no_result(self, monkeypatch, threads):
        """The data-aided estimate divides out a linear RX chain's gain:
        chains that differ only in their gains (0 dB against +40/-25 dB) give
        equal bit errors and EVMs to 1e-12 relative, two points over two
        blocks."""
        monkeypatch.setenv("QAMLINK_THREADS", threads)
        cfg = load_config(str(PAPER_CFG))
        runs = []
        for gains in ((0.0, 0.0), (40.0, -25.0)):
            cfg.rx_stages = [rfchain.StageSpec(f"s{i}", g, 3.0) for i, g in enumerate(gains)]
            config = cfg.sim_config(n_bits=8 * (simulate._SYMBOLS_PER_BLOCK + 500), seed=11)
            runs.append(next(simulate.run_plans([simulate.link_sim_plan(config, [14.0, 22.0])])))
        for plain, gained in zip(*runs, strict=True):
            assert plain.n_bit_errors == gained.n_bit_errors > 0
            assert plain.tx_evm_pct == gained.tx_evm_pct
            assert plain.rx_evm_pct == pytest.approx(gained.rx_evm_pct, rel=1e-12, abs=0)

    @pytest.mark.parametrize("pa_linear,rx_calls", [(False, 3), (True, 0)])
    def test_rx_chain_runs_once_per_point_only_when_it_compresses(
            self, monkeypatch, pa_linear, rx_calls):
        """A 3-point sweep of paper.cfg over 3 blocks: with the compressing
        LNA every block runs its RX chain once per point; linearised, the
        chain is one gain and only the TX chain runs, once per block."""
        n0 = simulate._SYMBOLS_PER_BLOCK
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=8 * (2 * n0 + 1000),
                                                        pa_linear=pa_linear)
        ctx = simulate._build_context(replace(config, calibration_ebn0_db=20.0))
        assert ctx.rx_linear == pa_linear
        real, chains = simulate.chain_transfer, []

        def chain_transfer(x, chain, *args):
            chains.append(chain)
            return real(x, chain, *args)

        monkeypatch.setattr(simulate, "chain_transfer", chain_transfer)
        for threads in ("1", "2"):
            chains.clear()
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            next(simulate.run_plans([simulate.link_sim_plan(config, [14.0, 20.0, 26.0])]))
            assert chains.count(ctx.tx_chain) == 3, threads
            assert chains.count(ctx.rx_chain) == 3 * rx_calls, threads
            assert len(chains) == 3 + 3 * rx_calls, threads


@pytest.mark.parametrize("order,n_bits", [(16, 2_000_000), (256, 1_000_000)])
def test_ideal_chains_follow_the_exact_curve(order, n_bits):
    """qpsk.cfg's ideal chains at 0-10 dB in 2 dB steps, one sweep plan:
    every point's BER lies within z binomial standard deviations of the
    exact Gray-QAM curve, z for a family-wise level of 1e-3 over the 12
    points (Bonferroni, any dependence between the points). The
    nearest-neighbour curve lies 1.3% low at 16-QAM and 30% low at 256-QAM
    at 0 dB, several such bands away."""
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 12))
    ebn0_values = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    cfg = load_config(str(QPSK_CFG))
    cfg.modulation_order = order
    config = cfg.sim_config(n_bits=n_bits, seed=2 + order)
    results = next(simulate.run_plans([simulate.link_sim_plan(config, ebn0_values)]))
    for ebn0, result in zip(ebn0_values, results, strict=True):
        exact = theoretical_ber(order, ebn0)
        band = z * math.sqrt(exact * (1.0 - exact) / n_bits)
        assert abs(result.measured_ber - exact) <= band, (ebn0, result.measured_ber, exact)


def test_worker_count_never_exceeds_cpus_or_jobs(monkeypatch):
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("QAMLINK_THREADS", "64")
    assert worker_count(16) == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("QAMLINK_THREADS", "1")
    assert worker_count(16) == 1
    monkeypatch.delenv("QAMLINK_THREADS")
    assert worker_count(16) == 2


def test_cli_import_loads_no_scipy():
    src = str(Path(qamlink.__file__).resolve().parent.parent)
    code = ("import sys, qamlink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src},
                         timeout=120)
    assert out.stdout.strip() == "[]"
