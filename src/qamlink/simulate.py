"""End-to-end complex-baseband Monte-Carlo simulation of the link:
symbol labels -> QAM -> pulse shaping -> TX chain -> free space + AWGN ->
RX chain -> demapping, with BER, EVM, spectrum, and constellation outputs.

The pulse shaper is a polyphase bank of symbol-rate FIRs, and every later
stage is memoryless, so BER, EVM and the constellations need only the
symbol instants, one phase of the bank: every Monte-Carlo block of
run_link_sim runs at the instants. Only the TX power spectrum needs the
full-rate waveform, all phases of the bank; transmit_waveform computes it in
a TX-only pass over the window blocks with the same label streams, each
shaping, transmitting and reducing its samples to Welch chunk sums 32,768 at
a time, so neither the window nor a block exists as one array. That pass
draws no noise: the TX chain's white noise enters its power and spectrum as
a closed-form variance. Every block normalises its drive on a closed form of
its full-rate pulse power between the guards, the samples it transmits;
calibrated AWGN is referred to the link budget's received power.

The run is split into fixed-size symbol blocks. Every block draws its
symbols as packed uint8 labels and carries them to the error count, the
popcount of their XOR with the demapped labels. Labels and noise come from
SFC64 streams keyed by (seed, block, purpose), so results are bit-identical
regardless of how many worker threads execute the blocks. A run is a Plan:
its block jobs and the block-order reduction of their results. run_plans
queues the blocks of several runs on one thread pool, so a command's runs
share its workers with no barrier between them. One Monte-Carlo plan serves
every Eb/N0 point of a sweep: each block makes its labels, TX samples and
unit channel noise once and runs each point's noise scale, RX chain and
demap on them (common random numbers), so every point is its own run at the
same seed, bit for bit; through a linear RX chain a point's gain and EVM
come from five block sums.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Any

import numpy as np

from .channel import (complex_noise, friis_received_power, noise_floor, noise_generator,
                      path_gain_db)
from .linkbudget import LinkScenario
from .modem import (
    ConstellationMap,
    build_constellation,
    demap_hard,
    map_bits,
)
from .rfchain import ChainSpec, chain_transfer, output_noise_watts, split_output_noise
from .units import dbm_to_watts, watts_to_dbm

Z_95 = NormalDist().inv_cdf(0.975)

PULSE_SHAPES = ("rectangular", "gaussian")

WORKER_ENV_VAR = "QAMLINK_THREADS"

_SYMBOLS_PER_BLOCK = 32768
_MAX_CLOUD_POINTS = 4096
_PSD_TARGET_SAMPLES = 1 << 20
_PSD_SEGMENT_SAMPLES = 512
_WELCH_PIECE_SEGMENTS = 128  # half a Welch chunk sum
_MAX_PULSE_SPAN_SYMBOLS = 64  # a Gaussian pulse's +/-4 sigma: 4 sqrt(ln 2) / (pi BT)
_MIN_GAUSSIAN_BT = 4.0 * math.sqrt(math.log(2.0)) / (math.pi * _MAX_PULSE_SPAN_SYMBOLS)

# per-block RNG substreams
_STREAMS_PER_BLOCK = 4
_STREAM_BITS, _STREAM_TX, _STREAM_CHANNEL, _STREAM_RX = range(_STREAMS_PER_BLOCK)


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo run: scenario, TX chain, waveform and drive options.

    The TX chain is driven so that its small-signal output lands on the
    scenario's ``tx_power_dbm``; a compressing stage delivers somewhat less.
    ``calibration_ebn0_db`` switches the channel to calibrated AWGN at
    that Eb/N0 (stage noise off), which is the configuration used to compare
    measured BER against the closed-form curves; it needs noise enabled.
    """

    scenario: LinkScenario
    tx_chain: ChainSpec
    n_bits: int
    seed: int
    samples_per_symbol: int
    pulse_shape: str
    gaussian_bt: float
    noise_enabled: bool
    pa_linear: bool
    calibration_ebn0_db: float | None
    evm_threshold_pct: float

    def __post_init__(self):
        n = self.scenario.bits_per_symbol
        if self.n_bits <= 0 or self.n_bits % n:
            raise ValueError(
                f"n_bits must be a positive multiple of {n}, got {self.n_bits}")
        if self.samples_per_symbol < 2:
            raise ValueError(
                f"samples_per_symbol must be >= 2, got {self.samples_per_symbol}")
        if self.pulse_shape not in PULSE_SHAPES:
            raise ValueError(
                f"unknown pulse_shape {self.pulse_shape!r}; expected one of {PULSE_SHAPES}")
        for name, low in (("gaussian_bt", _MIN_GAUSSIAN_BT), ("evm_threshold_pct", 0.0)):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > low):
                raise ValueError(f"{name} must be finite and > {low:.4g}, got {value}")
        if self.calibration_ebn0_db is not None:
            try:
                noise_var_w = _channel_noise_var_w(self)
            except (OverflowError, ZeroDivisionError):  # 10^(Es/N0/10) beyond the floats
                noise_var_w = math.nan
            if not 0.0 < noise_var_w < math.inf:
                raise ValueError(
                    "calibration Eb/N0 must be finite and give a finite channel noise "
                    f"variance > 0, got {self.calibration_ebn0_db}")
            if not self.noise_enabled:
                raise ValueError("calibration Eb/N0 has no effect with noise disabled")


@dataclass(frozen=True)
class SimResult:
    """Measured link quality plus plot-ready constellations."""

    measured_ber: float
    ber_confidence: tuple[float, float]  # 95% Wilson interval
    tx_evm_pct: float
    rx_evm_pct: float
    tx_constellation: np.ndarray         # complex symbol-instant samples, <= 4096
    rx_constellation: np.ndarray
    n_bits_run: int
    n_bit_errors: int


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for an observed error proportion.

    With zero observed errors the upper bound stays meaningfully above zero,
    so a clean run never turns into a claim of BER = 0.
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    half = Z_95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    low = 0.0 if errors == 0 else max(0.0, (center - half) / denom)
    high = 1.0 if errors == trials else min(1.0, (center + half) / denom)
    return (low, high)


def gaussian_taps(bt: float, samples_per_symbol: int) -> np.ndarray:
    """Linear-phase Gaussian lowpass impulse response, unit DC gain.

    The 3 dB bandwidth is bt times the symbol rate; the response is truncated
    at +/-4 standard deviations of its time-domain width. The symmetric taps
    sit on half-integer offsets, so the filter delays by half a sample; that
    places the eye of a filtered sample-and-hold waveform exactly on the
    sample grid at offset samples_per_symbol // 2 into each symbol.
    """
    if bt <= 0.0:
        raise ValueError(f"bt must be > 0, got {bt}")
    sigma = math.sqrt(math.log(2.0)) * samples_per_symbol / (2.0 * math.pi * bt)
    half = max(1, math.ceil(4.0 * sigma))
    n = np.arange(-half, half, dtype=float) + 0.5
    taps = np.exp(-0.5 * (n / sigma) ** 2)
    return taps / taps.sum()


def pulse_shape(symbols, pulse: _SymbolRatePulse, start: int = 0,
                stop: int | None = None) -> np.ndarray:
    """Samples [start, stop) of the symbols upsampled to the waveform grid,
    samples_per_symbol per symbol; by default all of them.

    Rectangular mode is plain sample-and-hold; gaussian mode follows the hold
    with the Gaussian lowpass above (zero group delay, symmetric kernel),
    trimmed to the held length like 'same'-mode convolution. A span is
    filtered from the symbols that reach it alone, bit for bit as a slice of
    the whole.
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.complex128)
    k, sps, delay = pulse.n_taps, pulse.sps, pulse.delay
    stop = symbols.size * sps if stop is None else stop
    # full-convolution rows first..last hold the span, each made from the k
    # symbols up to it; np.convolve swaps a longer kernel, so slice >= k symbols
    first, last = (delay + start) // sps, (delay + stop - 1) // sps
    a = max(0, min(first - k + 1, symbols.size - k))
    b = min(symbols.size, max(last + 1, a + k))
    return pulse.full(symbols[a:b])[delay - a * sps + start:delay - a * sps + stop]


def _welch_pieces(piece: Callable[[int, int], np.ndarray], start: int, stop: int,
                  segment_len: int) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
    """The power, Welch chunk sums and first and last half segments of a
    signal's samples [start, stop), from piece(a, b), its samples [a, b).

    A chunk sums the periodograms of 256 Hann-windowed, half-overlapping
    segments, made 128 at a time from pieces that run half a segment on. Its
    second piece sums onto the first's sum row by row, as numpy sums axis 0:
    bit for bit the 256-row sum."""
    half = segment_len // 2
    size = _WELCH_PIECE_SEGMENTS * (segment_len - half)
    power, sums, head = 0.0, [], None
    for k, a in enumerate(range(start, stop, size)):
        x = piece(a, min(stop, a + size + half))
        power += _real_dot(x[:size], x[:size])
        if x.size >= segment_len:
            sums.append(_periodogram_sum(x, segment_len, sums.pop() if k % 2 else 0.0))
        head = x[:half].copy() if head is None else head
    return power, sums, head, x[-half:].copy()


def _periodogram_sum(x: np.ndarray, segment_len: int, carry=0.0) -> np.ndarray:
    """The periodograms of x's Hann-windowed, half-overlapping segments, summed onto carry."""
    step = segment_len - segment_len // 2
    stride = x.strides[0]
    segments = np.lib.stride_tricks.as_strided(
        x, ((x.size - segment_len) // step + 1, segment_len), (step * stride, stride),
        writeable=False)
    spectra = segments * _periodic_hann(segment_len)
    np.fft.fft(spectra, axis=1, out=spectra)
    squares = spectra.view(np.float64)
    squares *= squares
    rows = squares[:, ::2]
    rows += squares[:, 1::2]
    rows[0] += carry  # + 0.0 changes no periodogram bin, a sum of squares
    return np.sum(rows, axis=0)


@functools.cache
def _periodic_hann(segment_len: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    window.flags.writeable = False
    return window


def _welch_density(chunk_sums: list, n_samples: int, sample_rate_hz: float, segment_len: int):
    """welch_psd's result from the chunk sums of n_samples, in chunk order."""
    n_segments = (n_samples - segment_len) // (segment_len - segment_len // 2) + 1
    power = sum(chunk_sums, np.zeros(segment_len))
    density = power / (n_segments * sample_rate_hz * np.sum(_periodic_hann(segment_len) ** 2))
    freqs = np.fft.fftfreq(segment_len, 1.0 / sample_rate_hz)
    return np.fft.fftshift(freqs), np.fft.fftshift(density)


def welch_psd(samples, sample_rate_hz: float, segment_len: int):
    """Averaged-periodogram density estimate (Hann window, 50% overlap).

    Returns (frequencies, linear density) with frequencies spanning +/-fs/2.
    The density integrates to the time-domain mean power (Parseval).
    """
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    if samples.size < 2 * segment_len:
        raise ValueError(
            f"need at least {2 * segment_len} samples for {segment_len}-sample "
            f"segments, got {samples.size}")
    sums = _welch_pieces(lambda a, b: samples[a:b], 0, samples.size, segment_len)[1]
    return _welch_density(sums, samples.size, sample_rate_hz, segment_len)


def _segment_len(n_samples: int) -> int:
    """estimate_spectrum's segment length for an input of n_samples."""
    if n_samples < 4:
        raise ValueError(f"input too short for a spectrum estimate: {n_samples}")
    return min(_PSD_SEGMENT_SAMPLES, 1 << int(math.log2(n_samples / 2)))


def _relative_db(freqs, density, sample_rate_hz: float, noise_var_w: float) -> np.ndarray:
    """estimate_spectrum's (frequency_hz, power_db) pairs from a Welch density."""
    density += noise_var_w / sample_rate_hz
    peak = density.max()
    if peak <= 0.0:
        raise ValueError("input has no power; spectrum undefined")
    power_db = 10.0 * np.log10(np.maximum(density, peak * 1e-30) / peak)
    return np.column_stack([freqs, power_db])


def estimate_spectrum(samples, sample_rate_hz: float,
                      noise_var_w: float = 0.0) -> np.ndarray:
    """PSD estimate as (frequency_hz, power_db) pairs, dB relative to the peak.

    Segments are 512 samples long, or for inputs shorter than 1024 samples
    the largest power of two that fits two segments into the input.
    The expected density of independent white noise of per-sample variance
    ``noise_var_w``, noise_var_w / sample_rate_hz, is added before that.
    """
    samples = np.asarray(samples)
    freqs, density = welch_psd(samples, sample_rate_hz, _segment_len(samples.size))
    return _relative_db(freqs, density, sample_rate_hz, noise_var_w)


# ---------------------------------------------------------------------------
# run_link_sim internals

def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum(conj(a) * b), as one fused float multiply-sum with no temporary.
    np.vdot would hand a block-sized product to a BLAS that starts threads of
    its own, and those contend with the block workers."""
    return float(np.einsum("i,i->", a.view(np.float64), b.view(np.float64)))


@dataclass(frozen=True)
class _SymbolRatePulse:
    """The pulse shaper as a polyphase bank of symbol-rate FIRs.

    ``pulse_shape`` is a sum of held pulses p = ones(sps) * taps, one per
    symbol sps samples apart, less the first ``delay`` and the last
    ``taps.size - 1 - delay`` samples of the full convolution. Phase r of
    that convolution, its samples q * sps + r, holds the symbols filtered by
    p[r::sps] (Crochiere & Rabiner, *Multirate Digital Signal Processing*).
    The symbol instants are one phase, and the waveform's energy is a
    quadratic form in the symbols over p's autocorrelation at symbol lags.
    """

    taps: np.ndarray  # the lowpass after the hold; [1.0] for rectangular pulses
    sps: int
    delay: int
    n_taps: int       # K, the taps of each phase
    # (sps, 2K - 1): p[r::sps] in row r, zero-padded to K taps, with a zero
    # between taps, so that it filters interleaved (re, im) pairs as floats
    bank: np.ndarray
    acf: np.ndarray   # p's autocorrelation at lags 0, sps, 2 sps, ...

    @classmethod
    def of(cls, config: SimConfig) -> _SymbolRatePulse:
        sps = config.samples_per_symbol
        taps = (gaussian_taps(config.gaussian_bt, sps)
                if config.pulse_shape == "gaussian" else np.ones(1))
        pulse = np.convolve(np.ones(sps), taps)
        phases = np.pad(pulse, (0, -pulse.size % sps)).reshape(-1, sps).T
        bank = np.zeros((sps, 2 * phases.shape[1] - 1))
        bank[:, ::2] = phases
        acf = np.correlate(pulse, pulse, "full")[pulse.size - 1::sps]
        return cls(taps, sps, (taps.size - 1) // 2, phases.shape[1], bank, acf)

    def _filter(self, symbols: np.ndarray, r: int) -> np.ndarray:
        """Full convolution of the symbols with phase r: n + K - 1 samples."""
        return np.convolve(symbols.view(np.float64), self.bank[r]).view(np.complex128)

    def full(self, symbols: np.ndarray) -> np.ndarray:
        """The full convolution, zero-padded to (n + K - 1) * sps samples."""
        out = np.empty((symbols.size + self.n_taps - 1, self.sps), np.complex128)
        for r in range(self.sps):
            out[:, r] = self._filter(symbols, r)
        return out.reshape(-1)

    def at_instants(self, symbols: np.ndarray, first: int, n: int) -> np.ndarray:
        """pulse_shape(symbols)[(first + k) * sps + sps // 2] for k < n."""
        lead, phase = divmod(self.sps // 2 + self.delay, self.sps)
        return self._filter(symbols, phase)[first + lead:first + lead + n]

    def mean_power(self, s: np.ndarray, guard: int) -> float:
        """Mean of |pulse_shape(s)|**2 between ``guard`` symbols at each end,
        in closed form."""
        energy = self.acf[0] * _real_dot(s, s)
        for lag in range(1, min(self.acf.size, s.size)):
            energy += 2.0 * self.acf[lag] * _real_dot(s[:-lag], s[lag:])
        # less the samples outside that span, from the guard + K symbols at
        # each end that reach them
        k = guard + self.n_taps
        head = self.full(s[:k])[:self.delay + guard * self.sps]
        end = s[-k:]
        tail = self.full(end)[(end.size - guard) * self.sps + self.delay:]
        energy -= _real_dot(head, head) + _real_dot(tail, tail)
        return energy / ((s.size - 2 * guard) * self.sps)


@dataclass(frozen=True)
class _Context:
    """Per-run invariants shared by all blocks."""

    cmap: ConstellationMap
    sps: int
    guard_symbols: int
    n_symbols: int
    sample_rate_hz: float
    bandwidth_hz: float
    pulse: _SymbolRatePulse
    tx_chain: ChainSpec
    # the TX chain of the Monte-Carlo blocks and the TX output noise they do
    # not draw: thermal runs draw it at the RX input (_channel_noise_var_w)
    tx_block_chain: ChainSpec
    tx_output_noise_w: float
    rx_chain: ChainSpec
    input_power_w: float
    path_amplitude: float
    # "thermal": kTB channel noise plus stage noise, both drawn by the chains
    # "ebn0":    calibrated AWGN only   "off": no noise anywhere
    noise_mode: str
    # calibrated AWGN and no compressing RX stage: the chain is one voltage
    # gain, which the data-aided gain estimate divides out, so it is skipped
    rx_linear: bool


@dataclass
class _BlockStats:
    ref_energy: float
    tx_err_energy: float
    tx_cloud: np.ndarray
    points: list[tuple[int, float, np.ndarray]]  # bit errors, RX error energy, RX cloud


def _block_sizes(n_symbols: int) -> list[int]:
    """Symbols per block: full blocks, then the remainder."""
    n_blocks = max(1, math.ceil(n_symbols / _SYMBOLS_PER_BLOCK))
    return [_SYMBOLS_PER_BLOCK] * (n_blocks - 1) + [
        n_symbols - _SYMBOLS_PER_BLOCK * (n_blocks - 1)]


def _build_context(config: SimConfig) -> _Context:
    scenario = config.scenario
    cmap = build_constellation(scenario.modulation_order)
    sps = config.samples_per_symbol
    n_symbols = config.n_bits // cmap.bits_per_symbol

    pulse = _SymbolRatePulse.of(config)
    guard = (math.ceil((pulse.taps.size // 2) / sps) + 1
             if config.pulse_shape == "gaussian" else 0)

    tx_chain, rx_chain = _chains(config)

    # average drive power: the small-signal chain output is the transmit power
    drive_dbm = scenario.tx_power_dbm - sum(s.gain_db for s in tx_chain.stages)
    noise_mode = ("ebn0" if config.calibration_ebn0_db is not None
                  else "thermal" if config.noise_enabled else "off")
    tx_block_chain, tx_output_noise_w = (
        split_output_noise(tx_chain, scenario.bandwidth_hz) if noise_mode == "thermal"
        else (tx_chain, 0.0))

    return _Context(
        cmap=cmap,
        sps=sps,
        guard_symbols=guard,
        n_symbols=n_symbols,
        sample_rate_hz=sps * scenario.symbol_rate_hz,
        bandwidth_hz=scenario.bandwidth_hz,
        pulse=pulse,
        tx_chain=tx_chain,
        tx_block_chain=tx_block_chain,
        tx_output_noise_w=tx_output_noise_w,
        rx_chain=rx_chain,
        input_power_w=dbm_to_watts(drive_dbm),
        path_amplitude=10.0 ** (path_gain_db(scenario.channel) / 20.0),
        noise_mode=noise_mode,
        rx_linear=noise_mode == "ebn0" and not any(s.is_nonlinear for s in rx_chain.stages),
    )


def _chains(config: SimConfig) -> tuple[ChainSpec, ChainSpec]:
    """The TX and RX chains a run uses."""
    tx, rx = config.tx_chain, config.scenario.rx_chain
    return (tx.linearized(), rx.linearized()) if config.pa_linear else (tx, rx)


def _channel_noise_var_w(config: SimConfig) -> float:
    """The noise variance due at the RX input: the calibrated AWGN, or kTB
    plus the TX chain's output noise referred through the path, a linear gain."""
    scenario = config.scenario
    if config.calibration_ebn0_db is None:
        tx_noise_w = split_output_noise(_chains(config)[0], scenario.bandwidth_hz)[1]
        path_power = 10.0 ** (path_gain_db(scenario.channel) / 10.0)
        return dbm_to_watts(noise_floor(scenario.bandwidth_hz, 0.0)) + tx_noise_w * path_power
    # Es/N0 against the budget's received power, small-signal TX output
    esn0_db = config.calibration_ebn0_db + 10.0 * math.log10(scenario.bits_per_symbol)
    rx_power_dbm = friis_received_power(scenario.tx_power_dbm, scenario.channel)
    return dbm_to_watts(rx_power_dbm) / 10.0 ** (esn0_db / 10.0)


def _energy(x: np.ndarray) -> float:
    """sum |x|**2, through one temporary."""
    squares = x.real ** 2
    squares += x.imag ** 2
    return np.sum(squares)


def _power_and_projection(measured: np.ndarray, reference: np.ndarray) -> tuple[float, complex]:
    """sum |measured|**2 and c = sum(conj(reference) * measured), the power
    first, so that its temporaries are gone before the product is made."""
    power = _energy(measured)
    product = np.conj(reference)
    product *= measured
    return power, np.sum(product)


def _gain_and_error(power: float, c: complex,
                    reference_energy: float) -> tuple[complex, float]:
    """The data-aided complex gain estimate of a measured signal against a
    reference, and the EVM error energy min_a sum |a * measured - reference|**2,
    from the measured power and projection c of _power_and_projection.

    The gain is c / reference_energy: projecting onto the known reference
    makes it unbiased under additive noise, unlike the EVM-minimizing scalar,
    which shrinks by 1/(1 + 1/SNR) and would skew the outer decision regions.
    A silent signal has gain 1, so dividing by the gain is always defined. The
    error energy is reference_energy - |c|**2 / power, so bulk gain and phase
    are not error; it is clamped at 0 against rounding.
    """
    error = max(0.0, reference_energy - abs(c) ** 2 / power) if power else reference_energy
    gain = c / reference_energy
    return (gain if gain != 0.0 else 1.0), float(error)


def _tx_block(config: SimConfig, ctx: _Context, block: int, n_sym: int, *,
              reduce: Callable[[Callable], Any] | None = None):
    """Symbol labels, mapped symbols, and post-chain waveform for one block.

    The waveform is its n_sym symbol instants, one phase of the pulse
    shaper's filter bank: every later TX stage is memoryless with white
    noise, which only the instants draw, but for a thermal run's TX output
    noise, drawn at the RX input. Given ``reduce``, it is reduce(piece)
    of the noise-free full-rate waveform with guards, whose samples
    [start, stop) are piece(start, stop), all by default. Either way the
    drive is normalised on the full-rate pulse's mean power between the
    guards, in closed form."""
    base = block * _STREAMS_PER_BLOCK
    bits_rng = noise_generator(config.seed, base + _STREAM_BITS)
    # a uniform byte is the cheapest draw; every order is a power of two
    labels = bits_rng.integers(0, 256, n_sym + 2 * ctx.guard_symbols, dtype=np.uint8)
    labels &= ctx.cmap.order - 1
    symbols = map_bits(labels, ctx.cmap)
    scale = math.sqrt(ctx.input_power_w / ctx.pulse.mean_power(symbols, ctx.guard_symbols))

    def transmit(start: int = 0, stop: int | None = None) -> np.ndarray:
        wave = (pulse_shape(symbols, ctx.pulse, start, stop) if reduce
                else ctx.pulse.at_instants(symbols, ctx.guard_symbols, n_sym))
        wave *= scale
        tx_rng = (noise_generator(config.seed, base + _STREAM_TX)
                  if ctx.noise_mode == "thermal" and not reduce else None)
        return chain_transfer(wave, ctx.tx_chain if reduce else ctx.tx_block_chain,
                              ctx.bandwidth_hz, tx_rng)

    return labels, symbols, reduce(transmit) if reduce else transmit()


def _simulate_block(config: SimConfig, ctx: _Context, block: int, n_sym: int,
                    noise_vars: list[float]) -> _BlockStats:
    """One block's statistics at each channel noise variance of noise_vars.

    The labels, the TX samples and the unit channel noise are made once and
    serve every point (common random numbers): each point's statistics are
    those of a block run at that variance alone, the same code bit for bit.

    Under calibrated AWGN a linear RX chain is one voltage gain, which the
    data-aided estimate divides out (error E - |C|**2 / P, samples times
    E / C), so it is skipped: a point's RX samples are t + s u, the faded TX
    samples t plus its noise scale s = sqrt(variance / 2) times the unit noise
    u. Its power is E_tt + 2 s R_tu + s^2 E_uu and its projection on the
    reference C_t + s C_u, from the block sums E_tt = sum |t|**2,
    E_uu = sum |u|**2, R_tu = Re sum conj(t) u, C_t = sum conj(ref) t and
    C_u = sum conj(ref) u.
    """
    guard = ctx.guard_symbols
    base = block * _STREAMS_PER_BLOCK
    # the clouds are block 0's first instants: a block holds more than a cloud
    cloud_take = _MAX_CLOUD_POINTS if block == 0 else 0

    labels, symbols, tx_samples = _tx_block(config, ctx, block, n_sym)
    ref = symbols[guard:guard + n_sym]
    ref_labels = labels[guard:guard + n_sym]
    ref_energy = _energy(ref)
    tx_power, tx_c = _power_and_projection(tx_samples, ref)
    # the TX output noise is drawn at the RX input: its expected power here
    tx_gain, tx_err_energy = _gain_and_error(tx_power + n_sym * ctx.tx_output_noise_w, tx_c,
                                             ref_energy)
    tx_cloud = tx_samples[:cloud_take] / tx_gain

    # every stage after the pulse shaper is memoryless and every noise draw
    # white per sample, so the channel and the RX chain run on the instants:
    # the free-space path, then the additive noise for the selected mode;
    # thermal channel noise is due at the RX chain input, which draws it
    # together with the TX output noise and the noise of the chain's first
    # linear stages
    tx_samples *= ctx.path_amplitude
    rx_rng = None
    if ctx.noise_mode == "thermal":
        rx_rng = noise_generator(config.seed, base + _STREAM_RX)
    elif ctx.noise_mode == "ebn0":
        chan_rng = noise_generator(config.seed, base + _STREAM_CHANNEL)
        unit = complex_noise(chan_rng, n_sym, 2.0)  # N(0, 1) per axis, scaled by 1.0
        rx_buffer = np.empty_like(unit) if len(noise_vars) > 1 else unit
    if ctx.rx_linear:
        a = ctx.path_amplitude  # t is the TX samples times a: their sums, scaled
        e_tt, c_t = a * a * tx_power, a * tx_c
        e_uu, c_u = _power_and_projection(unit, ref)
        r_tu = _real_dot(tx_samples, unit)
    points = []
    for noise_var_w in noise_vars:
        rx_samples = tx_samples  # thermal and noise-off runs have one point
        if ctx.noise_mode == "ebn0":
            # the point's noise plus the faded TX samples: addition commutes,
            # so bit for bit the faded samples plus noise drawn at its variance
            s = math.sqrt(noise_var_w / 2.0)
            rx_samples = np.multiply(unit, s, out=rx_buffer)
            rx_samples += tx_samples
        if ctx.rx_linear:
            sums = e_tt + s * (2.0 * r_tu + s * e_uu), c_t + s * c_u
        else:
            rx_samples = chain_transfer(rx_samples, ctx.rx_chain, ctx.bandwidth_hz, rx_rng,
                                        noise_var_w)
            sums = _power_and_projection(rx_samples, ref)
        rx_gain, rx_err_energy = _gain_and_error(*sums, ref_energy)
        rx_samples *= 1.0 / rx_gain
        rx_labels = demap_hard(rx_samples, ctx.cmap)
        n_errors = int(np.bitwise_count(rx_labels ^ ref_labels).sum())
        points.append((n_errors, rx_err_energy, rx_samples[:cloud_take].copy()))
    return _BlockStats(float(ref_energy), tx_err_energy, tx_cloud, points)


def worker_count(n_jobs: int) -> int:
    """Thread-pool size: min(cpu count, n_jobs), capped by QAMLINK_THREADS."""
    cap = os.cpu_count() or 1
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            warnings.warn(f"ignoring non-integer {WORKER_ENV_VAR}={env!r}")
    return max(1, min(cap, n_jobs))


@dataclass(frozen=True)
class Plan:
    """One run as independent block jobs: ``job(block)`` for every block
    below ``n_blocks``, then ``finish`` of their results in block order."""

    n_blocks: int
    job: Callable[[int], Any]
    finish: Callable[[list], Any]


def run_plans(plans: Iterable[Plan]) -> Iterator:
    """Each plan's finished result, in plan order, from one thread pool.

    Every plan's jobs are queued at the first ``next``, plan after plan, so
    the workers go on to later plans' blocks while an earlier plan's last
    blocks finish: there is no barrier between plans. A plan's block results
    are dropped once its ``finish`` returns. Closing the iterator early
    cancels the jobs not yet started.
    """
    plans = list(plans)
    pool = ThreadPoolExecutor(max_workers=worker_count(sum(p.n_blocks for p in plans)))
    try:
        queued = deque([pool.submit(plan.job, block) for block in range(plan.n_blocks)]
                       for plan in plans)
        for plan in plans:
            yield plan.finish([future.result() for future in queued.popleft()])
    finally:
        pool.shutdown(cancel_futures=True)


def link_sim_plan(config: SimConfig, ebn0_values: Iterable[float] | None = None) -> Plan:
    """The Monte-Carlo blocks of config, finishing in a list of SimResults:
    config's own, or config's at each calibration Eb/N0 of ebn0_values.

    Every point is run_link_sim of its config, bit for bit: the points share
    each block's labels, TX samples and unit channel noise (common random
    numbers), so they are correlated, and each block job serves them all.
    Deterministic for a fixed seed under any worker count: blocks own their
    RNG streams and the reduction happens in block order.
    """
    points = [config] if ebn0_values is None else [
        replace(config, calibration_ebn0_db=ebn0) for ebn0 in ebn0_values]
    ctx = _build_context(points[0])
    noise_vars = [_channel_noise_var_w(point) for point in points]
    sizes = _block_sizes(ctx.n_symbols)

    def finish(stats: list[_BlockStats]) -> list[SimResult]:
        ref_energy = sum(s.ref_energy for s in stats)
        tx_evm_pct = 100.0 * math.sqrt(sum(s.tx_err_energy for s in stats) / ref_energy)
        results = []
        for blocks in zip(*(s.points for s in stats)):
            n_errors = sum(errors for errors, _, _ in blocks)
            rx_err = sum(energy for _, energy, _ in blocks)
            results.append(SimResult(
                measured_ber=n_errors / config.n_bits,
                ber_confidence=wilson_interval(n_errors, config.n_bits),
                tx_evm_pct=tx_evm_pct,
                rx_evm_pct=100.0 * math.sqrt(rx_err / ref_energy),
                tx_constellation=stats[0].tx_cloud,
                rx_constellation=blocks[0][2],
                n_bits_run=config.n_bits,
                n_bit_errors=n_errors,
            ))
        return results

    return Plan(len(sizes), lambda i: _simulate_block(config, ctx, i, sizes[i], noise_vars),
                finish)


def run_link_sim(config: SimConfig) -> SimResult:
    """Run the Monte-Carlo link simulation described by config."""
    return next(run_plans([link_sim_plan(config)]))[0]


def window_plan(config: SimConfig) -> Plan:
    """The TX-only blocks of config's spectrum window, finishing in
    transmit_waveform's result.

    Only the window's blocks run, at full rate, each reducing the samples
    between its guards, made 128 segments at a time, to their power and the
    Welch chunk sums of the segments starting there, counted from its first
    segment (with an even samples_per_symbol, estimate_spectrum's bits).
    No noise is drawn: the TX chain's white noise, independent of the signal,
    enters power and density as its expectation, the small-signal output noise
    of the chain's folded walk, the cascade's kTB(F - 1)G (Jeruchim, Balaban &
    Shanmugan, *Simulation of Communication Systems*).
    """
    ctx = _build_context(config)
    noise_var_w = (output_noise_watts(ctx.tx_chain, ctx.bandwidth_hz)
                   if ctx.noise_mode == "thermal" else 0.0)
    n_window = min(ctx.n_symbols * ctx.sps, _PSD_TARGET_SAMPLES)
    segment_len = _segment_len(n_window)
    block_samples = _SYMBOLS_PER_BLOCK * ctx.sps
    sizes = _block_sizes(ctx.n_symbols)[:math.ceil(n_window / block_samples)]
    first = ctx.guard_symbols * ctx.sps

    def job(block: int) -> tuple[float, list[np.ndarray], np.ndarray, np.ndarray]:
        stop = first + min(sizes[block] * ctx.sps, n_window - block * block_samples)
        return _tx_block(config, ctx, block, sizes[block],
                         reduce=lambda p: _welch_pieces(p, first, stop, segment_len))[2]

    def finish(blocks: list) -> tuple[np.ndarray, float, float]:
        for (_, sums, _, tail), (_, _, head, _) in zip(blocks, blocks[1:]):
            if tail.size + head.size == segment_len:  # the straddling segment is whole
                joined = np.concatenate([tail, head])
                sums[-1] = _periodogram_sum(joined, segment_len, sums[-1])
        density = _welch_density([s for _, sums, _, _ in blocks for s in sums], n_window,
                                 ctx.sample_rate_hz, segment_len)
        power_w = sum(power for power, _, _, _ in blocks) / n_window + noise_var_w
        psd = _relative_db(*density, ctx.sample_rate_hz, noise_var_w)
        return psd, ctx.sample_rate_hz, watts_to_dbm(power_w)

    return Plan(len(sizes), job, finish)


def transmit_waveform(config: SimConfig) -> tuple[np.ndarray, float, float]:
    """The spectrum of the transmitted waveform (never held whole) as
    estimate_spectrum's pairs, its sample rate and its mean power in dBm,
    both with the TX chain's white noise. The blocks and label streams are
    run_link_sim's, up to a 1 M-sample window.
    """
    return next(run_plans([window_plan(config)]))
