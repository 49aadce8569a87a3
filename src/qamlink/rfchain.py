"""Memoryless RF stage models (gain, noise figure, compression, third-order
intercept) and Friis cascade analysis of gain and noise figure."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import complex_noise, noise_floor
from .units import MAX_GAIN_DB, GainDb, PowerDbm, check_db, db_to_linear, dbm_to_watts

# Fractional gain drop at the 1 dB compression point: 1 - 10^(-1/20).
_COMPRESSION_1DB = 1.0 - 10.0 ** (-1.0 / 20.0)

# Two-tone offset between output P1dB and OIP3 quoted for the PA family used
# here. The third-order envelope polynomial below implies 10.64 dB, so the
# quoted constant and the waveform model agree to within 0.04 dB.
OIP3_OVER_P1DB_DB = 10.6


@dataclass(frozen=True)
class StageSpec:
    """One RF stage: gain, noise figure, optional output compression point."""

    name: str
    gain_db: GainDb
    nf_db: float = 0.0
    p1db_out_dbm: PowerDbm | None = None

    def __post_init__(self):
        if not math.isfinite(self.gain_db):
            raise ValueError(f"stage {self.name!r}: gain must be finite")
        check_db(f"stage {self.name!r}: noise figure", self.nf_db, low=0.0)
        check_db(f"stage {self.name!r}: p1db_out_dbm", self.p1db_out_dbm, unit="dBm")

    @property
    def is_nonlinear(self) -> bool:
        return self.p1db_out_dbm is not None

    @classmethod
    def passive(cls, name: str, loss_db: float) -> "StageSpec":
        """Matched passive stage; its noise figure equals its loss."""
        if loss_db < 0.0:
            raise ValueError(f"stage {name!r}: passive loss must be >= 0 dB")
        return cls(name=name, gain_db=-loss_db, nf_db=loss_db)

    def linearized(self) -> "StageSpec":
        """Same stage with compression disabled."""
        return replace(self, p1db_out_dbm=None)


@dataclass(frozen=True)
class ChainSpec:
    """Ordered cascade of stages; antenna-side first for RX, baseband-side
    first for TX."""

    stages: tuple[StageSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("chain must contain at least one stage")
        gain_db = 0.0
        for stage in self.stages:
            gain_db += stage.gain_db
            if abs(gain_db) > MAX_GAIN_DB:
                raise ValueError(
                    f"stage {stage.name!r}: gain_db summed from the chain input through "
                    f"this stage is {gain_db:g} dB, outside +-{MAX_GAIN_DB:g} dB")

    def linearized(self) -> "ChainSpec":
        return ChainSpec(tuple(s.linearized() for s in self.stages))


@dataclass(frozen=True)
class CascadeResult:
    total_gain_db: GainDb
    total_nf_db: float


def cascade(chain: ChainSpec) -> CascadeResult:
    """Friis cascade of gain and noise figure, without compression.

    F = 1 + N_out / (kTB G): the stages' own noise referred to the output by
    the walk the chains draw with, which is F = F1 + (F2-1)/G1 + ... in linear
    units; gains accumulate by summing dB.
    """
    gain_db = sum(stage.gain_db for stage in chain.stages)
    ktb_w = dbm_to_watts(noise_floor(1.0, 0.0))  # over 1 Hz: the bandwidth cancels
    f_total = 1.0 + output_noise_watts(chain, 1.0) / (ktb_w * db_to_linear(gain_db))
    return CascadeResult(gain_db, 10.0 * math.log10(f_total))


def output_noise_watts(chain: ChainSpec, bandwidth_hz: float) -> float:
    """Noise the stages add over the bandwidth, each stage's kTB(F-1)G carried
    to the output through the small-signal gains behind it."""
    [(_, noise_w, _)] = _folded_runs(chain.linearized(), bandwidth_hz, 0.0)
    return noise_w


def split_output_noise(chain: ChainSpec, bandwidth_hz: float) -> tuple[ChainSpec, float]:
    """The chain with its last run made noiseless, and that run's noise at
    the chain output.

    The last run is every stage from the last compressing one on, the whole
    chain if none compresses. Only small-signal gains lie behind its noise,
    so a draw further down the link can carry it, referred through the
    linear gains in between (Jeruchim, Balaban & Shanmugan, *Simulation of
    Communication Systems*)."""
    k = max((i for i, s in enumerate(chain.stages) if s.is_nonlinear), default=0)
    quiet = chain.stages[:k] + tuple(replace(s, nf_db=0.0) for s in chain.stages[k:])
    *_, (_, noise_w, _) = _folded_runs(chain, bandwidth_hz, 0.0)
    return ChainSpec(quiet), noise_w


def oip3_from_p1db(p1db_out_dbm: PowerDbm) -> PowerDbm:
    """Output third-order intercept from output P1dB via the 10.6 dB offset."""
    return p1db_out_dbm + OIP3_OVER_P1DB_DB


def _polynomial_coefficients(spec: StageSpec) -> tuple[float, float]:
    """(a1, a3) of y = a1*x - a3*|x|^2*x.

    a1 is the small-signal voltage gain; a3 is fixed by requiring the output
    power at the 1 dB compression input to equal the stage's output P1dB.
    """
    a1 = 10.0 ** (spec.gain_db / 20.0)
    out_amp_1db = math.sqrt(dbm_to_watts(spec.p1db_out_dbm))
    in_amp_1db = out_amp_1db / (a1 * 10.0 ** (-1.0 / 20.0))
    a3 = _COMPRESSION_1DB * a1 / (in_amp_1db * in_amp_1db)
    return a1, a3


def amplifier_transfer(x, spec: StageSpec):
    """Apply one stage to complex baseband samples.

    Linear stages scale by the voltage gain. A stage with an output P1dB
    follows the third-order AM/AM polynomial above; past the polynomial's
    peak input the output envelope hard-clips at the peak value so the
    envelope stays monotone. Phase passes through untouched (no AM/PM).
    """
    x = np.asarray(x, dtype=np.complex128)
    if not spec.is_nonlinear:
        y = x * 10.0 ** (spec.gain_db / 20.0)
    else:
        a1, a3 = _polynomial_coefficients(spec)
        peak_in = math.sqrt(a1 / (3.0 * a3))
        flat = x.reshape(-1)
        env = np.abs(flat)
        gain = np.multiply(env, -a3)  # a1 - a3 * env * env in one array, rounded alike
        gain *= env
        gain += a1
        clip = np.flatnonzero(env > peak_in)
        if clip.size:
            shrink = peak_in / env[clip]
            clipped = env[clip] * shrink
            gain[clip] = (a1 - a3 * clipped * clipped) * shrink
        y = np.multiply(gain, flat).reshape(x.shape)
    return complex(y) if y.ndim == 0 else y


def stage_added_noise_watts(spec: StageSpec, bandwidth_hz: float) -> float:
    """Output-referred noise power the stage itself adds over the bandwidth."""
    ktb_w = dbm_to_watts(noise_floor(bandwidth_hz, 0.0))
    return ktb_w * (db_to_linear(spec.nf_db) - 1.0) * db_to_linear(spec.gain_db)


def chain_transfer(x, chain: ChainSpec, bandwidth_hz: float,
                   rng: np.random.Generator | None = None,
                   input_noise_watts: float = 0.0) -> np.ndarray:
    """Run 1-D complex baseband samples through every stage in order.

    Given an RNG the chain is noisy: ``input_noise_watts`` of noise is due at
    the chain input and each stage adds its own thermal noise over the
    bandwidth (kTB(F-1)G at the stage output), which makes a simulated chain
    reproduce the Friis cascade noise figure when driven at the kTB floor.

    Noise of variance s2 ahead of a linear voltage gain g equals noise of
    variance g^2 s2 behind it, so each maximal run of linear stages folds into
    one gain and one output-referred noise variance. Both are applied once,
    just before the next compressing stage or at the chain output: the
    output has the same distribution as with a draw after every stage.

    Each run is applied once over the whole input, in place: a complex128
    input is overwritten and returned; any other input is converted first.
    """
    y = np.asarray(x, dtype=np.complex128)
    for gain, noise_w, stage in _folded_runs(chain, bandwidth_hz, input_noise_watts):
        if gain != 1.0:
            y *= gain
        if rng is not None and noise_w > 0.0:
            y += complex_noise(rng, y.size, noise_w)
        if stage is not None:
            y[...] = amplifier_transfer(y, stage)
    return y


def _folded_runs(chain: ChainSpec, bandwidth_hz: float, input_noise_watts: float):
    """(voltage gain, output-referred noise variance, compressing stage or
    None) of each run: its folded linear stages, then the stage ending it."""
    gain = 1.0
    noise_w = input_noise_watts
    for stage in chain.stages:
        if stage.is_nonlinear:
            yield gain, noise_w, stage
            gain, noise_w = 1.0, 0.0
        else:
            g = 10.0 ** (stage.gain_db / 20.0)
            gain *= g
            noise_w *= g * g
        noise_w += stage_added_noise_watts(stage, bandwidth_hz)
    yield gain, noise_w, None
