"""Free-space propagation, thermal noise floor, and seeded SFC64 noise streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import THERMAL_NOISE_DBM_PER_HZ, GainDb, PowerDbm, check_db, wavelength

# Below this many wavelengths the far-field model is dubious; flagged, not fatal.
NEAR_FIELD_WAVELENGTHS = 10.0

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ChannelSpec:
    """Free-space link geometry and antenna gains."""

    frequency_hz: float
    distance_m: float
    tx_antenna_gain_db: GainDb = 0.0
    rx_antenna_gain_db: GainDb = 0.0

    def __post_init__(self):
        for name in ("frequency_hz", "distance_m", "tx_antenna_gain_db",
                     "rx_antenna_gain_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        f = self.frequency_hz
        check_db("10 log10(frequency_hz)", 10.0 * math.log10(f) if f > 0.0 else -math.inf)
        if self.distance_m <= 0.0:
            raise ValueError(f"distance must be > 0 m, got {self.distance_m}")
        spreading = self.spreading
        check_db("the free-space gain 20 log10(lambda / (4 pi distance_m)) at frequency_hz",
                 20.0 * math.log10(spreading) if spreading > 0.0 else -math.inf)
        check_db("tx_antenna_gain_db", self.tx_antenna_gain_db)
        check_db("rx_antenna_gain_db", self.rx_antenna_gain_db)

    @property
    def spreading(self) -> float:
        """Free-space voltage gain lambda / (4 pi d)."""
        return wavelength(self.frequency_hz) / (4.0 * math.pi * self.distance_m)


def path_gain_db(spec: ChannelSpec) -> GainDb:
    """Antenna gains plus free-space spreading, 20*log10(lambda / (4 pi d))."""
    antenna_gain = spec.tx_antenna_gain_db + spec.rx_antenna_gain_db
    return antenna_gain + 20.0 * math.log10(spec.spreading)


def friis_received_power(p_tx_dbm: PowerDbm, spec: ChannelSpec) -> PowerDbm:
    """Received power over the free-space link."""
    return p_tx_dbm + path_gain_db(spec)


def noise_floor(bandwidth_hz: float, nf_db: float) -> PowerDbm:
    """Thermal floor plus receiver noise figure: -174 + 10 log10(B) + NF."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + nf_db


def noise_generator(seed: int, stream: int) -> np.random.Generator:
    """SFC64 generator keyed by (seed, stream), so parallel blocks draw
    independently and reproducibly.

    The seed, taken mod 2**64, is the SeedSequence entropy and the stream its
    spawn key. The two are hashed apart, so distinct pairs give distinct
    sequences; a list key [seed, stream] would not, as [2**32 + 1, 0] and
    [1, 1] pack to the same entropy words.
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed & _MASK64, spawn_key=(stream,))))


def complex_noise(rng: np.random.Generator, shape, variance_watts: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples of the given total variance.

    Each sample is one (real, imaginary) pair of N(0, 1) draws viewed as
    complex128 and scaled in place, so no temporary complex array is built.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    noise = rng.standard_normal((*shape, 2)).view(np.complex128).reshape(shape)
    noise *= math.sqrt(variance_watts / 2.0)
    return noise
