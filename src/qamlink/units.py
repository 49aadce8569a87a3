"""Scalar dB/linear power conversions and frequency helpers used everywhere else."""

from __future__ import annotations

import math

# Exact SI speed of light; range results inherit full precision instead of the
# 3e8 shortcut.
SPEED_OF_LIGHT_M_S = 299_792_458.0

# Conventional room-temperature thermal noise density (kT at 290 K).
THERMAL_NOISE_DBM_PER_HZ = -174.0

# Power quantities stay plain floats; the aliases keep signatures explicit
# about which domain (absolute dBm vs relative dB) a value lives in.
PowerDbm = float
GainDb = float

# Bound on every dB-scaled input (gain, noise figure, dBm, Eb/N0, a rate's
# 10 log10): a power factor of 1e50 keeps the cascade's kTB(F-1)G terms, the
# simulator's sums and 10^(x/20) of a sum of a few such terms inside the floats.
MAX_GAIN_DB = 500.0


def check_db(name: str, value: float | None, low: float = -MAX_GAIN_DB,
             unit: str = "dB") -> None:
    """Reject a dB-scaled value outside [low, MAX_GAIN_DB], nan included; None is unset."""
    if value is not None and not low <= value <= MAX_GAIN_DB:
        raise ValueError(f"{name} must be within [{low:g}, {MAX_GAIN_DB:g}] {unit}, got {value}")


def db_to_linear(x_db: GainDb) -> float:
    """dB ratio to linear power ratio, 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(p_dbm: PowerDbm) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> PowerDbm:
    if p_watts <= 0.0:
        raise ValueError(f"power must be > 0 W, got {p_watts}")
    return 10.0 * math.log10(p_watts) + 30.0


def wavelength(freq_hz: float) -> float:
    """Free-space wavelength in meters."""
    if freq_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {freq_hz}")
    return SPEED_OF_LIGHT_M_S / freq_hz
