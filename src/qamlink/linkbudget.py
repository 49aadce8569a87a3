"""Closed-form system analysis: required SNR, receiver sensitivity, range,
link margin, and transmit-power compliance, rolled into one report."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelSpec, friis_received_power, noise_floor
from .modem import SUPPORTED_ORDERS, ebn0_for_ber
from .rfchain import ChainSpec, cascade
from .units import PowerDbm, db_to_linear, wavelength

# 5 GHz unlicensed-band transmit limit, 250 mW quoted as 23.98 dBm (the exact
# conversion is 23.9794 dBm; the quoted figure is kept so a 23.98 dBm
# transmitter sits exactly on the inclusive boundary).
FCC_UNII_LIMIT_DBM = 23.98


@dataclass(frozen=True)
class LinkScenario:
    """Inputs of one end-to-end link design."""

    bit_rate_bps: float
    modulation_order: int
    target_ber: float
    tx_power_dbm: PowerDbm
    channel: ChannelSpec
    rx_chain: ChainSpec
    ebn0_override_db: float | None
    rx_nf_override_db: float | None

    def __post_init__(self):
        if self.bit_rate_bps <= 0.0:
            raise ValueError(f"bit rate must be > 0, got {self.bit_rate_bps}")
        if self.modulation_order not in SUPPORTED_ORDERS:
            raise ValueError(
                f"unsupported modulation order {self.modulation_order}; "
                f"expected one of {SUPPORTED_ORDERS}")
        if not 0.0 < self.target_ber < 0.5:
            raise ValueError(f"target BER must be in (0, 0.5), got {self.target_ber}")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError(f"transmit power must be finite, got {self.tx_power_dbm}")

    @property
    def bandwidth_hz(self) -> float:
        """Null-to-null occupied bandwidth, twice the symbol rate."""
        return 2.0 * self.symbol_rate_hz

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.modulation_order))

    @property
    def symbol_rate_hz(self) -> float:
        return self.bit_rate_bps / self.bits_per_symbol


@dataclass(frozen=True)
class LinkBudgetReport:
    """Every derived quantity of the budget chain, in evaluation order."""

    bit_rate_bps: float
    modulation_order: int
    target_ber: float
    bandwidth_hz: float
    required_ebn0_db: float
    required_snr_db: float
    rx_noise_figure_db: float
    noise_floor_dbm: PowerDbm
    sensitivity_dbm: PowerDbm
    tx_power_dbm: PowerDbm
    rx_power_dbm: PowerDbm
    link_margin_db: float
    distance_m: float
    max_distance_m: float
    max_distance_at_sensitivity_m: float
    fcc_compliant: bool


def required_snr(ebn0_db: float, bit_rate_bps: float, bandwidth_hz: float) -> float:
    """SNR over the bandwidth needed for a target Eb/N0:
    SNR = Eb/N0 + 10 log10(R) - 10 log10(B)."""
    if bit_rate_bps <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("bit rate and bandwidth must be > 0")
    return ebn0_db + 10.0 * math.log10(bit_rate_bps) - 10.0 * math.log10(bandwidth_hz)


def sensitivity(nf_db: float, bandwidth_hz: float, snr_db: float) -> PowerDbm:
    """Minimum detectable power: thermal floor + NF + required SNR."""
    return noise_floor(bandwidth_hz, nf_db) + snr_db


def max_distance(p_tx_dbm: PowerDbm, p_rx_min_dbm: PowerDbm,
                 chan: ChannelSpec) -> float:
    """Largest range at which free-space propagation still delivers p_rx_min.

    Inverts the Friis equation including antenna gains:
    d = (lambda / 4 pi) * sqrt(G_tx * G_rx * P_tx / P_rx).
    """
    budget_db = (p_tx_dbm + chan.tx_antenna_gain_db + chan.rx_antenna_gain_db
                 - p_rx_min_dbm)
    if budget_db < 0.0:
        raise ValueError(
            f"required receive power {p_rx_min_dbm} dBm exceeds the "
            f"{p_tx_dbm} dBm transmitter plus antenna gains")
    lam = wavelength(chan.frequency_hz)
    return lam / (4.0 * math.pi) * math.sqrt(db_to_linear(budget_db))


def fcc_check(p_tx_dbm: PowerDbm) -> bool:
    """True when the transmit power is at or under the band limit."""
    return p_tx_dbm <= FCC_UNII_LIMIT_DBM


def analyze(scenario: LinkScenario) -> LinkBudgetReport:
    """Evaluate the whole budget chain for one scenario.

    Eb/N0 (override or inverted BER curve) -> required SNR -> receiver NF
    (override or Friis cascade) -> sensitivity -> received power at the
    scenario distance -> margin -> range -> compliance. ``max_distance_m``
    inverts Friis at the delivered receive power (so it reproduces the
    scenario distance); the sensitivity-limited range is reported separately.
    """
    bw = scenario.bandwidth_hz
    if scenario.ebn0_override_db is not None:
        ebn0 = scenario.ebn0_override_db
    else:
        ebn0 = ebn0_for_ber(scenario.modulation_order, scenario.target_ber)
    snr = required_snr(ebn0, scenario.bit_rate_bps, bw)
    if scenario.rx_nf_override_db is not None:
        nf = scenario.rx_nf_override_db
    else:
        nf = cascade(scenario.rx_chain).total_nf_db
    sens = sensitivity(nf, bw, snr)
    p_rx = friis_received_power(scenario.tx_power_dbm, scenario.channel)
    return LinkBudgetReport(
        bit_rate_bps=scenario.bit_rate_bps,
        modulation_order=scenario.modulation_order,
        target_ber=scenario.target_ber,
        bandwidth_hz=bw,
        required_ebn0_db=ebn0,
        required_snr_db=snr,
        rx_noise_figure_db=nf,
        noise_floor_dbm=noise_floor(bw, nf),
        sensitivity_dbm=sens,
        tx_power_dbm=scenario.tx_power_dbm,
        rx_power_dbm=p_rx,
        link_margin_db=p_rx - sens,
        distance_m=scenario.channel.distance_m,
        max_distance_m=max_distance(scenario.tx_power_dbm, p_rx, scenario.channel),
        max_distance_at_sensitivity_m=max_distance(
            scenario.tx_power_dbm, sens, scenario.channel),
        fcc_compliant=fcc_check(scenario.tx_power_dbm),
    )
