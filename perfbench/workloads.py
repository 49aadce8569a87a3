"""The benchmark's workloads: the CLI commands one operation runs, and the
statistical checks its output files must pass.

The checks use bands and binomial tolerances, not bitwise references, so a
change that reorders RNG draws but keeps the distributions still passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = ROOT / "paper.cfg"
QPSK_CFG = ROOT / "qpsk.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    bits: int  # bits one operation simulates
    commands: Callable[[int, Path], list[list[str]]]  # (seed, out dir) -> argv list
    check: Callable[[Path], list[str]]  # out dir -> problems found


def _read_report(path: Path) -> dict[str, str]:
    report = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(":")
        report[key.strip()] = value.strip()
    return report


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _band(problems: list[str], label: str, value: float, low: float, high: float) -> None:
    if not low <= value <= high:
        problems.append(f"{label} = {value:.6g} outside [{low:.6g}, {high:.6g}]")


# --- ref_link: the reference design's budget and 4 Mbit simulation ----------

REF_LINK_BITS = 4_000_000


def _ref_link_commands(seed: int, out: Path) -> list[list[str]]:
    common = ["--config", str(PAPER_CFG), "--seed", str(seed), "--out", str(out)]
    return [["budget", *common],
            ["simulate", *common, "--bits", str(REF_LINK_BITS)]]


def _ref_link_check(out: Path) -> list[str]:
    problems: list[str] = []
    budget = _read_report(out / "budget_report.txt")
    _band(problems, "required_snr_db", float(budget["required_snr_db"]), 29.40, 29.42)
    _band(problems, "sensitivity_dbm", float(budget["sensitivity_dbm"]), -54.38, -54.36)
    if budget["fcc_compliant"] != "true":
        problems.append("budget reports the reference transmitter non-compliant")
    sim = _read_report(out / "sim_report.txt")
    if int(sim["n_bits_run"]) != REF_LINK_BITS:
        problems.append(f"n_bits_run = {sim['n_bits_run']}")
    # Seed-to-seed spread at 4 Mbit: BER 3.90e-4 +- 1.1e-5 (~1560 errors),
    # TX EVM 4.311 +- 0.003 %, TX power 23.1555 +- 0.0001 dBm. The bands sit
    # many sigma out, so only a changed distribution fails them.
    _band(problems, "measured_ber", float(sim["measured_ber"]), 3.3e-4, 4.5e-4)
    _band(problems, "tx_evm_pct", float(sim["tx_evm_pct"]), 4.21, 4.41)
    _band(problems, "tx_power_dbm", float(sim["tx_power_dbm"]), 23.135, 23.175)
    return problems


# --- awgn_sweep: 11-point QPSK waterfall against the exact Gray-QPSK curve ---

SWEEP_BITS = 1_000_000
SWEEP_EBN0_DB = tuple(float(x) for x in range(11))


def _awgn_sweep_commands(seed: int, out: Path) -> list[list[str]]:
    return [["ber-sweep", "--config", str(QPSK_CFG), "--modulation", "4",
             "--from", "0", "--to", "10", "--step", "1",
             "--bits", str(SWEEP_BITS), "--seed", str(seed), "--out", str(out)]]


def gray_qpsk_ber(ebn0_db: float) -> float:
    """Exact bit error probability of Gray-coded QPSK in AWGN, Q(sqrt(2 Eb/N0))."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (ebn0_db / 10.0)))


def _awgn_sweep_check(out: Path) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(out / "waterfall.csv")
    if [float(r["ebn0_db"]) for r in rows] != list(SWEEP_EBN0_DB):
        return [f"sweep points {[r['ebn0_db'] for r in rows]}"]
    for row in rows:
        ebn0 = float(row["ebn0_db"])
        p = gray_qpsk_ber(ebn0)
        errors = float(row["ber_measured"]) * SWEEP_BITS
        expected = SWEEP_BITS * p
        # bit errors are independent for Gray QPSK, so the count is binomial;
        # 6 sigma plus 6 errors keeps false alarms negligible at the sparse end
        tolerance = 6.0 * math.sqrt(expected * (1.0 - p)) + 6.0
        if abs(errors - expected) > tolerance:
            problems.append(f"{ebn0:g} dB: {errors:.0f} errors, expected "
                            f"{expected:.1f} +- {tolerance:.1f}")
    return problems


# --- tx_spectrum: TX-only PSD of the reference waveform ----------------------

SPECTRUM_BITS = 1_048_576
_SAMPLE_RATE_HZ = 1e9     # 8 samples/symbol at 125 Msym/s
_PSD_BINS = 512
_SYMBOL_RATE_HZ = 125e6


def _tx_spectrum_commands(seed: int, out: Path) -> list[list[str]]:
    return [["spectrum", "--config", str(PAPER_CFG), "--bits", str(SPECTRUM_BITS),
             "--seed", str(seed), "--out", str(out)]]


def _tx_spectrum_check(out: Path) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(out / "psd.csv")
    freqs = [float(r["frequency_hz"]) for r in rows]
    power_db = [float(r["power_db"]) for r in rows]
    if len(rows) != _PSD_BINS:
        return [f"{len(rows)} PSD bins, expected {_PSD_BINS}"]
    if abs(freqs[0] + _SAMPLE_RATE_HZ / 2) > 1.0 or abs(
            freqs[1] - freqs[0] - _SAMPLE_RATE_HZ / _PSD_BINS) > 1.0:
        problems.append(f"frequency grid starts {freqs[0]:.6g}, {freqs[1]:.6g} Hz")
    peak = max(range(_PSD_BINS), key=power_db.__getitem__)
    _band(problems, "peak frequency MHz", freqs[peak] / 1e6, -40.0, 40.0)

    linear = [10.0 ** (p / 10.0) for p in power_db]

    def band(low_hz, high_hz):  # linear bins with low <= |f| < high
        return [w for f, w in zip(freqs, linear) if low_hz <= abs(f) < high_hz]

    def mean_db(low_hz, high_hz):  # dB relative to the peak bin
        bins = band(low_hz, high_hz)
        return 10.0 * math.log10(sum(bins) / len(bins))

    # Main lobe, roll-off at half the symbol rate, the first null, and the
    # PA's regrowth far out of band. Seed-to-seed spread: share 0.999457 +-
    # 1e-6, -6.86 +- 0.05 dB, -37.32 +- 0.06 dB, -67.9 +- 1.6 dB.
    _band(problems, "main-lobe power share", sum(band(0.0, _SYMBOL_RATE_HZ)) / sum(linear),
          0.999, 1.0)
    _band(problems, "mean dB at half the symbol rate", mean_db(55e6, 70e6), -7.5, -6.2)
    _band(problems, "mean dB at the first null", mean_db(115e6, 135e6), -39.0, -35.5)
    _band(problems, "mean dB beyond 250 MHz", mean_db(250e6, 500e6), -78.0, -58.0)
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("ref_link", REF_LINK_BITS, _ref_link_commands, _ref_link_check),
        Workload("awgn_sweep", SWEEP_BITS * len(SWEEP_EBN0_DB), _awgn_sweep_commands,
                 _awgn_sweep_check),
        Workload("tx_spectrum", SPECTRUM_BITS, _tx_spectrum_commands,
                 _tx_spectrum_check),
    )
}
