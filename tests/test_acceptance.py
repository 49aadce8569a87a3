"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or check the -v test names)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qamlink import cli
from qamlink.config import RunConfig, default_rx_stages, load_config
from qamlink.modem import (
    SUPPORTED_ORDERS,
    build_constellation,
    demap_hard,
    ebn0_for_ber,
    map_bits,
    theoretical_ber,
)
from qamlink.channel import ChannelSpec, friis_received_power
from qamlink.linkbudget import max_distance
from qamlink.rfchain import ChainSpec, StageSpec, cascade, oip3_from_p1db
from qamlink.simulate import run_link_sim, transmit_waveform

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = REPO_ROOT / "paper.cfg"
QPSK_CFG = REPO_ROOT / "qpsk.cfg"


def record(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def read_report(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


def _calibration_sim(order, ebn0_db, n_bits, seed):
    """The AWGN calibration setup of qpsk.cfg at QAM order `order`."""
    cfg = load_config(str(QPSK_CFG))
    cfg.modulation_order = order
    return cfg.sim_config(n_bits=n_bits, seed=seed, calibration_ebn0_db=ebn0_db)


def test_criterion_1_link_budget_reproduction(tmp_path):
    start = time.monotonic()
    code = cli.main(["budget", "--config", str(PAPER_CFG), "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    report = read_report(tmp_path / "budget_report.txt")
    checks = {
        "exit": code == 0,
        "required_snr": abs(float(report["required_snr_db"]) - 29.41) <= 0.01,
        "sensitivity": abs(float(report["sensitivity_dbm"]) + 54.37) <= 0.01,
        "max_distance": abs(float(report["max_distance_m"]) - 1.79) <= 0.01,
        "rx_power": abs(float(report["rx_power_dbm"]) + 28.2) <= 0.15,
        "fcc": report["fcc_compliant"] == "true",
        "runtime": elapsed < 1.0,
    }
    record(1, all(checks.values()),
           f"budget snr={report['required_snr_db']} sens={report['sensitivity_dbm']} "
           f"dmax={report['max_distance_m']} prx={report['rx_power_dbm']} "
           f"fcc={report['fcc_compliant']} in {elapsed:.2f}s; checks={checks}")


def test_criterion_2_oip3_arithmetic():
    ok = (oip3_from_p1db(32.0) == 42.6) and (oip3_from_p1db(30.946) == 41.546)
    record(2, ok, f"oip3(32)={oip3_from_p1db(32.0)} oip3(30.946)={oip3_from_p1db(30.946)}")


def test_criterion_3_cascade_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        stages = tuple(
            StageSpec(f"s{i}", gain_db=float(rng.uniform(-15, 35)),
                      nf_db=float(rng.uniform(0.0, 15.0)))
            for i in range(rng.integers(2, 6)))
        got = cascade(ChainSpec(stages))
        # independent brute-force evaluation in linear units
        f_total = 10 ** (stages[0].nf_db / 10)
        g = 10 ** (stages[0].gain_db / 10)
        for stage in stages[1:]:
            f_total += (10 ** (stage.nf_db / 10) - 1.0) / g
            g *= 10 ** (stage.gain_db / 10)
        worst = max(worst, abs(got.total_nf_db - 10 * math.log10(f_total)),
                    abs(got.total_gain_db - 10 * math.log10(g)))
    bom_nf = cascade(ChainSpec(tuple(default_rx_stages()))).total_nf_db
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and 5.5 <= bom_nf <= 6.5 and elapsed < 5.0
    record(3, ok, f"1000 random chains, worst |delta|={worst:.2e} dB; "
                  f"BOM NF={bom_nf:.3f} dB in [5.5, 6.5]; {elapsed:.2f}s")


def test_criterion_4_monte_carlo_ber_vs_theory():
    start = time.monotonic()
    targets = (3e-2, 1e-2, 1e-3, 1e-4)
    passed = total = 0
    rows = []
    for order in SUPPORTED_ORDERS:
        n = int(math.log2(order))
        n_bits = ((2_000_000 + n - 1) // n) * n
        for target in targets:
            ebn0 = ebn0_for_ber(order, target)
            theory = theoretical_ber(order, ebn0)
            result = run_link_sim(_calibration_sim(order, ebn0, n_bits,
                                                   seed=200 + total))
            lo, hi = result.ber_confidence
            inside = lo <= theory <= hi
            rows.append(f"M={order} target={target:.0e} "
                        f"{'ok' if inside else 'miss'}")
            passed += inside
            total += 1
    elapsed = time.monotonic() - start
    ok = passed >= math.ceil(0.9 * total) and elapsed < 300.0
    record(4, ok, f"{passed}/{total} cells inside the 95% Wilson interval "
                  f"({elapsed:.1f}s): {'; '.join(rows)}")


def test_criterion_5_design_target_ber(tmp_path):
    start = time.monotonic()
    code = cli.main(["simulate", "--config", str(PAPER_CFG),
                     "--bits", "10000000", "--seed", "1", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    report = read_report(tmp_path / "sim_report.txt")
    upper = float(report["ber_ci95_high"])
    recorded = report["ber_upper_bound_vs_target"]
    ok = (code == 0 and elapsed < 900.0 and math.isfinite(upper)
          and recorded in ("pass", "fail"))
    record(5, ok,
           f"1e7 bits in {elapsed:.1f}s; measured={report['measured_ber']} "
           f"wilson_upper={upper:.3e} vs target 1e-5 -> recorded '{recorded}' "
           f"(third-order AM/AM + bt=0.5 pulse filtering bound the achievable BER)")


def test_criterion_6_spectrum_nulls():
    start = time.monotonic()
    cfg = RunConfig()
    cfg.pulse_shape = "rectangular"
    cfg.n_bits = 1_048_576
    psd = transmit_waveform(cfg.sim_config())[0]
    freqs, power = psd[:, 0], psd[:, 1]
    bin_width = freqs[1] - freqs[0]
    details = []
    ok = True
    for f0 in (125e6, -125e6):
        window = np.flatnonzero(np.abs(freqs - f0) <= 10 * bin_width)
        k = window[np.argmin(power[window])]
        off_bins = abs(freqs[k] - f0) / bin_width
        depth = -power[k]
        ok &= off_bins <= 1.0 and depth >= 20.0
        details.append(f"{f0 / 1e6:+.0f} MHz: off={off_bins:.2f} bins depth={depth:.1f} dB")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    record(6, ok, f"nulls {', '.join(details)} ({elapsed:.1f}s)")


def test_criterion_7_tx_evm_bracket():
    evms = []
    for backoff in (8.69, 14.69):
        cfg = RunConfig()
        cfg.n_bits = 200_000
        cfg.tx_power_dbm = 32.0 - backoff  # backoff below the PA's 32 dBm P1dB
        evms.append(run_link_sim(cfg.sim_config()).tx_evm_pct)
    ok = 0.5 <= evms[0] <= 6.0 and evms[1] < evms[0]
    record(7, ok, f"tx EVM {evms[0]:.3f}% in [0.5, 6]; +6 dB backoff -> "
                  f"{evms[1]:.3f}% (reference design measured ~2.75%)")


def test_criterion_8_property_suites(monkeypatch):
    start = time.monotonic()
    failures = []

    # Gray adjacency and unit energy, exhaustive up to 256
    for order in SUPPORTED_ORDERS:
        cmap = build_constellation(order)
        if abs(np.mean(np.abs(cmap.points) ** 2) - 1.0) > 1e-12:
            failures.append(f"energy M={order}")
        step = cmap.axis_levels[1] - cmap.axis_levels[0]
        index_of = {(round(p.real, 9), round(p.imag, 9)): label
                    for label, p in enumerate(cmap.points)}
        for label, p in enumerate(cmap.points):
            for di, dq in ((step, 0.0), (0.0, step)):
                key = (round(p.real + di, 9), round(p.imag + dq, 9))
                if key in index_of and bin(label ^ index_of[key]).count("1") != 1:
                    failures.append(f"gray M={order} label={label}")

    # mod/demod roundtrip
    rng = np.random.default_rng(81)
    for order in SUPPORTED_ORDERS:
        cmap = build_constellation(order)
        bits = rng.integers(0, 2, 64 * cmap.bits_per_symbol, dtype=np.uint8)
        labels = np.packbits(bits.reshape(64, -1), axis=1)[:, 0] >> (8 - cmap.bits_per_symbol)
        got = np.unpackbits(demap_hard(map_bits(labels, cmap), cmap)[:, None], axis=1)
        if not np.array_equal(got[:, 8 - cmap.bits_per_symbol:].reshape(-1), bits):
            failures.append(f"roundtrip M={order}")

    # Friis inverse pair to 1e-9 dB
    import warnings
    for p_min in (-70.0, -40.0, -10.0):
        d = max_distance(23.31, p_min, ChannelSpec(5e9, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = friis_received_power(23.31, ChannelSpec(5e9, d))
        if abs(back - p_min) > 1e-9:
            failures.append(f"friis inverse at {p_min}")

    # determinism under fixed seed for any worker count
    config = _calibration_sim(16, 9.0, 160_000, seed=13)
    reference = None
    for threads in ("1", "2", "5"):
        monkeypatch.setenv("QAMLINK_THREADS", threads)
        result = run_link_sim(config)
        psd, _, tx_power_dbm = transmit_waveform(config)
        fingerprint = (result.measured_ber, result.tx_evm_pct, result.rx_evm_pct,
                       psd.tobytes(), tx_power_dbm,
                       result.rx_constellation.tobytes())
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            failures.append(f"determinism at {threads} workers")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    record(8, ok, f"gray/energy/roundtrip/friis-inverse/determinism in "
                  f"{elapsed:.1f}s{'; failures: ' + ', '.join(failures) if failures else ''}")
