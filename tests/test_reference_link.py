"""A literal reference link: the oracle for the simulator's shortcuts.

The simulator runs each Monte-Carlo block at the symbol instants only,
normalises each block's drive on its own symbols, folds runs of linear
stages and the PA's output noise into shared draws, and reduces the blocks
in parallel. The link below does none of that. It shapes the whole symbol
sequence at full rate, normalises the drive on the ensemble mean power, and
passes every stage in turn, each adding its own kTB(F - 1)G. It then applies
the path and the channel noise, runs the RX stages the same way and samples
the RX output at the instants. The two must agree in distribution.

The significance level and the tolerances were fixed before any outcome was
seen. BER: pooled two-proportion z-test, two-sided, alpha = 0.001 per case,
bits taken as independent trials. EVM: TX and RX EVM agree within 2%
relative, about six standard deviations of the difference of two independent
1 Mbit estimates, or within 5e-5 percentage points where ideal chains make
an EVM zero but for rounding (the square root of the sums' rounding residue,
which prints as 0.0000 %).
"""

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from qamlink import simulate
from qamlink.channel import complex_noise, friis_received_power, noise_floor, path_gain_db
from qamlink.config import load_config
from qamlink.modem import build_constellation, demap_hard
from qamlink.rfchain import amplifier_transfer, stage_added_noise_watts
from qamlink.simulate import gaussian_taps, pulse_shape, run_link_sim

PAPER_CFG = Path(__file__).resolve().parent.parent / "paper.cfg"
QPSK_CFG = PAPER_CFG.with_name("qpsk.cfg")

N_BITS = 1 << 20
LITERAL_SEED, SIM_SEED = 7, 8
Z_CRIT = NormalDist().inv_cdf(1.0 - 0.001 / 2.0)
EVM_RTOL, EVM_ATOL = 0.02, 5e-5
EDGE_SYMBOLS = 8  # left out at each end: they see the zeros beyond the sequence


def evm_pct(measured, ref):
    """100 sqrt(min_a sum |a measured - ref|^2 / sum |ref|^2)."""
    a = np.vdot(measured, ref) / np.vdot(measured, measured)
    return 100.0 * math.sqrt(np.sum(np.abs(a * measured - ref) ** 2) / np.vdot(ref, ref).real)


def literal_link(config, seed):
    """(TX EVM %, RX EVM %, bit errors, bits) of config's link, run the plain way."""
    scenario, sps, bw = config.scenario, config.samples_per_symbol, config.scenario.bandwidth_hz
    rng = np.random.default_rng(seed)
    cmap = build_constellation(scenario.modulation_order)
    labels = rng.integers(0, cmap.order, config.n_bits // cmap.bits_per_symbol).astype(np.uint8)
    stage_noise = config.noise_enabled and config.calibration_ebn0_db is None
    tx_chain, rx_chain = config.tx_chain, scenario.rx_chain
    if config.pa_linear:
        tx_chain, rx_chain = tx_chain.linearized(), rx_chain.linearized()

    def run(y, chain):
        for stage in chain.stages:
            y = amplifier_transfer(y, stage)
            if stage_noise:
                y = y + complex_noise(rng, y.size, stage_added_noise_watts(stage, bw))
        return y

    taps = gaussian_taps(config.gaussian_bt, sps) if config.pulse_shape == "gaussian" else [1.0]
    held = np.convolve(np.ones(sps), taps)
    mean_power = np.sum(held ** 2) / sps  # of unit-energy i.i.d. symbols
    drive_w = 10.0 ** ((scenario.tx_power_dbm - sum(s.gain_db for s in tx_chain.stages)
                        - 30.0) / 10.0)
    wave = pulse_shape(cmap.points[labels], simulate._SymbolRatePulse.of(config))
    tx = run(wave * math.sqrt(drive_w / mean_power), tx_chain)
    rx = tx * 10.0 ** (path_gain_db(scenario.channel) / 20.0)
    if config.calibration_ebn0_db is not None:
        esn0_db = config.calibration_ebn0_db + 10.0 * math.log10(cmap.bits_per_symbol)
        rx_power_dbm = friis_received_power(scenario.tx_power_dbm, scenario.channel)
        rx = rx + complex_noise(rng, rx.size, 10.0 ** ((rx_power_dbm - esn0_db - 30.0) / 10.0))
    elif stage_noise:
        rx = rx + complex_noise(rng, rx.size, 10.0 ** ((noise_floor(bw, 0.0) - 30.0) / 10.0))
    rx = run(rx, rx_chain)

    keep = slice(EDGE_SYMBOLS, labels.size - EDGE_SYMBOLS)
    ref = cmap.points[labels[keep]]
    tx_at, rx_at = (y[sps // 2::sps][keep] for y in (tx, rx))
    gain = np.vdot(ref, rx_at) / np.vdot(ref, ref)
    errors = int(np.bitwise_count(demap_hard(rx_at / gain, cmap) ^ labels[keep]).sum())
    return evm_pct(tx_at, ref), evm_pct(rx_at, ref), errors, ref.size * cmap.bits_per_symbol


@pytest.mark.parametrize("path,options", [
    (PAPER_CFG, {}),
    (PAPER_CFG, {"pa_linear": True}),
    (QPSK_CFG, {"calibration_ebn0_db": 4.0}),
], ids=["paper-thermal", "paper-linear-pa", "qpsk-ebn0-4"])
def test_simulator_matches_the_literal_link(path, options):
    config = load_config(str(path)).sim_config(n_bits=N_BITS, seed=SIM_SEED, **options)
    sim = run_link_sim(config)
    tx_evm, rx_evm, errors, bits = literal_link(config, LITERAL_SEED)

    pooled = (sim.n_bit_errors + errors) / (sim.n_bits_run + bits)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / sim.n_bits_run + 1.0 / bits))
    z = abs(sim.n_bit_errors / sim.n_bits_run - errors / bits) / se if se else 0.0
    assert z <= Z_CRIT, (sim.n_bit_errors, errors)
    assert sim.tx_evm_pct == pytest.approx(tx_evm, rel=EVM_RTOL, abs=EVM_ATOL)
    assert sim.rx_evm_pct == pytest.approx(rx_evm, rel=EVM_RTOL, abs=EVM_ATOL)
