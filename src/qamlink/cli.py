"""Command-line front end: link-budget reports, Monte-Carlo simulation,
BER sweeps, and transmit spectrum dumps with deterministic output files.

Exit codes: 0 success, 1 usage or configuration error, 2 transmit power
out of compliance (the budget report is still written).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .config import ConfigError, RunConfig, load_config
from .linkbudget import FCC_UNII_LIMIT_DBM, LinkBudgetReport, analyze
from .modem import SUPPORTED_ORDERS, theoretical_ber
from .simulate import (
    SimConfig,
    SimResult,
    estimate_spectrum,  # noqa: F401  perfbench/tracing.py patches this name here
    link_sim_plan,
    run_link_sim,  # noqa: F401  perfbench/tracing.py patches this name here
    run_plans,
    transmit_waveform,
    window_plan,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCOMPLIANT = 2

BUDGET_REPORT_NAME = "budget_report.txt"
SIM_REPORT_NAME = "sim_report.txt"
PSD_CSV_NAME = "psd.csv"
TX_CONSTELLATION_CSV_NAME = "tx_constellation.csv"
RX_CONSTELLATION_CSV_NAME = "rx_constellation.csv"
WATERFALL_CSV_NAME = "waterfall.csv"

_MAX_SWEEP_POINTS = 1001


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _finite(raw: str) -> float:
    """The type of every float flag, so that argparse names the flag of a bad value."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(raw)):
            return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")


def _write_lines(path: str, lines: list[str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")


def _write_pairs_csv(path: str, header: str, values) -> None:
    """The header, then one line per pair of floats in values (at least one)."""
    flat = tuple(values.ravel().tolist())
    _write_lines(path, [header, ("%.8e,%.8e\n" * (len(flat) // 2))[:-1] % flat])


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    if getattr(args, "tx_power", None) is not None:
        cfg.tx_power_dbm = args.tx_power
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "bits", None) is not None:
        cfg.n_bits = args.bits
    return cfg


def _budget_lines(report: LinkBudgetReport) -> list[str]:
    return [
        f"bit_rate_bps: {report.bit_rate_bps:.0f}",
        f"modulation_order: {report.modulation_order}",
        f"target_ber: {report.target_ber:.6e}",
        f"bandwidth_hz: {report.bandwidth_hz:.0f}",
        f"required_ebn0_db: {report.required_ebn0_db:.4f}",
        f"required_snr_db: {report.required_snr_db:.4f}",
        f"rx_noise_figure_db: {report.rx_noise_figure_db:.4f}",
        f"noise_floor_dbm: {report.noise_floor_dbm:.4f}",
        f"sensitivity_dbm: {report.sensitivity_dbm:.4f}",
        f"tx_power_dbm: {report.tx_power_dbm:.4f}",
        f"rx_power_dbm: {report.rx_power_dbm:.4f}",
        f"link_margin_db: {report.link_margin_db:.4f}",
        f"distance_m: {report.distance_m:.4f}",
        f"max_distance_m: {report.max_distance_m:.4f}",
        f"max_distance_at_sensitivity_m: {report.max_distance_at_sensitivity_m:.4f}",
        f"fcc_limit_dbm: {FCC_UNII_LIMIT_DBM:.4f}",
        "fcc_limit_rounded_dbm: 24",
        f"fcc_compliant: {'true' if report.fcc_compliant else 'false'}",
    ]


def cmd_budget(args) -> int:
    cfg = _load(args)
    report = analyze(cfg.scenario())
    lines = _budget_lines(report)
    _write_lines(os.path.join(cfg.output_dir, BUDGET_REPORT_NAME), lines)
    print("\n".join(lines))
    return EXIT_OK if report.fcc_compliant else EXIT_NONCOMPLIANT


def _sim_report_lines(config: SimConfig, result: SimResult, tx_power_dbm: float,
                      sample_rate_hz: float) -> list[str]:
    ci_low, ci_high = result.ber_confidence
    target = config.scenario.target_ber
    meets = ci_high <= target
    tx_evm_ok = result.tx_evm_pct <= config.evm_threshold_pct
    return [
        f"n_bits_run: {result.n_bits_run}",
        f"n_bit_errors: {result.n_bit_errors}",
        f"measured_ber: {result.measured_ber:.6e}",
        f"ber_ci95_low: {ci_low:.6e}",
        f"ber_ci95_high: {ci_high:.6e}",
        f"target_ber: {target:.6e}",
        f"ber_upper_bound_vs_target: {'pass' if meets else 'fail'}",
        f"tx_evm_pct: {result.tx_evm_pct:.4f}",
        f"rx_evm_pct: {result.rx_evm_pct:.4f}",
        f"evm_threshold_pct: {config.evm_threshold_pct:.4f}",
        f"tx_evm_vs_threshold: {'pass' if tx_evm_ok else 'fail'}",
        f"tx_power_dbm: {tx_power_dbm:.4f}",
        f"sample_rate_hz: {sample_rate_hz:.0f}",
        f"pulse_shape: {config.pulse_shape}",
        f"seed: {config.seed}",
    ]


def _write_psd_csv(path: str, psd) -> None:
    _write_pairs_csv(path, "frequency_hz,power_db", psd)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    config = cfg.sim_config(
        calibration_ebn0_db=args.ebn0,
        noise_enabled=not args.no_noise,
        pa_linear=args.linear_pa,
    )
    (psd, sample_rate, tx_power_dbm), [result] = run_plans(
        [window_plan(config), link_sim_plan(config)])
    lines = _sim_report_lines(config, result, tx_power_dbm, sample_rate)
    _write_psd_csv(os.path.join(cfg.output_dir, PSD_CSV_NAME), psd)
    _write_lines(os.path.join(cfg.output_dir, SIM_REPORT_NAME), lines)
    for name, cloud in ((TX_CONSTELLATION_CSV_NAME, result.tx_constellation),
                        (RX_CONSTELLATION_CSV_NAME, result.rx_constellation)):
        _write_pairs_csv(os.path.join(cfg.output_dir, name), "i,q", cloud.view(float))
    ci_low, ci_high = result.ber_confidence
    print(f"ber={result.measured_ber:.6e} ci95=[{ci_low:.6e}, {ci_high:.6e}] "
          f"tx_evm={result.tx_evm_pct:.3f}% rx_evm={result.rx_evm_pct:.3f}% "
          f"bits={result.n_bits_run}")
    return EXIT_OK


def cmd_ber_sweep(args) -> int:
    if args.theory_only:
        for flag, value in (("--bits", args.bits), ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(f"{flag} has no effect with --theory-only")
    cfg = _load(args)
    if args.modulation is not None:
        cfg.modulation_order = args.modulation
    if args.step <= 0:
        raise ConfigError(f"--step must be > 0, got {args.step}")
    if args.stop_db < args.start_db:
        raise ConfigError("--to must be >= --from")
    span = (args.stop_db - args.start_db) / args.step + 1e-9  # inf past the float range
    if span >= _MAX_SWEEP_POINTS:
        raise ConfigError(f"--from, --to and --step give more than {_MAX_SWEEP_POINTS} points")
    n_points = math.floor(span) + 1
    ebn0_values = [args.start_db + i * args.step for i in range(n_points)]
    theory = [theoretical_ber(cfg.modulation_order, ebn0) for ebn0 in ebn0_values]

    if args.theory_only:
        rows = [f"{ebn0:.2f},{ber:.8e},,," for ebn0, ber in zip(ebn0_values, theory)]
    else:
        n = cfg.scenario().bits_per_symbol
        n_bits = cfg.n_bits - cfg.n_bits % n
        # one plan: each block job makes its TX samples and unit channel
        # noise once and runs every point on them, all at --seed
        results = next(run_plans([link_sim_plan(cfg.sim_config(n_bits=n_bits),
                                                ebn0_values)]))
        rows = []
        for ebn0, ber, result in zip(ebn0_values, theory, results):
            ci_low, ci_high = result.ber_confidence
            rows.append(f"{ebn0:.2f},{ber:.8e},{result.measured_ber:.8e},"
                        f"{ci_low:.8e},{ci_high:.8e}")
    path = os.path.join(cfg.output_dir, WATERFALL_CSV_NAME)
    _write_lines(path, ["ebn0_db,ber_theory,ber_measured,ci_low,ci_high", *rows])
    print(f"wrote {len(rows)} sweep points to {path}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    config = cfg.sim_config(
        noise_enabled=not args.no_noise,
        pa_linear=args.linear_pa,
    )
    psd, sample_rate, _ = transmit_waveform(config)
    _write_psd_csv(os.path.join(cfg.output_dir, PSD_CSV_NAME), psd)
    print(f"wrote {psd.shape[0]} PSD bins at {sample_rate:.0f} Hz sample rate "
          f"to {os.path.join(cfg.output_dir, PSD_CSV_NAME)}")
    return EXIT_OK


def _add_common(parser: _Parser, *, bits: bool = True, tx_power: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="run configuration file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="RNG seed")
    if tx_power:
        parser.add_argument("--tx-power", type=_finite, metavar="DBM",
                            help="override transmit power")
    if bits:
        parser.add_argument("--bits", type=int, metavar="N",
                            help="number of bits to simulate")


def build_parser() -> _Parser:
    parser = _Parser(prog="qamlink",
                     description="Link budget analysis and baseband link simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_budget = sub.add_parser("budget", help="closed-form link budget report")
    _add_common(p_budget, bits=False)
    p_budget.set_defaults(func=cmd_budget)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo link simulation")
    _add_common(p_sim)
    noise = p_sim.add_mutually_exclusive_group()
    noise.add_argument("--ebn0", type=_finite, metavar="DB",
                       help="calibrated AWGN at this Eb/N0 instead of the link noise budget")
    noise.add_argument("--no-noise", action="store_true", help="disable all noise")
    p_sim.add_argument("--linear-pa", action="store_true",
                       help="treat every stage as ideally linear")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "ber-sweep",
        help="BER vs Eb/N0 table: closed-form curve and the configured link "
             "under calibrated AWGN (qpsk.cfg: the AWGN calibration setup)")
    # each point sets Eb/N0 itself; the PA drive stays the config's tx_power_dbm
    _add_common(p_sweep, tx_power=False)
    p_sweep.add_argument("--modulation", type=int, choices=SUPPORTED_ORDERS,
                         metavar="M", help="QAM order (default: from config)")
    p_sweep.add_argument("--from", dest="start_db", type=_finite, required=True,
                         metavar="DB", help="first Eb/N0 in dB")
    p_sweep.add_argument("--to", dest="stop_db", type=_finite, required=True,
                         metavar="DB", help="last Eb/N0 in dB")
    p_sweep.add_argument("--step", type=_finite, default=1.0, metavar="DB")
    p_sweep.add_argument("--theory-only", action="store_true",
                         help="skip the Monte-Carlo runs")
    p_sweep.set_defaults(func=cmd_ber_sweep)

    p_spec = sub.add_parser("spectrum", help="transmit-side PSD only")
    _add_common(p_spec)
    p_spec.add_argument("--no-noise", action="store_true", help="disable all noise")
    p_spec.add_argument("--linear-pa", action="store_true",
                        help="treat every stage as ideally linear")
    p_spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
