import math
import os
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qamlink import cli
from qamlink.config import _KEYS, ConfigError, RunConfig, load_config, parse_config_text
from qamlink.rfchain import StageSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = REPO_ROOT / "paper.cfg"
QPSK_CFG = REPO_ROOT / "qpsk.cfg"


def read_report(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    return values


class TestConfigParsing:
    def test_paper_cfg_sets_every_key(self):
        """README calls paper.cfg the full schema: every key and every stage
        field appears in it."""
        keys = {line.split("=")[0].strip()
                for line in PAPER_CFG.read_text().splitlines()
                if "=" in line.split("#")[0]}
        assert set(_KEYS) - keys == set()
        stage_fields = {key.split(".")[2] for key in keys if "_chain." in key}
        assert {f.name for f in fields(StageSpec)} - stage_fields == set()

    def test_paper_cfg_matches_built_in_defaults(self):
        cfg = load_config(str(PAPER_CFG))
        ref = RunConfig()
        for f in fields(RunConfig):
            if f.name != "source":
                assert getattr(cfg, f.name) == getattr(ref, f.name), f.name

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'bogus'"):
            parse_config_text("seed = 1\n\nbogus = 2\n", source="cfg")
        # removed inputs: the drive follows tx_power_dbm; kT is fixed at 290 K;
        # every command writes all its files; the FCC limit is 23.98 dBm; the
        # bandwidth is null-to-null
        for line in ("pa_backoff_db = 8.69", "noise_temperature_k = 290",
                     "output_format = text", "fcc_limit_dbm = 30",
                     "occupied_bandwidth_hz = 125e6"):
            key = line.split()[0]
            with pytest.raises(ConfigError, match=rf"cfg:2: unknown key '{key}'"):
                parse_config_text(f"seed = 1\n{line}\n", source="cfg")

    def test_removed_field_assignment_raises(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.pa_backoff_db = 14.69

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:2: expected 'key = value'"):
            parse_config_text("seed = 1\nnonsense\n", source="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("seed = 1\nseed = 2\n", source="cfg")

    def test_bad_number_reports_line(self):
        # `none` is a value only for the optional keys
        for raw in ("loud", "none"):
            with pytest.raises(ConfigError, match=r"cfg:1: expected a number"):
                parse_config_text(f"tx_power_dbm = {raw}\n", source="cfg")

    def test_none_selects_the_derived_value(self):
        text = "ebn0_override_db = none\nrx_nf_override_db = none\n"
        cfg = parse_config_text(text, source="cfg")
        assert cfg.ebn0_override_db is None
        assert cfg.rx_nf_override_db is None

    def test_integer_keys_accept_scientific_notation(self):
        cfg = parse_config_text("n_bits = 1e6\n", source="cfg")
        assert cfg.n_bits == 1_000_000
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_text("n_bits = 1.5\n", source="cfg")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# header\n\nseed = 9  # trailing\n", source="cfg")
        assert cfg.seed == 9

    def test_chain_requires_gain_and_nf(self):
        with pytest.raises(ConfigError, match="rx_chain.1 is missing nf_db"):
            parse_config_text("rx_chain.1.gain_db = 3\n", source="cfg")

    def test_chain_stage_ordering(self):
        text = ("rx_chain.2.gain_db = 13\nrx_chain.2.nf_db = 1.5\n"
                "rx_chain.1.gain_db = -3\nrx_chain.1.nf_db = 3\n")
        cfg = parse_config_text(text, source="cfg")
        assert [s.gain_db for s in cfg.rx_stages] == [-3.0, 13.0]
        # tx chain untouched, keeps defaults
        assert len(cfg.tx_stages) == 3

    def test_invalid_stage_field(self):
        with pytest.raises(ConfigError, match="unknown stage field"):
            parse_config_text("rx_chain.1.shoe_size = 9\n", source="cfg")
        # the AM/AM model is set by P1dB alone, so OIP3 is not an input
        with pytest.raises(ConfigError, match=r"cfg:2: unknown stage field 'oip3_dbm'"):
            parse_config_text("seed = 1\ntx_chain.3.oip3_dbm = 42.6\n", source="cfg")

    def test_inconsistent_stage_values(self):
        text = "rx_chain.1.gain_db = 10\nrx_chain.1.nf_db = -1\n"
        with pytest.raises(ConfigError,
                           match=r"rx_chain.1: .*noise figure must be within \[0, 500\] dB"):
            parse_config_text(text, source="cfg")

    def test_gaussian_pulse_span_bounds_bt(self):
        """The +/-4 sigma pulse spans 4 sqrt(ln 2) / (pi BT) symbols at any
        samples_per_symbol; past 64 symbols the file is rejected naming the
        key, and the usual BT 0.3-1.0 at 2-16 samples per symbol loads."""
        for bt in ("1e-9", "1e-300", "5e-324", "0.0165"):
            with pytest.raises(ConfigError, match=r"^cfg: gaussian_bt must be finite and > 0\.01656"):
                parse_config_text(f"gaussian_bt = {bt}\n", source="cfg")
        for bt in (0.0166, 0.3, 0.5, 1.0):
            for sps in (2, 3, 8, 16):
                text = f"gaussian_bt = {bt}\nsamples_per_symbol = {sps}\n"
                assert parse_config_text(text, source="cfg").gaussian_bt == bt

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/path.cfg")


class TestBudgetCommand:
    def test_reference_budget_report(self, tmp_path):
        code = cli.main(["budget", "--config", str(PAPER_CFG), "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path / "budget_report.txt")
        assert float(report["required_snr_db"]) == pytest.approx(29.41, abs=0.01)
        assert float(report["sensitivity_dbm"]) == pytest.approx(-54.37, abs=0.01)
        assert float(report["max_distance_m"]) == pytest.approx(1.79, abs=0.01)
        assert float(report["rx_power_dbm"]) == pytest.approx(-28.2, abs=0.15)
        assert report["fcc_compliant"] == "true"
        text = (tmp_path / "budget_report.txt").read_text()
        assert "sensitivity_dbm: -54.37" in text
        assert text.endswith("\n")

    @pytest.mark.parametrize("power", ["-100", "-60"])
    def test_power_below_sensitivity_reports_zero_range(self, tmp_path, capsys, power):
        """No range reaches the sensitivity: the report says so with a zero
        range and a negative margin, and the exit code is the compliance one.
        It used to exit 1 with a line that named neither file nor key."""
        code = cli.main(["budget", "--config", str(PAPER_CFG), "--tx-power", power,
                         "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = read_report(tmp_path / "budget_report.txt")
        assert float(report["max_distance_at_sensitivity_m"]) == 0.0
        assert float(report["link_margin_db"]) < 0.0
        assert float(report["max_distance_m"]) == pytest.approx(1.79, abs=0.01)

    def test_noncompliant_power_exits_2_but_writes_report(self, tmp_path):
        code = cli.main(["budget", "--config", str(PAPER_CFG),
                         "--tx-power", "25", "--out", str(tmp_path)])
        assert code == 2
        report = read_report(tmp_path / "budget_report.txt")
        assert report["fcc_compliant"] == "false"

    def test_missing_config_exits_1_without_output(self, tmp_path, capsys):
        code = cli.main(["budget", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out" / "budget_report.txt").exists()
        assert "nope.cfg" in capsys.readouterr().err

    def test_qpsk_budget_uses_the_formula_path(self, tmp_path):
        """qpsk.cfg sets both overrides to none: Eb/N0 from the BER curve
        inversion, NF from the ideal cascade."""
        from qamlink.modem import ebn0_for_ber
        code = cli.main(["budget", "--config", str(QPSK_CFG), "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path / "budget_report.txt")
        assert report["required_ebn0_db"] == f"{ebn0_for_ber(4, 1e-5):.4f}" == "9.5868"
        assert report["rx_noise_figure_db"] == "0.0000"

    def test_config_error_reports_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nwat = 9\n")
        code = cli.main(["budget", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert f"{bad}:2" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_1_with_one_line(self, tmp_path, capsys):
        """Used to end in a FileExistsError traceback."""
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["budget", "--config", str(PAPER_CFG), "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")


class TestSimulateCommand:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(["simulate", "--config", str(QPSK_CFG),
                             "--bits", "100000", "--seed", "42",
                             "--out", str(out)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0].keys() == outputs[1].keys()
        assert set(outputs[0]) == {"sim_report.txt", "psd.csv",
                                   "tx_constellation.csv", "rx_constellation.csv"}
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name]

    def test_simulate_and_spectrum_write_the_same_psd(self, tmp_path, monkeypatch):
        """simulate takes its spectrum window from the TX-only pass that
        spectrum runs: both write the same psd.csv under any worker count,
        and simulate reports the window's mean power. Its Monte-Carlo run
        shapes no full-rate pulse and estimates no spectrum. 1.2 Mbit of
        paper.cfg run 5 blocks, 4 of them in the window."""
        from qamlink import simulate
        bits, seed = 1_200_000, 4
        config = load_config(str(PAPER_CFG)).sim_config(n_bits=bits, seed=seed)
        window_power = f"{simulate.transmit_waveform(config)[2]:.4f}"
        common = ["--config", str(PAPER_CFG), "--bits", str(bits), "--seed", str(seed)]
        psds = []
        for threads in ("1", "2"):
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            for command in ("simulate", "spectrum"):
                out = tmp_path / f"{command}{threads}"
                assert cli.main([command, *common, "--out", str(out)]) == 0
                psds.append((out / "psd.csv").read_bytes())
            report = read_report(tmp_path / f"simulate{threads}" / "sim_report.txt")
            assert report["tx_power_dbm"] == window_power
        assert len(set(psds)) == 1

        calls = []
        for name in ("pulse_shape", "estimate_spectrum"):
            monkeypatch.setattr(simulate, name, lambda *args, name=name: calls.append(name))
        for threads in ("1", "2"):
            monkeypatch.setenv("QAMLINK_THREADS", threads)
            simulate.run_link_sim(config)
        assert calls == []

    def test_noiseless_linear_run_reports_zero_ber(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(PAPER_CFG),
                         "--bits", "80000", "--no-noise", "--linear-pa",
                         "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path / "sim_report.txt")
        assert float(report["measured_ber"]) == 0.0
        assert "ber=0.0" in capsys.readouterr().out

    def test_calibrated_run_matches_theory(self, tmp_path):
        from qamlink.modem import theoretical_ber
        code = cli.main(["simulate", "--config", str(QPSK_CFG),
                         "--ebn0", "7", "--bits", "2000000",
                         "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path / "sim_report.txt")
        lo = float(report["ber_ci95_low"])
        hi = float(report["ber_ci95_high"])
        assert lo <= theoretical_ber(4, 7.0) <= hi

    def test_tx_power_sets_transmitted_power(self, tmp_path):
        code = cli.main(["simulate", "--config", str(PAPER_CFG), "--bits", "80000",
                         "--tx-power", "17.31", "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path / "sim_report.txt")
        assert float(report["tx_power_dbm"]) == pytest.approx(17.31, abs=0.1)

    def test_non_finite_tx_power_rejected(self, tmp_path, capsys):
        for command in ("budget", "simulate"):
            code = cli.main([command, "--config", str(PAPER_CFG), "--tx-power", "nan",
                             "--out", str(tmp_path)])
            assert code == 1
            assert "argument --tx-power: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "distance_m = nan", "frequency_hz = inf", "tx_chain.3.p1db_out_dbm = nan",
        "gaussian_bt = nan", "evm_threshold_pct = nan", "tx_power_dbm = nan"])
    def test_non_finite_channel_rejected_with_file_name(self, tmp_path, capsys, line):
        """Used to give a nan budget or BER 0.50 with exit 0, or a traceback;
        now every command exits 1 with one line naming the file and line."""
        key = line.split()[0]
        text, n = re.subn(rf"^{re.escape(key)} = .*$", line, PAPER_CFG.read_text(),
                          flags=re.M)
        assert n == 1
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        for command in ("budget", "simulate"):
            code = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1
            assert re.search(rf"{re.escape(str(path))}:\d+: {re.escape(key)} must be "
                             "finite", err)

    def test_non_finite_ebn0_rejected(self, tmp_path, capsys):
        """Used to exit 0 with BER 0.50."""
        code = cli.main(["simulate", "--config", str(QPSK_CFG), "--ebn0", "nan",
                         "--bits", "8000", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "argument --ebn0: must be a finite number" in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--ebn0", "-4000"],
        ["ber-sweep", "--from", "-4000", "--to", "-4000"],
        ["simulate", "--ebn0", "4000"]])
    def test_ebn0_past_the_float_range_rejected(self, tmp_path, capsys, command):
        """10^(Es/N0/10) underflowing to 0 used to end in a ZeroDivisionError
        traceback, and overflowing in '(34, 'Numerical result out of range')'."""
        code = cli.main([*command, "--config", str(QPSK_CFG), "--bits", "8000",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "channel noise variance" in err and f"got {float(command[2])}" in err

    def test_output_files_use_dot_decimal_and_trailing_newline(self, tmp_path):
        cli.main(["simulate", "--config", str(QPSK_CFG), "--bits", "10000",
                  "--out", str(tmp_path)])
        for name in ("sim_report.txt", "psd.csv", "tx_constellation.csv"):
            data = (tmp_path / name).read_text()
            assert data.endswith("\n")
            assert "," not in data.replace(",", ".", 0) or "." in data


class TestBerSweepCommand:
    def test_theory_only_waterfall(self, tmp_path):
        code = cli.main(["ber-sweep", "--modulation", "256", "--theory-only",
                         "--from", "10", "--to", "26", "--step", "1",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "waterfall.csv").read_text().splitlines()
        assert lines[0] == "ebn0_db,ber_theory,ber_measured,ci_low,ci_high"
        assert len(lines) == 18
        theory = [float(line.split(",")[1]) for line in lines[1:]]
        assert theory == sorted(theory, reverse=True)
        assert all(line.endswith(",,,") for line in lines[1:])

    def test_sweep_covers_published_design_point(self, tmp_path):
        code = cli.main(["ber-sweep", "--modulation", "256", "--theory-only",
                         "--from", "22.39", "--to", "24.39", "--step", "0.5",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = {line.split(",")[0]: float(line.split(",")[1])
                for line in (tmp_path / "waterfall.csv").read_text().splitlines()[1:]}
        assert rows["23.39"] <= 1e-5

    def test_measured_sweep_within_confidence(self, tmp_path):
        from qamlink.modem import theoretical_ber
        code = cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--modulation", "4",
                         "--from", "4", "--to", "6", "--step", "1",
                         "--bits", "400000", "--seed", "2",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "waterfall.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            ebn0, _, measured, lo, hi = (float(v) for v in line.split(","))
            assert float(lo) <= theoretical_ber(4, ebn0) <= float(hi)

    def test_bad_step_rejected(self, tmp_path, capsys):
        code = cli.main(["ber-sweep", "--from", "10", "--to", "12",
                         "--step", "0", "--theory-only", "--out", str(tmp_path)])
        assert code == 1

    def test_sweep_point_runs_the_configured_link(self, tmp_path, monkeypatch):
        """Point i of the sweep is `simulate --ebn0` on the same config at the
        sweep's seed, errors and EVMs alike; it used to run a hidden
        QPSK-style calibration setup."""
        finished = []
        real_run_plans = cli.run_plans

        def run_plans(plans):
            for result in real_run_plans(plans):
                finished.append(result)
                yield result

        monkeypatch.setattr(cli, "run_plans", run_plans)
        code = cli.main(["ber-sweep", "--config", str(PAPER_CFG), "--from", "12",
                         "--to", "14", "--step", "2", "--bits", "80000",
                         "--seed", "5", "--out", str(tmp_path / "sweep")])
        assert code == 0
        [points] = finished
        monkeypatch.undo()
        rows = (tmp_path / "sweep" / "waterfall.csv").read_text().splitlines()[1:]
        for row, point in zip(rows, points, strict=True):
            ebn0, _, measured, _, _ = row.split(",")
            code = cli.main(["simulate", "--config", str(PAPER_CFG), "--ebn0", ebn0,
                             "--bits", "80000", "--seed", "5",
                             "--out", str(tmp_path / ebn0)])
            assert code == 0
            report = read_report(tmp_path / ebn0 / "sim_report.txt")
            assert int(report["n_bit_errors"]) > 0
            assert round(float(measured) * 80000) == int(report["n_bit_errors"])
            assert point.n_bit_errors == int(report["n_bit_errors"])
            assert report["tx_evm_pct"] == f"{point.tx_evm_pct:.4f}"
            assert report["rx_evm_pct"] == f"{point.rx_evm_pct:.4f}"

    @pytest.mark.parametrize("flag,value", [
        ("--to", "nan"), ("--from", "-inf"), ("--step", "inf")])
    def test_non_finite_range_rejected(self, tmp_path, capsys, flag, value):
        """`--to nan` used to end in a traceback."""
        argv = {"--from": "0", "--to": "2", "--step": "1", flag: value}
        code = cli.main(["ber-sweep", "--theory-only", "--out", str(tmp_path),
                         *(f"{key}={val}" for key, val in argv.items())])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and f"argument {flag}: must be a finite number" in err

    @pytest.mark.parametrize("theory_only", [[], ["--theory-only"]])
    @pytest.mark.parametrize("span", [["--to=10", "--step=1e-300"],
                                      ["--from=-1e308", "--to=1e308"],
                                      ["--to=1001", "--step=1"]])
    def test_oversized_sweep_rejected_before_any_point(self, tmp_path, capsys,
                                                       monkeypatch, theory_only, span):
        """A sweep of more than 1,001 points exits 1 with one line before its
        Eb/N0 list is built; 1e-300 dB steps used to grow the list until
        memory ran out. The span from -1e308 to 1e308 overflows to inf."""
        monkeypatch.setattr(cli, "theoretical_ber", None)  # no point is reached
        code = cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from=0", *span,
                         *theory_only, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: --from, --to and --step give more than 1001 points\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_of_the_point_cap_runs(self, tmp_path):
        code = cli.main(["ber-sweep", "--theory-only", "--from", "0", "--to", "100",
                         "--step", "0.1", "--out", str(tmp_path)])
        assert code == 0
        assert len((tmp_path / "waterfall.csv").read_text().splitlines()) == 1 + 1001

    def test_unsupported_modulation_rejected(self, tmp_path, capsys):
        code = cli.main(["ber-sweep", "--modulation", "8", "--from", "0", "--to", "1",
                         "--theory-only", "--out", str(tmp_path)])
        assert code == 1
        assert "--modulation" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--bits", "3"), ("--seed", "9")])
    def test_theory_only_rejects_simulation_flags(self, tmp_path, capsys, flag, value):
        code = cli.main(["ber-sweep", "--theory-only", "--from", "0", "--to", "1",
                         flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and flag in err

    def test_negative_bits_rejected(self, tmp_path, capsys):
        """`--bits -100` used to run 2 bits per point; `simulate` rejects it."""
        code = cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from", "0",
                         "--to", "0", "--bits", "-100", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "n_bits must be a positive multiple" in err

    def test_tx_power_rejected(self, tmp_path, capsys):
        # each point sets Eb/N0 itself; the PA drive is the config's tx_power_dbm
        code = cli.main(["ber-sweep", "--config", str(QPSK_CFG), "--from", "0",
                         "--to", "1", "--theory-only", "--tx-power", "5",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "--tx-power" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_writes_psd_csv(self, tmp_path):
        code = cli.main(["spectrum", "--config", str(PAPER_CFG),
                         "--bits", "262144", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "psd.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,power_db"
        assert len(lines) > 64


class TestNearField:
    """The near-field advisory is the budget report's: path_gain_db is the
    bare formula, so no simulation command warns or touches the process-wide
    warning filters (a run used to wrap it in warnings.catch_warnings)."""

    @pytest.mark.parametrize("argv,advisories", [
        (["budget"], 1), (["simulate", "--bits", "8000"], 0),
        (["simulate", "--bits", "8000", "--ebn0", "20"], 0), (["spectrum", "--bits", "8000"], 0),
        (["ber-sweep", "--from", "10", "--to", "20", "--step", "10", "--bits", "8000"], 0)])
    def test_only_budget_warns(self, tmp_path, capsys, monkeypatch, argv, advisories):
        lam = 299792458.0 / 5e9
        path = tmp_path / "near.cfg"
        path.write_text(re.sub(r"^distance_m = .*$", f"distance_m = {5.0 * lam!r}",
                               PAPER_CFG.read_text(), flags=re.M))
        touched = []

        def spy(name, real):
            def call(*args, **kwargs):
                touched.append(name)
                return real(*args, **kwargs)
            return call

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            try:
                for name in ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"):
                    monkeypatch.setattr(warnings, name, spy(name, getattr(warnings, name)))
                code = cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
            finally:
                monkeypatch.undo()
            assert warnings.filters == filters
        assert code == 0
        assert touched == []
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in caught] == [
            f"distance {5.0 * lam:.4g} m is below 10 wavelengths at this frequency; "
            "the far-field model is optimistic here"] * advisories


class TestErrorLines:
    """Every failure reaching main exits 1 with one stderr line."""

    def test_config_error_names_its_file_once(self, tmp_path, capsys):
        """A value the scenario rejects used to be prefixed twice, as in
        'paper.cfg: paper.cfg: transmit power must be finite, got inf'."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(re.sub(r"^distance_m = .*$", "distance_m = -5",
                              PAPER_CFG.read_text(), flags=re.M))
        runs = [(bad, [command]) for command in ("simulate", "spectrum")]
        runs.append((bad, ["ber-sweep", "--from", "0", "--to", "1"]))
        for path, argv in runs:
            code = cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
            assert err.count(f"{path}:") == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv,flag", [
        (["budget"], "--tx-power"), (["simulate"], "--tx-power"), (["spectrum"], "--tx-power"),
        (["simulate"], "--ebn0"), (["ber-sweep", "--to=1"], "--from"),
        (["ber-sweep", "--from=0"], "--to"), (["ber-sweep", "--from=0", "--to=1"], "--step")])
    def test_non_finite_flag_is_blamed_on_the_flag(self, tmp_path, capsys, argv, flag, value):
        """`--tx-power inf` and `--ebn0 nan` used to be reported against the
        config file, as in 'paper.cfg: transmit power must be finite'."""
        out = tmp_path / "out"
        code = cli.main([*argv, f"{flag}={value}", "--config", str(PAPER_CFG), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1, err
        assert f"argument {flag}: must be a finite number, got '{value}'" in err
        assert str(PAPER_CFG) not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["4000", "-4000", "500.5"])
    @pytest.mark.parametrize("command", ["budget", "simulate", "spectrum"])
    def test_out_of_bound_tx_power_is_blamed_on_the_flag(self, tmp_path, capsys, command,
                                                          value):
        """`--tx-power 4000` used to be reported against the config file, as
        in 'paper.cfg: tx_power_dbm must be within [-500, 500] dBm'."""
        out = tmp_path / "out"
        code = cli.main([command, f"--tx-power={value}", "--config", str(PAPER_CFG),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1, err
        assert f"argument --tx-power: must be within [-500, 500] dBm, got {float(value)}" in err
        assert str(PAPER_CFG) not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "gaussian_bt = -1", "samples_per_symbol = 1", "evm_threshold_pct = 0",
        "n_bits = 7", "pulse_shape = square",
        # a Gaussian pulse longer than 64 symbols; simulate used to fail on the
        # taps' size, naming neither file nor key, and 5e-324 made sigma inf
        "gaussian_bt = 1e-9", "gaussian_bt = 1e-300", "gaussian_bt = 5e-324",
        # lambda / (4 pi d) overflows to inf; it used to run to BER 0.5 and
        # 0% RX EVM, and budget to an inf dBm sensitivity
        "frequency_hz = 1e-300", "distance_m = 5e-324",
        # dB-scaled values past +-MAX_GAIN_DB: 10^(P1dB/10) underflowed to a
        # ZeroDivisionError traceback in simulate while budget exited 0, or
        # overflowed to "(34, 'Numerical result out of range')"
        "rx_chain.2.p1db_out_dbm = -4000", "tx_chain.3.p1db_out_dbm = 4000",
        # budget printed "(34, ...)" from max_distance's 10^(budget_db/10), and
        # ber-sweep blamed the Eb/N0 ("... got 0.0") on several of them
        "bit_rate_bps = 1e-300", "tx_power_dbm = 4000", "tx_antenna_gain_db = 4000",
        "ebn0_override_db = -4000", "rx_nf_override_db = -4000", "distance_m = 1e300",
        # the same bounds, on the other side
        "bit_rate_bps = 1e300", "frequency_hz = 1e300", "tx_power_dbm = -4000",
        "rx_antenna_gain_db = -4000", "rx_nf_override_db = 4000", "distance_m = 1e-300"])
    def test_file_value_a_rule_rejects_fails_every_command_when_read(
            self, tmp_path, capsys, line):
        """A file is checked in full as it is read, so budget rejects what
        simulate rejects (it used to exit 0 on the first four lines), and a
        flag does not rescue a bad file value. The one line names the file
        and the key (a stage key by its chain prefix and field)."""
        key = line.split()[0]
        text, n = re.subn(rf"^{re.escape(key)} = .*$", line, PAPER_CFG.read_text(),
                          flags=re.M)
        assert n == 1
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        for argv in (["budget"], ["simulate"], ["simulate", "--bits", "8000"],
                     ["spectrum"], ["ber-sweep", "--from", "0", "--to", "1"]):
            code = cli.main([*argv, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
            assert all(part in err for part in key.rsplit(".", 1)), err
            assert not out.exists()

    @pytest.mark.parametrize("gains,key", [
        # budget exited 1 with "(34, 'Numerical result out of range')"
        (("2000", "2000"), "rx_chain.1"),
        # budget ended in a ZeroDivisionError traceback in cascade
        (("-2000", "-2000"), "rx_chain.1"),
        # each stage in range, the LNA's output 600 dB above the chain input
        (("300", "300"), "rx_chain.2"),
    ])
    def test_overflowing_stage_gains_fail_every_command_when_read(
            self, tmp_path, capsys, gains, key):
        """paper.cfg with the derived noise figure and the RX filter and LNA
        gains set far outside any chain: every command exits 1 with one line
        naming the file and the stage's gain_db key."""
        text = PAPER_CFG.read_text().replace(
            "rx_nf_override_db = 6.24", "rx_nf_override_db = none")
        for index, gain in zip((1, 2), gains):
            text, n = re.subn(rf"^rx_chain\.{index}\.gain_db = .*$",
                              f"rx_chain.{index}.gain_db = {gain}", text, flags=re.M)
            assert n == 1
        path = tmp_path / "gains.cfg"
        path.write_text(text)
        for argv in (["budget"], ["simulate", "--bits", "8000"], ["spectrum", "--bits", "8000"],
                     ["ber-sweep", "--from", "0", "--to", "1", "--bits", "8000"]):
            code = cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.count("\n") == 1 and err.startswith(f"error: {path}: {key}: "), err
            assert "gain_db" in err

    def test_noise_figure_beyond_the_float_safe_range_is_rejected(self, tmp_path, capsys):
        """A 4000 dB noise figure overflowed 10^(NF/10): simulate exited 1
        with "(34, 'Numerical result out of range')", naming no file."""
        path = tmp_path / "nf.cfg"
        path.write_text(PAPER_CFG.read_text().replace("rx_chain.3.nf_db = 10.9",
                                                      "rx_chain.3.nf_db = 4000"))
        code = cli.main(["simulate", "--bits", "8000", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: rx_chain.3: ")
        assert "noise figure" in err

    @pytest.mark.parametrize("argv", [
        ["budget"], ["simulate", "--bits", "8000"], ["spectrum", "--bits", "8000"],
        ["ber-sweep", "--from", "0", "--to", "1", "--bits", "8000"]])
    def test_overflowing_power_exits_1_with_one_line(self, tmp_path, capsys, argv):
        """1e308 dBm overflows the dBm-to-watts conversion; it used to end in
        an OverflowError traceback. ber-sweep takes its drive from the config
        only."""
        big = tmp_path / "big.cfg"
        big.write_text(re.sub(r"^tx_power_dbm = .*$", "tx_power_dbm = 1e308",
                              PAPER_CFG.read_text(), flags=re.M))
        runs = [[*argv, "--config", str(big)]]
        if argv[0] != "ber-sweep":
            runs.append([*argv, "--config", str(PAPER_CFG), "--tx-power", "1e308"])
        for run in runs:
            code = cli.main([*run, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith("error: ")


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert cli.main(["nonsense"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli.main(["ber-sweep", "--theory-only"]) == 1

    @pytest.mark.parametrize("argv", [
        ["ber-sweep", "--from", "0", "--to", "nan"],
        ["simulate", "--bits", "0"],
        # used to exit 0 with the noise-free report, ignoring --ebn0
        ["simulate", "--bits", "8000", "--no-noise", "--ebn0", "-5"],
        # too few samples for the PSD; used to leave sim_report.txt behind
        ["simulate", "--config", str(QPSK_CFG), "--bits", "2"]])
    def test_rejected_command_leaves_no_output_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("line", ["samples_per_symbol = 1000000000"])
    def test_allocation_failure_exits_1_with_one_line(self, tmp_path, capsys,
                                                       monkeypatch, line):
        """Under a 3 GB address-space limit this config used to end in a
        numpy _ArrayMemoryError traceback: the Gaussian taps alone need tens
        of GiB. The failing allocation is stubbed here, not made."""
        from qamlink import simulate

        def failing(*args):
            raise MemoryError("Unable to allocate 63.1 GiB for an array with "
                              "shape (8472000000,) and data type float64")

        monkeypatch.setattr(simulate, "gaussian_taps", failing)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(cfg), "--bits", "8000",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: out of memory")
        assert not out.exists()
