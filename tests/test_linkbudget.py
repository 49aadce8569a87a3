import math

import pytest

from qamlink.channel import ChannelSpec, friis_received_power
from qamlink.config import RunConfig
from qamlink.linkbudget import (
    FCC_UNII_LIMIT_DBM,
    analyze,
    fcc_check,
    max_distance,
    required_snr,
    sensitivity,
)

ISO_5GHZ = ChannelSpec(frequency_hz=5e9, distance_m=1.79)


class TestRequiredSnr:
    def test_published_value(self):
        assert required_snr(23.39, 1e9, 250e6) == pytest.approx(29.41, abs=0.01)

    def test_equal_rate_and_bandwidth(self):
        assert required_snr(12.34, 3e8, 3e8) == pytest.approx(12.34, abs=1e-12)

    def test_derived_value(self):
        assert required_snr(20.0, 2e9, 250e6) == pytest.approx(29.030899869919438,
                                                               abs=1e-9)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            required_snr(20.0, 0.0, 250e6)


class TestSensitivity:
    def test_published_value(self):
        assert sensitivity(6.24, 250e6, 29.410599913279626) == pytest.approx(
            -54.37, abs=0.01)

    def test_thermal_floor_corner(self):
        assert sensitivity(0.0, 1.0, 0.0) == -174.0

    def test_with_bom_cascade_nf(self):
        assert sensitivity(5.964488277002962, 250e6, 29.410599913279626) == \
            pytest.approx(-54.64551172299703, abs=1e-9)

    def test_monotone_one_db_steps(self):
        base = sensitivity(6.0, 250e6, 29.0)
        assert sensitivity(7.0, 250e6, 29.0) - base == pytest.approx(1.0, abs=1e-12)
        assert sensitivity(6.0, 250e6, 30.0) - base == pytest.approx(1.0, abs=1e-12)
        assert sensitivity(6.0, 500e6, 29.0) - base == pytest.approx(
            10 * math.log10(2), abs=1e-12)


class TestMaxDistance:
    def test_published_range(self):
        assert max_distance(23.31, -28.2, ISO_5GHZ) == pytest.approx(1.79, abs=0.01)

    def test_zero_budget_distance(self):
        d = max_distance(10.0, 10.0, ISO_5GHZ)
        assert d == pytest.approx(0.004771345159236942, rel=1e-12)

    def test_antenna_gain_scales_range(self):
        base = max_distance(23.31, -28.2, ISO_5GHZ)
        gained = max_distance(
            23.31, -28.2,
            ChannelSpec(5e9, 1.79, tx_antenna_gain_db=10.0, rx_antenna_gain_db=10.0))
        assert gained / base == pytest.approx(10.0, rel=1e-9)

    def test_rejects_impossible_budget(self):
        with pytest.raises(ValueError):
            max_distance(10.0, 10.1, ISO_5GHZ)

    def test_friis_inverse_pair(self):
        import warnings
        for p_min in (-60.0, -30.0, -5.0):
            d = max_distance(23.31, p_min, ISO_5GHZ)
            spec = ChannelSpec(5e9, d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                back = friis_received_power(23.31, spec)
            assert back == pytest.approx(p_min, abs=1e-9)


class TestFccCheck:
    def test_published_power_is_compliant(self):
        assert fcc_check(23.31)

    def test_boundary_inclusive(self):
        assert fcc_check(FCC_UNII_LIMIT_DBM)
        assert fcc_check(23.98)

    def test_over_limit(self):
        assert not fcc_check(25.0)


class TestAnalyze:
    def test_reference_scenario_reproduces_published_numbers(self):
        report = analyze(RunConfig().scenario())
        assert report.required_snr_db == pytest.approx(29.41, abs=0.01)
        assert report.sensitivity_dbm == pytest.approx(-54.37, abs=0.01)
        assert report.rx_power_dbm == pytest.approx(-28.2, abs=0.15)
        assert report.link_margin_db == pytest.approx(26.2, abs=0.15)
        assert report.max_distance_m == pytest.approx(1.79, abs=0.01)
        assert report.max_distance_at_sensitivity_m == pytest.approx(36.53, abs=0.01)
        assert report.fcc_compliant

    def test_formula_path_without_overrides(self):
        cfg = RunConfig()
        cfg.ebn0_override_db = None
        cfg.rx_nf_override_db = None
        report = analyze(cfg.scenario())
        assert report.required_ebn0_db == pytest.approx(22.503, abs=0.02)
        assert report.rx_noise_figure_db == pytest.approx(5.9645, abs=1e-3)
        assert report.link_margin_db > 0.0
        assert report.link_margin_db == pytest.approx(
            report.rx_power_dbm - report.sensitivity_dbm, abs=1e-12)

    def test_degenerate_target_ber_still_well_formed(self):
        cfg = RunConfig()
        cfg.ebn0_override_db = None
        cfg.target_ber = 0.4
        report = analyze(cfg.scenario())
        assert math.isfinite(report.sensitivity_dbm)
        # unreachable target pins Eb/N0 to the search floor: negative SNR term
        assert report.sensitivity_dbm < report.noise_floor_dbm
        assert report.max_distance_at_sensitivity_m > report.distance_m

    def test_deterministic(self):
        scenario = RunConfig().scenario()
        assert analyze(scenario) == analyze(scenario)

    def test_margin_is_zero_at_sensitivity_range(self):
        import warnings
        report = analyze(RunConfig().scenario())
        spec = ChannelSpec(5e9, report.max_distance_at_sensitivity_m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p_rx = friis_received_power(report.tx_power_dbm, spec)
        assert p_rx - report.sensitivity_dbm == pytest.approx(0.0, abs=1e-9)

    def test_noncompliant_power_flagged(self):
        cfg = RunConfig()
        cfg.tx_power_dbm = 25.0
        report = analyze(cfg.scenario())
        assert not report.fcc_compliant
