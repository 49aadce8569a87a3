import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qamlink.units import (
    SPEED_OF_LIGHT_M_S,
    db_to_linear,
    dbm_to_watts,
    watts_to_dbm,
    wavelength,
)


def test_db_to_linear_known_values():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    # independently evaluated 10**3.2
    assert db_to_linear(32.0) == pytest.approx(1584.893192461114, rel=1e-12)


def test_dbm_to_watts_known_values():
    assert dbm_to_watts(23.31) == pytest.approx(0.214289, abs=1e-5)
    assert dbm_to_watts(-28.2) == pytest.approx(1.514e-6, abs=1e-9)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


def test_wavelength_known_values():
    assert wavelength(5e9) == pytest.approx(0.05996, abs=5e-5)
    assert wavelength(SPEED_OF_LIGHT_M_S) == 1.0
    assert wavelength(2.4e9) == pytest.approx(0.12491352416666666, rel=1e-12)


def test_wavelength_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        wavelength(0.0)
    with pytest.raises(ValueError):
        wavelength(-5e9)


def test_watts_to_dbm_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_db_roundtrip(x):
    assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-9)


@given(st.floats(min_value=-80.0, max_value=80.0))
def test_dbm_roundtrip(p):
    assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-9)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_adding_3dB_doubles_watts(p):
    ratio = dbm_to_watts(p + 3.0103) / dbm_to_watts(p)
    assert ratio == pytest.approx(2.0, rel=1e-6)


@given(st.floats(min_value=-50.0, max_value=50.0), st.floats(min_value=1e-6, max_value=10.0))
def test_dbm_to_watts_strictly_increasing(p, step):
    assert dbm_to_watts(p + step) > dbm_to_watts(p)
