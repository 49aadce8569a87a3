import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qamlink.config import RunConfig
from qamlink.modem import (
    SUPPORTED_ORDERS,
    _nearest_axis_label,
    build_constellation,
    demap_hard,
    ebn0_for_ber,
    map_bits,
    theoretical_ber,
)

orders = pytest.mark.parametrize("order", SUPPORTED_ORDERS)


class TestConstellation:
    def test_rejects_unsupported_order(self):
        for bad in (2, 8, 32, 128, 512):
            with pytest.raises(ValueError):
                build_constellation(bad)

    @orders
    def test_unit_average_energy(self, order):
        cmap = build_constellation(order)
        assert np.mean(np.abs(cmap.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @orders
    def test_labels_are_a_bijection(self, order):
        cmap = build_constellation(order)
        assert cmap.points.size == order
        assert np.unique(cmap.points).size == order

    def test_qpsk_points(self):
        cmap = build_constellation(4)
        expected = {(s * 0.5 ** 0.5, t * 0.5 ** 0.5) for s in (-1, 1) for t in (-1, 1)}
        got = {(round(p.real, 12), round(p.imag, 12)) for p in cmap.points}
        assert got == {(round(a, 12), round(b, 12)) for a, b in expected}

    def test_raw_grid_energy_before_scaling(self):
        """The odd-integer grid averages 2(M-1)/3 before normalization."""
        for order, raw in ((16, 10.0), (256, 170.0)):
            cmap = build_constellation(order)
            scale = math.sqrt(2.0 * (order - 1) / 3.0)
            raw_energy = np.mean(np.abs(cmap.points * scale) ** 2)
            assert raw_energy == pytest.approx(raw, rel=1e-12)

    def test_16qam_corner_magnitude(self):
        cmap = build_constellation(16)
        assert np.abs(cmap.points).max() == pytest.approx(1.3416407864998738, rel=1e-12)

    @orders
    def test_gray_adjacency_exhaustive(self, order):
        """Grid neighbours along I or Q differ in exactly one label bit."""
        cmap = build_constellation(order)
        step = cmap.axis_levels[1] - cmap.axis_levels[0]
        index_of = {(round(p.real, 9), round(p.imag, 9)): label
                    for label, p in enumerate(cmap.points)}
        checked = 0
        for label, p in enumerate(cmap.points):
            for di, dq in ((step, 0.0), (0.0, step)):
                key = (round(p.real + di, 9), round(p.imag + dq, 9))
                if key in index_of:
                    neighbour = index_of[key]
                    assert bin(label ^ neighbour).count("1") == 1
                    checked += 1
        side = int(math.isqrt(order))
        assert checked == 2 * side * (side - 1)


def pack_labels(bits, cmap):
    """Labels of a {0,1} sequence, bits_per_symbol bits MSB first per label."""
    groups = np.asarray(bits, dtype=np.uint8).reshape(-1, cmap.bits_per_symbol)
    return np.packbits(groups, axis=1)[:, 0] >> (8 - cmap.bits_per_symbol)


def unpack_labels(labels, cmap):
    """The {0,1} sequence of packed labels, MSB first per label."""
    bits = np.unpackbits(np.asarray(labels, dtype=np.uint8)[:, None], axis=1)
    return bits[:, 8 - cmap.bits_per_symbol:].reshape(-1)


class TestMapping:
    def test_empty_labels(self):
        cmap = build_constellation(16)
        assert map_bits(np.empty(0, dtype=np.uint8), cmap).size == 0

    def test_all_zero_byte_maps_to_label_zero(self):
        cmap = build_constellation(256)
        labels = pack_labels(np.zeros(8, dtype=np.uint8), cmap)
        assert labels.dtype == np.uint8
        assert map_bits(labels, cmap)[0] == cmap.points[0]

    def test_random_bits_land_on_constellation(self):
        cmap = build_constellation(16)
        rng = np.random.default_rng(5)
        symbols = map_bits(pack_labels(rng.integers(0, 2, 16, dtype=np.uint8), cmap), cmap)
        assert symbols.size == 4
        for s in symbols:
            assert np.min(np.abs(cmap.points - s)) < 1e-12

    # a uint8 label cannot reach 256
    @pytest.mark.parametrize("order", (4, 16, 64))
    def test_label_at_or_above_order_rejected(self, order):
        cmap = build_constellation(order)
        for bad in (order, 255):
            with pytest.raises(IndexError):
                map_bits(np.array([0, bad], dtype=np.uint8), cmap)

    @orders
    def test_every_label_roundtrips(self, order):
        cmap = build_constellation(order)
        labels = np.arange(order, dtype=np.uint8)
        got = demap_hard(map_bits(labels, cmap), cmap)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, labels)
        np.testing.assert_array_equal(pack_labels(unpack_labels(labels, cmap), cmap), labels)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SUPPORTED_ORDERS), st.data())
    def test_roundtrip(self, order, data):
        cmap = build_constellation(order)
        n_sym = data.draw(st.integers(min_value=1, max_value=64))
        bits = np.array(
            data.draw(st.lists(st.integers(0, 1),
                               min_size=n_sym * cmap.bits_per_symbol,
                               max_size=n_sym * cmap.bits_per_symbol)),
            dtype=np.uint8)
        labels = demap_hard(map_bits(pack_labels(bits, cmap), cmap), cmap)
        assert np.array_equal(unpack_labels(labels, cmap), bits)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SUPPORTED_ORDERS), st.data())
    def test_label_popcount_counts_bit_errors(self, order, data):
        """The simulator's error count, popcount(a ^ b), is the number of
        unpacked bits that differ."""
        cmap = build_constellation(order)
        n_sym = data.draw(st.integers(min_value=0, max_value=64))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)),
            min_size=n_sym, max_size=n_sym))
        a, b = np.array(pairs, dtype=np.uint8).reshape(-1, 2).T
        mismatches = np.count_nonzero(unpack_labels(a, cmap) != unpack_labels(b, cmap))
        assert np.bitwise_count(a ^ b).sum() == mismatches

    def test_small_displacement_keeps_bits(self):
        cmap = build_constellation(256)
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 8 * 500, dtype=np.uint8)
        symbols = map_bits(pack_labels(bits, cmap), cmap)
        angles = rng.uniform(0, 2 * np.pi, symbols.size)
        step = cmap.axis_levels[1] - cmap.axis_levels[0]
        offset = 0.49 * step / 2.0 * np.exp(1j * angles)
        assert np.array_equal(unpack_labels(demap_hard(symbols + offset, cmap), cmap), bits)

    @orders
    def test_midpoint_tie_goes_to_smaller_label(self, order):
        cmap = build_constellation(order)
        half = cmap.bits_per_symbol // 2
        levels, labels = cmap.axis_levels, cmap.axis_labels
        for k in range(levels.size - 1):
            mid = 0.5 * (levels[k] + levels[k + 1])
            q_label = labels[0]
            sample = np.array([mid + 1j * levels[0]])
            winner = min((labels[k] << half) | q_label,
                         (labels[k + 1] << half) | q_label)
            got = demap_hard(sample, cmap)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, [winner])

    @orders
    def test_interleaved_pass_matches_per_axis_demap(self, order):
        """One pass over the interleaved floats gives the per-axis demapper's
        labels bit for bit, midpoint ties included, for any input layout."""
        cmap = build_constellation(order)
        levels = cmap.axis_levels
        mids = 0.5 * (levels[:-1] + levels[1:])
        rng = np.random.default_rng(order)
        axis = np.concatenate([rng.uniform(1.5 * levels[0], 1.5 * levels[-1], 2000),
                               mids, levels])
        symbols = axis + 1j * rng.permutation(axis)
        half = cmap.bits_per_symbol // 2

        def per_axis(s):
            return (_nearest_axis_label(s.real, cmap) << half) | _nearest_axis_label(
                s.imag, cmap)

        for sample in (symbols, symbols[::3], symbols[:2000].reshape(40, 50),
                       symbols[-1:].reshape(())):
            got = demap_hard(sample, cmap)
            assert got.dtype == np.uint8 and got.shape == sample.shape
            np.testing.assert_array_equal(got, per_axis(sample))

    @orders
    def test_demap_matches_sorted_search_oracle(self, order):
        """Every finite and infinite axis value, midpoints and their float
        neighbours included, demaps as a sorted search plus a tie fix-up."""
        cmap = build_constellation(order)
        levels, labels = cmap.axis_levels, cmap.axis_labels
        side = levels.size
        mids = 0.5 * (levels[:-1] + levels[1:])
        rng = np.random.default_rng(order)
        axis = np.concatenate([
            rng.uniform(1.5 * levels[0], 1.5 * levels[-1], 500), mids,
            np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf), levels,
            [-1e300, 1e300, -np.inf, np.inf]])

        def oracle_labels(values):
            idx = np.searchsorted(mids, values)
            tie = np.flatnonzero((idx < side - 1)
                                 & (values == mids[np.minimum(idx, side - 2)]))
            k = idx[tie]
            idx[tie] = np.where(labels[k] <= labels[k + 1], k, k + 1)
            return labels[idx]

        shuffled = rng.permutation(axis)
        i_axis = np.concatenate([axis, shuffled])
        q_axis = np.concatenate([shuffled, axis])
        symbols = np.empty(i_axis.size, dtype=np.complex128)
        symbols.real, symbols.imag = i_axis, q_axis  # 1j * inf would carry a NaN
        half = cmap.bits_per_symbol // 2
        label = (oracle_labels(i_axis) << half) | oracle_labels(q_axis)
        got = demap_hard(symbols, cmap)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, label)

    @orders
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_demap_matches_brute_force_nearest_point(self, order, data):
        """demap_hard is the nearest point, smaller label on a tie, for drawn
        values, every level and midpoint and their float neighbours, and
        huge values; its Gray labels rest on axis_labels being the reflected
        code of the level index."""
        cmap = build_constellation(order)
        levels = cmap.axis_levels
        idx = np.arange(levels.size, dtype=np.uint8)
        np.testing.assert_array_equal(cmap.axis_labels, idx ^ (idx >> 1))

        mids = 0.5 * (levels[:-1] + levels[1:])
        big = np.finfo(np.float64).max
        special = [*levels, *mids, *np.nextafter(mids, -np.inf),
                   *np.nextafter(mids, np.inf), -big, big, -1e300, 1e300]
        value = st.one_of(st.sampled_from(special), st.floats(-2.0, 2.0),
                          st.floats(allow_nan=False, allow_infinity=False))
        drawn_i = data.draw(st.lists(value, min_size=1, max_size=24))
        drawn_q = data.draw(st.lists(value, min_size=len(drawn_i),
                                     max_size=len(drawn_i)))
        # every special value on each axis, against drawn values on the other
        symbols = np.empty(len(drawn_i) + 2 * len(special), dtype=np.complex128)
        symbols.real = [*drawn_i, *special, *np.resize(drawn_q, len(special))]
        symbols.imag = [*drawn_q, *np.resize(drawn_i, len(special)), *special]
        got = demap_hard(symbols, cmap)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, brute_force_labels(symbols, cmap))


# 2**-1075 divides every float and the exact midpoint of any two
_EXACT_SCALE = 1075


def _exact(value):
    """A finite float as an exact integer count of 2**-1075."""
    num, den = float(value).as_integer_ratio()
    return num * ((1 << _EXACT_SCALE) // den)


def brute_force_labels(symbols, cmap):
    """Label of the point at the least exact squared distance among all
    cmap.order points, the smaller label among equals.

    A value on the float midpoint 0.5 * (a + b) of two adjacent axis levels
    stands for their exact midpoint, the tie the demapper documents: for
    64-QAM that float lies up to half an ulp off the exact midpoint, and no
    other float lies between the two.
    """
    levels = np.unique(cmap.points.real)
    exact_mid = {float(0.5 * (a + b)): (_exact(a) + _exact(b)) // 2
                 for a, b in zip(levels[:-1], levels[1:])}

    def coordinate(v):
        v = float(v)
        return exact_mid[v] if v in exact_mid else _exact(v)

    points = [(_exact(p.real), _exact(p.imag)) for p in cmap.points]
    coords = {c for point in points for c in point}
    labels = []
    for s in symbols:
        i, q = coordinate(s.real), coordinate(s.imag)
        di = {c: (i - c) ** 2 for c in coords}
        dq = {c: (q - c) ** 2 for c in coords}
        dist = [di[pi] + dq[pq] for pi, pq in points]
        labels.append(min(range(cmap.order), key=lambda label: (dist[label], label)))
    return np.array(labels, dtype=np.uint8)


class TestBandwidthPlan:
    def test_paper_rates(self):
        scenario = RunConfig().scenario()
        assert scenario.symbol_rate_hz == pytest.approx(125e6)
        assert scenario.bandwidth_hz == pytest.approx(250e6)
        assert RunConfig(modulation_order=4).scenario().bandwidth_hz == pytest.approx(1000e6)

    def test_tiny_rate(self):
        scenario = RunConfig(bit_rate_bps=2.0, modulation_order=4).scenario()
        assert scenario.symbol_rate_hz == 1.0
        assert scenario.bandwidth_hz == 2.0

    def test_identities(self):
        for order in SUPPORTED_ORDERS:
            scenario = RunConfig(bit_rate_bps=3e8, modulation_order=order).scenario()
            assert scenario.bandwidth_hz == 2.0 * scenario.symbol_rate_hz
            assert scenario.symbol_rate_hz * scenario.bits_per_symbol == scenario.bit_rate_bps

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            RunConfig(bit_rate_bps=0.0, modulation_order=4).scenario()
        with pytest.raises(ValueError):
            RunConfig(modulation_order=5).scenario()


def gray_pam_ber(order, ebn0_db):
    """Oracle: the exact Gray square-QAM BER by enumeration. I and Q are
    independent sqrt(M)-PAM axes carrying half the bits each, so the BER is
    one axis's: for every sent level and every decision region, the Gaussian
    tail mass of the region times the Hamming distance of the two levels'
    Gray labels, averaged over the levels and the axis's bits."""
    side = math.isqrt(order)
    bits = side.bit_length() - 1
    es = 2.0 * (order - 1) / 3.0  # levels at the odd integers
    sigma = math.sqrt(es / (2 * bits) / 10.0 ** (ebn0_db / 10.0) / 2.0)

    def upper_tail(x):  # P(noise > x)
        return 0.5 * math.erfc(x / (sigma * math.sqrt(2.0)))

    levels = [2 * j - (side - 1) for j in range(side)]
    edges = [-math.inf] + [a + 1 for a in levels[:-1]] + [math.inf]
    total = 0.0
    for j, a in enumerate(levels):
        for region in range(side):
            lo, hi = edges[region] - a, edges[region + 1] - a
            # each mass from the tails it lies in, so small masses keep their digits
            if lo >= 0.0:
                mass = upper_tail(lo) - upper_tail(hi)
            elif hi <= 0.0:
                mass = upper_tail(-hi) - upper_tail(-lo)
            else:
                mass = 1.0 - upper_tail(-lo) - upper_tail(hi)
            total += mass * bin((j ^ (j >> 1)) ^ (region ^ (region >> 1))).count("1")
    return total / (side * bits)


class TestTheoreticalBer:
    def test_256qam_at_published_ebn0(self):
        """The exact curve gives ~1.4e-6 at 23.39 dB, comfortably under the
        1e-5 design point the link budget is built around; up there the
        nearest-neighbour form agrees with it to 9 digits."""
        ber = theoretical_ber(256, 23.39)
        assert ber <= 1e-5
        assert ber == pytest.approx(1.366318380176548e-06, rel=1e-9)
        assert gray_pam_ber(256, 23.39) == pytest.approx(1.366318380176548e-06, rel=1e-9)

    def test_qpsk_classic_point(self):
        ber = theoretical_ber(4, 9.6)
        assert ber == pytest.approx(9.736176018578627e-06, rel=1e-9)
        assert gray_pam_ber(4, 9.6) == pytest.approx(9.736176018578627e-06, rel=1e-9)
        assert 5e-6 < ber < 2e-5

    def test_exact_values_at_low_snr(self):
        """Where the nearest-neighbour form read 30% low at 256-QAM (0.1779
        at 0 dB): the exact values, each checked against the oracle."""
        for order, ebn0, exact in ((256, 0.0, 0.2546071990882597),
                                   (256, 10.0, 0.07859627551807416),
                                   (16, 0.0, 0.14098163506684164)):
            assert theoretical_ber(order, ebn0) == pytest.approx(exact, rel=1e-9)
            assert gray_pam_ber(order, ebn0) == pytest.approx(exact, rel=1e-9)

    @orders
    def test_matches_gray_pam_enumeration(self, order):
        for ebn0 in np.arange(-4.0, 26.0, 1.5):
            assert theoretical_ber(order, ebn0) == pytest.approx(
                gray_pam_ber(order, ebn0), rel=1e-9), ebn0

    def test_qpsk_is_the_q_function(self):
        """QPSK has one erfc term: Q(sqrt(2 Eb/N0)) as the float it always was."""
        for ebn0 in (-3.0, 0.0, 4.5, 9.6, 13.0):
            gamma = 10.0 ** (ebn0 / 10.0)
            assert theoretical_ber(4, ebn0) == 0.5 * math.erfc(math.sqrt(1.0 * gamma))

    def test_infinite_ebn0(self):
        assert theoretical_ber(256, math.inf) == 0.0

    def test_strictly_decreasing_in_ebn0(self):
        # stop before the Gaussian tail underflows to exactly zero
        grid = np.arange(-5.0, 24.0, 0.5)
        for order in SUPPORTED_ORDERS:
            ber = theoretical_ber(order, grid)
            assert np.all(np.diff(ber) < 0.0)

    def test_increasing_in_order_at_fixed_ebn0(self):
        for ebn0 in (6.0, 10.0, 15.0, 20.0):
            values = [theoretical_ber(order, ebn0) for order in SUPPORTED_ORDERS]
            assert values == sorted(values)

    def test_capped_at_half(self):
        assert theoretical_ber(4, -60.0) <= 0.5


class TestEbn0ForBer:
    def test_256qam_inversion(self):
        assert ebn0_for_ber(256, 1e-5) == pytest.approx(22.503, abs=0.02)

    def test_roundtrip(self):
        target = theoretical_ber(4, 10.0)
        assert ebn0_for_ber(4, target) == pytest.approx(10.0, abs=0.01)

    def test_consistency_with_forward_curve(self):
        for order in SUPPORTED_ORDERS:
            for target in (1e-2, 1e-4, 1e-6):
                ebn0 = ebn0_for_ber(order, target)
                assert theoretical_ber(order, ebn0) == pytest.approx(target, rel=0.01)

    def test_unreachable_target_stays_finite_and_monotone(self):
        """256-QAM never reaches BER 0.4; the inversion pins to the search
        floor instead of diverging."""
        high = ebn0_for_ber(256, 0.4)
        assert math.isfinite(high) and high < 0.0
        targets = (0.4, 0.2, 0.05, 1e-3, 1e-6)
        results = [ebn0_for_ber(256, t) for t in targets]
        assert results == sorted(results)

    def test_rejects_out_of_range_target(self):
        for bad in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                ebn0_for_ber(4, bad)

