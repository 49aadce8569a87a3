"""Square-QAM constellations, symbol mapping and hard demapping, and
closed-form bit-error-rate curves.

Symbols travel as labels: a label is one uint8 that packs a symbol's
bits_per_symbol bits MSB first, and it indexes ``ConstellationMap.points``.
A bit error count between two label arrays is the popcount of their XOR, so
the bits are never unpacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_ORDERS = (4, 16, 64, 256)

_erfc = np.vectorize(math.erfc, otypes=[float])


def _gray(n):
    return n ^ (n >> 1)


@dataclass(frozen=True)
class ConstellationMap:
    """Gray-coded square-QAM symbol table with unit average energy.

    ``points[label]`` is the complex amplitude for an N-bit label, the
    symbol's bits packed MSB first into one uint8. The upper
    N/2 bits of the label select the I level and the lower N/2 bits the Q
    level; each axis carries an independent reflected-Gray code, so grid
    neighbours differ in exactly one bit.
    """

    order: int
    bits_per_symbol: int
    points: np.ndarray       # complex128, indexed by symbol label
    axis_levels: np.ndarray  # ascending coordinate levels shared by I and Q
    axis_labels: np.ndarray  # uint8 Gray label carried by each axis level


def build_constellation(order: int) -> ConstellationMap:
    """Unit-energy square QAM on the odd-integer grid, Gray-labeled per axis."""
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; expected one of {SUPPORTED_ORDERS}")
    n_bits = int(math.log2(order))
    side = int(math.isqrt(order))
    half = n_bits // 2

    level_index = np.arange(side)
    labels = _gray(level_index).astype(np.uint8)
    # grid ..., -3, -1, +1, +3, ... scaled so the mean symbol energy is one
    coords = (2.0 * level_index - (side - 1)) / math.sqrt(2.0 * (order - 1) / 3.0)

    level_of_label = np.empty(side, dtype=np.intp)
    level_of_label[labels] = level_index

    all_labels = np.arange(order)
    i_level = level_of_label[all_labels >> half]
    q_level = level_of_label[all_labels & (side - 1)]
    points = coords[i_level] + 1j * coords[q_level]
    return ConstellationMap(order, n_bits, points, coords, labels)


def map_bits(labels, cmap: ConstellationMap) -> np.ndarray:
    """Constellation points of packed symbol labels.

    Each label is one uint8 holding a symbol's bits MSB first; a label at or
    above ``cmap.order`` raises IndexError.
    """
    return np.take(cmap.points, labels)


def _nearest_axis_label(values: np.ndarray, cmap: ConstellationMap) -> np.ndarray:
    """Gray label of the nearest coordinate level on one axis.

    A value exactly between two levels resolves to the smaller Gray label,
    which makes the full-symbol tie rule "smaller label wins" hold because
    the I bits sit above the Q bits. The label of level index i is its
    reflected Gray code i ^ (i >> 1), computed elementwise, not looked up.
    """
    levels = cmap.axis_levels
    labels = cmap.axis_labels
    mids = 0.5 * (levels[:-1] + levels[1:])
    # the level index is the count of midpoints below the value (at most 15);
    # a value on a midpoint counts it only when the upper level has the
    # smaller label
    idx = np.zeros(values.shape, dtype=np.uint8)
    for k, mid in enumerate(mids):
        idx += (values > mid) if labels[k] <= labels[k + 1] else (values >= mid)
    return _gray(idx)  # labels[idx]: build_constellation labels level i with _gray(i)


def demap_hard(symbols, cmap: ConstellationMap) -> np.ndarray:
    """Hard decision by nearest constellation point, as packed uint8 labels
    in the layout ``map_bits`` takes."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    # both axes in one pass over the contiguous (re, im) float pairs
    axes = _nearest_axis_label(
        np.ascontiguousarray(symbols).reshape(-1).view(np.float64), cmap)
    # each (I, Q) label pair read as one little-endian word, I in its low byte
    pairs = axes.view("<u2")
    half = cmap.bits_per_symbol // 2
    labels = ((pairs << half) & (0xFF << half)) | (pairs >> 8)
    return labels.astype(np.uint8).reshape(symbols.shape)


def theoretical_ber(order: int, ebn0_db):
    """Gray-coded square-QAM bit error probability on the AWGN channel, exact
    (K. Cho & D. Yoon, IEEE Trans. Commun. 50(7), 2002).

    With m = log2(sqrt(M)) bits per axis and x = sqrt(3 log2(M) Eb/N0 / (2 (M - 1))),
    P_b = 1/(m sqrt(M)) sum over k = 1..m and i < (1 - 2^-k) sqrt(M) of
    (-1)^floor(i 2^(k-1) / sqrt(M)) (2^(k-1) - floor(i 2^(k-1) / sqrt(M) + 1/2))
    erfc((2i + 1) x), the weights of each erfc summed over k first. Accepts a
    scalar or an array of Eb/N0 values in dB; the result is capped at 0.5.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported QAM order {order}; expected one of {SUPPORTED_ORDERS}")
    side = math.isqrt(order)
    m = side.bit_length() - 1
    weights = np.zeros(side - 1)
    for k in range(1, m + 1):
        for i in range(side - (side >> k)):
            weights[i] += (-1) ** ((i << (k - 1)) // side) * (
                (1 << (k - 1)) - ((i << k) + side) // (2 * side))
    gamma_b = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    x = np.sqrt(1.5 * math.log2(order) / (order - 1) * gamma_b)
    terms = _erfc(np.multiply.outer(x, np.arange(1.0, 2.0 * side - 2.0, 2.0)))
    ber = np.minimum(np.sum(terms * weights, axis=-1) / (m * side), 0.5)
    return float(ber) if np.isscalar(ebn0_db) else ber


def ebn0_for_ber(order: int, target_ber: float) -> float:
    """Eb/N0 in dB at which theoretical_ber hits target_ber, by bisection.

    Targets above the curve's low-SNR plateau pin to the lower search edge
    instead of failing; the curve simply never gets that bad.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target BER must be in (0, 0.5), got {target_ber}")
    lo, hi = -20.0, 80.0
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if theoretical_ber(order, mid) > target_ber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
