"""tpacf scoring kernel shared by the frameworks.

``score``/``row_bins`` map pairs of sky positions to angular bins.
Parboil uses logarithmic arcminute bins; the bin edges here are uniform
in angle -- a monotone relabeling that preserves the computation's shape
(dot product, arccos, binning) and cost exactly.

The 3-term dot products are written as explicit component sums (not
BLAS ``@``) so the scalar, row, and batched-row forms perform the exact
same float operations in the same order: the vectorized engine's bulk
forms (``*_bulk``) are bit-identical to per-element evaluation.
"""
from __future__ import annotations

import numpy as np

from repro.core import meter, native


def score(nbins: int, u: np.ndarray, v: np.ndarray) -> int:
    """Angular bin of one pair (the paper's Fig. 6 ``score``)."""
    cosang = float(np.clip(u[0] * v[0] + u[1] * v[1] + u[2] * v[2], -1.0, 1.0))
    ang = np.arccos(cosang)
    return min(nbins - 1, int(nbins * ang / np.pi))


def row_bins(nbins: int, u: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Bins of *u* against every row of *vs* (vectorized inner loop).

    Tallies one visit per pair, minus the one the caller's library counts
    for the row element itself.
    """
    if len(vs) == 0:
        meter.tally_inner(1)
        return np.empty(0, dtype=np.int64)
    cosang = np.clip(vs[:, 0] * u[0] + vs[:, 1] * u[1] + vs[:, 2] * u[2], -1.0, 1.0)
    ang = np.arccos(cosang)
    bins = np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))
    meter.tally_inner(len(vs))
    return bins


def _pair_cos_matrix(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """cos(angle) of every (us row, vs row) pair; row *i* performs the
    same component products and sums as ``row_bins(nbins, us[i], vs)``."""
    return (
        vs[:, 0] * us[:, 0][:, None]
        + vs[:, 1] * us[:, 1][:, None]
        + vs[:, 2] * us[:, 2][:, None]
    )


def self_pairs_bins_bulk(
    nbins: int, rand: np.ndarray, i_arr: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched triangular pair bins: rows ``i`` of *rand* against rows
    ``i+1:``, concatenated in row order (segmented bulk form).

    Meters exactly like ``len(us)`` calls of ``row_bins``.
    """
    n = len(rand)
    if len(us) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    i_arr = np.asarray(i_arr)
    lengths = np.maximum(n - 1 - i_arr, 0).astype(np.int64)
    meter.tally_visits(int(np.maximum(lengths - 1, 0).sum()))
    if _native_rows(rand, us):
        cos = native.tpacf_cos_self(rand, i_arr, us)
        return native.tpacf_bins(np.arccos(cos, out=cos), nbins), lengths
    cos = _pair_cos_matrix(us, rand)
    keep = np.arange(n) > i_arr[:, None]
    cosang = np.clip(cos, -1.0, 1.0)[keep]
    ang = np.arccos(cosang)
    vals = np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))
    return vals, lengths


def cross_pairs_bins_bulk(
    nbins: int, other: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched cross pair bins: every *us* row against all of *other*."""
    m = len(other)
    if len(us) == 0 or m == 0:
        lengths = np.zeros(len(us), dtype=np.int64)
        if len(us):
            meter.tally_visits(0)
        return np.empty(0, dtype=np.int64), lengths
    lengths = np.full(len(us), m, dtype=np.int64)
    meter.tally_visits(len(us) * max(m - 1, 0))
    if _native_rows(other, us):
        cos = native.tpacf_cos_cross(other, us)
        return native.tpacf_bins(np.arccos(cos, out=cos), nbins), lengths
    cosang = np.clip(_pair_cos_matrix(us, other), -1.0, 1.0)
    ang = np.arccos(cosang)
    vals = np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64)).ravel()
    return vals, lengths


def _native_rows(vs, us) -> bool:
    """The native pair forms' precondition: float64 (rows, 3) position
    stacks.  With it, the pair cosines plus clip and the bin mapping run
    in C and ``np.arccos`` stays in NumPy between the two calls."""
    return (
        all(isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == 3
            for a in (vs, us))
        and native.ready(vs, us)
    )


def cross_set_bins(nbins: int, other: np.ndarray, rand: np.ndarray) -> np.ndarray:
    """All pair bins of one random set against *other*, concatenated.

    The set-granular scalar form: calls ``row_bins`` per row, so its
    float operations and meter tallies are exactly the per-row loop's.
    """
    if len(rand) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [row_bins(nbins, rand[j], other) for j in range(len(rand))]
    )


def cross_set_bins_batch(
    nbins: int, other: np.ndarray, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented batch form of :func:`cross_set_bins` over a stack of
    sets: one segment (and one length) per set.  Bit- and meter-identical
    to ``len(stack)`` scalar calls."""
    vals, lengths = [], []
    for rand in stack:
        v, seg = cross_pairs_bins_bulk(nbins, other, rand)
        vals.append(v)
        lengths.append(int(seg.sum()))
    joined = np.concatenate(vals) if vals else np.empty(0, dtype=np.int64)
    return joined, np.asarray(lengths, dtype=np.int64)


def self_set_bins(nbins: int, rand: np.ndarray) -> np.ndarray:
    """All unique-pair bins of one set (rows i vs i+1:), concatenated."""
    if len(rand) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [row_bins(nbins, rand[i], rand[i + 1 :]) for i in range(len(rand))]
    )


def self_set_bins_batch(
    nbins: int, stack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Segmented batch form of :func:`self_set_bins` over a stack of sets."""
    vals, lengths = [], []
    for rand in stack:
        i_arr = np.arange(len(rand))
        v, seg = self_pairs_bins_bulk(nbins, rand, i_arr, rand)
        vals.append(v)
        lengths.append(int(seg.sum()))
    joined = np.concatenate(vals) if vals else np.empty(0, dtype=np.int64)
    return joined, np.asarray(lengths, dtype=np.int64)


def correlate_cross(
    nbins: int, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Histogram of all pairs (a_i, b_j); tallies ``len(a)*len(b)``."""
    hist = np.zeros(nbins)
    for i in range(len(a)):
        bins = row_bins(nbins, a[i], b)
        np.add.at(hist, bins, 1.0)
        meter.tally_visits(1)  # the outer-row visit row_bins left to us
    return hist


def correlate_self(nbins: int, a: np.ndarray) -> np.ndarray:
    """Histogram of all unique pairs (a_i, a_j), j > i."""
    hist = np.zeros(nbins)
    for i in range(len(a)):
        bins = row_bins(nbins, a[i], a[i + 1 :])
        np.add.at(hist, bins, 1.0)
        meter.tally_visits(1)
    return hist
