"""The mri-q numerical kernel, shared by every framework.

``ftcoeff`` is the paper's per-(sample, pixel) contribution; the chunk
form evaluates a block of pixels against all samples with numpy, which is
how every framework's inner task runs (the paper's inner loops are tight
native code in all three languages; the comparison lives in distribution
and overhead, not in the arithmetic).
"""
from __future__ import annotations

import numpy as np

from repro.core import meter, native

TWO_PI = 2.0 * np.pi


def ftcoeff(kx, ky, kz, mag, x, y, z) -> complex:
    """One sample's contribution to one pixel (scalar form)."""
    phase = TWO_PI * (kx * x + ky * y + kz * z)
    return complex(mag * np.cos(phase), mag * np.sin(phase))


def q_for_pixels(
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    kz: np.ndarray,
    mag: np.ndarray,
) -> np.ndarray:
    """Q values for a block of pixels: sum over all k-space samples.

    Tallies ``len(xs) * len(kx)`` visits minus the ones the caller's
    library already counted per pixel.
    """
    phase = TWO_PI * (
        np.outer(xs, kx) + np.outer(ys, ky) + np.outer(zs, kz)
    )
    re = np.sum(np.cos(phase) * mag, axis=1)
    im = np.sum(np.sin(phase) * mag, axis=1)
    n = len(xs) * len(kx)
    meter.tally_visits(max(0, n - len(xs)))
    return re + 1j * im


def q_for_one_pixel(x, y, z, kx, ky, kz, mag) -> complex:
    """Q value of a single pixel (the Triolet element function).

    The sample sum is ``np.sum`` over elementwise products (not BLAS
    ``@``) so the batched form below reproduces it bit-for-bit.
    """
    phase = TWO_PI * (kx * x + ky * y + kz * z)
    meter.tally_inner(len(kx))
    return complex(
        np.sum(np.cos(phase) * mag), np.sum(np.sin(phase) * mag)
    )


def q_for_pixels_bulk(
    kx, ky, kz, mag, xs, ys, zs
) -> np.ndarray:
    """Batched :func:`q_for_one_pixel`: same phases, same per-row sums.

    Meters exactly like ``len(xs)`` scalar calls.  With the native
    kernels loaded the phases and the weighted row sums run in C;
    ``np.cos``/``np.sin`` stay in NumPy either way.
    """
    xs, ys, zs = np.asarray(xs), np.asarray(ys), np.asarray(zs)
    n = len(xs)
    meter.tally_visits(n * max(len(kx) - 1, 0))
    if _native_shapes(kx, ky, kz, mag, xs, ys, zs):
        phase = native.mriq_phase(kx, ky, kz, xs, ys, zs, TWO_PI)
        cos = np.cos(phase)
        return native.mriq_sums(cos, np.sin(phase, out=phase), mag)
    phase = TWO_PI * (kx * xs[:, None] + ky * ys[:, None] + kz * zs[:, None])
    out = np.empty(n, dtype=complex)
    out.real = np.sum(np.cos(phase) * mag, axis=1)
    out.imag = np.sum(np.sin(phase) * mag, axis=1)
    return out


def _native_shapes(kx, ky, kz, mag, xs, ys, zs) -> bool:
    """The native form's precondition: 1-D float64 sample and pixel
    vectors of matching lengths (anything else keeps NumPy's
    broadcasting and dtype semantics)."""
    ks, ps = (kx, ky, kz, mag), (xs, ys, zs)
    return (
        all(isinstance(a, np.ndarray) and a.ndim == 1 for a in ks + ps)
        and len({len(a) for a in ks}) == 1
        and len({len(a) for a in ps}) == 1
        and native.ready(*ks, *ps)
    )
