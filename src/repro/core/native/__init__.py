"""Native C bulk kernels, built once per host with the system compiler.

``kernels.c`` holds the hot inner loops of the cutcp, tpacf, sgemm and
mri-q bulk forms (``repro/apps/<app>/kernel.py``).  Each C function
reproduces one NumPy expression bit for bit *by construction*: IEEE
basic operations and ``sqrt`` only, in the NumPy expression's
association order, reductions as NumPy's pairwise ``np.add.reduce``,
compiled with ``-ffp-contract=off`` and without ``-ffast-math``.
Transcendentals stay in NumPy between calls.

The library is compiled on first use in a process with ``$CC`` (else
``cc``) and cached under ``$XDG_CACHE_HOME/repro-native`` (default
``~/.cache``), keyed by a hash of the source, the flags and the
compiler's ``--version``; later processes only ``dlopen`` it.  Loading
is lock-guarded, the cached file is written atomically next to a
digest of its bytes, and a cached file that does not match its digest
(truncated, damaged) is rebuilt before anything maps it.  Calls go through stdlib
``ctypes``, which releases the GIL, so rank threads run kernels in
parallel.

After loading, a probe compares the C summation (and the tpacf bin
cast) against NumPy on fixed inputs.  Any mismatch -- or no working
compiler -- disables the library and records why; every caller then
runs its NumPy bulk form, which stays the reference fallback.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: probe lengths: both sides of the 8-accumulator block and of the
#: 128-element split, plus a multi-level split
PROBE_SIZES = (1, 7, 8, 9, 64, 129, 160, 257)

#: what the probe compares the C summation against (tests patch it)
_reference_sum = np.sum

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {
    "row_dots": (None, [_P, _P, _I, _I, _D, _P]),
    "mriq_phase": (None, [_P, _P, _P, _I, _P, _P, _P, _I, _D, _P]),
    "mriq_sums": (None, [_P, _P, _P, _I, _I, _P]),
    "tpacf_cos_cross": (None, [_P, _I, _P, _I, _P]),
    "tpacf_cos_self": (None, [_P, _I, _P, _P, _I, _P]),
    "tpacf_bins": (None, [_P, _I, _I, _D, _P]),
    "cutcp_boxes": (_I, [_P, _I, _I, _P, _P, _I, _I, _D, _D, _P, _P, _P]),
}

_lock = threading.Lock()
_loaded = False
_lib: ctypes.CDLL | None = None
_reason: str | None = None
_so_path: str | None = None
_enabled = True


def _compiler() -> list[str]:
    return shlex.split(os.environ.get("CC") or "cc")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-native"


def _artifact(cc: list[str]) -> tuple[Path, str | None]:
    """Cache path of the library for compiler *cc*, or a reason it has
    none (the compiler does not answer ``--version``)."""
    try:
        ver = subprocess.run(cc + ["--version"], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        return Path(), f"compiler {' '.join(cc)!r} unavailable: {e}"
    if ver.returncode != 0:
        return Path(), (f"compiler {' '.join(cc)!r} unavailable: "
                        f"--version exited {ver.returncode}")
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update("\0".join(FLAGS).encode())
    key.update(ver.stdout.encode())
    return _cache_dir() / f"kernels-{key.hexdigest()[:16]}.so", None


def _digest_file(so: Path) -> Path:
    return so.with_name(so.name + ".sha256")


def _intact(so: Path) -> bool:
    """The cached library is whole: its bytes match the digest recorded
    at build time.  A truncated file must never reach ``dlopen`` --
    touching a mapping past end-of-file is SIGBUS, not an error."""
    try:
        want = _digest_file(so).read_text().strip()
        return hashlib.sha256(so.read_bytes()).hexdigest() == want
    except OSError:
        return False


def _compile(cc: list[str], out: Path) -> str | None:
    """Build the library at *out* atomically (digest first, then the
    library, each by rename); returns a failure reason."""
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=out.name + ".", suffix=".tmp",
                                   dir=out.parent)
    except OSError as e:
        return f"cache directory {out.parent} unusable: {e}"
    os.close(fd)
    tmp_digest = tmp + ".sha256"
    try:
        try:
            res = subprocess.run(cc + [*FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                                 capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as e:
            return f"compiler {' '.join(cc)!r} failed: {e}"
        if res.returncode != 0:
            tail = (res.stderr or res.stdout).strip().splitlines()[-1:]
            return (f"compiler {' '.join(cc)!r} exited {res.returncode}: "
                    f"{' '.join(tail)}")
        digest = hashlib.sha256(Path(tmp).read_bytes()).hexdigest()
        Path(tmp_digest).write_text(digest + "\n")
        os.replace(tmp_digest, _digest_file(out))
        os.replace(tmp, out)
        return None
    except OSError as e:
        return f"cache directory {out.parent} unusable: {e}"
    finally:
        for leftover in (tmp, tmp_digest):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def _build_and_load() -> tuple[ctypes.CDLL | None, str | None, str | None]:
    cc = _compiler()
    path, why = _artifact(cc)
    if why:
        return None, why, None
    if not _intact(path):  # absent, or damaged (truncated, foreign)
        why = _compile(cc, path)
        if why:
            return None, why, None
    try:
        lib = _open(path)
    except (OSError, AttributeError) as e:
        return None, f"library does not load: {e}", str(path)
    why = _probe(lib)
    if why:
        return None, why, str(path)
    return lib, None, str(path)


def _probe(lib: ctypes.CDLL) -> str | None:
    """Compare the library against NumPy on fixed inputs: the pairwise
    summation (``row_dots`` with unit weights is ``0.0 + pairwise``)
    and the tpacf bin cast.  Returns the first mismatch, or None."""
    for n in PROBE_SIZES:
        # mixed magnitudes (1e-12 .. 1e12) and signs, without numpy.random
        i = np.arange(2 * n, dtype=np.float64).reshape(2, n)
        a = np.sin(i * 2.399963) * 10.0 ** ((i * 7) % 25 - 12)
        ones, got = np.ones_like(a), np.empty(2)
        lib.row_dots(_ptr(a), _ptr(ones), 2, n, 1.0, _ptr(got))
        want = _reference_sum(a, axis=1)
        if got.tobytes() != np.asarray(want, dtype=np.float64).tobytes():
            return f"probe: pairwise sum differs from NumPy at n={n}"
        if got[:1].tobytes() != np.float64(_reference_sum(a[0])).tobytes():
            return f"probe: pairwise sum differs from 1-D NumPy at n={n}"
    ang = np.array([0.0, 1.0, np.pi / 2, np.pi, 3.0, 1e300, -1e300,
                    np.inf, -np.inf, np.nan])
    nbins = 7
    with np.errstate(invalid="ignore"):
        want = np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))
    got = np.empty(len(ang), dtype=np.int64)
    lib.tpacf_bins(_ptr(ang), len(ang), nbins, np.pi, _ptr(got))
    if got.tobytes() != want.tobytes():
        return "probe: float->int64 bin cast differs from NumPy"
    return None


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, or None (see :func:`status`)."""
    global _loaded, _lib, _reason, _so_path
    if not _loaded:
        with _lock:
            if not _loaded:
                _lib, _reason, _so_path = _build_and_load()
                _loaded = True
    return _lib


def status() -> dict:
    """Which kernel path runs: ``{"path": "native"|"numpy", "reason",
    "library"}``; *reason* says why the NumPy fallback runs."""
    lib = library()
    if not _enabled:
        return {"path": "numpy", "reason": "disabled by use_native(False)",
                "library": _so_path}
    return {"path": "native" if lib is not None else "numpy",
            "reason": _reason, "library": _so_path}


def reset() -> None:
    """Forget the load result so the next call rebuilds or reloads
    (tests).  A loaded library stays mapped; only this module forgets it."""
    global _loaded, _lib, _reason, _so_path
    with _lock:
        _loaded, _lib, _reason, _so_path = False, None, None, None


@contextlib.contextmanager
def use_native(flag: bool):
    """Force the native kernels on/off for a dynamic extent (tests,
    benchmarks); off runs every NumPy bulk form."""
    global _enabled
    prev, _enabled = _enabled, bool(flag)
    try:
        yield
    finally:
        _enabled = prev


def ready(*arrays: np.ndarray) -> bool:
    """True when the native path may run on *arrays*: the library is
    enabled and loaded, and each array is float64, the dtype whose
    NumPy arithmetic the C code reproduces.  Other dtypes keep their
    NumPy semantics on the fallback."""
    return (
        _enabled
        and all(a.dtype == np.float64 for a in arrays)
        and library() is not None
    )


# -- the boundary (the CHK_ARRAY idea): every pointer handed to C is a
#    C-contiguous array of the exact element type and shape the C side
#    reads.  The compaction copies are kernel-local, not wire traffic,
#    so they are not counted in repro.serial.copy_stats().

def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _need(a: np.ndarray, shape: tuple, what: str) -> None:
    """Raise unless *a* has *shape* (``None`` matches any extent): C
    reads exactly that many elements through the pointer."""
    if a.ndim != len(shape) or any(
            want is not None and got != want
            for got, want in zip(a.shape, shape)):
        raise ValueError(f"{what}: shape {a.shape}, expected {shape}")


def _ptr(a: np.ndarray) -> int:
    return a.ctypes.data


def row_dots(us, vs, alpha: float) -> np.ndarray:
    """``alpha * np.sum(us * vs, axis=1)`` for (n, k) row stacks."""
    us, vs = _f64(us), _f64(vs)
    _need(us, (None, None), "us")
    n, k = us.shape
    _need(vs, (n, k), "vs")
    out = np.empty(n)
    library().row_dots(_ptr(us), _ptr(vs), n, k, float(alpha), _ptr(out))
    return out


def mriq_phase(kx, ky, kz, xs, ys, zs, two_pi: float) -> np.ndarray:
    """``two_pi * (kx * xs[:, None] + ky * ys[:, None] + kz * zs[:, None])``."""
    kx, ky, kz, xs, ys, zs = (_f64(a) for a in (kx, ky, kz, xs, ys, zs))
    k, n = len(kx), len(xs)
    for name, a, m in (("kx", kx, k), ("ky", ky, k), ("kz", kz, k),
                       ("xs", xs, n), ("ys", ys, n), ("zs", zs, n)):
        _need(a, (m,), name)
    phase = np.empty((n, k))
    library().mriq_phase(_ptr(kx), _ptr(ky), _ptr(kz), k, _ptr(xs),
                         _ptr(ys), _ptr(zs), n, float(two_pi), _ptr(phase))
    return phase


def mriq_sums(cos, sin, mag) -> np.ndarray:
    """``np.sum(cos * mag, axis=1) + 1j * np.sum(sin * mag, axis=1)``."""
    cos, sin, mag = _f64(cos), _f64(sin), _f64(mag)
    _need(cos, (None, None), "cos")
    n, k = cos.shape
    _need(sin, (n, k), "sin")
    _need(mag, (k,), "mag")
    out = np.empty(n, dtype=complex)
    library().mriq_sums(_ptr(cos), _ptr(sin), _ptr(mag), n, k, _ptr(out))
    return out


def tpacf_cos_cross(other, us) -> np.ndarray:
    """Clipped pair cosines of every (us row, other row), row-major."""
    other, us = _f64(other), _f64(us)
    _need(other, (None, 3), "other")
    _need(us, (None, 3), "us")
    out = np.empty(len(us) * len(other))
    library().tpacf_cos_cross(_ptr(other), len(other), _ptr(us), len(us),
                              _ptr(out))
    return out


def tpacf_cos_self(rand, i_arr, us) -> np.ndarray:
    """Clipped pair cosines of us row r against rand rows j > i_arr[r]."""
    rand, us, i_arr = _f64(rand), _f64(us), _i64(i_arr)
    _need(rand, (None, 3), "rand")
    _need(us, (None, 3), "us")
    _need(i_arr, (len(us),), "i_arr")
    n = len(rand)
    out = np.empty(int(np.clip(n - 1 - i_arr, 0, n).sum()))
    library().tpacf_cos_self(_ptr(rand), n, _ptr(us), _ptr(i_arr), len(us),
                             _ptr(out))
    return out


def tpacf_bins(ang, nbins: int) -> np.ndarray:
    """``np.minimum(nbins - 1, (nbins * ang / np.pi).astype(np.int64))``."""
    ang = _f64(ang)
    _need(ang, (None,), "ang")
    out = np.empty(len(ang), dtype=np.int64)
    library().tpacf_bins(_ptr(ang), len(ang), int(nbins), np.pi, _ptr(out))
    return out


def cutcp_boxes(atoms, lo, hi, ny: int, nx: int, spacing: float,
                c2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every atom's in-sphere grid points over its ``[lo, hi]`` (z, y, x)
    box: ``(flat indices, potentials, per-atom lengths)`` in atom, z,
    y, x order.  A counting pass sizes the outputs exactly."""
    atoms, lo, hi = _f64(atoms), _i64(lo), _i64(hi)
    _need(atoms, (None, None), "atoms")
    m, stride = atoms.shape
    if stride < 4:
        raise ValueError(f"atoms: {stride} columns, expected (z, y, x, q)")
    _need(lo, (m, 3), "lo")
    _need(hi, (m, 3), "hi")
    lengths = np.empty(m, dtype=np.int64)
    args = (_ptr(atoms), m, stride, _ptr(lo), _ptr(hi), int(ny), int(nx),
            float(spacing), float(c2))
    total = library().cutcp_boxes(*args, None, None, _ptr(lengths))
    flat = np.empty(total, dtype=np.int64)
    pot = np.empty(total)
    library().cutcp_boxes(*args, _ptr(flat), _ptr(pot), _ptr(lengths))
    return flat, pot, lengths
