"""Native C bulk kernels (repro.core.native): bit identity and the loader.

Every native kernel is compared bit for bit against its NumPy bulk form
(the fallback) and against the scalar element functions (the oracle),
on the edge shapes of NumPy's pairwise summation and of each app's
geometry.  The loader tests cover the fallback reasons, cache repair,
the first-call race, and the boundary's compaction of odd inputs.
"""
from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.serial as serial
from repro.apps.cutcp.kernel import atom_contribution, atoms_contribution_bulk
from repro.apps.mriq.kernel import q_for_one_pixel, q_for_pixels_bulk
from repro.apps.sgemm.kernel import row_dot, row_dots_bulk
from repro.apps.tpacf.kernel import (
    cross_pairs_bins_bulk,
    row_bins,
    self_pairs_bins_bulk,
)
from repro.core import meter, native

NATIVE = native.library() is not None
needs_native = pytest.mark.skipif(
    not NATIVE, reason=f"native kernels unavailable: {native.status()['reason']}"
)

#: both sides of the 8-accumulator block and of the 128-element split
KS = (0, 1, 3, 7, 8, 9, 13, 64, 127, 128, 129, 160, 257, 300)


@pytest.fixture(autouse=True)
def _reload_default():
    """Loader tests point the cache elsewhere; forget their result."""
    yield
    native.reset()


def _bits(x) -> bytes:
    if isinstance(x, dict):
        return b"|".join(str(k).encode() + _bits(x[k]) for k in sorted(x))
    if isinstance(x, tuple):
        return b"|".join(_bits(p) for p in x)
    return np.asarray(x).tobytes() + str(np.asarray(x).dtype).encode()


def _both(fn, *args):
    """(native result, NumPy-fallback result, their meters)."""
    with meter.metered() as m_nat:
        nat = fn(*args)
    with native.use_native(False), meter.metered() as m_np:
        ref = fn(*args)
    return nat, ref, m_nat, m_np


def _mixed(rng, *shape):
    """Mixed magnitudes and signs: the inputs that expose summation order."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 10, shape)


# -- kernels: native == NumPy bulk == scalar -----------------------------

@needs_native
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", (0, 1, 5))
def test_sgemm_row_dots(n, k):
    rng = np.random.default_rng(k * 7 + n)
    us, vs = _mixed(rng, n, k), _mixed(rng, n, k)
    nat, ref, m_nat, m_np = _both(row_dots_bulk, us, vs, 1.5)
    assert _bits(nat) == _bits(ref)
    assert m_nat == m_np
    scalar = np.array([row_dot(us[i], vs[i], 1.5) for i in range(n)])
    assert nat.tobytes() == scalar.tobytes()


@needs_native
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", (0, 1, 6))
def test_mriq_pixels(n, k):
    rng = np.random.default_rng(k * 11 + n)
    kx, ky, kz = (rng.uniform(-0.5, 0.5, k) for _ in range(3))
    mag = _mixed(rng, k)
    xs, ys, zs = (rng.uniform(-1, 1, n) for _ in range(3))
    nat, ref, m_nat, m_np = _both(q_for_pixels_bulk, kx, ky, kz, mag, xs, ys, zs)
    assert _bits(nat) == _bits(ref)
    assert m_nat == m_np
    scalar = np.array(
        [q_for_one_pixel(xs[i], ys[i], zs[i], kx, ky, kz, mag) for i in range(n)],
        dtype=complex,
    )
    assert nat.tobytes() == scalar.tobytes()


def _sky(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _tpacf_edges():
    """Rows whose pair cosines hit exactly +-1, overshoot 1 before the
    clip, are NaN, or are -0.0."""
    eps = np.nextafter(1.0, 2.0)
    return np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [eps, 0.0, 0.0], [-eps, 0.0, 0.0],
        [0.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.6, 0.8, 0.0],
    ])


@needs_native
@pytest.mark.parametrize("nbins", (1, 7, 2048))
@pytest.mark.parametrize("sizes", ((0, 5), (5, 0), (1, 1), (9, 13), (8, 8)))
def test_tpacf_pair_bins(nbins, sizes):
    rng = np.random.default_rng(nbins + 31 * sizes[0] + sizes[1])
    us, other = _sky(rng, sizes[0]), _sky(rng, sizes[1])
    with np.errstate(invalid="ignore"):
        nat, ref, m_nat, m_np = _both(cross_pairs_bins_bulk, nbins, other, us)
        assert _bits(nat) == _bits(ref) and m_nat == m_np
        if len(us):
            scalar = np.concatenate([row_bins(nbins, u, other) for u in us])
            assert nat[0].tobytes() == scalar.tobytes()
        i_arr = np.arange(len(other))
        nat, ref, m_nat, m_np = _both(
            self_pairs_bins_bulk, nbins, other, i_arr, other)
        assert _bits(nat) == _bits(ref) and m_nat == m_np
        if len(other):
            scalar = np.concatenate(
                [row_bins(nbins, other[i], other[i + 1:]) for i in i_arr])
            assert nat[0].tobytes() == scalar.tobytes()


@needs_native
@pytest.mark.parametrize("nbins", (1, 5))
def test_tpacf_unit_nan_and_overshoot_cosines(nbins):
    pts = _tpacf_edges()
    with np.errstate(invalid="ignore"):
        for fn, args in ((cross_pairs_bins_bulk, (nbins, pts, pts)),
                         (self_pairs_bins_bulk,
                          (nbins, pts, np.arange(len(pts)), pts))):
            nat, ref, _, _ = _both(fn, *args)
            assert _bits(nat) == _bits(ref)


@needs_native
def test_tpacf_clip_matches_numpy_clip():
    """The C clip propagates NaN (payload included) and passes -0.0 and
    the bounds, exactly as ``np.clip(x, -1.0, 1.0)``."""
    eps = np.nextafter(1.0, 2.0)
    xs = np.array([np.nan, -np.nan, -0.0, 0.0, 1.0, -1.0, eps, -eps,
                   1.5, -1.5, np.inf, -np.inf, 0.25])
    us = np.zeros((len(xs), 3))
    us[:, 0] = xs
    unit = np.array([[1.0, 0.0, 0.0]])
    got = native.tpacf_cos_cross(unit, us)
    want = np.clip(
        unit[:, 0] * us[:, 0][:, None] + unit[:, 1] * us[:, 1][:, None]
        + unit[:, 2] * us[:, 2][:, None], -1.0, 1.0).ravel()
    assert got.tobytes() == want.tobytes()


def _atoms_case(rng, name):
    grid = (6, 7, 8)
    if name == "outside":  # boxes fully or partly off the grid
        atoms = np.array([[-5.0, 1.0, 1.0, 1.0], [3.0, 20.0, 2.0, -2.0],
                          [-1.5, -1.5, -1.5, 0.5], [6.5, 7.5, 8.5, 1.0]])
    elif name == "grid_points":  # atoms on grid points and edges: r2 == 0
        atoms = np.array([[0.0, 0.0, 0.0, 1.0], [5.0, 6.0, 7.0, -1.0],
                          [2.0, 3.0, 4.0, 0.25], [0.0, 6.0, 3.5, 2.0]])
    else:
        atoms = np.column_stack([rng.uniform(-1, 8, (40, 3)),
                                 rng.standard_normal(40)])
    return atoms, grid


@needs_native
@pytest.mark.parametrize("case", ("outside", "grid_points", "random"))
@pytest.mark.parametrize("cutoff", (0.4, 1.0, 2.5))
def test_cutcp_boxes(case, cutoff):
    rng = np.random.default_rng(int(cutoff * 10))
    atoms, grid = _atoms_case(rng, case)
    nat, ref, m_nat, m_np = _both(atoms_contribution_bulk, atoms, grid, 1.0, cutoff)
    assert _bits(nat) == _bits(ref)
    assert m_nat == m_np
    with meter.metered() as m_sc:
        parts = [atom_contribution(a, grid, 1.0, cutoff) for a in atoms]
    (flat, pot), lengths = nat
    assert flat.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert pot.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    assert lengths.tolist() == [len(p[0]) for p in parts]
    assert m_nat == m_sc


@needs_native
def test_cutcp_empty_chunk_and_cutoff_below_spacing():
    grid = (4, 4, 4)
    empty = np.empty((0, 4))
    nat, ref, _, _ = _both(atoms_contribution_bulk, empty, grid, 1.0, 2.0)
    assert _bits(nat) == _bits(ref)
    # cutoff < spacing: boxes of zero or one grid point
    atoms = np.array([[1.5, 1.5, 1.5, 1.0], [1.1, 2.0, 0.9, 2.0]])
    nat, ref, _, _ = _both(atoms_contribution_bulk, atoms, grid, 1.0, 0.3)
    assert _bits(nat) == _bits(ref)


# -- apps end to end: native == NumPy fallback == scalar, faults too -----

def _app_value(app, nodes, faults=None, vectorize=True):
    from repro.bench.calibrate import costs_for
    from repro.bench.harness import APPS
    from repro.cluster.machine import PAPER_MACHINE
    from repro.core.engine import use_vectorization

    spec = APPS[app]
    p = spec.make_problem(**spec.sandbox_params)
    machine = PAPER_MACHINE.scaled(nodes=nodes, cores_per_node=4)
    with use_vectorization(vectorize):
        run = spec.runners["triolet"](p, machine, costs_for(app, "triolet", p),
                                      faults=faults)
    return run


@needs_native
@pytest.mark.parametrize("app", ("mriq", "sgemm", "tpacf", "cutcp"))
@pytest.mark.parametrize("nodes", (1, 2, 4))
def test_app_values_native_fallback_scalar(app, nodes):
    nat = _app_value(app, nodes)
    with native.use_native(False):
        ref = _app_value(app, nodes)
    assert _bits(nat.value) == _bits(ref.value)
    assert nat.elapsed == ref.elapsed
    assert nat.detail["meter"] == ref.detail["meter"]
    scalar = _app_value(app, nodes, vectorize=False)
    assert _bits(nat.value) == _bits(scalar.value)


@needs_native
@pytest.mark.parametrize("app", ("mriq", "sgemm", "tpacf", "cutcp"))
@pytest.mark.parametrize("fault", ("crash", "loss"))
def test_app_values_under_faults(app, fault):
    from repro.cluster.faults import FaultPlan, RankCrash, RankLoss

    spec = RankCrash if fault == "crash" else RankLoss

    def run():
        return _app_value(app, 4, FaultPlan([spec(rank=1, at=0)]))

    nat = run()
    with native.use_native(False):
        ref = run()
    assert _bits(nat.value) == _bits(ref.value)
    assert nat.elapsed == ref.elapsed


# -- the loader ----------------------------------------------------------

def _fresh_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.reset()


def test_no_compiler_falls_back_with_reason(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setenv("CC", "false")
    assert native.library() is None
    st = native.status()
    assert st["path"] == "numpy" and "false" in st["reason"]
    assert not native.ready(np.ones(3))
    rng = np.random.default_rng(1)
    us, vs = _mixed(rng, 4, 70), _mixed(rng, 4, 70)
    assert row_dots_bulk(us, vs, 2.0).tobytes() == \
        np.array([row_dot(u, v, 2.0) for u, v in zip(us, vs)]).tobytes()
    assert not list(tmp_path.rglob("*.so"))


@needs_native
def test_probe_mismatch_disables_native(monkeypatch):
    """A NumPy whose summation no longer matches the C pairwise sum must
    switch the library off, not change bits."""
    monkeypatch.setattr(
        native, "_reference_sum",
        lambda a, axis=None: np.nextafter(np.sum(a, axis=axis), np.inf))
    native.reset()
    assert native.library() is None
    assert native.status()["reason"].startswith("probe: pairwise sum differs")
    rng = np.random.default_rng(2)
    us, vs = _mixed(rng, 3, 9), _mixed(rng, 3, 9)
    got = row_dots_bulk(us, vs, 1.0)
    assert got.tobytes() == (1.0 * np.sum(us * vs, axis=1)).tobytes()


@needs_native
def test_truncated_cache_entry_is_rebuilt(monkeypatch, tmp_path):
    good = native.status()["library"]
    _fresh_cache(monkeypatch, tmp_path)
    path, why = native._artifact(native._compiler())
    assert why is None and str(path).startswith(str(tmp_path))
    path.parent.mkdir(parents=True)
    data = open(good, "rb").read()
    # a whole-file digest next to a cut-off library: what a crash or a
    # full disk leaves behind
    native._digest_file(path).write_text(open(good + ".sha256").read())
    path.write_bytes(data[: len(data) // 3])
    assert native.library() is not None
    assert native.status()["library"] == str(path)
    assert native._intact(path) and path.stat().st_size == len(data)
    assert not list(path.parent.glob("*.tmp*"))


@needs_native
def test_racing_first_calls_build_once(monkeypatch, tmp_path):
    _fresh_cache(monkeypatch, tmp_path)
    builds = []
    real = native._compile

    def counting(cc, out):
        builds.append(out)
        return real(cc, out)

    monkeypatch.setattr(native, "_compile", counting)
    workers = 4  # more threads than the host's cores
    barrier = threading.Barrier(workers)
    got = []

    def first_call():
        barrier.wait(timeout=30)
        got.append(native.library())

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_call) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(prev)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len(got) == workers and got[0] is not None
    assert all(lib is got[0] for lib in got)


@needs_native
def test_boundary_compacts_odd_inputs_without_wire_copies():
    """Non-float64 and non-C-contiguous inputs are compacted before a
    pointer crosses into C; those kernel-local copies are not wire
    traffic, so ``copy_stats`` does not move."""
    rng = np.random.default_rng(3)
    us, vs = _mixed(rng, 6, 20), _mixed(rng, 6, 20)
    want = native.row_dots(us, vs, 1.0)
    serial.reset()
    before = serial.copy_stats()
    fortran = np.asfortranarray(us)
    strided = np.repeat(vs, 2, axis=1)[:, ::2]
    assert not fortran.flags.c_contiguous and not strided.flags.c_contiguous
    assert native.row_dots(fortran, strided, 1.0).tobytes() == want.tobytes()
    # through the app kernel, too: strided float64 rows take the C path
    assert row_dots_bulk(fortran, strided, 1.0).tobytes() == want.tobytes()
    small = np.arange(12, dtype=np.int32).reshape(2, 6)
    assert native.row_dots(small, small, 1.0).tolist() == \
        [float((small[i].astype(float) ** 2).sum()) for i in range(2)]
    atoms32 = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=np.float32)
    lo = np.array([[0, 0, 0]], dtype=np.int32)
    hi = np.array([[2, 2, 2]], dtype=np.int16)
    flat, pot, lengths = native.cutcp_boxes(atoms32, lo, hi, 3, 3, 1.0, 4.0)
    assert lengths.tolist() == [len(flat)] and len(pot) == len(flat)
    assert serial.copy_stats() == before


@needs_native
def test_boundary_rejects_mismatched_shapes():
    """C reads through the pointers exactly the extents it is told; a
    shape that disagrees must raise before any pointer is passed."""
    with pytest.raises(ValueError, match="vs"):
        native.row_dots(np.ones((3, 4)), np.ones((3, 5)), 1.0)
    with pytest.raises(ValueError, match="mag"):
        native.mriq_sums(np.ones((2, 4)), np.ones((2, 4)), np.ones(3))
    with pytest.raises(ValueError, match="i_arr"):
        native.tpacf_cos_self(np.ones((4, 3)), np.arange(2), np.ones((3, 3)))
    with pytest.raises(ValueError, match="us"):
        native.tpacf_cos_cross(np.ones((4, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="hi"):
        native.cutcp_boxes(np.ones((2, 4)), np.zeros((2, 3)),
                           np.zeros((1, 3)), 4, 4, 1.0, 1.0)


@needs_native
def test_other_dtypes_keep_numpy_semantics():
    """float32 rows compute in float32 under NumPy; the native path
    (float64 arithmetic) must not take them."""
    us = np.linspace(0, 1, 40, dtype=np.float32).reshape(4, 10)
    assert not native.ready(us)
    got = row_dots_bulk(us, us, 1.0)
    assert got.dtype == np.float32
    assert got.tobytes() == (1.0 * np.sum(us * us, axis=1)).tobytes()


def test_use_native_off_reports_numpy():
    with native.use_native(False):
        assert native.status()["path"] == "numpy"
        assert not native.ready(np.ones(2))

