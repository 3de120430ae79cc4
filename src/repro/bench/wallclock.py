"""Wall-clock benchmark of the bulk execution engine.

Unlike the rest of :mod:`repro.bench` -- which reports *virtual* seconds
from the calibrated cost model -- this module measures real wall-clock
time of the Triolet runner with the vectorized engine on vs. off, and
verifies on the way that vectorization is unobservable except in wall
time: bit-identical values, identical cost-meter counters, identical
virtual makespans and byte counts.  Each cell also records which bulk
kernel path ran (``kernel_path``: native C, or the NumPy fallback and
why) and re-runs the vectorized engine on the NumPy fallback, so
``native_equal`` checks the native kernels are bit-identical to it.

The problem sizes here are larger than the figure-regeneration sandbox
sizes and deliberately shaped so the scalar path's per-element Python
dispatch dominates (short inner vectors, many outer elements, wide
histograms).  The simulated machine uses one core per node: wall-clock
benchmarking wants the work-stealing model's task splitting to keep bulk
chunks large, whereas the virtual figures keep the paper's 16 cores.

``python -m repro.bench --json`` runs this and writes ``BENCH_apps.json``.
"""
from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.cluster.machine import PAPER_MACHINE
from repro.core import native
from repro.core.engine import use_vectorization
from repro.core.fusion import planner_stats, reset_planner
from repro.serial import copy_stats, reset_copy_stats

#: engine-bench instances: many outer elements, short inner vectors.
BENCH_PARAMS: dict[str, dict] = {
    "mriq": dict(npix=32768, nk=64, seed=11),
    "sgemm": dict(n=160, seed=11),
    "tpacf": dict(m=128, nr=96, nbins=2048, seed=11),
    "cutcp": dict(na=20000, grid=(48, 48, 48), cutoff=2.0, seed=11),
}

BENCH_NODES = (1, 2)
CORES_PER_NODE = 1


def _bit_identical(a: Any, b: Any) -> bool:
    """Bitwise equality of run values (arrays or dicts of arrays)."""
    if isinstance(a, dict):
        return set(a) == set(b) and all(_bit_identical(a[k], b[k]) for k in a)
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _timed_run(app: str, problem, nodes: int, vectorize: bool):
    """One timed run with fresh per-run counters, so every cell's plan
    cache, serialization copies, and data-plane stats are deltas for
    *this* run rather than accumulations over the whole bench sweep."""
    spec = APPS[app]
    machine = PAPER_MACHINE.scaled(nodes=nodes, cores_per_node=CORES_PER_NODE)
    costs = costs_for(app, "triolet", problem)
    reset_planner()
    reset_copy_stats()
    with use_vectorization(vectorize):
        t0 = time.perf_counter()
        run = spec.runners["triolet"](problem, machine, costs)
        wall = time.perf_counter() - t0
    return wall, run, copy_stats()


def bench_app(app: str, nodes: int) -> dict:
    """One (app, node count) cell: vectorized vs. scalar, with parity."""
    problem = APPS[app].make_problem(**BENCH_PARAMS[app])
    wall_vec, run_vec, copies_vec = _timed_run(app, problem, nodes,
                                               vectorize=True)
    stats = planner_stats()
    wall_scalar, run_scalar, copies_scalar = _timed_run(app, problem, nodes,
                                                        vectorize=False)
    with native.use_native(False):
        wall_numpy, run_numpy, _ = _timed_run(app, problem, nodes,
                                              vectorize=True)
    meter_vec = run_vec.detail["meter"]
    meter_scalar = run_scalar.detail["meter"]
    plane_vec = run_vec.detail.get("data_plane")
    plane_scalar = run_scalar.detail.get("data_plane")
    return {
        "app": app,
        "nodes": nodes,
        "params": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in BENCH_PARAMS[app].items()},
        "wall_seconds_vectorized": wall_vec,
        "wall_seconds_scalar": wall_scalar,
        "speedup": wall_scalar / wall_vec,
        "kernel_path": kernel_path(),
        "wall_seconds_numpy_kernels": wall_numpy,
        "native_equal": (_bit_identical(run_vec.value, run_numpy.value)
                         and run_vec.elapsed == run_numpy.elapsed
                         and meter_vec == run_numpy.detail["meter"]),
        "virtual_seconds": run_vec.elapsed,
        "virtual_seconds_equal": run_vec.elapsed == run_scalar.elapsed,
        "bytes_shipped": run_vec.bytes_shipped,
        "bytes_shipped_equal": run_vec.bytes_shipped == run_scalar.bytes_shipped,
        "value_bit_identical": _bit_identical(run_vec.value, run_scalar.value),
        "meter": asdict(meter_vec),
        "meter_equal": meter_vec == meter_scalar,
        "plan_cache": asdict(stats),
        "serial_copies": copies_vec,
        "serial_copies_equal": copies_vec == copies_scalar,
        "data_plane": plane_vec,
        "data_plane_equal": plane_vec == plane_scalar,
    }


def kernel_path() -> str:
    """``"native"``, or ``"numpy: <why the fallback runs>"``."""
    st = native.status()
    return "native" if st["path"] == "native" else f"numpy: {st['reason']}"


def measure_obs_overhead(app: str = "sgemm", nodes: int = 2,
                         repeats: int = 5) -> dict:
    """Wall-clock cost of observability: capture on vs. off, best-of-N.

    The ``python -m repro.obs regress`` gate (and the obs test tier)
    asserts ``overhead`` stays under 5%: the span tracer must be
    genuinely zero-cost when disabled and near-free when enabled.
    """
    from repro.obs.runapp import capture_app, plain_app

    params = BENCH_PARAMS[app]

    def best(fn) -> float:
        walls = []
        for _ in range(repeats):
            reset_planner()
            reset_copy_stats()
            t0 = time.perf_counter()
            fn(app, nodes, params=params)
            walls.append(time.perf_counter() - t0)
        return min(walls)

    wall_off = best(lambda *a, **kw: plain_app(*a, **kw))
    wall_on = best(lambda *a, **kw: capture_app(*a, **kw))
    return {
        "app": app,
        "nodes": nodes,
        "repeats": repeats,
        "wall_seconds_off": wall_off,
        "wall_seconds_on": wall_on,
        "overhead": max(0.0, wall_on / wall_off - 1.0),
    }


def run_bench(
    apps: tuple[str, ...] = ("mriq", "sgemm", "tpacf", "cutcp"),
    node_counts: tuple[int, ...] = BENCH_NODES,
) -> dict:
    """The full wall-clock dataset (the ``BENCH_apps.json`` payload)."""
    results = [bench_app(app, nodes) for app in apps for nodes in node_counts]
    return {
        "benchmark": "bulk-execution-engine wall clock",
        "cores_per_node": CORES_PER_NODE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernel_path": kernel_path(),
        "results": results,
        "obs_overhead": measure_obs_overhead(),
    }


def write_json(payload: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def render(payload: dict) -> str:
    lines = [
        "Bulk engine wall clock (vectorized vs. scalar Triolet runner; "
        f"kernels: {payload.get('kernel_path', 'numpy')})",
        f"{'app':<8}{'nodes':>6}{'vec s':>10}{'scalar s':>10}"
        f"{'speedup':>9}{'numpy-k s':>11}  parity",
    ]
    for r in payload["results"]:
        parity = (
            "ok"
            if r["value_bit_identical"]
            and r["meter_equal"]
            and r["virtual_seconds_equal"]
            and r["bytes_shipped_equal"]
            and r["data_plane_equal"]
            and r["native_equal"]
            else "MISMATCH"
        )
        lines.append(
            f"{r['app']:<8}{r['nodes']:>6}"
            f"{r['wall_seconds_vectorized']:>10.3f}"
            f"{r['wall_seconds_scalar']:>10.3f}"
            f"{r['speedup']:>8.1f}x"
            f"{r['wall_seconds_numpy_kernels']:>11.3f}  {parity}"
        )
    obs = payload.get("obs_overhead")
    if obs is not None:
        lines.append(
            f"observability overhead ({obs['app']}@{obs['nodes']}): "
            f"{obs['overhead'] * 100:.2f}% "
            f"({obs['wall_seconds_off']:.3f}s off, "
            f"{obs['wall_seconds_on']:.3f}s on)"
        )
    return "\n".join(lines)
