"""The ``stencil`` skeleton: iterative halo-exchange over a resident array.

A radius-``r`` stencil updates row ``i`` from rows ``[i-r, i+r]``.  Run
distributed, each rank owns one block of rows (the same block partition
as any other section, so the array's resident placement is reused), and
needs ``r`` *ghost* rows beyond each block edge per iteration -- the halo.
The data plane places halos as ghost-flagged slice-cache entries
(:meth:`~repro.data.plane.DataPlane.plan_stencil`), so:

* iteration 1 ships each rank its block (ordinary placement) plus its
  ghost rows;
* iteration ``k >= 2`` ships **zero interior bytes** (resident hits) and
  only the *dirty* halos -- ghost intervals whose rows were overwritten
  by the previous iteration.  Ghosts covering never-written boundary
  rows stay fresh indefinitely and keep serving halo hits;
* a transient ``RankCrash`` invalidates placement; a permanent
  ``RankLoss`` shrinks the plane, and the retry re-materializes interiors
  through the same lineage-replay path as every other section.  The
  master copy only ever holds *completed* iterations (updates commit
  after a successful attempt), so any retry re-reads exactly the state
  the failed attempt read -- recovery is bit-identical by construction.

Boundary semantics are Dirichlet: rows within ``radius`` of either array
edge are held fixed, so every padded read window sits inside the array.

The kernel contract is vectorized-NumPy: ``kernel(xpad)`` receives the
rank's padded row window (its writable rows plus ``radius`` rows of
context on each side) and returns the updated writable rows, i.e. an
array of ``len(xpad) - 2 * radius`` rows.  For 1-D heat::

    rt.stencil(h, radius=1, kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
               iterations=50)

Each sweep is a section of the driver's engine
(:class:`StencilSweep` supplies only its plan, rank body and commit), so
launch, failure handling, elastic shrink and the job's
:class:`~repro.runtime.recovery.FailureBudget` -- re-execution cap,
rank-loss cap and deadline -- behave exactly as for a ``par`` section.
Section checkpointing is not wired into stencil sweeps: the checkpoint
store keys ``par`` outputs, and a sweep's output is the in-place update
of its handle.
"""
from __future__ import annotations

import numpy as np

from repro.core import meter
from repro.core.iterators.transforms import iterate
from repro.obs.spans import obs_span as _obs_span
from repro.partition import block_bounds


def run_stencil(rt, handle, radius: int, kernel, iterations: int = 1,
                label: str = "stencil"):
    """Execute *iterations* stencil sweeps over *handle* on runtime *rt*.

    *handle* may be a plain ndarray (distributed on first use) or an
    existing :class:`~repro.data.handle.DistArray`.  Returns the handle;
    its master copy holds the final state.
    """
    if radius < 1:
        raise ValueError(f"stencil radius must be >= 1, got {radius}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    handle = rt.plane.register(handle)
    sweep = StencilSweep(rt, handle, radius, kernel, label)
    for _ in range(iterations):
        with _obs_span("section", label, clock=rt.clock) as osp:
            rt._run_section(sweep, rt._open_section(), osp)
        rt._obs_section()
    return handle


class StencilSweep:
    """One stencil sweep as a section of the driver's engine.

    It supplies the sweep's plan (block bounds over the survivors, ghost
    and interior shipping by :meth:`~repro.data.plane.DataPlane.
    plan_stencil`), its rank body (the padded-window kernel, gathered at
    the root) and its commit (the master write plus lineage record); the
    engine runs everything else exactly as for a ``par`` section.
    """

    kind = "stencil"
    bulk_plan = None

    def __init__(self, rt, handle, radius: int, kernel, label: str):
        self.rt = rt
        self.handle = handle
        self.radius = radius
        self.kernel = kernel
        self.label = label

    def plan(self, att):
        n = len(self.handle)
        nchunks = max(1, min(att.survivors, n))
        bounds = block_bounds(n, nchunks)
        ship = self.rt.plane.plan_stencil(
            self.handle.array_id, bounds, self.radius,
            migrated=att.absorb, recovery=att.attempt > 0,
        )
        return bounds, bounds, f"1d x{nchunks} halo r{self.radius}", ship

    def body(self, att, comm, block):
        """Rank 0 reads the master copy (which holds the previous
        iteration); other ranks assemble their padded window from
        resident block rows plus ghost cache entries.  Every rank returns
        its ``(wlo, whi, rows)`` update, gathered at the root."""
        handle, radius, aid = self.handle, self.radius, self.handle.array_id
        n = len(handle)
        blo, bhi = block
        # Dirichlet boundaries: rows within ``radius`` of either array
        # edge are fixed, so the writable range clamps to them and the
        # padded read window always sits inside [0, n).
        wlo, whi = max(blo, radius), min(bhi, n - radius)
        with _obs_span(
            "kernel", "stencil_kernel", rank=comm.rank, clock=comm.clock
        ) as ksp:
            if whi > wlo:
                rlo, rhi = wlo - radius, whi + radius
                if comm.rank == 0:
                    xpad = handle.array[rlo:rhi]
                else:
                    store = self.rt.plane.worker_store(comm.rank)
                    parts = []
                    if rlo < blo:
                        parts.append(store.view(aid, rlo, blo))
                    parts.append(store.view(aid, max(rlo, blo),
                                            min(rhi, bhi)))
                    if rhi > bhi:
                        parts.append(store.view(aid, bhi, rhi))
                    xpad = (
                        parts[0]
                        if len(parts) == 1
                        else np.concatenate(parts, axis=0)
                    )
                with meter.metered() as m:
                    meter.tally_visits(whi - wlo)
                    rows = np.asarray(self.kernel(xpad))
                if len(rows) != whi - wlo:
                    raise ValueError(
                        f"stencil kernel returned {len(rows)} rows for a "
                        f"{whi - wlo}-row writable window (input was "
                        f"{rhi - rlo} padded rows, radius {radius})"
                    )
                self.rt._merge_meter(m)
                dt = self.rt.costs.task_seconds(m)
            else:
                rows = np.empty((0,) + handle.array.shape[1:],
                                dtype=handle.array.dtype)
                dt = 0.0
            comm.compute(dt)
            ksp.set(makespan=dt, rows=int(whi - wlo))
        comm.alloc(rows.nbytes)
        gathered = comm.gather((wlo, whi, rows), root=0)
        return gathered if comm.rank == 0 else None

    def commit(self, att, res) -> dict:
        """Commit the completed sweep: master write, rank-store interior
        mirror (zero wire cost -- each rank computed its own rows), hull
        reset, dirty-ghost invalidation, and the lineage record."""
        aid = self.handle.array_id
        plane = self.rt.plane
        plane.commit_stencil(aid, att.bounds, res.root_result)
        plane.record_section(
            att.seq, None, [{aid: [lo, hi, False]} for lo, hi in att.bounds]
        )
        return {"radius": self.radius,
                "halo_bytes": att.ship.stats["halo_bytes"]}

    def observed(self) -> dict:
        return {
            "iterator": iterate(self.handle),
            "spec": None,
            "halo": {
                "aid": self.handle.array_id,
                "radius": self.radius,
                "row_nbytes": self.handle.row_nbytes(),
            },
        }
