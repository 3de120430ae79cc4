"""Runtime invariant checker hooked at driver section boundaries.

An :class:`InvariantChecker` registers as a section observer
(:func:`repro.runtime.driver.observing_sections`) and validates
conservation laws after every distributed section, while the runtime is
live:

* **Tiling** -- partition bounds tile the outer domain exactly: 1-D
  blocks are contiguous, non-overlapping and cover ``[0, extent)``; 2-D
  grids are the row-major cross product of row/column interval sets that
  each tile their axis.
* **Plane conservation** -- every chunk requirement is served by exactly
  one outcome, so ``requests == resident_hits + placements + migrations
  + cache_hits + cache_misses`` per section, and the slice cache's
  global hit/miss counters advance by exactly the section's planned
  hits/misses.
* **Reshipped monotonicity** -- ``recovery_report.reshipped_bytes``
  never decreases, and only grows in a section that actually re-executed
  chunks after a crash.
* **Placement liveness** -- after a crash re-partition, the placement
  map never references a rank outside the surviving set, and every
  resident hull stays inside its handle's bounds.
* **Halo conservation** -- ghost traffic has its own law: per section
  ``halo_requests == halo_hits + halo_refreshes``; stencil sections
  additionally bound ``halo_bytes`` by the interval-arithmetic ceiling
  ``2 * radius * ranks * row_nbytes``
  (:func:`~repro.partition.halo.halo_bytes_bound`), and every live ghost
  placement must cover an interval inside its handle's bounds with its
  bytes actually present in the rank's store.

Any violation raises :class:`InvariantViolation` (an ``AssertionError``
subclass, so it fails pytest naturally).  Usage from any test::

    from repro.testing.invariants import checking

    with checking() as ck, triolet_runtime(machine) as rt:
        ...
    assert ck.sections > 0
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.iterators.indexed import IndexedIter
from repro.partition import halo_bytes_bound
from repro.runtime import driver


class InvariantViolation(AssertionError):
    """A runtime conservation law failed at a section boundary."""


def _fail(msg: str, payload: dict) -> None:
    record = payload.get("record")
    where = f" [partition={record.partition!r}]" if record is not None else ""
    raise InvariantViolation(msg + where)


class InvariantChecker:
    """Stateful observer validating every distributed section it sees."""

    def __init__(self):
        self.sections = 0
        self.crash_sections = 0
        self._cache_seen: dict[int, dict] = {}
        self._reshipped_seen: dict[int, int] = {}

    # Observers are plain callables to the driver.
    def __call__(self, payload: dict) -> None:
        self.check_section(payload)

    def check_section(self, payload: dict) -> None:
        self.sections += 1
        if payload["attempts"] > 1:
            self.crash_sections += 1
        self._check_tiling(payload)
        self._check_indexed(payload)
        self._check_plane(payload)
        self._check_reshipped(payload)
        self._check_placement(payload)
        self._check_halo(payload)

    # -- tiling -------------------------------------------------------------

    def _check_tiling(self, payload: dict) -> None:
        bounds = payload["bounds"]
        it = payload["iterator"]
        if payload["partition"].startswith("2d"):
            dom = it.domain
            row_ivals = sorted({r for r, _c in bounds})
            col_ivals = sorted({c for _r, c in bounds})
            self._tile_axis(row_ivals, dom.h, "row", payload)
            self._tile_axis(col_ivals, dom.w, "col", payload)
            expect = [(r, c) for r in row_ivals for c in col_ivals]
            if list(bounds) != expect:
                _fail(
                    "2d partition is not the row-major cross product of "
                    "its row/col intervals",
                    payload,
                )
        else:
            self._tile_axis(list(bounds), it.domain.outer_extent, "outer", payload)
        if len(bounds) != payload["nchunks"]:
            _fail(
                f"{len(bounds)} partition bounds for {payload['nchunks']} chunks",
                payload,
            )

    def _tile_axis(self, ivals, extent: int, axis: str, payload: dict) -> None:
        prev = 0
        for lo, hi in ivals:
            if lo != prev or hi < lo:
                _fail(
                    f"{axis} intervals do not tile [0, {extent}): "
                    f"got {ivals}",
                    payload,
                )
            prev = hi
        if prev != extent:
            _fail(
                f"{axis} intervals cover [0, {prev}) but the domain "
                f"extent is {extent}",
                payload,
            )

    # -- indexed-stream assembly --------------------------------------------

    def _check_indexed(self, payload: dict) -> None:
        """Indexed partitions conserve ``(index, value)`` pairs.

        When the sectioned iterator is an :class:`IndexedIter`, re-slice
        it at the section's own partition bounds: every rank slice must
        hold exactly ``hi - lo`` pairs, and the concatenation of the
        slices' key sets must reproduce the unsliced key set -- strictly
        increasing, no pair lost, duplicated, or reordered.  (This is the
        law a non-monotone gather position array breaks.)
        """
        it = payload["iterator"]
        if not isinstance(it, IndexedIter):
            return
        if payload["partition"].startswith("2d"):
            return
        full = it.key_array()
        if len(full) > 1 and not bool(np.all(full[1:] > full[:-1])):
            _fail(
                "indexed stream's key set is not strictly increasing",
                payload,
            )
        pieces = []
        for lo, hi in payload["bounds"]:
            ks = type(it)(it.idx.slice(lo, hi)).key_array()
            if len(ks) != hi - lo:
                _fail(
                    f"indexed rank slice [{lo}, {hi}) assembles {len(ks)} "
                    f"(index, value) pairs, not {hi - lo}",
                    payload,
                )
            pieces.append(ks)
        assembled = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        if not np.array_equal(assembled, full):
            _fail(
                "indexed partition assembly does not conserve pairs: rank "
                f"slices assemble {assembled.tolist()} but the stream's "
                f"key set is {full.tolist()}",
                payload,
            )

    # -- data-plane conservation --------------------------------------------

    def _check_plane(self, payload: dict) -> None:
        ship = payload["ship"]
        record = payload["record"]
        plane = payload["runtime"].plane
        if not ship.planned:
            if record.data_plane is not None:
                _fail("section has plane stats but planned no shipment", payload)
            return
        s = record.data_plane
        for key, val in s.items():
            if val < 0:
                _fail(f"negative data-plane counter {key}={val}", payload)
        served = (
            s["resident_hits"]
            + s["placements"]
            + s["migrations"]
            + s["cache_hits"]
            + s["cache_misses"]
        )
        if s["requests"] != served:
            _fail(
                f"plane conservation broken: {s['requests']} chunk "
                f"requests but {served} served "
                f"(resident {s['resident_hits']} + placements "
                f"{s['placements']} + migrations {s['migrations']} + "
                f"cache {s['cache_hits']}h/{s['cache_misses']}m)",
                payload,
            )
        if s["placed_bytes"] > s["input_bytes"]:
            _fail(
                f"placed_bytes {s['placed_bytes']} exceeds input_bytes "
                f"{s['input_bytes']}",
                payload,
            )
        cs = plane.cache_stats()
        prev = self._cache_seen.get(id(plane))
        if prev is not None and payload["attempts"] == 1:
            # Exactly this section's planning advanced the cache counters
            # (re-attempt sections plan twice, so only the clean case is
            # exact).
            for key, skey in (("hits", "cache_hits"), ("misses", "cache_misses")):
                delta = cs[key] - prev[key]
                if delta != s[skey]:
                    _fail(
                        f"slice-cache {key} advanced by {delta} but the "
                        f"section planned {s[skey]}",
                        payload,
                    )
        self._cache_seen[id(plane)] = cs

    # -- halo conservation ----------------------------------------------------

    def _check_halo(self, payload: dict) -> None:
        record = payload["record"]
        s = record.data_plane
        if s is not None:
            served = s.get("halo_hits", 0) + s.get("halo_refreshes", 0)
            if s.get("halo_requests", 0) != served:
                _fail(
                    f"halo conservation broken: {s.get('halo_requests', 0)} "
                    f"ghost requests but {served} served "
                    f"({s.get('halo_hits', 0)} hits + "
                    f"{s.get('halo_refreshes', 0)} refreshes)",
                    payload,
                )
        halo = payload.get("halo")
        if halo is None:
            return
        # Stencil sections: the section's ghost traffic can never exceed
        # the interval-arithmetic ceiling (two clamped radius-row ghosts
        # per destination rank).
        bound = halo_bytes_bound(
            halo["radius"], payload["nchunks"], halo["row_nbytes"]
        )
        if s is not None and s.get("halo_bytes", 0) > bound:
            _fail(
                f"halo bytes {s['halo_bytes']} exceed the "
                f"2*radius*ranks*rowbytes ceiling {bound} "
                f"(radius {halo['radius']}, {payload['nchunks']} ranks)",
                payload,
            )
        # Ghost placement liveness: every ghost entry the planner tracks
        # must sit inside its handle's bounds, on a live rank, with its
        # bytes actually present in that rank's store (the section's ops
        # have been applied by the time observers run).
        plane = payload["runtime"].plane
        live = payload.get("survivors", payload["nchunks"])
        for rank, keys in plane.ghost_map().items():
            if rank < 1 or (payload["attempts"] > 1 and rank >= live):
                _fail(
                    f"ghost placements on rank {rank} outside the live "
                    f"set [1, {live})",
                    payload,
                )
            stored = plane.worker_store(rank).cached_keys()
            for key in keys:
                kaid, lo, hi = key
                handle = plane.handles.get(kaid)
                if handle is not None and not (0 <= lo <= hi <= len(handle)):
                    _fail(
                        f"ghost interval [{lo}, {hi}) escapes handle "
                        f"bounds [0, {len(handle)})",
                        payload,
                    )
                if key not in stored:
                    _fail(
                        f"ghost placement {key} on rank {rank} has no "
                        f"backing bytes in the rank store",
                        payload,
                    )

    # -- recovery accounting ------------------------------------------------

    def _check_reshipped(self, payload: dict) -> None:
        rt = payload["runtime"]
        cur = rt.recovery_report.reshipped_bytes
        last = self._reshipped_seen.get(id(rt), 0)
        if cur < last:
            _fail(
                f"reshipped_bytes decreased: {last} -> {cur}",
                payload,
            )
        if cur > last:
            rec = payload["record"].recovery
            if payload["attempts"] <= 1 or rec is None or rec.reexecuted_chunks <= 0:
                _fail(
                    "reshipped_bytes grew without a crash re-execution "
                    f"({last} -> {cur})",
                    payload,
                )
        self._reshipped_seen[id(rt)] = cur

    # -- placement liveness -------------------------------------------------

    def _check_placement(self, payload: dict) -> None:
        rt = payload["runtime"]
        plane = rt.plane
        placement = plane.placement_map()
        # After an elastic shrink, survivors keep shards planned by
        # *earlier* sections, so the live set is the surviving rank
        # count, not this section's (possibly extent-limited) chunk
        # count.  Transient crashes invalidate everything, so for them
        # the two bounds agree.
        live = payload.get("survivors", payload["nchunks"])
        for (rank, aid), (lo, hi) in placement.items():
            if rank < 1:
                _fail(f"placement references rank {rank} (< 1)", payload)
            if payload["attempts"] > 1 and rank >= live:
                _fail(
                    f"placement references rank {rank} but only ranks "
                    f"[0, {live}) survived the crash",
                    payload,
                )
            handle = plane.handles.get(aid)
            if handle is not None and not (0 <= lo <= hi <= len(handle)):
                _fail(
                    f"resident hull [{lo}, {hi}) escapes handle bounds "
                    f"[0, {len(handle)})",
                    payload,
                )


def check_plane(plane) -> None:
    """Standalone structural audit of a :class:`DataPlane` (callable from
    any test, no observer needed)."""
    for (rank, aid), (lo, hi) in plane.placement_map().items():
        if rank < 1:
            raise InvariantViolation(f"placement references rank {rank}")
        handle = plane.handles.get(aid)
        if handle is not None and not (0 <= lo <= hi <= len(handle)):
            raise InvariantViolation(
                f"hull [{lo}, {hi}) escapes handle [0, {len(handle)})"
            )
    cs = plane.cache_stats()
    for key, val in cs.items():
        if val < 0:
            raise InvariantViolation(f"negative cache stat {key}={val}")
    totals = plane.totals
    served = (
        totals["resident_hits"]
        + totals["placements"]
        + totals["migrations"]
        + totals["cache_hits"]
        + totals["cache_misses"]
    )
    if totals["requests"] != served:
        raise InvariantViolation(
            f"plane totals conservation broken: requests "
            f"{totals['requests']} != served {served}"
        )
    halo_served = totals.get("halo_hits", 0) + totals.get("halo_refreshes", 0)
    if totals.get("halo_requests", 0) != halo_served:
        raise InvariantViolation(
            f"halo totals conservation broken: halo_requests "
            f"{totals.get('halo_requests', 0)} != served {halo_served}"
        )
    for rank, keys in plane.ghost_map().items():
        stored = plane.worker_store(rank).cached_keys()
        for key in keys:
            kaid, lo, hi = key
            handle = plane.handles.get(kaid)
            if handle is not None and not (0 <= lo <= hi <= len(handle)):
                raise InvariantViolation(
                    f"ghost interval [{lo}, {hi}) escapes handle "
                    f"[0, {len(handle)})"
                )
            if key not in stored:
                raise InvariantViolation(
                    f"ghost placement {key} on rank {rank} has no backing "
                    f"bytes in the rank store"
                )


@contextmanager
def checking():
    """Install a fresh :class:`InvariantChecker` for the dynamic extent."""
    ck = InvariantChecker()
    with driver.observing_sections(ck):
        yield ck
