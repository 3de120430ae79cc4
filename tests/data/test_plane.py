"""Unit tests for placement planning at section boundaries."""
import numpy as np
import pytest

import repro.triolet as tri
from repro.data import DataPlane, DistArray, chunk_requirements
from repro.data.handle import lookup_handle
from repro.partition import block_bounds
from repro.serial import serialize, deserialize


def _reqs_for(plane, handle, bounds):
    """Requirement dicts as the driver would build for a 1-D block split."""
    return [{handle.array_id: [lo, hi, False]} for lo, hi in bounds]


class TestPlanSection:
    def test_no_handles_means_no_plan(self):
        plane = DataPlane()
        ship = plane.plan_section([{}, {}, {}])
        # An unplanned shipment: no ops, no stats, no planner state moved.
        assert not ship.planned
        assert ship.ops == [[], [], []] and ship.stats == {}
        assert plane.totals["sections"] == 0 and plane.section_log == []

    def test_first_section_places_then_resident_hits(self):
        plane = DataPlane()
        arr = np.arange(120.0).reshape(40, 3)
        h = plane.register(arr)
        bounds = block_bounds(len(h), 4)
        reqs = _reqs_for(plane, h, bounds)

        first = plane.plan_section(reqs)
        # Rank 0 reads the master copy; ranks 1..3 get their shard shipped.
        assert first.stats["placements"] == 3
        assert first.stats["input_bytes"] == 30 * h.row_nbytes()
        assert first.ops[0] == []

        second = plane.plan_section(reqs)
        assert second.stats["input_bytes"] == 0
        assert second.stats["resident_hits"] == 3
        assert all(ops == [] for ops in second.ops)

    def test_worker_stores_serve_the_shipped_rows(self):
        plane = DataPlane()
        arr = np.arange(60.0).reshape(20, 3)
        h = plane.register(arr)
        bounds = block_bounds(len(h), 2)
        ship = plane.plan_section(_reqs_for(plane, h, bounds))
        store = plane.worker_store(1)
        store.apply(ship.ops[1])
        lo, hi = bounds[1]
        np.testing.assert_array_equal(store.view(h.array_id, lo, hi), arr[lo:hi])

    def test_partial_overlap_goes_through_cache(self):
        plane = DataPlane()
        arr = np.arange(100.0)
        h = plane.register(arr)
        bounds = block_bounds(len(h), 2)  # rank 1 resident: [50, 100)
        plane.plan_section(_reqs_for(plane, h, bounds))

        # A different work partition: rank 1 now needs [25, 75).
        ship = plane.plan_section([{}, {h.array_id: [25, 75, False]}])
        assert ship.stats["cache_misses"] == 1
        # Only the 25 rows not already resident travel.
        assert ship.stats["input_bytes"] == 25 * h.row_nbytes()
        assert plane._placement[(1, h.array_id)] == (50, 100)  # hull untouched

        again = plane.plan_section([{}, {h.array_id: [30, 70, False]}])
        assert again.stats["cache_hits"] == 1
        assert again.stats["input_bytes"] == 0

    def test_cache_eviction_ships_evict_ops(self):
        plane = DataPlane(cache_bytes=30 * 8)  # room for ~one 25-row slice
        arr = np.arange(100.0)
        h = plane.register(arr)
        plane.plan_section(_reqs_for(plane, h, block_bounds(len(h), 2)))
        plane.plan_section([{}, {h.array_id: [25, 75, False]}])
        ship = plane.plan_section([{}, {h.array_id: [0, 30, False]}])
        assert ship.stats["cache_evictions"] == 1
        assert any(op[0] == "evict" for op in ship.ops[1])

    def test_replicated_requirement_grows_hull_to_full(self):
        plane = DataPlane()
        arr = np.arange(40.0)
        h = plane.register(arr, layout="replicated")
        ship = plane.plan_section([{}, {h.array_id: [0, 10, True]},
                                   {h.array_id: [10, 20, True]}])
        assert plane._placement[(1, h.array_id)] == (0, 40)
        assert plane._placement[(2, h.array_id)] == (0, 40)
        assert ship.stats["input_bytes"] == 2 * arr.nbytes

    def test_migration_grows_hull_and_counts_bytes(self):
        plane = DataPlane()
        arr = np.arange(100.0)
        h = plane.register(arr)
        plane.plan_section(_reqs_for(plane, h, block_bounds(len(h), 2)))
        # Cost feedback moved the boundary: rank 1 now owns [40, 100).
        ship = plane.plan_section([{}, {h.array_id: [40, 100, False]}],
                                  migrated=True)
        assert plane._placement[(1, h.array_id)] == (40, 100)
        assert ship.stats["migrated_bytes"] == 10 * h.row_nbytes()
        again = plane.plan_section([{}, {h.array_id: [40, 100, False]}])
        assert again.stats["input_bytes"] == 0

    def test_invalidate_drops_everything(self):
        plane = DataPlane()
        arr = np.arange(100.0)
        h = plane.register(arr)
        plane.plan_section(_reqs_for(plane, h, block_bounds(len(h), 2)))
        plane.plan_section([{}, {h.array_id: [25, 75, False]}])
        assert plane.has_state()
        dropped = plane.invalidate()
        assert dropped["shards"] == 1 and dropped["cache_entries"] == 1
        assert not plane.has_state()
        # The next section re-places from the master copy.
        ship = plane.plan_section(_reqs_for(plane, h, block_bounds(len(h), 2)))
        assert ship.stats["placements"] == 1
        assert ship.stats["input_bytes"] > 0


class TestChunkRequirements:
    def test_iterator_chunks_report_their_interval(self):
        from repro.runtime.driver import TrioletRuntime

        arr = np.arange(30.0)
        h = DistArray(arr)
        it = tri.iterate(h)
        part = [TrioletRuntime._reslice(it, lo, hi)
                for lo, hi in block_bounds(30, 3)]
        reqs = [chunk_requirements(c) for c in part]
        assert reqs[0][h.array_id][:2] == [0, 10]
        assert reqs[2][h.array_id][:2] == [20, 30]
        assert not reqs[1][h.array_id][2]  # sliced use is not replicated

    def test_closure_env_handles_are_replicated_requirements(self):
        from repro.runtime.driver import TrioletRuntime
        from repro.serial.closures import closure

        arr = np.arange(10.0)
        h = DistArray(arr)
        fn = closure(np.dot, h)
        it = tri.map(fn, tri.iterate(np.arange(20.0)))
        chunk = TrioletRuntime._reslice(it, 0, 10)
        reqs = chunk_requirements(chunk)
        assert reqs[h.array_id] == [0, 10, True]


class TestHandleWire:
    def test_handle_serializes_as_fixed_width_id(self):
        a = DistArray(np.arange(4.0))
        b = DistArray(np.arange(4.0))
        wa, wb = serialize(a), serialize(b)
        assert len(wa) == len(wb)  # id growth never changes wire size
        assert deserialize(wa) is lookup_handle(a.array_id)

    def test_handle_source_roundtrip(self):
        h = DistArray(np.arange(50.0))
        src = h.__triolet_idx__().source.slice_outer(5, 15)
        out = deserialize(serialize(src))
        assert out == src
