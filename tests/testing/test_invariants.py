"""The invariant checker itself: it must accept real sections and reject
synthetically corrupted ones (a checker that can't fail checks nothing)."""
from types import SimpleNamespace

import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import MachineSpec
from repro.data.plane import DataPlane, SectionShipment
from repro.runtime import triolet_runtime
from repro.serial import register_function
from repro.testing.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_plane,
    checking,
)


@register_function
def _twice(x):
    return 2.0 * x


class TestAcceptsRealSections:
    def test_clean_runs_pass_and_count_sections(self):
        xs = np.arange(200.0)
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=4, cores_per_node=2)):
                tri.sum(tri.map(_twice, tri.par(xs)))
                tri.build(tri.map(_twice, tri.par(xs)))
        assert ck.sections == 2
        assert ck.crash_sections == 0

    def test_handle_sections_pass_plane_checks(self):
        xs = np.arange(300.0)
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=3, cores_per_node=1)) as rt:
                h = rt.distribute(xs)
                tri.sum(tri.par(h))
                tri.sum(tri.par(h))
        assert ck.sections == 2
        check_plane(rt.plane)


#: A shipment the plane planned (the section touched handles); the
#: checker reads the section's stats from its record.
_PLANNED = SectionShipment(ops=[[], []], stats={"requests": 0})


def _payload(**over):
    """A minimal well-formed 1-D section payload the checker accepts."""
    it = tri.par(tri.iterate(np.arange(10.0)))
    base = dict(
        runtime=SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        ),
        record=SimpleNamespace(
            partition="1d x2", data_plane=None, recovery=None
        ),
        iterator=it,
        partition="1d x2",
        bounds=[(0, 5), (5, 10)],
        nchunks=2,
        ship=SectionShipment(ops=[[], []]),
        spec=None,
        attempts=1,
        dead_ranks=0,
    )
    base.update(over)
    return base


class TestRejectsCorruptedSections:
    def test_well_formed_payload_passes(self):
        InvariantChecker()(_payload())

    def test_gap_in_tiling_rejected(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(_payload(bounds=[(0, 4), (5, 10)]))

    def test_overlap_in_tiling_rejected(self):
        with pytest.raises(InvariantViolation, match="do not tile"):
            InvariantChecker()(_payload(bounds=[(0, 6), (5, 10)]))

    def test_short_coverage_rejected(self):
        with pytest.raises(InvariantViolation, match="extent is 10"):
            InvariantChecker()(_payload(bounds=[(0, 5), (5, 9)]))

    def test_chunk_count_mismatch_rejected(self):
        with pytest.raises(InvariantViolation, match="partition bounds"):
            InvariantChecker()(_payload(nchunks=3))

    def test_broken_conservation_rejected(self):
        stats = dict(
            requests=3, resident_hits=1, placements=1, migrations=0,
            cache_hits=0, cache_misses=0, input_bytes=80, placed_bytes=80,
        )
        payload = _payload(
            ship=_PLANNED,
            record=SimpleNamespace(
                partition="1d x2", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="conservation broken"):
            InvariantChecker()(payload)

    def test_negative_counter_rejected(self):
        stats = dict(
            requests=1, resident_hits=1, placements=0, migrations=0,
            cache_hits=0, cache_misses=0, input_bytes=0, placed_bytes=-8,
        )
        payload = _payload(
            ship=_PLANNED,
            record=SimpleNamespace(
                partition="1d x2", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="negative"):
            InvariantChecker()(payload)

    def test_plane_stats_without_shipment_rejected(self):
        payload = _payload(
            record=SimpleNamespace(
                partition="1d x2", data_plane={"requests": 0}, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="planned no shipment"):
            InvariantChecker()(payload)

    def test_reshipped_growth_without_crash_rejected(self):
        ck = InvariantChecker()
        rt = SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        ck(_payload(runtime=rt))
        rt.recovery_report.reshipped_bytes = 4096  # grew, but attempts == 1
        with pytest.raises(InvariantViolation, match="without a crash"):
            ck(_payload(runtime=rt))

    def test_reshipped_decrease_rejected(self):
        ck = InvariantChecker()
        rt = SimpleNamespace(
            plane=DataPlane(),
            recovery_report=SimpleNamespace(reshipped_bytes=100),
        )
        ck(
            _payload(
                runtime=rt,
                attempts=2,
                record=SimpleNamespace(
                    partition="1d x2",
                    data_plane=None,
                    recovery=SimpleNamespace(reexecuted_chunks=2),
                ),
            )
        )
        rt.recovery_report.reshipped_bytes = 50
        with pytest.raises(InvariantViolation, match="decreased"):
            ck(_payload(runtime=rt))

    def test_placement_on_dead_rank_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._placement[(3, h.array_id)] = (0, 10)
        rt = SimpleNamespace(
            plane=plane,
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        # After a crash only chunk ranks [0, 2) survive; rank 3 is dead.
        payload = _payload(
            runtime=rt,
            attempts=2,
            record=SimpleNamespace(
                partition="1d x2",
                data_plane=None,
                recovery=SimpleNamespace(reexecuted_chunks=1),
            ),
        )
        with pytest.raises(InvariantViolation, match="survived the crash"):
            InvariantChecker()(payload)

    def test_hull_outside_handle_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._placement[(1, h.array_id)] = (0, 99)
        with pytest.raises(InvariantViolation, match="escapes handle"):
            check_plane(plane)


@pytest.mark.sparse
class TestIndexedAssembly:
    """The indexed-partition conservation law: rank slices of an
    ``IndexedIter`` must reassemble its ``(index, value)`` pairs exactly.
    Seeded violations -- duplicate keys, a non-monotone key gather, and a
    pair-dropping slice -- must each be rejected."""

    @staticmethod
    def _stream():
        from repro.core.iterators.indexed import indexed_pairs

        keys = np.arange(0, 20, 2, dtype=np.int64)
        vals = np.arange(10, dtype=np.float64)
        return indexed_pairs(keys, vals)

    def test_real_indexed_sections_pass(self):
        with checking() as ck:
            with triolet_runtime(MachineSpec(nodes=3, cores_per_node=2)):
                tri.build(tri.par(self._stream()))
        assert ck.sections == 1

    def test_duplicate_keys_rejected(self):
        from repro.core.encodings.indexer import array_indexer, zip_idx
        from repro.core.iterators.indexed import IndexedIter

        # Constructed behind indexed_pairs' back: the canonicalization
        # that would dedup [3, 3, 7] never ran.
        bad = IndexedIter(
            zip_idx(
                array_indexer(np.array([3, 3, 7], dtype=np.int64)),
                array_indexer(np.array([1.0, 2.0, 3.0])),
            )
        )
        payload = _payload(iterator=bad, bounds=[(0, 2), (2, 3)])
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            InvariantChecker()(payload)

    def test_nonmonotone_key_gather_rejected(self):
        from repro.core.encodings.indexer import (
            array_indexer,
            gather_idx,
            zip_idx,
        )
        from repro.core.iterators.indexed import IndexedIter

        # A gather with out-of-order positions reads keys [9, 3]: the
        # stream's own ordering contract is broken before any slicing.
        key = gather_idx(
            array_indexer(np.array([3, 9], dtype=np.int64)),
            np.array([1, 0], dtype=np.int64),
        )
        bad = IndexedIter(zip_idx(key, array_indexer(np.array([1.0, 2.0]))))
        payload = _payload(iterator=bad, bounds=[(0, 1), (1, 2)])
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            InvariantChecker()(payload)

    def test_pair_dropping_slice_rejected(self):
        from repro.core.encodings.indexer import Idx
        from repro.core.iterators.indexed import IndexedIter

        class _LossyIdx(Idx):
            """Drops the last pair of every slice window."""

            def slice(self, lo, hi):
                return super().slice(lo, max(lo, hi - 1))

        good = self._stream().idx
        bad = IndexedIter(_LossyIdx(good.domain, good.extract, good.source))
        payload = _payload(iterator=bad, bounds=[(0, 5), (5, 10)])
        with pytest.raises(InvariantViolation, match="pairs, not"):
            InvariantChecker()(payload)


def _halo_stats(**over):
    stats = dict(
        requests=0, resident_hits=0, placements=0, migrations=0,
        cache_hits=0, cache_misses=0, input_bytes=0, placed_bytes=0,
        halo_requests=0, halo_hits=0, halo_refreshes=0, halo_bytes=0,
    )
    stats.update(over)
    return stats


@pytest.mark.views
class TestRejectsCorruptedHalos:
    """Seeded violations of the halo rules -- each law must actually fire."""

    def test_stencil_sections_pass_the_checker(self):
        from repro.cluster import FaultPlan, RankLoss

        init = (np.arange(128.0) % 10).copy()
        plan = FaultPlan(faults=(RankLoss(rank=1, at=1e-6, section=2),))
        with checking() as ck:
            with triolet_runtime(
                MachineSpec(nodes=4, cores_per_node=2), faults=plan
            ) as rt:
                h = rt.distribute(init)
                rt.stencil(
                    h, radius=1,
                    kernel=lambda x: 0.5 * (x[:-2] + x[2:]),
                    iterations=4,
                )
        assert ck.sections == 4
        assert ck.crash_sections == 1
        check_plane(rt.plane)

    def test_halo_conservation_broken_rejected(self):
        stats = _halo_stats(halo_requests=2, halo_hits=1)
        payload = _payload(
            ship=_PLANNED,
            record=SimpleNamespace(
                partition="1d x2 halo r1", data_plane=stats, recovery=None
            ),
        )
        with pytest.raises(InvariantViolation, match="halo conservation"):
            InvariantChecker()(payload)

    def test_halo_bytes_over_ceiling_rejected(self):
        # bound = 2 * radius * nchunks * row_nbytes = 2*1*2*8 = 32 bytes.
        stats = _halo_stats(
            halo_requests=1, halo_refreshes=1, halo_bytes=1000
        )
        payload = _payload(
            ship=_PLANNED,
            record=SimpleNamespace(
                partition="1d x2 halo r1", data_plane=stats, recovery=None
            ),
            halo={"aid": 0, "radius": 1, "row_nbytes": 8},
        )
        with pytest.raises(InvariantViolation, match="ceiling"):
            InvariantChecker()(payload)

    def test_ghost_on_dead_rank_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(3)
        plane._caches[3].put(h.array_id, 4, 5, 8, ghost=True)
        rt = SimpleNamespace(
            plane=plane,
            recovery_report=SimpleNamespace(reshipped_bytes=0),
        )
        # Only chunk ranks [0, 2) survived this crash section.
        payload = _payload(
            runtime=rt,
            attempts=2,
            ship=_PLANNED,
            record=SimpleNamespace(
                partition="1d x2 halo r1",
                data_plane=_halo_stats(),
                recovery=SimpleNamespace(reexecuted_chunks=1),
            ),
            halo={"aid": h.array_id, "radius": 1, "row_nbytes": 8},
        )
        with pytest.raises(InvariantViolation, match="outside the live"):
            InvariantChecker()(payload)

    def test_ghost_without_backing_bytes_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(1)
        plane._caches[1].put(h.array_id, 0, 2, 16, ghost=True)
        with pytest.raises(InvariantViolation, match="no backing bytes"):
            check_plane(plane)

    def test_ghost_escaping_handle_rejected(self):
        plane = DataPlane()
        h = plane.register(np.arange(10.0))
        plane._ensure_rank(1)
        plane._caches[1].put(h.array_id, 8, 99, 728, ghost=True)
        with pytest.raises(InvariantViolation, match="escapes handle"):
            check_plane(plane)

    def test_halo_totals_conservation_rejected(self):
        plane = DataPlane()
        plane.totals["halo_requests"] = 3
        plane.totals["halo_hits"] = 1
        with pytest.raises(InvariantViolation, match="halo totals"):
            check_plane(plane)
