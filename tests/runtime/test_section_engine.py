"""The section engine: ``par`` sections and stencil sweeps share one
plan -> ship -> run -> recover -> commit path.

The first half drives the recover and commit stages directly with
injected failures, once per section kind, through the same functions.
The second half is end to end: a job's :class:`FailureBudget` (the
re-execution cap, the rank-loss cap, the deadline) stops a stencil
sweep exactly as it stops a ``par`` section.
"""
import numpy as np
import pytest

import repro.triolet as tri
from repro.cluster import (
    FaultPlan,
    MachineSpec,
    RankCrash,
    RankFailure,
    RankLoss,
    TransientSendError,
)
from repro.cluster.faults import RankFailureInfo
from repro.runtime import (
    BudgetExhausted,
    CheckpointConfig,
    CheckpointStore,
    FailureBudget,
    observing_sections,
    triolet_runtime,
)
from repro.runtime.driver import _ParSection
from repro.runtime.stencil import StencilSweep

pytestmark = pytest.mark.recovery

MACHINE = MachineSpec(nodes=4, cores_per_node=2)
XS = np.arange(400.0)


def _relax(xpad):
    return 0.5 * (xpad[:-2] + xpad[2:])


class _Span:
    """Records the attributes a stage sets on its section span."""

    def __init__(self):
        self.attrs = {}

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self


def _placed(kind: str, rt):
    """Run one section of *kind* so the data plane holds placement, and
    return an engine section that would run it again."""
    h = rt.distribute(XS.copy())
    if kind == "stencil":
        rt.stencil(h, radius=1, kernel=_relax, iterations=1)
        return StencilSweep(rt, h, 1, _relax, "stencil")
    seen = []
    with observing_sections(seen.append):
        tri.sum(tri.par(h))
    return _ParSection(rt, seen[-1]["iterator"], seen[-1]["spec"])


def _planned(rt, section):
    """Open a section and run its plan stage (the attempt that fails)."""
    att = rt._open_section()
    rt._plan(section, att)
    assert att.nchunks == MACHINE.nodes
    return att


def _rank_failure(rank: int, permanent: bool = False, vtime: float = 1e-6):
    """A rank failure annotated the way ``run_spmd`` raises it."""
    err = RankFailure(rank, 0.0, vtime, permanent=permanent)
    err.rank_failures = [RankFailureInfo(rank=rank, vtime=vtime, error=err)]
    return err


@pytest.mark.parametrize("kind", ["par", "stencil"])
class TestRecoverStage:
    def test_transient_crash_invalidates_and_charges_the_budget(self, kind):
        budget = FailureBudget()
        with triolet_runtime(MACHINE, budget=budget) as rt:
            section = _placed(kind, rt)
            att = _planned(rt, section)
            assert rt.plane.placement_map()
            rt._recover(att, _rank_failure(2), _Span())
        assert rt.plane.placement_map() == {}
        assert rt.plane.invalidations == 1 and rt.plane.shrinks == 0
        assert budget.reexecutions_used == 1 and budget.rank_losses_used == 0
        assert (att.attempt, att.dead, att.losses, att.absorb) == (1, 1, 0, False)
        assert att.lost_time == 1e-6 + rt.recovery.backoff(0)
        assert rt.lost_ranks == 0

    def test_permanent_loss_shrinks_and_the_next_plan_replays_lineage(
        self, kind
    ):
        budget = FailureBudget()
        with triolet_runtime(MACHINE, budget=budget) as rt:
            section = _placed(kind, rt)
            att = _planned(rt, section)
            rt._recover(att, _rank_failure(2, permanent=True), _Span())
            assert rt.plane.shrinks == 1 and rt.plane.invalidations == 0
            assert att.absorb and att.losses == 1 and rt.lost_ranks == 1
            assert budget.reexecutions_used == 1
            assert budget.rank_losses_used == 1
            rt._plan(section, att)
        stats = att.ship.stats
        assert att.nchunks == MACHINE.nodes - 1
        assert att.reexecuted == att.nchunks
        assert stats["lineage_replays"] >= 1 and stats["replayed_bytes"] > 0
        assert att.reshipped == stats["input_bytes"] > 0

    def test_non_rank_error_reraises_classified(self, kind):
        with triolet_runtime(MACHINE) as rt:
            section = _placed(kind, rt)
            att = _planned(rt, section)
            exc = TransientSendError(1, 0, 7, 3)
            with pytest.raises(TransientSendError) as info:
                rt._recover(att, exc, _Span())
        assert info.value is exc
        assert rt.recovery_report.failure == "transient"
        assert att.attempt == 0 and rt.plane.invalidations == 0

    def test_exhausted_budget_raises(self, kind):
        budget = FailureBudget(max_reexecutions=0)
        with triolet_runtime(MACHINE, budget=budget) as rt:
            section = _placed(kind, rt)
            att = _planned(rt, section)
            exc = _rank_failure(1)
            with pytest.raises(BudgetExhausted) as info:
                rt._recover(att, exc, _Span())
        assert info.value.__cause__ is exc
        assert rt.recovery_report.failure == "budget"
        assert att.attempt == 0 and rt.plane.invalidations == 0


def test_commit_on_a_checkpoint_restore_records_par_restore():
    store = CheckpointStore()
    ck = CheckpointConfig(store=store, job="j")
    with triolet_runtime(MACHINE, checkpoint=ck):
        value = tri.sum(tri.par(XS))
    hit = store.fetch("j", 0)
    assert hit is not None

    # The stage alone ...
    with triolet_runtime(MACHINE, checkpoint=ck) as rt:
        span = _Span()
        out = rt._commit_restore(rt._open_section(), hit, "reduce", span)
    dt = ck.policy.read_seconds(hit[1], readers=MACHINE.nodes)
    rec = rt.sections[-1]
    assert out == value
    assert (rec.label, rec.kind, rec.hint, rec.nodes, rec.cores,
            rec.partition, rec.makespan) == (
        "par-restore", "reduce", "par", 1, 1, "checkpoint", dt)
    assert rec.bytes_shipped == 0 and rec.data_plane is None
    assert (rec.recovery.restores, rec.recovery.restored_bytes,
            rec.recovery.checkpoint_time) == (1, hit[1], dt)
    assert rt.recovery_report.restores == 1 and rt.elapsed == dt
    assert span.attrs == {"kind": "reduce", "partition": "checkpoint",
                          "restored": True, "makespan": dt}

    # ... matches what a restarted job's section commits end to end.
    with triolet_runtime(MACHINE, checkpoint=ck) as again:
        assert tri.sum(tri.par(XS)) == value
    assert again.sections == rt.sections
    assert again.elapsed == rt.elapsed


# -- job-level budgets, end to end --------------------------------------------


def _par_job(rt):
    tri.sum(tri.par(XS))


def _stencil_job(rt):
    h = rt.distribute(XS.copy())
    rt.stencil(h, radius=1, kernel=_relax, iterations=3)


JOBS = {"par": _par_job, "stencil": _stencil_job}


@pytest.mark.parametrize("kind", ["par", "stencil"])
class TestJobBudget:
    def test_reexecution_cap(self, kind):
        budget = FailureBudget(max_reexecutions=0)
        plan = FaultPlan(faults=(RankCrash(rank=1, at=0.0),))
        with triolet_runtime(MACHINE, faults=plan, budget=budget) as rt:
            with pytest.raises(BudgetExhausted):
                JOBS[kind](rt)
        assert rt.recovery_report.failure == "budget"
        assert budget.reexecutions_used == 1
        assert rt.sections == []

    def test_rank_loss_cap(self, kind):
        budget = FailureBudget(max_rank_losses=0)
        plan = FaultPlan(faults=(RankLoss(rank=1, at=0.0),))
        with triolet_runtime(MACHINE, faults=plan, budget=budget) as rt:
            with pytest.raises(BudgetExhausted):
                JOBS[kind](rt)
        assert rt.recovery_report.failure == "budget"
        assert budget.rank_losses_used == 1
        assert rt.lost_ranks == 0 and rt.sections == []

    def test_deadline(self, kind):
        budget = FailureBudget(deadline=1e-12)
        with triolet_runtime(MACHINE, budget=budget) as rt:
            with pytest.raises(BudgetExhausted):
                JOBS[kind](rt)
        assert rt.recovery_report.failure == "budget"
        # The killed section is still in the ledger; nothing after it ran.
        assert len(rt.sections) == 1
