"""The Triolet runtime: two-level parallel execution of skeletons (§3.4-§3.5).

"Triolet uses a two-level work distribution policy that first distributes
large units of work to cluster nodes, then subdivides this work among
cores within a node."

Execution of one hinted consumer ("a parallel section"):

1. the outer domain is block-partitioned across nodes (a 2-D grid for
   Dim2 iterators whose source supports inner slicing -- the sgemm case);
2. the main rank slices the *iterator* per node; slicing the iterator
   slices its data sources, so serializing the chunk ships exactly the
   data subset (§3.5) -- over the *simulated* network, with real bytes;
3. each node splits its chunk into core tasks, really executes each task's
   fused loop under a cost meter, and models TBB-style work stealing to
   get the node's virtual makespan;
4. partials flow back through a tree reduction (reduce consumers) or a
   gather plus block assembly (build consumers);
5. the section's makespan advances the program's virtual clock.

These are the stages of one section engine -- plan, ship, run, recover
(between failed attempts), commit -- which stencil sweeps
(:mod:`repro.runtime.stencil`) run through as well.

Nested hints compose: a ``localpar`` loop encountered inside a node task
re-enters the same machinery with the cores available to that task,
giving the paper's "different inter-node and intra-node parallelization
strategies".

Numerical results are always real; only elapsed time is virtual.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.comm import Comm
from repro.cluster.faults import FaultPlan, RankFailure
from repro.cluster.limits import RuntimeLimits, UNLIMITED
from repro.cluster.machine import MachineSpec
from repro.cluster.metrics import RunMetrics
from repro.cluster.process import run_spmd
from repro.cluster.simclock import VirtualClock
from repro.cluster.transport import rank_extras, resolve_transport
from repro.core import meter
from repro.core.domains import Dim2
from repro.core.engine import execute as _engine
from repro.core.fusion import planner
from repro.core.iterators.executor import ConsumeSpec, use_executor
from repro.core.iterators.iter_type import (
    IdxFlat,
    IdxNest,
    Iter,
    ParHint,
)
from repro.data.plane import DataPlane, SectionShipment, chunk_requirements
from repro.obs.spans import active as _obs_active, obs_span as _obs_span
from repro.partition import block2d_bounds, block_bounds, grid_shape
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.costs import CostContext, use_costs
from repro.runtime.gc_model import BOEHM_GC, AllocatorModel
from repro.runtime.recovery import (
    DEFAULT_RECOVERY,
    BudgetExhausted,
    FailureBudget,
    PermanentFault,
    RecoveryPolicy,
    RecoveryReport,
    classify_failure,
)
from repro.runtime.worksteal import work_stealing_makespan
from repro.serial.sizeof import transitive_size

# ---------------------------------------------------------------------------
# Section observers: callbacks fired at every distributed section boundary
# with the section's full context (runtime, record, partition bounds,
# shipping plan).  This is how external invariant checkers -- notably
# ``repro.testing.invariants`` -- see inside the driver without the driver
# importing them.  Observers must not mutate the payload.

_SECTION_OBSERVERS: list = []


def add_section_observer(fn) -> None:
    """Register *fn* to be called with a payload dict after every
    distributed section.  Payload keys: ``runtime``, ``record``,
    ``iterator``, ``partition``, ``bounds``, ``nchunks``, ``ship``,
    ``spec``, ``attempts``, ``dead_ranks``, ``survivors``,
    ``rank_losses`` (stencil sweeps add ``halo``)."""
    _SECTION_OBSERVERS.append(fn)


def remove_section_observer(fn) -> None:
    try:
        _SECTION_OBSERVERS.remove(fn)
    except ValueError:
        pass


@contextmanager
def observing_sections(fn):
    """Scoped :func:`add_section_observer` (what test fixtures want)."""
    add_section_observer(fn)
    try:
        yield fn
    finally:
        remove_section_observer(fn)


def _notify_section(payload: dict) -> None:
    for fn in list(_SECTION_OBSERVERS):
        fn(payload)


@dataclass
class NodeContext:
    """Ambient state while a node task executes (nested-hint support).

    ``nested_work`` accumulates the *sequential* virtual seconds of nested
    parallel regions (``localpar`` loops inside this task).  TBB-style
    work stealing is composable: nested tasks go into the same per-node
    deques, so the scheduler model treats nested work as a stealable pool
    shared by all cores rather than confining it to this task's core.
    """

    cores: int  # cores of the node this task runs on (split granularity)
    nested_work: float = 0.0  # sequential seconds of nested regions


_node_ctx: contextvars.ContextVar[NodeContext | None] = contextvars.ContextVar(
    "repro_node_ctx", default=None
)

#: Where metered-region tallies merge.  ``None`` means the runtime's own
#: ``meter_total`` (the shared-heap default).  Process-isolated transports
#: install a rank-local meter here so forked workers tally into state that
#: travels back through :func:`repro.cluster.transport.rank_extras`
#: instead of into a doomed copy of the driver's global meter.
_meter_sink: contextvars.ContextVar[meter.CostMeter | None] = (
    contextvars.ContextVar("repro_meter_sink", default=None)
)


@dataclass
class SectionRecord:
    """One parallel section's ledger."""

    label: str
    kind: str  # "reduce" | "build" | "seq"
    hint: str
    nodes: int
    cores: int
    partition: str
    makespan: float
    bytes_shipped: int = 0
    messages: int = 0
    metrics: RunMetrics | None = None
    visits: int = 0
    gc_time: float = 0.0
    recovery: "RecoveryReport | None" = None  # fault/recovery accounting
    plan: str | None = None  # compiled bulk-execution plan, if vectorized
    data_plane: dict | None = None  # shipping stats when handles were used
    #: real elapsed seconds of the section's SPMD run; nonzero only on
    #: transports with wall-clock parallelism (sim stays byte-identical)
    wall_seconds: float = 0.0

    @property
    def vectorized(self) -> bool:
        return self.plan is not None

    def utilization(self) -> float:
        """Fraction of node-seconds spent computing (vs waiting/comm).

        Only meaningful for distributed sections carrying run metrics;
        the paper's saturation discussions are exactly about this number
        falling with scale.
        """
        if self.metrics is None or self.makespan <= 0 or self.nodes == 0:
            raise ValueError("utilization needs a distributed section's metrics")
        busy = sum(m.compute_time for m in self.metrics.per_rank)
        return busy / (self.nodes * self.makespan)


def _elements_of(partial: Any) -> int:
    """How many scalar elements a partial holds (for combine costing)."""
    if isinstance(partial, np.ndarray):
        return partial.size
    if isinstance(partial, (list, tuple)):
        return len(partial)
    return 1


class TrioletRuntime:
    """Executor implementing PAR/LOCAL hints on the simulated cluster."""

    def __init__(
        self,
        machine: MachineSpec,
        costs: CostContext | None = None,
        alloc: AllocatorModel = BOEHM_GC,
        limits: RuntimeLimits = UNLIMITED,
        task_grain: int = 4,
        topology: str = "two-level",
        scheduler: str = "worksteal",
        label: str = "",
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
        plane: DataPlane | None = None,
        budget: FailureBudget | None = None,
        checkpoint: CheckpointConfig | None = None,
        transport=None,
        planner_state=None,
        lost_ranks: int = 0,
    ):
        """``topology``: ``"two-level"`` (the paper's design: message
        passing across nodes, threads within) or ``"flat"`` (one rank per
        core, Eden-style -- the ablation of §1's third problem).
        ``scheduler``: ``"worksteal"`` (TBB-like) or ``"static"``
        (OpenMP-static-like) intra-node scheduling.
        ``faults``: optional deterministic fault schedule injected into
        every distributed section; ``recovery``: what the runtime does
        about fired faults (retry, re-execute, fragment, speculate) --
        consulted only when something actually fires, so the fault-free
        timeline is unchanged.  ``budget``: optional job-level
        :class:`~repro.runtime.recovery.FailureBudget` (deadline,
        job-wide re-executions, rank losses); ``checkpoint``: optional
        :class:`~repro.runtime.checkpoint.CheckpointConfig` persisting
        section outputs into a simulated durable store.

        Server-owned construction (:mod:`repro.service`): ``transport``
        reuses an already-resolved backend instead of resolving
        ``machine.transport`` again; ``planner_state`` is a
        :class:`~repro.core.fusion.planner.PlannerState` installed
        around everything this runtime executes, so attached jobs hit a
        resident server's warmed plan cache; ``lost_ranks`` seeds the
        permanent-loss count, so a job attaching after an earlier job's
        elastic shrink partitions over the survivors only."""
        if topology not in ("two-level", "flat"):
            raise ValueError(f"unknown topology: {topology!r}")
        if scheduler not in ("worksteal", "static"):
            raise ValueError(f"unknown scheduler: {scheduler!r}")
        self.machine = machine
        #: the backend executing this runtime's distributed sections
        #: (resolved once from ``machine.transport``, or shared from a
        #: resident server; see :mod:`repro.cluster.transport`)
        self.transport = (
            transport
            if transport is not None
            else resolve_transport(machine.transport)
        )
        #: server-owned plan cache, installed around everything this
        #: runtime executes (None: the process-global default cache)
        self.planner_state = planner_state
        self.costs = costs if costs is not None else CostContext()
        self.alloc = alloc
        self.limits = limits
        self.task_grain = task_grain
        self.topology = topology
        self.scheduler = scheduler
        self.label = label
        self.faults = faults
        self.recovery = recovery
        self.plane = plane if plane is not None else DataPlane()
        self.budget = budget
        self.checkpoint = checkpoint
        self.recovery_report = RecoveryReport(attempts=0)
        self.clock = VirtualClock()
        # Permanent losses persist across sections: the machine shrank,
        # every later section partitions over the survivors only.  A
        # server seeds this with losses absorbed by earlier jobs.
        self.lost_ranks = lost_ranks
        # Distributed-section sequence counter -- the checkpoint key.  It
        # counts program order, so a restarted (deterministic) job lines
        # its sections up with the stored blobs.
        self._dist_seq = 0
        self.sections: list[SectionRecord] = []
        obs = _obs_active()
        if obs is not None:
            # Spans opened without an explicit clock (application phases,
            # plan consults) read this runtime's virtual timeline.
            obs.use_clock(self.clock)
        # Union of every metered region this runtime executed (task loops,
        # sequential glue).  Nested regions shadow the installed meter, so
        # merging each region once counts every tally exactly once.
        self.meter_total = meter.CostMeter()

    def _planner_scope(self):
        """The plan-cache scope everything this runtime runs under:
        the server-owned state when one was injected, otherwise a no-op
        (the process-global default cache stays active)."""
        if self.planner_state is None:
            return nullcontext()
        return planner.use_state(self.planner_state)

    def _merge_meter(self, m: meter.CostMeter) -> None:
        """Fold one metered region into the runtime total -- or, inside a
        process-isolated rank, into that rank's local meter (carried back
        and merged for real at the section boundary)."""
        sink = _meter_sink.get()
        (self.meter_total if sink is None else sink).merge(m)

    def _merge_rank_extras(self, extras) -> None:
        """Merge rank-local driver state a non-shared-heap transport
        carried back: per-rank cost meters and plan-cache deltas."""
        for ext in extras or ():
            if not ext:
                continue
            m = ext.get("meter")
            if m is not None:
                self.meter_total.merge(m)
            pd = ext.get("planner")
            if pd is not None:
                planner.merge_stats(pd)

    # -- bookkeeping -----------------------------------------------------

    def _obs_section(self) -> None:
        """Fold the just-appended section record into the observability
        registry (no-op when no recorder is installed)."""
        obs = _obs_active()
        if obs is not None:
            obs.on_section(self.sections[-1])

    @property
    def elapsed(self) -> float:
        """Total virtual program time so far."""
        return self.clock.now

    @property
    def last_section(self) -> SectionRecord:
        if not self.sections:
            raise RuntimeError("no parallel section has run yet")
        return self.sections[-1]

    def total_gc_time(self) -> float:
        return sum(s.gc_time for s in self.sections)

    def total_bytes_shipped(self) -> int:
        return sum(s.bytes_shipped for s in self.sections)

    # -- the data plane ----------------------------------------------------

    def distribute(self, array, layout: str = "block"):
        """Place *array* on the data plane; returns a resident
        :class:`~repro.data.handle.DistArray` handle.

        Sections iterating (or closing) over the handle ship each rank
        its shard at most once; later compatible sections ship zero
        input bytes.  ``layout`` is ``"block"``, ``"block2d"`` or
        ``"replicated"``.
        """
        return self.plane.register(array, layout)

    def stencil(self, handle, radius: int, kernel, iterations: int = 1,
                label: str = "stencil"):
        """Run an iterative halo-exchange stencil over *handle*.

        Each iteration is one distributed section whose block interiors
        reuse the handle's resident placement (zero interior bytes from
        iteration 2 on) and whose ghost rows ship as first-class halo
        placements -- only the *dirty* ones after the first exchange.
        See :mod:`repro.runtime.stencil` for the kernel contract and
        recovery semantics.  Returns the handle; its master copy holds
        the final state.
        """
        from repro.runtime.stencil import run_stencil

        with self._planner_scope():
            return run_stencil(self, handle, radius, kernel,
                               iterations=iterations, label=label)

    def report(self) -> str:
        """Human-readable ledger of every section this runtime ran."""
        lines = [
            f"TrioletRuntime on {self.machine.nodes}x"
            f"{self.machine.cores_per_node} cores "
            f"({self.topology}, {self.scheduler}): "
            f"{len(self.sections)} sections, {self.elapsed:.6f} virtual s"
        ]
        for i, s in enumerate(self.sections):
            lines.append(
                f"  [{i}] {s.hint:<8} {s.kind:<6} {s.partition:<10} "
                f"makespan={s.makespan:.6f}s bytes={s.bytes_shipped:,} "
                f"msgs={s.messages} gc={s.gc_time:.6f}s"
            )
        return "\n".join(lines)

    # -- sequential glue ---------------------------------------------------

    def run_sequential(self, fn, *args, label: str = "seq", **kwargs) -> Any:
        """Run plain code at the main rank, charging its metered time."""
        with self._planner_scope(), _obs_span(
            "section", label, clock=self.clock
        ) as osp:
            with meter.metered() as m:
                out = fn(*args, **kwargs)
            self._merge_meter(m)
            dt = self.costs.task_seconds(m)
            self.clock.advance(dt)
            osp.set(kind="seq", visits=m.visits)
        self.sections.append(
            SectionRecord(
                label=label,
                kind="seq",
                hint="seq",
                nodes=1,
                cores=1,
                partition="none",
                makespan=dt,
                visits=m.visits,
            )
        )
        self._obs_section()
        return out

    def charge_visits(self, visits: float, label: str = "seq") -> None:
        """Charge main-rank compute for work done outside the meter."""
        with _obs_span("section", label, clock=self.clock) as osp:
            dt = self.costs.seconds_for_visits(visits)
            self.clock.advance(dt)
            osp.set(kind="seq", visits=int(visits))
        self.sections.append(
            SectionRecord(
                label=label,
                kind="seq",
                hint="seq",
                nodes=1,
                cores=1,
                partition="none",
                makespan=dt,
                visits=int(visits),
            )
        )
        self._obs_section()

    # -- the Executor interface ----------------------------------------------

    def execute(self, it: Iter, spec: ConsumeSpec) -> Any:
        with self._planner_scope():
            return self._execute(it, spec)

    def _execute(self, it: Iter, spec: ConsumeSpec) -> Any:
        nc = _node_ctx.get()
        if nc is not None:
            # Nested hint inside a node task: feed the node's work pool.
            result, seq_work = self._nested_execute(it, spec, nc.cores)
            nc.nested_work += seq_work
            return result
        if it.hint is ParHint.LOCAL:
            return self._toplevel_local(it, spec)
        if it.hint is ParHint.PAR:
            return self._distributed(it, spec)
        return spec.seq_fn(it)

    # -- partitioning helpers ---------------------------------------------

    @staticmethod
    def _partitionable(it: Iter) -> bool:
        return isinstance(it, (IdxFlat, IdxNest))

    @staticmethod
    def _reslice(it: Iter, lo: int, hi: int) -> Iter:
        """A hint-free sub-iterator over outer positions [lo, hi).

        Constructs ``type(it)`` rather than the base constructor so
        refined iterators (``IndexedIter``) keep their structural plan
        key: every rank's slice must *hit* the plan the driver warmed.
        """
        if isinstance(it, (IdxFlat, IdxNest)):
            return type(it)(it.idx.slice(lo, hi))
        raise TypeError(f"cannot slice {type(it).__name__}")

    @staticmethod
    def _reslice_block(it: Iter, rows, cols) -> Iter:
        if isinstance(it, (IdxFlat, IdxNest)):
            return type(it)(it.idx.slice_block(rows, cols))
        raise TypeError(f"cannot slice {type(it).__name__}")

    def _can_block_2d(self, it: Iter) -> bool:
        if not isinstance(it, (IdxFlat, IdxNest)):
            return False
        if not isinstance(it.domain, Dim2):
            return False
        src = it.idx.source
        try:
            src.slice_inner(0, it.domain.w)
        except TypeError:
            return False
        return True

    # -- node-level execution (threads model) --------------------------------

    def _split_for_cores(self, it: Iter, cores: int) -> list[Iter]:
        """Split a chunk into core tasks (work-stealing granularity)."""
        if not self._partitionable(it):
            return [it]
        extent = it.domain.outer_extent
        if extent <= 1:
            return [it]
        ntasks = min(extent, max(1, cores) * self.task_grain)
        return [
            self._reslice(it, lo, hi)
            for lo, hi in block_bounds(extent, ntasks)
            if hi > lo
        ]

    def _run_tasks(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[list[Any], list[float], list[float], float]:
        """Execute a chunk's tasks for real; return partials and timings.

        Returns ``(partials, serial_durations, nested_works, gc_time)``:
        ``serial_durations[i]`` is task *i*'s own (unstealable) compute
        time, ``nested_works[i]`` the sequential total of its nested
        parallel regions (stealable by any core), and ``gc_time`` the
        total allocator/GC time for the tasks' private results -- kept
        separate because collections are stop-the-world and do not
        parallelize across the node's cores (§4.3, §4.5).
        """
        subits = self._split_for_cores(it, cores)
        serial: list[float] = []
        nested: list[float] = []
        partials: list[Any] = []
        gc_time = 0.0
        # Reduce consumers keep one private accumulator per *thread*
        # ("sequentially builds one histogram per thread", §3.4); build
        # consumers materialize every block.  Charge allocations
        # accordingly, paper-scaled (§4.3/§4.5 GC overhead).
        alloc_cap = min(cores, len(subits)) if spec.kind == "reduce" else len(subits)
        for i, sub in enumerate(subits):
            nc = NodeContext(cores=cores)
            token = _node_ctx.set(nc)
            try:
                with meter.metered() as m:
                    partials.append(spec.seq_fn(sub))
            finally:
                _node_ctx.reset(token)
            self._merge_meter(m)
            if i < alloc_cap:
                gc_time += self.alloc(
                    int(_result_bytes(partials[-1]) * self.costs.wire_scale)
                )
            serial.append(self.costs.task_seconds(m))
            nested.append(nc.nested_work)
        return partials, serial, nested, gc_time

    def _combine_partials(self, spec: ConsumeSpec, partials: list[Any]) -> tuple[Any, float]:
        if spec.kind == "reduce":
            result = partials[0]
            combine_elems = 0
            for p in partials[1:]:
                result = spec.combine(result, p)
                combine_elems += _elements_of(p)
            return result, self.costs.combine_seconds(combine_elems)
        return _concat_build(partials), 0.0

    def _node_execute(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[Any, float]:
        """Run a chunk on one node: real tasks, modelled thread overlap.

        Node makespan model for composable work stealing: each task's
        serial part occupies one core; its nested parallel regions spill
        into the shared deques.  The makespan is bounded below by total
        work over cores and by the longest task's critical path, and above
        by greedy list scheduling of (serial + span) task durations.

        Returns ``(combined_result, node_makespan_seconds)``.
        """
        partials, serial, nested, gc_time = self._run_tasks(it, spec, cores)
        total_work = sum(serial) + sum(nested)
        durations = [s + w / cores for s, w in zip(serial, nested)]
        if self.scheduler == "static":
            from repro.runtime.worksteal import static_for_makespan

            listed = static_for_makespan(
                durations, cores, barrier_overhead=self.machine.thread_spawn_overhead
            )
            makespan = listed + gc_time
        else:
            listed = work_stealing_makespan(
                durations,
                cores,
                steal_overhead=self.machine.steal_overhead,
                spawn_overhead=self.machine.thread_spawn_overhead,
            )
            # GC is stop-the-world: allocator time serializes on the node.
            makespan = max(listed, total_work / cores) + gc_time
        result, combine_dt = self._combine_partials(spec, partials)
        return result, makespan + combine_dt, gc_time

    def _nested_execute(
        self, it: Iter, spec: ConsumeSpec, cores: int
    ) -> tuple[Any, float]:
        """A nested parallel region: real execution, sequential-time total.

        The parent folds the returned sequential seconds into the node's
        stealable work pool (see :class:`NodeContext`); granularity of the
        split still follows the node's core count.
        """
        if not self._partitionable(it):
            with meter.metered() as m:
                out = spec.seq_fn(it)
            self._merge_meter(m)
            return out, self.costs.task_seconds(m)
        partials, serial, nested, gc_time = self._run_tasks(it, spec, cores)
        result, combine_dt = self._combine_partials(spec, partials)
        return result, sum(serial) + sum(nested) + gc_time + combine_dt

    def _warm_plan(self, it: Iter) -> str | None:
        """Compile (or fetch) the bulk-execution plan before partitioning.

        Sliced chunks share the parent pipeline's structural key, so every
        rank's tasks -- and post-crash re-executions -- hit the fusion-plan
        cache instead of recompiling.
        """
        if not _engine.vectorization_enabled():
            return None
        with _obs_span("plan", "plan_for", clock=self.clock) as sp:
            p = planner.plan_for(it)
            sp.set(compiled=p is not None)
        return p.describe() if p is not None else None

    # -- top-level localpar ---------------------------------------------------

    def _toplevel_local(self, it: Iter, spec: ConsumeSpec) -> Any:
        """``localpar`` at top level: the main node's cores, no network."""
        if not self._partitionable(it):
            return self._sequential_fallback(it, spec, "localpar-unpartitionable")
        with _obs_span("section", "localpar", clock=self.clock) as osp:
            plan = self._warm_plan(it)
            result, makespan, gc_time = self._node_execute(
                it, spec, self.machine.cores_per_node
            )
            self.clock.advance(makespan)
            osp.set(kind=spec.kind, nodes=1,
                    cores=self.machine.cores_per_node)
        self.sections.append(
            SectionRecord(
                label="localpar",
                kind=spec.kind,
                hint="localpar",
                nodes=1,
                cores=self.machine.cores_per_node,
                partition=f"1d x{min(it.domain.outer_extent, self.machine.cores_per_node * self.task_grain)}",
                makespan=makespan,
                gc_time=gc_time,
                plan=plan,
            )
        )
        self._obs_section()
        return result

    def _sequential_fallback(self, it: Iter, spec: ConsumeSpec, label: str) -> Any:
        with _obs_span("section", label, clock=self.clock) as osp:
            with meter.metered() as m:
                out = spec.seq_fn(it)
            self._merge_meter(m)
            dt = self.costs.task_seconds(m)
            self.clock.advance(dt)
            osp.set(kind=spec.kind, visits=m.visits)
        self.sections.append(
            SectionRecord(
                label=label,
                kind=spec.kind,
                hint="seq",
                nodes=1,
                cores=1,
                partition="none",
                makespan=dt,
                visits=m.visits,
            )
        )
        self._obs_section()
        return out

    # -- distributed sections ---------------------------------------------

    def _partition(
        self, it: Iter, nranks_max: int, *, allow_2d: bool = True
    ) -> tuple[list[Iter], str, Any, bool]:
        """Slice *it* into per-rank chunks (2-D grid when the source
        supports inner slicing, 1-D blocks otherwise).

        ``allow_2d=False`` forces 1-D outer blocks even for grid-sliceable
        Dim2 iterators -- required for order-sensitive consumers, whose
        partials must merge in element order (a 2-D grid's row-major
        block order interleaves rows).

        The last element of the returned tuple flags cost-feedback
        repartitioning: for handle-backed 1-D sections the data plane's
        rebalancer may supply weighted bounds, migrating shard
        boundaries toward faster ranks.
        """
        if allow_2d and self._can_block_2d(it):
            dom: Dim2 = it.domain  # type: ignore[assignment]
            nchunks = min(nranks_max, max(1, dom.size))
            py, px = grid_shape(nchunks, dom.h, dom.w)
            blocks = block2d_bounds(dom.h, dom.w, py, px)
            chunks = [self._reslice_block(it, r, c) for r, c in blocks]
            return chunks, f"2d {py}x{px}", blocks, False
        extent = it.domain.outer_extent
        nchunks = min(nranks_max, max(1, extent))
        bounds = None
        if nchunks > 1 and chunk_requirements(it):
            bounds = self.plane.partition_bounds(extent, nchunks)
        rebalanced = bounds is not None
        if bounds is None:
            bounds = block_bounds(extent, nchunks)
        chunks = [self._reslice(it, lo, hi) for lo, hi in bounds]
        label = f"1d x{nchunks}" + (" rebal" if rebalanced else "")
        return chunks, label, bounds, rebalanced

    def _distributed(self, it: Iter, spec: ConsumeSpec) -> Any:
        """``par``: nodes via simulated MPI, cores via the threads model.

        Fault tolerance: when an injected rank crash kills an attempt,
        the section is re-partitioned across the surviving ranks and
        re-executed -- the sliceable sources re-extract exactly the
        slices the replacement ranks need (§3.5), so no checkpoint or
        data shuffle is required.  The failed attempt's virtual time and
        a backoff are charged to the section's makespan and reported.
        """
        if not self._partitionable(it):
            # Variable-length outer loops cannot be partitioned (§3.2's
            # whole point is to avoid producing them); run sequentially.
            return self._sequential_fallback(it, spec, "par-unpartitionable")
        with _obs_span("section", "par", clock=self.clock) as osp:
            att = self._open_section()
            ck = self.checkpoint
            hit = ck.store.fetch(ck.job, att.seq) if ck is not None else None
            if hit is not None:
                # Restart-from-last-checkpoint: this section's output is
                # already durable; restore it instead of executing.
                out = self._commit_restore(att, hit, spec.kind, osp)
            else:
                out = self._run_section(_ParSection(self, it, spec), att, osp)
        self._obs_section()
        return out

    # -- the section engine: plan -> ship -> run -> recover -> commit ------
    #
    # Every distributed section -- a ``par`` consumer (_ParSection) or one
    # stencil sweep (repro.runtime.stencil.StencilSweep) -- runs through
    # these stages.  A section supplies three things:
    #
    # * ``plan(att)`` -> ``(payloads, bounds, partition, shipment)``: the
    #   per-rank message bodies over ``att.survivors`` ranks and the data
    #   plane's shipment for them;
    # * ``body(att, comm, payload)``: the rank body, run with the rank's
    #   store bound; the root's return value is the section's result;
    # * ``commit(att, res)``: applies a successful attempt's output
    #   (lineage record, master writes, checkpoint) before the clock
    #   advances, returning extra span attributes.
    #
    # plus ``label``/``kind``/``bulk_plan`` for the record and
    # ``observed()`` for section observers.  Everything else exists once,
    # here: the launch, failure classification, budget charging, shrink
    # vs invalidate, rank-extras merging, worker-store mirroring, the
    # recovery report and section record, span attributes, observer
    # payloads and the deadline check.

    def _open_section(self) -> SectionAttempt:
        """Number the next distributed section and size it over the
        ranks still alive."""
        flat = self.topology == "flat"
        ranks = self.machine.nodes * (self.machine.cores_per_node if flat else 1)
        seq = self._dist_seq
        self._dist_seq += 1
        if self.faults is not None:
            # Section-gated faults (RankLoss(section=...)) key on program
            # order, not virtual time, because every section's clocks
            # restart at zero.
            self.faults.begin_section(seq)
        return SectionAttempt(
            seq=seq,
            nranks_max=max(1, ranks - self.lost_ranks),
            cores=1 if flat else self.machine.cores_per_node,
        )

    def _run_section(self, section, att: SectionAttempt, osp) -> Any:
        """Attempt *section* until it succeeds or recovery gives up, then
        commit it (*osp* is its enclosing section span)."""
        while True:
            self._plan(section, att)
            try:
                res = self._run(section, att, osp)
                break
            except BaseException as exc:
                self._recover(att, exc, osp)
        return self._commit(section, att, res, osp)

    def _plan(self, section, att: SectionAttempt) -> None:
        """Plan stage: partition over the survivors and plan shipping.
        After an elastic shrink ``att.absorb`` routes the survivors' grown
        requirements through the migration path (only missing rows
        ship)."""
        att.payloads, att.bounds, att.partition, att.ship = section.plan(att)
        if att.attempt > 0:
            # Bytes shipped again because a crash invalidated placement:
            # recovery traffic, not steady-state traffic.
            att.reexecuted += att.nchunks
            att.reshipped += att.ship.stats.get("input_bytes", 0)

    def _run(self, section, att: SectionAttempt, osp):
        """Ship and run stages: one SPMD launch whose ranks first receive
        their payloads and shipping ops (:meth:`SectionShipment.deliver`),
        then run the section's body against their own store."""
        ship, payloads, plane = att.ship, att.payloads, self.plane

        def rank_fn(comm: Comm):
            payload = ship.deliver(comm, payloads, plane)
            with plane.bound_store(comm.rank):
                return section.body(att, comm, payload)

        if not self.transport.shared_heap:
            rank_fn = _rank_local(rank_fn)
        obs = _obs_active()
        res = run_spmd(
            self.machine,
            rank_fn,
            nranks=att.nchunks,
            ranks_per_node=(
                self.machine.cores_per_node if self.topology == "flat" else 1
            ),
            limits=self.limits,
            alloc_cost=self.alloc,
            wire_scale=self.costs.wire_scale,
            faults=self.faults,
            recovery=self.recovery,
            trace=obs is not None,
            transport=self.transport,
        )
        if obs is not None and res.trace is not None:
            obs.absorb_events(res.trace.events, osp)
        return res

    def _recover(self, att: SectionAttempt, exc: BaseException, osp) -> None:
        """Recover stage: fold the failed attempt into *att*'s ledger and
        prepare the data plane for the next attempt -- or raise when the
        failure is not recoverable (no policy, not a rank failure, no
        survivor, the section's re-execution cap) or the job's
        :class:`FailureBudget` is exhausted, classifying it on
        ``recovery_report.failure``."""
        obs = _obs_active()
        infos = getattr(exc, "rank_failures", None)
        crash_trace = getattr(exc, "trace_log", None)
        if obs is not None and crash_trace is not None:
            # The failed attempt's messages and fault stamps stay visible
            # in the trace, tied to the same section.
            obs.absorb_events(crash_trace.events, osp)
        if not self.transport.shared_heap:
            # A crashed attempt's completed-task tallies are real work;
            # sim ranks merge as they run, so merge the partial extras the
            # transport saved on the exception.
            self._merge_rank_extras(getattr(exc, "rank_extras", None))
        rec = self.recovery
        rank_failed = infos is not None and all(
            isinstance(i.error, RankFailure) for i in infos
        )
        permanent = [
            i for i in (infos or ()) if getattr(i.error, "permanent", False)
        ]
        recoverable = (
            rec is not None
            and rank_failed
            and att.attempt < rec.max_reexecutions
            and att.nchunks - len(infos) >= 1
        )
        if recoverable and self.budget is not None:
            # Job-level budget: charged per recovery act, across sections.
            # Exhaustion beats further recovery.
            try:
                self.budget.charge_reexecution()
                if permanent:
                    self.budget.charge_rank_losses(len(permanent))
            except BudgetExhausted as bex:
                self.recovery_report.failure = "budget"
                raise bex from exc
        if not recoverable:
            self.recovery_report.failure = classify_failure(exc)
            if rank_failed and permanent:
                # An unabsorbable permanent loss is a structured job
                # failure, not a substrate error.
                raise PermanentFault(str(exc)) from exc
            raise exc
        # The crashed attempt ran until the failure; its survivors'
        # progress is discarded, its time is not.
        partial = getattr(exc, "recovery_report", None)
        if partial is not None:
            partial.attempts = 1
            if att.acc is None:
                att.acc = RecoveryReport(attempts=0)
            att.acc.merge(partial)
        if permanent:
            # The machine shrank for good: later sections partition over
            # the survivors only.
            self.lost_ranks += len(permanent)
            att.losses += len(permanent)
        if self.plane.has_state():
            if permanent and rec.lineage_recovery:
                # Elastic shrink: survivors keep their shards under
                # renumbered ranks; only the dead ranks' intervals are
                # marked for lineage replay and the next attempt re-ships
                # just those rows.
                self.plane.shrink([i.rank for i in infos])
                att.absorb = True
            else:
                # Transient crash (the rank heals): every resident shard
                # and cached slice is suspect (the re-partition also
                # renumbers ranks), so the data plane forgets all
                # placement.  The next attempt -- and later sections --
                # re-materialize from the master copy, and those bytes
                # are attributed to recovery.
                self.plane.invalidate()
        att.lost_time += max(i.vtime for i in infos) + rec.backoff(att.attempt)
        att.dead += len(infos)
        att.attempt += 1

    def _commit(self, section, att: SectionAttempt, res, osp) -> Any:
        """Commit stage: merge rank-local state, apply the section's
        output, advance the clock, and enter the section in the ledger."""
        ship = att.ship
        if not self.transport.shared_heap:
            # Section-boundary merge of rank-local state (sim ranks share
            # the heap and merged directly as they ran), then the shipping
            # ops mirrored into the driver-side rank stores: forked
            # workers applied them to fork-private copies, and the next
            # section's fork must inherit the resident shards for
            # zero-reship placement to hold.
            self._merge_rank_extras(res.extras)
            for dst, ops in enumerate(ship.ops):
                if ops:
                    self.plane.worker_store(dst).apply(ops)
        attrs = section.commit(att, res)
        makespan = att.lost_time + res.makespan + att.checkpoint_time
        # The section starts when the main rank reaches it.
        self.clock.advance(makespan)
        report = None
        if (
            res.recovery is not None
            or att.acc is not None
            or att.reshipped
            or att.checkpoint_bytes
        ):
            # Failed attempts' counters (crashes seen, time lost) belong
            # to the section alongside the successful attempt's.
            report = att.acc or RecoveryReport(attempts=0)
            if res.recovery is not None:
                report.merge(res.recovery)
            report.reexecuted_chunks = att.reexecuted
            report.added_time = att.lost_time
            report.reshipped_bytes = att.reshipped
            report.rank_losses = att.losses
            if att.checkpoint_bytes:
                report.checkpoints = 1
                report.checkpoint_bytes = att.checkpoint_bytes
                report.checkpoint_time = att.checkpoint_time
            report.lineage_replays = ship.stats.get("lineage_replays", 0)
            report.replayed_bytes = ship.stats.get("replayed_bytes", 0)
            if att.absorb:
                # The successful attempt's migrations are the survivors
                # absorbing the lost ranks' partitions.
                report.shrink_migrations = ship.stats.get("migrations", 0)
                report.shrink_migrated_bytes = ship.stats.get(
                    "migrated_bytes", 0
                )
        metrics = res.metrics
        record = SectionRecord(
            label=section.label,
            kind=section.kind,
            hint="par",
            nodes=att.nchunks,
            cores=att.nchunks * att.cores,
            partition=att.partition,
            makespan=makespan,
            bytes_shipped=metrics.bytes_sent,
            messages=metrics.messages_sent,
            metrics=metrics,
            gc_time=metrics.gc_time,
            recovery=report,
            plan=section.bulk_plan,
            data_plane=dict(ship.stats) if ship.planned else None,
            wall_seconds=(
                res.wall_seconds if self.transport.wall_clock else 0.0
            ),
        )
        self._ledger(
            record, osp,
            kind=section.kind,
            partition=att.partition,
            nodes=att.nchunks,
            attempts=att.attempt + 1,
            dead_ranks=att.dead,
            makespan=makespan,
            bytes_shipped=metrics.bytes_sent,
            **attrs,
        )
        if self.transport.wall_clock:
            # Real transports also report measured elapsed time; the
            # virtual makespan above stays the cross-backend invariant.
            osp.set(wall_seconds=res.wall_seconds, transport=res.transport)
        if att.losses:
            osp.set(rank_losses=att.losses)
        if att.checkpoint_bytes:
            osp.set(checkpoint_bytes=att.checkpoint_bytes)
        if _SECTION_OBSERVERS:
            _notify_section(
                {
                    "runtime": self,
                    "record": record,
                    "partition": att.partition,
                    "bounds": att.bounds,
                    "nchunks": att.nchunks,
                    "ship": ship,
                    "attempts": att.attempt + 1,
                    "dead_ranks": att.dead,
                    "survivors": att.survivors,
                    "rank_losses": att.losses,
                    **section.observed(),
                }
            )
        if self.budget is not None:
            # The deadline is program time: checked after the section's
            # ledger entry so a killed job still accounts consistently.
            try:
                self.budget.check_deadline(self.clock.now)
            except BudgetExhausted:
                self.recovery_report.failure = "budget"
                raise
        return res.root_result

    def _commit_restore(
        self, att: SectionAttempt, hit: tuple[Any, int], kind: str, osp
    ) -> Any:
        """Commit a section served from its durable checkpoint.

        The stored blob round-tripped through the real wire format, so
        the restored value is bit-identical to the computed one; only the
        durable read cost (ranks reading in parallel) reaches the clock.
        """
        value, nbytes = hit
        ck = self.checkpoint
        dt = ck.policy.read_seconds(nbytes, readers=att.nranks_max)
        obs = _obs_active()
        if obs is not None:
            obs.instant(
                "checkpoint", f"restore s{att.seq}",
                attrs={"bytes": nbytes, "seconds": dt, "job": ck.job,
                       "seq": att.seq},
            )
        self.clock.advance(dt)
        rep = RecoveryReport(
            attempts=0, restores=1, restored_bytes=nbytes, checkpoint_time=dt
        )
        record = SectionRecord(
            label="par-restore",
            kind=kind,
            hint="par",
            nodes=1,
            cores=1,
            partition="checkpoint",
            makespan=dt,
            recovery=rep,
        )
        self._ledger(record, osp, kind=kind, partition="checkpoint",
                     restored=True, makespan=dt)
        return value

    def _ledger(self, record: SectionRecord, osp, **attrs) -> None:
        """Enter a committed section: its recovery report into the
        job-wide one, its record into :attr:`sections`, *attrs* onto its
        span."""
        if record.recovery is not None:
            self.recovery_report.merge(record.recovery)
        self.sections.append(record)
        osp.set(**attrs)


@dataclass
class SectionAttempt:
    """One distributed section in flight, across its attempts.

    The plan stage fills the current attempt's payloads, bounds and
    shipment; the recover stage keeps the ledger of failed attempts; the
    commit stage turns ledger and successful run into the section's
    record.
    """

    seq: int  # program-order section number (the checkpoint key)
    nranks_max: int  # ranks alive when the section started
    cores: int  # cores per rank (1 under the flat topology)
    # -- the current attempt (plan stage)
    attempt: int = 0
    payloads: list = field(default_factory=list)  # per-rank message body
    bounds: Any = None  # 1-D blocks or 2-D grid blocks, one per rank
    partition: str = ""
    ship: SectionShipment | None = None
    # -- failed attempts (recover stage)
    dead: int = 0
    lost_time: float = 0.0
    reexecuted: int = 0
    reshipped: int = 0
    losses: int = 0  # permanent rank losses absorbed in this section
    absorb: bool = False  # shrink happened: survivors absorb via migration
    acc: RecoveryReport | None = None  # failed attempts' fault counters
    # -- durable output (commit stage)
    checkpoint_bytes: int = 0
    checkpoint_time: float = 0.0

    @property
    def nchunks(self) -> int:
        return len(self.payloads)

    @property
    def survivors(self) -> int:
        return self.nranks_max - self.dead


class _ParSection:
    """A ``par`` consumer as an engine section: one iterator chunk per
    rank, node execution under the threads model, then a tree reduction
    (reduce consumers) or a gather plus block assembly (builds)."""

    label = "par"

    def __init__(self, rt: TrioletRuntime, it: Iter, spec: ConsumeSpec):
        self.rt = rt
        self.it = it
        self.spec = spec
        self.kind = spec.kind
        self.bulk_plan = rt._warm_plan(it)
        # 2-D grid partitioning reorders partials (row-major blocks, not
        # element order): forbid it for order-sensitive reduces, and for
        # builds over nested iterators whose blocks are not rectangular.
        self.allow_2d = (
            isinstance(it, IdxFlat) if spec.kind == "build" else not spec.ordered
        )
        self.reqs: list[dict] = []

    def plan(self, att: SectionAttempt):
        rt = self.rt
        chunks, partition, bounds, rebalanced = rt._partition(
            self.it, att.survivors, allow_2d=self.allow_2d
        )
        # Section-boundary placement planning: what handle rows does each
        # rank's chunk (sources + closure environments) need, and which
        # of them are already resident or cached there?  Plain arrays
        # stay inline in the chunk.
        self.reqs = rt.plane.requirements(chunks)
        ship = rt.plane.plan_section(
            self.reqs, migrated=rebalanced or att.absorb,
            recovery=att.attempt > 0,
        )
        return chunks, bounds, partition, ship

    def body(self, att: SectionAttempt, comm: Comm, chunk: Iter):
        rt, spec = self.rt, self.spec
        with _obs_span(
            "kernel", "node_execute", rank=comm.rank, clock=comm.clock,
        ) as ksp:
            result, makespan, gc_time = rt._node_execute(chunk, spec, att.cores)
            comm.compute(makespan)
            ksp.set(makespan=makespan, gc_time=gc_time)
        comm.metrics.gc_time += gc_time  # already inside makespan
        comm.alloc(_result_bytes(result))
        if spec.kind == "reduce":
            charged = _charged_combine(comm, spec.combine, rt.costs)
            return comm.reduce(result, charged, root=0)
        gathered = comm.gather(result, root=0)
        if comm.rank != 0:
            return None
        return _assemble_build(gathered, att.bounds, att.partition)

    def commit(self, att: SectionAttempt, res) -> dict:
        rt = self.rt
        ck = rt.checkpoint
        if ck is not None:
            # Section checkpointing: persist the output into the simulated
            # durable store, charging the write to the section's makespan
            # (ranks write their shares in parallel; durability is not
            # free).
            nbytes = ck.store.maybe_put(ck.job, att.seq, res.root_result,
                                        ck.policy)
            if nbytes is not None:
                att.checkpoint_bytes = nbytes
                att.checkpoint_time = ck.policy.write_seconds(
                    nbytes, writers=att.nchunks
                )
                obs = _obs_active()
                if obs is not None:
                    obs.instant(
                        "checkpoint", f"write s{att.seq}",
                        attrs={"bytes": nbytes,
                               "seconds": att.checkpoint_time,
                               "job": ck.job, "seq": att.seq},
                    )
        # Section lineage: which handles fed this section (the replay
        # chain for shards lost to a later permanent rank loss).
        rt.plane.record_section(att.seq, self.bulk_plan, self.reqs)
        if att.ship.planned and not att.partition.startswith("2d"):
            # Cost feedback: per-rank virtual compute time for the blocks
            # just executed feeds the rebalancer.
            rt.plane.feedback(
                att.bounds, [m.compute_time for m in res.metrics.per_rank]
            )
        return {}

    def observed(self) -> dict:
        return {"iterator": self.it, "spec": self.spec}


def _rank_local(rank_fn):
    """Wrap *rank_fn* for a process-isolated rank: driver-global state
    mutated there dies with the worker.  The rank tallies into a
    rank-local meter and captures its plan-cache delta, published through
    :func:`rank_extras` -- installed at rank *start* so a crashed rank's
    partial tallies still travel back to the driver."""

    def isolated(comm: Comm):
        ext = rank_extras()
        local_meter = meter.CostMeter()
        if ext is not None:
            ext["meter"] = local_meter
        mtok = _meter_sink.set(local_meter)
        psnap = planner.stats_snapshot()
        try:
            return rank_fn(comm)
        finally:
            if ext is not None:
                ext["planner"] = planner.stats_delta(psnap)
            _meter_sink.reset(mtok)

    return isolated


def _charged_combine(comm: Comm, combine, costs: CostContext):
    """Wrap a combine so each tree-reduction hop pays its compute cost."""

    def charged(a, b):
        comm.compute(costs.combine_seconds(_elements_of(b)))
        return combine(a, b)

    return charged


def _result_bytes(result: Any) -> int:
    if isinstance(result, np.ndarray):
        return result.size * result.dtype.itemsize
    return transitive_size(result)


def _concat_build(partials: list[Any]) -> Any:
    """Concatenate consecutive outer-block build partials."""
    if len(partials) == 1:
        return partials[0]
    if all(isinstance(p, np.ndarray) for p in partials):
        # Nested (variable-length) blocks whose elements were all
        # filtered out materialize as 0-element 1-D arrays whatever the
        # element shape, so ragged ndims can appear next to (k, ...)
        # blocks and a plain concatenate raises.  Only then drop the
        # empty partials (value-preserving; all-empty matches the
        # sequential result).  Rectangular partials of equal ndim --
        # including legitimately empty (0, w) row blocks -- concatenate
        # unfiltered so degenerate domain extents survive.
        if len({p.ndim for p in partials}) > 1:
            partials = [p for p in partials if p.size] or partials[:1]
        if len(partials) == 1:
            return partials[0]
        return np.concatenate(partials, axis=0)
    out = []
    for p in partials:
        out.extend(p)
    return out


def _assemble_build(gathered: list[Any], block_meta, partition: str) -> Any:
    """Assemble per-node build partials at the root."""
    if partition.startswith("2d"):
        # gathered[k] is the (rows x cols[, elem...]) block for
        # block_meta[k], row-major over the process grid.  Concatenate
        # explicitly along the two *domain* axes -- np.block joins along
        # the trailing axes, which scrambles element values that are
        # themselves arrays (pair-valued builds).
        # A zero-size block has no elements to infer the element shape
        # from, so it arrives as a bare (rows x cols) array even when the
        # elements are themselves arrays; restore the trailing dims from
        # any non-empty block before concatenating.
        proto = next((g for g in gathered if g.size), None)
        if proto is not None and proto.ndim > 2:
            gathered = [
                g.reshape(g.shape[:2] + proto.shape[2:])
                if g.size == 0 and g.ndim < proto.ndim
                else g
                for g in gathered
            ]
        row_starts = sorted({r[0] for r, _c in block_meta})
        grid_rows: list[np.ndarray] = []
        for rs in row_starts:
            row_blocks = [
                g
                for g, (r, _c) in zip(gathered, block_meta)
                if r[0] == rs
            ]
            grid_rows.append(
                row_blocks[0]
                if len(row_blocks) == 1
                else np.concatenate(row_blocks, axis=1)
            )
        if len(grid_rows) == 1:
            return grid_rows[0]
        return np.concatenate(grid_rows, axis=0)
    return _concat_build(gathered)


@contextmanager
def triolet_runtime(
    machine: MachineSpec,
    costs: CostContext | None = None,
    alloc: AllocatorModel = BOEHM_GC,
    limits: RuntimeLimits = UNLIMITED,
    task_grain: int = 4,
    topology: str = "two-level",
    scheduler: str = "worksteal",
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = DEFAULT_RECOVERY,
    plane: DataPlane | None = None,
    budget: FailureBudget | None = None,
    checkpoint: CheckpointConfig | None = None,
    transport=None,
    planner_state=None,
):
    """Install a :class:`TrioletRuntime` as the skeleton executor."""
    rt = TrioletRuntime(
        machine,
        costs=costs,
        alloc=alloc,
        limits=limits,
        task_grain=task_grain,
        topology=topology,
        scheduler=scheduler,
        faults=faults,
        recovery=recovery,
        plane=plane,
        budget=budget,
        checkpoint=checkpoint,
        transport=transport,
        planner_state=planner_state,
    )
    with use_executor(rt), use_costs(rt.costs):
        yield rt
