"""The four workloads: seeded inputs, references, cold starts and waves.

Every workload runs closed loop from one client on 2 simulated ranks of
one core each.  A *wave* is the workload's fixed job list, submitted
together and awaited together; the benchmark times whole waves only, so
every run of a workload and seed executes exactly the same jobs.

Constructing a workload generates its inputs from the seed and computes
its references (untimed).  ``cold_start`` builds the resident state from
nothing and runs the first job of each kind -- what ``setup_s`` times.
``wave`` runs one wave on the state the last cold start left.
"""
from __future__ import annotations

import numpy as np

from repro.apps import cutcp, jacobi, spmv
from repro.apps.cutcp.sweeps import run_sweeps
from repro.apps.spmv.triolet import dense_matvec, sparse_matvec
from repro.bench.calibrate import costs_for
from repro.bench.harness import APPS
from repro.bench.sparse import SPMV_NROWS, SPMV_ROW_NNZ
from repro.bench.wallclock import BENCH_PARAMS
from repro.cluster.faults import FaultPlan, RankCrash, RankLoss
from repro.cluster.machine import PAPER_MACHINE
from repro.core.fusion import planner
from repro.runtime.costs import CostContext
from repro.service import (
    JobServer,
    cutcp_job,
    mriq_job,
    register_mriq_dataset,
    run_solo,
    sgemm_job,
    tpacf_job,
)

from measure import JobResult, close, same_bits

#: 2 sim ranks x 1 core: wall time stays meaningful on a 2-CPU host
MACHINE = PAPER_MACHINE.scaled(nodes=2, cores_per_node=1)

PAPER_APPS = ("mriq", "sgemm", "tpacf", "cutcp")
SOLO_KINDS = PAPER_APPS + ("spmv",)
PAPER_JOBS = {"mriq": mriq_job, "sgemm": sgemm_job, "tpacf": tpacf_job,
              "cutcp": cutcp_job}
TENANTS = (("alpha", 1.0), ("beta", 2.0))

#: stencil-sweeps sizes: 160 + 80 stencil sections and 9 slab sections
ROD = dict(n=4096, iterations=160)
PLATE = dict(n=512, width=64, iterations=80)
SWEEPS = dict(na=600, grid=(16, 16, 16), cutoff=3.0)

#: recovery-drill: the fault each kind runs under, and the distributed
#: section (program order) it is gated to
FAULTS = {
    "mriq": ("crash", 0),
    "sgemm": ("loss", 0),
    "tpacf": ("loss", 1),
    "cutcp": ("crash", 0),
    "spmv": ("crash", 0),
}
#: virtual time of each fault: 0 fires it at the rank's first fault
#: check of its section, before it has received its chunk.  A later fault
#: fires after the rank's compute, while the root may already be blocked
#: on it; the root then notices only at its next 50 ms channel poll, a
#: wait whose length depends on the thread timing of the seed's inputs.
FAULT_AT = 0.0


def seeds(seed: int, n: int) -> list[int]:
    """*n* independent problem seeds drawn from the benchmark seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(n) % (2 ** 31)]


def spmv_job(p):
    """spMV as a job body: the phases of ``repro.apps.spmv.run_triolet``
    against the attached runtime."""

    def job(ctx):
        rt = ctx.rt
        rows = rt.distribute(p.row_ids)
        cols = rt.distribute(p.indices)
        vals = rt.distribute(p.values)
        x = rt.distribute(p.x, layout="replicated")
        return {
            "y": dense_matvec(p.nrows, rows, cols, vals, x),
            "ys": sparse_matvec(p.nrows, rows, vals, p.indices, p.xkeys,
                                p.xvals),
        }

    return job


def jacobi_job(p):
    """Jacobi relaxation as a job body (``rt.stencil`` over a resident
    field, as ``repro.apps.jacobi.run_triolet`` does)."""

    def job(ctx):
        rt = ctx.rt
        field = rt.distribute(np.array(p.init, copy=True))
        rt.stencil(field, radius=p.radius, kernel=jacobi.kernel_for(p),
                   iterations=p.iterations, label="jacobi")
        return np.array(field.array, copy=True)

    return job


def solo(kind: str, fn, costs, faults=None, fault=None) -> JobResult:
    """Run one job on a fresh one-shot runtime that shares nothing."""
    try:
        value, rt = run_solo(fn, MACHINE, costs=costs, faults=faults)
    except Exception as exc:  # noqa: BLE001 - a failed job is a result
        return JobResult(kind, error=exc, fault=fault)
    plane = rt.plane.stats_dict()
    return JobResult(
        kind, value,
        virtual_s=rt.elapsed,
        shipped_bytes=rt.total_bytes_shipped(),
        fault=fault,
        report=rt.recovery_report,
        compiled=rt.planner_state.stats.compiled,
        input_bytes=plane["input_bytes"],
        halo_bytes=plane["halo_bytes"],
    )


class Workload:
    """Base: subclasses set ``name``/``kinds`` and fill ``refs``."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        #: bit-for-bit references, one per kind
        self.refs: dict = {}
        #: references that passed ``allclose`` against solve_ref
        self.ref_ok: dict[str, bool] = {}

    def cold_start(self) -> list[JobResult]:
        return self.wave()

    def wave(self) -> list[JobResult]:
        raise NotImplementedError

    def check(self, job: JobResult) -> bool:
        return same_bits(job.value, self.refs[job.kind])

    def checks(self) -> list:
        """(check, reference) pairs the liveness probe exercises."""
        return [(same_bits, self.refs[k]) for k in self.kinds]


class _PaperApps(Workload):
    """Shared inputs: the paper's four apps at the engine-bench sizes
    (``BENCH_PARAMS``), optionally plus spMV."""

    def __init__(self, seed: int):
        super().__init__(seed)
        s = seeds(seed, len(SOLO_KINDS))
        self.problems = {
            app: APPS[app].make_problem(**{**BENCH_PARAMS[app], "seed": si})
            for app, si in zip(PAPER_APPS, s)
        }
        self.costs = {app: costs_for(app, "triolet", p)
                      for app, p in self.problems.items()}
        if "spmv" in self.kinds:
            self.problems["spmv"] = spmv.make_problem(
                nrows=SPMV_NROWS, ncols=SPMV_NROWS, row_nnz=SPMV_ROW_NNZ,
                seed=s[-1])
            self.costs["spmv"] = CostContext()
        #: sequential (``solve_ref``) results the references must match
        self.solved: dict = {}
        for k in self.kinds:
            res = solo(k, self.job(k), self.costs[k])
            if res.error is not None:
                raise RuntimeError(f"{k} reference run failed") from res.error
            self.refs[k] = res.value
            self.solved[k] = self.solve_ref(k)
            self.ref_ok[k] = close(res.value, self.solved[k])

    def job(self, kind: str):
        p = self.problems[kind]
        return spmv_job(p) if kind == "spmv" else PAPER_JOBS[kind](p)

    def solve_ref(self, kind: str):
        p = self.problems[kind]
        if kind == "spmv":
            return {"y": spmv.solve_ref(p), "ys": spmv.solve_ref_sparse(p)}
        return APPS[kind].solve_ref(p)


class AppsOneshot(_PaperApps):
    """Every job on a fresh runtime: compiles its plans, places its data
    and ships all its inputs (the Fig. 4-8 path)."""

    name = "apps-oneshot"
    kinds = SOLO_KINDS

    def wave(self) -> list[JobResult]:
        return [solo(k, self.job(k), self.costs[k]) for k in self.kinds]


class ServiceResident(_PaperApps):
    """One resident JobServer, two tenants each queueing the four paper
    apps per wave: repeat jobs compile nothing and ship zero input
    bytes."""

    name = "service-resident"
    kinds = PAPER_APPS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.server: JobServer | None = None

    def cold_start(self) -> list[JobResult]:
        srv = JobServer(MACHINE)
        for tenant, weight in TENANTS:
            srv.add_tenant(tenant, weight=weight)
        register_mriq_dataset(srv, "mriq", self.problems["mriq"])
        self.server = srv
        return self._serve([(TENANTS[0][0], k) for k in self.kinds])

    def served_job(self, kind: str):
        if kind == "mriq":
            return mriq_job(self.problems["mriq"], dataset="mriq")
        return self.job(kind)

    def wave(self) -> list[JobResult]:
        # both tenants queue every kind: weights only order work when
        # more than one tenant is waiting
        return self._serve([(t, k) for t, _ in TENANTS for k in self.kinds])

    def _serve(self, jobs: list[tuple[str, str]]) -> list[JobResult]:
        """Submit (tenant, kind) jobs together, then run the queue dry."""
        srv = self.server
        handles = [
            (k, srv.submit(self.served_job(k), tenant=tenant, name=k,
                           costs=self.costs[k]))
            for tenant, k in jobs
        ]
        while srv.step():
            pass
        return [self._result(k, h) for k, h in handles]

    @staticmethod
    def _result(kind: str, h) -> JobResult:
        try:
            value = h.result()
        except Exception as exc:  # noqa: BLE001 - a failed job is a result
            return JobResult(kind, error=exc)
        m = h.metrics
        return JobResult(
            kind, value,
            virtual_s=m["virtual_seconds"],
            shipped_bytes=m["shipped_bytes"],
            report=m["recovery"],
            compiled=m["planner"]["compiled"],
            input_bytes=m["plane"]["input_bytes"],
            halo_bytes=m["plane"]["halo_bytes"],
            plan_hits=m["planner"]["hits"],
        )


class StencilSweeps(Workload):
    """About 250 tiny sections per wave: a 1-D rod and a 2-D plate under
    ``rt.stencil``, plus cutcp's shifting-slab sweeps."""

    name = "stencil-sweeps"
    kinds = ("rod", "plate", "sweeps")

    def __init__(self, seed: int):
        super().__init__(seed)
        s = seeds(seed, 3)
        self.problems = {
            "rod": jacobi.make_problem(**ROD, seed=s[0]),
            "plate": jacobi.make_problem(**PLATE, seed=s[1]),
            "sweeps": cutcp.make_problem(**SWEEPS, seed=s[2]),
        }
        self.plans = planner.PlannerState()
        for k in self.kinds:
            res = self.run(k)
            if res.error is not None:
                raise RuntimeError(f"{k} reference run failed") from res.error
            self.refs[k] = res.value
            ref = (cutcp.solve_ref(self.problems[k]) if k == "sweeps"
                   else jacobi.solve_ref(self.problems[k]))
            # the stencil is bit-identical to its sequential reference;
            # the sweeps' histogram merge order is not
            self.ref_ok[k] = (close(res.value, ref) if k == "sweeps"
                              else same_bits(res.value, ref))

    def run(self, kind: str) -> JobResult:
        p = self.problems[kind]
        if kind != "sweeps":
            return solo(kind, jacobi_job(p), CostContext())
        before = self.plans.stats.compiled
        try:
            with planner.use_state(self.plans):
                run = run_sweeps(p, MACHINE)
        except Exception as exc:  # noqa: BLE001 - a failed job is a result
            return JobResult(kind, error=exc)
        plane = run.detail["data_plane"]
        return JobResult(
            kind, run.value,
            virtual_s=run.elapsed,
            shipped_bytes=run.bytes_shipped,
            compiled=self.plans.stats.compiled - before,
            input_bytes=plane["input_bytes"],
            halo_bytes=plane["halo_bytes"],
        )

    def cold_start(self) -> list[JobResult]:
        # run_sweeps plans through the installed cache: start it empty
        self.plans = planner.PlannerState()
        return self.wave()

    def wave(self) -> list[JobResult]:
        return [self.run(k) for k in self.kinds]


class RecoveryDrill(_PaperApps):
    """The apps-oneshot jobs, each under its own fresh FaultPlan: a
    transient RankCrash or a permanent RankLoss per kind."""

    name = "recovery-drill"
    kinds = SOLO_KINDS

    def plan(self, kind: str) -> FaultPlan:
        """A fresh plan per job: plans are stateful, a reused plan fires
        only on its first job."""
        fault, sec = FAULTS[kind]
        spec = RankCrash if fault == "crash" else RankLoss
        return FaultPlan([spec(rank=1, at=FAULT_AT, section=sec)])

    def wave(self) -> list[JobResult]:
        return [solo(k, self.job(k), self.costs[k], faults=self.plan(k),
                     fault=FAULTS[k][0])
                for k in self.kinds]

    def check(self, job: JobResult) -> bool:
        # cutcp's histogram merge differs in the last ulp under any
        # re-partition, so a faulted cutcp is judged against solve_ref
        if job.kind == "cutcp":
            return close(job.value, self.solved["cutcp"])
        return same_bits(job.value, self.refs[job.kind])

    def checks(self) -> list:
        return super().checks() + [(close, self.solved["cutcp"])]


WORKLOADS = {w.name: w for w in (AppsOneshot, ServiceResident,
                                 StencilSweeps, RecoveryDrill)}
