"""Span tracing for the traced run, recorded from the benchmark's side.

The tracer wraps the public entry points of each layer where their
callers look them up (a name bound by ``from x import f`` does not see a
patch on ``x.f``), records one :class:`Span` per call -- name, wall start
and end, thread CPU time, thread id, parent -- and keeps every span in
memory until the run writes them out as a Chrome trace.  Nothing in the
program changes; :meth:`Tracer.installed` restores every patched name
on exit.

Rank threads start with an empty span stack.  The ``cluster.execute``
wrapper hands each rank function its own span as the parent, so work
on a rank thread nests under the section attempt that spawned it.
"""
from __future__ import annotations

import gc
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

_perf = time.perf_counter
_cpu = time.thread_time

#: Comm methods timed as collectives (each calls send/recv inside)
COLLECTIVES = ("barrier", "bcast", "scatter", "gather", "reduce",
               "allreduce", "allgather", "alltoall", "scatterv",
               "gatherv", "reduce_scatter")

#: kernels with their own ``apps.<k>.*`` metrics
KERNELS = ("mriq", "sgemm", "tpacf", "cutcp", "spmv", "jacobi")


@dataclass(eq=False)
class Span:
    sid: int
    name: str
    parent: int | None
    tid: int
    t0: float = 0.0
    t1: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def busy(self) -> float:
        return self.c1 - self.c0


def kernel_name(fn: Callable) -> str:
    """``repro.apps.<k>.*`` kernels are named by their app; the rest
    (generic merge kernels) by ``core``."""
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) > 2 and parts[:2] == ["repro", "apps"]:
        return parts[2]
    return "core"


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: copy-stat dicts created while installed (run_solo, JobServer)
        self.copy_stats: list[dict] = []
        #: runtimes created by run_sweeps while installed
        self.runtimes: list[Any] = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = 0.0
        self._kernels: dict[int, Any] = {}
        #: set by a shipment planned for a retry, read by the next attempt
        self._pending_retry = False

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def wrap(self, name: str, fn: Callable,
             attrs: Callable | None = None) -> Callable:
        """*fn* recording a span per call; ``attrs(args, kwargs, out)``
        may return a dict stored on the span."""
        def traced(*args, **kwargs):
            stack = self._stack()
            sp = Span(next(self._ids), name,
                      stack[-1].sid if stack else None,
                      threading.get_ident())
            stack.append(sp)
            sp.c0 = _cpu()
            sp.t0 = _perf()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, out)
                    if extra:
                        sp.attrs.update(extra)
                return out
            finally:
                sp.t1 = _perf()
                sp.c1 = _cpu()
                stack.pop()
                self.spans.append(sp)

        traced.__wrapped__ = fn
        return traced

    def top(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop everything recorded so far (the patches stay)."""
        self.spans = []
        self.copy_stats = []
        self.runtimes = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span_patch(self, owner, attr: str, name: str,
                    attrs: Callable | None = None) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                           attrs))

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = _perf()
        else:
            self.gc_collections += 1
            self.gc_pause_s += _perf() - self._gc_t0

    def _traced_bulk_form_of(self, orig: Callable) -> Callable:
        """``bulk_form_of`` handing out one traced twin per bulk form,
        so cached plans keep a stable kernel object."""
        from repro.core.engine.bulk_forms import BulkForm

        def lookup(code_id):
            bf = orig(code_id)
            if bf is None:
                return None
            entry = self._kernels.get(id(bf))
            if entry is None:
                kname = kernel_name(bf.fn)
                twin = BulkForm(
                    self.wrap("apps.kernel", bf.fn,
                              lambda a, k, o: {"kernel": kname}),
                    bf.kind,
                )
                # keep *bf* alive so its id cannot be reused
                entry = self._kernels[id(bf)] = (bf, twin)
            return entry[1]

        return lookup

    @contextmanager
    def installed(self):
        """Patch every traced entry point; restore them on exit."""
        try:
            self._install()
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            while self._patches:
                owner, attr, orig = self._patches.pop()
                setattr(owner, attr, orig)

    def _install(self) -> None:
        # modules by full name: some packages re-export a function under
        # the submodule's name
        (serial, jacobi, sweeps, comm_mod, transport, engine_exec,
         engine_plan, planner, indexed, plane, checkpoint, driver,
         server) = (importlib.import_module(f"repro.{m}") for m in (
             "serial", "apps.jacobi", "apps.cutcp.sweeps", "cluster.comm",
             "cluster.transport", "core.engine.execute", "core.engine.plan",
             "core.fusion.planner", "core.iterators.indexed", "data.plane",
             "runtime.checkpoint", "runtime.driver", "service.server"))
        Comm, SimTransport = comm_mod.Comm, transport.SimTransport
        DataPlane, TrioletRuntime = plane.DataPlane, driver.TrioletRuntime
        JobServer = server.JobServer

        # -- core.fusion
        self._span_patch(planner, "plan_for", "core.fusion.plan_for")
        self._span_patch(planner, "compile_iter", "core.fusion.compile",
                         lambda a, k, o: {"compiled": o is not None})
        # -- core.engine
        for fn in ("try_reduce", "try_collect", "try_build"):
            self._span_patch(engine_exec, fn, f"core.engine.{fn}",
                             lambda a, k, o: {"handled": bool(o[0])})
        run_chunks = engine_plan.Plan.run_chunks

        def counted_chunks(plan, it, chunk):
            for batch in run_chunks(plan, it, chunk):
                top = self.top()
                if top is not None:
                    top.attrs["batches"] = top.attrs.get("batches", 0) + 1
                yield batch

        self._patch(engine_plan.Plan, "run_chunks", counted_chunks)
        # -- apps kernels: bulk forms where the engine looks them up,
        #    jacobi's stencil kernels where the benchmark does
        for mod in (engine_plan, indexed):
            self._patch(mod, "bulk_form_of",
                        self._traced_bulk_form_of(mod.bulk_form_of))
        kernel_for = jacobi.kernel_for
        jacobi_kernels: dict = {}

        def traced_kernel_for(p):
            k = kernel_for(p)
            if k not in jacobi_kernels:
                jacobi_kernels[k] = self.wrap(
                    "apps.kernel", k, lambda a, kw, o: {"kernel": "jacobi"})
            return jacobi_kernels[k]

        self._patch(jacobi, "kernel_for", traced_kernel_for)
        # -- serial
        enc = (lambda a, k, o: {"bytes": len(o)})
        for mod in (serial, comm_mod, checkpoint):
            self._span_patch(mod, "serialize", "serial.serialize", enc)
            self._span_patch(mod, "deserialize", "serial.deserialize")
        new_copy_stats = serial.new_copy_stats

        def captured_copy_stats():
            d = new_copy_stats()
            self.copy_stats.append(d)
            return d

        self._patch(serial, "new_copy_stats", captured_copy_stats)
        # -- data plane
        def ship_attrs(a, k, o):
            out = {"recovery": bool(k.get("recovery", False))}
            self._pending_retry = out["recovery"]
            if o is not None:
                out.update({key: o.stats.get(key, 0) for key in (
                    "input_bytes", "halo_bytes", "requests",
                    "resident_hits", "cache_hits", "cache_misses",
                    "replayed_bytes")})
            return out

        self._span_patch(DataPlane, "plan_section", "data.plan_section",
                         ship_attrs)
        self._span_patch(DataPlane, "plan_stencil", "data.plan_stencil",
                         ship_attrs)
        self._span_patch(DataPlane, "commit_stencil", "data.commit_stencil")
        # -- cluster: section attempts, point-to-point, collectives
        execute = SimTransport.execute

        def adopting_execute(tr, ctx, rank_fn, args):
            parent = self.top()

            def rank_body(*a, **kw):
                stack = self._stack()
                adopt = not stack or stack[-1] is not parent
                if adopt:
                    stack.append(parent)
                try:
                    return rank_fn(*a, **kw)
                finally:
                    if adopt:
                        stack.pop()

            return execute(tr, ctx, rank_body, args)

        def execute_attrs(a, k, out):
            retry, self._pending_retry = self._pending_retry, False
            return {
                "retry": retry,
                "vcompute_s": sum(m.compute_time for m in out.metrics),
                "messages": sum(m.messages_sent for m in out.metrics),
                "message_bytes": sum(m.bytes_sent for m in out.metrics),
            }

        self._patch(SimTransport, "execute",
                    self.wrap("cluster.execute", adopting_execute,
                              execute_attrs))
        for m in ("send", "recv", "Send", "Recv"):
            self._span_patch(Comm, m, f"comm.{m}")
        for m in COLLECTIVES:
            self._span_patch(Comm, m, f"comm.coll.{m}")
        # -- runtime and service
        self._span_patch(TrioletRuntime, "execute", "runtime.execute")
        self._span_patch(JobServer, "step", "service.step")
        # -- run_sweeps builds its own runtime: capture it for the report
        triolet_runtime = sweeps.triolet_runtime

        @contextmanager
        def captured_runtime(*a, **kw):
            with triolet_runtime(*a, **kw) as rt:
                self.runtimes.append(rt)
                yield rt

        self._patch(sweeps, "triolet_runtime", captured_runtime)

    # -- output -------------------------------------------------------------

    def write_chrome(self, path: str) -> int:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        t0 = min((s.t0 for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.t0 - t0) * 1e6,
                "dur": s.wall * 1e6,
                "pid": 0,
                "tid": s.tid,
                "args": {"id": s.sid, "parent": s.parent,
                         "cpu_us": s.busy * 1e6, **s.attrs},
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, f)
        return len(events)


# -- analysis -------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall time of each span minus the part its children cover."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(kids.get(s.sid, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = s.wall - covered
    return out


def layer_metrics(tracer: Tracer, njobs: int) -> dict:
    """Per-job layer metrics from one traced window (values only)."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def named(prefix: str) -> list[Span]:
        return [s for s in spans if s.name.startswith(prefix)]

    def parent_name(s: Span) -> str:
        p = by_id.get(s.parent)
        return p.name if p is not None else ""

    def per_job(x: float) -> float:
        return x / njobs

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    # core.fusion
    lookups = named("core.fusion.plan_for")
    compiles = [s for s in named("core.fusion.compile")
                if s.attrs.get("compiled")]
    m["core.fusion.lookups"] = per_job(len(lookups))
    m["core.fusion.compiles"] = per_job(len(compiles))
    m["core.fusion.hit_ratio"] = ratio(len(lookups) - len(compiles),
                                       len(lookups))
    m["core.fusion.busy_s"] = per_job(sum(s.busy for s in lookups))
    # core.engine
    tries = named("core.engine.try_")
    m["core.engine.batches"] = per_job(
        sum(s.attrs.get("batches", 0) for s in tries))
    m["core.engine.fallback_ratio"] = ratio(
        sum(1 for s in tries if not s.attrs.get("handled")), len(tries))
    m["core.engine.self_s"] = per_job(sum(selfs[s.sid] for s in tries))
    # apps: a kernel's own CPU excludes kernels it calls (merge kernels
    # call the joined kernel)
    kernels = named("apps.kernel")
    inner = {}
    for s in kernels:
        if parent_name(s) == "apps.kernel":
            inner[s.parent] = inner.get(s.parent, 0.0) + s.busy
    own = {s.sid: s.busy - inner.get(s.sid, 0.0) for s in kernels}
    outer = [s for s in kernels if parent_name(s) != "apps.kernel"]
    m["apps.kernel_calls"] = per_job(len(kernels))
    m["apps.kernel_busy_s"] = per_job(sum(s.busy for s in outer))
    m["apps.kernel_wait_s"] = per_job(sum(s.wall - s.busy for s in outer))
    # model ratio: virtual compute charged by each section attempt, given
    # to the kernel that did most of the attempt's work
    def attempt_of(s: Span | None) -> Span | None:
        while s is not None and s.name != "cluster.execute":
            s = by_id.get(s.parent)
        return s

    busy_in: dict[int, dict[str, float]] = {}
    for s in kernels:
        a = attempt_of(s)
        if a is not None:
            d = busy_in.setdefault(a.sid, {})
            d[s.attrs["kernel"]] = d.get(s.attrs["kernel"], 0.0) + own[s.sid]
    vcomp = {k: 0.0 for k in KERNELS}
    vbusy = {k: 0.0 for k in KERNELS}
    for sid, d in busy_in.items():
        k = max(d, key=d.get)
        if k in vcomp:
            vcomp[k] += by_id[sid].attrs.get("vcompute_s", 0.0)
            vbusy[k] += d[k]
    for k in KERNELS:
        m[f"apps.{k}.busy_s"] = per_job(
            sum(own[s.sid] for s in kernels if s.attrs["kernel"] == k))
        m[f"apps.{k}.model_ratio"] = ratio(vcomp[k], vbusy[k])
    # serial
    enc = named("serial.serialize")
    m["serial.encode_calls"] = per_job(len(enc))
    m["serial.encoded_bytes"] = per_job(
        sum(s.attrs.get("bytes", 0) for s in enc))
    m["serial.busy_s"] = per_job(sum(s.busy for s in named("serial.")))
    m["serial.copies_compacted"] = per_job(sum(
        d["compacted"] + d["noncontiguous_compacted"]
        for d in tracer.copy_stats))
    # data
    plans = named("data.plan_s")
    m["data.plan_calls"] = per_job(len(plans))
    m["data.plan_busy_s"] = per_job(sum(s.busy for s in plans))

    def plan_sum(key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in plans)

    m["data.input_bytes"] = per_job(plan_sum("input_bytes"))
    m["data.halo_bytes"] = per_job(plan_sum("halo_bytes"))
    m["data.resident_hit_ratio"] = ratio(plan_sum("resident_hits"),
                                         plan_sum("requests"))
    m["data.slice_cache_hit_ratio"] = ratio(
        plan_sum("cache_hits"),
        plan_sum("cache_hits") + plan_sum("cache_misses"))
    # cluster
    execs = named("cluster.execute")
    retries = [s for s in execs if s.attrs.get("retry")]
    m["cluster.sections"] = per_job(len(execs) - len(retries))
    m["cluster.execute_wall_s"] = per_job(sum(s.wall for s in execs))
    m["cluster.messages"] = per_job(
        sum(s.attrs.get("messages", 0) for s in execs))
    m["cluster.message_bytes"] = per_job(
        sum(s.attrs.get("message_bytes", 0) for s in execs))
    m["cluster.recv_wait_s"] = per_job(
        sum(s.wall - s.busy for s in named("comm.recv")))
    m["cluster.collective_wall_s"] = per_job(sum(
        s.wall for s in named("comm.coll.")
        if not parent_name(s).startswith("comm.coll.")))
    # runtime
    rexec = named("runtime.execute")
    m["runtime.sections"] = per_job(
        sum(1 for s in rexec if parent_name(s) != "runtime.execute"))
    m["runtime.driver_self_s"] = per_job(sum(selfs[s.sid] for s in rexec))
    m["runtime.stencil_sweeps"] = per_job(len(named("data.commit_stencil")))
    # runtime.recovery
    m["runtime.recovery.attempts"] = per_job(len(execs))
    m["runtime.recovery.useful_attempt_ratio"] = ratio(
        len(execs) - len(retries), len(execs))
    m["runtime.recovery.reshipped_bytes"] = per_job(sum(
        s.attrs.get("input_bytes", 0) for s in plans
        if s.attrs.get("recovery")))
    m["runtime.recovery.replayed_bytes"] = per_job(plan_sum("replayed_bytes"))
    m["runtime.recovery.wall_s"] = per_job(sum(s.wall for s in retries))
    # service
    m["service.dispatch_self_s"] = per_job(
        sum(selfs[s.sid] for s in named("service.step")))
    # gc
    m["gc.collections"] = per_job(tracer.gc_collections)
    m["gc.pause_s"] = per_job(tracer.gc_pause_s)
    return m


def trace_totals(tracer: Tracer) -> dict:
    """Whole-window counts the reconciliation compares with the
    program's own counters."""
    spans = tracer.spans
    plans = [s for s in spans if s.name.startswith("data.plan_s")]
    execs = [s for s in spans if s.name == "cluster.execute"]
    return {
        "compiled": sum(1 for s in spans if s.name == "core.fusion.compile"
                        and s.attrs.get("compiled")),
        "input_bytes": sum(s.attrs.get("input_bytes", 0) for s in plans),
        "halo_bytes": sum(s.attrs.get("halo_bytes", 0) for s in plans),
        "attempts": len(execs),
        "reshipped_bytes": sum(s.attrs.get("input_bytes", 0) for s in plans
                               if s.attrs.get("recovery")),
        "replayed_bytes": sum(s.attrs.get("replayed_bytes", 0)
                              for s in plans),
    }
