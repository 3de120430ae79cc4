"""The wave benchmark: one command, four workloads, one JSON result line.

    python3 wavebench/run.py --workload apps-oneshot --seed 1 \\
        --seconds 20 --trace 0

runs from the repository root.  ``--trace 0`` reports the end-to-end
metrics of untraced waves; ``--trace 1`` runs untraced waves, then
traced waves, and reports the per-layer metrics of the traced ones
(their spans go to ``wavebench/out/`` as a Chrome trace).  The last
line of standard output is the result object; the line before it
holds the host record and the run's sample counts.  See README.md for
every metric and why each workload exists.
"""
from __future__ import annotations

import os

# One BLAS thread: the simulated ranks are the parallelism, and a BLAS
# pool competing with them for 2 CPUs only adds noise.  Set before NumPy
# loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import measure  # noqa: E402
from tracer import Tracer, layer_metrics, trace_totals  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: cold starts per run; ``setup_s`` is their median.  One more runs
#: first, untimed: the first cold start in a process also pays process
#: warm-up (allocator growth, first-touch pages), which no later job sees
SETUP_REPEATS = 7
#: the fewest timed waves a run makes (a tail needs 10 above it)
MIN_WAVES = 12
#: nominal waves per second of each workload on a 2-CPU host: a run
#: makes ``seconds * rate`` whole waves, so its job list never depends
#: on how fast the host happens to be
WAVE_RATE = {
    "apps-oneshot": 4.0,
    "service-resident": 2.1,
    "stencil-sweeps": 3.0,
    "recovery-drill": 2.2,
}

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "wave_wall_p50_s": "s",
    "wave_wall_tail_s": "s",
    "cpu_s_per_job": "s",
    "setup_s": "s",
    "virtual_s_per_job": "s",
    "shipped_bytes_per_job": "B",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def waves_for(workload: str, seconds: float) -> int:
    return max(MIN_WAVES, round(seconds * WAVE_RATE[workload]))


class Run:
    """Job accounting shared by the cold starts and the timed waves."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def settle(self, jobs) -> None:
        """Check each job outside any timed window, then drop its value."""
        for j in jobs:
            ok = j.error is None and self.wl.check(j) and j.fault_fired()
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    why = (repr(j.error) if j.error is not None
                           else "fault did not fire" if not j.fault_fired()
                           else "value mismatch")
                    self.failures.append(f"{j.kind}: {why}")
            j.value = None

    def waves(self, n: int) -> measure.WaveLog:
        log = measure.WaveLog()
        for _ in range(n):
            c0 = measure.cpu_seconds()
            t0 = time.perf_counter()
            jobs = self.wl.wave()
            wall = time.perf_counter() - t0
            cpu = measure.cpu_seconds() - c0
            self.settle(jobs)
            log.add(wall, cpu, jobs)
        return log


def reconcile(tracer, jobs) -> dict:
    """Traced totals against the program's own counters; returns the
    mismatches (empty when everything agrees exactly)."""
    traced = trace_totals(tracer)
    reports = [j.report for j in jobs if j.report is not None]
    reports += [rt.recovery_report for rt in tracer.runtimes]
    program = {
        "compiled": sum(j.compiled for j in jobs),
        "input_bytes": sum(j.input_bytes for j in jobs),
        "halo_bytes": sum(j.halo_bytes for j in jobs),
        "attempts": sum(r.attempts for r in reports),
        "reshipped_bytes": sum(r.reshipped_bytes for r in reports),
        "replayed_bytes": sum(r.replayed_bytes for r in reports),
    }
    return {k: {"traced": traced[k], "program": program[k]}
            for k in program if traced[k] != program[k]}


def traced_metrics(tracer, plain, traced) -> dict:
    """Every per-layer metric of a traced window (*traced*, a WaveLog),
    with tracing overhead against the untraced window *plain*."""
    jobs = traced.jobs
    m = layer_metrics(tracer, len(jobs))
    m["service.plan_hits"] = sum(j.plan_hits for j in jobs) / len(jobs)
    m["service.zero_ship_ratio"] = (
        sum(1 for j in jobs if j.input_bytes == 0) / len(jobs))
    m["trace.spans"] = len(tracer.spans) / len(jobs)
    m["trace.overhead_s"] = (statistics.median(traced.walls)
                             - statistics.median(plain.walls))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WAVE_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"wavebench: no program source at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    stat0 = measure.read_proc_stat()
    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    phases = {"prepare_s": time.perf_counter() - t_start}
    run = Run(wl)
    probes = [measure.probe_rejects(check, ref) for check, ref in wl.checks()]

    t_setup = time.perf_counter()
    run.settle(wl.cold_start())
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = wl.cold_start()
        setup_walls.append(time.perf_counter() - t0)
        run.settle(jobs)

    nwaves = waves_for(args.workload, args.seconds)
    phases["setup_total_s"] = time.perf_counter() - t_setup
    t_measure = time.perf_counter()
    info: dict = {"workload": args.workload, "seed": args.seed,
                  "setup_samples": setup_walls, "phases": phases}
    reconciled = True
    if args.trace:
        half = max(1, nwaves // 2)
        plain = run.waves(half)
        tracer = Tracer()
        with tracer.installed():
            # a traced cold start, so every cached plan holds traced
            # kernels; its spans are not part of the window
            run.settle(wl.cold_start())
            tracer.reset()
            traced = run.waves(half)
        metrics = traced_metrics(tracer, plain, traced)
        mismatches = reconcile(tracer, traced.jobs)
        reconciled = not mismatches
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}.json")
        info.update({
            "waves_untraced": len(plain.walls),
            "waves_traced": len(traced.walls),
            "wave_wall_p50_untraced_s": statistics.median(plain.walls),
            "wave_wall_p50_traced_s": statistics.median(traced.walls),
            "reconciliation_mismatches": mismatches,
            "trace_file": os.path.relpath(path, ROOT),
            "trace_events": tracer.write_chrome(path),
        })
        result_metrics = {k: {"value": v, "unit": layer_unit(k)}
                          for k, v in sorted(metrics.items())}
    else:
        log = run.waves(nwaves)
        metrics = log.metrics()
        metrics["setup_s"] = statistics.median(setup_walls)
        metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
        info["tail"] = measure.tail_percentile(log.walls)
        info["waves"] = len(log.walls)
        result_metrics = {k: {"value": metrics[k], "unit": E2E_UNITS[k]}
                          for k in E2E_UNITS}

    phases["measure_s"] = time.perf_counter() - t_measure
    info["host"] = measure.host_record(ROOT, stat0, measure.read_proc_stat())
    info["references_ok"] = wl.ref_ok
    info["liveness_probe_rejects"] = probes
    info["failures"] = run.failures
    correct = (run.failed == 0 and all(probes) and all(wl.ref_ok.values())
               and reconciled)
    print(json.dumps({"wavebench": info}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
