"""Self-tests of the wave benchmark: statistics, accounting, checks,
fault liveness, tracing reconciliation and a smoke run per workload.

Run from the repository root: ``python3 -m pytest wavebench/tests -q``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import measure  # noqa: E402
from measure import JobResult, WaveLog  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


# -- tail percentile ----------------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert measure.tail_percentile([1.0] * 10) is None


def test_tail_keeps_ten_samples_above():
    xs = [float(i) for i in range(50)]
    t = measure.tail_percentile(list(reversed(xs)))
    assert t == {"value": 39.0, "percentile": 80.0, "above": 10,
                 "samples": 50}
    assert sum(1 for x in xs if x > t["value"]) == 10


def test_tail_of_eleven_is_the_minimum():
    t = measure.tail_percentile([5.0, 3.0] + [9.0] * 9)
    assert t["value"] == 3.0 and t["above"] == 10 and t["samples"] == 11


# -- wave accounting ----------------------------------------------------------


def test_wave_log_accounting():
    log = WaveLog()
    for wall in (0.5, 0.25, 1.0):
        jobs = [JobResult("a", virtual_s=2.0, shipped_bytes=100),
                JobResult("b", virtual_s=4.0, shipped_bytes=300)]
        log.add(wall, cpu=0.6, jobs=jobs)
    m = log.metrics()
    assert m["jobs_per_s"] == pytest.approx(6 / 1.75)
    assert m["wave_wall_p50_s"] == 0.5
    assert m["wave_wall_tail_s"] == 1.0  # too few waves: the maximum
    assert m["cpu_s_per_job"] == pytest.approx(1.8 / 6)
    assert m["virtual_s_per_job"] == 3.0
    assert m["shipped_bytes_per_job"] == 200.0
    log.add(0.25, 0.1, [JobResult("a", error=RuntimeError("lost"))])
    assert log.metrics()["jobs_per_s"] == pytest.approx(6 / 2.0)


def test_waves_are_a_function_of_seconds_only():
    import run

    assert run.waves_for("recovery-drill", 0.1) == run.MIN_WAVES
    rate = run.WAVE_RATE["apps-oneshot"]
    assert run.waves_for("apps-oneshot", 100 / rate) == 100


# -- value checks and their liveness probe -------------------------------------


@pytest.mark.parametrize("ref", [
    np.linspace(-3.0, 3.0, 9),
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.array([1 + 2j, 3 - 4j]),
    {"dd": np.arange(4), "rr": np.ones(3)},
])
@pytest.mark.parametrize("check", [measure.same_bits, measure.close])
def test_probe_rejects_perturbed_reference(check, ref):
    assert measure.probe_rejects(check, ref)


def test_probe_catches_a_check_that_cannot_fail():
    assert not measure.probe_rejects(lambda v, r: True, np.ones(4))


def test_same_bits_sees_one_ulp():
    a = np.array([1.0, 2.0])
    b = a.copy()
    b[1] = np.nextafter(b[1], 3.0)
    assert not measure.same_bits(b, a)
    assert measure.close(b, a)


# -- fault liveness -------------------------------------------------------------


class _Report:
    def __init__(self, crash=0, losses=0):
        self.faults = {"crash": crash} if crash else {}
        self.rank_losses = losses


@pytest.mark.parametrize("fault,report,fired", [
    (None, None, True),
    ("crash", _Report(crash=1), True),
    ("crash", _Report(), False),
    ("crash", _Report(crash=1, losses=1), False),
    ("loss", _Report(crash=1, losses=1), True),
    ("loss", _Report(crash=1), False),
    ("loss", None, False),
])
def test_fault_fired(fault, report, fired):
    assert JobResult("x", fault=fault, report=report).fault_fired() is fired


# -- workloads --------------------------------------------------------------------


def test_recovery_plans_are_fresh_and_fire():
    from workloads import RecoveryDrill

    wl = RecoveryDrill(seed=0)
    assert wl.plan("mriq") is not wl.plan("mriq")
    for _ in range(2):  # a reused plan would fire only on the first job
        for job in wl.wave():
            assert job.error is None
            assert job.fault_fired(), job.kind
            assert wl.check(job), job.kind


@pytest.mark.parametrize("name", ["apps-oneshot", "service-resident",
                                  "stencil-sweeps"])
def test_workload_smoke_and_trace_reconciles(name):
    import run
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed=0)
    assert all(wl.ref_ok.values())
    bench = run.Run(wl)
    bench.settle(wl.cold_start())
    plain = bench.waves(1)
    tracer = Tracer()
    with tracer.installed():
        bench.settle(wl.cold_start())
        tracer.reset()
        log = bench.waves(1)
    assert bench.failed == 0, bench.failures
    assert run.reconcile(tracer, log.jobs) == {}
    m = run.traced_metrics(tracer, plain, log)
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert m["apps.kernel_calls"] > 0
    assert m["cluster.sections"] > 0
    if name == "service-resident":
        assert m["core.fusion.compiles"] == 0
        assert all(j.input_bytes == 0 for j in log.jobs)
    if name == "stencil-sweeps":
        assert m["runtime.stencil_sweeps"] == (160 + 80) / 3
        assert m["data.halo_bytes"] > 0


def test_tracer_restores_every_patch():
    from repro.cluster.comm import Comm
    from repro.core.fusion import planner
    from tracer import Tracer

    before = (planner.plan_for, Comm.send)
    with Tracer().installed():
        assert planner.plan_for is not before[0]
    assert (planner.plan_for, Comm.send) == before


def test_command_prints_one_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", "stencil-sweeps", "--seed", "3", "--seconds", "0.5",
         "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().split("\n")
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    info = json.loads(lines[-2])["wavebench"]
    assert info["waves"] == 12 and info["tail"]["above"] == 10


def test_spec_units_match_the_run():
    import run

    for m in SPEC["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_command_fails_without_the_program(tmp_path):
    bare = tmp_path / "wavebench"
    bare.mkdir()
    for f in ("run.py", "measure.py", "workloads.py", "tracer.py"):
        (bare / f).write_text(open(os.path.join(BENCH, f)).read())
    out = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "apps-oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
