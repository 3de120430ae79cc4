"""Statistics, value checks and the host record for the wave benchmark.

Nothing here imports the program under test, so the helpers can be
tested on their own and the value checks stay independent of the code
they judge.
"""
from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: a tail percentile needs at least this many samples strictly above it
TAIL_MIN_ABOVE = 10


def tail_percentile(samples: list[float],
                    min_above: int = TAIL_MIN_ABOVE) -> dict | None:
    """The highest order statistic with at least *min_above* samples
    above it, with its percentile rank and the sample count.

    With ``n`` samples that is the ``(n - min_above)``-th smallest
    (1-based), whose percentile rank is ``100 * (n - min_above) / n``.
    Returns ``None`` when there are too few samples to have a tail.
    """
    n = len(samples)
    if n <= min_above:
        return None
    i = n - 1 - min_above
    xs = sorted(samples)
    return {
        "value": xs[i],
        "percentile": 100.0 * (i + 1) / n,
        "above": n - 1 - i,
        "samples": n,
    }


@dataclass
class JobResult:
    """One job's outcome, as the benchmark's checks and metrics read it."""

    kind: str
    value: Any = None
    error: BaseException | None = None
    virtual_s: float = 0.0
    shipped_bytes: int = 0
    #: "crash" / "loss" when the job ran under a scheduled fault
    fault: str | None = None
    #: the job's RecoveryReport (or None when the path exposes none)
    report: Any = None
    #: fusion plans this job compiled (program counter)
    compiled: int = 0
    #: data-plane ``input_bytes`` / ``halo_bytes`` of this job
    input_bytes: int = 0
    halo_bytes: int = 0
    #: plan-cache hits (the service reports them per job)
    plan_hits: int = 0

    def fault_fired(self) -> bool:
        """Whether the job's scheduled fault shows in its report."""
        if self.fault is None:
            return True
        rep = self.report
        if rep is None:
            return False
        if self.fault == "loss":
            return rep.rank_losses >= 1
        return rep.faults.get("crash", 0) >= 1 and rep.rank_losses == 0


@dataclass
class WaveLog:
    """Wall and CPU time of each timed wave, plus the jobs they ran."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    jobs: list[JobResult] = field(default_factory=list)

    def add(self, wall: float, cpu: float, jobs: list[JobResult]) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.jobs.extend(jobs)

    def metrics(self) -> dict:
        """The wave-derived end-to-end metrics (unit-less floats)."""
        njobs = len(self.jobs)
        completed = sum(1 for j in self.jobs if j.error is None)
        tail = tail_percentile(self.walls)
        return {
            "jobs_per_s": completed / sum(self.walls),
            "wave_wall_p50_s": statistics.median(self.walls),
            "wave_wall_tail_s": tail["value"] if tail else max(self.walls),
            "cpu_s_per_job": sum(self.cpus) / njobs,
            "virtual_s_per_job": sum(j.virtual_s for j in self.jobs) / njobs,
            "shipped_bytes_per_job":
                sum(j.shipped_bytes for j in self.jobs) / njobs,
        }


# -- value checks -------------------------------------------------------------


def same_bits(value: Any, ref: Any) -> bool:
    """Bit-for-bit equality of a job value (array or dict of arrays)."""
    if isinstance(ref, dict):
        return (isinstance(value, dict) and set(value) == set(ref)
                and all(same_bits(value[k], ref[k]) for k in ref))
    a, b = np.asarray(value), np.asarray(ref)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def close(value: Any, ref: Any) -> bool:
    """``allclose`` at the tolerance the app harness uses (1e-8)."""
    if isinstance(ref, dict):
        return (isinstance(value, dict) and set(value) == set(ref)
                and all(close(value[k], ref[k]) for k in ref))
    a, b = np.asarray(value), np.asarray(ref)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-8,
                                                   atol=1e-8))


def perturbed(ref: Any) -> Any:
    """A copy of *ref* with one element moved beyond both checks'
    tolerance (the liveness probe's input)."""
    if isinstance(ref, dict):
        key = sorted(ref)[0]
        return {**ref, key: perturbed(ref[key])}
    out = np.array(ref, copy=True)
    flat = out.reshape(-1)
    i = flat.size // 2
    if np.issubdtype(out.dtype, np.integer):
        flat[i] += 1
    else:
        flat[i] += (abs(flat[i]) + 1.0) * 1e-6
    return out


def probe_rejects(check, ref: Any) -> bool:
    """True when *check* rejects a one-element perturbation of *ref*
    and accepts *ref* itself -- proof the check can fail."""
    return check(ref, ref) and not check(perturbed(ref), ref)


# -- process and host ---------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) and of children
    that have exited."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_proc_stat() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies), or None."""
    try:
        with open("/proc/stat") as f:
            first = f.readline().split()
    except OSError:
        return None
    if not first or first[0] != "cpu":
        return None
    return [int(x) for x in first[1:9]]


def stat_shares(before: list[int] | None,
                after: list[int] | None) -> dict:
    """Steal and idle shares of all CPU time between two readings."""
    if before is None or after is None:
        return {"steal_share": None, "idle_share": None}
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    # fields: user nice system idle iowait irq softirq steal
    return {"steal_share": d[7] / total, "idle_share": (d[3] + d[4]) / total}


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run from an export that is not a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_record(root: str, stat_before, stat_after) -> dict:
    """What tells a slow host apart from a slow program."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        **stat_shares(stat_before, stat_after),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "git_commit": git_commit(root),
    }
