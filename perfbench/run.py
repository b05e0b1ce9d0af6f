"""The orbitcalc benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload poly|order \\
        --seed N --seconds S --trace 0|1

Every job of the workload (see ``workloads.py``) runs as its own
``python -m orbitcalc`` process against ``src/``, and its exit code and the
SHA-256 of its stdout are checked against ``reference.json``.

``--trace 0`` runs the job list over and over, one job at a time, for
``--seconds`` (every job at least once), and reports:

* ``cpu_s``: CPU time (user plus system) of each job process, the median
  of its repeats, summed over the job list.  The program is single-threaded
  and does no I/O on its hot paths, so on an idle host this is the time a
  user waits for the answers.  Each time is scaled to the reference speed
  of the CPU it ran on, as measured while it ran by ``SpeedProbe``, so that
  neither the shared host's changes of speed nor other processes waiting
  for the same CPU show (see ``README.md``, Steadiness);
* ``setup_s``: the median CPU time, scaled in the same way, of a trivial
  CLI call (interpreter start plus import), called several times spread
  over the run;
* ``peak_rss_mib``: the largest maximum resident set of any job process.

``--trace 1`` runs the job list once untraced and once through
``tracer.py``, and reports the per-layer metrics of the traced pass plus the
tracing overhead (traced minus untraced CPU time).  The spans of the traced
pass are written to ``.bench_build/perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
share of jobs whose exit code or stdout differs from the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 15
# A run must end within 180 s; no job may run past this many seconds from
# the start of the run.
RUN_LIMIT_S = 165.0
# The CPUs this process may use; each job runs on one of them.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@dataclass(frozen=True)
class JobResult:
    job: workloads.Job
    seconds: float
    started: float  # time.perf_counter() at spawn
    cpu_seconds: float  # user plus system time
    exit_code: int
    sha256: str
    max_rss_kib: int
    trace: dict | None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _probe(iterations: int = 10_000) -> float:
    """Time a fixed slice of pure-Python work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(iterations):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def pin_to_quietest_cpu() -> int | None:
    """Pin this thread, and so the next job it starts, to the CPU on which a
    short probe runs fastest just now, and return that CPU.

    On a shared host other tenants slow each CPU down, independently of the
    others, for seconds at a time.  Starting each job on the CPU that is
    quiet at the moment keeps part of that noise out of the job's time."""
    if len(CPUS) < 2:
        return None
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe() for _ in range(3)), cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Samples the speed of the CPU the jobs run on, while they run.

    The host switches each CPU between a fast and a slow state (up to 1.8x
    slower, see ``README.md``, Steadiness) for seconds at a time, and the
    jobs last about as long, so no job runs in one state throughout.  A
    background thread, pinned to the job's CPU, measures the CPU time of
    ``_probe`` every ``PERIOD_S`` seconds; ``scale`` turns a job's CPU time
    into the CPU time it would have taken at the reference speed."""

    PERIOD_S = 0.02
    ITERATIONS = 2_000
    # CPU time of ``_probe(ITERATIONS)`` while a job runs, on the reference
    # host (2-vCPU Intel Xeon VM, Python 3.11.7) in its fast state; in its
    # slow state it takes about 0.53 ms.
    REFERENCE_S = 0.00035

    def __init__(self) -> None:
        self.cpu: int | None = None
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        pinned = None
        while not self._stop.wait(self.PERIOD_S):
            cpu = self.cpu
            if cpu is not None and cpu != pinned:
                os.sched_setaffinity(0, {cpu})
                pinned = cpu
            start = time.thread_time()
            _probe(self.ITERATIONS)
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def scale(self, start: float, end: float) -> float:
        """The CPU's speed between ``start`` and ``end``
        (``time.perf_counter``) relative to the reference speed: the mean of
        reference over measured probe time.  Samples just outside the
        interval count too, so that a short job has some."""
        margin = 1.5 * self.PERIOD_S
        ratios = [self.REFERENCE_S / s for t, s in self.samples
                  if start - margin <= t <= end + margin and s > 0]
        return statistics.fmean(ratios) if ratios else 1.0


def run_job(job: workloads.Job, deadline: float, traced: bool = False,
            probe: SpeedProbe | None = None) -> JobResult:
    """Run one CLI job in a fresh process and wait for it to exit.

    The process is killed if it is still running at ``deadline``
    (``time.monotonic``).  A ``probe`` is moved to the job's CPU."""
    if traced:
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(HERE / "tracer.py"), str(write_fd), *job]
        pass_fds = (write_fd,)
    else:
        cmd = [sys.executable, "-m", "orbitcalc", *job]
        pass_fds = ()
    cpu = pin_to_quietest_cpu()
    if probe is not None:
        probe.cpu = cpu
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), pass_fds=pass_fds,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    report = None
    try:
        if traced:
            os.close(write_fd)
        out = proc.stdout.read()
        if traced:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
            report = json.loads(data) if data else None
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return JobResult(job, seconds, start, usage.ru_utime + usage.ru_stime, proc.returncode, hashlib.sha256(out).hexdigest(),
                     usage.ru_maxrss, report)


class Checker:
    """Counts jobs against the recorded reference outputs."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, result: JobResult) -> None:
        self.attempted += 1
        key = workloads.job_key(result.job)
        want = self.reference.get(key)
        got = {"exit": result.exit_code, "sha256": result.sha256}
        if got != want:
            self.failed += 1
            print(f"mismatch: {key}: got {got}, want {want}", file=sys.stderr)


def run_pass(jobs, checker: Checker, deadline: float, traced: bool = False) -> list[JobResult]:
    results = []
    for job in jobs:
        result = run_job(job, deadline, traced)
        checker.check(result)
        results.append(result)
    return results


def measure(jobs, seconds: float, checker: Checker, deadline: float) -> dict:
    samples: dict[workloads.Job, list[float]] = {job: [] for job in jobs}
    raw: dict[workloads.Job, list[float]] = {job: [] for job in jobs}
    setup: list[float] = []
    peak_kib = 0
    last: dict[workloads.Job, float] = {}
    start = time.monotonic()
    k = 0
    with SpeedProbe() as probe:
        # Every job runs at least once; after that, no job starts that its
        # last run says would end after ``seconds``.
        while (k < len(jobs) or len(setup) < SETUP_REPEATS
               or time.monotonic() + last[jobs[k % len(jobs)]] < start + seconds):
            # The set-up calls are spread evenly over the run, so that they
            # meet the same machine as the jobs do.
            if (len(setup) < SETUP_REPEATS
                    and time.monotonic() >= start + len(setup) * seconds / SETUP_REPEATS):
                job = workloads.SETUP_JOB
            else:
                job = jobs[k % len(jobs)]
                k += 1
            result = run_job(job, deadline, probe=probe)
            checker.check(result)
            scaled = result.cpu_seconds * probe.scale(result.started,
                                                      result.started + result.seconds)
            if job == workloads.SETUP_JOB:
                setup.append(scaled)
            else:
                samples[job].append(scaled)
                raw[job].append(result.seconds)
                last[job] = result.seconds
                peak_kib = max(peak_kib, result.max_rss_kib)
    for job, times in samples.items():
        print(f"{statistics.median(times):8.3f}s scaled CPU, {statistics.median(raw[job]):8.3f}s "
              f"wall, median of {len(times)}: {workloads.job_key(job)}", file=sys.stderr)
    return {
        "cpu_s": (sum(statistics.median(v) for v in samples.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def measure_layers(workload: str, seed: int, jobs, checker: Checker, deadline: float) -> dict:
    plain = run_pass(jobs, checker, deadline)
    traced = run_pass(jobs, checker, deadline, traced=True)
    overhead = sum(r.cpu_seconds for r in traced) - sum(r.cpu_seconds for r in plain)
    reports = [r.trace for r in traced if r.trace is not None]
    values = tracer.layer_metrics(tracer.merge_reports(reports), overhead)
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    with open(SPAN_DIR / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as out:
        for r in traced:
            spans = r.trace["spans"] if r.trace is not None else []
            out.write(json.dumps({"job": workloads.job_key(r.job), "spans": spans}) + "\n")
    units = dict(tracer.LAYER_METRICS)
    return {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "orbitcalc" / "__init__.py").is_file():
        print(f"error: no orbitcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    checker = Checker(reference)
    jobs = workloads.job_list(args.workload, args.seed)

    # The first call compiles the package's bytecode; it is not timed.
    run_pass([workloads.SETUP_JOB], checker, deadline)
    if args.trace:
        metrics = measure_layers(args.workload, args.seed, jobs, checker, deadline)
    else:
        metrics = measure(jobs, args.seconds, checker, deadline)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
