"""The two simulator workloads: ``microslice-corun`` and ``baseline-io``.

Both hand a generated job list to ``repro.runner.execute_many`` inline
(one worker, result cache off) -- what ``repro run --no-cache`` does.
The untraced run repeats the cold job list until its time is up and
reports the median; the traced run makes one untraced pass (the
reference for digests and tracing overhead) and one pass under the
span wrappers of :mod:`tracing`, checking every simulated system's
invariants.
"""

import gc
import hashlib
import json
import random
import statistics
import time
from pathlib import Path

from hostspeed import Sampler

DEFAULT_SEED = 42

#: Digests recorded for the default seed (see ``record_digests.py``).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

def _ordered(jobs, seed):
    """The default seed keeps the plan's order; any other seed shuffles
    it. The simulation seeds themselves stay fixed: with seeds derived
    per job the simulated work changes by up to 2x between seeds (see
    README.md), and the timings would measure the seed, not the code."""
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(jobs)
    return jobs


def microslice_corun_jobs(seed):
    """fig7 at scale 0.1: every target under baseline, static-best and
    dynamic micro-slicing (18 jobs)."""
    from repro.experiments import fig7

    return _ordered(fig7.plan(scale_override=0.1), seed)


def baseline_io_jobs(seed):
    """fig7's six co-runs under the baseline policy at half their
    full-scale duration, and fig9's mixed-I/O TCP and UDP hosts at full
    scale (8 jobs)."""
    from repro.experiments import fig7, fig9

    jobs = [job for job in fig7.plan(scale_override=0.5) if job.tag.endswith(":baseline")]
    jobs += [job for job in fig9.plan(scale_override=1.0) if job.tag.endswith(":baseline")]
    return _ordered(jobs, seed)


JOB_LISTS = {"microslice-corun": microslice_corun_jobs, "baseline-io": baseline_io_jobs}


def digest(payload):
    """SHA-256 of a payload's canonical form (as the payload manifest
    and the result cache write it)."""
    from repro.tools.payload_manifest import canonical_payload

    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


def recorded_digests(workload):
    """``{tag: digest}`` recorded for the default seed."""
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)[workload]


def run_pass(jobs, sampler=None):
    """Simulate ``jobs`` cold once. Returns ``(wall_seconds,
    {tag: job_cpu_seconds}, {tag: digest})``; the CPU seconds are
    normalized by ``sampler`` (a :class:`hostspeed.Sampler`), and not
    measured without one."""
    from repro.runner import execute_many

    started = {}
    job_cpu = {}

    def progress(event, tag, _done, _total):
        if event == "start":
            started[tag] = sampler.mark()
        elif event == "done":
            job_cpu[tag] = sampler.since(started[tag])

    gc.collect()
    start = time.perf_counter()
    results = execute_many({"": jobs}, workers=1, cache=False,
                           progress=progress if sampler else None)[""]
    wall = time.perf_counter() - start
    return wall, job_cpu, {tag: digest(res.to_dict()) for tag, res in results.items()}


class Checks:
    """Counts attempted and failed operations (one per simulated job)
    and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def check_digests(checks, workload, digests):
    """One check per job: its payload digest equals the recorded one."""
    reference = recorded_digests(workload)
    for tag, value in sorted(digests.items()):
        expected = reference.get(tag, "none")
        checks.record(value == expected, "%s job %s: digest %s, expected %s"
                      % (workload, tag, value[:12], expected[:12]))


def measure(workload, seed, seconds):
    """Untraced run: cold passes over the job list for about
    ``seconds`` (at least one pass; another starts while it would end
    within half a pass of ``seconds``). ``cpu_s`` sums, over jobs, the
    median of each job's CPU seconds across passes, normalized to the
    reference host speed (see :mod:`hostspeed`); the median keeps one
    disturbed pass from moving the figure."""
    jobs = JOB_LISTS[workload](seed)
    checks = Checks()
    ready = time.perf_counter()
    walls = []
    per_job = {job.tag: [] for job in jobs}
    with Sampler() as sampler:
        while True:
            wall, job_cpu, digests = run_pass(jobs, sampler)
            walls.append(wall)
            for tag, value in job_cpu.items():
                per_job[tag].append(value)
            check_digests(checks, workload, digests)
            typical = statistics.median(walls)
            if time.perf_counter() - ready + typical > seconds + typical / 2:
                break
    return {
        "checks": checks,
        "passes": len(walls),
        "pass_walls": walls,
        "jobs": len(jobs),
        "cpu_s": sum(statistics.median(values) for values in per_job.values()),
    }


def measure_traced(workload, seed, spans_path):
    """Traced run: one untraced pass, then one pass under the span
    wrappers with every simulated system's invariants checked. Returns
    the recorder's totals plus the figures derived outside spans."""
    from repro.faults.invariants import check_system
    from repro.runner import executor, jobs as jobs_mod

    from tracing import SpanRecorder

    jobs = JOB_LISTS[workload](seed)
    checks = Checks()
    untraced_wall, _, untraced = run_pass(jobs)
    check_digests(checks, workload, untraced)

    systems = []
    events = [0]

    def capture(build):
        def build_and_keep(job):
            system = build(job)
            systems.append(system)
            return system
        return build_and_keep

    def check_after(run_job):
        def run_and_check(job):
            payload = run_job(job)
            system = systems.pop()
            events[0] += system.sim.executed_events
            violations = check_system(system)
            checks.record(
                not violations,
                "%s job %s invariants: %s" % (workload, job.tag, "; ".join(violations)),
            )
            return payload
        return run_and_check

    recorder = SpanRecorder()
    try:
        recorder.install()
        recorder.replace(jobs_mod, "build_system", capture)
        recorder.replace(executor, "run_job", check_after)
        traced_wall, _, traced = run_pass(jobs)
    finally:
        recorder.restore()
    check_digests(checks, workload, traced)
    recorder.write(spans_path)
    return {
        "checks": checks,
        "jobs": len(jobs),
        "totals": recorder.totals(),
        "events": events[0],
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "restored": not recorder.installed,
    }
