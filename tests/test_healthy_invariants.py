"""The simulator's conservation properties on healthy runs.

``faults.invariants.check_system`` (runstate conservation, the
starvation bound, IPI completion accounting, the pool-membership
census) otherwise runs only when a fault injector is attached. Here it
runs on every fig7 job -- baseline, static and dynamic micro-slicing,
the deschedule -> detect -> accelerate -> requeue path -- on one
``baselines`` job per scheduler backend, and on fig9's baseline TCP
and UDP hosts (the NIC -> vIRQ -> softirq path with the pool off), with
no fault plan and no environment switch.

fig7 runs at scale 0.1 (the benchmark's scale): at 0.02 its runs hit
the 10 ms floor and dynamic micro-slicing never migrates a vCPU. fig9
runs at scale 1.0, the scale of the benchmark's I/O jobs.
"""

import pytest

from repro.experiments import baselines, fig7, fig9
from repro.faults.invariants import check_system
from repro.runner.jobs import build_system


def _one_job_per_scheme():
    jobs = {}
    for job in baselines.plan(scale_override=0.1):
        jobs.setdefault(job.tag.split(":")[0], job)
    return list(jobs.values())


def _run(job):
    system = build_system(job)
    system.run(job.duration_ns, warmup_ns=job.warmup_ns)
    return system


def test_fig7_jobs_hold_invariants():
    migrations = 0
    for job in fig7.plan(scale_override=0.1):
        system = _run(job)
        assert check_system(system) == [], job.tag
        if job.tag.endswith(":dynamic"):
            migrations += system.hv.stats.counters.get("migrations")
    # The dynamic jobs really took the acceleration path.
    assert migrations > 0


@pytest.mark.parametrize("job", _one_job_per_scheme(), ids=lambda job: job.tag)
def test_backend_job_holds_invariants(job):
    assert check_system(_run(job)) == []


@pytest.mark.parametrize(
    "job",
    [job for job in fig9.plan(scale_override=1.0) if job.tag.endswith(":baseline")],
    ids=lambda job: job.tag,
)
def test_io_baseline_job_holds_invariants(job):
    system = _run(job)
    assert check_system(system) == []
    # The host really took the NIC -> vIRQ path.
    assert system.hv.stats.counters.get("virq") > 0
