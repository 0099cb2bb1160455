"""Name → experiment module registry, and the one place that turns an
experiment request into work.

Every caller — ``repro run``/``repro fleet``, ``repro serve``, the
payload manifest, tests and benchmarks — goes through :func:`prepare`
(directly or via :func:`run`/:func:`run_many`), so the request checks
and the cross-cutting job rewrites (scheduler, faults, trace) live
here and nowhere else."""

import inspect

from ..errors import ConfigError, FaultError
from .. import runner
from ..sched import registry as sched_registry
from . import (
    baselines,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fleet,
    resilience,
    table1,
    table2,
    table4a,
    table4b,
    table4c,
)

_EXPERIMENTS = {
    "baselines": baselines,
    "table1": table1,
    "table2": table2,
    "table4a": table4a,
    "table4b": table4b,
    "table4c": table4c,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fleet": fleet,
    "resilience": resilience,
}


def is_driver(module):
    """True for experiments that orchestrate their own job waves
    (``drive()``) instead of emitting a static ``plan()`` — their job
    set depends on intermediate results, so it cannot be enumerated up
    front (and is therefore absent from the payload manifest)."""
    return not hasattr(module, "plan")


def available():
    return sorted(_EXPERIMENTS)


def get(name):
    module = _EXPERIMENTS.get(name)
    if module is None:
        raise ConfigError(
            "unknown experiment %r (available: %s)" % (name, ", ".join(available()))
        )
    return module


class Work:
    """A checked request, ready to execute.

    Either ``jobs`` plus ``finish(by_tag) -> (results, text)`` — for a
    plan experiment, the fault-invariant check, ``reduce`` and
    ``format_result`` — or, with ``jobs`` None, a driver experiment's
    ``drive(workers, cache, progress) -> (results, text)``: its jobs
    are born mid-run from its own feedback loop."""

    __slots__ = ("name", "jobs", "finish", "drive")

    def __init__(self, name, jobs=None, finish=None, drive=None):
        self.name = name
        self.jobs = jobs
        self.finish = finish
        self.drive = drive


def prepare(
    name, seed=42, scale_override=None, scheduler=None, faults=None, trace=None,
    **kwargs
):
    """Check one experiment request and turn it into :class:`Work`.

    Every check happens here, once, before any simulation: the name,
    the keyword arguments the experiment takes, the scheduler backend,
    and that a driver gets no ``faults``/``trace``. ``scheduler`` sets
    the normal-pool backend of every job that does not pin its own;
    ``credit`` is the default, so it sets nothing and keeps every cache
    key. ``trace`` (``{"kinds": ...}``) traces every job. ``faults``
    (a built-in name, a plan-JSON path, a plan dict, or a
    :class:`~repro.faults.FaultPlan`) faults every job, built-in names
    resolved against each job's own horizon.
    """
    module = get(name)
    if scheduler is not None:
        sched_registry.get(scheduler)  # raises ConfigError on unknown name
        if scheduler == "credit":
            scheduler = None
    kwargs.update(seed=seed, scale_override=scale_override)
    driver = is_driver(module)
    params = inspect.signature(module.drive if driver else module.plan).parameters
    if not any(param.kind is param.VAR_KEYWORD for param in params.values()):
        unknown = sorted(set(kwargs) - set(params))
        if unknown:
            raise ConfigError(
                "experiment %r does not accept %s"
                % (name, ", ".join(map(repr, unknown)))
            )

    if driver:
        refused = [key for key, value in (("faults", faults), ("trace", trace))
                   if value is not None]
        if refused:
            raise ConfigError(
                "driver experiment %r does not accept %s"
                % (name, " or ".join("'%s'" % key for key in refused))
            )

        def drive(workers, cache, progress):
            results = module.drive(
                workers=workers, cache=cache, progress=progress,
                scheduler=scheduler, **kwargs
            )
            return results, module.format_result(results)

        return Work(name, drive=drive)

    jobs = module.plan(**kwargs)
    for job in jobs:
        if scheduler is not None and "scheduler" not in job.overrides:
            job.overrides["scheduler"] = scheduler
        if trace is not None:
            job.trace = dict(trace)
    if faults is not None:
        from ..faults import resolve_plan

        for job in jobs:
            if job.faults is None:
                horizon = job.warmup_ns + job.duration_ns
                job.faults = resolve_plan(faults, horizon).to_dict()

    def finish(by_tag):
        _check_fault_invariants(by_tag)
        results = module.reduce(by_tag)
        return results, module.format_result(results)

    return Work(name, jobs=jobs, finish=finish)


def run(name, workers=None, cache=None, trace_out=None, progress=None, **request):
    """Run one experiment; returns ``(results, formatted_text)``.
    ``request`` is what :func:`prepare` takes; the rest is as for
    :func:`run_many`."""
    outcome = run_many(
        [name], workers=workers, cache=cache, trace_out=trace_out,
        progress=progress, **request
    )
    return outcome[name]


def run_many(names, workers=None, cache=None, trace_out=None, progress=None,
             **request):
    """Run a batch of experiments over **one** worker pool and **one**
    cache-probe pass; returns ``{name: (results, formatted_text)}``.

    Every name is prepared first, so a bad request fails before any
    simulation. The plans then share one
    :func:`repro.runner.execute_many` call, so a point several
    experiments plan (e.g. the seed-42 gmake co-run baseline) is
    simulated once; drivers run after, one by one. ``workers``/``cache``
    go to the executor (None = environment defaults); ``progress`` is
    its ``callback(event, tag, done, total)`` hook. ``trace_out``
    writes the tag-labelled trace of a single plan experiment as the
    JSONL that ``repro analyze`` reads.
    """
    names = list(dict.fromkeys(names))  # dedupe, keep order
    if trace_out is not None and len(names) != 1:
        raise ConfigError("--trace-out requires exactly one experiment")
    works = {name: prepare(name, **request) for name in names}
    if trace_out is not None and works[names[0]].jobs is None:
        raise ConfigError(
            "driver experiment %r does not accept a trace" % names[0]
        )
    plans = {name: work.jobs for name, work in works.items() if work.jobs is not None}
    by_plan = {}
    if plans:
        by_plan = runner.execute_many(
            plans, workers=workers, cache=cache, progress=progress
        )
    outcome = {}
    for name, work in works.items():
        if work.jobs is None:
            outcome[name] = work.drive(workers, cache, progress)
            continue
        by_tag = by_plan[name]
        if trace_out is not None:
            from ..sim.trace import write_jsonl

            write_jsonl(trace_out, {job.tag: by_tag[job.tag].trace for job in work.jobs})
        outcome[name] = work.finish(by_tag)
    return outcome


def _check_fault_invariants(by_tag):
    """Fail loudly when any faulted job's invariant check found
    violations — a degraded result is fine, a nonsensical one is not."""
    broken = []
    for tag in sorted(by_tag):
        digest = by_tag[tag].faults
        if digest and digest.get("invariant_violations"):
            for violation in digest["invariant_violations"]:
                broken.append("%s: %s" % (tag, violation))
    if broken:
        raise FaultError(
            "invariant check failed for %d faulted job(s):\n  %s"
            % (len(broken), "\n  ".join(broken))
        )
