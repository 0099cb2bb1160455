"""Microbenchmarks of the simulation engine itself (sanity that the
substrate is fast enough for the experiment suite).

Besides the pytest-benchmark terminal report, each test folds its
headline rate into ``BENCH_engine.json`` at the repo root.

That file is an append-only *trajectory* (latest entry first): every
benchmark session prepends one timestamped snapshot instead of
overwriting, so engine-tuning PRs leave a visible perf history. A
pre-trajectory flat-dict file is migrated in place as the oldest
entry. All ``_record`` calls from one process share one snapshot."""

import json
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments import fig7
from repro.experiments.scenarios import corun_scenario
from repro.runner.jobs import build_system
from repro.sim.engine import Simulator
from repro.sim.time import ms

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Shared per-process session marker: the first _record call stamps it,
#: later calls (any benchmark module) update the same snapshot.
_SESSION = {}


def _load_trajectory():
    """BENCH_engine.json as a list of snapshots, latest first."""
    if not BENCH_JSON.exists():
        return []
    try:
        data = json.loads(BENCH_JSON.read_text())
    except ValueError:
        return []
    if isinstance(data, dict):
        # Legacy flat dict: migrate as the oldest (untimestamped) entry.
        return [
            {
                "recorded_at": None,
                "note": "pre-trajectory flat-dict snapshot (migrated)",
                "metrics": data,
            }
        ]
    return data if isinstance(data, list) else []


def _record(key, value):
    """Fold one ``{key: value}`` measurement into this benchmark
    session's snapshot at the head of the trajectory."""
    entries = _load_trajectory()
    stamp = _SESSION.get("recorded_at")
    if stamp is None:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        _SESSION["recorded_at"] = stamp
    if entries and entries[0].get("recorded_at") == stamp:
        entry = entries[0]
    else:
        entry = {"recorded_at": stamp, "metrics": {}}
        entries.insert(0, entry)
    entry["metrics"][key] = round(value, 1)
    BENCH_JSON.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def _mean(benchmark):
    return benchmark.stats.stats.mean


class TestEngineThroughput:
    def test_event_dispatch_rate(self, benchmark):
        def dispatch_10k():
            sim = Simulator()
            for _ in range(10_000):
                sim.schedule(1, lambda _a: None)
            sim.run()
            return sim.executed_events

        events = benchmark(dispatch_10k)
        assert events == 10_000
        _record("dispatch_events_per_sec", 10_000 / _mean(benchmark))

    def test_process_switch_rate(self, benchmark):
        def ping_pong():
            sim = Simulator()

            def proc():
                for _ in range(2_000):
                    yield sim.timeout(1)

            sim.process(proc())
            sim.process(proc())
            sim.run()
            return sim.now

        assert benchmark(ping_pong) == 2_000
        # Two processes x 2000 resumptions each.
        _record("process_switches_per_sec", 4_000 / _mean(benchmark))


class TestScenarioThroughput:
    def test_corun_simulation_rate(self, benchmark):
        """Simulated-vs-wall time for the standard co-run scenario."""
        counts = []

        def run_50ms():
            system = corun_scenario("gmake").build()
            system.run(ms(50))
            counts.append(system.sim.executed_events)
            return counts[-1]

        events = benchmark.pedantic(run_50ms, rounds=1, iterations=1)
        assert events > 0
        _record("corun_events_per_sec", counts[-1] / _mean(benchmark))


class TestMicrosliceThroughput:
    def test_dynamic_job_rate(self, benchmark):
        """One fig7 ``dynamic`` job at the benchmark's scale 0.1: most
        deschedules run the detector, and most of its hits end in
        ``accelerate -> remove -> requeue -> _place`` (scheduler,
        hypervisor and detector layers rather than the engine)."""
        job = next(
            job for job in fig7.plan(scale_override=0.1) if job.tag == "gmake:dynamic"
        )
        counts = []

        def run_job():
            system = build_system(job)
            system.run(job.duration_ns, warmup_ns=job.warmup_ns)
            counts.append(system.sim.executed_events)
            return system.hv.stats.counters.get("migrations")

        assert benchmark.pedantic(run_job, rounds=3, iterations=1) > 0
        _record("microslice_job_events_per_sec", counts[-1] / _mean(benchmark))


class TestYieldRoundTrip:
    def test_baseline_job_rate(self, benchmark):
        """One fig7 ``baseline`` job at scale 0.1: nearly every
        deschedule is an IPI-wait yield (a TLB-shootdown initiator
        spinning on a preempted sibling's ack), and the same pCPU picks
        the same vCPU straight back after the VMEXIT. The work is the
        executor loop, ``on_deschedule`` and the yield-to-self pick."""
        job = next(
            job for job in fig7.plan(scale_override=0.1) if job.tag == "dedup:baseline"
        )
        counts = []

        def run_job():
            system = build_system(job)
            system.run(job.duration_ns, warmup_ns=job.warmup_ns)
            counts.append(system.sim.executed_events)
            return system.hv.stats.counters.get("yield_ipi")

        assert benchmark.pedantic(run_job, rounds=3, iterations=1) > 0
        _record("yield_roundtrip_job_events_per_sec", counts[-1] / _mean(benchmark))
