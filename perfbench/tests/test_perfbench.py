"""Self-test: every workload at tiny size, untraced and traced.

Checks that each metric named in BENCHMARK.json prints with its unit,
that no operation fails, and that the span wrappers are gone after a
traced run, and that the host-speed sampler's timer is disarmed. Run
with:

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import servebench  # noqa: E402
import simbench  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_corun(seed):
    from repro.experiments import fig7

    return simbench._ordered(fig7.plan(scale_override=0.02, workloads=("gmake",)), seed)


def _tiny_io(seed):
    from repro.experiments import fig9

    jobs = [job for job in _tiny_corun(42) if job.tag.endswith(":baseline")]
    jobs += fig9.plan(scale_override=0.02, modes=("tcp",))[1:2]
    return simbench._ordered(jobs, seed)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: a few tiny jobs, a short request mix."""
    from repro.runner import run_job

    tiny = {"microslice-corun": _tiny_corun, "baseline-io": _tiny_io}
    digests = {workload: {job.tag: simbench.digest(run_job(job)) for job in make(42)}
               for workload, make in tiny.items()}
    monkeypatch.setattr(simbench, "JOB_LISTS", tiny)
    monkeypatch.setattr(simbench, "recorded_digests", digests.get)
    monkeypatch.setattr(servebench, "SETUPS", 2)
    monkeypatch.setattr(servebench, "REPLAY_REQUESTS", 40)
    monkeypatch.setattr(servebench, "FIXED_SECONDS", 1.0)
    monkeypatch.setattr(servebench, "STEP_SECONDS", 0.5)
    monkeypatch.setattr(servebench, "MAX_STEPS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, workload, trace, seed=7):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _originals():
    from repro.experiments.results import RunResult
    from repro.guest.symbols import SymbolTable
    from repro.runner import executor, jobs
    from repro.sim.engine import Simulator

    import tracing

    methods = {(cls, name): value for _layer, cls in tracing.layer_classes()
               for name, value in vars(cls).items()}
    return (methods, executor.run_job, jobs.build_system, vars(Simulator)["run"],
            vars(SymbolTable)["lookup"], vars(RunResult)["collect"])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(tiny, capsys, workload):
    before = _originals()
    sigprof = signal.getsignal(signal.SIGPROF)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = _run(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, lines
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines), name
        error_rate = [line for line in lines if line.startswith("error_rate ")]
        assert len(error_rate) == 1 and float(error_rate[0].split()[1]) == 0.0
        if trace == 0:
            assert all(result["metrics"][m]["value"] > 0 for m in expected)
    assert _originals() == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == sigprof


def test_traced_counts_repeat_and_core_idle_without_policy(tiny, capsys):
    _lines, first = _run(capsys, "baseline-io", 1, seed=3)
    _lines, second = _run(capsys, "baseline-io", 1, seed=3)
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["sched.enqueue.calls"] > 0
    assert all(value == 0 for name, value in calls.items() if name.startswith("core."))


def test_sampler_takes_slices_and_restores_the_timer():
    import hostspeed

    previous = signal.getsignal(signal.SIGPROF)
    with hostspeed.Sampler(0.005) as sampler:
        mark = sampler.mark()
        while sampler.count < 10:
            sum(range(1000))
        assert sampler.since(mark) > 0
    assert sampler.spent > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == previous
    # 3 s of CPU, 1 s of it in slices that ran at a third of the nominal
    # speed: 2 s of work at a third of the speed.
    slow = 3 * hostspeed.NOMINAL_SLICE_S
    assert hostspeed.normalize(3.0, 1.0, slow) == pytest.approx(2.0 / 3)
