"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload microslice-corun --seed 42 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``microslice-corun`` -- fig7's co-runs with the micro-sliced pool on;
* ``baseline-io``      -- the same co-runs and fig9's I/O hosts, pool off;
* ``serve-mix``        -- open- and closed-loop traffic against ``repro serve``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The benchmark builds nothing:
it runs the checkout's ``src/`` tree and writes only under
``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("microslice-corun", "baseline-io", "serve-mix")

#: Fresh-interpreter set-ups timed for a simulator workload;
#: ``setup_s`` is their median.
SETUP_PROBES = 5

#: ``(name, unit)`` of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric, printed with ``--trace 1``.
#: A layer a workload does not reach reads 0.
SPAN_METRICS = (
    ("sched.enqueue.calls", "count"), ("sched.enqueue.self_s", "s"),
    ("sched.pick.calls", "count"), ("sched.pick.self_s", "s"),
    ("sched.remove.calls", "count"), ("sched.steal.calls", "count"),
    ("sched.steal.hit_ratio", "fraction"), ("sched.self_s", "s"),
    ("hypervisor.on_deschedule.calls", "count"), ("hypervisor.on_deschedule.self_s", "s"),
    ("hypervisor.accelerate.calls", "count"), ("hypervisor.accelerate.self_s", "s"),
    ("hypervisor.wake_vcpu.calls", "count"), ("hypervisor.relay_vipi.calls", "count"),
    ("hypervisor.on_nic_irq.calls", "count"), ("hypervisor.self_s", "s"),
    ("core.inspect.calls", "count"), ("core.inspect.self_s", "s"),
    ("core.inspect.critical_ratio", "fraction"),
    ("core.scan_siblings.calls", "count"), ("core.scan_siblings.self_s", "s"),
    ("core.on_yield.calls", "count"), ("core.on_vipi.calls", "count"),
    ("core.on_virq.calls", "count"), ("core.self_s", "s"),
    ("guest.symbols_lookup.calls", "count"), ("guest.symbols_lookup.self_s", "s"),
    ("sim.events", "count"), ("sim.run.self_s", "s"),
    ("runner.build_system.self_s", "s"), ("experiments.collect.self_s", "s"),
    ("runner.run_job.self_s", "s"),
)
SERVE_METRICS = (
    ("runner.cache.hit_ratio", "fraction"), ("runner.cache.stores", "count"),
    ("runner.jobs_simulated", "count"), ("runner.sim_busy_s", "s"),
    ("serve.handler_p50_ms", "ms"), ("serve.handler_p99_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"), ("serve.waves", "count"),
    ("serve.wave_size_mean", "count"), ("serve.fast_path", "count"),
    ("serve.rejected", "count"),
    ("loadgen.hit_p50_ms", "ms"), ("loadgen.hit_p99_ms", "ms"),
    ("loadgen.hit_samples", "count"),
    ("loadgen.cold_p50_ms", "ms"), ("loadgen.cold_p90_ms", "ms"),
    ("loadgen.cold_samples", "count"),
    ("loadgen.max_rate_rps", "req/s"), ("loadgen.sent", "count"),
    ("loadgen.late_p99_ms", "ms"),
)
PER_LAYER = SPAN_METRICS + SERVE_METRICS + (
    ("wall_s", "s"), ("trace.overhead_pct", "%"), ("error_rate", "fraction"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_repro():
    """Put the checkout's ``src/`` first on the path, refusing to fall
    back on any other ``repro`` installed on the machine."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no repro package under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit("perfbench: imported repro from %s, not %s" % (repro.__file__, src))


def setup_probes(args):
    """Normalized CPU seconds of the set-up in fresh interpreters (see
    ``setup_probe.py``)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, check=True,
                              timeout=120)
        values.append(float(done.stdout.decode().split()[-1]))
    return values


def span_layers(result):
    """Per-layer span metrics from a traced simulator run."""
    totals = result["totals"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0))[1]

    def ratio(name):
        count, _, hits = totals.get(name, (0, 0.0, 0))
        return hits / count if count else 0.0

    def layer_self(prefix):
        return sum(value[1] for name, value in totals.items() if name.startswith(prefix + "."))

    values = {}
    for name, _unit in SPAN_METRICS:
        if name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif name.count(".") == 1 and name.endswith(".self_s"):
            values[name] = layer_self(name.split(".")[0])
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
    values["sched.steal.hit_ratio"] = ratio("sched.steal")
    values["core.inspect.critical_ratio"] = ratio("core.inspect")
    values["sim.events"] = result["events"]
    return values


def run_sim(args):
    import simbench

    if args.trace:
        result = simbench.measure_traced(
            args.workload, args.seed, OUT / ("spans-%s.bin" % args.workload))
        checks = result["checks"]
        print("traced: %d jobs, %d spans, untraced pass %.3f s, traced pass %.3f s, "
              "wrappers restored: %s"
              % (result["jobs"], sum(v[0] for v in result["totals"].values()),
                 result["untraced_wall_s"], result["traced_wall_s"], result["restored"]))
        if not result["restored"]:
            checks.record(False, "span wrappers were not restored")
        metrics = dict.fromkeys((name for name, _ in SERVE_METRICS), 0)
        metrics.update(span_layers(result))
        metrics["wall_s"] = result["untraced_wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * (
            result["traced_wall_s"] / result["untraced_wall_s"] - 1.0)
        return checks.attempted, checks.failed, checks.problems, metrics

    result = simbench.measure(args.workload, args.seed, args.seconds)
    checks = result["checks"]
    print("%d cold passes of %d jobs, wall %s s; cpu_s is the sum of per-job medians"
          % (result["passes"], result["jobs"],
             ", ".join("%.3f" % wall for wall in result["pass_walls"])))
    metrics = {
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_probes(args)),
    }
    return checks.attempted, checks.failed, checks.problems, metrics


def run_serve(args, scratch):
    import servebench

    result = servebench.measure(ROOT, scratch, args.seed, args.seconds, bool(args.trace))
    phases = result["phases"]
    attempted = sum(phase.attempted for phase in phases) + result["spot_checked"]
    failed = sum(phase.failed for phase in phases) + len(result["problems"])
    problems = [line for phase in phases for line in phase.problems] + result["problems"]
    for code in result["exit_codes"]:
        attempted += 1
        if code != 0:
            failed += 1
            problems.append("repro serve exited %r after SIGTERM" % code)
    for stderr in result["stderr"]:
        attempted += 1
        if "Traceback" in stderr and "CancelledError" not in stderr:
            failed += 1
            problems.append("repro serve stderr: %s" % stderr.strip()[-3000:])
    print("set-ups: %s s; %d closed-loop replays of %d requests on %d connections, "
          "median wall %.3f s"
          % (", ".join("%.3f" % value for value in result["setup_each_s"]),
             result["replays"], servebench.REPLAY_REQUESTS, servebench.CONNECTIONS,
             result["wall_s"]))
    metrics = {"cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"]}
    if not args.trace:
        metrics["setup_s"] = statistics.median(result["setup_cpu_s"])
    else:
        fixed = result["fixed"]
        print("fixed rate %.0f req/s for %.0f s: %d hits, %d cold; search steps %s"
              % (servebench.FIXED_RATE, servebench.FIXED_SECONDS, len(fixed.hit_ms),
                 len(fixed.cold_ms),
                 ", ".join("%.0f:%s" % (rate, "ok" if ok else "miss")
                           for rate, ok in result["steps"])))
        metrics = dict.fromkeys((name for name, _ in SPAN_METRICS), 0)
        metrics.update(result["layers"])
        pct = servebench.percentile
        metrics.update({
            "loadgen.hit_p50_ms": pct(fixed.hit_ms, 0.50),
            "loadgen.hit_p99_ms": pct(fixed.hit_ms, 0.99),
            "loadgen.hit_samples": len(fixed.hit_ms),
            "loadgen.cold_p50_ms": pct(fixed.cold_ms, 0.50),
            "loadgen.cold_p90_ms": pct(fixed.cold_ms, 0.90),
            "loadgen.cold_samples": len(fixed.cold_ms),
            "loadgen.max_rate_rps": result["max_rate_rps"],
            "loadgen.sent": sum(len(phase.late_ms) for phase in phases),
            "loadgen.late_p99_ms": pct(fixed.late_ms, 0.99),
            "wall_s": result["wall_s"],
            "trace.overhead_pct": 0.0,
        })
    return attempted, failed, problems, metrics


def main(argv=None):
    args = parse_args(argv)
    import_repro()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=str(OUT))
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    try:
        if args.workload == "serve-mix":
            attempted, failed, problems, metrics = run_serve(args, scratch)
        else:
            attempted, failed, problems, metrics = run_sim(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics["error_rate"] = failed / attempted if attempted else 1.0

    for line in problems:
        print("FAILED: %s" % line)
    units = dict(END_TO_END + PER_LAYER)
    wanted = PER_LAYER if args.trace else END_TO_END
    for name, unit in wanted:
        print("%-34s %14.6f %s" % (name, metrics[name], unit))
    if not args.trace:
        print("%-34s %14.6f %s" % ("error_rate", metrics["error_rate"], "fraction"))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _ in wanted},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
