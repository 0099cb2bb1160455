"""Write ``digests.json``: the payload digest of every job of the two
simulator workloads at the default seed.

The microslice-corun digests are taken from ``fig7.plan(scale_override=0.1)``
itself, simulated with ``repro.runner.run_job`` (the path the payload
manifest uses), so the benchmark's default job list is checked against
fig7 and not against its own generator. Re-run only when a change is
meant to alter payloads:

    python3 perfbench/record_digests.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments import fig7  # noqa: E402
from repro.runner import run_job  # noqa: E402

import simbench  # noqa: E402


def main():
    plans = {
        "microslice-corun": fig7.plan(scale_override=0.1),
        "baseline-io": simbench.baseline_io_jobs(simbench.DEFAULT_SEED),
    }
    out = {
        workload: {job.tag: simbench.digest(run_job(job)) for job in jobs}
        for workload, jobs in plans.items()
    }
    with open(simbench.DIGESTS_PATH, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
