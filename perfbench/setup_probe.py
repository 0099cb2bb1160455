"""Time one set-up of a simulator workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the benchmark driver and the checkout's ``repro`` and builds the
workload's job list -- what ``run.py`` does before its first timed pass
-- under a :class:`hostspeed.Sampler`, and prints the normalized CPU
seconds that took. ``run.py`` reports the median of several probes as
``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import Sampler  # noqa: E402

#: Short enough for a ~0.2 s set-up to hold a dozen slices.
INTERVAL_S = 0.01


def main(workload, seed):
    with Sampler(INTERVAL_S) as sampler:
        mark = sampler.mark()
        import run

        run.import_repro()
        import simbench

        simbench.JOB_LISTS[workload](int(seed))
        print("%.6f" % sampler.since(mark))


if __name__ == "__main__":
    main(*sys.argv[1:])
