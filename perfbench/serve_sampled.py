"""Run the ``repro`` CLI with a host-speed sampler in its main thread.

    python3 perfbench/serve_sampled.py STATS_FILE serve --port 0 --workers 1

The same as ``python3 -m repro.cli serve --port 0 --workers 1`` (the
caller puts the checkout's ``src/`` on ``PYTHONPATH``), plus a
:class:`hostspeed.Sampler` whose running totals are published in the
first ``hostspeed.STATS.size`` bytes of ``STATS_FILE`` (shared ``mmap``).
``servebench`` reads them around each replay to put the server's CPU
seconds at the reference host speed.

``SIGUSR1`` disarms the sampler's timer. Send it, and wait until the
published totals say the timer is off, before stopping the server: a
``SIGPROF`` that arrives while asyncio closes its loop would write to
the loop's signal wake-up descriptor after it was closed.
"""

import mmap
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import STATS, Sampler  # noqa: E402


def main(stats_path, *argv):
    with open(stats_path, "r+b") as handle:
        shared = mmap.mmap(handle.fileno(), STATS.size)
    from repro.cli import main as cli_main

    sampler = Sampler(publish=shared)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: sampler.stop())
    with sampler:
        return cli_main(list(argv))


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
