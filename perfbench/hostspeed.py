"""Host-speed sampling: CPU seconds scaled to a steady reference host.

On a shared host the same code runs at different speeds from one moment
to the next, and CPU seconds rise with wall seconds in the slow phases:
the vCPU shares its core with other tenants. On the 2-vCPU VM this
benchmark was built on, one vCPU switched between a fast and a slow
phase (a fixed loop took ~1.0 or ~1.6 ms) several times a second, and
the other vCPU did so independently. A reference loop timed before and
after a job cannot follow that.

So :class:`Sampler` samples the host's speed during the work itself.
While it is active, a ``SIGPROF`` timer interrupts the process every
``SAMPLE_INTERVAL_S`` of CPU time, and the handler times one ~1 ms
slice of fixed reference work. The reference belongs to the benchmark
and never changes with the code under test. The work's CPU seconds in a
window, less the slices, are scaled by how fast the slices in that
window ran::

    normalized = (cpu - slices) * NOMINAL_SLICE_S / mean slice

That is the work's CPU time on a host that runs a slice in
``NOMINAL_SLICE_S``. Over 150 s of three fig7 jobs run back to back, the
spread (IQR / median) of 30-job sums fell from 0.133 raw to 0.038.
"""

import heapq
import signal
import struct
import time

#: Iterations of the reference slice, and CPU seconds between slices.
SLICE_ROUNDS = 1200
SAMPLE_INTERVAL_S = 0.05
#: CPU seconds one slice took in a typical phase of the build VM. Only
#: scales the reported figures.
NOMINAL_SLICE_S = 0.0015
#: Layout of the ``(slices, seconds in slices, timer armed)`` a
#: sampler publishes.
STATS = struct.Struct("<qd?")


def normalize(cpu, in_slices, per_slice):
    """CPU seconds ``cpu`` of a window, less the ``in_slices`` seconds
    its slices took, at the reference speed, where a slice took
    ``per_slice`` seconds."""
    return (cpu - in_slices) * NOMINAL_SLICE_S / per_slice


class _Task:
    __slots__ = ("runs",)

    def __init__(self):
        self.runs = 0

    def step(self, now, draw):
        self.runs += 1
        return now + (draw & 1023) + 1


class _Slice:
    """A piece of reference work shaped like the simulator's inner loop
    (heap pops and pushes, small method calls on slotted objects, dict
    updates) that allocates no object the garbage collector tracks, so
    running it inside the work under test does not change when that
    work collects."""

    def __init__(self):
        self.tasks = [_Task() for _ in range(256)]
        self.heap = list(range(0, 4096, 16))
        self.table = dict.fromkeys(range(512), 0)

    def __call__(self):
        heap, table, tasks = self.heap, self.table, self.tasks
        state = 12345
        for _ in range(SLICE_ROUNDS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            task = tasks[state & 255]
            due = task.step(heapq.heappop(heap), state >> 7)
            heapq.heappush(heap, due & 0xFFFFF)
            key = state & 511
            table[key] = table[key] + (task.runs & 7)


class Sampler:
    """Context manager that samples the host's speed in the main thread.

    ``mark()`` starts a window; ``since(mark)`` returns the normalized
    CPU seconds of the main thread's work in it. Times come from the
    thread's CPU clock: while a process-wide CPU timer is armed, Linux
    advances the process's clock only at scheduler ticks. With
    ``publish`` (a writable buffer, such as a shared ``mmap``), every
    tick also writes the running totals there in ``STATS`` layout, for
    another process to read.
    """

    def __init__(self, interval=SAMPLE_INTERVAL_S, publish=None):
        self.interval = interval
        self.publish = publish
        self.slice = _Slice()
        self.count = 0
        self.spent = 0.0
        self._per_slice = NOMINAL_SLICE_S
        self._previous = None
        self.armed = False

    def _tick(self, _signum, _frame):
        if not self.armed:
            return  # a SIGPROF that was pending when stop() ran
        start = time.thread_time()
        self.slice()
        self.spent += time.thread_time() - start
        self.count += 1
        self._publish()

    def _publish(self):
        if self.publish is not None:
            STATS.pack_into(self.publish, 0, self.count, self.spent, self.armed)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self._publish()
        return self

    def stop(self):
        """Disarm the timer, and publish that it is disarmed."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.armed = False
        self._publish()

    def __exit__(self, *_exc):
        self.stop()
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self):
        return time.thread_time(), self.count, self.spent

    def since(self, mark):
        """Normalized CPU seconds since ``mark``. A window too short to
        hold a slice is scaled by the latest slices before it."""
        now, count, spent = time.thread_time(), self.count, self.spent
        start, count0, spent0 = mark
        slices, in_slices = count - count0, spent - spent0
        if slices:
            self._per_slice = in_slices / slices
        return normalize(now - start, in_slices, self._per_slice)
