"""Primitive actions executed by a vCPU.

Guest tasks (and kernel work items such as IRQ handlers) are generators
that yield these actions; the pCPU executor in
:mod:`repro.hypervisor.executor` interprets them against shared
guest-kernel state. Each action carries the kernel symbol its
instruction pointer sits in while executing — that symbol (``None``
means user space) is what the hypervisor-side detector resolves.

Actions are mutable: a ``Compute`` interrupted mid-way remembers its
remaining work and resumes when the vCPU is rescheduled, which is how
preempted critical sections stay preempted until accelerated.
"""

from ..errors import WorkloadError


class Action:
    """Base class; ``done`` flips when the executor finishes the action."""

    __slots__ = ("done",)
    #: Kernel symbol the IP sits in; ``None`` = user space.
    symbol = None

    def __init__(self):
        self.done = False


class Compute(Action):
    """Burn CPU for ``duration`` ns.

    ``symbol is None`` models user-level execution (subject to the
    cache-warmth speed model); otherwise it is kernel execution at the
    named symbol, charged at full speed.
    """

    # ``symbol``/``user`` are plain slots, not properties: the executor
    # reads both once per compute chunk.
    __slots__ = ("total", "remaining", "symbol", "user")

    def __init__(self, duration, symbol=None):
        super().__init__()
        if duration < 0:
            raise WorkloadError("negative compute duration %r" % (duration,))
        self.total = duration
        self.remaining = duration
        self.symbol = symbol
        self.user = symbol is None

    def consume(self, amount):
        self.remaining = max(0, self.remaining - amount)
        if self.remaining == 0:
            self.done = True

    def __repr__(self):
        return "Compute(%d/%d, %s)" % (self.remaining, self.total, self.symbol or "user")


class Acquire(Action):
    """Take a guest spinlock, spinning (and possibly PLE-yielding) while
    it is held elsewhere. ``wait_started`` persists across preemptions so
    the recorded wait latency spans the whole acquisition."""

    __slots__ = ("lock", "wait_started", "spun")

    def __init__(self, lock):
        super().__init__()
        self.lock = lock
        self.wait_started = None
        self.spun = 0

    @property
    def symbol(self):
        return self.lock.spin_symbol

    def __repr__(self):
        return "Acquire(%s)" % self.lock.name


class Release(Action):
    """Release a held spinlock (hands off to the next eligible waiter)."""

    __slots__ = ("lock",)

    def __init__(self, lock):
        super().__init__()
        self.lock = lock

    @property
    def symbol(self):
        return self.lock.unlock_symbol

    def __repr__(self):
        return "Release(%s)" % self.lock.name


class Shootdown(Action):
    """Initiate a TLB shootdown: IPI every active sibling and spin until
    all of them acknowledge. The live protocol state is attached by the
    executor on first execution and persists across preemptions."""

    __slots__ = ("op", "wait_started")

    def __init__(self):
        super().__init__()
        self.op = None
        self.wait_started = None

    @property
    def symbol(self):
        return "smp_call_function_many"

    def __repr__(self):
        return "Shootdown(op=%r)" % (self.op,)


class Sleep(Action):
    """Block the calling task on a wait queue until woken. Consumes a
    banked wakeup immediately if one is pending (level-triggered)."""

    __slots__ = ("waitq",)

    def __init__(self, waitq):
        super().__init__()
        self.waitq = waitq

    def __repr__(self):
        return "Sleep(%s)" % self.waitq.name


class Wake(Action):
    """Wake one sleeper of ``waitq`` (try-to-wake-up). A cross-vCPU wake
    sends a reschedule IPI; the default is fire-and-forget (the woken
    task only starts once the recipient vCPU processes the IPI), while
    ``sync=True`` makes the initiator spin for the acknowledgment (the
    ``smp_call_function_single`` wait behaviour), possibly yielding."""

    __slots__ = ("waitq", "sync", "op", "wait_started")

    def __init__(self, waitq, sync=False):
        super().__init__()
        self.waitq = waitq
        self.sync = sync
        self.op = None
        self.wait_started = None

    @property
    def symbol(self):
        return "ttwu_do_activate"

    def __repr__(self):
        return "Wake(%s, sync=%s)" % (self.waitq.name, self.sync)


class SmpCallSingle(Action):
    """A synchronous cross-CPU function call
    (``smp_call_function_single``): IPI one sibling vCPU and spin until
    its handler acknowledges (``csd_lock_wait``). The paper's §3.1
    identifies this wait as a major yield source."""

    __slots__ = ("target_index", "op", "wait_started")

    def __init__(self, target_index=None):
        super().__init__()
        self.target_index = target_index
        self.op = None
        self.wait_started = None

    @property
    def symbol(self):
        return "smp_call_function_single"

    def __repr__(self):
        return "SmpCallSingle(%r)" % (self.target_index,)


class GYield(Action):
    """Guest-level cooperative yield: let the in-guest scheduler pick
    another runnable task on this vCPU."""

    __slots__ = ()

    def __repr__(self):
        return "GYield()"


class Emit(Action):
    """Run a zero-duration side effect ``fn(now_ns)`` (metrics hooks,
    sending a network ack to the external client model, ...). ``cost``
    nanoseconds of kernel time are charged first."""

    __slots__ = ("fn", "cost", "symbol")

    def __init__(self, fn, cost=0, symbol=None):
        super().__init__()
        self.fn = fn
        self.cost = cost
        self.symbol = symbol

    def __repr__(self):
        return "Emit(cost=%d)" % self.cost
