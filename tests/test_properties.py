"""Property-based tests (hypothesis) for core data structures and
invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.guest.spinlock import PAGE_ALLOC, PARKED, SPINNING, WAITING, SpinLock
from repro.guest.symbols import KERNEL_TEXT_BASE, USER_IP, Symbol, SymbolTable, build_table
from repro.guest.waitqueue import WaitQueue
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyStat
from repro.sched.balance import BalanceScheduler
from repro.sched.base import _PRIORITIES
from repro.sched.credit import CreditScheduler
from repro.sim.engine import Interrupt, Simulator
from repro.sim.rng import RngHub


class _RefEntry:
    __slots__ = ("time", "seq", "fn", "arg", "live")

    def __init__(self, time, seq, fn, arg):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.arg = arg
        self.live = True


class _RefSim:
    """The engine's contract with nothing optimised: one list, sorted
    by ``(time, seq)`` before every pop. Every schedule takes the next
    sequence number, and dead entries never move the clock."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.pending = []
        self.executed = 0

    def schedule(self, delay, fn, arg=None):
        self.seq += 1
        entry = _RefEntry(self.now + delay, self.seq, fn, arg)
        self.pending.append(entry)
        return entry

    def run(self, until=None):
        while True:
            self.pending.sort(key=lambda e: (e.time, e.seq))
            while self.pending and not self.pending[0].live:
                self.pending.pop(0)
            if not self.pending:
                break
            entry = self.pending[0]
            if until is not None and entry.time > until:
                break
            self.pending.pop(0)
            self.now = entry.time
            entry.live = False
            self.executed += 1
            entry.fn(entry.arg)
        if until is not None and self.now < until:
            self.now = until
        return self.now


class _RefProcess:
    """Process semantics spelled out plainly: a wait is one timer entry
    whose firing schedules one zero-delay resume; an interrupt cancels
    the timer if it has not fired and schedules one step."""

    def __init__(self, sim, gen):
        self.sim = sim
        self.gen = gen
        self.alive = True
        self.begun = False
        self.wait = None
        self.interrupt_pending = None
        self.resume_scheduled = True
        sim.schedule(0, self.step)

    def interrupt(self, cause):
        if not self.alive:
            return
        if self.interrupt_pending is not None:
            self.interrupt_pending.add_cause(cause)
            return
        self.interrupt_pending = Interrupt(cause)
        if self.wait is not None:
            self.wait.live = False  # no-op once the timer has fired
            self.wait = None
        if not self.resume_scheduled:
            self.resume_scheduled = True
            self.sim.schedule(0, self.step)

    def step(self, _arg=None):
        self.resume_scheduled = False
        exc, self.interrupt_pending = self.interrupt_pending, None
        if exc is not None and not self.begun:
            # Deliver at the first yield: a fresh generator cannot catch.
            self.interrupt_pending, exc = exc, None
        self.begun = True
        try:
            kind, delay = self.gen.throw(exc) if exc is not None else self.gen.send(None)
        except StopIteration:
            self.alive = False
            return
        if self.interrupt_pending is not None:
            # Interrupted before the first yield: the wait never starts.
            # A Timeout object was already armed and still fires (waking
            # nobody); a bare-int wait only consumes its sequence number.
            if kind == "timeout":
                self.sim.schedule(delay, lambda _arg: None)
            else:
                self.sim.seq += 1
            if not self.resume_scheduled:
                self.resume_scheduled = True
                self.sim.schedule(0, self.step)
            return
        entry = self.wait = self.sim.schedule(delay, self.fire)
        entry.arg = entry

    def fire(self, entry):
        if self.wait is entry:
            self.sim.schedule(0, self.resume, entry)

    def resume(self, entry):
        if self.wait is entry and self.alive:
            self.wait = None
            self.step()


class _EngineApi:
    def __init__(self):
        self.sim = Simulator()
        self.procs = []

    def now(self):
        return self.sim.now

    def schedule(self, delay, fn, arg):
        return self.sim.schedule(delay, fn, arg)

    def cancel(self, handle):
        handle.cancel()

    def wait(self, kind, delay):
        return delay if kind == "int" else self.sim.timeout(delay)

    def process(self, gen):
        self.procs.append(self.sim.process(gen))

    def interrupt(self, index, cause):
        self.procs[index].interrupt(cause)

    def run(self, until=None):
        return self.sim.run(until=until)

    def executed(self):
        return self.sim.executed_events


class _ReferenceApi(_EngineApi):
    def __init__(self):
        self.sim = _RefSim()
        self.procs = []

    def cancel(self, handle):
        handle.live = False

    def wait(self, kind, delay):
        return (kind, delay)

    def process(self, gen):
        self.procs.append(_RefProcess(self.sim, gen))

    def executed(self):
        return self.sim.executed


def _play(api, nodes, procs, fillers, until):
    """Run one random program; returns ``(firings, clocks, executed)``.

    Node ``j`` is ``(delay, parent, cancels, interrupts, cancel_all)``:
    scheduled at setup when ``parent`` is None, else by its parent's
    callback. When it fires it logs itself, schedules its children,
    cancels the handles it names (or every handle scheduled so far,
    enough to force a mid-run compaction), and interrupts processes.
    ``fillers`` more timers are scheduled at setup as cancellation
    fodder."""
    log = []
    handles = {}
    for index in range(fillers):
        handles[("filler", index)] = api.schedule(
            9 + index * 37 % 50, log.append, ("filler", index)
        )
    children = {j: [] for j in range(len(nodes))}
    roots = []
    for j, node in enumerate(nodes):
        parent = node[1]
        if parent is None or j == 0:
            roots.append(j)
        else:
            children[parent % j].append(j)

    def fire(j):
        log.append(("cb", j, api.now()))
        _delay, _parent, cancels, interrupts, cancel_all = nodes[j]
        for child in children[j]:
            handles[child] = api.schedule(nodes[child][0], fire, child)
        keys = list(handles)
        for target in cancels:
            api.cancel(handles[keys[target % len(keys)]])
        for index in interrupts:
            if procs:
                api.interrupt(index % len(procs), j)
        if cancel_all:
            for handle in handles.values():
                api.cancel(handle)

    def body(index, waits):
        for step, (kind, delay) in enumerate(waits):
            try:
                yield api.wait(kind, delay)
                log.append(("wake", index, step, api.now()))
            except Interrupt as intr:
                log.append(("intr", index, step, api.now(), len(intr.causes)))

    for j in roots:
        handles[j] = api.schedule(nodes[j][0], fire, j)
    for index, waits in enumerate(procs):
        api.process(body(index, waits))
    clocks = []
    if until is not None:
        clocks.append(api.run(until))
    clocks.append(api.run())
    return log, clocks, api.executed()


_DELAY = st.one_of(st.just(0), st.integers(min_value=1, max_value=8))
_NODES = st.lists(
    st.tuples(
        _DELAY,
        st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
        st.lists(st.integers(min_value=0, max_value=100), max_size=3),
        st.lists(st.integers(min_value=0, max_value=3), max_size=2),
        st.integers(min_value=0, max_value=7).map(lambda n: n == 0),
    ),
    min_size=1,
    max_size=40,
)
_PROCS = st.lists(
    st.lists(st.tuples(st.sampled_from(["int", "timeout"]), _DELAY), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
)


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_callbacks_observe_monotonic_time(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda _a: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(
        st.lists(st.integers(min_value=1, max_value=1_000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_run_until_never_overshoots(self, delays, limit):
        sim = Simulator()
        fired = []
        total = 0
        for delay in delays:
            total += delay
            sim.schedule(total, lambda _a: fired.append(sim.now))
        sim.run(until=limit)
        assert all(t <= limit for t in fired)
        assert sim.now == max(limit, 0) or sim.now <= limit

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_process_timeout_sum(self, waits):
        sim = Simulator()

        def proc():
            for wait in waits:
                yield sim.timeout(wait)

        p = sim.process(proc())
        sim.run()
        assert p.state == "finished"
        assert sim.now == sum(waits)

    @given(
        _NODES,
        _PROCS,
        st.integers(min_value=0, max_value=24),
        st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
    )
    # A timer wait due at the same instant as a later-armed callback:
    # the direct trampoline dispatch must wait for the callback.
    @example(
        nodes=[(2, None, [], [], False), (2, 0, [], [], True)],
        procs=[[("int", 4)]],
        fillers=0,
        until=None,
    )
    # A compaction that leaves live entries scattered through the heap.
    @example(
        nodes=[(3, None, [], [], True)],
        procs=[[("int", 1), ("int", 8)], [("int", 2), ("int", 7)], [("int", 3)]],
        fillers=16,
        until=None,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_sorted_list_loop(self, nodes, procs, fillers, until):
        """The engine's fast paths (now lane, heap, lazy cancellation,
        compaction, handle-free timer waits, direct trampoline
        dispatch) against the naive loop in :class:`_RefSim`: same
        firings at the same times, same clocks, same event count."""
        assert _play(_EngineApi(), nodes, procs, fillers, until) == _play(
            _ReferenceApi(), nodes, procs, fillers, until
        )


class TestLatencyStatProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_min_mean_max_ordering(self, values):
        stat = LatencyStat()
        for value in values:
            stat.record(value)
        assert stat.min <= stat.mean <= stat.max
        assert stat.count == len(values)
        assert stat.min == min(values)
        assert stat.max == max(values)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_monotone_and_bounded(self, values):
        stat = LatencyStat()
        for value in values:
            stat.record(value)
        p25, p50, p99 = (stat.percentile(q) for q in (25, 50, 99))
        assert stat.min <= p25 <= p50 <= p99 <= stat.max


class TestSymbolTableProperties:
    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=16),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_total_lookup(self, names):
        table = build_table(names)
        parsed = SymbolTable.from_system_map(table.to_system_map())
        for name in names:
            addr = table.addr_of(name)
            assert parsed.resolve_name(addr) == name
            assert table.resolve_name(addr + 0x3FF) == name
            assert table.resolve_name(addr - 1) in (None, *names)


def _plain_lookup(table, address):
    """The symbol containing ``address`` by a linear walk of the table."""
    if address is None or address < KERNEL_TEXT_BASE:
        return None
    for symbol in table:
        if symbol.address <= address < symbol.end:
            return symbol
    return None


#: Slot width for the memoised-lookup test: slot ``i`` starts at
#: ``base + i * _SLOT``.
_SLOT = 0x1000


def _slot_addresses(start, size):
    """Probe addresses around a slot: start, middle, last byte, end (a
    gap, or the next slot's start when ``size`` fills the slot)."""
    return [start, start + size // 2, start + size - 1, start + size]


class TestMemoisedSymbolLookup:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_lookup(self, data):
        """``SymbolTable.lookup`` memoises address -> symbol; it must
        answer exactly like a plain walk, including for addresses first
        resolved before the symbol covering them was added."""
        # The text either starts with a symbol or with a hole below it.
        base = KERNEL_TEXT_BASE + data.draw(st.sampled_from([0, _SLOT]))
        sizes = data.draw(st.lists(st.integers(1, _SLOT), min_size=1, max_size=8))
        order = data.draw(st.permutations(range(len(sizes))))
        probes = [None, USER_IP, KERNEL_TEXT_BASE - 1, KERNEL_TEXT_BASE, base - 1]
        for index, size in enumerate(sizes):
            probes += _slot_addresses(base + index * _SLOT, size)
        table = SymbolTable()
        pending = list(order)
        script = data.draw(
            st.lists(st.one_of(st.just("add"), st.sampled_from(probes)), max_size=60)
        )
        for step in script + ["add"] * len(pending) + probes:
            if step == "add":
                if pending:
                    index = pending.pop(0)
                    start = base + index * _SLOT
                    table.add(Symbol("s%d" % index, start, size=sizes[index]))
                continue
            expected = _plain_lookup(table, step)
            assert table.lookup(step) is expected
            assert table.resolve_name(step) == (expected.name if expected else None)


class _Info:
    def __init__(self, index):
        self.index = index


class _SchedPCpu:
    def __init__(self, index):
        self.info = _Info(index)
        self.current = None
        self.preempt_requested = False

    def tickle(self):
        pass

    def request_preempt(self):
        self.preempt_requested = True


class _SchedVcpu:
    def __init__(self, name, domain, affinity):
        self.name = name
        self.domain = domain
        self.credits = 1000
        self.priority = None
        self.affinity = affinity
        self.yield_flag = False
        self.last_pcpu = None
        self.runq_pcpu = None


class _SchedDomain:
    def __init__(self, name):
        self.name = name
        self.weight = 256
        self.vcpus = []


class _SchedPool:
    name = "normal"

    def __init__(self, pcpus):
        self.pcpus = pcpus


def _plain_depth(scheduler, pcpu):
    return sum(len(queue) for queue in scheduler._runqs[pcpu].values())


def _plain_eligible(vcpu, pcpu):
    return vcpu.affinity is None or pcpu.info.index in vcpu.affinity


def _plain_queued_sibling(scheduler, vcpu, pcpu):
    return any(
        other is not vcpu and other.domain is vcpu.domain
        for queue in scheduler._runqs[pcpu].values()
        for other in queue
    )


def _plain_credit_target(scheduler, vcpu):
    """credit1 placement with nothing optimised: the last-ran pCPU when
    it is in the pool and eligible, else the first of the shallowest
    eligible runqueues, re-summing every queue of every pCPU."""
    last = vcpu.last_pcpu
    if last in scheduler._runqs and _plain_eligible(vcpu, last):
        return last
    eligible = [p for p in scheduler._runqs if _plain_eligible(vcpu, p)]
    if not eligible:
        raise SchedulerError("no eligible pCPU")
    return min(eligible, key=lambda p: _plain_depth(scheduler, p))


def _plain_balance_target(scheduler, vcpu):
    """Balance placement: the last-ran pCPU unless a sibling is queued
    there, else the shallowest pCPU with no sibling running or queued,
    else credit1 placement."""
    last = vcpu.last_pcpu
    if (
        last in scheduler._runqs
        and _plain_eligible(vcpu, last)
        and not _plain_queued_sibling(scheduler, vcpu, last)
    ):
        return last
    free = [
        p
        for p in scheduler._runqs
        if _plain_eligible(vcpu, p)
        and not (
            p.current is not None
            and p.current is not vcpu
            and p.current.domain is vcpu.domain
        )
        and not _plain_queued_sibling(scheduler, vcpu, p)
    ]
    if free:
        return min(free, key=lambda p: _plain_depth(scheduler, p))
    return _plain_credit_target(scheduler, vcpu)


def _plain_take_eligible(queue, eligible):
    """The one-shot yield-flag pass-over as one plain loop: take the
    first eligible unflagged vCPU, clearing the flags of the flagged
    ones passed over; else the first eligible flagged one, flag
    cleared. No lone-vCPU shortcut."""
    flagged = None
    skipped = []
    for position, vcpu in enumerate(queue):
        if not eligible(vcpu):
            continue
        if vcpu.yield_flag:
            skipped.append(vcpu)
            if flagged is None:
                flagged = vcpu
            continue
        del queue[position]
        vcpu.runq_pcpu = None
        for passed in skipped:
            passed.yield_flag = False
        return vcpu
    if flagged is not None:
        queue.remove(flagged)
        flagged.runq_pcpu = None
        flagged.yield_flag = False
        return flagged
    return None


class _PlainQueues:
    """Reference ``_place``, ``remove`` and picks: placement through the
    subclass's plain ``target`` function, removal by searching every
    runqueue, and a pick that runs the plain yield-flag loop on every
    priority queue (empty ones included) with a closure per queue."""

    def take_eligible(self, queue, eligible):
        return _plain_take_eligible(queue, eligible)

    def _pick_from(self, owner, runner):
        queues = self._runqs.get(owner)
        if queues is None:
            return None
        for priority in _PRIORITIES:
            vcpu = self.take_eligible(
                queues[priority], lambda v: _plain_eligible(v, runner)
            )
            if vcpu is not None:
                return vcpu
        return None

    def _place(self, vcpu, priority):
        target = self.target(self, vcpu)
        self._runqs[target][priority].append(vcpu)
        vcpu.runq_pcpu = target
        return target

    def remove(self, vcpu):
        for queues in self._runqs.values():
            for priority in _PRIORITIES:
                if vcpu in queues[priority]:
                    queues[priority].remove(vcpu)
                    vcpu.runq_pcpu = None
                    return True
        return False


class _PlainCredit(_PlainQueues, CreditScheduler):
    target = staticmethod(_plain_credit_target)


class _PlainBalance(_PlainQueues, BalanceScheduler):
    target = staticmethod(_plain_balance_target)


class _SchedWorld:
    """One scheduler over fake pCPUs and vCPUs, driven by index so two
    worlds can replay the same script."""

    def __init__(self, cls, num_pcpus, domain_sizes, affinities):
        self.scheduler = cls(Simulator(), slice_jitter=0)
        self.pcpus = [_SchedPCpu(i) for i in range(num_pcpus)]
        # Never registered: a last-ran pCPU from another pool.
        self.outside = _SchedPCpu(num_pcpus)
        self.scheduler.pool = _SchedPool(self.pcpus)
        for pcpu in self.pcpus:
            self.scheduler.register_pcpu(pcpu)
        self.domains = []
        self.vcpus = []
        masks = iter(affinities)
        for d, size in enumerate(domain_sizes):
            domain = _SchedDomain("d%d" % d)
            for v in range(size):
                vcpu = _SchedVcpu("d%d.v%d" % (d, v), domain, next(masks))
                domain.vcpus.append(vcpu)
                self.vcpus.append(vcpu)
            self.domains.append(domain)

    def _pcpu(self, index):
        return self.outside if index >= len(self.pcpus) else self.pcpus[index]

    def _free(self, vcpu):
        return vcpu not in self.scheduler.queued() and all(
            p.current is not vcpu for p in self.pcpus
        )

    def step(self, op):
        """Apply one scripted operation; returns its outcome by name."""
        scheduler = self.scheduler
        kind, args = op[0], op[1:]
        try:
            if kind in ("enqueue", "requeue", "wake"):
                vcpu = self.vcpus[args[0]]
                if not self._free(vcpu):
                    return "skip"
                if kind == "enqueue":
                    scheduler.enqueue(vcpu, boost=args[1], yielded=args[2])
                elif kind == "requeue":
                    scheduler.requeue(vcpu, yielded=args[1])
                else:
                    scheduler.wake(vcpu)
                return vcpu.runq_pcpu.info.index
            if kind == "pick":
                pcpu = self.pcpus[args[0]]
                if pcpu.current is not None:
                    return "skip"
                vcpu = scheduler.pick(pcpu)
                if vcpu is None:
                    scheduler.add_idle(pcpu)
                    return None
                scheduler.remove_idle(pcpu)
                pcpu.current = vcpu
                pcpu.preempt_requested = False
                vcpu.last_pcpu = pcpu
                return vcpu.name
            if kind == "stop":
                pcpu = self.pcpus[args[0]]
                vcpu, pcpu.current = pcpu.current, None
                if vcpu is not None and args[1] != "block":
                    scheduler.requeue(vcpu, yielded=args[1] == "yield")
                return vcpu.name if vcpu is not None else None
            if kind == "remove":
                vcpu = self.vcpus[args[0]]
                if args[1] != "home" and vcpu.runq_pcpu is not None:
                    # No home runqueue, or one outside the pool: remove
                    # must search them all.
                    vcpu.runq_pcpu = self.outside if args[1] == "outside" else None
                return scheduler.remove(vcpu)
            if kind == "account":
                scheduler.account(self.domains, len(self.pcpus))
                return None
            if kind == "charge":
                scheduler.charge(self.vcpus[args[0]], args[1])
                return None
            if kind == "last":
                self.vcpus[args[0]].last_pcpu = self._pcpu(args[1])
                return None
            raise AssertionError(kind)
        except SchedulerError:
            return "SchedulerError"

    def snapshot(self):
        scheduler = self.scheduler
        return (
            [
                [[v.name for v in scheduler._runqs[p][prio]] for prio in _PRIORITIES]
                for p in self.pcpus
            ],
            [
                (_index(v.runq_pcpu), v.priority, v.yield_flag, v.credits)
                for v in self.vcpus
            ],
            [(p.current and p.current.name, p.preempt_requested) for p in self.pcpus],
            [_index(p) for p in scheduler._idle],
            scheduler.queue_depth(),
        )


def _index(pcpu):
    return None if pcpu is None else pcpu.info.index


def _sched_scripts(draw, num_pcpus, num_vcpus):
    vcpu = st.integers(0, num_vcpus - 1)
    pcpu = st.integers(0, num_pcpus - 1)
    op = st.one_of(
        st.tuples(st.just("enqueue"), vcpu, st.booleans(), st.booleans()),
        st.tuples(st.just("requeue"), vcpu, st.booleans()),
        st.tuples(st.just("wake"), vcpu),
        st.tuples(st.just("pick"), pcpu),
        st.tuples(st.just("stop"), pcpu, st.sampled_from(["requeue", "yield", "block"])),
        st.tuples(st.just("remove"), vcpu, st.sampled_from(["home", "none", "outside"])),
        st.tuples(st.just("account")),
        st.tuples(st.just("charge"), vcpu, st.integers(-2000, 4000)),
        st.tuples(st.just("last"), vcpu, st.integers(0, num_pcpus)),
    )
    return draw(st.lists(op, min_size=1, max_size=80))


class TestSchedulerPlacementProperties:
    @pytest.mark.parametrize(
        "fast, plain",
        [(CreditScheduler, _PlainCredit), (BalanceScheduler, _PlainBalance)],
        ids=["credit", "balance"],
    )
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_plain_placement(self, fast, plain, data):
        """Inline depth, early exit on an empty runqueue, one affinity
        read, the home-queue ``remove`` and the picks (empty priority
        queues skipped, a lone queued vCPU taken directly, yield-flagged
        or not) against plain references: after every step the outcome,
        every runqueue and every vCPU's home, priority, yield flag and
        credits agree."""
        num_pcpus = data.draw(st.integers(1, 8), label="pcpus")
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="domains")
        mask = st.one_of(
            st.none(), st.frozensets(st.integers(0, num_pcpus), max_size=num_pcpus + 1)
        )
        affinities = data.draw(st.lists(mask, min_size=sum(sizes), max_size=sum(sizes)))
        script = _sched_scripts(data.draw, num_pcpus, sum(sizes))
        worlds = [
            _SchedWorld(cls, num_pcpus, sizes, affinities) for cls in (fast, plain)
        ]
        for op in script:
            outcomes = [world.step(op) for world in worlds]
            assert outcomes[0] == outcomes[1], op
            assert worlds[0].snapshot() == worlds[1].snapshot(), op


class _FlagVcpu:
    def __init__(self, index, yield_flag, eligible):
        self.index = index
        self.yield_flag = yield_flag
        self.eligible = eligible
        self.runq_pcpu = "home"


class TestTakeEligibleProperties:
    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=6),
        st.integers(1, 3),
    )
    @settings(max_examples=400, deadline=None)
    @example([(True, True)], 1)
    @example([(True, False)], 1)
    @example([(False, True)], 1)
    @example([(True, True), (True, True)], 2)
    @example([(True, True), (False, True), (True, True)], 3)
    def test_matches_plain_loop(self, flags, rounds):
        """``Scheduler.take_eligible`` (shared by credit, balance,
        credit2 and cosched) against the plain loop, over random queues
        of yield-flagged and unflagged, eligible and ineligible vCPUs,
        taking ``rounds`` picks from the same queue: every pick, the
        queue left behind and every flag and home agree."""
        scheduler = CreditScheduler(Simulator(), slice_jitter=0)
        worlds = [
            [_FlagVcpu(i, flag, ok) for i, (flag, ok) in enumerate(flags)]
            for _ in range(2)
        ]
        queues = [list(world) for world in worlds]
        for _ in range(rounds):
            fast = scheduler.take_eligible(queues[0], lambda v: v.eligible)
            plain = _plain_take_eligible(queues[1], lambda v: v.eligible)
            assert getattr(fast, "index", None) == getattr(plain, "index", None)
            assert [v.index for v in queues[0]] == [v.index for v in queues[1]]
            assert [(v.yield_flag, v.runq_pcpu) for v in worlds[0]] == [
                (v.yield_flag, v.runq_pcpu) for v in worlds[1]
            ]


class TestWaitQueueProperties:
    @given(st.lists(st.sampled_from(["wake", "sleep"]), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_wakeups_never_lost_or_invented(self, ops):
        queue = WaitQueue()
        wakes = delivered = sleeps = 0
        sleeping = 0
        for op in ops:
            if op == "wake":
                wakes += 1
                task = queue.pop_sleeper()
                if task is not None:
                    delivered += 1
                    sleeping -= 1
            else:
                sleeps += 1
                if not queue.try_consume():
                    queue.add_sleeper(object())
                    sleeping += 1
                else:
                    delivered += 1
        # Every wake either woke a sleeper, was consumed, or is banked.
        assert delivered + queue.banked == wakes
        assert queue.waiting == sleeping


class TestCounterProperties:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 100)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_window_delta_equals_increment_sum(self, increments):
        counters = CounterSet()
        counters.inc("a", 5)
        counters.mark_window()
        expected = {}
        for name, amount in increments:
            counters.inc(name, amount)
            expected[name] = expected.get(name, 0) + amount
        for name in "abc":
            assert counters.window_delta(name) == expected.get(name, 0)


class TestSpinlockProperties:
    class _Vcpu:
        def __init__(self, ident):
            self.ident = ident

        def notify(self, cause):
            pass

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_single_holder_invariant(self, script):
        """Random acquire/release/park/spin transitions never produce two
        simultaneous owners and never lose the lock."""

        class _Kernel:
            def pv_kick(self, vcpu):
                pass

        lock = SpinLock("l", PAGE_ALLOC, kernel=_Kernel())
        vcpus = [self._Vcpu(i) for i in range(4)]
        owner = None
        for step, choice in enumerate(script):
            vcpu = vcpus[choice]
            if owner is None and lock.try_acquire(vcpu):
                owner = vcpu
                continue
            if vcpu is owner:
                grantee = lock.release(vcpu)
                owner = None
                if grantee is not None:
                    lock.finish_grant(grantee)
                    owner = grantee
                continue
            waiter = lock.add_waiter(vcpu)
            waiter.state = (SPINNING, PARKED, WAITING)[step % 3]
        if owner is not None:
            assert lock.owned_by(owner)
        assert lock.waiter_count() <= len(vcpus)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_streams_deterministic(self, seed, name):
        a = RngHub(seed).stream(name).random()
        b = RngHub(seed).stream(name).random()
        assert a == b
