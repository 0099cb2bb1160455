"""Integration tests for the pCPU executor: action semantics under
real scheduling."""

from repro.guest.actions import Acquire, Compute, Emit, GYield, Release, Shootdown, Sleep, Wake
from repro.guest.spinlock import PAGE_ALLOC
from repro.guest.waitqueue import WaitQueue
from repro.hw.ple import PleConfig
from repro.sim.time import ms, us

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestComputeExecution:
    def test_compute_advances_work(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        done = {"n": 0}

        def program():
            while True:
                yield Compute(us(100))
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(10))
        # ~10ms of CPU, 100us chunks at cold-to-warm cache speed.
        assert 60 <= done["n"] <= 100

    def test_kernel_compute_full_speed(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        done = {"n": 0}

        def program():
            while True:
                yield Compute(us(100), symbol="do_syscall_64")
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(10))
        # Kernel work is not slowed by cache warmth.
        assert done["n"] >= 95

    def test_slice_expiry_rotates_vcpus(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        spawn_task(domain.vcpus[0], spin_program())
        spawn_task(domain.vcpus[1], spin_program())
        hv.start()
        sim.run(until=ms(100))
        ran = [v.total_ran for v in domain.vcpus]
        assert min(ran) > 0
        assert min(ran) / max(ran) > 0.5  # roughly fair

    def test_emit_side_effect_runs_at_sim_time(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        stamps = []

        def program():
            yield Compute(us(50), symbol="do_syscall_64")
            yield Emit(stamps.append, cost=us(1), symbol="do_syscall_64")
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(1))
        assert len(stamps) == 1
        assert stamps[0] >= us(51)

    def test_task_exit_leaves_vcpu_idle(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)

        def program():
            yield Compute(us(10))

        task = spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(5))
        assert task.state == "exited"
        assert domain.vcpus[0].state == "blocked"


class TestLockExecution:
    def test_uncontended_lock_section(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        lock = domain.kernel.lock(PAGE_ALLOC)
        done = {"n": 0}

        def program():
            while True:
                yield Acquire(lock)
                yield Compute(us(2), symbol=lock.cs_symbol)
                yield Release(lock)
                yield Compute(us(50))
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(5))
        assert done["n"] > 40
        assert not lock.held

    def test_mutual_exclusion_invariant(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        lock = domain.kernel.lock(PAGE_ALLOC)
        inside = {"count": 0, "max": 0, "violations": 0}

        def enter(_now):
            inside["count"] += 1
            inside["max"] = max(inside["max"], inside["count"])
            if inside["count"] > 1:
                inside["violations"] += 1

        def leave(_now):
            inside["count"] -= 1

        def program():
            while True:
                yield Acquire(lock)
                yield Emit(enter, symbol=lock.cs_symbol)
                yield Compute(us(3), symbol=lock.cs_symbol)
                yield Emit(leave, symbol=lock.cs_symbol)
                yield Release(lock)
                yield Compute(us(10))

        for vcpu in domain.vcpus:
            spawn_task(vcpu, lambda: program())
        hv.start()
        sim.run(until=ms(20))
        assert inside["violations"] == 0
        assert inside["max"] == 1

    def test_contended_lock_makes_progress_with_preemption(self):
        """Two VMs × 2 vCPUs on 2 pCPUs; the lock-holder gets preempted
        but every waiter eventually acquires."""
        sim, hv = make_hv(num_pcpus=2)
        vm1 = make_domain(hv, name="vm1", vcpus=2)
        vm2 = make_domain(hv, name="vm2", vcpus=2)
        lock = vm1.kernel.lock(PAGE_ALLOC)
        done = {"n": 0}

        def locker():
            while True:
                yield Acquire(lock)
                yield Compute(us(3), symbol=lock.cs_symbol)
                yield Release(lock)
                yield Compute(us(30))
                done["n"] += 1

        for vcpu in vm1.vcpus:
            spawn_task(vcpu, lambda: locker())
        for vcpu in vm2.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(200))
        assert done["n"] > 100
        assert lock.waiter_count() <= 2

    def test_lock_wait_recorded_for_contended_acquisition(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        lock = domain.kernel.lock(PAGE_ALLOC)

        def hot():
            while True:
                yield Acquire(lock)
                yield Compute(us(20), symbol=lock.cs_symbol)
                yield Release(lock)

        for vcpu in domain.vcpus:
            spawn_task(vcpu, lambda: hot())
        hv.start()
        sim.run(until=ms(10))
        stat = domain.kernel.lockstat.stat("page_alloc")
        assert stat is not None and stat.count > 0


class TestPleAndPark:
    def test_long_wait_triggers_ple_yield(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        lock = domain.kernel.lock(PAGE_ALLOC)

        def holder():
            yield Acquire(lock)
            yield Compute(ms(50), symbol=lock.cs_symbol)  # very long CS
            yield Release(lock)
            while True:
                yield Compute(us(100))

        def waiter():
            yield Compute(us(5))
            yield Acquire(lock)
            yield Release(lock)
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: holder())
        spawn_task(domain.vcpus[1], lambda: waiter())
        hv.start()
        sim.run(until=ms(200))
        assert hv.stats.counters.get("yield_spinlock") >= 1
        assert not lock.held

    def test_ple_disabled_spins_to_slice_end(self):
        sim, hv = make_hv(num_pcpus=1, ple=PleConfig(enabled=False))
        domain = make_domain(hv, vcpus=2)
        lock = domain.kernel.lock(PAGE_ALLOC)

        def holder():
            yield Acquire(lock)
            yield Compute(ms(50), symbol=lock.cs_symbol)
            yield Release(lock)

        def waiter():
            yield Compute(us(5))
            yield Acquire(lock)
            yield Release(lock)

        spawn_task(domain.vcpus[0], lambda: holder())
        spawn_task(domain.vcpus[1], lambda: waiter())
        hv.start()
        sim.run(until=ms(200))
        assert hv.stats.counters.get("yield_spinlock") == 0


class TestSleepWakeExecution:
    def test_cross_vcpu_wake_via_resched_ipi(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        queue = WaitQueue()
        woken = []

        def sleeper():
            yield Sleep(queue)
            yield Emit(woken.append)
            while True:
                yield Compute(us(100))

        def waker():
            yield Compute(us(50))
            yield Wake(queue)
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: sleeper(), name="sleeper")
        spawn_task(domain.vcpus[1], lambda: waker(), name="waker")
        hv.start()
        sim.run(until=ms(5))
        assert len(woken) == 1
        assert woken[0] < ms(1)  # wake arrives within the IPI path latency
        assert hv.stats.counters.get("vipi_resched") == 1

    def test_sync_wake_waits_for_ack(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        queue = WaitQueue()
        marks = []

        def sleeper():
            yield Sleep(queue)
            while True:
                yield Compute(us(100))

        def waker():
            yield Compute(us(10))
            yield Wake(queue, sync=True)
            yield Emit(lambda now: marks.append(now))
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: sleeper())
        spawn_task(domain.vcpus[1], lambda: waker())
        hv.start()
        sim.run(until=ms(5))
        # The waker resumed only after the recipient processed the IPI.
        assert marks and marks[0] >= us(10) + hv.costs.ipi_deliver + hv.costs.ipi_handle

    def test_gyield_rotates_guest_tasks(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        order = []

        def chatty(tag):
            def gen():
                while True:
                    yield Compute(us(10))
                    yield Emit(lambda now, t=tag: order.append(t))
                    yield GYield()

            return gen

        spawn_task(domain.vcpus[0], chatty("a"))
        spawn_task(domain.vcpus[0], chatty("b"))
        hv.start()
        sim.run(until=ms(1))
        assert "a" in order and "b" in order
        # Strict alternation thanks to GYield.
        assert all(x != y for x, y in zip(order, order[1:]))


class TestShootdownExecution:
    def test_shootdown_completes_with_running_targets(self):
        sim, hv = make_hv(num_pcpus=4)
        domain = make_domain(hv, vcpus=3)
        completions = []

        def initiator():
            yield Compute(us(20))
            yield Shootdown()
            yield Emit(completions.append)
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: initiator())
        for vcpu in domain.vcpus[1:]:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(5))
        assert len(completions) == 1
        assert domain.kernel.tlb.sync_latency.count == 1
        assert domain.kernel.tlb.sync_latency.mean < us(100)

    def test_shootdown_with_preempted_target_is_slow(self):
        sim, hv = make_hv(num_pcpus=1)  # 3 vCPUs share one pCPU
        domain = make_domain(hv, vcpus=3)

        def initiator():
            yield Compute(us(20))
            yield Shootdown()
            while True:
                yield Compute(us(100))

        spawn_task(domain.vcpus[0], lambda: initiator())
        for vcpu in domain.vcpus[1:]:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(200))
        stats = domain.kernel.tlb.sync_latency
        assert stats.count >= 1
        assert stats.mean > us(500)
        assert hv.stats.counters.get("yield_ipi", 0) >= 1


class TestIpiAckSpin:
    """The initiator's spin on IPI acks (``Shootdown``, ``Wake(sync=True)``,
    ``SmpCallSingle``): one PLE window at a time, yielding the pCPU
    when a window runs out with acks still pending."""

    @staticmethod
    def _record_stops(hv):
        stops = []
        deschedule = hv.on_deschedule

        def recording(vcpu, stop, runtime):
            stops.append((vcpu.name, stop[0], runtime))
            deschedule(vcpu, stop, runtime)

        hv.on_deschedule = recording
        return stops

    @staticmethod
    def _initiator(done):
        def gen():
            yield Compute(us(20))
            yield Shootdown()
            yield Emit(done.append)
            while True:
                yield Compute(us(100))

        return gen

    def test_shootdown_without_ple_spins_to_slice_end(self):
        sim, hv = make_hv(num_pcpus=1, ple=PleConfig(enabled=False))
        domain = make_domain(hv, vcpus=2)
        stops = self._record_stops(hv)
        done = []
        spawn_task(domain.vcpus[0], self._initiator(done))
        spawn_task(domain.vcpus[1], spin_program())
        hv.start()
        sim.run(until=ms(100))
        # The preempted target cannot ack, so the initiator burns its
        # whole slice spinning and is descheduled by the slice end.
        assert stops[0][:2] == ("vm.v0", "slice")
        assert stops[0][2] >= ms(25)
        assert hv.stats.counters.get("yield_ipi") == 0
        # The target acks once it runs, and the initiator finishes.
        assert len(done) == 1
        assert domain.kernel.tlb.sync_latency.count == 1

    def test_sync_wake_to_preempted_target_yields_then_completes(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        stops = self._record_stops(hv)
        queue = WaitQueue()
        marks = []

        def sleeper():
            yield Sleep(queue)
            yield Emit(marks.append)
            while True:
                yield Compute(us(100))

        def waker():
            yield Compute(us(10))
            yield Wake(queue, sync=True)
            yield Emit(marks.append)
            while True:
                yield Compute(us(100))

        # v0 keeps running a spinner after its sleeper sleeps, so it is
        # preempted (runnable, not halted) when v1 sends the wake IPI.
        spawn_task(domain.vcpus[0], lambda: sleeper(), name="sleeper")
        spawn_task(domain.vcpus[0], spin_program(), name="spinner")
        spawn_task(domain.vcpus[1], lambda: waker(), name="waker")
        hv.start()
        sim.run(until=ms(200))
        assert ("vm.v1", "ipi_wait") in [stop[:2] for stop in stops]
        assert hv.stats.counters.get("yield_ipi") >= 1
        # Both the woken sleeper and the waker got past the wake.
        assert len(marks) == 2
        assert hv.stats.counters.get("vipi_resched") == 1

    def test_ack_within_the_window_finishes_without_a_yield(self):
        # Running targets ack after ipi_deliver + ipi_handle (3 us), well
        # inside a 50 us window.
        sim, hv = make_hv(num_pcpus=3, ple=PleConfig(window=us(50)))
        domain = make_domain(hv, vcpus=3)
        stops = self._record_stops(hv)
        done = []
        spawn_task(domain.vcpus[0], self._initiator(done))
        for vcpu in domain.vcpus[1:]:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(5))
        # The spin ends on the completion interrupt, not on a yield.
        assert len(done) == 1
        assert domain.kernel.tlb.sync_latency.mean < us(50)
        assert hv.stats.counters.get("yield_ipi") == 0
        assert "ipi_wait" not in [stop[1] for stop in stops]

    def test_irq_work_breaks_the_spin(self):
        """Two running vCPUs shoot down each other's TLB at once: each
        spinner leaves its spin to run the other's flush handler, so
        both finish inside one 50 us window without a yield."""
        sim, hv = make_hv(num_pcpus=2, ple=PleConfig(window=us(50)))
        domain = make_domain(hv, vcpus=2)
        done = []
        for vcpu in domain.vcpus:
            spawn_task(vcpu, self._initiator(done))
        hv.start()
        sim.run(until=ms(5))
        assert len(done) == 2
        assert domain.kernel.tlb.sync_latency.mean < us(50)
        assert hv.stats.counters.get("yield_ipi") == 0

    def test_one_pcpu_three_vcpu_shootdown_counts(self):
        """Back-to-back shootdowns against two preempted siblings: exact
        counts, which do not depend on how the executor spells the
        spin."""
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=3)

        def initiator():
            while True:
                yield Compute(us(20))
                yield Shootdown()

        spawn_task(domain.vcpus[0], lambda: initiator())
        for vcpu in domain.vcpus[1:]:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(200))
        counters = hv.stats.counters
        assert (
            counters.get("yield_ipi"),
            counters.get("schedules"),
            domain.kernel.tlb.sync_latency.count,
        ) == (10505, 10511, 3)
