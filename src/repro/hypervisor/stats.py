"""Hypervisor-wide event statistics.

Feeds three consumers: the paper's tables/figures (yield counts by
cause, Table 2 / Figure 7), the adaptive controller's profiling windows
(IPI/PLE/vIRQ deltas, Algorithm 1), and the test suite's invariants.
"""

from ..metrics.counters import CounterSet

#: Yield causes (Figure 7's decomposition).
YIELD_SPINLOCK = "spinlock"
YIELD_IPI = "ipi"
YIELD_HALT = "halt"
YIELD_OTHER = "other"

YIELD_CAUSES = (YIELD_IPI, YIELD_SPINLOCK, YIELD_HALT, YIELD_OTHER)

#: ``cause -> "yield_<cause>"``, built once: every PLE round trip counts one.
_YIELD_KEYS = {cause: "yield_" + cause for cause in YIELD_CAUSES}


class HvStats:
    """Global counters plus per-domain mirrors.

    The tracer reference keeps the trace's ``yield``/``virq_inject``
    records emitted at exactly the counter increments, so an exported
    trace's yield decomposition always matches these counters record
    for record (the ``repro analyze`` round-trip guarantee).
    """

    def __init__(self, tracer=None):
        self.counters = CounterSet()
        self.tracer = tracer
        # Hoisted per-kind emit handles (tracer.want): None unless this
        # tracer records the kind.
        self._trace_yield = tracer.want("yield") if tracer is not None else None
        self._trace_virq = tracer.want("virq_inject") if tracer is not None else None

    # ------------------------------------------------------------------
    def count_yield(self, vcpu, cause):
        key = _YIELD_KEYS.get(cause)
        if key is None:
            cause, key = YIELD_OTHER, _YIELD_KEYS[YIELD_OTHER]
        self.counters.inc("yield")
        self.counters.inc(key)
        domain = vcpu.domain
        domain.counters.inc("yield")
        domain.counters.inc(key)
        emit = self._trace_yield
        if emit is not None:
            emit(vcpu=vcpu.name, domain=domain.name, cause=cause)

    def count_vipi(self, src, dst, kind):
        self.counters.inc("vipi")
        self.counters.inc("vipi_" + kind)
        src.domain.counters.inc("vipi")

    def count_virq(self, vcpu):
        self.counters.inc("virq")
        vcpu.domain.counters.inc("virq")
        emit = self._trace_virq
        if emit is not None:
            emit(vcpu=vcpu.name, domain=vcpu.domain.name)

    def count_migration(self, vcpu):
        self.counters.inc("migrations")
        vcpu.domain.counters.inc("migrations")
        vcpu.migrations_to_micro += 1

    def count_schedule(self, vcpu):
        self.counters.inc("schedules")

    def count_preempt(self, vcpu):
        self.counters.inc("preempts")

    # ------------------------------------------------------------------
    # profiling windows (adaptive controller)
    # ------------------------------------------------------------------
    def mark_window(self):
        self.counters.mark_window()

    def window_events(self):
        """The urgent-event deltas Algorithm 1 inspects."""
        return {
            "ipi": self.counters.window_delta("yield_ipi"),
            "ple": self.counters.window_delta("yield_spinlock"),
            "irq": self.counters.window_delta("virq"),
        }

    def yields_by_cause(self, domain=None):
        source = domain.counters if domain is not None else self.counters
        return {cause: source.get("yield_" + cause) for cause in YIELD_CAUSES}

    def total_yields(self, domain=None):
        source = domain.counters if domain is not None else self.counters
        return source.get("yield")
