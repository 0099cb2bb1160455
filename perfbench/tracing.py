"""Layer-boundary spans recorded from outside the simulator.

:class:`SpanRecorder` wraps the public methods of the classes that
make up each layer (scheduler backends, the hypervisor, the critical
service detector and micro-slice engine, the guest symbol table, the
event loop) and the runner entry points, records one span per call
and restores every original attribute afterwards. Nothing under
``src/`` knows it is being measured.

A span is ``(name, start, end, parent)``. Spans stay in memory in
compact arrays while the run lasts and are written out by
:meth:`SpanRecorder.write` when it ends. ``self`` time is a span's
duration minus the part its child spans cover, accumulated per name
as calls complete.
"""

import array
import functools
import inspect
import json
import time

#: Span names that differ from the wrapped method's name.
ALIASES = {"core.scan_preempted_siblings": "core.scan_siblings",
           "guest.lookup": "guest.symbols_lookup"}


def _is_critical(detection):
    return detection.critical


def _stole(vcpu):
    return vcpu is not None


#: Span name -> predicate over the return value counting useful
#: outcomes (``<name>.hits``): critical detections, successful steals.
OUTCOMES = {"core.inspect": _is_critical, "sched.steal": _stole}


def layer_classes():
    """``[(layer, class)]`` whose own public methods get wrapped."""
    from repro.core.adaptive import AdaptiveController
    from repro.core.detection import CriticalServiceDetector
    from repro.core.microslice import MicroSliceEngine
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.sched import MicroScheduler, registry

    sched = []
    for cls in [registry.get(name) for name in registry.available()] + [MicroScheduler]:
        for base in cls.__mro__:
            if base.__module__.startswith("repro.sched.") and base not in sched:
                sched.append(base)
    return ([("sched", cls) for cls in sched]
            + [("hypervisor", Hypervisor),
               ("core", CriticalServiceDetector),
               ("core", MicroSliceEngine),
               ("core", AdaptiveController)])


class SpanRecorder:
    """Install span wrappers, collect spans and per-name totals, restore."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls = []
        self.self_s = []
        self.hits = []
        self._stack = []  # open spans: [name_id, span_index, child_seconds]
        self._patches = []  # (owner, attribute, original descriptor)
        self.origin = time.perf_counter()

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.hits.append(0)
        return nid

    def wrap(self, name, fn):
        """A wrapper around ``fn`` recording one span named ``name``
        per call. A call made directly inside a span of the same name
        (a ``super()`` chain) is folded into the outer span."""
        nid = self._name_id(ALIASES.get(name, name))
        outcome = OUTCOMES.get(ALIASES.get(name, name))
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, selfs, hits = self.calls, self.self_s, self.hits
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ends.append(0.0)
            frame = [nid, index, 0.0]
            stack.append(frame)
            start = perf()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                ends[index] = end
                duration = end - start
                selfs[nid] += duration - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += duration
            if outcome is not None and outcome(result):
                hits[nid] += 1
            return result

        return span

    def replace(self, owner, attribute, make):
        """Set ``owner.attribute`` to ``make(original)``; undone by
        :meth:`restore`. ``original`` is the raw class attribute (so a
        classmethod arrives as its descriptor)."""
        if isinstance(owner, type):
            original = vars(owner)[attribute]
        else:
            original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def patch(self, owner, attribute, name):
        """Replace ``owner.attribute`` by a span wrapper named ``name``."""
        def make(original):
            if isinstance(original, classmethod):
                return classmethod(self.wrap(name, original.__func__))
            return self.wrap(name, original)

        self.replace(owner, attribute, make)

    def install(self):
        """Wrap every layer class, the event loop and the runner entry
        points. Call before any system is built."""
        from repro.experiments.results import RunResult
        from repro.guest.symbols import SymbolTable
        from repro.runner import executor, jobs
        from repro.sim.engine import Simulator

        for layer, cls in layer_classes():
            for attribute, value in list(vars(cls).items()):
                if (attribute.startswith("_") or not inspect.isfunction(value)
                        or inspect.isgeneratorfunction(value)):
                    continue
                self.patch(cls, attribute, "%s.%s" % (layer, attribute))
        self.patch(SymbolTable, "lookup", "guest.lookup")
        self.patch(Simulator, "run", "sim.run")
        self.patch(RunResult, "collect", "experiments.collect")
        self.patch(jobs, "build_system", "runner.build_system")
        self.patch(executor, "run_job", "runner.run_job")

    def restore(self):
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self):
        return bool(self._patches)

    # -- results ---------------------------------------------------------

    def totals(self):
        """``{name: (calls, self_seconds, hits)}`` for every name seen."""
        return {name: (self.calls[nid], self.self_s[nid], self.hits[nid])
                for nid, name in enumerate(self.names)}

    def write(self, path):
        """Write the spans: a one-line JSON header naming the arrays,
        then the raw arrays in header order (native byte order)."""
        header = {
            "format": "perfbench-spans-1",
            "names": self.names,
            "count": len(self.span_start),
            "origin": self.origin,
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write((json.dumps(header) + "\n").encode("utf-8"))
            for values in (self.span_name, self.span_parent, self.span_start, self.span_end):
                values.tofile(out)
