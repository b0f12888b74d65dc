"""Benchmark-owned span tracer: wraps the program's layer boundaries
from outside and attributes host time to each layer.

The tracer replaces a fixed list of public callables (class methods,
module-level names at the place each caller resolves them, and the
``ALL_WORKLOADS`` generator table) with wrappers that record one span
per call: name, start, end, parent span and the id of the operation
(simulation, test or scenario) the benchmark was running.  Counts are
kept at the same boundaries.  Self time is a span's duration minus the
durations of its direct children, accumulated online and re-derivable
from the stored spans.

Spans live in flat ``array`` columns (26 bytes per span) while the run
goes on and are written once, by :meth:`Tracer.dump`, when it ends.
Nothing is wrapped until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
puts every original object back, and :meth:`Tracer.untouched` checks
by identity that it did.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import types
import zlib
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name).  Class methods are
#: wrapped on the class that defines them; a ``None`` class wraps the
#: module-level name, i.e. the binding that module's code resolves.
METHOD_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.system", "MulticoreSystem", "__init__", "sim.build"),
    ("repro.sim.system", "MulticoreSystem", "load_program", "sim.load"),
    ("repro.sim.system", "MulticoreSystem", "run", "sim.run"),
    ("repro.core.ooo_core", "OoOCore", "tick", "core.tick"),
    ("repro.core.inorder_core", "InOrderCore", "tick", "core.tick"),
    ("repro.coherence.private_cache", "PrivateCache", "handle_message",
     "coherence.baseline.cache"),
    ("repro.coherence.private_cache", "PrivateCache", "load",
     "coherence.baseline.core"),
    ("repro.coherence.private_cache", "PrivateCache", "request_write",
     "coherence.baseline.core"),
    ("repro.coherence.directory", "DirectoryBank", "handle_message",
     "coherence.baseline.dir"),
    ("repro.coherence.tardis", "TardisCache", "handle_message",
     "coherence.tardis.cache"),
    ("repro.coherence.tardis", "TardisCache", "load",
     "coherence.tardis.core"),
    ("repro.coherence.tardis", "TardisCache", "request_write",
     "coherence.tardis.core"),
    ("repro.coherence.tardis", "TardisDirectory", "handle_message",
     "coherence.tardis.dir"),
    ("repro.coherence.rcp", "RcpCache", "handle_message",
     "coherence.rcp.cache"),
    ("repro.coherence.rcp", "RcpCache", "load", "coherence.rcp.core"),
    ("repro.coherence.rcp", "RcpCache", "request_write",
     "coherence.rcp.core"),
    ("repro.coherence.rcp", "RcpDirectory", "handle_message",
     "coherence.rcp.dir"),
    ("repro.network.mesh", "MeshNetwork", "send", "network.send"),
    ("repro.common.event_queue", "EventQueue", "run_due",
     "event_queue.run_due"),
    ("repro.consistency.tso_checker", None, "check_tso",
     "consistency.check"),
    ("repro.consistency.litmus", None, "check_tso", "consistency.check"),
    ("repro.sim.runner", None, "check_tso", "consistency.check"),
    ("repro.conform.runner", None, "load_corpus", "conform.parse"),
    ("repro.conform.differential", None, "check_test", "conform.check"),
    ("repro.conform.differential", None, "run_litmus", "conform.litmus"),
    ("repro.conform.differential", None, "operational_outcomes",
     "conform.operational"),
    ("repro.conform.differential", None, "axiomatic_outcomes",
     "conform.axiomatic"),
    ("repro.conform.scenarios", None, "explore", "verification.explore"),
    ("repro.verification.explorer", "VerifSystem", "fingerprint",
     "verification.fingerprint"),
    ("repro.verification.explorer", "VerifSystem", "settle",
     "verification.settle"),
)

#: The explorer forks with ``copy.deepcopy`` through its module-global
#: ``copy``; that global is swapped for a namespace whose ``deepcopy``
#: is traced, so only the explorer's forks are counted.
FORK_MODULE = "repro.verification.explorer"

#: Span name of the operation the benchmark itself opens around each
#: simulation, test or scenario (and around set-up).
OP_SPAN = "op"

#: Span names whose return value is also tallied (sum of results).
TALLY_RESULT = {"event_queue.run_due"}

#: Span names whose first argument (a test) and model, with the span
#: name, key one reference enumeration, so repeats can be counted.
ENUM_SPANS = {"conform.operational", "conform.axiomatic"}


def layer_of(span: str) -> str:
    """``coherence.rcp.dir`` -> ``coherence.rcp``; ``sim.run`` -> ``sim``."""
    return span.rsplit(".", 1)[0]


class Tracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # One column per span field; the index of a span is its id.
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Online accumulators per span-name id.
        self.self_s: Dict[int, float] = defaultdict(float)
        self.total_s: Dict[int, float] = defaultdict(float)
        self.calls: Dict[int, int] = defaultdict(int)
        self.tally: Dict[int, int] = defaultdict(int)
        self.enum_keys: List[Tuple] = []
        self.op_id = -1
        # Frames of open spans: [span index, child time].  The sentinel
        # collects the duration of root spans.
        self._stack: List[List] = [[-1, 0.0]]
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> List:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0])
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _finish(self, frame: List, nid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx = frame[0]
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_s[nid] += duration - frame[1]
        self.total_s[nid] += duration
        self.calls[nid] += 1
        self._stack[-1][1] += duration

    def wrap(self, fn: Callable, name: str) -> Callable:
        """*fn* instrumented to record one span per call under *name*."""
        nid = self.name_id(name)
        begin, finish, tally = self._begin, self._finish, self.tally
        tally_result = name in TALLY_RESULT
        enum_keys = self.enum_keys if name in ENUM_SPANS else None

        def traced(*args, **kwargs):
            frame = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame, nid)
            if tally_result:
                tally[nid] += result
            if enum_keys is not None:
                model = kwargs.get("model",
                                   args[1] if len(args) > 1 else "tso")
                enum_keys.append(
                    (name, args[0].name, getattr(model, "name", model)))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[None]:
        """Record a span around a block; *op_id* tags it and its children."""
        nid = self.name_id(name)
        previous = self.op_id
        if op_id is not None:
            self.op_id = op_id
        frame = self._begin(nid)
        try:
            yield
        finally:
            self._finish(frame, nid)
            self.op_id = previous

    # ------------------------------------------------------------- wrapping
    @staticmethod
    def targets() -> Iterator[Tuple[object, str, str]]:
        """(owner, attribute or dict key, span name) for every boundary."""
        for module, cls, attr, span in METHOD_TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                # The class as defined, even while the benchmark's own
                # subclass is bound under the same module-level name.
                owner = next(klass for klass in getattr(owner, cls).__mro__
                             if klass.__module__ == module
                             and klass.__qualname__ == cls)
                if attr not in vars(owner):
                    raise LookupError(f"{cls}.{attr} is not defined on {cls}")
            yield owner, attr, span
        yield importlib.import_module(FORK_MODULE), "copy", "verification.fork"
        workloads = importlib.import_module("repro.workloads").ALL_WORKLOADS
        for name in sorted(workloads):
            yield workloads, name, "workloads.gen"

    def install(self) -> None:
        """Swap every boundary for its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, key, span in self.targets():
            original = _get(owner, key)
            if key == "copy":
                replacement = types.SimpleNamespace(
                    deepcopy=self.wrap(original.deepcopy, span))
            else:
                replacement = self.wrap(original, span)
            self._saved.append((owner, key, original))
            _set(owner, key, replacement)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order."""
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @classmethod
    def originals(cls) -> Dict[Tuple[int, str], object]:
        """Identity snapshot of every boundary the tracer would wrap."""
        return {(id(owner), key): _get(owner, key)
                for owner, key, __ in cls.targets()}

    @classmethod
    def untouched(cls, snapshot: Dict[Tuple[int, str], object]) -> bool:
        """True when every boundary is still the object in *snapshot*."""
        current = cls.originals()
        return current.keys() == snapshot.keys() and all(
            current[key] is snapshot[key] for key in snapshot)

    # -------------------------------------------------------------- reading
    def totals(self) -> Dict[str, Tuple[int, float]]:
        """{span name: (calls, self seconds)} from the online accumulators."""
        return {name: (self.calls.get(nid, 0), self.self_s.get(nid, 0.0))
                for nid, name in enumerate(self.names)}

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls.get(nid, 0)

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s.get(nid, 0.0)

    def tallied(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.tally.get(nid, 0)

    def total_time(self, name: str) -> float:
        """Summed duration of every span named *name* (children included)."""
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s.get(nid, 0.0)

    def recomputed_self_times(self) -> Dict[str, float]:
        """Self time per span name derived from the stored spans alone."""
        durations = [end - start
                     for start, end in zip(self.span_start, self.span_end)]
        own = list(durations)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[idx]
        totals: Dict[str, float] = defaultdict(float)
        for idx, nid in enumerate(self.span_name):
            totals[self.names[nid]] += own[idx]
        return dict(totals)

    @property
    def root_time(self) -> float:
        """Summed duration of spans with no parent."""
        return self._stack[0][1]

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the zlib-packed
        columns (name u16, parent i32, op i32, start f64, end f64)."""
        columns = (self.span_name, self.span_parent, self.span_op,
                   self.span_start, self.span_end)
        header = {"schema": "perfbench-spans/1", "names": self.names,
                  "spans": len(self.span_start),
                  "columns": [["name", "H"], ["parent", "i"], ["op", "i"],
                              ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            handle.write(zlib.compress(
                b"".join(column.tobytes() for column in columns), 1))


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
