"""The multicore system: cores, private caches, mesh, directory banks.

Tiles are numbered 0..N-1; each hosts a core + private cache and one
LLC/directory bank.  A line's home bank is ``line % N`` (address
interleaving).  The run loop advances a global clock: deliver due events
(network messages, latency callbacks), tick every running core, then
move to the next cycle in which something can change.  That is the next
cycle, unless no core's tick changed anything: then nothing can change
before the next event, the end of a fetch stall, the next telemetry
sample, the watchdog deadline or the cycle cap, so the loop jumps
straight to the earliest of those and accounts the skipped cycles in
bulk (quiescence skipping; docs/performance.md).  A watchdog raises
:class:`DeadlockError` if no instruction commits system-wide for
``watchdog_cycles`` — the deadlock-scenario tests rely on this to prove
the safe-passage rules are load-bearing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..coherence import get_backend
from ..common.errors import DeadlockError, SimulationError
from ..common.event_queue import EventQueue
from ..common.params import SystemParams
from ..common.stats import StatsRegistry
from ..consistency.execution import ExecutionLog
from ..core.inorder_core import InOrderCore
from ..core.instruction import Instruction
from ..core.ooo_core import OoOCore
from ..network.mesh import MeshNetwork
from ..obs.coverage import CoverageObserver
from ..obs.events import EventBus
from ..obs.metrics import DEFAULT_PERIOD, MetricsSampler
from ..obs.spans import SpanTracker
from .results import SimResult


class MulticoreSystem:
    """Builds and runs one simulated multicore."""

    def __init__(self, params: SystemParams) -> None:
        params.validate()
        self.backend = get_backend(params.backend)
        self.backend.validate_params(params)
        self.params = params
        self.events = EventQueue()
        self.stats = StatsRegistry()
        self.log = ExecutionLog(params.record_execution)
        #: System-wide observability bus; inert (near-zero cost) until
        #: something subscribes — e.g. :meth:`observe` or a ProtocolTracer.
        self.bus = EventBus(self.events)
        self.tracker: Optional[SpanTracker] = None
        self.sampler: Optional[MetricsSampler] = None
        self.coverage: Optional[CoverageObserver] = None
        #: Callback run once per visited cycle (e.g. an invariant probe
        #: from ``repro.coherence.invariants.attach_probe``); inert when
        #: None.  Cycles the run loop skips hold the state it last saw.
        self.probe = None
        self.network = MeshNetwork(params.num_cores, params.network,
                                   self.events, self.stats, bus=self.bus)
        self.directories: List = [
            self.backend.build_directory(
                tile, params.cache, self.network, self.events, self.stats,
                writers_block=params.writers_block, bus=self.bus)
            for tile in range(params.num_cores)
        ]
        self.caches: List = [
            self.backend.build_cache(
                tile, params.cache, self.network, self.events, self.stats,
                writers_block=params.writers_block, bus=self.bus)
            for tile in range(params.num_cores)
        ]
        self.cores: List = [self._build_core(tile)
                            for tile in range(params.num_cores)]

    def _build_core(self, tile: int):
        if self.params.core_type == "ooo":
            return OoOCore(tile, self.params, self.caches[tile], self.events,
                           self.stats, self.log, bus=self.bus)
        return InOrderCore(tile, self.params, self.caches[tile], self.events,
                           self.stats, self.log,
                           ecl=self.params.core_type == "inorder-ecl",
                           bus=self.bus)

    def observe(self) -> SpanTracker:
        """Attach (once) and return a span tracker for this system's run.

        Call before :meth:`run`; the resulting spans and per-category
        summaries land on the returned :class:`SimResult`.
        """
        if self.tracker is None:
            self.tracker = SpanTracker(self.bus, self.stats)
        return self.tracker

    def sample_metrics(self, period: int = DEFAULT_PERIOD) -> MetricsSampler:
        """Attach (once) and return a telemetry sampler for this run.

        Call before :meth:`run`; the ``repro-metrics/1`` payload lands
        on the result's ``telemetry`` field.
        """
        if self.sampler is None:
            self.sampler = MetricsSampler(self, period)
        return self.sampler

    def observe_coverage(self, *, source: str = "run") -> CoverageObserver:
        """Attach (once) and return a transition-coverage observer.

        Call before :meth:`run`; transition tuples land on the observer
        (``to_map()`` for the mergeable ``repro-coverage/1`` form).
        """
        if self.coverage is None:
            observer = CoverageObserver(self.params.backend, source=source)
            observer.attach(*self.caches, *self.directories)
            self.coverage = observer
        return self.coverage

    def load_program(self, traces: Sequence[List[Instruction]]) -> None:
        """Assign per-core traces (shorter list leaves extra cores idle)."""
        if len(traces) > len(self.cores):
            raise SimulationError(
                f"{len(traces)} traces for {len(self.cores)} cores"
            )
        for core, trace in zip(self.cores, traces):
            core.load_trace(list(trace))
        for core in self.cores[len(traces):]:
            core.load_trace([])

    # ------------------------------------------------------------------- run
    def run(self) -> SimResult:
        """Simulate until all cores finish (or watchdog/cycle-cap fires)."""
        commit_counter = self.stats.counter("core.committed")
        last_commits = commit_counter.value
        last_progress_cycle = self.events.now
        watchdog = self.params.watchdog_cycles
        max_cycles = self.params.max_cycles
        events = self.events
        # Cores leave this list permanently once done (idle cores with an
        # empty trace never enter it), so the per-cycle loop only visits
        # cores that can still make progress.
        running = [core for core in self.cores if not core.done]
        sampler = self.sampler
        probe = self.probe
        bus = self.bus
        while True:
            events.run_due()
            if sampler is not None and events.now >= sampler.next_cycle:
                sampler.take(events.now)
            if probe is not None:
                probe(events.now)
            if not running:
                if events.empty:
                    break
                events.advance_to_next_event()
                continue
            moved = finished = False
            for core in running:
                if core.tick():
                    moved = True
                    if core.done:
                        finished = True
            if finished:
                running = [core for core in running if not core.done]
            now = events.now
            if commit_counter.value != last_commits:
                last_commits = commit_counter.value
                last_progress_cycle = now
            elif now - last_progress_cycle > watchdog:
                raise DeadlockError(now, self._snapshot())
            if max_cycles and now >= max_cycles:
                raise SimulationError(f"cycle cap {max_cycles} exceeded")
            if moved:
                events.advance()
                continue
            # Every tick changed nothing, and until one of these bounds
            # the next would change nothing either.
            wake = last_progress_cycle + watchdog + 1
            if max_cycles and max_cycles < wake:
                wake = max_cycles
            if sampler is not None and sampler.next_cycle < wake:
                wake = sampler.next_cycle
            if not events.empty:
                wake = min(wake, events.next_cycle())
            for core in running:
                if now < core.fetch_stall_until < wake:
                    wake = core.fetch_stall_until
            skipped = wake - now - 1
            if not skipped:
                events.advance()
            elif bus.active:
                # Subscribers see the stall events of every skipped
                # cycle, stamped and ordered as the ticks would have.
                for __ in range(skipped):
                    events.advance()
                    for core in running:
                        core.skip_idle(1)
                events.advance()
            else:
                for core in running:
                    core.skip_idle(skipped)
                events.advance_to(wake)
        return self._result()

    def _snapshot(self) -> str:
        lines = [core.snapshot() for core in self.cores if not core.done]
        lines += [d.snapshot() for d in self.directories]
        return "\n".join(lines)

    def _result(self) -> SimResult:
        done_cycles = [core.done_cycle or 0 for core in self.cores]
        spans: List = []
        span_summaries = {}
        if self.tracker is not None:
            self.tracker.finish(self.events.now)
            spans = self.tracker.spans
            span_summaries = self.tracker.summaries()
        telemetry = None
        if self.sampler is not None:
            self.sampler.finish(self.events.now)
            telemetry = self.sampler.payload()
        return SimResult(
            params=self.params,
            cycles=max(done_cycles) if done_cycles else self.events.now,
            stats=self.stats.as_dict(),
            log=self.log,
            per_core_cycles=done_cycles,
            histograms=self.stats.histogram_summaries(),
            spans=spans,
            span_summaries=span_summaries,
            telemetry=telemetry,
        )
