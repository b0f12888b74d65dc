"""Deterministic cycle-driven event queue.

The simulator advances a global clock; components may schedule callbacks
for future cycles.  Events scheduled for the same cycle fire in the order
they were scheduled (FIFO per cycle), which keeps runs exactly
reproducible regardless of dict/hash ordering.

Implementation: a calendar of per-cycle buckets (``dict`` keyed by
absolute cycle, each value an append-ordered list of callbacks) rather
than a heap.  The run loop probes the queue every simulated cycle, and
for the common case — nothing due — a single dict lookup beats a heap
peek plus tuple comparison.  Scheduling is an append instead of a
``heappush`` sift, and draining a cycle pops one bucket instead of
popping events one by one.  Ordering semantics are identical to the
heap version: FIFO within a cycle, and work scheduled *for the current
cycle by a firing event* runs after everything already due (it lands in
a fresh bucket that the drain loop picks up on its next pass).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .errors import SimulationError

EventFn = Callable[[], None]


class EventQueue:
    """Per-cycle bucket calendar with a monotonic clock.

    No ``__slots__`` on purpose: there is one queue per system (slots
    would save nothing) and the profiler wraps ``run_due`` by assigning
    an instance attribute.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, List[EventFn]] = {}
        self._count = 0
        self.now = 0
        #: Cumulative events fired over the queue's lifetime; the
        #: scaling probe's events/sec throughput numerator.
        self.fired_total = 0

    def schedule(self, delay: int, fn: EventFn) -> None:
        """Run *fn* after *delay* cycles (delay 0 = later this cycle)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        cycle = self.now + delay
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [fn]
        else:
            bucket.append(fn)
        self._count += 1

    def schedule_at(self, cycle: int, fn: EventFn) -> None:
        """Run *fn* at absolute *cycle* (must not be in the past)."""
        self.schedule(cycle - self.now, fn)

    def __len__(self) -> int:
        return self._count

    @property
    def empty(self) -> bool:
        return not self._buckets

    def next_cycle(self) -> int:
        """Cycle of the earliest pending event (error if empty)."""
        if not self._buckets:
            raise SimulationError("event queue is empty")
        return min(self._buckets)

    def run_due(self) -> int:
        """Fire every event due at the current cycle; return count fired.

        Events that schedule new work for the same cycle are also fired,
        so a cycle is fully drained before the clock advances.
        """
        buckets = self._buckets
        now = self.now
        fired = 0
        bucket = buckets.pop(now, None)
        while bucket is not None:
            self._count -= len(bucket)
            fired += len(bucket)
            for fn in bucket:
                fn()
            bucket = buckets.pop(now, None)
        if fired:
            self.fired_total += fired
        return fired

    def advance(self) -> None:
        """Move the clock forward one cycle."""
        self.now += 1

    def advance_to(self, cycle: int) -> None:
        """Move the clock forward to *cycle*, which must not pass the
        earliest pending event."""
        if cycle <= self.now or (self._buckets
                                 and cycle > min(self._buckets)):
            raise SimulationError(
                f"cannot advance from {self.now} to {cycle}")
        self.now = cycle

    def advance_to_next_event(self) -> None:
        """Skip idle cycles directly to the next scheduled event."""
        if self._buckets:
            nxt = min(self._buckets)
            if nxt > self.now:
                self.now = nxt
