"""Host-speed probe: a fixed reference kernel timed between operations.

The machines this benchmark runs on are shared.  Contention from other
tenants slows every instruction, by up to 1.8x in phases that last from
seconds to over a minute, which no amount of repetition inside one run
averages away.  The probe measures that slowdown as it happens: a small
cycle-driven message simulation written here, independent of the
program, whose mix of object, dict and list work resembles the
simulator's.  Timing one probe run before and after each operation
gives the host's speed at that moment, and an operation's *normalized
time* is its wall time scaled to a host on which one probe run takes
:data:`NOMINAL_S`.

A simulation can run for seconds, longer than some contention phases,
so a simulated system also samples the probe from its per-cycle
callback (``MulticoreSystem.probe``, a hook the program provides) at
most every :attr:`HostProbe.segment_s`; the callback reads the clock
and touches nothing in the system.

Every probe run does identical work: control flow depends only on the
event (line, value, cycle), never on state left behind by earlier runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: Probe time (seconds) on the reference host: about one probe run
#: between operations on an uncontended 2-vCPU Xeon KVM guest.
NOMINAL_S = 0.004

AGENTS = 3000
LINES = 48
EVENTS = 2000


class _Agent:
    __slots__ = ("ident", "lines", "recent", "sent")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.lines = {line: (line * 31) & 7 for line in range(LINES)}
        self.recent: List[Tuple[int, int]] = []
        self.sent = 0

    def handle(self, line: int, value: int, agents: List["_Agent"],
               buckets: Dict[int, list], now: int) -> None:
        lines = self.lines
        lines[line] = (lines.get(line, 0) + value) & 7
        self.recent.append((line, now))
        if len(self.recent) > 4:
            self.recent.pop(0)
        if value & 2:
            self.sent += 1
            when = now + 1 + (line & 3)
            event = (agents[(self.ident * 7 + line) % len(agents)],
                     (line + 5) % LINES, value + 1)
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [event]
            else:
                bucket.append(event)


class HostProbe:
    """Times the reference kernel and normalizes operations with it.

    Build once, outside any timed region.  An operation is timed
    between :meth:`start` and a final :meth:`checkpoint`; further
    checkpoints inside it (:meth:`on_cycle`, installed as a simulated
    system's per-cycle callback) split a long operation into segments
    of about :attr:`segment_s`, each normalized by the probe samples
    at its two ends.  Probe time itself is never part of a segment.
    """

    def __init__(self, segment_s: Optional[float] = None) -> None:
        self.agents = [_Agent(ident) for ident in range(AGENTS)]
        self.segment_s = segment_s
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._last: Optional[float] = None
        self._open = 0.0

    def _run(self) -> int:
        agents = self.agents
        count = len(agents)
        buckets: Dict[int, list] = {
            0: [(agents[i * 97 % count], i % LINES, i) for i in range(64)]}
        now = fired = 0
        while fired < EVENTS:
            bucket = buckets.pop(now, None)
            if bucket:
                for agent, line, value in bucket:
                    agent.handle(line, value, agents, buckets, now)
                fired += len(bucket)
            else:
                buckets.setdefault(now + 1, []).append(
                    (agents[(now * 13) % count], now % LINES, now))
            now += 1
        return fired

    def sample(self) -> float:
        """Seconds one probe run takes right now."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    @staticmethod
    def normalize(seconds: float, before: float, after: float) -> float:
        """*seconds* of wall time as seconds on the reference host, given
        the probe times taken just before and just after."""
        return seconds * NOMINAL_S / ((before + after) / 2.0)

    def start(self) -> None:
        """Open an operation: zero its totals and open a segment."""
        if self._last is None:
            self._last = self.sample()
        self.raw_s = self.norm_s = 0.0
        self._open = time.perf_counter()

    def checkpoint(self) -> None:
        """Close the open segment, sample the host, open the next one."""
        segment = time.perf_counter() - self._open
        now = self.sample()
        self.raw_s += segment
        self.norm_s += self.normalize(segment, self._last, now)
        self._last = now
        self._open = time.perf_counter()

    def on_cycle(self, cycle: int) -> None:
        """Per-cycle callback: checkpoint once a segment is long enough."""
        if time.perf_counter() - self._open >= self.segment_s:
            self.checkpoint()
