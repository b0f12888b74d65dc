"""Directory / LLC bank controller (base MESI + WritersBlock).

Each tile hosts one bank; a line's home bank is ``line % num_tiles``.
The directory is *blocking*: while a transaction for a line is in flight
(BUSY_READ / BUSY_WRITE) new requests for that line queue and are replayed
in arrival order.  The paper's extension adds the WRITERS_BLOCK transient
state, entered when an invalidation is Nacked by a core holding a
lockdown:

* all writes for the line queue (and their writers receive a
  BLOCKED_HINT so SoS loads can bypass the blocked MSHR, paper §3.5.2);
* reads are served an **uncacheable tear-off** copy of the pre-write data
  immediately — never queued — which is what makes SoS loads unblockable
  at the directory (paper §3.4, §3.5);
* deferred invalidation acks are redirected through the directory to the
  waiting writer, whose identity only the directory knows (paper §3.3).

Directory-entry evictions use an eviction buffer ("on the side") so a
fill never waits on a WritersBlock victim; when the buffer is full, reads
fall back to uncacheable service and writes wait (paper §3.5.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set

from ..common.errors import ProtocolError
from ..common.event_queue import EventQueue
from ..common.params import CacheParams
from ..common.stats import StatsRegistry
from ..common.types import DirState, LineAddr, MsgType
from ..mem.cache_array import CacheArray
from ..mem.line_data import LineData
from ..network.mesh import MeshNetwork
from ..network.message import Message
from ..obs.events import EventBus, Kind
from . import probe


@dataclass(slots=True, eq=False)
class DirEntry:
    """One directory/LLC entry (line granularity)."""

    line: LineAddr
    state: DirState = DirState.I
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)
    data: LineData = field(default_factory=LineData)
    queue: Deque[Message] = field(default_factory=deque)
    # Transient bookkeeping
    writer: Optional[int] = None  # tile awaiting write completion
    reader: Optional[int] = None  # tile awaiting read completion
    copyback_pending: bool = False
    unblock_pending: bool = False
    fetching: bool = False  # memory fetch in flight
    owner_gone: bool = False  # owner wrote back mid-transaction
    granted_exclusive: bool = False  # pending read got DataE
    wb_entered_cycle: int = -1  # cycle the entry entered WritersBlock
    deferred_expected: int = 0  # Nacks awaiting their deferred ack

    def is_stable(self) -> bool:
        return self.state in (DirState.I, DirState.S, DirState.M)

    def __repr__(self) -> str:
        return (
            f"<Dir {self.line!r} {self.state.value} owner={self.owner} "
            f"sharers={sorted(self.sharers)} q={len(self.queue)} "
            f"def={self.deferred_expected}>"
        )


@dataclass(slots=True, eq=False)
class EvictingEntry:
    """A directory entry parked in the eviction buffer (paper §3.5.1)."""

    line: LineAddr
    data: LineData
    acks_expected: int = 0
    deferred_expected: int = 0

    @property
    def done(self) -> bool:
        return self.acks_expected == 0 and self.deferred_expected == 0


class DirectoryBank:
    """The LLC bank + directory controller for one tile."""

    def __init__(self, tile: int, params: CacheParams, network: MeshNetwork,
                 events: EventQueue, stats: StatsRegistry, *,
                 writers_block: bool,
                 bus: Optional[EventBus] = None) -> None:
        self.tile = tile
        self.params = params
        self.network = network
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.writers_block_enabled = writers_block
        self._array: CacheArray[DirEntry] = CacheArray(
            params.llc_sets_per_bank, params.llc_ways
        )
        self._memory: Dict[LineAddr, LineData] = {}
        self._evicting: Dict[LineAddr, EvictingEntry] = {}
        self._pending_allocs: List[Message] = []
        self._retry_scheduled = False
        # Transition-coverage gate (repro.obs.coverage): None when off.
        self._cov = None
        self._cov_sends: List[str] = []
        s = stats
        self._stat_tearoffs = s.counter("dir.uncacheable_reads")
        self._stat_wb_entered = s.counter("dir.writersblock_entered")
        self._stat_writes_blocked = s.counter("dir.writes_blocked")
        self._stat_invs = s.counter("dir.invalidations_sent")
        self._stat_evictions = s.counter("dir.llc_evictions")
        self._stat_uncacheable_evict = s.counter("dir.uncacheable_due_to_eviction")
        self._stat_requests = s.counter("dir.requests")
        self._hist_wb_duration = s.histogram("dir.writersblock_duration")
        network.register(tile, "llc", self.handle_message)

    # ------------------------------------------------------------------ util
    def _send(self, msg_type: MsgType, dst: int, line: LineAddr,
              delay: Optional[int] = None, **payload) -> None:
        """Send after the bank's access latency.

        Every outgoing message pays (at least) ``llc_hit_cycles``:
        applying the same delay uniformly keeps the per-channel FIFO
        order that deterministic routing provides — a quick control
        reply must never overtake an earlier forwarded request to the
        same cache (e.g. WbAck passing a FwdGetX would strand the
        requester).
        """
        if self._cov is not None:
            self._cov_sends.append(msg_type.name)
        if delay is None:
            delay = self.params.llc_hit_cycles
        msg = self.network.acquire_message(msg_type, self.tile, dst, "cache",
                                           line, payload)
        self.events.schedule(delay, lambda: self.network.send(msg))

    def _memory_data(self, line: LineAddr) -> LineData:
        if line not in self._memory:
            self._memory[line] = LineData()
        return self._memory[line]

    def _cov_state(self, line: LineAddr) -> str:
        if line in self._evicting:
            return "EVICTING"
        entry = self._array.lookup(line, touch=False)
        return entry.state.name if entry is not None else "I"

    # --------------------------------------------------------------- receive
    def handle_message(self, msg: Message) -> None:
        handler = self._DISPATCH.get(msg.msg_type)
        if handler is None:
            raise ProtocolError(f"directory {self.tile}: unexpected {msg!r}")
        if self._cov is None:
            handler(self, msg)
            return
        before = self._cov_state(msg.line)
        mark = len(self._cov_sends)
        handler(self, msg)
        probe.note(self, "dir", msg.line, msg.msg_type.name, before, mark)

    # --------------------------------------------------------------- requests
    def _on_request(self, msg: Message) -> None:
        self._stat_requests.add()
        entry = self._array.lookup(msg.line)
        if entry is None:
            evict_entry = self._evicting.get(msg.line)
            if evict_entry is not None:
                # The line is mid-eviction: treat like WritersBlock —
                # reads get the parked data uncacheable, writes wait.
                if msg.msg_type is MsgType.GETS:
                    self._serve_tearoff(msg, evict_entry.data)
                else:
                    msg.parked = True
                    self._pending_allocs.append(msg)
                    self._note_write_blocked(msg.line, msg.src, "evicting")
                    self._send(MsgType.BLOCKED_HINT, msg.src, msg.line)
                return
            entry = self._try_allocate(msg.line)
            if entry is None:
                self._allocation_failed(msg)
                return
        if entry.state is DirState.WRITERS_BLOCK:
            if msg.msg_type is MsgType.GETS:
                self._serve_tearoff(msg, entry.data)
            else:
                msg.parked = True
                entry.queue.append(msg)
                self._stat_writes_blocked.add()
                self._note_write_blocked(msg.line, msg.src, "writersblock")
                self._send(MsgType.BLOCKED_HINT, msg.src, msg.line)
            return
        if not entry.is_stable():
            msg.parked = True
            entry.queue.append(msg)
            return
        self._process_request(entry, msg)

    def _process_request(self, entry: DirEntry, msg: Message) -> None:
        if entry.fetching:
            msg.parked = True
            entry.queue.append(msg)
            return
        if msg.msg_type is MsgType.GETS:
            self._process_gets(entry, msg)
        else:
            self._process_getx(entry, msg)

    def _process_gets(self, entry: DirEntry, msg: Message) -> None:
        latency = self.params.llc_hit_cycles
        requester = msg.src
        if msg.payload.get("uncacheable"):
            # An SoS bypass read: serve a tear-off copy without touching
            # the sharing vector or the directory state at all.
            if entry.state is DirState.M and entry.owner != requester:
                # The owner holds the only up-to-date copy: forward the
                # read as use-once; the owner snapshots its data and
                # keeps M.  No transient state, so this can never block.
                self._stat_tearoffs.add()
                self._send(MsgType.FWD_GETS, entry.owner, entry.line,
                           latency, requester=requester, uncacheable=True)
            elif entry.state is DirState.M:
                # The requester itself owns the line: ownership data
                # travelled 3-hop (past us), so our parked copy may be
                # stale.  Bounce the read; it replays and hits locally
                # once the in-flight fill installs.
                self._send(MsgType.DATA_UNCACHEABLE, requester, entry.line,
                           latency, retry=True)
            else:
                self._serve_tearoff(msg, entry.data)
            return
        if entry.state is DirState.I or (
                entry.state is DirState.S and not entry.sharers):
            # No live copies anywhere (non-silent evictions can empty an
            # S entry's sharer list): grant exclusive.
            entry.state = DirState.BUSY_READ
            entry.reader = requester
            entry.unblock_pending = True
            entry.granted_exclusive = True
            self._send(MsgType.DATA_EXCL, requester, entry.line, latency,
                       data=entry.data.copy(), ack_count=0)
        elif entry.state is DirState.S:
            entry.state = DirState.BUSY_READ
            entry.reader = requester
            entry.unblock_pending = True
            entry.granted_exclusive = False
            self._send(MsgType.DATA, requester, entry.line, latency,
                       data=entry.data.copy(), ack_count=0)
        elif entry.state is DirState.M:
            if entry.owner == requester:
                # Stale request from a core we believe owns the line
                # (e.g. replayed after its writeback raced here): serve
                # fresh data below via the normal S path after the PutM.
                raise ProtocolError(
                    f"GetS from current owner {requester} for {entry.line!r}"
                )
            entry.state = DirState.BUSY_READ
            entry.reader = requester
            entry.copyback_pending = True
            entry.unblock_pending = True
            self._send(MsgType.FWD_GETS, entry.owner, entry.line, latency,
                       requester=requester)
        else:  # pragma: no cover - guarded by caller
            raise ProtocolError(f"GetS in state {entry.state}")

    def _process_getx(self, entry: DirEntry, msg: Message) -> None:
        latency = self.params.llc_hit_cycles
        writer = msg.src
        if entry.state is DirState.I:
            entry.state = DirState.BUSY_WRITE
            entry.writer = writer
            entry.unblock_pending = True
            self._send(MsgType.DATA_EXCL, writer, entry.line, latency,
                       data=entry.data.copy(), ack_count=0)
        elif entry.state is DirState.S:
            invalidees = sorted(entry.sharers - {writer})
            entry.state = DirState.BUSY_WRITE
            entry.writer = writer
            entry.unblock_pending = True
            for sharer in invalidees:
                self._stat_invs.add()
                self._send(MsgType.INV, sharer, entry.line, latency,
                           ack_to=writer, writer=writer)
            if writer in entry.sharers and msg.msg_type is MsgType.UPGRADE:
                self._send(MsgType.PERM, writer, entry.line, latency,
                           ack_count=len(invalidees))
            else:
                self._send(MsgType.DATA, writer, entry.line, latency,
                           data=entry.data.copy(), ack_count=len(invalidees))
            entry.sharers = set()
        elif entry.state is DirState.M:
            if entry.owner == writer:
                raise ProtocolError(
                    f"GetX from current owner {writer} for {entry.line!r}"
                )
            entry.state = DirState.BUSY_WRITE
            entry.writer = writer
            entry.unblock_pending = True
            self._stat_invs.add()
            self._send(MsgType.FWD_GETX, entry.owner, entry.line, latency,
                       requester=writer)
        else:  # pragma: no cover - guarded by caller
            raise ProtocolError(f"GetX in state {entry.state}")

    def _serve_tearoff(self, msg: Message, data: LineData) -> None:
        """Reply with a use-once uncacheable copy (paper §3.4 Option 2)."""
        self._stat_tearoffs.add()
        bus = self.bus
        if bus.active:
            bus.emit(Kind.DIR_TEAROFF, self.tile, line=int(msg.line),
                     requester=msg.src)
        self._send(MsgType.DATA_UNCACHEABLE, msg.src, msg.line,
                   self.params.llc_hit_cycles, data=data.copy())

    def _note_write_blocked(self, line: LineAddr, src: int,
                            cause: str) -> None:
        bus = self.bus
        if bus.active:
            bus.emit(Kind.DIR_WRITE_BLOCKED, self.tile, line=int(line),
                     src=src, cause=cause)

    # ----------------------------------------------------------- allocation
    def _try_allocate(self, line: LineAddr) -> Optional[DirEntry]:
        """Bring *line* into the LLC array, evicting a victim if needed.

        Returns None when no stable victim exists or the eviction buffer
        is full — the caller then falls back to uncacheable service
        (reads) or defers the request (writes).
        """
        victim = self._array.victim_for(line)
        if victim is not None:
            victim_line, victim_entry = victim
            if not victim_entry.is_stable() or victim_entry.queue:
                victim_entry = self._find_stable_victim(line)
                if victim_entry is None:
                    return None
                victim_line = victim_entry.line
            if not self._evict(victim_line, victim_entry):
                return None
        entry = DirEntry(line=line, data=self._memory_data(line).copy())
        entry.fetching = True
        self._array.insert(line, entry)
        self.events.schedule(self.params.memory_cycles, lambda: self._fetch_done(entry))
        return entry

    def _find_stable_victim(self, line: LineAddr) -> Optional[DirEntry]:
        """Pick any stable, queue-free entry in *line*'s set (LRU first)."""
        target_set = line.value % self.params.llc_sets_per_bank
        for cand_line, cand in self._array.items():
            if cand_line.value % self.params.llc_sets_per_bank != target_set:
                continue
            if cand.is_stable() and not cand.queue:
                return cand
        return None

    def _fetch_done(self, entry: DirEntry) -> None:
        entry.fetching = False
        self._drain_queue(entry)
        self._schedule_retry()

    def _evict(self, line: LineAddr, entry: DirEntry) -> bool:
        cov = self._cov
        if cov is None:
            return self._evict_impl(line, entry)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        evicted = self._evict_impl(line, entry)
        if evicted:
            probe.note(self, "dir", line, "evict", before, mark)
        return evicted

    def _evict_impl(self, line: LineAddr, entry: DirEntry) -> bool:
        """Move *entry* to the eviction buffer and recall remote copies."""
        if len(self._evicting) >= self.params.dir_eviction_buffer:
            return False
        self._stat_evictions.add()
        self._array.remove(line)
        parked = EvictingEntry(line=line, data=entry.data)
        if entry.state is DirState.S:
            parked.acks_expected = len(entry.sharers)
            for sharer in sorted(entry.sharers):
                self._stat_invs.add()
                self._send(MsgType.INV, sharer, line, ack_to=self.tile,
                           ack_to_dir=True)
        elif entry.state is DirState.M:
            parked.acks_expected = 1
            self._stat_invs.add()
            self._send(MsgType.INV, entry.owner, line, ack_to=self.tile,
                       ack_to_dir=True)
        if parked.done:
            self._memory[line] = parked.data
            return True
        self._evicting[line] = parked
        return True

    def _allocation_failed(self, msg: Message) -> None:
        """No directory entry available: paper §3.5.1 fallback."""
        if msg.msg_type is MsgType.GETS:
            self._stat_uncacheable_evict.add()
            data = self._memory_data(msg.line)
            self._stat_tearoffs.add()
            self._send(
                MsgType.DATA_UNCACHEABLE, msg.src, msg.line,
                self.params.llc_hit_cycles + self.params.memory_cycles,
                data=data.copy(),
            )
        else:
            msg.parked = True
            self._pending_allocs.append(msg)
            self._note_write_blocked(msg.line, msg.src, "alloc")

    def _schedule_retry(self) -> None:
        """Replay requests parked by a failed allocation.

        Called whenever set pressure may have eased (a line stabilised,
        a fetch finished, an eviction completed).  Deferred by one cycle
        and de-duplicated so nested drains don't recurse.
        """
        if not self._pending_allocs or self._retry_scheduled:
            return
        self._retry_scheduled = True
        self.events.schedule(1, self._retry_pending)

    def _retry_pending(self) -> None:
        self._retry_scheduled = False
        pending, self._pending_allocs = self._pending_allocs, []
        release = self.network.pool.release
        for msg in pending:
            msg.parked = False
            self._on_request(msg)
            if not msg.parked:
                release(msg)

    # ------------------------------------------------------------- responses
    def _on_putm(self, msg: Message) -> None:
        entry = self._array.lookup(msg.line)
        if entry is None:
            evicting = self._evicting.get(msg.line)
            if evicting is not None:
                # Writeback raced with our recall invalidation; the data
                # settles the recall's expected ack.
                evicting.data.merge_from(msg.payload["data"])
                evicting.acks_expected -= 1
                self._send(MsgType.WB_ACK, msg.src, msg.line)
                self._finish_eviction_if_done(msg.line, evicting)
                return
            raise ProtocolError(f"PutM for unknown line {msg!r}")
        if entry.state is DirState.M and entry.owner == msg.src:
            entry.data.merge_from(msg.payload["data"])
            self._memory[msg.line] = entry.data.copy()
            entry.owner = None
            entry.state = DirState.I
            self._send(MsgType.WB_ACK, msg.src, msg.line)
            self._drain_queue(entry)
        elif entry.state in (DirState.BUSY_READ, DirState.BUSY_WRITE,
                             DirState.WRITERS_BLOCK) and entry.owner == msg.src:
            # Writeback raced with a forwarded request; the owner will
            # also answer the forward from its writeback buffer.
            entry.data.merge_from(msg.payload["data"])
            entry.owner_gone = True
            self._send(MsgType.WB_ACK, msg.src, msg.line)
        else:
            # Stale PutM from a core that is no longer owner.
            self._send(MsgType.WB_ACK, msg.src, msg.line)

    def _on_puts(self, msg: Message) -> None:
        entry = self._array.lookup(msg.line)
        if entry is not None:
            entry.sharers.discard(msg.src)

    def _on_nack(self, msg: Message) -> None:
        """An invalidation hit a lockdown: enter WritersBlock (paper §3.3)."""
        if msg.payload.get("data") is not None:
            data = msg.payload["data"]
        else:
            data = None
        evicting = self._evicting.get(msg.line)
        if evicting is not None:
            if data is not None:
                evicting.data.merge_from(data)
            evicting.acks_expected -= 1
            evicting.deferred_expected += 1
            return
        entry = self._array.lookup(msg.line)
        if entry is None:
            raise ProtocolError(f"Nack for unknown line {msg!r}")
        if entry.state not in (DirState.BUSY_WRITE, DirState.WRITERS_BLOCK):
            raise ProtocolError(f"Nack in state {entry.state}: {msg!r}")
        if data is not None:
            # Nack+Data: the E/M copy's data parks at the shared level so
            # tear-off readers have somewhere to read from (paper §3.3).
            entry.data.merge_from(data)
        entry.deferred_expected += 1
        if entry.state is DirState.BUSY_WRITE:
            self._enter_writers_block(entry)

    def _enter_writers_block(self, entry: DirEntry) -> None:
        entry.state = DirState.WRITERS_BLOCK
        entry.wb_entered_cycle = self.events.now
        self._stat_wb_entered.add()
        bus = self.bus
        if bus.active:
            bus.emit(Kind.WB_BEGIN, self.tile, line=int(entry.line),
                     writer=entry.writer)
        if entry.writer is not None:
            self._note_write_blocked(entry.line, entry.writer, "writersblock")
            self._send(MsgType.BLOCKED_HINT, entry.writer, entry.line)
        # Reads must never wait behind a blocked write: serve any queued
        # reads uncacheable now, and hint queued writers.
        remaining: Deque[Message] = deque()
        while entry.queue:
            queued = entry.queue.popleft()
            if queued.msg_type is MsgType.GETS:
                queued.parked = False
                self._serve_tearoff(queued, entry.data)
                self.network.pool.release(queued)
            else:
                self._stat_writes_blocked.add()
                self._note_write_blocked(queued.line, queued.src,
                                         "writersblock")
                self._send(MsgType.BLOCKED_HINT, queued.src, queued.line)
                remaining.append(queued)  # stays parked
        entry.queue = remaining

    def _on_ack(self, msg: Message) -> None:
        """Ack addressed to the directory: only eviction recalls do this."""
        evicting = self._evicting.get(msg.line)
        if evicting is None:
            raise ProtocolError(f"directory Ack for unknown eviction {msg!r}")
        data = msg.payload.get("data")
        if data is not None:
            evicting.data.merge_from(data)
        evicting.acks_expected -= 1
        self._finish_eviction_if_done(msg.line, evicting)

    def _finish_eviction_if_done(self, line: LineAddr, evicting: EvictingEntry) -> None:
        if evicting.done:
            self._memory[line] = evicting.data
            del self._evicting[line]
            self._schedule_retry()

    def _on_copyback(self, msg: Message) -> None:
        entry = self._array.lookup(msg.line)
        if entry is None or entry.state is not DirState.BUSY_READ:
            raise ProtocolError(f"CopyBack without a pending read: {msg!r}")
        entry.data.merge_from(msg.payload["data"])
        entry.copyback_pending = False
        self._maybe_finish_read(entry)

    def _on_unblock(self, msg: Message) -> None:
        entry = self._array.lookup(msg.line)
        if entry is None:
            raise ProtocolError(f"Unblock for unknown line {msg!r}")
        if entry.state is DirState.BUSY_READ:
            if msg.src != entry.reader:
                raise ProtocolError(f"Unblock from non-reader: {msg!r}")
            entry.unblock_pending = False
            self._maybe_finish_read(entry)
        elif entry.state in (DirState.BUSY_WRITE, DirState.WRITERS_BLOCK):
            if msg.src != entry.writer:
                raise ProtocolError(f"Unblock from non-writer: {msg!r}")
            if entry.deferred_expected:
                raise ProtocolError(
                    f"writer unblocked with deferred acks outstanding: {entry!r}"
                )
            if entry.wb_entered_cycle >= 0:
                # Paper footnote 2: the write delay is bounded by the
                # lockdown lifetime; record the observed distribution.
                duration = self.events.now - entry.wb_entered_cycle
                self._hist_wb_duration.record(duration)
                bus = self.bus
                if bus.active:
                    bus.emit(Kind.WB_END, self.tile, line=int(entry.line),
                             duration=duration, writer=entry.writer)
                entry.wb_entered_cycle = -1
            entry.state = DirState.M
            entry.owner = entry.writer
            entry.writer = None
            entry.sharers = set()
            entry.owner_gone = False
            entry.unblock_pending = False
            self._drain_queue(entry)
        else:
            raise ProtocolError(f"Unblock in state {entry.state}: {msg!r}")

    def _maybe_finish_read(self, entry: DirEntry) -> None:
        if entry.copyback_pending or entry.unblock_pending:
            return
        old_owner = entry.owner
        requester = entry.reader
        entry.reader = None
        if old_owner is not None:
            # 3-hop read from an M owner: both end up sharers.
            entry.sharers = set() if entry.owner_gone else {old_owner}
            entry.sharers.add(requester)
            entry.owner = None
            entry.owner_gone = False
            entry.state = DirState.S
        elif entry.granted_exclusive:
            # The reply was DataE: the requester installed E and is the
            # owner — decided once at request time, never re-inferred
            # (PutS may have emptied the sharer list in the interim).
            entry.owner = requester
            entry.state = DirState.M
        else:
            entry.sharers.add(requester)
            entry.state = DirState.S
        entry.granted_exclusive = False
        self._drain_queue(entry)

    def _on_deferred_ack(self, msg: Message) -> None:
        """A lockdown lifted; route the ack to the waiting writer."""
        evicting = self._evicting.get(msg.line)
        if evicting is not None:
            evicting.deferred_expected -= 1
            self._finish_eviction_if_done(msg.line, evicting)
            return
        entry = self._array.lookup(msg.line)
        if entry is None or entry.state is not DirState.WRITERS_BLOCK:
            raise ProtocolError(f"deferred ack without WritersBlock: {msg!r}")
        if entry.deferred_expected <= 0:
            raise ProtocolError(f"unexpected deferred ack: {msg!r}")
        entry.deferred_expected -= 1
        self._send(MsgType.ACK, entry.writer, entry.line, deferred=True)

    # ----------------------------------------------------------------- queue
    def _drain_queue(self, entry: DirEntry) -> None:
        """Replay queued requests in arrival order while the line is stable."""
        release = self.network.pool.release
        while entry.queue and entry.is_stable() and not entry.fetching:
            msg = entry.queue.popleft()
            if entry.state is DirState.WRITERS_BLOCK:  # pragma: no cover
                entry.queue.appendleft(msg)
                return
            msg.parked = False
            self._process_request(entry, msg)
            if not msg.parked:
                release(msg)
        self._schedule_retry()

    # --------------------------------------------------------------- inspect
    def entry(self, line: LineAddr) -> Optional[DirEntry]:
        """Peek at a directory entry (no LRU update) — tests/diagnostics."""
        return self._array.lookup(line, touch=False)

    def evicting_entry(self, line: LineAddr) -> Optional[EvictingEntry]:
        return self._evicting.get(line)

    def snapshot(self) -> str:
        busy = [repr(e) for __, e in self._array.items() if not e.is_stable()]
        return f"dir{self.tile}: busy={busy} evicting={list(self._evicting)}"

    def gauges(self) -> Dict[str, int]:
        """Instantaneous occupancy gauges for the metrics sampler.

        Computed lazily by walking the (sparse) array — the protocol hot
        path carries no extra bookkeeping.  ``dirq`` counts every parked
        message (per-entry queues plus the allocation-stall queue),
        ``wb`` the entries sitting in WritersBlock, ``evb`` the eviction
        buffer.
        """
        dirq = len(self._pending_allocs)
        wb = 0
        for __, entry in self._array.items():
            dirq += len(entry.queue)
            if entry.state is DirState.WRITERS_BLOCK:
                wb += 1
        return {"dirq": dirq, "wb": wb, "evb": len(self._evicting)}

    # MsgType -> handler, called as ``handler(self, msg)``: one table per
    # class, so instances (and explorer forks) carry no bound methods.
    _DISPATCH = {
        MsgType.GETS: _on_request,
        MsgType.GETX: _on_request,
        MsgType.UPGRADE: _on_request,
        MsgType.PUTM: _on_putm,
        MsgType.PUTS: _on_puts,
        MsgType.NACK: _on_nack,
        MsgType.NACK_DATA: _on_nack,
        MsgType.ACK: _on_ack,
        MsgType.ACK_DATA: _on_ack,
        MsgType.COPYBACK: _on_copyback,
        MsgType.UNBLOCK: _on_unblock,
        MsgType.DEFERRED_ACK: _on_deferred_ack,
    }
