"""RCP reversible coherence backend (PAPERS.md: "A Case for Reversible
Coherence Protocol").

RCP is the invisible-speculation alternative to the paper's
WritersBlock: instead of making early loads *non*-speculative, it makes
the coherence side-effects of speculative loads *reversible*.  A load
that is not yet ordered (an older load is still outstanding) acquires
its line in a dedicated speculative-read state:

* **Speculative acquire** — an unordered load misses with ``GETS_SPEC``
  and installs the fill in ``CacheState.SPEC``.  The home directory
  records the requester in a ``spec`` set *separate* from the stable
  sharer list, so speculative readers are invisible to the protocol's
  conflict bookkeeping until they either commit or are reversed.
* **Reversal** — a conflicting write rolls the acquisition back: the
  directory sends ``UNDO`` to every speculative reader (and plain
  ``INV`` to stable sharers / the owner).  The cache drops its SPEC
  copy, fires the core's ``invalidation_hook`` — the exact squash path
  an invalidation drives, so bound-but-unordered loads on the line are
  squashed — and answers ``UNDO_ACK``.  The write is granted only after
  every ack arrives, which is what makes the scheme sound under TSO:
  once a store completes, no reversed copy survives anywhere, so a
  committed load can never have read from a line that was later
  reversed out from under it.
* **Confirm-on-commit** — the first *ordered* load that touches a SPEC
  copy promotes it to a stable S locally and sends a fire-and-forget
  ``CONFIRM``; the home moves the core from ``spec`` to the sharer
  list.  Confirms that lose a race (an ``UNDO``/``INV`` crossed them,
  the entry was evicted or re-allocated) are ignored — the reversal
  already reached the cache, whose ``UNDO`` handler accepts promoted
  copies.
* **Self-reversal** — a core's own store to a line it holds in SPEC is
  itself a conflicting write: ``request_write`` reverses the local
  speculative copy (drop + ``invalidation_hook``) before requesting
  ownership, so a write MSHR never coexists with a SPEC copy.

SPEC copies are never writable (``perform_store`` raises) and always
carry the home's authoritative data while the home entry is stable —
the "spec lines never dirty" invariant checked by ``cycle_problems``
alongside "no orphan spec copies" (every resident SPEC copy is
registered in its home's ``spec`` set, which is what guarantees a
future write's reversal reaches it).

Unlike tardis there *is* invalidation traffic (``has_invalidations``),
but there is no WritersBlock: the protocol's answer to load-load
reordering is reversal, so ``ooo-wb`` is rejected and the conformance
default is plain OOO commit with squash-based recovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from ..common.errors import ProtocolError
from ..common.event_queue import EventQueue
from ..common.params import CacheParams
from ..common.stats import StatsRegistry
from ..common.types import CacheState, CommitMode, DirState, LineAddr, MsgType, line_of
from ..mem.cache_array import CacheArray, PresenceLRU
from ..mem.line_data import LineData, VersionedValue
from ..mem.mshr import MSHREntry, MSHRFile
from ..network.mesh import MeshNetwork
from ..network.message import Message
from ..obs.events import EventBus, Kind
from . import probe
from .backend import CoherenceBackend, register_backend
from .private_cache import LoadRequest


@dataclass(slots=True)
class RcpLine:
    """A line resident in a private cache (M, S, or speculative SPEC)."""

    state: CacheState
    data: LineData


@dataclass(slots=True, eq=False)
class RcpDirEntry:
    """One directory/LLC entry with split stable/speculative reader sets."""

    line: LineAddr
    state: DirState = DirState.I
    owner: Optional[int] = None
    data: LineData = field(default_factory=LineData)
    #: Stable sharers (may be stale after silent evictions; never missing
    #: a resident S copy).
    sharers: Set[int] = field(default_factory=set)
    #: Speculative readers — invisible to the stable sharer list; a
    #: conflicting write reverses them with Undo instead of Inv.
    spec: Set[int] = field(default_factory=set)
    queue: Deque[Message] = field(default_factory=deque)
    #: Outstanding Ack/UndoAck/AckData count while BUSY_WRITE.
    acks_left: int = 0
    writer: Optional[int] = None  # requester awaiting the ack fan-in
    reader: Optional[int] = None  # requester awaiting a recall (read)
    reader_spec: bool = False  # that read was speculative
    fetching: bool = False  # memory fetch in flight

    def is_stable(self) -> bool:
        return self.state in (DirState.I, DirState.S, DirState.M)

    def __repr__(self) -> str:
        return (
            f"<RDir {self.line!r} {self.state.value} owner={self.owner} "
            f"sharers={sorted(self.sharers)} spec={sorted(self.spec)} "
            f"acks={self.acks_left} q={len(self.queue)}>"
        )


@dataclass(slots=True, eq=False)
class RcpEvictingEntry:
    """A directory entry parked while its copies are flushed for eviction."""

    line: LineAddr
    data: LineData
    acks_left: int = 0


class RcpCache:
    """Private cache controller speaking the RCP protocol.

    Duck-types :class:`repro.coherence.private_cache.PrivateCache`'s
    core-facing interface.  ``write_blocked`` is always False — RCP has
    no WritersBlock, so the SoS-bypass machinery never engages.
    """

    def __init__(self, tile: int, params: CacheParams, network: MeshNetwork,
                 events: EventQueue, stats: StatsRegistry, *,
                 writers_block: bool,
                 bus: Optional[EventBus] = None) -> None:
        if writers_block:
            raise ProtocolError("rcp backend has no WritersBlock support")
        self.tile = tile
        self.params = params
        self.network = network
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.writers_block_enabled = False
        self._lines: CacheArray[RcpLine] = CacheArray(params.l2_sets,
                                                      params.l2_ways)
        self._l1 = PresenceLRU(params.l1_sets, params.l1_ways)
        self.mshrs = MSHRFile(params.mshr_entries, params.mshr_reserved_for_sos)
        self.mshrs.observer = self._mshr_event
        # Core hooks, wired by the core model after construction (same
        # contract as PrivateCache; Undo fires invalidation_hook, which
        # is the squash path reversal is defined to drive).
        self.invalidation_hook: Callable[[LineAddr], bool] = lambda line: False
        self.lockdown_query: Callable[[LineAddr], bool] = lambda line: False
        self.eviction_hook: Callable[[LineAddr], None] = lambda line: None
        #: Told the delay of every event scheduled for the core.
        self.wake_hook: Callable[[int], None] = lambda delay: None
        prefix = f"cache{tile}"
        self._stat_loads = stats.counter(f"{prefix}.loads")
        self._stat_hits = stats.counter(f"{prefix}.load_hits")
        self._stat_misses = stats.counter(f"{prefix}.load_misses")
        self._stat_writebacks = stats.counter("cache.writebacks")
        self._stat_invs = stats.counter("cache.invalidations_received")
        self._stat_spec_reads = stats.counter("rcp.spec_reads")
        self._stat_confirms = stats.counter("rcp.confirms")
        self._stat_reversals = stats.counter("rcp.reversals")
        self._num_tiles = network.topology.num_tiles
        # Transition-coverage gate (repro.obs.coverage): None when off.
        self._cov = None
        self._cov_sends: List[str] = []
        network.register(tile, "cache", self.handle_message)

    # ------------------------------------------------------------------ util
    def gauges(self) -> Dict[str, int]:
        """Instantaneous occupancy gauges for the metrics sampler."""
        return {"mshr": self.mshrs.occupancy}

    def _mshr_event(self, action: str, entry: MSHREntry) -> None:
        bus = self.bus
        if not bus.active:
            return
        if action == "alloc":
            bus.emit(Kind.MSHR_ALLOC, self.tile, uid=entry.uid,
                     line=int(entry.line), kind=entry.kind,
                     sos=entry.is_sos_bypass)
        else:
            bus.emit(Kind.MSHR_FREE, self.tile, uid=entry.uid,
                     line=int(entry.line), kind=entry.kind)

    def home_of(self, line: LineAddr) -> int:
        return line.value % self._num_tiles

    def _send(self, msg_type: MsgType, dst: int, port: str, line: LineAddr,
              **payload) -> None:
        if self._cov is not None:
            self._cov_sends.append(msg_type.name)
        network = self.network
        network.send(network.acquire_message(
            msg_type, self.tile, dst, port, line, payload))

    def line_state(self, line: LineAddr) -> CacheState:
        entry = self._lines.lookup(line, touch=False)
        return entry.state if entry else CacheState.I

    def _cov_state(self, line: LineAddr) -> str:
        return self.line_state(line).name

    def line_entry(self, line: LineAddr) -> Optional[RcpLine]:
        return self._lines.lookup(line, touch=False)

    def write_blocked(self, line: LineAddr) -> bool:
        """RCP never parks writes in WritersBlock (no such state)."""
        return False

    def has_write_mshr(self, line: LineAddr) -> bool:
        mshr = self.mshrs.get(line)
        return bool(mshr and mshr.kind == "write")

    # ------------------------------------------------------------- load path
    def load(self, request: LoadRequest, *, sos_bypass: bool = False) -> str:
        """Start a load.  Returns "hit", "miss", or "retry".

        ``sos_bypass`` is accepted for interface compatibility; RCP
        reads are never blocked behind a write, so an SoS load is just a
        load (it may still use the reserved MSHR).
        """
        cov = self._cov
        if cov is None:
            return self._load(request, sos_bypass)
        line = line_of(request.byte_addr, self.params.line_bytes)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        result = self._load(request, sos_bypass)
        probe.note(self, "cache", line,
                   "load_sos" if sos_bypass else "load", before, mark)
        return result

    def _load(self, request: LoadRequest, sos_bypass: bool) -> str:
        self._stat_loads.add()
        line = line_of(request.byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line)
        if entry is not None:
            latency = (self.params.l1_hit_cycles if line in self._l1
                       else self.params.l2_hit_cycles)
            self._l1.touch(line)
            self._stat_hits.add()
            # Value binds at completion, not start: the copy may be
            # reversed (or promoted) inside the hit latency.
            self.events.schedule(latency, lambda: self._finish_hit(request))
            self.wake_hook(latency)
            return "hit"
        self._stat_misses.add()
        mshr = self.mshrs.get(line)
        if mshr is not None:
            if mshr.kind == "writeback":
                return "retry"
            mshr.waiting_loads.append(request)
            return "miss"
        if not self.mshrs.can_allocate(sos=sos_bypass):
            return "retry"
        mshr = self.mshrs.allocate(line, "read", sos_bypass=sos_bypass)
        mshr.waiting_loads.append(request)
        if request.is_ordered():
            self._send(MsgType.GETS, self.home_of(line), "llc", line)
        else:
            # Speculative acquire: the home tracks us in its spec set,
            # reversible by a conflicting write.
            self._stat_spec_reads.add()
            self._send(MsgType.GETS_SPEC, self.home_of(line), "llc", line)
        return "miss"

    def _finish_hit(self, request: LoadRequest) -> None:
        cov = self._cov
        if cov is None:
            return self._finish_hit_impl(request)
        line = line_of(request.byte_addr, self.params.line_bytes)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        self._finish_hit_impl(request)
        probe.note(self, "cache", line, "load", before, mark)

    def _finish_hit_impl(self, request: LoadRequest) -> None:
        line = line_of(request.byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line, touch=False)
        if entry is None:
            # Reversed (or evicted) during the access: replay.
            request.on_must_retry(False)
            return
        if entry.state is CacheState.SPEC and request.is_ordered():
            self._promote(line, entry)
        value = entry.data.read(request.byte_addr % self.params.line_bytes)
        request.on_value(value, False)

    def _promote(self, line: LineAddr, entry: RcpLine) -> None:
        """Confirm-on-commit: an ordered load touched a SPEC copy."""
        entry.state = CacheState.S
        self._stat_confirms.add()
        self._send(MsgType.CONFIRM, self.home_of(line), "llc", line)

    # ------------------------------------------------------------ write path
    def request_write(self, line: LineAddr,
                      on_granted: Callable[[], None]) -> str:
        """Acquire write permission; "granted", "pending" or "retry"."""
        cov = self._cov
        if cov is None:
            return self._request_write(line, on_granted)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        result = self._request_write(line, on_granted)
        probe.note(self, "cache", line, "write", before, mark)
        return result

    def _request_write(self, line: LineAddr,
                       on_granted: Callable[[], None]) -> str:
        entry = self._lines.lookup(line)
        if entry is not None and entry.state is CacheState.M:
            on_granted()
            return "granted"
        mshr = self.mshrs.get(line)
        if mshr is not None:
            if mshr.kind == "write":
                mshr.payload_grants.append(on_granted)
                return "pending"
            if mshr.kind == "read":
                mshr.defer_write(on_granted)
                return "pending"
            return "retry"  # writeback in progress; replay later
        if not self.mshrs.can_allocate():
            return "retry"
        if entry is not None and entry.state is CacheState.SPEC:
            # Self-reversal: our own store conflicts with our own
            # speculative read, so roll the acquisition back before
            # requesting ownership (younger loads bound from the SPEC
            # copy are squashed by the hook — the store orders first).
            self._drop_line(line)
            self._stat_reversals.add()
            self.invalidation_hook(line)
        # No Upgrade path: a stable S copy stays registered at the home,
        # which drops us from its sets without a self-Inv; the exclusive
        # fill always carries fresh authoritative data.
        mshr = self.mshrs.allocate(line, "write")
        mshr.payload_grants = [on_granted]
        self._send(MsgType.GETX, self.home_of(line), "llc", line)
        return "pending"

    def perform_store(self, byte_addr: int, version: int, value: int) -> None:
        line = line_of(byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line)
        if entry is None or entry.state is not CacheState.M:
            raise ProtocolError(
                f"core {self.tile}: store to {line!r} without M permission"
            )
        entry.data.write(byte_addr % self.params.line_bytes, version, value)
        self._l1.touch(line)
        if self._cov is not None:
            probe.note(self, "cache", line, "store", "M",
                       len(self._cov_sends))

    def perform_atomic(self, byte_addr: int, version: int,
                       value: int) -> VersionedValue:
        line = line_of(byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line)
        if entry is None or entry.state is not CacheState.M:
            raise ProtocolError(
                f"core {self.tile}: atomic to {line!r} without M permission"
            )
        old = entry.data.read(byte_addr % self.params.line_bytes)
        entry.data.write(byte_addr % self.params.line_bytes, version, value)
        self._l1.touch(line)
        if self._cov is not None:
            probe.note(self, "cache", line, "atomic", "M",
                       len(self._cov_sends))
        return old

    def send_deferred_ack(self, line: LineAddr) -> None:
        raise ProtocolError("rcp backend has no deferred acks "
                            "(no Nacks, no WritersBlock)")

    # ---------------------------------------------------------- msg handling
    def handle_message(self, msg: Message) -> None:
        handler = self._DISPATCH.get(msg.msg_type)
        if handler is None:
            raise ProtocolError(f"cache {self.tile}: unexpected {msg!r}")
        if self._cov is None:
            handler(self, msg)
            return
        before = self._cov_state(msg.line)
        mark = len(self._cov_sends)
        handler(self, msg)
        probe.note(self, "cache", msg.line, msg.msg_type.name, before, mark)

    def _install(self, line: LineAddr, state: CacheState,
                 data: LineData) -> Optional[RcpLine]:
        existing = self._lines.lookup(line)
        if existing is not None:
            existing.state = state
            existing.data = data
            self._l1.touch(line)
            return existing
        victim = self._pick_victim(line)
        if victim == "full":
            return None  # every way busy: do not cache (rare)
        if victim is not None:
            victim_entry = self._lines.lookup(victim, touch=False)
            if (victim_entry.state is CacheState.M
                    and not self.mshrs.can_allocate()):
                return None  # no writeback MSHR: skip caching this fill
            self._evict(victim)
        entry = RcpLine(state=state, data=data)
        self._lines.insert(line, entry)
        self._l1.touch(line)
        return entry

    def _complete_read(self, mshr: MSHREntry, line: LineAddr,
                       entry: Optional[RcpLine], data: LineData) -> None:
        """Deliver waiting loads after a DATA fill, then chain deferred
        writes.  An ordered load delivered from a SPEC fill promotes it
        (the fill's speculation is confirmed by the commit)."""
        waiting = list(mshr.waiting_loads)
        deferred = list(mshr.deferred_writes)
        self.mshrs.free(mshr)
        for request in waiting:
            if entry is None:
                # Every way was busy so the fill was not cached: serve
                # the response data use-once.
                value = data.read(request.byte_addr % self.params.line_bytes)
                request.on_value(value, False)
                continue
            if entry.state is CacheState.SPEC and request.is_ordered():
                self._promote(line, entry)
            value = entry.data.read(request.byte_addr % self.params.line_bytes)
            request.on_value(value, False)
        for on_granted in deferred:
            self.request_write(line, on_granted)

    def _on_data(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "read":
            raise ProtocolError(f"cache {self.tile}: Data without read "
                                f"MSHR {msg!r}")
        data: LineData = msg.payload["data"]
        state = (CacheState.SPEC if msg.payload.get("spec")
                 else CacheState.S)
        entry = self._install(msg.line, state, data)
        self._complete_read(mshr, msg.line, entry, data)

    def _on_data_excl(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "write":
            raise ProtocolError(f"cache {self.tile}: DataE without write "
                                f"MSHR {msg!r}")
        entry = self._install(msg.line, CacheState.M, msg.payload["data"])
        if entry is None:
            # Unlike a read fill, ownership cannot be dropped on the
            # floor — the directory now names us owner.
            raise ProtocolError(
                f"cache {self.tile}: no way free to install owned line "
                f"{msg.line!r}")
        waiting = list(mshr.waiting_loads)
        grants = list(mshr.payload_grants)
        self.mshrs.free(mshr)
        for request in waiting:
            value = entry.data.read(request.byte_addr % self.params.line_bytes)
            request.on_value(value, False)
        for on_granted in grants:
            on_granted()

    def _on_inv(self, msg: Message) -> None:
        """Invalidate our stable copy (conflicting write, or the home is
        evicting its entry).  The ack always collects at the directory —
        the blocking home counts the fan-in itself."""
        line = msg.line
        self._stat_invs.add()
        entry = self._lines.lookup(line, touch=False)
        data: Optional[LineData] = None
        if entry is not None:
            if entry.state is CacheState.M:
                data = entry.data
            self._drop_line(line)
        self.invalidation_hook(line)
        if data is not None:
            self._send(MsgType.ACK_DATA, self.home_of(line), "llc", line,
                       data=data.copy())
        else:
            # Covers stale-sharer Invs (our copy left silently) and the
            # writeback-crossing case — the in-flight PutM carries the
            # data, FIFO-ahead of this Ack.
            self._send(MsgType.ACK, self.home_of(line), "llc", line)

    def _on_undo(self, msg: Message) -> None:
        """Reversal: a conflicting write rolls back our speculative
        acquisition.  The hook fires before the ack, so every load bound
        from the reversed copy is squashed before the write can be
        granted.  A promoted (S) copy is reversed the same way — its
        Confirm crossed this Undo and the home ignored it."""
        line = msg.line
        entry = self._lines.lookup(line, touch=False)
        if entry is not None:
            if entry.state is CacheState.M:
                raise ProtocolError(
                    f"cache {self.tile}: Undo hit owned copy {msg!r}")
            self._drop_line(line)
        self._stat_reversals.add()
        self.invalidation_hook(line)
        self._send(MsgType.UNDO_ACK, self.home_of(line), "llc", line)

    def _on_recall(self, msg: Message) -> None:
        """The directory recalls our owned copy for a waiting reader; we
        keep a stable shared copy (the home re-adds us as a sharer)."""
        line = msg.line
        entry = self._lines.lookup(line, touch=False)
        if entry is not None and entry.state is CacheState.M:
            entry.state = CacheState.S
            self._send(MsgType.RECALL_ACK, self.home_of(line), "llc", line,
                       data=entry.data.copy())
            return
        wb = self.mshrs.get(line)
        if wb is not None and wb.kind == "writeback":
            # Our eviction writeback crossed the recall; answer from the
            # writeback buffer (the WbAck is FIFO-behind this Recall).
            self._send(MsgType.RECALL_ACK, self.home_of(line), "llc", line,
                       data=wb.data.copy())
            return
        raise ProtocolError(f"cache {self.tile}: Recall but not owner {msg!r}")

    def _on_wb_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "writeback":
            raise ProtocolError(f"cache {self.tile}: WbAck w/o writeback "
                                f"{msg!r}")
        self.mshrs.free(mshr)

    # ------------------------------------------------------------- residency
    def _pick_victim(self, line: LineAddr):
        victim = self._lines.victim_for(line)
        if victim is None:
            return None
        victim_line, __ = victim
        if not self._busy(victim_line):
            return victim_line
        target_set = line.value % self.params.l2_sets
        for cand_line, __ in self._lines.items():
            if cand_line.value % self.params.l2_sets != target_set:
                continue
            if not self._busy(cand_line):
                return cand_line
        return "full"

    def _busy(self, line: LineAddr) -> bool:
        return self.mshrs.get(line) is not None

    def _evict(self, line: LineAddr) -> None:
        cov = self._cov
        if cov is None:
            self._evict_impl(line)
            return
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        self._evict_impl(line)
        probe.note(self, "cache", line, "evict", before, mark)

    def _evict_impl(self, line: LineAddr) -> None:
        entry = self._lines.lookup(line, touch=False)
        if entry is None:
            return
        if entry.state is CacheState.M:
            wb = self.mshrs.allocate(line, "writeback")
            wb.data = entry.data
            self._stat_writebacks.add()
            self._send(MsgType.PUTM, self.home_of(line), "llc", line,
                       data=entry.data.copy())
        # S and SPEC copies drop silently: the home keeps the sharer /
        # spec record, so a future write's Inv/Undo still reaches this
        # core and fires the squash hook for loads bound from the copy.
        self._drop_line(line)

    def _drop_line(self, line: LineAddr) -> None:
        self._lines.remove(line)
        self._l1.drop(line)

    # MsgType -> handler, called as ``handler(self, msg)``: one table per
    # class, so instances (and explorer forks) carry no bound methods.
    _DISPATCH = {
        MsgType.DATA: _on_data,
        MsgType.DATA_EXCL: _on_data_excl,
        MsgType.INV: _on_inv,
        MsgType.UNDO: _on_undo,
        MsgType.RECALL: _on_recall,
        MsgType.WB_ACK: _on_wb_ack,
    }


class RcpDirectory:
    """Directory / LLC bank for the RCP protocol.

    A blocking home: a conflicting write moves the entry to BUSY_WRITE
    and the directory itself collects the Inv/Undo fan-in (no Unblock,
    no requester-side ack counting); reads of an owned line recall the
    owner through BUSY_READ.  Internal structures (``_array``,
    ``_evicting``, ``_pending_allocs``) mirror :class:`DirectoryBank`
    so generic residue checks work on both.
    """

    def __init__(self, tile: int, params: CacheParams, network: MeshNetwork,
                 events: EventQueue, stats: StatsRegistry, *,
                 writers_block: bool,
                 bus: Optional[EventBus] = None) -> None:
        if writers_block:
            raise ProtocolError("rcp backend has no WritersBlock support")
        self.tile = tile
        self.params = params
        self.network = network
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.writers_block_enabled = False
        self._array: CacheArray[RcpDirEntry] = CacheArray(
            params.llc_sets_per_bank, params.llc_ways
        )
        self._memory: Dict[LineAddr, LineData] = {}
        self._evicting: Dict[LineAddr, RcpEvictingEntry] = {}
        self._pending_allocs: List[Message] = []
        self._retry_scheduled = False
        # Transition-coverage gate (repro.obs.coverage): None when off.
        self._cov = None
        self._cov_sends: List[str] = []
        self._stat_requests = stats.counter("dir.requests")
        self._stat_evictions = stats.counter("dir.llc_evictions")
        self._stat_recalls = stats.counter("rcp.recalls")
        network.register(tile, "llc", self.handle_message)

    # ------------------------------------------------------------------ util
    def _send(self, msg_type: MsgType, dst: int, line: LineAddr,
              delay: Optional[int] = None, **payload) -> None:
        """Send after the bank's access latency (uniform delay keeps
        per-channel FIFO order — an Undo must never overtake the Data
        that installed the speculative copy it reverses)."""
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

    # -------------------------------------------------------------- requests
    def _on_request(self, msg: Message) -> None:
        self._stat_requests.add()
        entry = self._array.lookup(msg.line)
        if entry is None:
            if msg.line in self._evicting:
                # Mid-eviction: copies are still being flushed; park.
                msg.parked = True
                self._pending_allocs.append(msg)
                return
            entry = self._try_allocate(msg.line)
            if entry is None:
                msg.parked = True
                self._pending_allocs.append(msg)
                return
        if not entry.is_stable() or entry.fetching:
            msg.parked = True
            entry.queue.append(msg)
            return
        self._process_request(entry, msg)

    def _process_request(self, entry: RcpDirEntry, msg: Message) -> None:
        if msg.msg_type is MsgType.GETX:
            self._process_getx(entry, msg)
        else:
            self._process_read(entry, msg)

    def _track_reader(self, entry: RcpDirEntry, requester: int,
                      spec: bool) -> None:
        """Register a served read in exactly one of the two sets (a core
        re-reading under the other mode migrates)."""
        if spec:
            entry.sharers.discard(requester)
            entry.spec.add(requester)
        else:
            entry.spec.discard(requester)
            entry.sharers.add(requester)

    def _process_read(self, entry: RcpDirEntry, msg: Message) -> None:
        """GETS or GETS_SPEC: serve the LLC copy, recalling the owner
        first when one exists.  Speculative reads are served identically
        but tracked in the spec set, reversible by a later write."""
        requester = msg.src
        spec = msg.msg_type is MsgType.GETS_SPEC
        if entry.state is DirState.M:
            if entry.owner == requester:
                raise ProtocolError(
                    f"read from current owner {requester} for {entry.line!r}")
            entry.state = DirState.BUSY_READ
            entry.reader = requester
            entry.reader_spec = spec
            self._stat_recalls.add()
            self._send(MsgType.RECALL, entry.owner, entry.line)
            return
        self._track_reader(entry, requester, spec)
        entry.state = DirState.S
        self._send(MsgType.DATA, requester, entry.line,
                   data=entry.data.copy(), spec=spec)

    def _process_getx(self, entry: RcpDirEntry, msg: Message) -> None:
        writer = msg.src
        if entry.state is DirState.M:
            if entry.owner == writer:
                raise ProtocolError(
                    f"GetX from current owner {writer} for {entry.line!r}")
            entry.state = DirState.BUSY_WRITE
            entry.writer = writer
            entry.acks_left = 1
            self._send(MsgType.INV, entry.owner, entry.line)
            return
        # The requester's own registration (if any) is dropped without a
        # self-Inv: its stable copy carries the authoritative data and
        # the exclusive fill will overwrite it; a SPEC copy was already
        # self-reversed at request_write.
        entry.sharers.discard(writer)
        entry.spec.discard(writer)
        inv_targets = sorted(entry.sharers)
        undo_targets = sorted(entry.spec)
        if not inv_targets and not undo_targets:
            self._grant_exclusive(entry, writer)
            return
        entry.state = DirState.BUSY_WRITE
        entry.writer = writer
        entry.acks_left = len(inv_targets) + len(undo_targets)
        entry.sharers.clear()
        entry.spec.clear()
        for tile in inv_targets:
            self._send(MsgType.INV, tile, entry.line)
        for tile in undo_targets:
            self._send(MsgType.UNDO, tile, entry.line)

    def _grant_exclusive(self, entry: RcpDirEntry, writer: int) -> None:
        """Hand ownership to *writer*.  Every other copy has been
        flushed (ack fan-in complete), so SWMR holds from here."""
        self._send(MsgType.DATA_EXCL, writer, entry.line,
                   data=entry.data.copy())
        entry.state = DirState.M
        entry.owner = writer
        entry.writer = None
        entry.sharers.clear()
        entry.spec.clear()

    # ------------------------------------------------------------- responses
    def _on_ack(self, msg: Message) -> None:
        """Ack / UndoAck / AckData fan-in for a write or an eviction."""
        line = msg.line
        data: Optional[LineData] = msg.payload.get("data")
        evicting = self._evicting.get(line)
        if evicting is not None:
            if data is not None:
                evicting.data.merge_from(data)
            evicting.acks_left -= 1
            if evicting.acks_left == 0:
                self._memory[line] = evicting.data
                del self._evicting[line]
                self._schedule_retry()
            return
        entry = self._array.lookup(line)
        if (entry is None or entry.state is not DirState.BUSY_WRITE
                or entry.acks_left <= 0):
            raise ProtocolError(f"directory {self.tile}: stray ack {msg!r}")
        if data is not None:
            entry.data.merge_from(data)
        entry.acks_left -= 1
        if entry.acks_left == 0:
            self._grant_exclusive(entry, entry.writer)
            self._drain_queue(entry)

    def _on_confirm(self, msg: Message) -> None:
        """Promote a speculative reader to a stable sharer.  A confirm
        that lost a race — the copy was reversed, the entry evicted or
        re-allocated before it arrived — is ignored: the cache-side Undo
        handler already accepted the reversal of the promoted copy."""
        entry = self._array.lookup(msg.line)
        if entry is None:
            return  # evicted (or evicting) since: stale
        if entry.state is DirState.M and entry.owner == msg.src:
            # Impossible by channel FIFO: the Confirm was sent before
            # any GetX that could have made the sender owner.
            raise ProtocolError(
                f"directory {self.tile}: Confirm from current owner {msg!r}")
        if msg.src in entry.spec:
            entry.spec.discard(msg.src)
            entry.sharers.add(msg.src)

    def _on_recall_ack(self, msg: Message) -> None:
        line = msg.line
        entry = self._array.lookup(line)
        if entry is None or entry.state is not DirState.BUSY_READ:
            raise ProtocolError(f"RecallAck without recalling entry {msg!r}")
        entry.data.merge_from(msg.payload["data"])
        prev_owner = entry.owner
        entry.owner = None
        entry.state = DirState.S
        if prev_owner is not None:
            # The recalled owner kept a stable shared copy.
            entry.sharers.add(prev_owner)
        reader = entry.reader
        spec = entry.reader_spec
        entry.reader = None
        entry.reader_spec = False
        self._track_reader(entry, reader, spec)
        self._send(MsgType.DATA, reader, line,
                   data=entry.data.copy(), spec=spec)
        self._drain_queue(entry)

    def _on_putm(self, msg: Message) -> None:
        line = msg.line
        payload = msg.payload
        evicting = self._evicting.get(line)
        if evicting is not None:
            # Writeback crossed our eviction Inv; the Ack (sent after
            # this PutM) still completes the eviction count.
            evicting.data.merge_from(payload["data"])
            self._send(MsgType.WB_ACK, msg.src, line)
            return
        entry = self._array.lookup(line)
        if entry is None:
            # Defensive: a stray writeback for a spilled line.
            self._memory_data(line).merge_from(payload["data"])
            self._send(MsgType.WB_ACK, msg.src, line)
            return
        if entry.owner == msg.src:
            entry.data.merge_from(payload["data"])
            if entry.is_stable():
                # Normal owner writeback.  Mid-recall / mid-Inv (BUSY_*)
                # the state advances when the crossing ack arrives.
                entry.owner = None
                entry.state = DirState.S
            self._send(MsgType.WB_ACK, msg.src, line)
            if entry.is_stable():
                self._drain_queue(entry)
        else:
            # Stale PutM from a core that is no longer owner.
            self._send(MsgType.WB_ACK, msg.src, line)

    # ----------------------------------------------------------- allocation
    def _try_allocate(self, line: LineAddr) -> Optional[RcpDirEntry]:
        victim = self._array.victim_for(line)
        if victim is not None:
            victim_line, victim_entry = victim
            if (not victim_entry.is_stable() or victim_entry.queue
                    or victim_entry.state is DirState.M
                    or victim_entry.sharers or victim_entry.spec):
                victim_entry = self._find_victim(line)
                if victim_entry is None:
                    return None
                victim_line = victim_entry.line
            if not self._evict(victim_line, victim_entry):
                return None
        entry = RcpDirEntry(line=line, data=self._memory_data(line).copy())
        entry.fetching = True
        self._array.insert(line, entry)
        self.events.schedule(self.params.memory_cycles,
                             lambda: self._fetch_done(entry))
        return entry

    def _find_victim(self, line: LineAddr) -> Optional[RcpDirEntry]:
        """Prefer a victim that spills silently (no copies) over one
        needing an Inv/Undo fan-out, over one whose owner must be
        flushed; LRU order within each preference."""
        target_set = line.value % self.params.llc_sets_per_bank
        with_copies = None
        owned = None
        for cand_line, cand in self._array.items():
            if cand_line.value % self.params.llc_sets_per_bank != target_set:
                continue
            if not cand.is_stable() or cand.queue:
                continue
            if cand.state is DirState.M:
                if owned is None:
                    owned = cand
                continue
            if cand.sharers or cand.spec:
                if with_copies is None:
                    with_copies = cand
                continue
            return cand
        return with_copies if with_copies is not None else owned

    def _evict(self, line: LineAddr, entry: RcpDirEntry) -> bool:
        cov = self._cov
        if cov is None:
            return self._evict_impl(line, entry)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        evicted = self._evict_impl(line, entry)
        if evicted:
            probe.note(self, "dir", line, "evict", before, mark)
        return evicted

    def _evict_impl(self, line: LineAddr, entry: RcpDirEntry) -> bool:
        if entry.state is DirState.M:
            if len(self._evicting) >= self.params.dir_eviction_buffer:
                return False
            self._stat_evictions.add()
            self._array.remove(line)
            self._evicting[line] = RcpEvictingEntry(
                line=line, data=entry.data, acks_left=1)
            # The owner's copy must die (unlike a read recall): once the
            # entry spills, the home forgets whom a future write would
            # have to flush.
            self._send(MsgType.INV, entry.owner, line)
            return True
        targets = sorted(entry.sharers | entry.spec)
        if targets:
            if len(self._evicting) >= self.params.dir_eviction_buffer:
                return False
            self._stat_evictions.add()
            self._array.remove(line)
            self._evicting[line] = RcpEvictingEntry(
                line=line, data=entry.data, acks_left=len(targets))
            for tile in targets:
                if tile in entry.spec:
                    self._send(MsgType.UNDO, tile, line)
                else:
                    self._send(MsgType.INV, tile, line)
            return True
        self._stat_evictions.add()
        self._array.remove(line)
        self._memory[line] = entry.data
        return True

    def _fetch_done(self, entry: RcpDirEntry) -> None:
        entry.fetching = False
        self._drain_queue(entry)
        self._schedule_retry()

    def _schedule_retry(self) -> None:
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

    def _drain_queue(self, entry: RcpDirEntry) -> None:
        release = self.network.pool.release
        while entry.queue and entry.is_stable() and not entry.fetching:
            msg = entry.queue.popleft()
            msg.parked = False
            self._process_request(entry, msg)
            if not msg.parked:
                release(msg)
        self._schedule_retry()

    # --------------------------------------------------------------- inspect
    def entry(self, line: LineAddr) -> Optional[RcpDirEntry]:
        return self._array.lookup(line, touch=False)

    def evicting_entry(self, line: LineAddr) -> Optional[RcpEvictingEntry]:
        return self._evicting.get(line)

    def snapshot(self) -> str:
        busy = [repr(e) for __, e in self._array.items() if not e.is_stable()]
        return f"dir{self.tile}: busy={busy} evicting={list(self._evicting)}"

    def gauges(self) -> Dict[str, int]:
        """Same gauge schema as the baseline bank (wb is always 0)."""
        dirq = len(self._pending_allocs)
        for __, entry in self._array.items():
            dirq += len(entry.queue)
        return {"dirq": dirq, "wb": 0, "evb": len(self._evicting)}

    # MsgType -> handler, called as ``handler(self, msg)``: one table per
    # class, so instances (and explorer forks) carry no bound methods.
    _DISPATCH = {
        MsgType.GETS: _on_request,
        MsgType.GETS_SPEC: _on_request,
        MsgType.GETX: _on_request,
        MsgType.PUTM: _on_putm,
        MsgType.ACK: _on_ack,
        MsgType.ACK_DATA: _on_ack,
        MsgType.UNDO_ACK: _on_ack,
        MsgType.CONFIRM: _on_confirm,
        MsgType.RECALL_ACK: _on_recall_ack,
    }


class RcpBackend(CoherenceBackend):
    """Registry entry wiring RcpCache/RcpDirectory into the sim."""

    name = "rcp"
    message_types = (
        MsgType.GETS, MsgType.GETS_SPEC, MsgType.GETX, MsgType.PUTM,
        MsgType.DATA, MsgType.DATA_EXCL, MsgType.WB_ACK, MsgType.INV,
        MsgType.ACK, MsgType.ACK_DATA, MsgType.UNDO, MsgType.UNDO_ACK,
        MsgType.CONFIRM, MsgType.RECALL, MsgType.RECALL_ACK,
    )
    supports_writers_block = False
    has_invalidations = True
    has_speculative_state = True
    #: OOO_WB needs WritersBlock; RCP's answer to load-load reordering
    #: is reversal + squash under plain OOO.  OOO_UNSAFE stays available
    #: as the checker-validation ablation.
    supported_commit_modes = (CommitMode.IN_ORDER, CommitMode.OOO,
                              CommitMode.OOO_UNSAFE)

    def transition_alphabet(self) -> frozenset:
        from .alphabet import RCP_ALPHABET
        return RCP_ALPHABET

    def build_cache(self, tile, params, network, events, stats, *,
                    writers_block, bus=None):
        return RcpCache(tile, params, network, events, stats,
                        writers_block=writers_block, bus=bus)

    def build_directory(self, tile, params, network, events, stats, *,
                        writers_block, bus=None):
        return RcpDirectory(tile, params, network, events, stats,
                            writers_block=writers_block, bus=bus)

    # ------------------------------------------------------------ invariants
    def coherence_problems(self, system) -> List[str]:
        """Quiescent-state invariants for reversible coherence.

        * SWMR: at most one M copy; an owner excludes every other copy
          (stable or speculative) — all were flushed before the grant.
        * Registration soundness: every resident S copy is on its home's
          sharer list and every resident SPEC copy in its home's spec
          set ("no orphan spec copies": an unregistered SPEC copy would
          never be reversed, so a committed load could source from a
          line a completed write should have reversed).
        * Spec lines never dirty: S and SPEC copies carry the home's
          authoritative data.
        * No residual transients: stable entries, empty queues, zero
          outstanding acks, drained MSHRs and eviction buffers.
        """
        from .invariants import directory_banks
        problems: List[str] = []
        banks = directory_banks(system)
        lines = set()
        for cache in system.caches:
            for line, __ in cache._lines.items():
                lines.add(line)
        for bank in banks:
            for line, __ in bank._array.items():
                lines.add(line)

        for line in sorted(lines, key=int):
            home = banks[int(line) % len(banks)]
            entry = home.entry(line)
            holders = {
                tile: cache.line_state(line)
                for tile, cache in enumerate(system.caches)
                if cache.line_state(line) is not CacheState.I
            }
            owners = [t for t, s in holders.items() if s is CacheState.M]
            shared = [t for t, s in holders.items() if s is CacheState.S]
            spec = [t for t, s in holders.items() if s is CacheState.SPEC]
            if len(owners) > 1:
                problems.append(f"{line!r}: multiple owners {owners}")
            if owners and (shared or spec):
                problems.append(
                    f"{line!r}: owner {owners} coexists with copies "
                    f"S={shared} SPEC={spec}")
            if entry is None:
                if holders:
                    problems.append(
                        f"{line!r}: cached at {sorted(holders)} but no dir "
                        f"entry")
                continue
            if not entry.is_stable() or entry.queue or entry.acks_left:
                problems.append(f"{line!r}: residual transient {entry!r}")
                continue
            if entry.state is DirState.M:
                if not owners or entry.owner != owners[0]:
                    problems.append(
                        f"{line!r}: dir owner {entry.owner} but holders "
                        f"{holders}")
                continue
            if owners:
                problems.append(
                    f"{line!r}: owned by cache {owners[0]} but dir entry "
                    f"is {entry!r}")
                continue
            for tile in shared:
                if tile not in entry.sharers:
                    problems.append(
                        f"{line!r}: cache {tile} in S but missing from "
                        f"sharer list {sorted(entry.sharers)}")
            for tile in spec:
                if tile not in entry.spec:
                    problems.append(
                        f"{line!r}: orphan SPEC copy at cache {tile} not in "
                        f"spec set {sorted(entry.spec)}")
            for tile in shared + spec:
                cached = system.caches[tile].line_entry(line)
                if cached.data.values != entry.data.values:
                    problems.append(
                        f"{line!r}: copy at cache {tile} data "
                        f"{cached.data!r} differs from LLC {entry.data!r}")
        for bank in banks:
            if bank._evicting:
                problems.append(
                    f"dir{bank.tile}: eviction buffer not empty "
                    f"{list(bank._evicting)}")
            if bank._pending_allocs:
                problems.append(f"dir{bank.tile}: parked requests left over")
        for cache in system.caches:
            leftovers = cache.mshrs.entries()
            if leftovers:
                problems.append(f"cache{cache.tile}: MSHRs not drained "
                                f"{leftovers}")
        return problems

    def cycle_problems(self, system) -> List[str]:
        """Invariants that hold at *every* cycle, mid-transaction:

        * at most one M copy per line, and an owner never coexists with
          any other copy (the grant waits for the full ack fan-in);
        * while a home entry is stable, every resident SPEC copy of the
          line is registered in its spec set (reversals can reach it)
          and carries the home's authoritative data (spec never dirty).
          Transients are exempt: a reversal in flight leaves the copy
          resident after the sets were folded into the ack count.
        """
        from .invariants import directory_banks
        problems: List[str] = []
        banks = directory_banks(system)
        holders: Dict[LineAddr, List] = {}
        for cache in system.caches:
            for line, entry in cache._lines.items():
                holders.setdefault(line, []).append((cache.tile, entry))
        for line, copies in holders.items():
            owners = [t for t, e in copies if e.state is CacheState.M]
            if len(owners) > 1:
                problems.append(f"{line!r}: multiple owners {owners}")
            elif owners and len(copies) > 1:
                problems.append(
                    f"{line!r}: owner {owners[0]} coexists with copies at "
                    f"{sorted(t for t, __ in copies)}")
            home = banks[int(line) % len(banks)]
            dentry = home.entry(line)
            if dentry is None or not dentry.is_stable() or dentry.fetching \
                    or dentry.acks_left:
                continue
            for tile, entry in copies:
                if entry.state is not CacheState.SPEC:
                    continue
                if tile not in dentry.spec:
                    problems.append(
                        f"{line!r}: orphan SPEC copy at cache {tile} not in "
                        f"spec set {sorted(dentry.spec)}")
                if entry.data.values != dentry.data.values:
                    problems.append(
                        f"{line!r}: SPEC copy at cache {tile} data "
                        f"{entry.data!r} diverged from LLC {dentry.data!r}")
        return problems


register_backend(RcpBackend())
