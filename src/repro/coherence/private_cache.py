"""Private cache controller (L1+L2 as one coherence point).

The controller speaks the directory protocol on behalf of one core and
exposes a small callback-based interface to the core model:

* :meth:`load` — perform or start a read for one load instruction;
* :meth:`request_write` — acquire write permission for a line (store
  prefetch or SB head);
* :meth:`perform_store` / :meth:`perform_atomic` — write the local M copy;
* :meth:`send_deferred_ack` — called by the core when the last lockdown
  for a Nacked invalidation lifts (paper §3.2).

The core side plugs in these hooks:

* ``invalidation_hook(line) -> bool`` — called for every invalidation
  that must be answered; returns True when a lockdown exists (so the
  cache Nacks and the ack is deferred) and False otherwise (plain Ack).
  Squash-and-re-execute cores squash inside the hook and return False.
* ``lockdown_query(line) -> bool`` — is a lockdown currently held on
  *line*?  Used to avoid evicting locked lines (paper §3.8).
* ``eviction_hook(line)`` — a non-silent eviction of *line* (§3.8).
* ``wake_hook(delay)`` — a hit completion was scheduled *delay* cycles
  ahead, so a sleeping core wakes for it (repro.sim.system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..common.errors import ProtocolError
from ..common.event_queue import EventQueue
from ..common.params import CacheParams
from ..common.stats import StatsRegistry
from ..common.types import CacheState, LineAddr, MsgType, line_of
from ..mem.cache_array import CacheArray, PresenceLRU
from ..mem.line_data import LineData, VersionedValue
from ..mem.mshr import MSHREntry, MSHRFile
from ..network.mesh import MeshNetwork
from ..network.message import Message
from ..obs.events import EventBus, Kind
from . import probe


@dataclass(slots=True)
class PrivateLine:
    """A line resident in the private hierarchy."""

    state: CacheState
    data: LineData


@dataclass(slots=True, eq=False)
class LoadRequest:
    """A load instruction's view of the cache interface.

    ``on_value(value, uncacheable)`` delivers the versioned value;
    ``on_must_retry(wait_for_sos)`` fires when the access must be
    replayed: with ``wait_for_sos=True`` the load received tear-off data
    it may not use (it was unordered) and re-issues once it becomes the
    SoS load; with ``False`` the line was lost mid-access and the load
    replays immediately.  ``is_ordered()`` asks the core whether all
    older loads are performed.
    """

    byte_addr: int
    is_ordered: Callable[[], bool]
    on_value: Callable[[VersionedValue, bool], None]
    on_must_retry: Callable[[bool], None]


class PrivateCache:
    """MESI private cache with lockdown/WritersBlock support."""

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
        self._lines: CacheArray[PrivateLine] = CacheArray(params.l2_sets, params.l2_ways)
        self._l1 = PresenceLRU(params.l1_sets, params.l1_ways)
        self.mshrs = MSHRFile(params.mshr_entries, params.mshr_reserved_for_sos)
        self.mshrs.observer = self._mshr_event
        # Transition-coverage gate (repro.obs.coverage): None when off.
        self._cov = None
        self._cov_sends: List[str] = []
        # Core hooks, wired by the core model after construction.
        self.invalidation_hook: Callable[[LineAddr], bool] = lambda line: False
        self.lockdown_query: Callable[[LineAddr], bool] = lambda line: False
        self.eviction_hook: Callable[[LineAddr], None] = lambda line: None
        #: Told the delay of every event scheduled for the core.
        self.wake_hook: Callable[[int], None] = lambda delay: None
        prefix = f"cache{tile}"
        self._stat_loads = stats.counter(f"{prefix}.loads")
        self._stat_hits = stats.counter(f"{prefix}.load_hits")
        self._stat_misses = stats.counter(f"{prefix}.load_misses")
        self._stat_tearoff_used = stats.counter("cache.tearoffs_used")
        self._stat_tearoff_retry = stats.counter("cache.tearoffs_unusable")
        self._stat_nacks = stats.counter("cache.nacks_sent")
        self._stat_invs = stats.counter("cache.invalidations_received")
        self._stat_writebacks = stats.counter("cache.writebacks")
        self._num_tiles = network.topology.num_tiles
        network.register(tile, "cache", self.handle_message)

    # ------------------------------------------------------------------ util
    def gauges(self) -> Dict[str, int]:
        """Instantaneous occupancy gauges for the metrics sampler."""
        return {"mshr": self.mshrs.occupancy}

    def _mshr_event(self, action: str, entry: MSHREntry) -> None:
        """MSHRFile observer: surface occupancy begin/end on the bus."""
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

    def line_entry(self, line: LineAddr) -> Optional[PrivateLine]:
        return self._lines.lookup(line, touch=False)

    def write_blocked(self, line: LineAddr) -> bool:
        """Has the directory hinted that our write for *line* is blocked?"""
        mshr = self.mshrs.get(line)
        return bool(mshr and mshr.kind == "write" and mshr.blocked_hint)

    def has_write_mshr(self, line: LineAddr) -> bool:
        mshr = self.mshrs.get(line)
        return bool(mshr and mshr.kind == "write")

    # ------------------------------------------------------------- load path
    def load(self, request: LoadRequest, *, sos_bypass: bool = False) -> str:
        """Start a load access.  Returns "hit", "miss", or "retry".

        "retry" means no MSHR was available (or the access must be
        replayed for another structural reason); the core retries later.
        With ``sos_bypass`` the load launches an *uncacheable* read on a
        fresh (possibly reserved) MSHR, ignoring any same-line write MSHR
        it would otherwise piggyback on (paper §3.5.2).
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
        if entry is not None and entry.state is not CacheState.I:
            latency = (self.params.l1_hit_cycles if line in self._l1
                       else self.params.l2_hit_cycles)
            self._l1.touch(line)
            self._stat_hits.add()
            # The value is bound when the access COMPLETES, not when it
            # starts: an invalidation landing inside the hit latency must
            # not let the load keep the stale value unprotected (it is
            # not "performed" yet, so no lockdown/squash would cover it).
            self.events.schedule(latency, lambda: self._finish_hit(request))
            self.wake_hook(latency)
            return "hit"
        self._stat_misses.add()
        if sos_bypass:
            if not self.mshrs.can_allocate(sos=True):
                return "retry"
            mshr = self.mshrs.allocate(line, "read", sos_bypass=True)
            mshr.uncacheable = True
            mshr.waiting_loads.append(request)
            self._send(MsgType.GETS, self.home_of(line), "llc", line,
                       uncacheable=True)
            return "miss"
        mshr = self.mshrs.get(line)
        if mshr is not None:
            # Piggyback on the outstanding transaction for this line
            # (read, write, or writeback-in-progress).
            if mshr.kind == "writeback":
                # The line is leaving; wait for the writeback to finish,
                # then the core will replay and miss cleanly.
                return "retry"
            mshr.waiting_loads.append(request)
            return "miss"
        if not self.mshrs.can_allocate():
            return "retry"
        mshr = self.mshrs.allocate(line, "read")
        mshr.waiting_loads.append(request)
        self._send(MsgType.GETS, self.home_of(line), "llc", line)
        return "miss"

    def _finish_hit(self, request: LoadRequest) -> None:
        """Complete a hit: deliver the line's *current* value, or replay
        the access as a miss if the line was invalidated mid-access."""
        line = line_of(request.byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line, touch=False)
        if entry is not None and entry.state is not CacheState.I:
            value = entry.data.read(request.byte_addr % self.params.line_bytes)
            request.on_value(value, False)
            return
        # Lost the line during the access: tell the core to replay.
        request.on_must_retry(False)

    # ------------------------------------------------------------ write path
    def request_write(self, line: LineAddr, on_granted: Callable[[], None]) -> str:
        """Acquire write permission for *line*; returns "granted",
        "pending" or "retry" (MSHR full)."""
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
        if entry is not None and entry.state in (CacheState.M, CacheState.E):
            entry.state = CacheState.M  # silent E->M upgrade
            on_granted()
            return "granted"
        mshr = self.mshrs.get(line)
        if mshr is not None:
            if mshr.kind == "write":
                mshr.payload_grants.append(on_granted)
                return "pending"
            if mshr.kind == "read":
                # A read for the line is in flight; chain the write after
                # it to avoid requesting from ourselves at the directory.
                mshr.defer_write(on_granted)
                return "pending"
            return "retry"  # writeback in progress; replay later
        if not self.mshrs.can_allocate():
            return "retry"
        mshr = self.mshrs.allocate(line, "write")
        mshr.payload_grants = [on_granted]
        mshr.acks_received = 0
        mshr.acks_expected = None
        if entry is not None and entry.state is CacheState.S:
            mshr.was_upgrade = True
            self._send(MsgType.UPGRADE, self.home_of(line), "llc", line)
        else:
            mshr.was_upgrade = False
            self._send(MsgType.GETX, self.home_of(line), "llc", line)
        return "pending"

    def perform_store(self, byte_addr: int, version: int, value: int) -> None:
        """Write the local M-state copy (store becomes globally visible)."""
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
        """Atomically read-then-write the local M copy (RMW)."""
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
        """The last lockdown for a Nacked invalidation lifted (paper §3.2)."""
        self._send(MsgType.DEFERRED_ACK, self.home_of(line), "llc", line)

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

    # Data responses -------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None:
            raise ProtocolError(f"cache {self.tile}: data without MSHR {msg!r}")
        data: LineData = msg.payload["data"]
        if mshr.kind == "read":
            state = (CacheState.E if msg.msg_type is MsgType.DATA_EXCL
                     else CacheState.S)
            self._install(msg.line, state, data)
            self._send(MsgType.UNBLOCK, self.home_of(msg.line), "llc", msg.line)
            not_installed = self._lines.lookup(msg.line, touch=False) is None
            self._complete_read(mshr, msg.line, data)
            if state is CacheState.E and not_installed:
                # Every way was locked so the exclusive fill was not
                # installed — but the directory now believes we own the
                # line.  Relinquish ownership right away so forwarded
                # requests never find a phantom owner.
                wb = self.mshrs.allocate(msg.line, "writeback")
                wb.data = data
                self._stat_writebacks.add()
                self._send(MsgType.PUTM, self.home_of(msg.line), "llc",
                           msg.line, data=data.copy())
        elif mshr.kind == "write":
            mshr.has_data = True
            mshr.data = data
            if "ack_count" in msg.payload:
                mshr.acks_expected = msg.payload["ack_count"]
            self._maybe_complete_write(mshr, msg.line)
        else:
            raise ProtocolError(f"cache {self.tile}: data for {mshr!r}")

    def _on_perm(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "write":
            raise ProtocolError(f"cache {self.tile}: Perm without write MSHR {msg!r}")
        entry = self._lines.lookup(msg.line)
        if entry is None or entry.state is not CacheState.S:
            raise ProtocolError(
                f"cache {self.tile}: Perm but line not in S for {msg!r}"
            )
        mshr.has_data = True
        mshr.data = entry.data  # permission-only: data already local
        mshr.acks_expected = msg.payload["ack_count"]
        self._maybe_complete_write(mshr, msg.line)

    def _on_data_uncacheable(self, msg: Message) -> None:
        """Tear-off copy: usable once, by an ordered load only (§3.4)."""
        mshr = self._find_read_mshr(msg.line)
        if mshr is None:
            raise ProtocolError(f"cache {self.tile}: DataU without MSHR {msg!r}")
        if msg.payload.get("retry"):
            # The directory bounced the tear-off (we own the line and
            # the fresh copy is in flight to us): replay every load.
            for request in mshr.waiting_loads:
                self._stat_tearoff_retry.add()
                request.on_must_retry(True)
            self.mshrs.free(mshr)
            return
        data: LineData = msg.payload["data"]
        consumed = False
        for request in mshr.waiting_loads:
            if not consumed and request.is_ordered():
                value = data.read(request.byte_addr % self.params.line_bytes)
                self._stat_tearoff_used.add()
                request.on_value(value, True)
                consumed = True
            else:
                self._stat_tearoff_retry.add()
                request.on_must_retry(True)
        self.mshrs.free(mshr)

    def _find_read_mshr(self, line: LineAddr) -> Optional[MSHREntry]:
        primary = self.mshrs.get(line)
        if primary is not None and primary.kind == "read":
            return primary
        for entry in self.mshrs.entries():
            if entry.is_sos_bypass and entry.line == line:
                return entry
        return None

    def _complete_read(self, mshr: MSHREntry, line: LineAddr,
                       data: LineData) -> None:
        entry = self._lines.lookup(line)
        # If every way was locked down, _install skipped caching: serve
        # the waiting loads straight from the response data (use-once).
        source = entry.data if entry is not None else data
        deferred_writes = mshr.deferred_writes
        for request in mshr.waiting_loads:
            value = source.read(request.byte_addr % self.params.line_bytes)
            request.on_value(value, False)
        self.mshrs.free(mshr)
        for on_granted in deferred_writes:
            self.request_write(line, on_granted)

    def _maybe_complete_write(self, mshr: MSHREntry, line: LineAddr) -> None:
        if not mshr.has_data or mshr.acks_expected is None:
            return
        if mshr.acks_received < mshr.acks_expected:
            return
        self._install(line, CacheState.M, mshr.data)
        self._send(MsgType.UNBLOCK, self.home_of(line), "llc", line)
        waiting = list(mshr.waiting_loads)
        grants = list(mshr.payload_grants)
        self.mshrs.free(mshr)
        entry = self._lines.lookup(line)
        for request in waiting:
            value = entry.data.read(request.byte_addr % self.params.line_bytes)
            request.on_value(value, False)
        for on_granted in grants:
            on_granted()

    def _on_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "write":
            raise ProtocolError(f"cache {self.tile}: Ack without write MSHR {msg!r}")
        mshr.acks_received += 1
        self._maybe_complete_write(mshr, msg.line)

    def _on_ack_data(self, msg: Message) -> None:
        """Owner's combined invalidation-ack + data (3-hop write)."""
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "write":
            raise ProtocolError(f"cache {self.tile}: AckData w/o write MSHR {msg!r}")
        mshr.has_data = True
        mshr.data = msg.payload["data"]
        mshr.acks_expected = msg.payload.get("ack_count", 1)
        mshr.acks_received += 1
        self._maybe_complete_write(mshr, msg.line)

    # Invalidations and forwards -------------------------------------------
    def _on_inv(self, msg: Message) -> None:
        self._stat_invs.add()
        line = msg.line
        to_dir = bool(msg.payload.get("ack_to_dir"))
        entry = self._lines.lookup(line, touch=False)
        data: Optional[LineData] = None
        if entry is not None:
            if entry.state in (CacheState.M, CacheState.E):
                # Only eviction recalls invalidate an owner with Inv.
                if not to_dir:
                    raise ProtocolError(
                        f"cache {self.tile}: write Inv hit owner copy {msg!r}"
                    )
                data = entry.data
            self._drop_line(line)
        locked = self.invalidation_hook(line)
        if locked and self.writers_block_enabled:
            self._stat_nacks.add()
            if data is not None:
                self._send(MsgType.NACK_DATA, self.home_of(line), "llc", line,
                           data=data.copy())
            else:
                self._send(MsgType.NACK, self.home_of(line), "llc", line)
            return
        if to_dir:
            payload = {"data": data.copy()} if data is not None else {}
            self._send(MsgType.ACK if data is None else MsgType.ACK_DATA,
                       self.home_of(line), "llc", line, **payload)
        else:
            self._send(MsgType.ACK, msg.payload["ack_to"], "cache", line)

    def _on_fwd_gets(self, msg: Message) -> None:
        line = msg.line
        requester = msg.requester
        entry = self._lines.lookup(line, touch=False)
        if msg.payload.get("uncacheable"):
            # Use-once snapshot for an SoS bypass read; we keep M.
            data = self._owned_data(line, entry, msg)
            self._send(MsgType.DATA_UNCACHEABLE, requester, "cache", line,
                       data=data.copy())
            return
        data = self._owned_data(line, entry, msg)
        self._send(MsgType.DATA, requester, "cache", line,
                   data=data.copy(), ack_count=0)
        self._send(MsgType.COPYBACK, self.home_of(line), "llc", line,
                   data=data.copy())
        if entry is not None:
            entry.state = CacheState.S  # downgrade; we stay a sharer

    def _on_fwd_getx(self, msg: Message) -> None:
        line = msg.line
        requester = msg.requester
        entry = self._lines.lookup(line, touch=False)
        data = self._owned_data(line, entry, msg)
        if entry is not None:
            self._drop_line(line)
        locked = self.invalidation_hook(line)
        self._stat_invs.add()
        if locked and self.writers_block_enabled:
            # Nack+Data to the directory (parks the data at the shared
            # level) and Data straight to the writer (paper Fig. 3.B).
            self._stat_nacks.add()
            self._send(MsgType.NACK_DATA, self.home_of(line), "llc", line,
                       data=data.copy())
            self._send(MsgType.DATA, requester, "cache", line,
                       data=data.copy(), ack_count=1)
        else:
            self._send(MsgType.ACK_DATA, requester, "cache", line,
                       data=data.copy(), ack_count=1)

    def _owned_data(self, line: LineAddr, entry: Optional[PrivateLine],
                    msg: Message) -> LineData:
        if entry is not None and entry.state in (CacheState.M, CacheState.E):
            return entry.data
        wb = self.mshrs.get(line)
        if wb is not None and wb.kind == "writeback":
            return wb.data
        raise ProtocolError(
            f"cache {self.tile}: forwarded request but not owner: {msg!r}"
        )

    def _on_wb_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "writeback":
            raise ProtocolError(f"cache {self.tile}: WbAck w/o writeback {msg!r}")
        self.mshrs.free(mshr)

    def _on_blocked_hint(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is not None and mshr.kind == "write":
            mshr.blocked_hint = True

    # ------------------------------------------------------------- residency
    def _install(self, line: LineAddr, state: CacheState, data: LineData) -> None:
        existing = self._lines.lookup(line)
        if existing is not None:
            existing.state = state
            existing.data = data
            self._l1.touch(line)
            return
        victim = self._pick_victim(line)
        if victim == "full":
            # Every way holds a locked or in-flight line: fall back to
            # not caching (treat the data as use-once).  The caller reads
            # through the MSHR-completion path which already delivered
            # values, so dropping residency here is safe but rare.
            return
        if victim is not None:
            victim_entry = self._lines.lookup(victim, touch=False)
            needs_wb = victim_entry.state in (CacheState.M, CacheState.E)
            if needs_wb and not self.mshrs.can_allocate():
                return  # no writeback MSHR: skip caching this fill
            self._evict(victim)
        self._lines.insert(line, PrivateLine(state=state, data=data))
        self._l1.touch(line)

    def _pick_victim(self, line: LineAddr):
        victim = self._lines.victim_for(line)
        if victim is None:
            return None
        victim_line, victim_entry = victim
        if not self.lockdown_query(victim_line) and not self._busy(victim_line):
            return victim_line
        # LRU victim is locked down or busy (paper §3.8: never squash on
        # eviction; we keep locked lines resident instead).  Try the other
        # ways in LRU order.
        target_set = line.value % self.params.l2_sets
        for cand_line, __ in self._lines.items():
            if cand_line.value % self.params.l2_sets != target_set:
                continue
            if not self.lockdown_query(cand_line) and not self._busy(cand_line):
                return cand_line
        return "full"

    def _busy(self, line: LineAddr) -> bool:
        return self.mshrs.get(line) is not None

    def _evict(self, line: LineAddr) -> None:
        cov = self._cov
        if cov is None:
            return self._evict_impl(line)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        self._evict_impl(line)
        probe.note(self, "cache", line, "evict", before, mark)

    def _evict_impl(self, line: LineAddr) -> None:
        entry = self._lines.lookup(line, touch=False)
        if entry is None:
            return
        if entry.state in (CacheState.M, CacheState.E):
            wb = self.mshrs.allocate(line, "writeback")
            wb.data = entry.data
            self._stat_writebacks.add()
            self._send(MsgType.PUTM, self.home_of(line), "llc", line,
                       data=entry.data.copy())
        elif entry.state is CacheState.S and not self.params.silent_shared_evictions:
            # Non-silent eviction: the directory forgets us, so no future
            # invalidation will reach the LQ — squash-mode cores must
            # squash M-speculative loads on this line now (paper §3.8).
            self.eviction_hook(line)
            self._send(MsgType.PUTS, self.home_of(line), "llc", line)
        self._drop_line(line)

    def _drop_line(self, line: LineAddr) -> None:
        self._lines.remove(line)
        self._l1.drop(line)

    # MsgType -> handler, called as ``handler(self, msg)``: one table per
    # class, so instances (and explorer forks) carry no bound methods.
    _DISPATCH = {
        MsgType.DATA: _on_data,
        MsgType.DATA_EXCL: _on_data,
        MsgType.PERM: _on_perm,
        MsgType.DATA_UNCACHEABLE: _on_data_uncacheable,
        MsgType.ACK: _on_ack,
        MsgType.ACK_DATA: _on_ack_data,
        MsgType.INV: _on_inv,
        MsgType.FWD_GETS: _on_fwd_gets,
        MsgType.FWD_GETX: _on_fwd_getx,
        MsgType.WB_ACK: _on_wb_ack,
        MsgType.BLOCKED_HINT: _on_blocked_hint,
    }
