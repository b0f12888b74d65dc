"""Tardis timestamp coherence backend (Yu & Devadas, PAPERS.md).

Tardis orders memory operations in *logical timestamp* space instead of
enforcing single-writer exclusivity in physical time.  Every line copy
carries a write timestamp ``wts`` (logical time of the last store) and a
read timestamp ``rts`` (the end of its lease); every cache keeps a
program timestamp ``pts``.  A shared copy is readable at logical time
``ts = max(pts, wts)`` as long as ``ts <= rts``; a store writes at
``wts' > rts``, i.e. logically *after* every lease it ever granted.
There is **no invalidation traffic**: stale copies simply expire.

Key differences from the ``baseline`` MESI backend:

* Reads are leased.  The directory extends ``rts`` to at least
  ``requester_pts + lease`` on every read, and a resident-but-expired
  copy *self-renews* with a 1-flit RENEW / RENEW_ACK exchange (a full
  DATA reply only when the data actually changed).
* Writes recall the owner (RECALL / RECALL_ACK) instead of invalidating
  sharers; the previous owner keeps a leased shared copy, extending its
  own lease before the downgrade so the reported ``rts`` covers it —
  the directory bumps its timestamps with the ack (ownership-transfer
  timestamp bump), guaranteeing the next writer's ``wts`` lands after
  every outstanding lease.
* Directory evictions of S entries are silent, but the timestamps are
  persisted in ``_ts_memory`` — re-fetching a line with ``wts = rts =
  0`` would let new leases overlap old ones and break the ordering.

TSO soundness on top of an out-of-order core that performs loads early:
the baseline protocol squashes M-speculative loads when an invalidation
arrives; tardis has no invalidations, so this backend synthesizes the
equivalent ordering points through the same ``invalidation_hook`` /
``eviction_hook`` callbacks, *before* delivering any value:

* **expiry sweep** — whenever ``pts`` advances, every shared copy whose
  lease just expired (``old_pts <= rts < new_pts``) fires
  ``invalidation_hook``: a younger load that bound from that lease is
  ordered *before* the value being delivered now, so it must squash;
* **version replacement** — installing data with a different ``wts``
  over a resident copy fires ``invalidation_hook`` (same-line CoRR:
  a younger load bound from the superseded version must not survive an
  older load reading the newer one);
* **eviction** — dropping a leased copy fires ``eviction_hook`` (the
  ``rts`` record is lost, so the sweep could no longer protect it).

Leased hits additionally advance ``pts`` to ``ts + 1`` (not ``ts``):
this bounds staleness — a spinning reader exhausts its lease within
``lease`` iterations and the renewal fetches fresh data — which is what
keeps spin-loop workloads live without invalidations.

The proof-paper invariants (SWMR per logical time, the data-value
invariant, timestamp monotonicity) are exposed as
:meth:`TardisBackend.coherence_problems` / ``cycle_problems`` for the
property-test battery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

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
class TardisLine:
    """A line resident in a private cache, with its timestamps."""

    state: CacheState  # M (owned) or S (leased)
    data: LineData
    wts: int = 0
    rts: int = 0


@dataclass(slots=True, eq=False)
class TardisDirEntry:
    """One directory/LLC entry with authoritative timestamps."""

    line: LineAddr
    state: DirState = DirState.I
    owner: Optional[int] = None
    data: LineData = field(default_factory=LineData)
    wts: int = 0
    rts: int = 0
    queue: Deque[Message] = field(default_factory=deque)
    reader: Optional[int] = None  # requester awaiting a recall (read)
    writer: Optional[int] = None  # requester awaiting a recall (write)
    pending_pts: int = 0  # requester pts stashed across a recall
    pending_lease: int = 0  # requester lease ask stashed across a recall
    pending_renew: bool = False  # recall was triggered by a RENEW
    fetching: bool = False  # memory fetch in flight

    def is_stable(self) -> bool:
        return self.state in (DirState.I, DirState.S, DirState.M)

    def __repr__(self) -> str:
        return (
            f"<TDir {self.line!r} {self.state.value} owner={self.owner} "
            f"wts={self.wts} rts={self.rts} q={len(self.queue)}>"
        )


@dataclass(slots=True, eq=False)
class EvictingTardisEntry:
    """An M directory entry parked while its owner's copy is recalled."""

    line: LineAddr
    data: LineData
    wts: int = 0
    rts: int = 0


class TardisCache:
    """Private cache controller speaking the tardis protocol.

    Duck-types :class:`repro.coherence.private_cache.PrivateCache`'s
    core-facing interface (load / request_write / perform_store /
    perform_atomic / line_state / gauges / hooks) so both core models
    drive it unchanged.  ``write_blocked`` is always False — tardis has
    no WritersBlock, so the SoS-bypass machinery never engages.
    """

    def __init__(self, tile: int, params: CacheParams, network: MeshNetwork,
                 events: EventQueue, stats: StatsRegistry, *,
                 writers_block: bool,
                 bus: Optional[EventBus] = None) -> None:
        if writers_block:
            raise ProtocolError("tardis backend has no WritersBlock support")
        self.tile = tile
        self.params = params
        self.network = network
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.writers_block_enabled = False
        self.lease = params.tardis_lease
        #: Program timestamp: the logical time of this core's last
        #: memory operation; monotone non-decreasing.
        self.pts = 0
        self._lines: CacheArray[TardisLine] = CacheArray(params.l2_sets,
                                                         params.l2_ways)
        self._l1 = PresenceLRU(params.l1_sets, params.l1_ways)
        self.mshrs = MSHRFile(params.mshr_entries, params.mshr_reserved_for_sos)
        self.mshrs.observer = self._mshr_event
        #: Timestamps of lines parked in a writeback MSHR (MSHREntry has
        #: no timestamp slots; one writeback per line at a time).
        self._wb_ts: Dict[LineAddr, Tuple[int, int]] = {}
        #: Leases dropped by eviction while still live: {line: (wts,
        #: rts)}.  The expiry sweep walks this ledger so loads bound
        #: from an evicted copy are still squashed when ``pts`` crosses
        #: the lease they bound under (a resident copy's rts record
        #: would have done it; eviction must not lose the obligation).
        self._stale_leases: Dict[LineAddr, Tuple[int, int]] = {}
        #: Consecutive fills that arrived already expired, per line.
        #: Each failure doubles the lease requested next time, so the
        #: grant eventually outpaces however fast concurrent activity
        #: advances ``pts`` during the round trip (the classic tardis
        #: renewal-livelock escape hatch).
        self._renew_fails: Dict[LineAddr, int] = {}
        # Core hooks, wired by the core model after construction (same
        # contract as PrivateCache; tardis fires them at its synthetic
        # ordering points — see the module docstring).
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
        self._stat_renews = stats.counter("tardis.renews_sent")
        self._stat_expiries = stats.counter("tardis.lease_expiries")
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

    def line_entry(self, line: LineAddr) -> Optional[TardisLine]:
        return self._lines.lookup(line, touch=False)

    def write_blocked(self, line: LineAddr) -> bool:
        """Tardis never blocks writes at the directory (no WritersBlock)."""
        return False

    def has_write_mshr(self, line: LineAddr) -> bool:
        mshr = self.mshrs.get(line)
        return bool(mshr and mshr.kind == "write")

    # ------------------------------------------------------------ timestamps
    def _usable(self, entry: TardisLine) -> bool:
        """May this copy serve a read at the current ``pts``?

        Leased copies need STRICTLY ts < rts: a leased bind advances
        ``pts`` to ts + 1, and binding exactly at the lease edge would
        expire the very lease the binding depends on — the expiry sweep
        fires during the bind's own advance, before the load is
        performed/squashable, leaving the binding unprotected against
        older loads that later bind at higher timestamps.  Keeping the
        post-bind ``pts`` within the lease means the rts record stays
        live, and whichever later advance crosses it squashes correctly.
        """
        if entry.state is CacheState.M:
            return True
        ts = self.pts if entry.wts <= self.pts else entry.wts
        return ts < entry.rts

    def _advance_pts(self, ts: int) -> None:
        """Advance ``pts`` and run the expiry sweep.

        Every leased copy whose lease was live at the old ``pts`` but is
        expired at the new one fires ``invalidation_hook`` — the exact
        set of lines whose bound-but-speculative younger loads are now
        ordered before the operation that advanced time.  The ledger of
        evicted-but-live leases is swept too, so an eviction between
        binding and crossing does not lose the squash obligation.
        """
        old = self.pts
        if ts <= old:
            return
        self.pts = ts
        expired = [line for line, entry in self._lines.items()
                   if entry.state is CacheState.S and old <= entry.rts < ts]
        for line in expired:
            self._stat_expiries.add()
            self.invalidation_hook(line)
        if self._stale_leases:
            crossed = [line for line, (__, rts) in self._stale_leases.items()
                       if rts < ts]
            for line in crossed:
                del self._stale_leases[line]
                self._stat_expiries.add()
                self.invalidation_hook(line)

    def _deliver_value(self, request: LoadRequest, entry: TardisLine) -> None:
        """Bind one load from *entry* (assumed usable) and advance time.

        Time advances (and the expiry sweep runs) BEFORE the value
        binds: loads already bound from now-expired leases must be
        squashed while this load still counts as non-performed — once
        it performs, younger stale loads would look "ordered" to the
        squash machinery and escape.  The strict ``_usable`` check
        guarantees the advance never crosses this entry's own lease.
        """
        ts = self.pts if entry.wts <= self.pts else entry.wts
        if entry.state is CacheState.S:
            # +1 on leased reads bounds staleness (see module docstring).
            self._advance_pts(ts + 1)
        else:
            self._advance_pts(ts)
        value = entry.data.read(request.byte_addr % self.params.line_bytes)
        request.on_value(value, False)

    # ------------------------------------------------------------- load path
    def load(self, request: LoadRequest, *, sos_bypass: bool = False) -> str:
        """Start a load.  Returns "hit", "miss", or "retry".

        ``sos_bypass`` is accepted for interface compatibility; tardis
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
        if entry is not None and self._usable(entry):
            latency = (self.params.l1_hit_cycles if line in self._l1
                       else self.params.l2_hit_cycles)
            self._l1.touch(line)
            self._stat_hits.add()
            # Value binds at completion, not start: the lease may expire
            # inside the hit latency (another op advances pts).
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
        lease = self.lease << min(self._renew_fails.get(line, 0), 8)
        if entry is not None:
            # Resident but lease expired: self-renew (1-flit exchange
            # unless the directory's wts moved past our copy's).
            self._stat_renews.add()
            self._send(MsgType.RENEW, self.home_of(line), "llc", line,
                       pts=self.pts, wts=entry.wts, lease=lease)
        else:
            self._send(MsgType.GETS, self.home_of(line), "llc", line,
                       pts=self.pts, lease=lease)
        return "miss"

    def _finish_hit(self, request: LoadRequest) -> None:
        line = line_of(request.byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line, touch=False)
        if entry is not None and self._usable(entry):
            self._deliver_value(request, entry)
            return
        # Lease expired (or line lost) during the access: replay; the
        # retry will miss and self-renew.
        request.on_must_retry(False)

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
        mshr = self.mshrs.allocate(line, "write")
        mshr.payload_grants = [on_granted]
        # No Upgrade path: a leased S copy may be stale, so a write
        # always fetches fresh data + timestamps.
        self._send(MsgType.GETX, self.home_of(line), "llc", line,
                   pts=self.pts)
        return "pending"

    def _store_timestamp(self, entry: TardisLine) -> int:
        """Logical time of a store to an owned copy: after our own past
        (``pts``) and after every lease the line ever granted."""
        ts = entry.rts + 1
        if self.pts > ts:
            ts = self.pts
        return ts

    def perform_store(self, byte_addr: int, version: int, value: int) -> None:
        line = line_of(byte_addr, self.params.line_bytes)
        entry = self._lines.lookup(line)
        if entry is None or entry.state is not CacheState.M:
            raise ProtocolError(
                f"core {self.tile}: store to {line!r} without M permission"
            )
        ts = self._store_timestamp(entry)
        self._advance_pts(ts)
        entry.wts = entry.rts = ts
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
        ts = self._store_timestamp(entry)
        self._advance_pts(ts)
        old = entry.data.read(byte_addr % self.params.line_bytes)
        entry.wts = entry.rts = ts
        entry.data.write(byte_addr % self.params.line_bytes, version, value)
        self._l1.touch(line)
        if self._cov is not None:
            probe.note(self, "cache", line, "atomic", "M",
                       len(self._cov_sends))
        return old

    def send_deferred_ack(self, line: LineAddr) -> None:
        raise ProtocolError("tardis backend has no deferred acks "
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

    def _update_line(self, line: LineAddr, state: CacheState, data: LineData,
                     wts: int, rts: int) -> Optional[TardisLine]:
        """Install/refresh a copy; fires the version-replacement squash."""
        existing = self._lines.lookup(line)
        if existing is not None:
            if existing.wts != wts:
                # A strictly newer version supersedes the resident copy:
                # same ordering point as an invalidation for loads bound
                # from the old version (same-line CoRR).
                self.invalidation_hook(line)
            existing.state = state
            existing.data = data
            existing.wts = wts
            existing.rts = rts
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
        stale = self._stale_leases.pop(line, None)
        if stale is not None and stale[0] != wts:
            # The line comes back as a different version than the one
            # whose lease we dropped: loads bound from the old copy are
            # stale relative to this install (same ordering point as the
            # resident version-replacement above).  Same-version
            # reinstalls just resume the lease — the fresh rts record
            # takes the ledger entry's place in the sweep.
            self.invalidation_hook(line)
        entry = TardisLine(state=state, data=data, wts=wts, rts=rts)
        self._lines.insert(line, entry)
        self._l1.touch(line)
        return entry

    def _complete_read(self, mshr: MSHREntry, line: LineAddr,
                       entry: Optional[TardisLine]) -> None:
        """Deliver waiting loads after a DATA / RENEW_ACK, then chain
        deferred writes.  Loads that cannot bind (lease already expired
        at delivery, or the fill was not cached) replay and re-renew."""
        waiting = list(mshr.waiting_loads)
        deferred = list(mshr.deferred_writes)
        self.mshrs.free(mshr)
        bound = missed = False
        for request in waiting:
            # Usability is re-checked per waiter: each leased bind
            # advances pts by one, which can expire the entry for the
            # next waiter in the same completion.
            if entry is not None and self._usable(entry):
                self._deliver_value(request, entry)
                bound = True
            else:
                request.on_must_retry(False)
                missed = True
        if missed:
            self._renew_fails[line] = self._renew_fails.get(line, 0) + 1
        elif bound:
            self._renew_fails.pop(line, None)
        for on_granted in deferred:
            self.request_write(line, on_granted)

    def _on_data(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "read":
            raise ProtocolError(f"cache {self.tile}: Data without read "
                                f"MSHR {msg!r}")
        payload = msg.payload
        entry = self._update_line(msg.line, CacheState.S, payload["data"],
                                  payload["wts"], payload["rts"])
        self._complete_read(mshr, msg.line, entry)

    def _on_renew_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "read":
            raise ProtocolError(f"cache {self.tile}: RenewAck without read "
                                f"MSHR {msg!r}")
        entry = self._lines.lookup(msg.line)
        if entry is None or entry.wts != msg.payload["wts"]:
            # The read MSHR pins the line against eviction and we are
            # not the owner, so the copy cannot have changed under us.
            raise ProtocolError(f"cache {self.tile}: RenewAck for a copy "
                                f"that moved: {msg!r}")
        if msg.payload["rts"] > entry.rts:
            entry.rts = msg.payload["rts"]
        self._complete_read(mshr, msg.line, entry)

    def _on_data_excl(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "write":
            raise ProtocolError(f"cache {self.tile}: DataE without write "
                                f"MSHR {msg!r}")
        payload = msg.payload
        entry = self._update_line(msg.line, CacheState.M, payload["data"],
                                  payload["wts"], payload["rts"])
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
            self._deliver_value(request, entry)  # M copies always usable
        for on_granted in grants:
            on_granted()

    def _on_recall(self, msg: Message) -> None:
        """The directory recalls our owned copy (a writer or reader is
        waiting, or the home entry is being evicted)."""
        line = msg.line
        entry = self._lines.lookup(line, touch=False)
        if entry is not None and entry.state is CacheState.M:
            # Keep a leased shared copy; extend our own lease first so
            # the reported rts covers it (the directory merges with max,
            # so the next writer's wts lands after this lease).  It must
            # reach at least the current pts: reads served while owned
            # bound at timestamps up to pts, and the next writer's
            # version has to land strictly after every one of them.
            rts = max(entry.wts + self.lease, self.pts)
            if rts > entry.rts:
                entry.rts = rts
            entry.state = CacheState.S
            self._send(MsgType.RECALL_ACK, self.home_of(line), "llc", line,
                       data=entry.data.copy(), wts=entry.wts, rts=entry.rts)
            return
        wb = self.mshrs.get(line)
        if wb is not None and wb.kind == "writeback":
            # Our eviction writeback crossed the recall; answer from the
            # writeback buffer (the WbAck is FIFO-behind this Recall).
            wts, rts = self._wb_ts[line]
            self._send(MsgType.RECALL_ACK, self.home_of(line), "llc", line,
                       data=wb.data.copy(), wts=wts, rts=rts)
            return
        raise ProtocolError(f"cache {self.tile}: Recall but not owner {msg!r}")

    def _on_wb_ack(self, msg: Message) -> None:
        mshr = self.mshrs.get(msg.line)
        if mshr is None or mshr.kind != "writeback":
            raise ProtocolError(f"cache {self.tile}: WbAck w/o writeback "
                                f"{msg!r}")
        self._wb_ts.pop(msg.line, None)
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
            # Reads served while owned bound at timestamps up to the
            # current pts; extend the relinquished lease to cover them
            # so the next writer's version lands strictly after.
            if self.pts > entry.rts:
                entry.rts = self.pts
            wb = self.mshrs.allocate(line, "writeback")
            wb.data = entry.data
            self._wb_ts[line] = (entry.wts, entry.rts)
            self._stale_leases[line] = (entry.wts, entry.rts)
            self._stat_writebacks.add()
            self._send(MsgType.PUTM, self.home_of(line), "llc", line,
                       data=entry.data.copy(), wts=entry.wts, rts=entry.rts)
        elif entry.rts >= self.pts:
            # Dropping a still-live lease: remember it so the expiry
            # sweep can squash loads bound from it when pts crosses its
            # rts (an expired lease already had its crossing fire while
            # the copy was resident).
            self._stale_leases[line] = (entry.wts, entry.rts)
        self._lines.remove(line)
        self._l1.drop(line)

    # MsgType -> handler, called as ``handler(self, msg)``: one table per
    # class, so instances (and explorer forks) carry no bound methods.
    _DISPATCH = {
        MsgType.DATA: _on_data,
        MsgType.DATA_EXCL: _on_data_excl,
        MsgType.RENEW_ACK: _on_renew_ack,
        MsgType.RECALL: _on_recall,
        MsgType.WB_ACK: _on_wb_ack,
    }


class TardisDirectory:
    """Directory / LLC bank for the tardis protocol.

    Reads are served *non-blocking* from any state except M (where the
    owner's copy must be recalled first); there is no Unblock handshake
    — per-channel FIFO delivery guarantees a later Recall arrives after
    the DataE that created the owner it targets.  Internal structures
    (``_array``, ``_evicting``, ``_pending_allocs``) mirror
    :class:`DirectoryBank` so generic residue checks work on both.
    """

    def __init__(self, tile: int, params: CacheParams, network: MeshNetwork,
                 events: EventQueue, stats: StatsRegistry, *,
                 writers_block: bool,
                 bus: Optional[EventBus] = None) -> None:
        if writers_block:
            raise ProtocolError("tardis backend has no WritersBlock support")
        self.tile = tile
        self.params = params
        self.network = network
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.writers_block_enabled = False
        self.lease = params.tardis_lease
        self._array: CacheArray[TardisDirEntry] = CacheArray(
            params.llc_sets_per_bank, params.llc_ways
        )
        self._memory: Dict[LineAddr, LineData] = {}
        #: (wts, rts) persisted across LLC evictions: outstanding leases
        #: must stay ordered against future writes even when the entry
        #: spills to memory.
        self._ts_memory: Dict[LineAddr, Tuple[int, int]] = {}
        self._evicting: Dict[LineAddr, EvictingTardisEntry] = {}
        self._pending_allocs: List[Message] = []
        self._retry_scheduled = False
        # Transition-coverage gate (repro.obs.coverage): None when off.
        self._cov = None
        self._cov_sends: List[str] = []
        self._stat_requests = stats.counter("dir.requests")
        self._stat_evictions = stats.counter("dir.llc_evictions")
        self._stat_renews = stats.counter("tardis.renewals")
        self._stat_renew_data = stats.counter("tardis.renewals_with_data")
        self._stat_recalls = stats.counter("tardis.recalls")
        network.register(tile, "llc", self.handle_message)

    # ------------------------------------------------------------------ util
    def _send(self, msg_type: MsgType, dst: int, line: LineAddr,
              delay: Optional[int] = None, **payload) -> None:
        """Send after the bank's access latency (uniform delay keeps
        per-channel FIFO order — a Recall must never overtake the DataE
        that created the owner it recalls)."""
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
                # Mid-recall-eviction: data at the LLC is stale until
                # the owner answers; park everything.
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

    def _process_request(self, entry: TardisDirEntry, msg: Message) -> None:
        if msg.msg_type is MsgType.GETX:
            self._process_getx(entry, msg)
        else:
            self._process_read(entry, msg)

    def _extend_lease(self, entry: TardisDirEntry, req_pts: int,
                      req_lease: int = 0) -> None:
        lease = req_lease if req_lease > self.lease else self.lease
        rts = req_pts + lease
        if entry.wts + lease > rts:
            rts = entry.wts + lease
        if rts > entry.rts:
            entry.rts = rts

    def _process_read(self, entry: TardisDirEntry, msg: Message) -> None:
        """GETS or RENEW: lease the LLC copy, recalling the owner first
        when one exists."""
        requester = msg.src
        req_pts = msg.payload.get("pts", 0)
        req_lease = msg.payload.get("lease", 0)
        if entry.state is DirState.M:
            if entry.owner == requester:
                raise ProtocolError(
                    f"read from current owner {requester} for {entry.line!r}")
            entry.state = DirState.BUSY_READ
            entry.reader = requester
            entry.pending_pts = req_pts
            entry.pending_lease = req_lease
            entry.pending_renew = msg.msg_type is MsgType.RENEW
            self._stat_recalls.add()
            self._send(MsgType.RECALL, entry.owner, entry.line)
            return
        self._extend_lease(entry, req_pts, req_lease)
        entry.state = DirState.S
        if (msg.msg_type is MsgType.RENEW
                and msg.payload.get("wts") == entry.wts):
            # Data unchanged: 1-flit lease extension.
            self._stat_renews.add()
            self._send(MsgType.RENEW_ACK, requester, entry.line,
                       wts=entry.wts, rts=entry.rts)
            return
        if msg.msg_type is MsgType.RENEW:
            self._stat_renews.add()
            self._stat_renew_data.add()
        self._send(MsgType.DATA, requester, entry.line,
                   data=entry.data.copy(), wts=entry.wts, rts=entry.rts)

    def _process_getx(self, entry: TardisDirEntry, msg: Message) -> None:
        writer = msg.src
        if entry.state is DirState.M:
            if entry.owner == writer:
                raise ProtocolError(
                    f"GetX from current owner {writer} for {entry.line!r}")
            entry.state = DirState.BUSY_WRITE
            entry.writer = writer
            self._stat_recalls.add()
            self._send(MsgType.RECALL, entry.owner, entry.line)
            return
        self._grant_exclusive(entry, writer)

    def _grant_exclusive(self, entry: TardisDirEntry, writer: int) -> None:
        """Hand ownership to *writer*.  No Unblock: the entry moves to M
        immediately — any later Recall is FIFO-behind this DataE, so the
        writer has installed by the time it arrives."""
        self._send(MsgType.DATA_EXCL, writer, entry.line,
                   data=entry.data.copy(), wts=entry.wts, rts=entry.rts)
        entry.state = DirState.M
        entry.owner = writer

    # ------------------------------------------------------------- responses
    def _merge_timestamps(self, entry, wts: int, rts: int) -> None:
        if wts > entry.wts:
            entry.wts = wts
        if rts > entry.rts:
            entry.rts = rts

    def _on_recall_ack(self, msg: Message) -> None:
        line = msg.line
        payload = msg.payload
        evicting = self._evicting.get(line)
        if evicting is not None:
            evicting.data.merge_from(payload["data"])
            self._merge_timestamps(evicting, payload["wts"], payload["rts"])
            self._memory[line] = evicting.data
            self._ts_memory[line] = (evicting.wts, evicting.rts)
            del self._evicting[line]
            self._schedule_retry()
            return
        entry = self._array.lookup(line)
        if entry is None:
            raise ProtocolError(f"RecallAck for unknown line {msg!r}")
        entry.data.merge_from(payload["data"])
        # Ownership-transfer timestamp bump: the ack's rts covers every
        # lease the owner granted itself, so the next wts (> rts) is
        # ordered after all of them.
        self._merge_timestamps(entry, payload["wts"], payload["rts"])
        entry.owner = None
        if entry.state is DirState.BUSY_READ:
            reader = entry.reader
            entry.reader = None
            entry.state = DirState.S
            self._extend_lease(entry, entry.pending_pts, entry.pending_lease)
            if entry.pending_renew:
                self._stat_renews.add()
                self._stat_renew_data.add()
                entry.pending_renew = False
            self._send(MsgType.DATA, reader, line,
                       data=entry.data.copy(), wts=entry.wts, rts=entry.rts)
        elif entry.state is DirState.BUSY_WRITE:
            writer = entry.writer
            entry.writer = None
            self._grant_exclusive(entry, writer)
        else:
            raise ProtocolError(f"RecallAck in state {entry.state}: {msg!r}")
        self._drain_queue(entry)

    def _on_putm(self, msg: Message) -> None:
        line = msg.line
        payload = msg.payload
        evicting = self._evicting.get(line)
        if evicting is not None:
            # Writeback crossed our eviction recall; the RecallAck (sent
            # from the writeback buffer) still completes the eviction.
            evicting.data.merge_from(payload["data"])
            self._merge_timestamps(evicting, payload["wts"], payload["rts"])
            self._send(MsgType.WB_ACK, msg.src, line)
            return
        entry = self._array.lookup(line)
        if entry is None:
            # Entry spilled silently while the owner... cannot happen for
            # M entries (they go through the recall buffer); treat any
            # stray writeback defensively.
            data = self._memory_data(line)
            data.merge_from(payload["data"])
            old = self._ts_memory.get(line, (0, 0))
            self._ts_memory[line] = (max(old[0], payload["wts"]),
                                     max(old[1], payload["rts"]))
            self._send(MsgType.WB_ACK, msg.src, line)
            return
        if entry.owner == msg.src:
            entry.data.merge_from(payload["data"])
            self._merge_timestamps(entry, payload["wts"], payload["rts"])
            if entry.is_stable():
                # Normal owner writeback: the LLC copy is authoritative
                # again.  Mid-recall (BUSY_*) the state advances when the
                # RecallAck arrives instead.
                entry.owner = None
                entry.state = DirState.S
            self._send(MsgType.WB_ACK, msg.src, line)
            if entry.is_stable():
                self._drain_queue(entry)
        else:
            # Stale PutM from a core that is no longer owner.
            self._send(MsgType.WB_ACK, msg.src, line)

    # ----------------------------------------------------------- allocation
    def _try_allocate(self, line: LineAddr) -> Optional[TardisDirEntry]:
        victim = self._array.victim_for(line)
        if victim is not None:
            victim_line, victim_entry = victim
            if (not victim_entry.is_stable() or victim_entry.queue
                    or victim_entry.state is DirState.M):
                victim_entry = self._find_victim(line)
                if victim_entry is None:
                    return None
                victim_line = victim_entry.line
            if not self._evict(victim_line, victim_entry):
                return None
        wts, rts = self._ts_memory.get(line, (0, 0))
        entry = TardisDirEntry(line=line, data=self._memory_data(line).copy(),
                               wts=wts, rts=rts)
        entry.fetching = True
        self._array.insert(line, entry)
        self.events.schedule(self.params.memory_cycles,
                             lambda: self._fetch_done(entry))
        return entry

    def _find_victim(self, line: LineAddr) -> Optional[TardisDirEntry]:
        """Prefer a victim that spills silently (I/S) over one whose
        owner must be recalled; LRU order within each preference."""
        target_set = line.value % self.params.llc_sets_per_bank
        recallable = None
        for cand_line, cand in self._array.items():
            if cand_line.value % self.params.llc_sets_per_bank != target_set:
                continue
            if not cand.is_stable() or cand.queue:
                continue
            if cand.state is DirState.M:
                if recallable is None:
                    recallable = cand
                continue
            return cand
        return recallable

    def _evict(self, line: LineAddr, entry: TardisDirEntry) -> bool:
        cov = self._cov
        if cov is None:
            return self._evict_impl(line, entry)
        before = self._cov_state(line)
        mark = len(self._cov_sends)
        evicted = self._evict_impl(line, entry)
        if evicted:
            probe.note(self, "dir", line, "evict", before, mark)
        return evicted

    def _evict_impl(self, line: LineAddr, entry: TardisDirEntry) -> bool:
        if entry.state is DirState.M:
            if len(self._evicting) >= self.params.dir_eviction_buffer:
                return False
            self._stat_evictions.add()
            self._stat_recalls.add()
            self._array.remove(line)
            self._evicting[line] = EvictingTardisEntry(
                line=line, data=entry.data, wts=entry.wts, rts=entry.rts)
            self._send(MsgType.RECALL, entry.owner, line)
            return True
        # I/S entries spill silently; persisting the timestamps keeps
        # outstanding leases ordered against future writes.
        self._stat_evictions.add()
        self._array.remove(line)
        self._memory[line] = entry.data
        self._ts_memory[line] = (entry.wts, entry.rts)
        return True

    def _fetch_done(self, entry: TardisDirEntry) -> None:
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

    def _drain_queue(self, entry: TardisDirEntry) -> None:
        release = self.network.pool.release
        while entry.queue and entry.is_stable() and not entry.fetching:
            msg = entry.queue.popleft()
            msg.parked = False
            self._process_request(entry, msg)
            if not msg.parked:
                release(msg)
        self._schedule_retry()

    # --------------------------------------------------------------- inspect
    def entry(self, line: LineAddr) -> Optional[TardisDirEntry]:
        return self._array.lookup(line, touch=False)

    def evicting_entry(self, line: LineAddr) -> Optional[EvictingTardisEntry]:
        return self._evicting.get(line)

    def authoritative_ts(self, line: LineAddr) -> Tuple[int, int]:
        """The directory's (wts, rts) view of *line*, wherever it lives."""
        entry = self._array.lookup(line, touch=False)
        if entry is not None:
            return entry.wts, entry.rts
        evicting = self._evicting.get(line)
        if evicting is not None:
            return evicting.wts, evicting.rts
        return self._ts_memory.get(line, (0, 0))

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
        MsgType.GETX: _on_request,
        MsgType.RENEW: _on_request,
        MsgType.PUTM: _on_putm,
        MsgType.RECALL_ACK: _on_recall_ack,
    }


class TardisBackend(CoherenceBackend):
    """Registry entry wiring TardisCache/TardisDirectory into the sim."""

    name = "tardis"
    message_types = (
        MsgType.GETS, MsgType.GETX, MsgType.PUTM, MsgType.DATA,
        MsgType.DATA_EXCL, MsgType.WB_ACK, MsgType.RENEW,
        MsgType.RENEW_ACK, MsgType.RECALL, MsgType.RECALL_ACK,
    )
    supports_writers_block = False
    has_invalidations = False
    #: OOO_WB needs WritersBlock; tardis enforces load-load order via
    #: the expiry sweep + squash instead.  OOO_UNSAFE stays available as
    #: the checker-validation ablation.
    supported_commit_modes = (CommitMode.IN_ORDER, CommitMode.OOO,
                              CommitMode.OOO_UNSAFE)

    def transition_alphabet(self) -> frozenset:
        from .alphabet import TARDIS_ALPHABET
        return TARDIS_ALPHABET

    def build_cache(self, tile, params, network, events, stats, *,
                    writers_block, bus=None):
        return TardisCache(tile, params, network, events, stats,
                           writers_block=writers_block, bus=bus)

    def build_directory(self, tile, params, network, events, stats, *,
                        writers_block, bus=None):
        return TardisDirectory(tile, params, network, events, stats,
                               writers_block=writers_block, bus=bus)

    # ------------------------------------------------------------ invariants
    def coherence_problems(self, system) -> List[str]:
        """Quiescent-state invariants from the Tardis proof paper.

        * SWMR (timestamp form): at most one owned (M) copy per line;
          leased S copies may coexist with it only with leases entirely
          in the owner's past (``copy.rts < owner.wts`` is NOT required
          at quiescence — the owner may not have written yet — but
          ``copy.wts <= authoritative wts`` always is).
        * Data-value invariant: a copy carrying the authoritative wts
          carries the authoritative data; a copy with an older wts has
          ``rts < authoritative wts`` (validity intervals of different
          versions never overlap).
        * Timestamp sanity: ``wts <= rts`` everywhere; directory
          timestamps dominate every granted lease.
        * No residual transients: stable entries, empty queues, drained
          MSHRs and eviction buffers.
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
            if entry is not None and (not entry.is_stable() or entry.queue):
                problems.append(f"{line!r}: residual transient {entry!r}")
                continue
            owners = []
            copies = []
            for tile, cache in enumerate(system.caches):
                cached = cache.line_entry(line)
                if cached is None:
                    continue
                if cached.wts > cached.rts:
                    problems.append(
                        f"{line!r}: cache {tile} wts {cached.wts} > rts "
                        f"{cached.rts}")
                if cached.state is CacheState.M:
                    owners.append(tile)
                else:
                    copies.append(tile)
            if len(owners) > 1:
                problems.append(f"{line!r}: multiple owners {owners}")
            if owners:
                if entry is None or entry.state is not DirState.M \
                        or entry.owner != owners[0]:
                    problems.append(
                        f"{line!r}: owned by cache {owners[0]} but dir "
                        f"entry is {entry!r}")
                auth = system.caches[owners[0]].line_entry(line)
                auth_wts, auth_data = auth.wts, auth.data
            elif entry is not None:
                if entry.state is DirState.M:
                    problems.append(
                        f"{line!r}: dir names owner {entry.owner} but no "
                        f"cache holds M")
                if entry.wts > entry.rts:
                    problems.append(
                        f"{line!r}: dir wts {entry.wts} > rts {entry.rts}")
                auth_wts, auth_data = entry.wts, entry.data
            else:
                auth_wts, __ = home.authoritative_ts(line)
                auth_data = home._memory.get(line)
            for tile in copies:
                cached = system.caches[tile].line_entry(line)
                if cached.wts > auth_wts:
                    problems.append(
                        f"{line!r}: cache {tile} wts {cached.wts} ahead of "
                        f"authoritative {auth_wts}")
                elif cached.wts == auth_wts:
                    if (auth_data is not None
                            and cached.data.values != auth_data.values):
                        problems.append(
                            f"{line!r}: cache {tile} current-version data "
                            f"{cached.data!r} differs from {auth_data!r}")
                elif cached.rts >= auth_wts:
                    problems.append(
                        f"{line!r}: cache {tile} stale version "
                        f"[{cached.wts},{cached.rts}] overlaps write at "
                        f"{auth_wts}")
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
            if cache._wb_ts and not cache.mshrs.entries():
                problems.append(f"cache{cache.tile}: leaked writeback "
                                f"timestamps {dict(cache._wb_ts)}")
        return problems

    def cycle_problems(self, system) -> List[str]:
        """Invariants that hold at *every* cycle, mid-transaction:

        * at most one owned (M) copy per line (a new DataE is only sent
          after the previous owner's RecallAck, which downgraded it);
        * ``wts <= rts`` on every copy and stable directory entry;
        * ``pts`` is monotone non-decreasing per cache (tracked across
          probe invocations via an attribute on the cache);
        * a leased (S) copy never carries a wts ahead of its home
          directory's authoritative wts while the home entry is stable
          and unowned.
        """
        from .invariants import directory_banks
        problems: List[str] = []
        banks = directory_banks(system)
        owners: Dict[LineAddr, List[int]] = {}
        for cache in system.caches:
            last = getattr(cache, "_probe_last_pts", 0)
            if cache.pts < last:
                problems.append(
                    f"cache{cache.tile}: pts went backwards "
                    f"{last} -> {cache.pts}")
            cache._probe_last_pts = cache.pts
            for line, entry in cache._lines.items():
                if entry.wts > entry.rts:
                    problems.append(
                        f"{line!r}: cache {cache.tile} wts {entry.wts} > "
                        f"rts {entry.rts}")
                if entry.state is CacheState.M:
                    owners.setdefault(line, []).append(cache.tile)
                else:
                    home = banks[int(line) % len(banks)]
                    dentry = home.entry(line)
                    if (dentry is not None and dentry.is_stable()
                            and dentry.state is not DirState.M
                            and entry.wts > dentry.wts):
                        problems.append(
                            f"{line!r}: cache {cache.tile} leased wts "
                            f"{entry.wts} ahead of dir wts {dentry.wts}")
        for line, tiles in owners.items():
            if len(tiles) > 1:
                problems.append(f"{line!r}: multiple owners {tiles}")
        return problems


register_backend(TardisBackend())
