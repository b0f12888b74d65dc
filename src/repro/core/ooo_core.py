"""The out-of-order core model.

A mechanistic OoO pipeline driven by a per-core instruction trace:
dispatch (width-limited, resource-checked) → dataflow issue → execute /
memory → commit (policy-pluggable).  Branches compare real register
values, so spin loops on shared memory behave dynamically; loads and
stores move versioned values through the coherence protocol.

Consistency enforcement is the configurable part (paper §4/§5):

* ``IN_ORDER`` / ``OOO``: M-speculative loads are squashed when an
  invalidation hits them (classic TSO enforcement); commit is in-order
  or Bell-Lipasti-safe out-of-order respectively.
* ``OOO_WB``: no consistency squashes — M-speculative loads enter
  lockdown, Nack invalidations, and may commit out-of-order exporting
  their lockdown to the LDT.
* ``OOO_UNSAFE``: ablation; reordered loads commit with no protection.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..common.errors import SimulationError
from ..common.event_queue import EventQueue, FireCycles
from ..common.params import SystemParams
from ..common.stats import StatsRegistry
from ..common.types import CacheState, CommitMode, InstrType, LineAddr, line_of
from ..coherence.private_cache import LoadRequest, PrivateCache
from ..consistency.execution import ExecutionLog
from ..mem.store_buffer import SBEntry, StoreBuffer
from ..obs.events import EventBus, Kind
from .commit import CommitUnit
from .instruction import DynInstr, Instruction
from .ldt import LockdownTable
from .load_queue import LoadQueue, LQEntry
from .lockdowns import LockdownUnit
from .rob import ReorderBuffer
from .store_queue import StoreQueue


class OoOCore:
    """One core: pipeline structures plus commit policy."""

    def __init__(self, core_id: int, params: SystemParams, cache: PrivateCache,
                 events: EventQueue, stats: StatsRegistry,
                 log: ExecutionLog, *,
                 bus: Optional[EventBus] = None) -> None:
        self.core_id = core_id
        self.params = params
        self.cache = cache
        self.events = events
        self.bus = bus if bus is not None else EventBus(events)
        self.log = log
        self.mode = params.commit_mode
        cp = params.core
        self.rob = ReorderBuffer(cp.rob_entries)
        self.iq: List[DynInstr] = []
        self.lq = LoadQueue(cp.lq_entries)
        self.sq = StoreQueue(cp.sq_entries)
        self.sb = StoreBuffer(cp.sb_entries)
        self.ldt = LockdownTable(cp.ldt_entries)
        # Hot-loop copies of run-invariant parameters: the tick path runs
        # every cycle and chained params lookups dominate it otherwise.
        self._issue_width = cp.issue_width
        self._iq_cap = cp.iq_entries
        self._line_bytes = params.cache.line_bytes
        self._sos_bypass = not params.disable_sos_bypass
        self._trace_len = 0
        self.lockdowns = LockdownUnit(self.lq, self.ldt,
                                      cache.send_deferred_ack, stats,
                                      bus=self.bus, tile=core_id)
        self.commit_unit = CommitUnit(self.mode, cp.commit_width)
        self._commit_run = self.commit_unit.run

        self.trace: List[Instruction] = []
        self.pc = 0
        self._seq = 0
        self.fetch_stall_until = 0
        self.done = False
        self.done_cycle: Optional[int] = None
        self.reg_values: Dict[int, int] = {}
        self.reg_producer: Dict[int, DynInstr] = {}
        self._pending_atomics: List[DynInstr] = []
        #: Stall counter bumped by the latest stalled commit stage, and
        #: the (cause, line) its COMMIT_STALL event named.
        self._stall_reason = "other"
        self._stall_blame: Tuple[str, int] = ("none", -1)
        #: Fire cycles of the events this tile scheduled for the core:
        #: its execute latencies and the cache's hit completions.
        self.event_cycles = FireCycles(events)

        # Wire the coherence-side hooks.
        cache.invalidation_hook = self._on_invalidation
        cache.lockdown_query = self._lockdown_query
        cache.eviction_hook = self._on_nonsilent_eviction
        cache.wake_hook = self.event_cycles.note

        prefix = f"core{core_id}"
        self._stat_committed = stats.counter(f"{prefix}.committed")
        self._stat_cycles = stats.counter(f"{prefix}.active_cycles")
        self._stat_squashes = stats.counter("core.consistency_squashes")
        self._stat_mispredicts = stats.counter("core.branch_mispredicts")
        self._stat_stores = stats.counter("core.stores_performed")
        self._stat_loads = stats.counter("core.loads_performed")
        self._stat_stalls = {
            reason: stats.counter(f"{prefix}.stall_{reason}")
            for reason in ("sq", "lq", "rob", "other")
        }
        self._agg_stalls = {
            reason: stats.counter(f"core.stall_{reason}")
            for reason in ("sq", "lq", "rob", "other")
        }
        self._stat_commits_total = stats.counter("core.committed")

    # ----------------------------------------------------------------- setup
    def load_trace(self, trace: List[Instruction]) -> None:
        self.trace = trace
        self._trace_len = len(trace)
        self.pc = 0
        self.done = not trace

    # ------------------------------------------------------------------ tick
    def tick(self) -> bool:
        """Advance one cycle; return whether the core changed state.

        A tick that returns False touched nothing but ``active_cycles``
        and one stall counter (and emitted its ``COMMIT_STALL`` event):
        it committed, issued and dispatched nothing, performed or
        launched no access, made no call into the cache, scheduled no
        event and did not finish.  Until a message reaches its cache, an
        event its tile scheduled fires (``event_cycles``) or
        ``fetch_stall_until`` passes, the next tick would do the same,
        which is what lets the run loop put the core to sleep and charge
        the skipped ticks with :meth:`skip_idle`.
        """
        if self.done:
            return False
        self._stat_cycles.value += 1
        moved = self._commit_run(self) != 0
        if not moved:
            self._account_stall()
        # Guard each stage inline: an empty structure costs one attribute
        # load instead of a method call.
        if self.iq and self._issue():
            moved = True
        if (self.lq._entries or self._pending_atomics) \
                and self._memory_stage():
            moved = True
        if self.sb._entries and self._sb_drain():
            moved = True
        if self.pc < self._trace_len:
            if self._dispatch():
                moved = True
        elif not self.rob._entries and not self.sb._entries:
            self.done = True
            self.done_cycle = self.events.now
            moved = True
        return moved

    def skip_idle(self, cycles: int) -> None:
        """Account *cycles* idle cycles exactly as that many ticks would,
        right after a :meth:`tick` that returned False.

        While the bus has subscribers the run loop skips one cycle per
        call, and the call emits that cycle's ``COMMIT_STALL`` again.
        """
        self._stat_cycles.value += cycles
        reason = self._stall_reason
        self._stat_stalls[reason].value += cycles
        self._agg_stalls[reason].value += cycles
        bus = self.bus
        if bus.active:
            cause, line = self._stall_blame
            bus.emit(Kind.COMMIT_STALL, self.core_id, reason=reason,
                     cause=cause, line=line)

    def _account_stall(self) -> None:
        sq = self.sq
        if len(sq._entries) >= sq.capacity:
            reason = "sq"
        else:
            lq = self.lq
            if len(lq._entries) >= lq.capacity:
                reason = "lq"
            else:
                rob = self.rob
                reason = "rob" if len(rob._entries) >= rob.capacity else "other"
        self._stall_reason = reason
        self._stat_stalls[reason].value += 1
        self._agg_stalls[reason].value += 1
        bus = self.bus
        if bus.active:
            cause, line = self._stall_blame = self._stall_cause()
            bus.emit(Kind.COMMIT_STALL, self.core_id, reason=reason,
                     cause=cause, line=line)

    def _stall_cause(self) -> Tuple[str, int]:
        """Classify why the ROB head (or draining SB) cannot make
        progress this cycle.  Observability-only: called when the commit
        stage retired nothing and the bus has subscribers, so cost does
        not matter and the classification may probe cache/lockdown state
        freely.  The blame layer maps these hints onto the stall
        taxonomy (docs/observability.md)."""
        head = self.rob.head()
        if head is None:
            # ROB empty: the core is draining its store buffer (or idle).
            sb_head = self.sb.head()
            if sb_head is not None:
                return self._store_cause(sb_head.line)
            return "none", -1
        itype = head.itype
        if itype is InstrType.LOAD:
            entry = head.lq_entry
            line = int(entry.line) if entry.line is not None else -1
            if head.performed:
                # Performed M-spec load held back: OOO_WB needs LDT room.
                if self.ldt.full:
                    return "ldt_full", line
                return "exec", line
            if head.mem_inflight:
                return "load_inflight", line
            if entry.line is not None:
                if self.lockdowns.line_pending_inv(entry.line):
                    return "lockdown_pending", line
                if not self.cache.mshrs.can_allocate():
                    return "mshr_full", line
            return "exec", line
        if itype is InstrType.STORE:
            if not head.executed:
                return "exec", -1
            if self.sb.full:
                sb_head = self.sb.head()
                if sb_head is not None:
                    return self._store_cause(sb_head.line)
            return "exec", -1
        if itype is InstrType.ATOMIC:
            if head.resolved_addr is None:
                return "exec", -1
            line = line_of(head.resolved_addr, self._line_bytes)
            return self._store_cause(line)
        return "exec", -1

    def _store_cause(self, line: LineAddr) -> Tuple[str, int]:
        """Why is a store (or atomic) to *line* not globally performed?"""
        cache = self.cache
        if cache.write_blocked(line):
            return "write_blocked", int(line)
        if cache.has_write_mshr(line):
            return "store_inflight", int(line)
        if not cache.mshrs.can_allocate():
            return "mshr_full", int(line)
        return "exec", int(line)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> bool:
        # The stall window and clock cannot change mid-dispatch, so one
        # up-front check covers the whole group.
        if self.pc >= self._trace_len or self.events.now < self.fetch_stall_until:
            return False
        width = self._issue_width
        iq_cap = self._iq_cap
        trace = self.trace
        trace_len = self._trace_len
        dispatched = 0
        while dispatched < width:
            if self.pc >= trace_len:
                break
            instr = trace[self.pc]
            if self.rob.full or len(self.iq) >= iq_cap:
                break
            itype = instr.itype
            if itype is InstrType.LOAD and self.lq.full:
                break
            if itype is InstrType.STORE and self.sq.full:
                break
            self._dispatch_one(instr)
            dispatched += 1
        return dispatched != 0

    def _dispatch_one(self, instr: Instruction) -> None:
        dyn = DynInstr(instr=instr, trace_idx=self.pc, seq=self._seq)
        self._seq += 1
        regs, addr_idx, value_idx = self._source_regs(instr)
        producers: List[Optional[DynInstr]] = []
        captured: List[Optional[int]] = []
        for reg in regs:
            producer = self.reg_producer.get(reg)
            producers.append(producer)
            captured.append(None if producer else self.reg_values.get(reg, 0))
        dyn.producers = tuple(producers)
        dyn.src_values = tuple(captured)
        dyn.addr_src_idx = addr_idx
        dyn.value_src_idx = value_idx
        if instr.dst is not None:
            self.reg_producer[instr.dst] = dyn
        self.rob.push(dyn)
        self.iq.append(dyn)
        if instr.itype is InstrType.LOAD:
            dyn.lq_entry = self.lq.allocate(dyn)
        elif instr.itype is InstrType.STORE:
            dyn.sq_entry = self.sq.allocate(dyn)
        elif instr.itype is InstrType.ATOMIC:
            self._pending_atomics.append(dyn)
        dyn.dispatched_cycle = self.events.now
        # Follow the static prediction; execute() redirects on mispredict.
        if instr.itype is InstrType.BRANCH and instr.predict_taken:
            self.pc = instr.target
        else:
            self.pc += 1

    @staticmethod
    def _source_regs(instr: Instruction):
        """Register list read by *instr*, plus addr/value positions."""
        if instr.itype in (InstrType.ALU, InstrType.BRANCH):
            if instr.op in ("addi", "xori", "beqz", "bnez"):
                return (instr.srcs[0],), None, None
            return tuple(instr.srcs), None, None  # mov/compute/gate
        regs: List[int] = []
        addr_idx = value_idx = None
        if instr.addr_reg is not None:
            addr_idx = len(regs)
            regs.append(instr.addr_reg)
        if instr.itype is InstrType.STORE and instr.value_reg is not None:
            value_idx = len(regs)
            regs.append(instr.value_reg)
        return tuple(regs), addr_idx, value_idx

    # ----------------------------------------------------------------- issue
    def _issue(self) -> bool:
        iq = self.iq
        if not iq:
            return False
        width = self._issue_width
        issued = 0
        idx = 0
        while idx < len(iq) and issued < width:
            dyn = iq[idx]
            # Inlined dyn.sources_ready(): this scan runs for every IQ
            # entry every cycle.
            for producer in dyn.producers:
                if producer is not None and not producer.executed:
                    idx += 1
                    break
            else:
                del iq[idx]
                self._start_execution(dyn)
                issued += 1
        return issued != 0

    def _start_execution(self, dyn: DynInstr) -> None:
        dyn.issued = True
        itype = dyn.itype
        if itype is InstrType.LOAD:
            self._resolve_address(dyn)
            dyn.lq_entry.line = line_of(dyn.resolved_addr, self._line_bytes)
            return
        if itype is InstrType.ATOMIC:
            self._resolve_address(dyn)
            return
        if itype is InstrType.BRANCH:
            execute = self._execute_branch
        elif itype is InstrType.STORE:
            execute = self._execute_store
        else:  # ALU, NOP
            execute = self._execute_alu
        latency = dyn.instr.latency
        self.events.schedule(latency, lambda: execute(dyn))
        self.event_cycles.note(latency)

    def _resolve_address(self, dyn: DynInstr) -> None:
        base = dyn.instr.addr or 0
        if dyn.addr_src_idx is not None:
            base += dyn.source_value(dyn.addr_src_idx)
        dyn.resolved_addr = base

    def _execute_alu(self, dyn: DynInstr) -> None:
        if dyn.squashed:
            return
        op, imm = dyn.instr.op, dyn.instr.imm
        if op == "mov":
            dyn.value = imm
        elif op == "addi":
            dyn.value = dyn.source_value(0) + imm
        elif op == "xori":
            dyn.value = dyn.source_value(0) ^ imm
        elif op == "compute" and dyn.producers:
            dyn.value = dyn.source_value(0)  # latency-adding passthrough
        else:  # "gate", or compute with no sources
            dyn.value = imm
        dyn.executed = True

    def _execute_branch(self, dyn: DynInstr) -> None:
        if dyn.squashed:
            return
        value = dyn.source_value(0)
        taken = (value == 0) if dyn.instr.op == "beqz" else (value != 0)
        dyn.executed = True
        dyn.value = int(taken)
        if taken == dyn.instr.predict_taken:
            return
        dyn.mispredicted = True
        self._stat_mispredicts.add()
        self._squash(self.rob.squash_younger_than(dyn))
        self.pc = dyn.instr.target if taken else dyn.trace_idx + 1
        self.fetch_stall_until = (self.events.now
                                  + self.params.core.mispredict_penalty)

    def _execute_store(self, dyn: DynInstr) -> None:
        if dyn.squashed:
            return
        self._resolve_address(dyn)
        entry = dyn.sq_entry
        if entry is None:
            raise SimulationError(f"store {dyn!r} missing from SQ")
        entry.addr = dyn.resolved_addr
        if dyn.value_src_idx is not None:
            entry.value = dyn.source_value(dyn.value_src_idx)
        else:
            entry.value = dyn.instr.imm
        entry.version = self.log.new_version(self.core_id, dyn.seq,
                                             entry.addr, entry.value)
        dyn.value = entry.value
        dyn.version_written = entry.version
        dyn.executed = True
        # Prefetch write permission as early as the address is known
        # (paper §3.1.2); failure to get an MSHR just skips the prefetch.
        line = line_of(entry.addr, self._line_bytes)
        if self.cache.line_state(line) not in (CacheState.M, CacheState.E):
            self.cache.request_write(line, _noop)

    # ---------------------------------------------------------- memory stage
    def _memory_stage(self) -> bool:
        moved = False
        entries = self.lq._entries
        if entries:
            budget = self._issue_width
            for entry in entries[:]:
                # Inlined _try_load early-outs: most LQ entries are
                # already performed (or unissued) on any given cycle.
                if entry.performed or not entry.dyn.issued:
                    continue
                if budget == 0:
                    break
                outcome = self._try_load(entry)
                if outcome is not None:
                    moved = True
                    if outcome:
                        budget -= 1
        if self._pending_atomics and self._try_atomics():
            moved = True
        return moved

    def _try_load(self, entry: LQEntry) -> Optional[bool]:
        """True: the load performed or launched an access (one issue
        slot).  False: the cache was asked and said "retry".  None:
        nothing changed."""
        dyn = entry.dyn
        if entry.performed or not dyn.issued:
            return None
        line = entry.line
        lq = self.lq
        if dyn.mem_inflight:
            # Already accessing; if we are the SoS load piggybacked on a
            # write that the directory hinted is blocked, launch a fresh
            # uncacheable read on a (possibly reserved) MSHR (§3.5.2).
            if (self._sos_bypass
                    and lq.first_nonperformed() is entry
                    and not dyn.used_tearoff
                    and not dyn.bypass_launched
                    and self.cache.write_blocked(line)):
                request = self._make_request(entry)
                if self.cache.load(request, sos_bypass=True) != "retry":
                    dyn.bypass_launched = True
                    return True
                return False
            return None
        # One SoS scan covers every check below: nothing in between can
        # perform another load of this queue.
        is_sos = lq.first_nonperformed() is entry
        if dyn.retry_when_ordered and not is_sos:
            return None
        if self.sq.unresolved_older_than(dyn.seq):
            return None
        if self._older_unperformed_atomic(dyn.seq):
            return None
        # Store-to-load forwarding: youngest older exact-address match.
        fwd = self.sq.forward_for(dyn.resolved_addr, dyn.seq)
        if fwd is not None:
            if not fwd.value_ready:
                return None  # wait for the store's value
            self._emit_load_issue(entry)
            self._perform_load(entry, fwd.version, fwd.value, forwarded=True)
            return True
        sb_entry = self.sb.forward(dyn.resolved_addr, dyn.seq)
        if sb_entry is not None:
            self._emit_load_issue(entry)
            self._perform_load(entry, sb_entry.version, sb_entry.value,
                               forwarded=True)
            return True
        # §3.4 optimization: don't issue unordered loads for a line whose
        # lockdown has already been seen by an invalidation.
        if not is_sos and self.lockdowns.line_pending_inv(line):
            return None
        request = self._make_request(entry)
        sos_bypass = (self._sos_bypass and is_sos
                      and self.cache.write_blocked(line))
        result = self.cache.load(request, sos_bypass=sos_bypass)
        if result == "retry":
            return False
        dyn.mem_inflight = True
        dyn.retry_when_ordered = False
        self._emit_load_issue(entry)
        if sos_bypass:
            dyn.bypass_launched = True
        return True

    def _make_request(self, entry: LQEntry) -> LoadRequest:
        dyn = entry.dyn

        def is_ordered() -> bool:
            return (not dyn.squashed and not dyn.performed
                    and self.lq.first_nonperformed() is entry)

        def on_value(versioned, uncacheable: bool) -> None:
            if dyn.squashed or dyn.performed:
                return
            version, value = versioned
            dyn.used_tearoff = uncacheable
            self._perform_load(entry, version, value, uncacheable=uncacheable)

        def on_must_retry(wait_for_sos: bool) -> None:
            if dyn.squashed or dyn.performed:
                return
            dyn.mem_inflight = False
            dyn.bypass_launched = False
            dyn.retry_when_ordered = wait_for_sos

        return LoadRequest(byte_addr=dyn.resolved_addr, is_ordered=is_ordered,
                           on_value=on_value, on_must_retry=on_must_retry)

    def _emit_load_issue(self, entry: LQEntry) -> None:
        bus = self.bus
        if bus.active:
            dyn = entry.dyn
            bus.emit(Kind.LOAD_ISSUE, self.core_id, uid=dyn.uid, seq=dyn.seq,
                     line=int(entry.line), addr=dyn.resolved_addr)

    def _perform_load(self, entry: LQEntry, version: int, value: int, *,
                      forwarded: bool = False, uncacheable: bool = False) -> None:
        dyn = entry.dyn
        dyn.performed = True
        dyn.executed = True
        dyn.mem_inflight = False
        dyn.value = value
        dyn.version_read = version
        entry.performed = True
        entry.forwarded = forwarded
        dyn.forwarded_load = forwarded
        dyn.performed_cycle = self.events.now
        self._stat_loads.add()
        bus = self.bus
        if bus.active:
            bus.emit(Kind.LOAD_PERFORM, self.core_id, uid=dyn.uid,
                     line=int(entry.line), forwarded=forwarded,
                     uncacheable=uncacheable)
            if not self.lq.is_ordered(entry):
                # Performed past an older non-performed load: this is the
                # start of an M-speculative lockdown window (paper §3.2).
                bus.emit(Kind.LOCKDOWN_BEGIN, self.core_id, uid=dyn.uid,
                         line=int(entry.line))
        self.lockdowns.sweep_ordered()

    def _older_unperformed_atomic(self, seq: int) -> bool:
        if not self._pending_atomics:
            return False
        return any(a.seq < seq and not a.performed and not a.squashed
                   for a in self._pending_atomics)

    # ---------------------------------------------------------------- atomic
    def _try_atomics(self) -> bool:
        head = self.rob.head()
        if head is None or head.itype is not InstrType.ATOMIC:
            return False
        dyn = head
        if dyn.performed or not dyn.issued or not self.sb.empty:
            return False
        line = line_of(dyn.resolved_addr, self._line_bytes)
        state = self.cache.line_state(line)
        moved = False
        if state is CacheState.E:
            self.cache.request_write(line, _noop)  # silent E->M
            state = self.cache.line_state(line)
            moved = True
        if state is CacheState.M:
            self._perform_atomic(dyn, line)
        elif not self.cache.has_write_mshr(line):
            self.cache.request_write(line, _noop)
        else:
            return moved
        return True

    def _perform_atomic(self, dyn: DynInstr, line: LineAddr) -> None:
        addr = dyn.resolved_addr
        offset = addr % self._line_bytes
        line_entry = self.cache.line_entry(line)
        old_version, old_value = line_entry.data.read(offset)
        new_value = 1 if dyn.instr.op == "tas" else old_value + dyn.instr.imm
        version = self.log.new_version(self.core_id, dyn.seq, addr, new_value)
        self.cache.perform_atomic(addr, version, new_value)
        self.log.store_performed(version)
        self.log.record_atomic(self.core_id, dyn.seq, addr,
                               old_version, version, self.events.now)
        dyn.value = old_value
        dyn.version_read = old_version
        dyn.version_written = version
        dyn.performed = True
        dyn.executed = True
        self._pending_atomics.remove(dyn)
        self._stat_loads.add()
        self._stat_stores.add()

    # ---------------------------------------------------------------- stores
    def _sb_drain(self) -> bool:
        head = self.sb.head()
        if head is None:
            return False
        state = self.cache.line_state(head.line)
        moved = False
        if state is CacheState.E:
            self.cache.request_write(head.line, _noop)  # silent E->M
            state = self.cache.line_state(head.line)
            moved = True
        if state is CacheState.M:
            self.cache.perform_store(head.byte_addr, head.version, head.value)
            self.log.store_performed(head.version)
            self.log.record_store(self.core_id, head.seq, head.byte_addr,
                                  head.version, self.events.now)
            self.sb.pop_head()
            self._stat_stores.add()
        elif not self.cache.has_write_mshr(head.line):
            self.cache.request_write(head.line, _noop)
        else:
            return moved
        return True

    # ---------------------------------------------------------------- commit
    def do_commit(self, dyn: DynInstr) -> None:
        """Retire *dyn* (called by the commit unit after eligibility)."""
        self.rob.commit(dyn)
        dyn.committed = True
        itype = dyn.itype
        if itype is InstrType.LOAD:
            entry = dyn.lq_entry
            if self.mode is CommitMode.OOO_WB and self.lq.is_mspeculative(entry):
                if not self.lockdowns.export_on_commit(entry):
                    raise SimulationError("commit of M-spec load with full LDT")
            self.lq.remove(entry)
            bus = self.bus
            if bus.active:
                bus.emit(Kind.LOAD_COMMIT, self.core_id, uid=dyn.uid,
                         line=int(entry.line) if entry.line is not None
                         else -1)
            # Loads are logged at commit so squashed (re-executed) loads
            # never pollute the consistency checker's event set.
            self.log.record_load(self.core_id, dyn.seq, dyn.resolved_addr,
                                 dyn.version_read, dyn.performed_cycle,
                                 forwarded=dyn.forwarded_load,
                                 uncacheable=dyn.used_tearoff)
        elif itype is InstrType.STORE:
            sq_entry = dyn.sq_entry
            line = line_of(sq_entry.addr, self._line_bytes)
            self.sb.push(SBEntry(byte_addr=sq_entry.addr, line=line,
                                 offset=sq_entry.addr % self._line_bytes,
                                 version=sq_entry.version,
                                 value=sq_entry.value, seq=dyn.seq))
            self.sq.remove(sq_entry)
        if dyn.instr.dst is not None:
            self.reg_values[dyn.instr.dst] = dyn.value or 0
            if self.reg_producer.get(dyn.instr.dst) is dyn:
                del self.reg_producer[dyn.instr.dst]
        self._stat_committed.add()
        self._stat_commits_total.add()

    # ---------------------------------------------------------------- squash
    def _squash(self, squashed: List[DynInstr]) -> None:
        if not squashed:
            return
        bus = self.bus
        for dyn in squashed:  # oldest first: heirs for guards survive
            dyn.squashed = True
            if dyn.itype is InstrType.LOAD:
                entry = dyn.lq_entry
                if entry is not None:
                    if bus.active:
                        bus.emit(Kind.LOAD_SQUASH, self.core_id, uid=dyn.uid,
                                 line=int(entry.line) if entry.line is not None
                                 else -1)
                    self.lockdowns.on_squash(entry)
                    self.lq.remove(entry)
                    dyn.lq_entry = None
            elif dyn.itype is InstrType.STORE:
                sq_entry = dyn.sq_entry
                if sq_entry is not None:
                    self.sq.remove(sq_entry)
                    dyn.sq_entry = None
            elif dyn.itype is InstrType.ATOMIC:
                if dyn in self._pending_atomics:
                    self._pending_atomics.remove(dyn)
        self.iq = [d for d in self.iq if not d.squashed]
        self._rebuild_rename()
        self.lockdowns.sweep_ordered()

    def _rebuild_rename(self) -> None:
        self.reg_producer = {}
        for dyn in self.rob:
            if dyn.instr.dst is not None and not dyn.committed:
                self.reg_producer[dyn.instr.dst] = dyn

    # ------------------------------------------------------------ coherence
    def _on_invalidation(self, line: LineAddr) -> bool:
        """Cache hook: an invalidation must be answered for *line*."""
        if self.mode is CommitMode.OOO_WB:
            return self.lockdowns.on_invalidation(line)
        if self.mode is CommitMode.OOO_UNSAFE:
            return False
        victims = self.lq.mspeculative_on_line(line)
        if victims:
            self._consistency_squash(victims[0])
        return False

    def _on_nonsilent_eviction(self, line: LineAddr) -> None:
        """A non-silent shared eviction loses future invalidations for
        *line*: squash-mode cores must squash M-speculative loads now
        (paper §3.8)."""
        if self.mode in (CommitMode.OOO_WB, CommitMode.OOO_UNSAFE):
            return
        victims = self.lq.mspeculative_on_line(line)
        if victims:
            self._consistency_squash(victims[0])

    def _consistency_squash(self, entry: LQEntry) -> None:
        dyn = entry.dyn
        self._stat_squashes.add()
        self._squash(self.rob.squash_from(dyn))
        self.pc = dyn.trace_idx
        self.fetch_stall_until = (self.events.now
                                  + self.params.core.mispredict_penalty)

    def _lockdown_query(self, line: LineAddr) -> bool:
        if self.mode is not CommitMode.OOO_WB:
            return False
        return self.lockdowns.has_lockdown(line)

    def snapshot(self) -> str:
        """One-line diagnostic used in deadlock reports."""
        head = self.rob.head()
        return (f"core{self.core_id}: pc={self.pc}/{len(self.trace)} "
                f"rob={len(self.rob)} head={head!r} lq={len(self.lq)} "
                f"sq={len(self.sq)} sb={len(self.sb)} iq={len(self.iq)} "
                f"ldt={len(self.ldt)}")

    def gauges(self) -> Dict[str, int]:
        """Instantaneous occupancy gauges for the metrics sampler."""
        return {
            "rob": len(self.rob),
            "lq": len(self.lq),
            "sq": len(self.sq),
            "sb": len(self.sb),
            "ldt": len(self.ldt),
            "lockdowns": self.lq.active_lockdowns() + len(self.ldt),
        }


def _noop() -> None:
    """Placeholder grant callback for polled write permission."""
