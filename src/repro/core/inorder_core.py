"""In-order, stall-on-use core with optional Early Commit of Loads (ECL).

The paper's first motivation (§1) for non-speculative load-load
reordering: stall-on-use in-order cores — like the DEC Alpha 21164 EV5 —
that continue executing after a miss *without a checkpoint* and commit
loads early.  Such a core cannot squash-and-re-execute, so under TSO it
classically has two options:

* ``ecl=False`` (the "wait for it" baseline): a load may not bind while
  an older load is unperformed — loads serialize, no memory-level
  parallelism across loads;
* ``ecl=True`` + WritersBlock: loads bind (and retire) immediately,
  out of order; the lockdown/WritersBlock machinery hides any observed
  reordering, so TSO holds with zero squash capability.

The pipeline is deliberately simple: one-wide in-order issue with a
register scoreboard (stall-on-use), a small in-flight window, branches
resolved at issue (no control speculation, hence no squash paths at
all), the same FIFO SQ/SB store path as the OoO core, and the same
LoadQueue/LockdownUnit/PrivateCache machinery underneath.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.errors import SimulationError
from ..common.event_queue import EventQueue, FireCycles
from ..common.params import SystemParams
from ..common.stats import StatsRegistry
from ..common.types import CacheState, InstrType, LineAddr, line_of
from ..coherence.private_cache import LoadRequest, PrivateCache
from ..consistency.execution import ExecutionLog
from ..mem.store_buffer import SBEntry, StoreBuffer
from ..obs.events import EventBus, Kind
from .instruction import DynInstr, Instruction
from .ldt import LockdownTable
from .load_queue import LoadQueue, LQEntry
from .lockdowns import LockdownUnit
from .store_queue import StoreQueue


class InOrderCore:
    """EV5-flavoured in-order core; plug-compatible with OoOCore."""

    def __init__(self, core_id: int, params: SystemParams,
                 cache: PrivateCache, events: EventQueue,
                 stats: StatsRegistry, log: ExecutionLog, *,
                 ecl: bool, bus: Optional[EventBus] = None) -> None:
        self.core_id = core_id
        self.params = params
        self.cache = cache
        self.events = events
        self.log = log
        self.ecl = ecl
        self.bus = bus if bus is not None else EventBus(events)
        cp = params.core
        self.lq = LoadQueue(cp.lq_entries)
        self.sq = StoreQueue(cp.sq_entries)
        self.sb = StoreBuffer(cp.sb_entries)
        self.ldt = LockdownTable(cp.ldt_entries)
        self.lockdowns = LockdownUnit(self.lq, self.ldt,
                                      cache.send_deferred_ack, stats,
                                      bus=self.bus, tile=core_id)
        #: In-flight (issued, unretired) instructions in program order.
        self.window: List[DynInstr] = []
        self.window_size = max(cp.iq_entries, 8)
        self.trace: List[Instruction] = []
        self.pc = 0
        self._seq = 0
        self.reg_values: Dict[int, int] = {}
        self._scoreboard: Dict[int, DynInstr] = {}
        self.done = False
        self.done_cycle: Optional[int] = None
        #: Branches resolve at issue, so fetch never stalls; kept at 0
        #: for the run loop's wake bound (shared with OoOCore).
        self.fetch_stall_until = 0
        #: Fire cycles of this tile's pending events, as on OoOCore.
        self.event_cycles = FireCycles(events)

        cache.invalidation_hook = self._on_invalidation
        cache.lockdown_query = self._lockdown_query
        cache.eviction_hook = lambda line: None
        cache.wake_hook = self.event_cycles.note

        prefix = f"core{core_id}"
        self._stat_committed = stats.counter(f"{prefix}.committed")
        self._stat_cycles = stats.counter(f"{prefix}.active_cycles")
        self._stat_commits_total = stats.counter("core.committed")
        self._stat_loads = stats.counter("core.loads_performed")
        self._stat_stores = stats.counter("core.stores_performed")
        self._stat_use_stalls = stats.counter("core.inorder_use_stalls")
        self._stat_order_stalls = stats.counter("core.inorder_order_stalls")
        #: Use and order stalls of the latest tick, added to the shared
        #: counters when it ends (and again per skipped idle cycle).
        self._use_stalls = 0
        self._order_stalls = 0

    # ----------------------------------------------------------------- setup
    def load_trace(self, trace: List[Instruction]) -> None:
        self.trace = trace
        self.pc = 0
        self.done = not trace

    def snapshot(self) -> str:
        head = self.window[0] if self.window else None
        return (f"core{self.core_id}(inorder): pc={self.pc}/{len(self.trace)} "
                f"window={len(self.window)} head={head!r} lq={len(self.lq)} "
                f"sb={len(self.sb)}")

    def gauges(self) -> Dict[str, int]:
        """Instantaneous occupancy gauges for the metrics sampler.

        The in-flight window plays the ROB's role on this core, so it
        reports under the same ``rob`` key — one gauge catalog covers
        both core types.
        """
        return {
            "rob": len(self.window),
            "lq": len(self.lq),
            "sq": len(self.sq),
            "sb": len(self.sb),
            "ldt": len(self.ldt),
            "lockdowns": self.lq.active_lockdowns() + len(self.ldt),
        }

    # ------------------------------------------------------------------ tick
    def tick(self) -> bool:
        """Advance one cycle; return whether the core changed state
        (same contract as :meth:`repro.core.ooo_core.OoOCore.tick`)."""
        if self.done:
            return False
        self._stat_cycles.add()
        self._use_stalls = self._order_stalls = 0
        moved = self._retire()
        if self._memory_stage():
            moved = True
        if self._sb_drain():
            moved = True
        if self._issue():
            moved = True
        self._stat_use_stalls.add(self._use_stalls)
        self._stat_order_stalls.add(self._order_stalls)
        return self._check_done() or moved

    def skip_idle(self, cycles: int) -> None:
        """Account *cycles* idle cycles exactly as that many ticks would,
        right after a :meth:`tick` that returned False: each stall
        counter grows by what that tick added to it, *cycles* times.
        An idle tick emits no events, so there are none to repeat."""
        self._stat_cycles.add(cycles)
        self._stat_use_stalls.add(cycles * self._use_stalls)
        self._stat_order_stalls.add(cycles * self._order_stalls)

    # ----------------------------------------------------------------- issue
    def _issue(self) -> bool:
        """Issue (at most) one instruction per cycle, strictly in order."""
        if self.pc >= len(self.trace) or len(self.window) >= self.window_size:
            return False
        instr = self.trace[self.pc]
        if instr.itype is InstrType.LOAD and self.lq.full:
            return False
        if instr.itype is InstrType.STORE and self.sq.full:
            return False
        regs = self._source_regs(instr)
        for reg in regs:
            producer = self._scoreboard.get(reg)
            if producer is not None and not producer.executed:
                self._use_stalls += 1
                return False  # stall-on-use
        dyn = DynInstr(instr=instr, trace_idx=self.pc, seq=self._seq)
        self._seq += 1
        values = [self._read_reg(reg) for reg in regs]
        self.window.append(dyn)
        itype = instr.itype
        if itype is InstrType.ALU:
            self._execute_alu(dyn, values)
        elif itype is InstrType.BRANCH:
            self._execute_branch(dyn, values)
            return True  # pc already redirected
        elif itype is InstrType.LOAD:
            entry = self.lq.allocate(dyn)
            dyn.lq_entry = entry
            dyn.resolved_addr = (instr.addr or 0) + (
                values[0] if instr.addr_reg is not None else 0)
            entry.line = line_of(dyn.resolved_addr,
                                 self.params.cache.line_bytes)
            dyn.issued = True
        elif itype is InstrType.STORE:
            self._execute_store(dyn, values)
        elif itype is InstrType.ATOMIC:
            dyn.resolved_addr = (instr.addr or 0) + (
                values[0] if instr.addr_reg is not None else 0)
            dyn.issued = True
        else:  # NOP
            dyn.executed = True
        if instr.dst is not None and itype is not InstrType.ALU:
            self._scoreboard[instr.dst] = dyn
        self.pc += 1
        return True

    @staticmethod
    def _source_regs(instr: Instruction):
        if instr.itype in (InstrType.ALU, InstrType.BRANCH):
            if instr.op in ("addi", "xori", "beqz", "bnez"):
                return (instr.srcs[0],)
            return tuple(instr.srcs)
        regs = []
        if instr.addr_reg is not None:
            regs.append(instr.addr_reg)
        if instr.itype is InstrType.STORE and instr.value_reg is not None:
            regs.append(instr.value_reg)
        return tuple(regs)

    def _read_reg(self, reg: int) -> int:
        producer = self._scoreboard.get(reg)
        if producer is not None:
            if not producer.executed:
                raise SimulationError("issued past a busy register")
            return producer.value or 0
        return self.reg_values.get(reg, 0)

    def _execute_alu(self, dyn: DynInstr, values) -> None:
        op, imm = dyn.instr.op, dyn.instr.imm
        dyn.issued = True
        if dyn.instr.dst is not None:
            self._scoreboard[dyn.instr.dst] = dyn

        def finish():
            if op == "mov":
                dyn.value = imm
            elif op == "addi":
                dyn.value = values[0] + imm
            elif op == "xori":
                dyn.value = values[0] ^ imm
            elif op == "compute" and values:
                dyn.value = values[0]
            else:
                dyn.value = imm
            dyn.executed = True

        latency = dyn.instr.latency
        self.events.schedule(latency, finish)
        self.event_cycles.note(latency)

    def _execute_branch(self, dyn: DynInstr, values) -> None:
        """Branches resolve at issue: no control speculation at all."""
        value = values[0]
        taken = (value == 0) if dyn.instr.op == "beqz" else (value != 0)
        dyn.value = int(taken)
        dyn.issued = True
        dyn.executed = True
        self.pc = dyn.instr.target if taken else self.pc + 1

    def _execute_store(self, dyn: DynInstr, values) -> None:
        instr = dyn.instr
        idx = 0
        addr = instr.addr or 0
        if instr.addr_reg is not None:
            addr += values[idx]
            idx += 1
        value = values[idx] if instr.value_reg is not None else instr.imm
        entry = self.sq.allocate(dyn)
        dyn.sq_entry = entry
        entry.addr = addr
        entry.value = value
        entry.version = self.log.new_version(self.core_id, dyn.seq, addr,
                                             value)
        dyn.resolved_addr = addr
        dyn.value = value
        dyn.version_written = entry.version
        dyn.issued = True
        dyn.executed = True
        line = line_of(addr, self.params.cache.line_bytes)
        if self.cache.line_state(line) not in (CacheState.M, CacheState.E):
            self.cache.request_write(line, _noop)

    # ---------------------------------------------------------- memory stage
    def _memory_stage(self) -> bool:
        moved = False
        for entry in list(self.lq):
            if self._try_load(entry):
                moved = True
        return self._try_atomic() or moved

    def _try_load(self, entry: LQEntry) -> bool:
        """Returns whether the load performed or called into the cache."""
        dyn = entry.dyn
        if entry.performed or dyn.mem_inflight or not dyn.issued:
            if dyn.mem_inflight and not self.params.disable_sos_bypass \
                    and self.lq.is_sos(entry) and not dyn.bypass_launched \
                    and self.cache.write_blocked(entry.line):
                request = self._make_request(entry)
                if self.cache.load(request, sos_bypass=True) != "retry":
                    dyn.bypass_launched = True
                return True
            return False
        if dyn.retry_when_ordered and not self.lq.is_sos(entry):
            return False
        if not self.ecl and not self.lq.is_sos(entry):
            # Baseline: a load may not bind while an older one is
            # unperformed ("wait for it", paper §1 option 3).
            self._order_stalls += 1
            return False
        if self.sq.unresolved_older_than(dyn.seq):
            return False
        if self._older_unperformed_atomic(dyn.seq):
            return False
        fwd = self.sq.forward_for(dyn.resolved_addr, dyn.seq)
        if fwd is not None:
            if not fwd.value_ready:
                return False
            self._emit_load_issue(entry)
            self._perform_load(entry, fwd.version, fwd.value,
                               forwarded=True)
            return True
        sb_entry = self.sb.forward(dyn.resolved_addr, dyn.seq)
        if sb_entry is not None:
            self._emit_load_issue(entry)
            self._perform_load(entry, sb_entry.version, sb_entry.value,
                               forwarded=True)
            return True
        if self.lockdowns.line_pending_inv(entry.line) \
                and not self.lq.is_sos(entry):
            return False
        request = self._make_request(entry)
        sos_bypass = (not self.params.disable_sos_bypass
                      and self.lq.is_sos(entry)
                      and self.cache.write_blocked(entry.line))
        if self.cache.load(request, sos_bypass=sos_bypass) != "retry":
            dyn.mem_inflight = True
            dyn.retry_when_ordered = False
            if sos_bypass:
                dyn.bypass_launched = True
            self._emit_load_issue(entry)
        return True

    def _emit_load_issue(self, entry: LQEntry) -> None:
        bus = self.bus
        if bus.active:
            dyn = entry.dyn
            bus.emit(Kind.LOAD_ISSUE, self.core_id, uid=dyn.uid, seq=dyn.seq,
                     line=int(entry.line) if entry.line is not None else -1,
                     addr=dyn.resolved_addr)

    def _make_request(self, entry: LQEntry) -> LoadRequest:
        dyn = entry.dyn

        def is_ordered() -> bool:
            return (not dyn.performed
                    and self.lq.first_nonperformed() is entry)

        def on_value(versioned, uncacheable: bool) -> None:
            if dyn.performed:
                return
            version, value = versioned
            dyn.used_tearoff = uncacheable
            self._perform_load(entry, version, value, uncacheable=uncacheable)

        def on_must_retry(wait_for_sos: bool) -> None:
            if dyn.performed:
                return
            dyn.mem_inflight = False
            dyn.bypass_launched = False
            dyn.retry_when_ordered = wait_for_sos

        return LoadRequest(byte_addr=dyn.resolved_addr, is_ordered=is_ordered,
                           on_value=on_value, on_must_retry=on_must_retry)

    def _perform_load(self, entry: LQEntry, version: int, value: int, *,
                      forwarded: bool = False,
                      uncacheable: bool = False) -> None:
        dyn = entry.dyn
        dyn.performed = True
        dyn.executed = True
        dyn.mem_inflight = False
        dyn.value = value
        dyn.version_read = version
        dyn.performed_cycle = self.events.now
        dyn.forwarded_load = forwarded
        entry.performed = True
        entry.forwarded = forwarded
        self._stat_loads.add()
        if dyn.committed and dyn.instr.dst is not None:
            # The load retired early (ECL): complete the architectural
            # write now that the value is bound.
            self.reg_values[dyn.instr.dst] = value
        bus = self.bus
        if bus.active:
            line = int(entry.line) if entry.line is not None else -1
            bus.emit(Kind.LOAD_PERFORM, self.core_id, uid=dyn.uid, line=line,
                     forwarded=forwarded, uncacheable=uncacheable)
            if not self.lq.is_ordered(entry):
                bus.emit(Kind.LOCKDOWN_BEGIN, self.core_id, uid=dyn.uid,
                         line=line)
        self.lockdowns.sweep_ordered()
        self._purge_completed_loads()

    def _purge_completed_loads(self) -> None:
        """Release LQ entries that retired, performed, and are ordered
        (their lockdown, if any, was lifted by the ordered sweep)."""
        while True:
            entries = list(self.lq)
            if not entries:
                return
            head = entries[0]
            if not (getattr(head, "retired", False) and head.performed):
                return
            dyn = head.dyn
            self.lq.remove(head)
            bus = self.bus
            if bus.active:
                bus.emit(Kind.LOAD_COMMIT, self.core_id, uid=dyn.uid,
                         line=int(head.line) if head.line is not None else -1)
            self.log.record_load(self.core_id, dyn.seq, dyn.resolved_addr,
                                 dyn.version_read, dyn.performed_cycle,
                                 forwarded=dyn.forwarded_load,
                                 uncacheable=dyn.used_tearoff)

    def _older_unperformed_atomic(self, seq: int) -> bool:
        return any(d.itype is InstrType.ATOMIC and d.seq < seq
                   and not d.performed for d in self.window)

    def _try_atomic(self) -> bool:
        if not self.window:
            return False
        dyn = self.window[0]
        if dyn.itype is not InstrType.ATOMIC or dyn.performed \
                or not dyn.issued or not self.sb.empty:
            return False
        # An RMW is a full fence: with ECL, older loads may have retired
        # unperformed — the atomic must still wait for every older load
        # to perform (its load part may not reorder, paper §3.7).
        for entry in self.lq:
            if entry.dyn.seq < dyn.seq and not entry.performed:
                return False
        line = line_of(dyn.resolved_addr, self.params.cache.line_bytes)
        state = self.cache.line_state(line)
        moved = False
        if state is CacheState.E:
            self.cache.request_write(line, _noop)
            state = self.cache.line_state(line)
            moved = True
        if state is CacheState.M:
            addr = dyn.resolved_addr
            offset = addr % self.params.cache.line_bytes
            old_version, old_value = \
                self.cache.line_entry(line).data.read(offset)
            new_value = (1 if dyn.instr.op == "tas"
                         else old_value + dyn.instr.imm)
            version = self.log.new_version(self.core_id, dyn.seq, addr,
                                           new_value)
            self.cache.perform_atomic(addr, version, new_value)
            self.log.store_performed(version)
            self.log.record_atomic(self.core_id, dyn.seq, addr, old_version,
                                   version, self.events.now)
            dyn.value = old_value
            dyn.version_read = old_version
            dyn.version_written = version
            dyn.performed = True
            dyn.executed = True
            self._stat_loads.add()
            self._stat_stores.add()
        elif not self.cache.has_write_mshr(line):
            self.cache.request_write(line, _noop)
        else:
            return moved
        return True

    # ---------------------------------------------------------------- stores
    def _sb_drain(self) -> bool:
        head = self.sb.head()
        if head is None:
            return False
        # TSO load->store order: with ECL a store can reach the SB while
        # an older (early-retired) load is still unperformed; it must
        # not become globally visible before that load binds.
        for entry in self.lq:
            if entry.dyn.seq < head.seq and not entry.performed:
                return False
        state = self.cache.line_state(head.line)
        moved = False
        if state is CacheState.E:
            self.cache.request_write(head.line, _noop)
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

    # ---------------------------------------------------------------- retire
    def _retire(self) -> bool:
        retired = 0
        width = self.params.core.commit_width
        while self.window and retired < width:
            dyn = self.window[0]
            itype = dyn.itype
            if itype is InstrType.LOAD:
                entry = dyn.lq_entry
                if self.ecl:
                    # Early Commit of Loads (EV5-style): the load retires
                    # *now*, even unperformed — it is irrevocably bound.
                    # Its LQ entry stays alive to carry the lockdown
                    # until the load performs and becomes ordered
                    # (paper Figure 2.B); users stall on the scoreboard.
                    entry.retired = True
                    self._purge_completed_loads()
                else:
                    if not dyn.performed or not self.lq.is_ordered(entry):
                        break
                    entry.retired = True
                    self._purge_completed_loads()
            elif itype is InstrType.STORE:
                if not dyn.executed or self.sb.full:
                    break
                # TSO load->store: all older loads have retired already
                # (in-order retirement), so the order is safe.
                sq_entry = dyn.sq_entry
                line = line_of(sq_entry.addr, self.params.cache.line_bytes)
                self.sb.push(SBEntry(
                    byte_addr=sq_entry.addr, line=line,
                    offset=sq_entry.addr % self.params.cache.line_bytes,
                    version=sq_entry.version, value=sq_entry.value,
                    seq=dyn.seq))
                self.sq.remove(sq_entry)
            elif not dyn.executed and not dyn.performed:
                break
            elif itype is InstrType.ATOMIC and not dyn.performed:
                break
            self.window.pop(0)
            dyn.committed = True
            if dyn.instr.dst is not None and dyn.executed:
                self.reg_values[dyn.instr.dst] = dyn.value or 0
            retired += 1
            self._stat_committed.add()
            self._stat_commits_total.add()
        return retired != 0

    # ------------------------------------------------------------ coherence
    def _on_invalidation(self, line: LineAddr) -> bool:
        """No squash capability: lockdowns are the only option (ECL);
        the baseline never reorders, so it never has lockdowns."""
        if not self.ecl:
            return False
        return self.lockdowns.on_invalidation(line)

    def _lockdown_query(self, line: LineAddr) -> bool:
        return self.ecl and self.lockdowns.has_lockdown(line)

    # ------------------------------------------------------------------ done
    def _check_done(self) -> bool:
        if self.pc >= len(self.trace) and not self.window \
                and not len(self.lq) and self.sb.empty:
            self.done = True
            self.done_cycle = self.events.now
        return self.done


def _noop() -> None:
    """Placeholder grant callback for polled write permission."""
