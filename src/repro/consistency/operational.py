"""Operational reference machines, one per memory model.

The x86-TSO machine is Owens/Sarkar/Sewell ("x86-TSO: a rigorous and
usable programmer's model"): a single shared memory, one FIFO store
buffer per hardware thread, and a nondeterministic scheduler.  At each
step the machine may (a) execute the next instruction of some thread —
loads read from the own store buffer first (youngest matching entry),
then memory; stores append to the buffer; RMWs require an *empty* own
buffer and act atomically on memory — or (b) drain the oldest entry of
some store buffer to memory.

Two sibling machines make the conformance matrix operational:

* ``sc`` — the same machine with the store buffer removed: stores hit
  memory at execute, so every schedule is a plain interleaving.
* ``rmo`` — an out-of-order issue machine: any not-yet-executed op of a
  thread may fire as long as every *po-earlier* op it must stay behind
  has fired.  An op stays behind fences, and behind same-location ops —
  except a load hoisting above its own thread's store, which forwards
  that store's value (the classic st→ld relaxation, now per location).
  The machine keeps a single memory, so the model is store-atomic.

:func:`enumerate_outcomes` explores every schedule of a small program
and returns the set of reachable final register valuations;
:func:`enumerate_final_states` also carries the final memory, which
litmus families whose ``exists`` constrains memory (R, 2+2W, ...) need.
This is the ground truth the *simulator* (operational,
microarchitectural) and the *axiomatic enumeration* are validated
against:

* every outcome observed on the simulator must be operationally
  reachable (soundness of the whole machine);
* an execution whose outcome is operationally unreachable must be
  rejected by the axiomatic checker (checker completeness on these
  shapes).

Programs are tiny: threads are lists of :class:`TOp` — ``ld``, ``st``,
``rmw`` and ``mf`` on named locations.

**Slot layout.**  :class:`_Slots` numbers a program's locations and
registers once, in first-use order, and compiles each op to a
``(kind, location slot, register slot, value)`` tuple.  Memory and the
register file are then fixed-length tuples indexed by slot (every
location starts at 0), so a step is one tuple splice.  The RMO
machine's per-thread set of executed ops is an int bitmask.  Slots map
back to ``t{tid}:{reg}`` and location names only for final states:
every register is loaded and every stored location written by the time
a machine stops, so the final valuation names exactly the registers of
the program's loads and the locations of its stores.

**Reduction (TSO only).**  When some thread's next op is a store (an
append to its own buffer) or an ``mf`` on an empty own buffer, the
machine expands only that step.  Both steps read and write nothing
another thread can see, stay enabled until taken, and commute with
every other enabled step: other threads touch neither this thread's pc
nor its buffer, and a drain of the own buffer removes the oldest entry
while the append adds the youngest (an ``mf`` waits for an empty
buffer, which no step other than its own can fill).  That singleton is
therefore a persistent set, and since the state graph is acyclic
(every step advances a pc or shrinks a buffer) exploring persistent
sets reaches every final state.  On the 344-test corpus the TSO
machine visits 123,016 states instead of 273,033.  A load that would
forward from its own buffer is *not* a candidate: a drain of that
buffer can disable the forwarding, so the load depends on its own
thread's drains.  In ``t0: st x=1; ld x→r | t1: st x=2`` the schedule
"drain t0, drain t1, load" reads ``r=2``, which forwarding eagerly
would lose.  Loads and RMWs read memory another thread writes, so
they are never reduced either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Sequence, Set, Tuple


@dataclass(frozen=True)
class TOp:
    """One abstract operation: ('ld', loc, reg) / ('st', loc, value) /
    ('rmw', loc, reg, value) — the rmw loads into reg then stores value —
    or ('mf',): an MFENCE, which blocks until the own buffer drains."""

    kind: str  # "ld" | "st" | "rmw" | "mf"
    loc: str = ""
    reg: str = ""
    value: int = 0


def ld(loc: str, reg: str) -> TOp:
    return TOp("ld", loc, reg=reg)


def st(loc: str, value: int) -> TOp:
    return TOp("st", loc, value=value)


def rmw(loc: str, reg: str, value: int) -> TOp:
    return TOp("rmw", loc, reg=reg, value=value)


def mf() -> TOp:
    return TOp("mf")


FinalState = Tuple[FrozenSet[Tuple[str, int]], FrozenSet[Tuple[str, int]]]

#: One compiled op: (kind, location slot, register slot, value).
SlotOp = Tuple[str, int, int, int]
#: Past a thread's last op: no step.
_END: SlotOp = ("end", 0, 0, 0)
#: Every machine's state ends with (memory, registers), both by slot.
MachineState = Tuple


class _Slots:
    """Slot numbers for one program's locations and registers."""

    def __init__(self, threads: Sequence[Sequence[TOp]]) -> None:
        locations: Dict[str, int] = {}
        registers: Dict[str, int] = {}
        self.code: List[Tuple[SlotOp, ...]] = []
        for tid, thread in enumerate(threads):
            ops: List[SlotOp] = []
            for op in thread:
                if op.kind not in ("ld", "st", "rmw", "mf"):
                    raise ValueError(f"unknown op kind {op.kind!r}")
                loc = (0 if op.kind == "mf"
                       else locations.setdefault(op.loc, len(locations)))
                reg = (registers.setdefault(f"t{tid}:{op.reg}",
                                            len(registers))
                       if op.kind in ("ld", "rmw") else 0)
                ops.append((op.kind, loc, reg, op.value))
            self.code.append(tuple(ops))
        names = list(locations)
        self.register_names = list(registers)
        self.stored = sorted({(loc, names[loc]) for thread in self.code
                              for kind, loc, __, __ in thread
                              if kind in ("st", "rmw")})
        self.memory = (0,) * len(names)
        self.registers = (0,) * len(registers)

    def final(self, memory: Tuple[int, ...],
              registers: Tuple[int, ...]) -> FinalState:
        return (frozenset(zip(self.register_names, registers)),
                frozenset((name, memory[loc]) for loc, name in self.stored))


def enumerate_outcomes(threads: Sequence[Sequence[TOp]],
                       *, model: str = "tso", max_states: int = 200_000
                       ) -> Set[FrozenSet[Tuple[str, int]]]:
    """All reachable final register valuations under *model*."""
    return {registers for registers, __ in
            enumerate_final_states(threads, model=model,
                                   max_states=max_states)}


def enumerate_final_states(threads: Sequence[Sequence[TOp]],
                           *, model: str = "tso",
                           max_states: int = 200_000) -> Set[FinalState]:
    """All reachable final (registers, memory) pairs under *model*."""
    if model not in _MACHINES:
        raise ValueError(f"no operational machine for model {model!r}")
    slots = _Slots(threads)
    initial, successors = _MACHINES[model](slots)
    return {slots.final(memory, registers) for memory, registers in
            _explore(initial, successors, max_states)}


def _explore(initial: MachineState,
             successors: Callable[[MachineState], List[MachineState]],
             max_states: int) -> Set[Tuple[Tuple[int, ...], ...]]:
    """Depth-first search; the (memory, registers) of every final state."""
    finals: Set[Tuple[Tuple[int, ...], ...]] = set()
    seen: Set[MachineState] = set()
    stack: List[MachineState] = [initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if len(seen) > max_states:
            raise RuntimeError("state space too large; shrink the program")
        following = successors(state)
        if following:
            stack.extend(following)
        else:
            finals.add(state[-2:])
    return finals


def _tso_machine(slots: _Slots):
    """State: (pcs, store buffers of (slot, value), memory, registers)."""
    code = [thread + (_END,) for thread in slots.code]
    threads = range(len(code))

    def successors(state: MachineState) -> List[MachineState]:
        pcs, buffers, memory, registers = state
        for tid in threads:  # the persistent singleton, if any
            pc = pcs[tid]
            kind, loc, __, value = code[tid][pc]
            if kind == "st":
                return [(pcs[:tid] + (pc + 1,) + pcs[tid + 1:],
                         buffers[:tid] + (buffers[tid] + ((loc, value),),)
                         + buffers[tid + 1:],
                         memory, registers)]
            if kind == "mf" and not buffers[tid]:
                return [(pcs[:tid] + (pc + 1,) + pcs[tid + 1:],
                         buffers, memory, registers)]
        following: List[MachineState] = []
        for tid in threads:
            buffer = buffers[tid]
            if buffer:  # (b) drain the oldest entry to memory
                loc, value = buffer[0]
                following.append(
                    (pcs, buffers[:tid] + (buffer[1:],) + buffers[tid + 1:],
                     memory[:loc] + (value,) + memory[loc + 1:], registers))
            # (a) execute: a store or a ready mf was taken above, and an
            # mf or RMW waits for the own buffer to drain.
            pc = pcs[tid]
            kind, loc, reg, value = code[tid][pc]
            if kind == "ld":
                observed = memory[loc]
                for entry_loc, entry_value in reversed(buffer):
                    if entry_loc == loc:
                        observed = entry_value
                        break
                following.append(
                    (pcs[:tid] + (pc + 1,) + pcs[tid + 1:], buffers, memory,
                     registers[:reg] + (observed,) + registers[reg + 1:]))
            elif kind == "rmw" and not buffer:
                following.append(
                    (pcs[:tid] + (pc + 1,) + pcs[tid + 1:], buffers,
                     memory[:loc] + (value,) + memory[loc + 1:],
                     registers[:reg] + (memory[loc],) + registers[reg + 1:]))
        return following

    return ((0,) * len(code), ((),) * len(code), slots.memory,
            slots.registers), successors


def _sc_machine(slots: _Slots):
    """SC: the TSO machine minus the store buffer (stores hit memory at
    execute, MFENCE is a no-op, RMW needs no drain).
    State: (pcs, memory, registers)."""
    code = [thread + (_END,) for thread in slots.code]
    threads = range(len(code))

    def successors(state: MachineState) -> List[MachineState]:
        pcs, memory, registers = state
        following: List[MachineState] = []
        for tid in threads:
            pc = pcs[tid]
            kind, loc, reg, value = code[tid][pc]
            if kind == "end":
                continue
            new_pcs = pcs[:tid] + (pc + 1,) + pcs[tid + 1:]
            new_memory, new_registers = memory, registers
            if kind in ("ld", "rmw"):
                new_registers = (registers[:reg] + (memory[loc],)
                                 + registers[reg + 1:])
            if kind in ("st", "rmw"):
                new_memory = memory[:loc] + (value,) + memory[loc + 1:]
            following.append((new_pcs, new_memory, new_registers))
        return following

    return ((0,) * len(code), slots.memory, slots.registers), successors


def _rmo_machine(slots: _Slots):
    """RMO: any op whose blockers have fired may fire.
    State: (per-thread bitmask of executed ops, memory, registers)."""
    # Per op: (kind, loc, reg, value, own bit, blocker mask, forwarding
    # store's bit, forwarding store's value).
    code = [tuple(op + (1 << j,) + _rmo_wait(thread, j)
                  for j, op in enumerate(thread))
            for thread in slots.code]
    threads = range(len(code))

    def successors(state: MachineState) -> List[MachineState]:
        done, memory, registers = state
        following: List[MachineState] = []
        for tid in threads:
            executed = done[tid]
            for kind, loc, reg, value, bit, waits, fwd_bit, fwd_value \
                    in code[tid]:
                if executed & bit or executed & waits != waits:
                    continue
                new_done = done[:tid] + (executed | bit,) + done[tid + 1:]
                new_memory, new_registers = memory, registers
                if kind in ("ld", "rmw"):
                    # A load hoisted above its youngest po-earlier
                    # same-location store forwards that store's value.
                    observed = (fwd_value if fwd_bit and not executed & fwd_bit
                                else memory[loc])
                    new_registers = (registers[:reg] + (observed,)
                                     + registers[reg + 1:])
                if kind in ("st", "rmw"):
                    new_memory = memory[:loc] + (value,) + memory[loc + 1:]
                following.append((new_done, new_memory, new_registers))
        return following

    return ((0,) * len(code), slots.memory, slots.registers), successors


def _rmo_wait(thread: Sequence[SlotOp], j: int) -> Tuple[int, int, int]:
    """Op *j*'s blocker mask, and the bit and value of the store it
    forwards from while that store has not fired (bit 0 if none).

    An op waits for fences (and a fence for everything), and for
    same-location predecessors — except a load above a same-location
    store, which may hoist (it forwards the store's value instead).
    Atomics are full fences.
    """
    kind, loc = thread[j][:2]
    waits = fwd_bit = fwd_value = 0
    for i in range(j - 1, -1, -1):
        prev_kind, prev_loc, __, prev_value = thread[i]
        if "mf" in (prev_kind, kind) or "rmw" in (prev_kind, kind):
            waits |= 1 << i
        elif prev_loc == loc:
            if prev_kind == "st" and kind == "ld":
                if not fwd_bit:
                    fwd_bit, fwd_value = 1 << i, prev_value
                continue
            waits |= 1 << i
    return waits, fwd_bit, fwd_value


_MACHINES = {"tso": _tso_machine, "sc": _sc_machine, "rmo": _rmo_machine}


def outcome_reachable(threads: Sequence[Sequence[TOp]],
                      expected: Dict[str, int]) -> bool:
    """Is a final valuation with (at least) *expected* register values
    reachable?  Keys are ``"t{tid}:{reg}"``."""
    wanted = set(expected.items())
    for outcome in enumerate_outcomes(threads):
        if wanted <= set(outcome):
            return True
    return False
