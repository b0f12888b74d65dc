"""Value-aware axiomatic outcome enumeration, parametric in the model.

The third leg of the differential (besides the simulator and the
operational machines): enumerate every final state a
:class:`~repro.conform.model.ConformTest` program can reach under a
:class:`~repro.consistency.models.MemoryModel`, by a construction that
is deliberately *not* another step machine:

1. **Per-thread linearizations** — for each thread, every reordering of
   its ops the model admits.  Op *j* may be emitted once every po-earlier
   op it is ordered after has been emitted; ordering comes from the
   model's ppo matrix, fences (which order everything), and the
   same-location coherence rules (same-location pairs never reorder —
   except a load hoisting above its own thread's store, which is
   annotated with a *pin*: the value it must forward).
2. **Merge** — interleave one linearization per thread over a single
   memory, reading pinned loads from their pin and plain loads from
   memory.  Variables and registers have fixed slot numbers, so memory
   and registers are slot-indexed tuples; each merge is memoized on
   (positions, memory, registers).  Fences only order a thread's ops,
   so linearizations leave them out.

Because a model with fewer preserved pairs admits a superset of
linearizations, outcome sets are monotone by construction:
``ax(sc) ⊆ ax(tso) ⊆ ax(rmo)`` — the inclusion the model-matrix tests
check programmatically.

The paper-table benches' old/new-vocabulary
:func:`repro.consistency.litmus.legal_tso_outcomes` is an adapter over
the operational x86-TSO machine, not a third enumeration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..consistency.models import MemoryModel, get_model
from .model import COp

#: One op of a linearization: ("st" | "ld", var slot, value, register
#: slot, pin).  ``pin`` is the forwarded value for a hoisted load, else
#: None.
LinOp = Tuple[str, int, int, int, Optional[int]]
Valuation = FrozenSet[Tuple[str, int]]
FinalState = Tuple[Valuation, Valuation]  # (registers, memory)
#: Memory and registers, each a tuple indexed by slot.
SlotState = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _ordered(prev: COp, op: COp, model: MemoryModel) -> bool:
    """Must *prev* stay before *op* in the thread's linearization?"""
    if prev.kind == "mf" or op.kind == "mf":
        return True
    if prev.var == op.var:
        # Same location: coherence pins every pair except st→ld, which
        # may hoist (the load then forwards — see the pin annotation).
        return not (prev.kind == "st" and op.kind == "ld")
    kinds = {"ld": ("R",), "st": ("W",)}
    return any((a, b) in model.ppo
               for a in kinds[prev.kind] for b in kinds[op.kind])


def _pin_value(thread: Sequence[COp], emitted: FrozenSet[int],
               j: int) -> Optional[int]:
    """The forwarding pin for load *j*: the youngest po-earlier
    same-location store still unemitted, if any."""
    for i in range(j - 1, -1, -1):
        prev = thread[i]
        if prev.kind == "st" and prev.var == thread[j].var:
            return prev.value if i not in emitted else None
    return None


def _linearizations(tid: int, thread: Sequence[COp], model: MemoryModel,
                    var_slots: Dict[str, int],
                    reg_slots: Dict[str, int]) -> List[Tuple[LinOp, ...]]:
    results: List[Tuple[LinOp, ...]] = []

    def extend(emitted: FrozenSet[int], prefix: Tuple[LinOp, ...]) -> None:
        if len(emitted) == len(thread):
            results.append(prefix)
            return
        for j, op in enumerate(thread):
            if j in emitted:
                continue
            if any(i not in emitted and _ordered(thread[i], op, model)
                   for i in range(j)):
                continue
            if op.kind == "mf":  # ordering only: the merge skips it
                extend(emitted | {j}, prefix)
                continue
            if op.kind == "st":
                lin: LinOp = ("st", var_slots[op.var], op.value, 0, None)
            else:
                lin = ("ld", var_slots[op.var], 0,
                       reg_slots[f"{tid}:{op.reg}"],
                       _pin_value(thread, emitted, j))
            extend(emitted | {j}, prefix + (lin,))

    extend(frozenset(), ())
    # Distinct emission orders can collapse to the same linearization
    # (mf placement); dedupe to keep the merge honest.
    return sorted(set(results))


def _merge(sequences: Sequence[Tuple[LinOp, ...]],
           initial: SlotState) -> Set[SlotState]:
    """All final (memory, registers) of interleaving the sequences."""
    outcomes: Set[SlotState] = set()
    seen: Set[Tuple] = set()
    stack = [((0,) * len(sequences),) + initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        positions, memory, registers = state
        done = True
        for tid, seq in enumerate(sequences):
            position = positions[tid]
            if position == len(seq):
                continue
            done = False
            kind, var, value, reg, pin = seq[position]
            new_positions = (positions[:tid] + (position + 1,)
                             + positions[tid + 1:])
            if kind == "st":
                stack.append((new_positions,
                              memory[:var] + (value,) + memory[var + 1:],
                              registers))
            else:
                observed = pin if pin is not None else memory[var]
                stack.append((new_positions, memory,
                              registers[:reg] + (observed,)
                              + registers[reg + 1:]))
        if done:
            outcomes.add((memory, registers))
    return outcomes


def axiomatic_final_states(threads: Sequence[Sequence[COp]],
                           model="tso") -> Set[FinalState]:
    """Every (registers, memory) final state the model admits.

    Variables and ``{tid}:{reg}`` keys get fixed slot numbers, so the
    merge works on slot-indexed tuples; every register is loaded and
    every stored variable written by the end of a merge, so the final
    valuation names exactly those.
    """
    spec = get_model(model)
    var_slots: Dict[str, int] = {}
    reg_slots: Dict[str, int] = {}
    for tid, thread in enumerate(threads):
        for op in thread:
            if op.kind != "mf":
                var_slots.setdefault(op.var, len(var_slots))
            if op.kind == "ld":
                reg_slots.setdefault(f"{tid}:{op.reg}", len(reg_slots))
    per_thread = [_linearizations(tid, thread, spec, var_slots, reg_slots)
                  for tid, thread in enumerate(threads)]
    initial: SlotState = ((0,) * len(var_slots), (0,) * len(reg_slots))
    finals: Set[SlotState] = set()
    chosen: List[Tuple[LinOp, ...]] = []

    def pick(tid: int) -> None:
        if tid == len(per_thread):
            finals.update(_merge(chosen, initial))
            return
        for sequence in per_thread[tid]:
            chosen.append(sequence)
            pick(tid + 1)
            chosen.pop()

    pick(0)
    registers = list(reg_slots)
    stored = sorted({(var_slots[op.var], op.var) for thread in threads
                     for op in thread if op.kind == "st"})
    return {(frozenset(zip(registers, regs)),
             frozenset((var, memory[slot]) for slot, var in stored))
            for memory, regs in finals}
