"""Declarative memory models over the relational execution view.

A :class:`MemoryModel` is pure configuration — a preserved-program-order
matrix plus a handful of axiom switches — and one generic engine
(:func:`check_execution`) checks any model against any recorded
execution.  Three specs ship:

``TSO``
    x86-TSO (Owens/Sarkar/Sewell; herd's ``x86tso.cat``): program order
    minus store→load, internal rf excluded from the global order (a
    core reads its own stores early via the store buffer).
``SC``
    Sequential consistency: all of program order preserved, every rf
    edge global.
``RMO``
    An RMO-ish relaxed model: *no* program order preserved except
    through fences — only coherence, atomicity and fence edges
    constrain the global order.  Like SPARC RMO it is store-atomic
    (writes hit a single memory order), and — deliberately — address
    dependencies are **not** respected: the ``dep``/``slow`` litmus
    decorations stay timing-only under every shipped model.

Axioms checked (all switchable per model):

1. **SC per location** — per address, ``po-loc ∪ rf ∪ co ∪ fr`` is
   acyclic (plain coherence; every shipped model keeps it).
2. **Atomicity** — an RMW's write is the immediate co-successor of the
   version it read.
3. **Global order** — ``ghb = ppo ∪ rf[e] ∪ co ∪ fr`` is acyclic,
   where ``ppo`` is generated from the model's kind matrix and fence
   rule (atomics are full fences: MFENCE lowers to a locked RMW).

Violations raise :class:`~repro.common.errors.MemoryModelViolationError`
(:class:`~repro.common.errors.TSOViolationError` for the TSO spec, so
existing callers keep their exception type) carrying the minimal
deterministic witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..common.errors import MemoryModelViolationError, TSOViolationError
from .execution import ExecutionLog, MemEvent
from .relations import (Edge, Relations, build_relations, describe_cycle,
                        find_cycle, is_read, is_write)

KindPair = Tuple[str, str]  # ("R"|"W", "R"|"W")

RR: KindPair = ("R", "R")
RW: KindPair = ("R", "W")
WR: KindPair = ("W", "R")
WW: KindPair = ("W", "W")


@dataclass(frozen=True)
class MemoryModel:
    """One memory model as configuration for the generic engine.

    ``ppo`` is the preserved-program-order matrix: the set of (older,
    younger) access-kind pairs kept in the global order (atomics count
    as both R and W).  For the chain-based edge generator to be
    transitively complete the matrix must be *chain-generable*:
    ``RW ⇒ RR`` and ``WR ⇒ WW`` (reads reach later writes through the
    read chain, and vice versa) — asserted at construction.
    """

    name: str
    ppo: FrozenSet[KindPair]
    #: drop internal rf (store forwarding) from the global order
    external_rf_only: bool
    sc_per_location: bool = True
    atomicity: bool = True
    #: atomics (= fences: MFENCE lowers to a locked RMW) order everything
    atomics_fence: bool = True

    def __post_init__(self) -> None:
        if RW in self.ppo and RR not in self.ppo:
            raise ValueError(f"{self.name}: ppo matrix with RW needs RR")
        if WR in self.ppo and WW not in self.ppo:
            raise ValueError(f"{self.name}: ppo matrix with WR needs WW")

    @property
    def error_cls(self):
        return TSOViolationError if self.name == "tso" \
            else MemoryModelViolationError

    def _raise(self, message: str) -> None:
        raise self.error_cls(f"{message}", model=self.name)


TSO = MemoryModel("tso", ppo=frozenset({RR, RW, WW}), external_rf_only=True)
SC = MemoryModel("sc", ppo=frozenset({RR, RW, WR, WW}),
                 external_rf_only=False)
RMO = MemoryModel("rmo", ppo=frozenset(), external_rf_only=True)

MODELS: Dict[str, MemoryModel] = {m.name: m for m in (TSO, SC, RMO)}


def get_model(model) -> MemoryModel:
    """Accept a model name or a :class:`MemoryModel` instance."""
    if isinstance(model, MemoryModel):
        return model
    try:
        return MODELS[model]
    except KeyError:
        raise ValueError(f"unknown memory model {model!r}; "
                         f"known: {sorted(MODELS)}") from None


# ------------------------------------------------------------------ engine
def check_execution(log: ExecutionLog, model="tso") -> None:
    """Raise the model's violation error if *log* violates *model*."""
    spec = get_model(model)
    if not log.events:
        return
    rel = build_relations(log)
    if spec.atomicity:
        _check_atomicity(log, spec)
    if spec.sc_per_location:
        _check_sc_per_location(rel, spec)
    _check_global_order(rel, spec)


def check_tso(log: ExecutionLog) -> None:
    """Raise :class:`TSOViolationError` if the execution violates TSO."""
    check_execution(log, TSO)


# ----------------------------------------------------------------- atomicity
def _check_atomicity(log: ExecutionLog, spec: MemoryModel) -> None:
    for event in log.events:
        if event.kind != "at":
            continue
        co = log.coherence_order.get(event.addr, [])
        try:
            write_pos = co.index(event.version_written)
        except ValueError:
            spec._raise(
                f"atomic wrote version {event.version_written} missing from "
                f"coherence order of {event.addr:#x}")
        read_pos = -1 if event.version_read == 0 else co.index(event.version_read)
        if write_pos != read_pos + 1:
            spec._raise(
                f"atomicity violated at {event.addr:#x}: read version "
                f"{event.version_read} (pos {read_pos}) but wrote "
                f"{event.version_written} (pos {write_pos})")


# --------------------------------------------------------------- per-address
def _check_sc_per_location(rel: Relations, spec: MemoryModel) -> None:
    """po-loc ∪ co ∪ rf ∪ fr must be acyclic at every address.

    Each relation is bucketed by address in one pass, keeping its order
    within an address, and each address's graph is checked on its own.
    """
    events = rel.events
    by_addr: Dict[int, List[int]] = {}
    for idx, event in enumerate(events):
        by_addr.setdefault(event.addr, []).append(idx)
    # po-loc: consecutive same-core accesses to one address.
    po_loc: Dict[int, List[Edge]] = {}
    for core in sorted(rel.po):
        prev_at: Dict[int, int] = {}
        for idx in rel.po[core]:
            addr = events[idx].addr
            prev = prev_at.get(addr)
            if prev is not None:
                po_loc.setdefault(addr, []).append((prev, idx))
            prev_at[addr] = idx
    rf_by_reader = {edge.reader: edge.writer for edge in rel.rf}
    rf: Dict[int, List[Edge]] = {}
    for idx, event in enumerate(events):
        writer = rf_by_reader.get(idx)
        if writer is not None:
            rf.setdefault(event.addr, []).append((writer, idx))
    fr: Dict[int, List[Edge]] = {}
    for src, dst in rel.fr:
        fr.setdefault(events[src].addr, []).append((src, dst))
    for addr in sorted(by_addr):
        idxs = by_addr[addr]
        local = {g: l for l, g in enumerate(idxs)}
        adjacency: Dict[int, Set[int]] = {}
        for edges in (po_loc.get(addr, ()), rel.co.get(addr, ()),
                      rf.get(addr, ()), fr.get(addr, ())):
            for src, dst in edges:
                adjacency.setdefault(local[src], set()).add(local[dst])
        cycle = find_cycle(len(idxs), adjacency)
        if cycle is not None:
            spec._raise(
                f"coherence (SC-per-location) violated at {addr:#x}: "
                + describe_cycle(events, [idxs[i] for i in cycle]))


# -------------------------------------------------------------------- global
def _ppo_edges(rel: Relations, spec: MemoryModel) -> Iterable[Edge]:
    """Generate ppo edges in O(events) per core via kind chains.

    Chains produce a subset of the full pairwise relation with the same
    transitive closure (guaranteed by the chain-generable check on the
    matrix), so acyclicity — the only question asked — is unchanged.
    """
    events = rel.events
    matrix = spec.ppo
    for core in sorted(rel.po):
        last_read = last_write = None
        last_fence = None
        since_fence: List[int] = []
        for idx in rel.po[core]:
            event = events[idx]
            targets = set()
            read_t, write_t = is_read(event), is_write(event)
            if last_read is not None and (
                    (read_t and RR in matrix) or (write_t and RW in matrix)):
                targets.add(last_read)
            if last_write is not None and (
                    (read_t and WR in matrix) or (write_t and WW in matrix)):
                targets.add(last_write)
            if last_fence is not None:
                targets.add(last_fence)
            for src in targets:
                if src != idx:
                    yield src, idx
            if spec.atomics_fence and event.kind == "at":
                for src in since_fence:
                    yield src, idx
                since_fence = []
                last_fence = idx
            else:
                since_fence.append(idx)
            if read_t:
                last_read = idx
            if write_t:
                last_write = idx


def _check_global_order(rel: Relations, spec: MemoryModel) -> None:
    events = rel.events
    adjacency: Dict[int, Set[int]] = {}

    def add(src: int, dst: int) -> None:
        adjacency.setdefault(src, set()).add(dst)

    for src, dst in _ppo_edges(rel, spec):
        add(src, dst)
    for src, dst in rel.rf_edges(external_only=spec.external_rf_only):
        add(src, dst)
    for src, dst in rel.co_edges():
        add(src, dst)
    for src, dst in rel.fr:
        add(src, dst)
    cycle = find_cycle(len(events), adjacency)
    if cycle is not None:
        spec._raise(f"{spec.name.upper()} global order violated: "
                    + describe_cycle(events, cycle))
