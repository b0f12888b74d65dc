"""Trace instructions (static) and their dynamic instances.

Workloads are per-core linear traces of :class:`Instruction`.  The core
model executes them as a small register machine: ALU ops compute real
values, branches compare real register contents (so spin loops on shared
flags behave dynamically), and memory operations move versioned values
through the coherence protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..common.errors import ConfigError
from ..common.types import InstrType

#: ALU operations understood by the execute stage.
#: "compute" passes src0's value through (latency carrier); "gate"
#: depends on its sources but always produces ``imm`` (used to make one
#: memory access's *timing* depend on another without perturbing its
#: address).
ALU_OPS = ("mov", "addi", "xori", "compute", "gate")
#: Atomic read-modify-write flavours.
ATOMIC_OPS = ("tas", "faa")
#: Branch conditions.
BRANCH_OPS = ("beqz", "bnez")


@dataclass(frozen=True, slots=True)
class Instruction:
    """One static trace entry.

    ``addr``/``addr_reg``: memory ops address = ``addr`` plus the value of
    ``addr_reg`` (if given); an ``addr_reg`` whose producer is slow gives
    the paper's *unresolved address* case.
    ``op`` selects the ALU/atomic/branch flavour; ``imm`` is its literal.
    ``target`` is the trace index a branch jumps to when taken;
    ``predict_taken`` is the static prediction.
    """

    itype: InstrType
    dst: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    op: str = ""
    imm: int = 0
    addr: Optional[int] = None
    addr_reg: Optional[int] = None
    value_reg: Optional[int] = None  # stores: register holding the value
    latency: int = 1
    target: Optional[int] = None
    predict_taken: bool = False

    def __post_init__(self) -> None:
        if self.latency < 1:
            # The event would land in the cycle the run loop already
            # drained, and the clock could never move past it.
            raise ConfigError(f"latency must be >= 1, got {self.latency}")
        if self.itype is InstrType.ALU and self.op not in ALU_OPS:
            raise ConfigError(f"unknown ALU op {self.op!r}")
        if self.itype is InstrType.ATOMIC and self.op not in ATOMIC_OPS:
            raise ConfigError(f"unknown atomic op {self.op!r}")
        if self.itype is InstrType.BRANCH:
            if self.op not in BRANCH_OPS:
                raise ConfigError(f"unknown branch op {self.op!r}")
            if self.target is None:
                raise ConfigError("branch needs a target")
        if self.itype in (InstrType.LOAD, InstrType.STORE, InstrType.ATOMIC):
            if self.addr is None and self.addr_reg is None:
                raise ConfigError(f"{self.itype.value} needs an address")

    @property
    def is_mem(self) -> bool:
        return self.itype in (InstrType.LOAD, InstrType.STORE, InstrType.ATOMIC)


_dyn_uids = itertools.count(1)


@dataclass(slots=True, eq=False)
class DynInstr:
    """A dynamic instance of a trace instruction."""

    instr: Instruction
    trace_idx: int
    seq: int  # per-core dynamic program-order sequence number
    uid: int = field(default_factory=lambda: next(_dyn_uids))

    # Pipeline state
    dispatched_cycle: int = -1
    issued: bool = False
    executed: bool = False  # value computed / branch resolved
    performed: bool = False  # memory ops: data read or written globally
    committed: bool = False
    squashed: bool = False

    # Dataflow
    producers: Tuple[Optional["DynInstr"], ...] = ()
    src_values: Tuple[Optional[int], ...] = ()  # captured when no producer
    value: Optional[int] = None  # result (ALU, load, atomic old value)

    # Memory
    resolved_addr: Optional[int] = None
    version_read: Optional[int] = None  # loads: store version observed
    version_written: Optional[int] = None  # stores/atomics
    mem_inflight: bool = False
    used_tearoff: bool = False
    retry_when_ordered: bool = False
    forwarded_load: bool = False
    performed_cycle: int = -1

    # Branch
    mispredicted: bool = False

    # Source-layout positions (set at dispatch)
    addr_src_idx: Optional[int] = None
    value_src_idx: Optional[int] = None
    #: Direct links to this instruction's LQ/SQ entry (set at dispatch).
    lq_entry: Optional[object] = None
    sq_entry: Optional[object] = None
    #: SoS load launched an extra uncacheable read past a blocked write.
    bypass_launched: bool = False

    @property
    def itype(self) -> InstrType:
        return self.instr.itype

    def sources_ready(self) -> bool:
        for producer in self.producers:
            if producer is not None and not producer.executed:
                return False
        return True

    def source_value(self, index: int) -> int:
        producer = self.producers[index]
        if producer is not None:
            if not producer.executed:
                raise ConfigError("reading a source before it is ready")
            return producer.value or 0
        captured = self.src_values[index]
        return captured or 0

    def address_ready(self) -> bool:
        if not self.instr.is_mem:
            return True
        if self.instr.addr_reg is None:
            return True
        return self.resolved_addr is not None or self.sources_ready()

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("I", self.issued),
                ("X", self.executed),
                ("P", self.performed),
                ("C", self.committed),
                ("Q", self.squashed),
            )
            if on
        )
        return f"<{self.itype.value}#{self.seq}@{self.trace_idx} {flags}>"
