"""Instruction validation and dynamic-instance dataflow."""

import pytest

from repro.common.errors import ConfigError
from repro.common.types import InstrType
from repro.core.instruction import DynInstr, Instruction
from repro.workloads.trace import TraceBuilder


def test_alu_requires_known_op():
    with pytest.raises(ConfigError):
        Instruction(InstrType.ALU, op="frobnicate")
    Instruction(InstrType.ALU, op="mov")  # ok


def test_branch_requires_target_and_op():
    with pytest.raises(ConfigError):
        Instruction(InstrType.BRANCH, op="beqz")
    with pytest.raises(ConfigError):
        Instruction(InstrType.BRANCH, op="jlt", target=0)
    Instruction(InstrType.BRANCH, op="bnez", srcs=(1,), target=0)


def test_latency_below_one_is_rejected():
    """A zero-latency event would land in the cycle the run loop already
    drained; the trace builder must refuse it up front."""
    for latency in (0, -1):
        with pytest.raises(ConfigError, match="latency must be >= 1"):
            Instruction(InstrType.ALU, op="compute", latency=latency)
    with pytest.raises(ConfigError):
        TraceBuilder().compute(latency=0)
    Instruction(InstrType.ALU, op="compute", latency=1)  # ok


def test_memory_ops_require_an_address():
    with pytest.raises(ConfigError):
        Instruction(InstrType.LOAD, dst=1)
    Instruction(InstrType.LOAD, dst=1, addr=64)
    Instruction(InstrType.LOAD, dst=1, addr_reg=2)  # dynamic address


def test_atomic_ops():
    with pytest.raises(ConfigError):
        Instruction(InstrType.ATOMIC, op="swap", addr=0)
    Instruction(InstrType.ATOMIC, op="tas", addr=0)
    Instruction(InstrType.ATOMIC, op="faa", addr=0, imm=2)


def test_is_mem():
    assert Instruction(InstrType.LOAD, addr=0).is_mem
    assert Instruction(InstrType.STORE, addr=0).is_mem
    assert Instruction(InstrType.ATOMIC, op="tas", addr=0).is_mem
    assert not Instruction(InstrType.ALU, op="mov").is_mem


def make_dyn(instr, seq=0):
    return DynInstr(instr=instr, trace_idx=seq, seq=seq)


def test_sources_ready_tracks_producers():
    producer = make_dyn(Instruction(InstrType.ALU, dst=1, op="mov", imm=7))
    consumer = make_dyn(Instruction(InstrType.ALU, dst=2, srcs=(1,),
                                    op="addi", imm=1), seq=1)
    consumer.producers = (producer,)
    consumer.src_values = (None,)
    assert not consumer.sources_ready()
    producer.value = 7
    producer.executed = True
    assert consumer.sources_ready()
    assert consumer.source_value(0) == 7


def test_source_value_from_capture():
    consumer = make_dyn(Instruction(InstrType.ALU, dst=2, srcs=(1,),
                                    op="addi", imm=1))
    consumer.producers = (None,)
    consumer.src_values = (42,)
    assert consumer.sources_ready()
    assert consumer.source_value(0) == 42


def test_uids_unique():
    a = make_dyn(Instruction(InstrType.NOP))
    b = make_dyn(Instruction(InstrType.NOP))
    assert a.uid != b.uid
