"""Axiomatic TSO checker: hand-built executions, legal and illegal."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TSOViolationError
from repro.consistency.execution import ExecutionLog
from repro.consistency.tso_checker import check_tso


def fresh_log():
    return ExecutionLog()


def add_store(log, core, seq, addr, value=1):
    version = log.new_version(core, seq, addr, value)
    log.store_performed(version)
    log.record_store(core, seq, addr, version, cycle=0)
    return version


def test_empty_execution_passes():
    check_tso(fresh_log())


def test_simple_message_passing_passes():
    log = fresh_log()
    vd = add_store(log, core=1, seq=0, addr=0x10)  # data
    vf = add_store(log, core=1, seq=1, addr=0x20)  # flag
    log.record_load(0, 0, 0x20, vf, cycle=1)  # saw flag
    log.record_load(0, 1, 0x10, vd, cycle=2)  # saw data
    check_tso(log)


def test_message_passing_violation_detected():
    # Reader sees the flag but stale data: forbidden (fr ; rfe cycle).
    log = fresh_log()
    vd = add_store(log, core=1, seq=0, addr=0x10)
    vf = add_store(log, core=1, seq=1, addr=0x20)
    log.record_load(0, 0, 0x20, vf, cycle=1)
    log.record_load(0, 1, 0x10, 0, cycle=2)  # initial value: stale!
    with pytest.raises(TSOViolationError):
        check_tso(log)


def test_store_buffering_outcome_is_legal():
    # SB litmus: both loads reading 0 is allowed in TSO (W->R relaxed).
    log = fresh_log()
    add_store(log, core=0, seq=0, addr=0x10)
    log.record_load(0, 1, 0x20, 0, cycle=1)
    add_store(log, core=1, seq=0, addr=0x20)
    log.record_load(1, 1, 0x10, 0, cycle=1)
    check_tso(log)


def test_load_load_reordering_violation():
    # The paper's Table 1 illegal outcome: ld y new, ld x old.
    log = fresh_log()
    vx = add_store(log, core=1, seq=0, addr=0x10)
    vy = add_store(log, core=1, seq=1, addr=0x20)
    log.record_load(0, 0, 0x20, vy, cycle=1)  # ld y -> new
    log.record_load(0, 1, 0x10, 0, cycle=2)  # ld x -> old: forbidden
    with pytest.raises(TSOViolationError):
        check_tso(log)


def test_iriw_violation_detected():
    log = fresh_log()
    vx = add_store(log, core=0, seq=0, addr=0x10)
    vy = add_store(log, core=1, seq=0, addr=0x20)
    log.record_load(2, 0, 0x10, vx, cycle=1)
    log.record_load(2, 1, 0x20, 0, cycle=2)
    log.record_load(3, 0, 0x20, vy, cycle=1)
    log.record_load(3, 1, 0x10, 0, cycle=2)
    with pytest.raises(TSOViolationError):
        check_tso(log)


def test_coherence_read_read_violation():
    # Same location: reads must not observe co backwards.
    log = fresh_log()
    v1 = add_store(log, core=1, seq=0, addr=0x10)
    log.record_load(0, 0, 0x10, v1, cycle=1)
    log.record_load(0, 1, 0x10, 0, cycle=2)  # older value after newer
    with pytest.raises(TSOViolationError) as info:
        check_tso(log)
    assert str(info.value) == (
        "coherence (SC-per-location) violated at 0x10: "
        "[st c1#0 a=0x10 r=None w=1] -> [ld c0#0 a=0x10 r=1 w=None] -> "
        "[ld c0#1 a=0x10 r=0 w=None]")


def test_coherence_violation_names_the_lowest_address():
    # Two addresses break coherence; the report names the lower one and
    # the edges of other addresses never leak into its witness cycle.
    log = fresh_log()
    v1 = add_store(log, core=1, seq=0, addr=0x20)
    v2 = add_store(log, core=2, seq=0, addr=0x10)
    log.record_load(0, 0, 0x20, v1, cycle=1)
    log.record_load(0, 1, 0x10, v2, cycle=1)
    log.record_load(0, 2, 0x20, 0, cycle=2)
    log.record_load(3, 0, 0x10, v2, cycle=1)
    log.record_load(3, 1, 0x10, 0, cycle=2)
    with pytest.raises(TSOViolationError) as info:
        check_tso(log)
    assert str(info.value) == (
        "coherence (SC-per-location) violated at 0x10: "
        "[st c2#0 a=0x10 r=None w=2] -> [ld c3#0 a=0x10 r=2 w=None] -> "
        "[ld c3#1 a=0x10 r=0 w=None]")


def test_forwarded_read_own_store_early_is_legal():
    # rfi: a load may read its own core's store before it performs.
    log = fresh_log()
    # Core 0: st x; ld x (forwarded); ld y (old). Core 1: st y; ld x old.
    vx = log.new_version(0, 0, 0x10, 1)
    log.record_store(0, 0, 0x10, vx, cycle=5)
    log.store_performed(vx)
    log.record_load(0, 1, 0x10, vx, cycle=1, forwarded=True)
    log.record_load(0, 2, 0x20, 0, cycle=2)
    vy = add_store(log, core=1, seq=0, addr=0x20)
    log.record_load(1, 1, 0x10, 0, cycle=2)
    check_tso(log)


def test_atomicity_violation_detected():
    # Two RMWs reading the same old version.
    log = fresh_log()
    v1 = log.new_version(0, 0, 0x10, 1)
    log.store_performed(v1)
    log.record_atomic(0, 0, 0x10, 0, v1, cycle=1)
    v2 = log.new_version(1, 0, 0x10, 2)
    log.store_performed(v2)
    log.record_atomic(1, 0, 0x10, 0, v2, cycle=2)  # also read 0: broken
    with pytest.raises(TSOViolationError):
        check_tso(log)


def test_atomics_act_as_fences():
    # W -> RMW -> R is ordered: SB-style outcome through atomics is
    # forbidden.
    log = fresh_log()
    # Core 0: st x=1 ; rmw z ; ld y == 0
    vx = add_store(log, core=0, seq=0, addr=0x10)
    a0 = log.new_version(0, 1, 0x30, 1)
    log.store_performed(a0)
    log.record_atomic(0, 1, 0x30, 0, a0, cycle=1)
    log.record_load(0, 2, 0x20, 0, cycle=2)
    # Core 1: st y=1 ; rmw w ; ld x == 0
    vy = add_store(log, core=1, seq=0, addr=0x20)
    a1 = log.new_version(1, 1, 0x40, 1)
    log.store_performed(a1)
    log.record_atomic(1, 1, 0x40, 0, a1, cycle=1)
    log.record_load(1, 2, 0x10, 0, cycle=2)
    with pytest.raises(TSOViolationError):
        check_tso(log)


def test_sc_executions_always_pass_checker():
    """Property: any sequentially consistent interleaving is TSO-legal."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2),  # core
                  st.sampled_from(["ld", "st"]),
                  st.integers(0, 3)),  # address index
        min_size=1, max_size=24))
    def run(ops):
        log = fresh_log()
        seqs = {0: 0, 1: 0, 2: 0}
        current = {}  # addr -> latest version (SC memory)
        for core, kind, addr_idx in ops:
            addr = 0x100 + addr_idx * 0x40
            seq = seqs[core]
            seqs[core] += 1
            if kind == "st":
                current[addr] = add_store(log, core, seq, addr)
            else:
                log.record_load(core, seq, addr, current.get(addr, 0),
                                cycle=seq)
        check_tso(log)

    run()
