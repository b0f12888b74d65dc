"""Paper Figure 5: the two deadlock scenarios and their safe passages.

Scenario B (MSHR deadlock): core k's SoS load resolves into the same
cache line as one of its own writes that is blocked in WritersBlock; if
the load stays piggybacked on that write's MSHR the system deadlocks.
The §3.5.2 rule (launch an uncacheable read on a fresh MSHR) breaks the
cycle.  We run the identical program with the rule enabled and disabled
(ablation flag): enabled completes, disabled trips the watchdog.

Scenario A (directory deadlock) cannot arise by construction in this
implementation — reads never wait on an evicting WritersBlock entry,
they fall back to uncacheable service (see
tests/coherence/test_directory_eviction.py) — so here we only check the
combined end-to-end behaviour under tiny LLCs.
"""

import dataclasses

import pytest

from repro.common.errors import DeadlockError
from repro.common.params import CacheParams, table6_system
from repro.common.types import CommitMode
from repro.sim.system import MulticoreSystem
from repro.workloads.trace import AddressSpace, TraceBuilder


def mshr_deadlock_program():
    """Builds the Figure 5.B shape.

    Core 0: warms line ``a``, then
      - an SoS load whose address resolves late to ``a2`` (same line a),
      - a younger load of ``a1`` that hits and goes into lockdown,
      - a store to ``a3`` (same line) that prefetches write permission.
    Core 1: stores to ``a1`` after a delay — its invalidation hits core
    0's lockdown, entering WritersBlock; core 0's own prefetched write
    queues behind it.  Core 0's SoS load then piggybacks on that blocked
    write: without the bypass rule nothing can ever perform.
    """
    space = AddressSpace()
    a1 = space.new_var("a")  # line base
    a2 = a1 + 8
    a3 = a1 + 16
    t0 = TraceBuilder()
    warm = t0.reg()
    t0.load(warm, a1)  # bring line a into the cache
    gate = t0.reg()
    t0.gate(gate, srcs=(warm,), latency=250)  # slow address for the SoS
    sos = t0.reg()
    t0.load(sos, a2, addr_reg=gate)  # resolves to a2 late
    spec = t0.reg()
    t0.load(spec, a1)  # hits early: M-speculative, lockdown on line a
    slow_val = t0.reg()
    t0.gate(slow_val, srcs=(warm,), latency=150, imm=7)
    # The store executes (and prefetches write permission) only after
    # core 1's write has already been Nacked into WritersBlock, so the
    # prefetch queues behind it — the Figure 5.B ordering.
    t0.store(a3, value_reg=slow_val)

    t1 = TraceBuilder()
    t1.compute(latency=60)
    t1.store(a1, 1)  # invalidation hits core 0's lockdown
    return [t0.build(), t1.build()]


def run(traces, *, disable_bypass, watchdog=30_000):
    params = table6_system("SLM", num_cores=4, commit_mode=CommitMode.OOO_WB)
    params = dataclasses.replace(params, disable_sos_bypass=disable_bypass,
                                 watchdog_cycles=watchdog)
    system = MulticoreSystem(params)
    system.load_program(traces)
    return system, system.run()


def test_sos_bypass_prevents_mshr_deadlock():
    system, result = run(mshr_deadlock_program(), disable_bypass=False)
    # The SoS load bypassed the blocked write with an uncacheable read.
    assert result.counter("dir.uncacheable_reads") >= 1
    assert result.counter("dir.writersblock_entered") >= 1
    assert result.counter("core.consistency_squashes") == 0


def test_without_sos_bypass_the_system_deadlocks():
    with pytest.raises(DeadlockError) as exc:
        run(mshr_deadlock_program(), disable_bypass=True)
    # The diagnostic names the stuck core.
    assert "core0" in str(exc.value)
    # Pinned: skipping the idle cycles must not move the watchdog.
    assert exc.value.cycle == 30_450
    assert exc.value.snapshot == (
        "core0: pc=6/6 rob=2 head=<load#2@2 I> lq=1 sq=1 sb=0 iq=0 ldt=1\n"
        "core1: pc=2/2 rob=0 head=None lq=0 sq=0 sb=1 iq=0 ldt=0\n"
        "dir0: busy=['<Dir L0x40 WB owner=0 sharers=[] q=1 def=1>'] "
        "evicting=[]\n"
        "dir1: busy=[] evicting=[]\n"
        "dir2: busy=[] evicting=[]\n"
        "dir3: busy=[] evicting=[]")


def test_sos_value_respects_tso_in_the_deadlock_shape():
    """The bypassed SoS load must read the OLD value of a2 (the blocked
    writer cannot have performed yet)."""
    system, result = run(mshr_deadlock_program(), disable_bypass=False)
    events = [e for e in result.log.events if e.core == 0 and e.kind == "ld"]
    # All of core 0's loads on line a read pre-write data (version 0),
    # except none can see core 1's store before the lockdown lifted.
    sos_event = next(e for e in events if e.addr % 64 == 8)
    assert sos_event.version_read == 0


def test_tiny_llc_full_system_has_no_deadlock():
    """End-to-end safety with constant directory evictions."""
    cache = CacheParams(llc_sets_per_bank=1, llc_ways=2, dir_eviction_buffer=2)
    params = table6_system("SLM", num_cores=4, commit_mode=CommitMode.OOO_WB)
    params = dataclasses.replace(params, cache=cache, watchdog_cycles=100_000)
    space = AddressSpace()
    arrays = space.new_array("data", 24)
    traces = []
    for tid in range(4):
        t = TraceBuilder()
        for i in range(40):
            addr = arrays[(tid * 7 + i * 3) % len(arrays)]
            if i % 3 == 0:
                t.store(addr, i)
            else:
                t.load(t.reg(), addr)
            t.compute(latency=2)
        traces.append(t.build())
    system = MulticoreSystem(params)
    system.load_program(traces)
    result = system.run()  # must terminate
    assert result.committed > 0
