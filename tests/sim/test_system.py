"""MulticoreSystem wiring, run loop, watchdog."""

import dataclasses

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.common.params import table6_system
from repro.common.types import CommitMode
from repro.sim.system import MulticoreSystem
from repro.workloads.trace import AddressSpace, TraceBuilder


def test_idle_cores_finish_immediately():
    params = table6_system("SLM", num_cores=4)
    system = MulticoreSystem(params)
    system.load_program([])
    result = system.run()
    assert result.committed == 0


def test_too_many_traces_rejected():
    params = table6_system("SLM", num_cores=4)
    system = MulticoreSystem(params)
    with pytest.raises(SimulationError):
        system.load_program([[]] * 5)


def test_single_core_program_runs_alone():
    params = table6_system("SLM", num_cores=4)
    system = MulticoreSystem(params)
    t = TraceBuilder()
    r = t.reg()
    t.mov(r, 5)
    t.addi(r, r, 1)
    system.load_program([t.build()])
    result = system.run()
    assert result.committed == 2
    assert system.cores[0].reg_values[r] == 6
    assert all(core.done for core in system.cores)


def test_cycle_cap_enforced():
    params = dataclasses.replace(table6_system("SLM", num_cores=4),
                                 max_cycles=10)
    system = MulticoreSystem(params)
    space = AddressSpace()
    t = TraceBuilder()
    t.load(t.reg(), space.new_var("x"))  # ~200-cycle cold miss
    system.load_program([t.build()])
    with pytest.raises(SimulationError):
        system.run()


def test_watchdog_reports_stuck_core():
    # NOTE: a spin loop does NOT trip the watchdog — spinning cores
    # commit continuously.  A genuine no-commit stall needs the head
    # instruction to stay uncommittable: an ALU op whose latency
    # exceeds the watchdog window models a wedged core.
    params = dataclasses.replace(table6_system("SLM", num_cores=4),
                                 watchdog_cycles=5_000)
    system = MulticoreSystem(params)
    t = TraceBuilder()
    g = t.reg()
    t.gate(g, srcs=(), latency=10_000_000)
    system.load_program([t.build()])
    with pytest.raises(DeadlockError) as exc:
        system.run()
    assert "core0" in str(exc.value)
    # The first cycle past the watchdog window, even though the run
    # loop skips the idle cycles leading up to it.
    assert exc.value.cycle == 5_001
    assert exc.value.snapshot == (
        "core0: pc=1/1 rob=1 head=<alu#0@0 I> lq=0 sq=0 sb=0 iq=0 ldt=0\n"
        "dir0: busy=[] evicting=[]\n"
        "dir1: busy=[] evicting=[]\n"
        "dir2: busy=[] evicting=[]\n"
        "dir3: busy=[] evicting=[]")


def test_result_contains_counters_and_cycles():
    params = table6_system("SLM", num_cores=4,
                           commit_mode=CommitMode.OOO_WB)
    system = MulticoreSystem(params)
    space = AddressSpace()
    x = space.new_var("x")
    t = TraceBuilder()
    t.store(x, 3)
    t.load(t.reg(), x)
    system.load_program([t.build()])
    result = system.run()
    assert result.cycles > 0
    assert result.committed == 2
    assert result.stores_performed == 1
    assert result.loads_performed == 1
    assert "network.messages" in result.stats
