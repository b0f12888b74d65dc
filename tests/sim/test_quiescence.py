"""Per-core sleep: a core whose tick changed nothing is not ticked again
until something can change its state, the run loop jumps over cycles in
which every core sleeps, and the result must be exactly the per-cycle
one.

The per-cycle reference comes from wrapping both cores' ``tick`` so
every tick reports progress: no core ever sleeps and the run loop
visits every cycle.  Each case runs with the telemetry sampler
attached, so samples must land on the same cycles, and once more with
a digest of the bus's event stream, so every sleeping core's stall
events must be replayed in order.
"""

import contextlib
import dataclasses
import hashlib

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.common.params import table6_system
from repro.common.types import CommitMode
from repro.conform.runner import default_mode_for
from repro.core.inorder_core import InOrderCore
from repro.core.ooo_core import OoOCore
from repro.perf.corpus import fuzz_cases, litmus_cases
from repro.sim.system import MulticoreSystem
from repro.workloads import ALL_WORKLOADS
from repro.workloads.trace import AddressSpace, TraceBuilder

from ..integration.test_deadlock_scenarios import mshr_deadlock_program

#: (backend, core type) pairs checked against the per-cycle reference.
CONFIGS = (("baseline", "ooo"), ("tardis", "ooo"), ("rcp", "ooo"),
           ("baseline", "inorder"), ("baseline", "inorder-ecl"))

#: A short sampling period puts many sample boundaries inside idle
#: stretches, so the sampler's wake bound is exercised too.
SAMPLE_PERIOD = 7

#: 16-tile (backend, generator) pairs at the smallest scale: the
#: paper's machine size, where most cores sleep while others move.
SPLASH_CASES = (("baseline", "radix"), ("tardis", "barnes"),
                ("rcp", "ocean_ncp"))


@contextlib.contextmanager
def ticking_every_cycle():
    """Make every tick report progress, so no cycle is skipped."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in (OoOCore, InOrderCore):
            def tick(self, _tick=cls.tick):
                _tick(self)
                return True

            patch.setattr(cls, "tick", tick)
        yield


def _params_for(params, backend: str, core_type: str):
    mode = params.commit_mode
    if mode is CommitMode.OOO_WB and backend != "baseline":
        mode = default_mode_for(backend)
    return dataclasses.replace(
        params, backend=backend, commit_mode=mode, core_type=core_type,
        writers_block=(core_type == "inorder-ecl"
                       or mode is CommitMode.OOO_WB))


def _run(params, traces, *, observe: bool):
    system = MulticoreSystem(params)
    system.sample_metrics(SAMPLE_PERIOD)
    stream = _StreamDigest(system.bus) if observe else None
    system.load_program(traces)
    result = system.run()
    assert result.telemetry is not None
    return result.to_json(), stream.hexdigest() if stream else None


class _StreamDigest:
    """Bus subscriber hashing the event stream as it is emitted, so long
    runs need not keep it.  Instruction uids are numbered from 0 per run
    (they come from one process-wide counter); MSHR uids are per system.
    """

    def __init__(self, bus) -> None:
        self._uids = {}
        self._hash = hashlib.sha256()
        bus.subscribe(self._add)

    def _add(self, event) -> None:
        args = dict(event.args)
        if "uid" in args and not event.kind.startswith("mshr."):
            args["uid"] = self._uids.setdefault(args["uid"], len(self._uids))
        record = (event.cycle, event.kind, event.tile, sorted(args.items()))
        self._hash.update(repr(record).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@pytest.mark.parametrize("observe", (False, True),
                         ids=("unobserved", "observed"))
@pytest.mark.parametrize("backend,core_type", CONFIGS,
                         ids=[f"{b}-{c}" for b, c in CONFIGS])
def test_skipping_matches_the_per_cycle_reference(backend, core_type,
                                                  observe):
    cases = [(case.name, _params_for(case.params, backend, core_type),
              case.trace_lists())
             for case in litmus_cases() + fuzz_cases()]
    skipped = [_run(params, traces, observe=observe)
               for __, params, traces in cases]
    with ticking_every_cycle():
        reference = [_run(params, traces, observe=observe)
                     for __, params, traces in cases]
    mismatched = [name for (name, __, __), got, want
                  in zip(cases, skipped, reference) if got != want]
    assert not mismatched, f"results diverge on {mismatched}"


def _splash16(backend: str, name: str):
    params = table6_system("SLM", num_cores=16, backend=backend,
                           commit_mode=default_mode_for(backend))
    return params, ALL_WORKLOADS[name](num_threads=16, scale=0.02,
                                       seed=1).traces


@pytest.mark.parametrize("backend,name", SPLASH_CASES,
                         ids=[f"{b}-{n}" for b, n in SPLASH_CASES])
def test_16_tiles_match_the_per_cycle_reference(backend, name):
    """Observing never changes a result, so one observed per-cycle run
    is the reference for both the unobserved and the observed run."""
    params, traces = _splash16(backend, name)
    unobserved = _run(params, traces, observe=False)
    observed = _run(params, traces, observe=True)
    with ticking_every_cycle():
        reference = _run(params, traces, observe=True)
    assert unobserved[0] == reference[0]
    assert observed == reference


def test_16_tiles_tick_stalled_cores_rarely(monkeypatch):
    """A stalled core sleeps instead of ticking on while others move:
    ticking every running core each cycle idles about four times as
    often as it moves here."""
    counts = {True: 0, False: 0}
    tick = OoOCore.tick

    def counting_tick(self):
        moved = tick(self)
        counts[moved] += 1
        return moved

    monkeypatch.setattr(OoOCore, "tick", counting_tick)
    params, traces = _splash16("tardis", "barnes")
    system = MulticoreSystem(params)
    system.load_program(traces)
    result = system.run()
    active = sum(result.counter(f"core{core.core_id}.active_cycles")
                 for core in system.cores)
    assert counts[False] * 4 < counts[True]
    assert (counts[True] + counts[False]) * 4 < active


def _stuck_program():
    """Two cores wedged for good (the Figure 5.B MSHR deadlock, with the
    SoS bypass off below) and a third that stores and computes a while
    before finishing, so some cores sleep while another moves."""
    spinner = TraceBuilder()
    for __ in range(40):
        spinner.store(1 << 20, 1)
        spinner.compute(latency=9)
    return mshr_deadlock_program() + [spinner.build()]


def _stuck_run(**limits):
    params = dataclasses.replace(
        table6_system("SLM", num_cores=4, commit_mode=CommitMode.OOO_WB),
        disable_sos_bypass=True, **limits)
    system = MulticoreSystem(params)
    system.load_program(_stuck_program())
    with pytest.raises(SimulationError) as info:
        system.run()
    return type(info.value), str(info.value), system.stats.as_dict()


@pytest.mark.parametrize("limits", (
    {"watchdog_cycles": 2_000},
    {"watchdog_cycles": 100_000, "max_cycles": 1_500},
), ids=("deadlock", "cycle-cap"))
def test_stall_counters_are_settled_before_the_run_raises(limits):
    """Sleeping cores' idle ticks are charged before DeadlockError or
    the cycle-cap error leaves the run loop."""
    got = _stuck_run(**limits)
    with ticking_every_cycle():
        want = _stuck_run(**limits)
    assert got == want
    assert got[0] is (DeadlockError if "max_cycles" not in limits
                      else SimulationError)


@pytest.mark.parametrize("observe", (False, True),
                         ids=("unobserved", "observed"))
def test_idle_cycles_are_skipped(monkeypatch, observe):
    calls = []
    tick = OoOCore.tick

    def counting_tick(self):
        calls.append(self.core_id)
        return tick(self)

    monkeypatch.setattr(OoOCore, "tick", counting_tick)
    case = next(c for c in litmus_cases()
                if c.name == "litmus/message-passing")
    system = MulticoreSystem(case.params)
    if observe:
        system.bus.subscribe(lambda event: None)
    system.load_program(case.trace_lists())
    result = system.run()
    # Ticked or skipped, every cycle a core runs counts as active.
    active = sum(result.counter(f"core{core.core_id}.active_cycles")
                 for core in system.cores)
    assert len(calls) * 2 < active


def test_polled_write_is_chained_once_behind_a_read():
    """A store draining behind a same-line read miss polls for write
    permission every cycle; the read's MSHR chains that request once."""
    params = table6_system("SLM", num_cores=4)
    space = AddressSpace(params.cache.line_bytes)
    x = space.new_var("x")
    t0 = TraceBuilder()
    t0.gate(t0.reg(), srcs=(), latency=400)  # holds the store's commit
    t0.store(x, 1)  # executes at once: its prefetch takes the line in M
    offset = t0.reg()
    t0.gate(offset, srcs=(), latency=400, imm=0)
    t0.load(t0.reg(), x + 8, addr_reg=offset)  # misses after core 1 stole x
    t1 = TraceBuilder()
    t1.compute(latency=200)
    t1.store(x + 16, 5)
    system = MulticoreSystem(params)
    system.load_program([t0.build(), t1.build()])
    chained = []

    def probe(cycle):
        for cache in system.caches:
            for mshr in cache.mshrs.entries():
                chained.append(len(mshr.deferred_writes))

    system.probe = probe
    system.run()
    assert max(chained) == 1
