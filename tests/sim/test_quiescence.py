"""Quiescence skipping: the run loop jumps over cycles in which no core
can change state, and the result must be exactly the per-cycle one.

The per-cycle reference comes from wrapping both cores' ``tick`` so
every tick reports progress: the run loop then visits every cycle.
Each case runs with the telemetry sampler attached, so samples must
land on the same cycles, and once more with an event recorder on the
bus, so every skipped cycle's stall events must be replayed in order.
"""

import contextlib
import dataclasses

import pytest

from repro.common.params import table6_system
from repro.common.types import CommitMode
from repro.conform.runner import default_mode_for
from repro.core.inorder_core import InOrderCore
from repro.core.ooo_core import OoOCore
from repro.obs.events import EventRecorder
from repro.perf.corpus import fuzz_cases, litmus_cases
from repro.sim.system import MulticoreSystem
from repro.workloads.trace import AddressSpace, TraceBuilder

#: (backend, core type) pairs checked against the per-cycle reference.
CONFIGS = (("baseline", "ooo"), ("tardis", "ooo"), ("rcp", "ooo"),
           ("baseline", "inorder"), ("baseline", "inorder-ecl"))

#: A short sampling period puts many sample boundaries inside idle
#: stretches, so the sampler's wake bound is exercised too.
SAMPLE_PERIOD = 7


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
    recorder = EventRecorder(system.bus) if observe else None
    system.load_program(traces)
    result = system.run()
    assert result.telemetry is not None
    events = _renumbered(recorder.events) if recorder is not None else None
    return result.to_json(), events


def _renumbered(events):
    """Event dicts with instruction uids numbered from 0 per run (they
    come from one process-wide counter); MSHR uids are per system."""
    uids = {}
    out = []
    for event in events:
        payload = event.to_dict()
        args = payload["args"]
        if "uid" in args and not event.kind.startswith("mshr."):
            args["uid"] = uids.setdefault(args["uid"], len(uids))
        out.append(payload)
    return out


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
