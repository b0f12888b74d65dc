"""Transition-coverage collection across the verification batteries.

One :class:`~repro.obs.coverage.CoverageObserver` rides along every
kind of run the repo uses as correctness evidence — the conformance
corpus (each test across its deterministic delay grid), the directed
observability scenarios, the seeded differential-fuzz programs, and the
sleep-set POR explorer — with :attr:`observer.source` retagged between
phases, so the resulting :class:`~repro.obs.coverage.CoverageMap`
answers *which protocol transitions does our evidence actually
exercise*, per source.  Everything here is deterministic (pinned seeds,
fixed grids), so coverage payloads are byte-stable across serial,
pooled and cache-replay runs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.params import table6_system
from ..common.types import CommitMode
from ..consistency.litmus import litmus_traces
from ..obs.coverage import CoverageMap, CoverageObserver
from ..obs.scenarios import TRACE_SCENARIOS, scenario_traces
from ..sim.system import MulticoreSystem
from ..workloads.trace import AddressSpace, TraceBuilder
from .differential import conform_params, default_delays
from .model import ConformTest, to_litmus
from .runner import default_mode_for, full_requested, load_corpus, tier1_slice

#: The phases :func:`collect_coverage` runs, in order.
COVERAGE_SOURCES = ("corpus", "scenario", "capacity", "fuzz", "explore")

#: Seeds for the fuzz phase — the first 20 of the golden fuzz corpus,
#: plus seed 49 (the pinned rcp regression program: its racing
#: test-and-sets are the only tier-1 source of the self-reversal,
#: stale-undo and orphaned-fill transitions).
FUZZ_SEEDS: Tuple[int, ...] = tuple(range(20)) + (49,)

Echo = Optional[Callable[[str], None]]


def corpus_coverage(observer: CoverageObserver,
                    tests: Sequence[ConformTest], *,
                    backend: str, core_class: str = "SLM",
                    echo: Echo = None) -> int:
    """Run every test across its deterministic delay grid; returns runs.

    Mirrors the sim phase of :func:`repro.conform.differential.check_test`
    (same params, same :func:`default_delays` grid) minus the outcome
    checking — the point here is which transitions fire, not whether
    the values are legal (the conformance battery already asserts that).
    """
    mode = default_mode_for(backend)
    runs = 0
    for test in tests:
        params = conform_params(test, core_class=core_class, mode=mode,
                                backend=backend)
        litmus = to_litmus(test)
        for combo in default_delays(len(test.threads)):
            space = AddressSpace(params.cache.line_bytes)
            traces, __, __ = litmus_traces(litmus, space, extra_delays=combo)
            system = MulticoreSystem(params)
            observer.attach_system(system)
            system.load_program(traces)
            system.run()
            runs += 1
        if echo is not None:
            echo(f"corpus/{test.name}: {len(observer.counts)} transitions")
    return runs


def _store_pair_traces(line_bytes: int) -> List:
    """Two readers share ``x``; then one of them stores to ``x``'s line
    twice in a row, so the second store asks for write permission while
    the first one's request is still in flight and the line is in S."""
    space = AddressSpace(line_bytes)
    x = space.new_var("x")
    writer = TraceBuilder()
    seen = writer.reg()
    writer.load(seen, x)
    value = writer.reg()
    writer.gate(value, srcs=(seen,), latency=5, imm=1)
    writer.store(x, value_reg=value)
    writer.store(x + 8, value_reg=value)
    reader = TraceBuilder()
    reader.load(reader.reg(), x)
    return [writer.build(), reader.build()]


def scenario_coverage(observer: CoverageObserver, *, backend: str,
                      names: Optional[Sequence[str]] = None,
                      core_class: str = "SLM") -> int:
    """Run the directed trace scenarios (mp, sos) and, unless *names*
    picks scenarios, the same-line store pair; returns runs."""
    params = table6_system(core_class, num_cores=4,
                           commit_mode=default_mode_for(backend),
                           backend=backend)
    programs = [scenario_traces(name) for name in
                (names if names is not None else sorted(TRACE_SCENARIOS))]
    if names is None:
        programs.append(_store_pair_traces(params.cache.line_bytes))
    for traces in programs:
        system = MulticoreSystem(params)
        observer.attach_system(system)
        system.load_program(traces)
        system.run()
    return len(programs)


#: Lines streamed by the capacity scenario — more than the shrunken
#: hierarchy below can hold at any level.
CAPACITY_LINES = 8


def _capacity_params(backend: str, core_class: str):
    """Table 6 params with the hierarchy shrunk to a handful of lines."""
    params = table6_system(core_class, num_cores=2,
                          commit_mode=default_mode_for(backend),
                          backend=backend)
    cache = dataclasses.replace(
        params.cache, l1_sets=1, l1_ways=1, l2_sets=1, l2_ways=2,
        llc_sets_per_bank=1, llc_ways=2, dir_eviction_buffer=1)
    return dataclasses.replace(params, cache=cache)


def _capacity_traces(line_bytes: int, *, ping_pong: bool) -> List:
    space = AddressSpace(line_bytes)
    addrs = space.new_array("cap", CAPACITY_LINES)
    first = TraceBuilder()
    second = TraceBuilder()
    if ping_pong:
        # Both cores write the whole stream: ownership migrates while
        # replacement pressure is evicting dirty lines underneath it.
        for addr in addrs:
            first.store(addr, 1)
            second.store(addr, 2)
    else:
        # Writer dirties then revisits the stream (M-state writebacks);
        # the reader shares it both ways (S-state replacement).
        for addr in addrs:
            first.store(addr, 1)
        for addr in addrs:
            first.load(first.reg(), addr)
        for addr in addrs:
            second.load(second.reg(), addr)
        for addr in reversed(addrs):
            second.load(second.reg(), addr)
    return [first.build(), second.build()]


def capacity_coverage(observer: CoverageObserver, *, backend: str,
                      core_class: str = "SLM") -> int:
    """Stream more lines than a shrunken hierarchy holds; returns runs.

    Neither the litmus corpus nor the directed scenarios ever overflow
    a Table-6-sized cache, so the replacement machinery — PUTM/PUTS
    writebacks, the directory's EVICTING safe-passage parking (paper
    §3.5.1), recall-on-evict under tardis — only shows up here.
    """
    runs = 0
    params = _capacity_params(backend, core_class)
    for ping_pong in (False, True):
        system = MulticoreSystem(params)
        observer.attach_system(system)
        system.load_program(_capacity_traces(params.cache.line_bytes,
                                             ping_pong=ping_pong))
        system.run()
        runs += 1
    return runs


def _fuzz_modes(backend: str) -> List[CommitMode]:
    from ..coherence.backend import get_backend
    from ..perf.corpus import FUZZ_MODES

    supported = get_backend(backend).supported_commit_modes
    if supported is None:
        return list(FUZZ_MODES)
    return [mode for mode in FUZZ_MODES if mode in supported]


def fuzz_coverage(observer: CoverageObserver, *, backend: str,
                  seeds: Sequence[int] = FUZZ_SEEDS) -> int:
    """Replay the pinned differential-fuzz programs; returns runs.

    Uses the perf corpus's deterministic seed -> (program, mode, skew)
    mapping, with the commit-mode rotation restricted to what *backend*
    supports (tardis has no OOO_WB).
    """
    from ..perf.corpus import fuzz_case

    modes = _fuzz_modes(backend)
    runs = 0
    for seed in seeds:
        case = fuzz_case(seed)
        mode = modes[seed % len(modes)]
        params = dataclasses.replace(
            case.params, backend=backend, commit_mode=mode,
            writers_block=mode is CommitMode.OOO_WB)
        system = MulticoreSystem(params)
        observer.attach_system(system)
        system.load_program(case.trace_lists())
        system.run()
        runs += 1
    return runs


def explore_coverage(observer: CoverageObserver, *, backend: str,
                     por: bool = True, max_states: int = 20_000,
                     progress=None) -> Dict[str, Dict]:
    """Run the backend's POR exploration scenarios with coverage attached.

    Returns the per-scenario telemetry summaries (the same shape
    ``repro conform --json`` reports).
    """
    from .scenarios import run_explorations

    return run_explorations(por=por, max_states=max_states,
                            backend=backend, coverage=observer,
                            progress=progress)


def collect_coverage(backend: str, *,
                     sources: Sequence[str] = COVERAGE_SOURCES,
                     tests: Optional[Sequence[ConformTest]] = None,
                     scenario_names: Optional[Sequence[str]] = None,
                     full: bool = False,
                     fuzz_seeds: Sequence[int] = FUZZ_SEEDS,
                     max_states: int = 20_000,
                     core_class: str = "SLM",
                     echo: Echo = None) -> Tuple[CoverageMap, Dict]:
    """Collect one backend's coverage across the requested *sources*.

    ``tests`` defaults to the tier-1 corpus slice (the full corpus with
    ``full=True`` or ``REPRO_CONFORM_FULL=1``); ``scenario_names``
    restricts the scenario phase.  Returns the merged
    :class:`CoverageMap` plus a JSON-ready info dict recording what
    each phase ran (test counts, sim runs, exploration telemetry).
    """
    observer = CoverageObserver(backend)
    info: Dict = {"backend": backend, "sources": {}}
    if "corpus" in sources:
        if tests is None:
            corpus = load_corpus()
            tests = (corpus if full or full_requested()
                     else tier1_slice(corpus))
        observer.source = "corpus"
        runs = corpus_coverage(observer, tests, backend=backend,
                               core_class=core_class, echo=echo)
        info["sources"]["corpus"] = {"tests": len(tests), "runs": runs}
    if "scenario" in sources:
        observer.source = "scenario"
        runs = scenario_coverage(observer, backend=backend,
                                 names=scenario_names,
                                 core_class=core_class)
        info["sources"]["scenario"] = {"runs": runs}
    if "capacity" in sources:
        observer.source = "capacity"
        runs = capacity_coverage(observer, backend=backend,
                                 core_class=core_class)
        info["sources"]["capacity"] = {"runs": runs}
    if "fuzz" in sources:
        observer.source = "fuzz"
        runs = fuzz_coverage(observer, backend=backend, seeds=fuzz_seeds)
        info["sources"]["fuzz"] = {"runs": runs}
    if "explore" in sources:
        observer.source = "explore"
        explorations = explore_coverage(observer, backend=backend,
                                        max_states=max_states)
        info["sources"]["explore"] = {"scenarios": explorations}
    return observer.to_map(), info
