"""The benchmark's three closed-loop workloads.

Each workload is a fixed, ordered list of operations (a simulation, a
conformance test or an exploration scenario) built once in set-up from
the seed.  A *pass* runs every operation once, one after another, with
one client and no pool or result cache; the next operation starts when
the previous one finishes.  Every simulation builds a fresh system, so
modelled caches start empty.

All program entry points are looked up on their modules at call time,
so the tracer's wrappers (when installed) are the ones called.

Output checks, applied to every operation:

* every simulation passes ``check_tso`` and ``check_quiescent``;
* every conformance report has no violations;
* every exploration reports ``ok``;
* every pass after the first reproduces the first pass's digests.

A failing check or a raised ``SimulationError`` marks the operation
failed; the run carries on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.coherence import invariants
from repro.common.errors import SimulationError
from repro.conform import differential, runner, scenarios
from repro.consistency import tso_checker
from repro.sim import system as system_module
from repro.workloads import ALL_WORKLOADS

from probe import HostProbe

BACKENDS = ("baseline", "tardis", "rcp")

#: splash16: generators, tiles and phase scale.
SPLASH_GENERATORS = ("barnes", "ocean_ncp", "radix")
SPLASH_TILES = 16
SPLASH_SCALE = 0.1

#: Simulated counters summed per backend over every simulation.
SIM_COUNTERS = ("core.committed", "network.flits", "dir.requests",
                "dir.writersblock_entered", "cache.nacks_sent",
                "tardis.renewals", "rcp.reversals")


@dataclass
class SimRecord:
    """One finished simulation."""

    backend: str
    cycles: int
    host_s: float  # construction to end of run, checks excluded
    counters: Dict[str, int]
    digest: str  # sha256 over cycles and the full stats dict
    alloc_peak_kb: float = 0.0  # set only while tracemalloc traces


@dataclass
class OpResult:
    """One finished operation of a pass."""

    name: str
    host_s: float = 0.0
    norm_s: float = 0.0  # host_s on the probe's reference host
    error: str = ""
    sims: List[SimRecord] = field(default_factory=list)
    #: Outcome counts: exploration statistics, or a conformance
    #: report's outcome-set sizes.
    counts: Dict[str, int] = field(default_factory=dict)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Operation:
    name: str
    run: Callable[[OpResult], None]


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------ simulations
class SimRecorder:
    """Collects a :class:`SimRecord` for every simulation that finishes
    while :meth:`checking` is active, into the current operation."""

    def __init__(self, probe: Optional[HostProbe] = None) -> None:
        self.current: Optional[OpResult] = None
        self.probe = probe

    @contextlib.contextmanager
    def checking(self) -> Iterator[None]:
        """Route every ``MulticoreSystem`` built through the program's
        own name to a subclass that records and checks each run."""
        base = system_module.MulticoreSystem
        system_module.MulticoreSystem = self._checked_class(base)
        try:
            yield
        finally:
            system_module.MulticoreSystem = base

    def _checked_class(self, base):
        recorder = self

        class CheckedSystem(base):
            def __init__(self, params) -> None:
                self._bench_alloc_base = 0
                if tracemalloc.is_tracing():
                    tracemalloc.reset_peak()
                    self._bench_alloc_base = (
                        tracemalloc.get_traced_memory()[0])
                self._bench_start = time.perf_counter()
                super().__init__(params)
                probe = recorder.probe
                if probe is not None and probe.segment_s is not None:
                    self.probe = probe.on_cycle

            def run(self):
                result = super().run()
                host_s = time.perf_counter() - self._bench_start
                alloc_kb = 0.0
                if tracemalloc.is_tracing():
                    peak = tracemalloc.get_traced_memory()[1]
                    alloc_kb = (peak - self._bench_alloc_base) / 1024.0
                invariants.check_quiescent(self)
                recorder._record(result, host_s, alloc_kb)
                return result

        return CheckedSystem

    def _record(self, result, host_s: float, alloc_kb: float) -> None:
        stats = result.stats
        record = SimRecord(
            backend=result.params.backend, cycles=result.cycles,
            host_s=host_s,
            counters={name: stats.get(name, 0) for name in SIM_COUNTERS},
            digest=_sha([result.cycles, stats]), alloc_peak_kb=alloc_kb)
        if self.current is not None:
            self.current.sims.append(record)


# -------------------------------------------------------------- workloads
def derived_seed(seed: int, label: str) -> int:
    """A stable per-input seed drawn from the workload seed."""
    return random.Random(f"{seed}/{label}").randrange(1 << 30)


def splash16_ops(seed: int) -> List[Operation]:
    """Each generator once per backend, at its strongest commit mode.

    Every (backend, generator) pair gets its own derived seed, so a run
    averages nine generated programs rather than three."""
    from repro.common.params import table6_system

    ops = []
    for backend in BACKENDS:
        params = table6_system("SLM", num_cores=SPLASH_TILES,
                               commit_mode=runner.default_mode_for(backend),
                               backend=backend)
        for name in SPLASH_GENERATORS:
            label = f"{backend}/{name}"
            program = ALL_WORKLOADS[name](num_threads=SPLASH_TILES,
                                          scale=SPLASH_SCALE,
                                          seed=derived_seed(seed, label))
            ops.append(Operation(label, _splash_op(params, program.traces)))
    return ops


def _splash_op(params, traces) -> Callable[[OpResult], None]:
    def run(result: OpResult) -> None:
        system = system_module.MulticoreSystem(params)
        system.load_program(traces)
        sim = system.run()
        tso_checker.check_tso(sim.log)

    return run


def conform_ops(seed: int) -> List[Operation]:
    """The tier-1 corpus slice under x86-TSO on every backend."""
    tests = runner.tier1_slice(runner.load_corpus())
    perturb_seed = derived_seed(seed, "conform")
    return [Operation(f"{backend}/{test.name}",
                      _conform_op(test, backend, perturb_seed))
            for backend in BACKENDS for test in tests]


def _conform_op(test, backend: str, seed: int) -> Callable[[OpResult], None]:
    mode = runner.default_mode_for(backend)

    def run(result: OpResult) -> None:
        report = differential.check_test(test, model="tso", mode=mode,
                                         backend=backend, seed=seed)
        if report.violations:
            first = report.violations[0]
            result.error = (f"{len(report.violations)} violation(s), first "
                            f"{first.kind}: {first.detail}")
        result.counts = {"outcomes": len(report.sim_outcomes),
                         "operational": report.operational_count,
                         "axiomatic": report.axiomatic_count}

    return run


def explore_ops(seed: int) -> List[Operation]:
    """Every POR scenario of every backend (the seed is not used: the
    scenarios are fixed and the search is exhaustive)."""
    del seed
    return [Operation(f"{backend}/{name}", _explore_op(backend, name))
            for backend in BACKENDS
            for name in sorted(scenarios.SCENARIO_SETS[backend])]


def _explore_op(backend: str, name: str) -> Callable[[OpResult], None]:
    def run(result: OpResult) -> None:
        found = scenarios.SCENARIO_SETS[backend][name](por=True)
        result.counts = {
            "states": found.states_explored,
            "paths": found.paths_completed,
            "transitions": found.transitions,
            "deduplicated": found.deduplicated,
            "sleep_pruned": found.sleep_pruned,
            "memoized": found.memoized,
        }
        if not found.ok:
            result.error = f"exploration not ok: {found.violations[:1]}"

    return run


WORKLOADS: Dict[str, Callable[[int], List[Operation]]] = {
    "splash16": splash16_ops,
    "conform": conform_ops,
    "explore": explore_ops,
}


# -------------------------------------------------------------- execution
def run_op(op: Operation, recorder: SimRecorder,
           probe: HostProbe) -> OpResult:
    """Run one operation; a raised program error marks it failed."""
    result = OpResult(op.name)
    recorder.current = result
    probe.start()
    try:
        op.run(result)
    except SimulationError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        probe.checkpoint()
        result.host_s, result.norm_s = probe.raw_s, probe.norm_s
        recorder.current = None
    result.digest = _sha([[sim.digest for sim in result.sims],
                          result.counts])
    return result


@dataclass
class Measurement:
    """Whole passes over a workload's operations."""

    passes: List[List[OpResult]]
    wall_s: float

    @property
    def results(self) -> List[OpResult]:
        return [result for one in self.passes for result in one]

    @property
    def pass_s(self) -> float:
        """Mean normalized time of one pass (see :mod:`probe`)."""
        return (sum(result.norm_s for result in self.results)
                / len(self.passes))

    def rate(self, per_pass: float) -> float:
        """*per_pass* units of work per normalized second."""
        return per_pass / self.pass_s


def measure(ops: List[Operation], seconds: float, probe: HostProbe, *,
            min_passes: int = 1, max_passes: Optional[int] = None,
            span: Optional[Callable[[int], contextlib.AbstractContextManager]]
            = None) -> Measurement:
    """Run whole passes until *seconds* have elapsed (at least
    *min_passes*, at most *max_passes*), timing every operation with
    *probe*.  *span(op_index)* wraps each operation when tracing.
    Passes after the first must reproduce the first pass's digests; a
    mismatch fails that operation."""
    recorder = SimRecorder(probe)
    passes: List[List[OpResult]] = []
    start = time.perf_counter()
    with recorder.checking():
        while True:
            one = []
            for index, op in enumerate(ops):
                if span is None:
                    one.append(run_op(op, recorder, probe))
                else:
                    with span(index):
                        one.append(run_op(op, recorder, probe))
            passes.append(one)
            elapsed = time.perf_counter() - start
            if max_passes is not None and len(passes) >= max_passes:
                break
            if len(passes) >= min_passes and elapsed >= seconds:
                break
    wall = time.perf_counter() - start
    check_repeats(passes[0], passes[1:])
    return Measurement(passes, wall)


def check_repeats(first_pass: List[OpResult],
                  later_passes: List[List[OpResult]]) -> None:
    """Fail every operation whose digest differs from the first pass."""
    for later in later_passes:
        for first, again in zip(first_pass, later):
            if first.ok and again.ok and again.digest != first.digest:
                again.error = "result differs from the first pass"


def alloc_probe(op: Operation, probe: HostProbe) -> float:
    """Peak traced allocation (KiB) of the largest simulation in one
    more run of *op*, under ``tracemalloc``."""
    recorder = SimRecorder()
    tracemalloc.start()
    try:
        with recorder.checking():
            result = run_op(op, recorder, probe)
    finally:
        tracemalloc.stop()
    return max((sim.alloc_peak_kb for sim in result.sims), default=0.0)


def workload_digest(first_pass: List[OpResult]) -> str:
    """sha256 over every operation's digest in the first pass."""
    return _sha([result.digest for result in first_pass])


def describe_failures(results: List[OpResult], limit: int = 3
                      ) -> List[Tuple[str, str]]:
    return [(r.name, r.error) for r in results if not r.ok][:limit]
