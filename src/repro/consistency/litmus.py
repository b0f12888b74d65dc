"""Litmus tests: classic TSO shapes plus the paper's Tables 1-3.

A :class:`LitmusTest` describes per-thread memory operations with timing
knobs (compute delays, unresolved-address loads).  :func:`run_litmus`
executes it on the full simulator and returns the final register values;
:func:`sweep_litmus` re-runs across a grid of timing offsets to hunt for
forbidden outcomes.  Because every run also passes through the axiomatic
checker, a litmus test failing would surface both as a forbidden outcome
*and* a checker cycle.

:func:`enumerate_interleavings` reproduces Table 2 analytically: all
interleavings of two instruction streams; :func:`legal_tso_outcomes`
gives the load outcomes the operational x86-TSO machine reaches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..common.params import SystemParams, table6_system
from ..common.types import CommitMode
from ..workloads.trace import AddressSpace, TraceBuilder
from .execution import ExecutionLog
from .operational import TOp, enumerate_outcomes
from .tso_checker import check_tso
from ..common.errors import TSOViolationError


@dataclass(frozen=True)
class Op:
    """One litmus operation: ("ld", var, out_name) or ("st", var, value)."""

    kind: str  # "ld" | "st" | "delay" | "ld_slow" | "ld_dep" | "fence" | "spin" | "at"
    var: str = ""
    arg: int = 0
    out: str = ""  # register result name for loads


def ld(var: str, out: str) -> Op:
    return Op("ld", var, out=out)


def ld_slow(var: str, out: str, delay: int = 150) -> Op:
    """A load whose address resolves only after *delay* cycles."""
    return Op("ld_slow", var, arg=delay, out=out)


def ld_dep(var: str, out: str) -> Op:
    """A load whose address carries a dependency on the previous load.

    Compiles to a gate on the preceding load's result register feeding
    the address, so the access cannot even *start* before the older
    load performs (the paper's address-dependency timing case).  TSO
    legality is unchanged — dependencies only constrain the
    microarchitecture, which is exactly why the differential checker
    wants them as variants.
    """
    return Op("ld_dep", var, out=out)


def st(var: str, value: int) -> Op:
    return Op("st", var, arg=value)


def fence() -> Op:
    """A full fence (x86 MFENCE).

    The trace ISA has no fence instruction; atomics are full fences
    (they drain the store buffer and stall until globally performed),
    so the fence compiles to a fetch-and-add on a private per-thread
    scratch line that no other op touches.
    """
    return Op("fence")


def delay(cycles: int) -> Op:
    return Op("delay", arg=cycles)


def spin_nonzero(var: str, out: str) -> Op:
    """Spin until *var* becomes non-zero; *out* gets the observed value."""
    return Op("spin", var, out=out)


@dataclass
class LitmusTest:
    """A named litmus test with its TSO-forbidden outcomes."""

    name: str
    threads: List[List[Op]]
    forbidden: List[Dict[str, int]]
    description: str = ""
    variables: Optional[List[str]] = None

    def all_vars(self) -> List[str]:
        if self.variables:
            return self.variables
        seen: List[str] = []
        for thread in self.threads:
            for op in thread:
                if op.var and op.var not in seen:
                    seen.append(op.var)
        return seen


@dataclass
class LitmusOutcome:
    registers: Dict[str, int]
    forbidden_hit: bool
    checker_violation: Optional[str] = None
    #: final value of each litmus variable (last coherence-order write)
    memory: Dict[str, int] = field(default_factory=dict)


def _build_traces(test: LitmusTest, space: AddressSpace,
                  extra_delays: Sequence[int]):
    """Compile litmus threads to traces.

    Returns ``(traces, reg_map, var_addr)`` where ``var_addr`` maps each
    litmus variable to its byte address (final-memory extraction).
    """
    addr = {var: space.new_var(var) for var in test.all_vars()}
    traces = []
    out_regs: List[Tuple[int, int, str]] = []  # (thread, reg, name)
    for tid, thread in enumerate(test.threads):
        t = TraceBuilder()
        if tid < len(extra_delays) and extra_delays[tid]:
            t.compute(latency=extra_delays[tid])
        last_load_reg: Optional[int] = None
        fence_addr: Optional[int] = None
        for op in thread:
            if op.kind == "ld":
                reg = t.reg()
                t.load(reg, addr[op.var])
                out_regs.append((tid, reg, op.out))
                last_load_reg = reg
            elif op.kind == "ld_slow":
                base = t.reg()
                t.compute(base, latency=op.arg)  # value 0: slow zero offset
                reg = t.reg()
                t.load(reg, addr[op.var], addr_reg=base)
                out_regs.append((tid, reg, op.out))
                last_load_reg = reg
            elif op.kind == "ld_dep":
                if last_load_reg is None:
                    raise ValueError(
                        f"ld_dep({op.var!r}) has no preceding load in "
                        f"thread {tid} to depend on")
                gate = t.reg()
                t.gate(gate, (last_load_reg,))  # 0 only once dep performs
                reg = t.reg()
                t.load(reg, addr[op.var], addr_reg=gate)
                out_regs.append((tid, reg, op.out))
                last_load_reg = reg
            elif op.kind == "fence":
                if fence_addr is None:
                    fence_addr = space.new_var(f"__fence_t{tid}")
                t.faa(t.reg(), fence_addr)  # atomic == full fence
            elif op.kind == "st":
                t.store(addr[op.var], op.arg)
            elif op.kind == "delay":
                t.compute(latency=op.arg)
            elif op.kind == "spin":
                r_val = t.reg()
                top = t.here
                t.load(r_val, addr[op.var])
                t.beqz(r_val, top, predict_taken=True)
                out_regs.append((tid, r_val, op.out))
            elif op.kind == "at":
                reg = t.reg()
                t.faa(reg, addr[op.var], op.arg)
                out_regs.append((tid, reg, op.out))
            else:
                raise ValueError(f"unknown litmus op {op.kind!r}")
        traces.append(t.build())
    return traces, out_regs, addr


def litmus_traces(test: LitmusTest, space: AddressSpace,
                  extra_delays: Sequence[int] = ()):
    """Compile *test* to per-core traces.

    Public wrapper used by the perf corpus and the golden-determinism
    pins, which need the raw traces (to run through ``run_traces`` and
    digest the full :class:`~repro.sim.results.SimResult`) rather than
    the register-outcome view of :func:`run_litmus`.
    Returns ``(traces, out_regs, var_addr)`` like :func:`_build_traces`.
    """
    return _build_traces(test, space, extra_delays)


def run_litmus(test: LitmusTest, params: Optional[SystemParams] = None, *,
               extra_delays: Sequence[int] = ()) -> LitmusOutcome:
    """Run one timing instance of *test*; check registers and TSO."""
    from ..sim.system import MulticoreSystem  # local import: avoid cycle

    if params is None:
        params = table6_system("SLM", num_cores=4)
    space = AddressSpace(params.cache.line_bytes)
    traces, out_regs, var_addr = _build_traces(test, space, extra_delays)
    system = MulticoreSystem(params)
    system.load_program(traces)
    result = system.run()
    registers = {
        name: system.cores[tid].reg_values.get(reg, 0)
        for tid, reg, name in out_regs
    }
    memory: Dict[str, int] = {}
    for var, byte_addr in var_addr.items():
        versions = result.log.coherence_order.get(byte_addr, [])
        memory[var] = result.log.value_of(versions[-1]) if versions else 0
    violation: Optional[str] = None
    try:
        check_tso(result.log)
    except TSOViolationError as exc:
        violation = str(exc)
    forbidden_hit = any(
        all(registers.get(k) == v for k, v in combo.items())
        for combo in test.forbidden
    )
    return LitmusOutcome(registers=registers, forbidden_hit=forbidden_hit,
                         checker_violation=violation, memory=memory)


def perturbation_delays(test: LitmusTest, count: int,
                        rng: random.Random) -> List[Tuple[int, ...]]:
    """*count* random per-thread start-offset tuples drawn from *rng*.

    The caller owns the :class:`random.Random` instance (and therefore
    the seed): nothing here touches module-global randomness, so a
    pinned seed gives byte-stable sweep schedules in the BENCH drivers.
    """
    threads = len(test.threads)
    return [tuple(rng.randrange(0, 121, 10) for __ in range(threads))
            for __ in range(count)]


def sweep_litmus(test: LitmusTest, params: Optional[SystemParams] = None, *,
                 delays: Sequence[Sequence[int]] = ((0, 0), (0, 40), (40, 0),
                                                    (0, 80), (80, 0),
                                                    (20, 60), (60, 20)),
                 perturb: int = 0,
                 rng: Optional[random.Random] = None,
                 ) -> List[LitmusOutcome]:
    """Run *test* across a grid of per-thread start offsets.

    ``perturb`` appends that many random offset tuples generated from
    *rng* (an explicit, caller-seeded :class:`random.Random`; default
    ``random.Random(0)``) via :func:`perturbation_delays`.
    """
    combos = [tuple(combo) for combo in delays]
    if perturb:
        combos.extend(perturbation_delays(
            test, perturb, rng if rng is not None else random.Random(0)))
    return [run_litmus(test, params, extra_delays=combo) for combo in combos]


# ----------------------------------------------------------- the test suite
def table1_test() -> LitmusTest:
    """Paper Table 1: TSO forbids {ra==1, rb==0} (with ld y slow)."""
    return LitmusTest(
        name="table1-load-pair",
        threads=[
            [ld("x", "warm"), ld_slow("y", "ra", delay=420), ld("x", "rb")],
            [delay(40), st("x", 1), st("y", 1)],
        ],
        forbidden=[{"ra": 1, "rb": 0}],
        description="ld ra,y ; ld rb,x || st x,1 ; st y,1 — the paper's "
                    "running example with the younger load hitting a "
                    "stale cached x while the older load's address is "
                    "unresolved.",
    )


def table3_test() -> LitmusTest:
    """Paper Table 3: transitive happens-before via a third core."""
    return LitmusTest(
        name="table3-three-core",
        threads=[
            [ld("x", "warm"), ld_slow("y", "ra", delay=420), ld("x", "rb")],
            [delay(40), st("x", 1)],
            [spin_nonzero("x", "rc"), st("y", 1)],
        ],
        forbidden=[{"ra": 1, "rb": 0}],
        description="st x and st y on different cores, ordered by core 2 "
                    "spinning on x — delaying st x transitively delays "
                    "st y (paper Table 3).",
    )


def store_buffer_test() -> LitmusTest:
    """Classic SB: {r0==0, r1==0} is ALLOWED in TSO (store buffering)."""
    return LitmusTest(
        name="store-buffering",
        threads=[
            [st("x", 1), ld("y", "r0")],
            [st("y", 1), ld("x", "r1")],
        ],
        forbidden=[],  # nothing forbidden: SB relaxation is TSO-legal
        description="Dekker-style store buffering; 0,0 allowed under TSO.",
    )


def message_passing_test() -> LitmusTest:
    """MP: seeing the flag means seeing the data."""
    return LitmusTest(
        name="message-passing",
        threads=[
            [st("data", 42), st("flag", 1)],
            [spin_nonzero("flag", "rf"), ld("data", "rd")],
        ],
        forbidden=[{"rf": 1, "rd": 0}],
        description="Flag/data message passing; stale data is forbidden.",
    )


def corr_test() -> LitmusTest:
    """CoRR: two reads of one location must not go backwards."""
    return LitmusTest(
        name="coherence-read-read",
        threads=[
            [ld("x", "warm"), delay(30), ld("x", "r0"), ld("x", "r1")],
            [delay(45), st("x", 1)],
        ],
        forbidden=[{"r0": 1, "r1": 0}],
        description="Per-location coherence: later read can't see older value.",
    )


def iriw_test() -> LitmusTest:
    """IRIW: independent reads of independent writes (forbidden in TSO)."""
    return LitmusTest(
        name="iriw",
        threads=[
            [st("x", 1)],
            [st("y", 1)],
            [spin_nonzero("x", "r0"), ld("y", "r1")],
            [spin_nonzero("y", "r2"), ld("x", "r3")],
        ],
        forbidden=[{"r0": 1, "r1": 0, "r2": 1, "r3": 0}],
        description="Writes to x and y must appear in one global order.",
    )


def load_buffering_test() -> LitmusTest:
    """LB: loads may not be buffered past later stores in TSO."""
    return LitmusTest(
        name="load-buffering",
        threads=[
            [ld("x", "r0"), st("y", 1)],
            [ld("y", "r1"), st("x", 1)],
        ],
        forbidden=[{"r0": 1, "r1": 1}],
        description="TSO keeps load->store order: both loads reading "
                    "the other thread's (later) store is forbidden.",
    )


def wrc_test() -> LitmusTest:
    """WRC: write-to-read causality must be transitive."""
    return LitmusTest(
        name="write-read-causality",
        threads=[
            [st("x", 1)],
            [spin_nonzero("x", "r0"), st("y", 1)],
            [spin_nonzero("y", "r1"), ld("x", "r2")],
        ],
        forbidden=[{"r0": 1, "r1": 1, "r2": 0}],
        description="Core 2 observes y=1 which was caused by x=1; it "
                    "must then observe x=1 as well.",
    )


def atomic_mutex_test() -> LitmusTest:
    """Two fetch-and-adds must serialize (atomicity check)."""
    return LitmusTest(
        name="atomic-faa",
        threads=[
            [Op("at", "c", 1, out="r0")],
            [Op("at", "c", 1, out="r1")],
        ],
        forbidden=[{"r0": 0, "r1": 0}, {"r0": 1, "r1": 1}],
        description="Both RMWs reading the same old value is forbidden.",
    )


def standard_suite() -> List[LitmusTest]:
    return [
        table1_test(),
        table3_test(),
        store_buffer_test(),
        message_passing_test(),
        corr_test(),
        iriw_test(),
        load_buffering_test(),
        wrc_test(),
        atomic_mutex_test(),
    ]


# ------------------------------------------------- Table 2: interleavings
@dataclass(frozen=True)
class SimpleOp:
    """An abstract operation for interleaving enumeration.

    ``kind`` is ``"ld"``, ``"st"``, or ``"mf"`` (a full fence, which
    carries no variable).  ``out`` optionally overrides the load-outcome
    key (default ``"t{thread}:ld {var}"``) — the conformance corpus uses
    register names so the same valuation keys work across the simulator
    and the operational model.
    """

    thread: int
    kind: str  # "ld" | "st" | "mf"
    var: str = ""
    out: str = ""

    def key(self) -> str:
        return self.out or f"t{self.thread}:ld {self.var}"


def enumerate_interleavings(threads: Sequence[Sequence[SimpleOp]]
                            ) -> List[Tuple[Tuple[SimpleOp, ...], Dict[str, str]]]:
    """All program-order-preserving interleavings with load outcomes.

    Returns (interleaving, {load key -> "old"/"new"}) for each
    interleaving, executing stores in interleaving order (memory order)
    and binding each load to the current value of its variable.  This is
    the *sequentially consistent* enumeration (paper Table 2); fences
    are inert here.  :func:`legal_tso_outcomes` gives the TSO outcomes
    from the operational machine.
    """
    results = []
    lengths = [len(t) for t in threads]
    for order in _merge_orders(lengths):
        ops = tuple(threads[t][i] for t, i in order)
        loads = _execute_interleaving(ops)
        results.append((ops, loads))
    return results


def _execute_interleaving(ops: Sequence[SimpleOp]) -> Dict[str, str]:
    state: Dict[str, str] = {}
    loads: Dict[str, str] = {}
    for op in ops:
        if op.kind == "st":
            state[op.var] = "new"
        elif op.kind == "ld":
            loads[op.key()] = state.get(op.var, "old")
    return loads


def legal_tso_outcomes(threads: Sequence[Sequence[SimpleOp]]
                       ) -> List[Dict[str, str]]:
    """Distinct load-outcome combinations reachable under x86-TSO.

    An adapter over the operational x86-TSO machine
    (:func:`repro.consistency.operational.enumerate_outcomes`): every
    store writes ``"new"`` over the initial ``"old"``, a fence is an
    MFENCE, and each load lands in a register named by its
    :meth:`SimpleOp.key` (keys must differ between threads; within a
    thread the younger load of a repeated key wins).  For threads with
    no store→load pairs (e.g. the paper's Table 2 shape) the outcomes
    are the SC ones.
    """
    program = [[TOp(op.kind, op.var, reg=op.key(), value=1) for op in thread]
               for thread in threads]
    names = ("old", "new")
    distinct = {tuple(sorted((key.split(":", 1)[1], names[value])
                             for key, value in outcome))
                for outcome in enumerate_outcomes(program)}
    return [dict(loads) for loads in sorted(distinct)]


def _merge_orders(lengths: Sequence[int]) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """All merges of ``lengths[i]`` items per thread, preserving order.

    Recursion over the residual-lengths state: at every step, append the
    next unconsumed item of some thread.  Each distinct merge is built
    exactly once — the multinomial ``(sum n_i)! / prod n_i!`` orders —
    unlike the previous permutations-then-deduplicate pass, which
    materialized all ``(sum n_i)!`` permutations first and made 4-thread
    tests exponential-with-repeats.  Yield order is lexicographic in
    thread index, matching the old implementation byte for byte.
    """
    total = sum(lengths)
    counters = [0] * len(lengths)
    order: List[Tuple[int, int]] = []

    def rec() -> Iterator[Tuple[Tuple[int, int], ...]]:
        if len(order) == total:
            yield tuple(order)
            return
        for thread, n in enumerate(lengths):
            if counters[thread] < n:
                order.append((thread, counters[thread]))
                counters[thread] += 1
                yield from rec()
                counters[thread] -= 1
                order.pop()
        return

    yield from rec()
