"""Three-way differential checking: sim ⊆ operational ⊆ axiomatic.

For one :class:`~repro.conform.model.ConformTest` and one memory model
(``tso`` default, ``sc``, ``rmo``) the checker

1. enumerates the model's operational machine and the model's axiomatic
   enumeration and asserts every operational outcome is axiomatically
   legal (``operational ⊆ axiomatic``);
2. cross-checks the hand-encoded per-model expectation: an
   expect-``forbidden`` test must have *no* operationally reachable
   ``exists`` clause, an expect-``allowed`` test must have at least one;
3. runs the full simulator across a deterministic grid of per-thread
   start offsets (plus seeded random perturbations) and asserts every
   observed valuation is operationally reachable (``sim ⊆
   operational``), no forbidden outcome fires, and the axiomatic TSO
   checker that rides along every run stays silent.

Step 3 only makes sense for models the simulated hardware satisfies:
the simulator is an x86-TSO machine, so sim inclusion runs under
``tso`` and the (weaker) ``rmo`` but is skipped under ``sc`` — a store
buffer legitimately exceeds SC.

Any violation carries a replayable witness payload
(:mod:`repro.conform.witness`): the full litmus text, commit mode,
model and the exact delay schedule, enough to re-run the execution and
attach a causal-blame trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..common.params import SystemParams, table6_system
from ..common.types import CommitMode
from ..consistency.litmus import perturbation_delays, run_litmus
from ..consistency.models import MemoryModel, get_model
from .model import (ConformTest, Outcome, axiomatic_outcomes,
                    exists_reachable, operational_outcomes, outcome_matches,
                    to_litmus)
from .witness import witness_payload

DEFAULT_CORE = "SLM"

#: Models whose guarantees the simulated (x86-TSO) hardware satisfies,
#: i.e. for which the sim-inclusion phase is sound.
SIM_SOUND_MODELS = ("tso", "rmo")

#: A test's (operational, axiomatic) outcome sets under one model.
References = Tuple[Set[Outcome], Set[Outcome]]


@dataclass
class Violation:
    """One conformance failure, with an optional replayable witness."""

    kind: str  # "sim-not-operational" | "operational-not-axiomatic"
    #          | "forbidden-outcome" | "checker-violation"
    #          | "expectation-mismatch"
    test: str
    detail: str
    witness: Optional[Dict] = None


@dataclass
class TestReport:
    """The outcome of checking one test under one model."""

    name: str
    family: str
    expect: str
    model: str = "tso"
    backend: str = "baseline"
    sim_runs: int = 0
    sim_outcomes: List[Dict[str, int]] = field(default_factory=list)
    operational_count: int = 0
    axiomatic_count: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def conform_params(test: ConformTest, *,
                   core_class: str = DEFAULT_CORE,
                   mode: CommitMode = CommitMode.OOO_WB,
                   backend: str = "baseline") -> SystemParams:
    cores = 4 if len(test.threads) <= 4 else 16
    return table6_system(core_class, num_cores=cores, commit_mode=mode,
                         backend=backend)


def default_delays(num_threads: int) -> List[Tuple[int, ...]]:
    """The deterministic offset grid: all-synchronous plus one run with
    each single thread held back (the classic race windows)."""
    grid: List[Tuple[int, ...]] = [tuple(0 for __ in range(num_threads))]
    for tid in range(num_threads):
        grid.append(tuple(40 if t == tid else 0
                          for t in range(num_threads)))
    return grid


def reference_outcomes(test: ConformTest, model="tso") -> References:
    """Enumerate *test*'s operational and axiomatic outcome sets."""
    spec: MemoryModel = get_model(model)
    return operational_outcomes(test, spec), axiomatic_outcomes(test, spec)


def check_test(test: ConformTest, *,
               model="tso",
               params: Optional[SystemParams] = None,
               mode: CommitMode = CommitMode.OOO_WB,
               core_class: str = DEFAULT_CORE,
               backend: str = "baseline",
               delays: Optional[Sequence[Sequence[int]]] = None,
               perturb: int = 2, seed: int = 0,
               references: Optional[References] = None) -> TestReport:
    """Run the full differential check on one test under one model.

    ``backend`` selects the coherence protocol the simulated hardware
    runs (the operational and axiomatic references are protocol-
    independent — whatever the protocol, its executions must stay
    inside the model).  Callers must pair the backend with a commit
    mode it supports (tardis has no WritersBlock, so no OOO_WB).
    A caller checking one test on several backends passes the
    :func:`reference_outcomes` it computed once as ``references``.
    """
    spec: MemoryModel = get_model(model)
    expect = test.expect_for(spec)
    report = TestReport(name=test.name, family=test.family,
                        expect=expect, model=spec.name, backend=backend)
    op_set, ax_set = (references if references is not None
                      else reference_outcomes(test, spec))
    report.operational_count = len(op_set)
    report.axiomatic_count = len(ax_set)

    for outcome in sorted(op_set - ax_set,
                          key=lambda o: tuple(sorted(o))):
        report.violations.append(Violation(
            kind="operational-not-axiomatic", test=test.name,
            detail=f"[{spec.name}] operationally reachable but "
                   f"axiomatically illegal: {dict(sorted(outcome))}"))

    if expect == "forbidden" and exists_reachable(op_set, test.exists):
        report.violations.append(Violation(
            kind="expectation-mismatch", test=test.name,
            detail=f"[{spec.name}] expect: forbidden, but an exists "
                   f"clause is operationally reachable"))
    elif expect == "allowed" and not exists_reachable(op_set, test.exists):
        report.violations.append(Violation(
            kind="expectation-mismatch", test=test.name,
            detail=f"[{spec.name}] expect: allowed, but no exists "
                   f"clause is operationally reachable"))

    if spec.name not in SIM_SOUND_MODELS:
        return report

    if params is None:
        params = conform_params(test, core_class=core_class, mode=mode,
                                backend=backend)
    litmus = to_litmus(test)
    load_keys = test.load_keys()
    mem_keys = test.mem_keys()
    combos = ([tuple(combo) for combo in delays] if delays is not None
              else default_delays(len(test.threads)))
    if perturb:
        combos = combos + perturbation_delays(litmus, perturb,
                                              random.Random(seed))
    seen_sim: Set[Outcome] = set()
    for combo in combos:
        outcome = run_litmus(litmus, params, extra_delays=combo)
        report.sim_runs += 1
        regs = {key: outcome.registers.get(key, 0) for key in load_keys}
        values = dict(regs)
        for var in mem_keys:
            values[var] = outcome.memory.get(var, 0)
        fingerprint: Outcome = frozenset(values.items())
        if fingerprint not in seen_sim:
            seen_sim.add(fingerprint)
            report.sim_outcomes.append(values)

        def _witness(kind: str, detail: str) -> Dict:
            return witness_payload(test, kind=kind, detail=detail,
                                   mode=mode, core_class=core_class,
                                   num_cores=params.num_cores,
                                   extra_delays=combo, registers=values,
                                   model=spec.name, backend=backend)

        if fingerprint not in op_set:
            detail = (f"[{spec.name}] simulated outcome {values} not "
                      f"operationally reachable (delays={combo})")
            report.violations.append(Violation(
                kind="sim-not-operational", test=test.name, detail=detail,
                witness=_witness("sim-not-operational", detail)))
        # Evaluated here (not via outcome.forbidden_hit) so memory atoms
        # count and the *model's* expectation decides, not always TSO's.
        forbidden_hit = (
            expect == "forbidden"
            and any(outcome_matches(fingerprint, clause)
                    for clause in test.exists))
        if forbidden_hit:
            hit = next((clause for clause in test.exists
                        if outcome_matches(fingerprint, clause)), {})
            detail = (f"[{spec.name}] forbidden outcome {hit} observed on "
                      f"the simulator (delays={combo})")
            report.violations.append(Violation(
                kind="forbidden-outcome", test=test.name, detail=detail,
                witness=_witness("forbidden-outcome", detail)))
        if outcome.checker_violation:
            detail = (f"axiomatic TSO checker rejected the execution "
                      f"(delays={combo}): {outcome.checker_violation}")
            report.violations.append(Violation(
                kind="checker-violation", test=test.name, detail=detail,
                witness=_witness("checker-violation", detail)))
    return report
