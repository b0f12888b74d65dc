"""Exactness pins for the reference enumerations.

The operational machines (:mod:`repro.consistency.operational`) and the
axiomatic enumeration (:mod:`repro.conform.axiomatic`) are the ground
truth every simulated outcome is judged against, so a speed-up there
must not move a single outcome.  :data:`REFERENCE_DIGEST` is the sha256
of every corpus test's operational and axiomatic outcome sets under
``sc``, ``tso`` and ``rmo``, computed with the dict-keyed machines that
the slot-indexed layout replaced and with no state-space reduction.

No corpus test has a thread that loads a location it also stores, so
the corpus digest cannot see forwarding: a TSO machine that forwards
such loads eagerly, or an axiomatic merge that ignores forwarding pins,
leaves it unchanged.  :data:`GENERATED_DIGEST` pins 400 seeded random
programs that have those shapes, and RMWs, computed the same way.

Run alone with::

    PYTHONPATH=src python -m pytest tests/conformance/test_reference_pin.py -q
"""

import hashlib
import json
import random

import pytest

from repro.conform.axiomatic import axiomatic_final_states
from repro.conform.model import (axiomatic_outcomes, cld, cmf, cst,
                                 operational_outcomes)
from repro.conform.runner import load_corpus
from repro.consistency.operational import (enumerate_final_states,
                                           enumerate_outcomes, ld, mf, rmw,
                                           st)

MODELS = ("sc", "tso", "rmo")

#: sha256 over the canonical outcome sets of the full corpus.
REFERENCE_DIGEST = (
    "824249b61ac9866f390e6d38f6265615b068ec2253a7a64d7643e7480841bb85")
#: sha256 over the final states of 400 generated programs.
GENERATED_DIGEST = (
    "db4332ba30a1dd80dda6f981543a58e689a3b15cd4ca4a2c5211c852a390d3da")


def _canonical(outcomes):
    return sorted(sorted(outcome) for outcome in outcomes)


def reference_digest(tests) -> str:
    digest = hashlib.sha256()
    for test in sorted(tests, key=lambda t: t.name):
        for model in MODELS:
            record = [test.name, model,
                      _canonical(operational_outcomes(test, model)),
                      _canonical(axiomatic_outcomes(test, model))]
            digest.update(json.dumps(record).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_full_corpus_reference_sets_are_pinned():
    tests = load_corpus()
    assert len(tests) == 344
    assert reference_digest(tests) == REFERENCE_DIGEST


def generated_programs(count: int, seed: int = 0):
    """Small random programs over two locations: loads, stores, RMWs
    and fences, two or three threads of one to four ops."""
    rng = random.Random(seed)
    makers = (lambda loc, i: ld(loc, f"r{i}"),
              lambda loc, i: ld(loc, f"r{i}"),
              lambda loc, i: st(loc, i + 1),
              lambda loc, i: st(loc, i + 1),
              lambda loc, i: rmw(loc, f"r{i}", i + 1),
              lambda loc, i: mf())
    return [[[rng.choice(makers)(rng.choice("xy"), i)
              for i in range(rng.randint(1, 4))]
             for __ in range(rng.randint(2, 3))]
            for __ in range(count)]


def _conform_ops(thread):
    """The same thread as conformance ops (None if it has an RMW)."""
    makers = {"ld": lambda op: cld(op.loc, op.reg),
              "st": lambda op: cst(op.loc, op.value),
              "mf": lambda op: cmf()}
    if any(op.kind not in makers for op in thread):
        return None
    return [makers[op.kind](op) for op in thread]


def generated_digest(programs) -> str:
    """Operational final states of every program under every model, and
    axiomatic ones for the programs without RMWs."""
    digest = hashlib.sha256()
    for threads in programs:
        conform_threads = [_conform_ops(thread) for thread in threads]
        for model in MODELS:
            records = [enumerate_final_states(threads, model=model)]
            if None not in conform_threads:
                records.append(axiomatic_final_states(conform_threads,
                                                      model))
            canonical = [sorted([sorted(registers), sorted(memory)]
                                for registers, memory in finals)
                         for finals in records]
            digest.update(json.dumps(canonical).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_generated_programs_final_states_are_pinned():
    assert generated_digest(generated_programs(400)) == GENERATED_DIGEST


#: ``t0: st x=1; ld x→r | t1: st x=2``.
FORWARDING = [[st("x", 1), ld("x", "r")], [st("x", 2)]]


def test_tso_load_reads_memory_after_own_store_drains():
    """t0's store drains, then t1's, then the load reads memory and
    sees 2.  Forwarding the load eagerly from its own buffer would lose
    ``r=2``."""
    outcomes = enumerate_outcomes(FORWARDING, model="tso")
    assert outcomes == {frozenset({("t0:r", 1)}), frozenset({("t0:r", 2)})}
    finals = enumerate_final_states(FORWARDING, model="tso")
    assert (frozenset({("t0:r", 2)}), frozenset({("x", 2)})) in finals


@pytest.mark.parametrize("model,states", [("sc", 9), ("tso", 13),
                                          ("rmo", 11)])
def test_max_states_overflow_raises(model, states):
    """The forwarding program visits exactly *states* states, so a
    bound one lower overflows."""
    enumerate_final_states(FORWARDING, model=model, max_states=states)
    with pytest.raises(RuntimeError, match="state space too large"):
        enumerate_final_states(FORWARDING, model=model,
                               max_states=states - 1)
