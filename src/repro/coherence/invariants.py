"""Coherence invariants, checkable on a quiescent system or per cycle.

These are the structural guarantees a coherence protocol must maintain.
They are checked by the schedule-fuzzing tests after every run, by the
per-cycle property-test probe, and users can call
:func:`check_coherence` on any quiesced :class:`MulticoreSystem` as a
sanity gate.

The checks are backend-dispatched: :func:`check_coherence` resolves the
system's :class:`~repro.coherence.backend.CoherenceBackend` and asks it
for protocol-specific violations, because "coherent" means different
things per protocol — baseline MESI's SWMR excludes *any* other copy
while an owner exists, whereas tardis legitimately keeps leased shared
copies alive alongside a new owner (their leases are in the past).

Baseline invariants (all at quiescence — no in-flight messages):

* **SWMR**: at most one private cache holds a line in M/E; if one does,
  no other cache holds it at all.
* **Directory owner accuracy**: a dir entry in state M names an owner
  that actually holds the line in M or E.
* **Sharer soundness**: every cache holding a line in S is on its home
  directory's sharer list (silent evictions may leave *stale* sharers,
  which is fine; missing ones are not).
* **Value agreement**: every S copy matches the LLC's data for the
  line; an M/E copy is allowed to be newer (dirty).
* **No residual transients**: every directory entry is back in a stable
  state with empty queues, no eviction-buffer leftovers, and no
  outstanding MSHRs anywhere.

Tardis invariants live in :mod:`repro.coherence.tardis` (timestamp
SWMR, the data-value invariant, lease/timestamp monotonicity).
"""

from __future__ import annotations

from typing import List

from ..common.errors import ProtocolError
from ..common.types import CacheState, DirState


def directory_banks(system):
    """Directory banks of any system-like object.

    ``MulticoreSystem`` exposes ``directories``; the explorer's
    ``VerifSystem`` and the coherence test harness expose ``dirs``.
    """
    banks = getattr(system, "directories", None)
    if banks is None:
        banks = system.dirs
    return banks


def backend_of(system):
    """Resolve the :class:`CoherenceBackend` a system was built with."""
    backend = getattr(system, "backend", None)
    if backend is None:
        from .backend import get_backend
        backend = get_backend("baseline")
    return backend


def check_coherence(system) -> None:
    """Raise :class:`ProtocolError` on any violated quiescent invariant."""
    problems = backend_of(system).coherence_problems(system)
    if problems:
        raise ProtocolError("coherence invariants violated:\n"
                            + "\n".join(problems))


def check_cycle(system) -> None:
    """Raise on any invariant that must hold at *every* cycle.

    Unlike :func:`check_coherence` this may run mid-transaction, so it
    only asserts properties that survive in-flight messages.  Wire it
    through :func:`attach_probe` to gate a whole run.
    """
    problems = backend_of(system).cycle_problems(system)
    if problems:
        raise ProtocolError("per-cycle invariants violated:\n"
                            + "\n".join(problems))


def attach_probe(system, *, period: int = 1):
    """Install a cycle invariant probe on a :class:`MulticoreSystem`.

    The run loop calls ``system.probe(now)`` once per visited cycle;
    skipped cycles repeat the last probed state (same zero-cost-when-off
    contract as the metrics sampler).  At most once every *period*
    cycles this checks the backend's cycle invariants and records the
    number of checks performed.  Returns a one-element list holding that
    count so tests can assert the probe actually fired.
    """
    checks = [0]
    last = [-1]

    def probe(now: int) -> None:
        if now - last[0] < period:
            return
        last[0] = now
        checks[0] += 1
        check_cycle(system)

    system.probe = probe
    return checks


def baseline_coherence_problems(system) -> List[str]:
    """Quiescent-state violations for the baseline MESI protocol."""
    problems: List[str] = []
    banks = directory_banks(system)
    lines = set()
    for cache in system.caches:
        for line, __ in cache._lines.items():
            lines.add(line)
    for bank in banks:
        for line, __ in bank._array.items():
            lines.add(line)

    for line in sorted(lines, key=int):
        home = banks[int(line) % len(banks)]
        entry = home.entry(line)
        holders = {
            tile: cache.line_state(line)
            for tile, cache in enumerate(system.caches)
            if cache.line_state(line) is not CacheState.I
        }
        exclusive = [t for t, s in holders.items()
                     if s in (CacheState.M, CacheState.E)]
        shared = [t for t, s in holders.items() if s is CacheState.S]
        if len(exclusive) > 1:
            problems.append(f"{line!r}: multiple exclusive owners {exclusive}")
        if exclusive and shared:
            problems.append(
                f"{line!r}: owner {exclusive} coexists with sharers {shared}")
        if entry is None:
            if holders:
                problems.append(
                    f"{line!r}: cached at {sorted(holders)} but no dir entry")
            continue
        if not entry.is_stable() or entry.queue:
            problems.append(f"{line!r}: residual transient state {entry!r}")
            continue
        if entry.state is DirState.M:
            if not exclusive or entry.owner not in exclusive:
                problems.append(
                    f"{line!r}: dir owner {entry.owner} but holders {holders}")
        else:
            for tile in shared:
                if tile not in entry.sharers:
                    problems.append(
                        f"{line!r}: cache {tile} in S but missing from "
                        f"sharer list {sorted(entry.sharers)}")
            # Value agreement for shared copies.
            for tile in shared:
                cached = system.caches[tile].line_entry(line)
                if cached.data.values != entry.data.values:
                    problems.append(
                        f"{line!r}: sharer {tile} data {cached.data!r} "
                        f"differs from LLC {entry.data!r}")
    for bank in banks:
        if bank._evicting:
            problems.append(
                f"dir{bank.tile}: eviction buffer not empty "
                f"{list(bank._evicting)}")
        if bank._pending_allocs:
            problems.append(f"dir{bank.tile}: parked requests left over")
    for cache in system.caches:
        leftovers = cache.mshrs.entries()
        if leftovers:
            problems.append(f"cache{cache.tile}: MSHRs not drained "
                            f"{leftovers}")
    return problems


def baseline_cycle_problems(system) -> List[str]:
    """Every-cycle violations for baseline MESI.

    Mid-transaction states limit what can be asserted: sharer lists may
    be stale (silent evictions) and directory data may lag an owner.
    What must hold at *every* cycle is single-writer exclusivity — a
    cache only installs M/E after every other copy acknowledged its
    invalidation, so an owner never coexists with any other copy.
    """
    problems: List[str] = []
    holders: dict = {}
    for cache in system.caches:
        for line, entry in cache._lines.items():
            holders.setdefault(line, []).append((cache.tile, entry.state))
    for line, copies in holders.items():
        exclusive = [t for t, s in copies
                     if s in (CacheState.M, CacheState.E)]
        if len(exclusive) > 1:
            problems.append(
                f"{line!r}: multiple exclusive owners {exclusive}")
        elif exclusive and len(copies) > 1:
            problems.append(
                f"{line!r}: owner {exclusive[0]} coexists with copies at "
                f"{sorted(t for t, __ in copies)}")
    return problems


def check_quiescent(system) -> None:
    """Full quiescence gate: coherence invariants plus drained machinery.

    On top of :func:`check_coherence`, verifies that the run actually
    wound down: the event queue holds no pending callbacks, and every
    message acquired from the mesh's pool was released exactly once
    (``outstanding == 0``) — a leak means some handler parked a message
    and never replayed it; a negative count means a double release.

    Only meaningful for systems driven through the normal run loop: the
    model-checking explorer's BufferingNetwork delivers messages without
    returning them to the pool, so it must keep using
    :func:`check_coherence` directly.
    """
    check_coherence(system)
    problems: List[str] = []
    pending = len(system.events)
    if pending:
        problems.append(
            f"event queue not drained: {pending} callbacks still scheduled")
    pool = getattr(system.network, "pool", None)
    if pool is not None and pool.outstanding:
        problems.append(
            f"message pool not drained: outstanding={pool.outstanding} "
            "(acquired but never released)")
    if problems:
        raise ProtocolError("system not quiescent:\n" + "\n".join(problems))
