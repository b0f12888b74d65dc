"""Bounded state-space exploration of the real coherence protocol.

The simulator's network delivers messages at deterministic times, so a
single run exercises one interleaving.  This explorer instead *buffers*
every network send and branches on which pending message to deliver
next (respecting the per-(src, dst) FIFO order that deterministic X-Y
routing guarantees).  A state with k deliveries to explore forks k - 1
deep copies of the system; the last delivery mutates the state itself,
which nothing reads once its children are on the stack.  A fork copies
only mutable protocol state: line addresses, params, the mesh topology,
the backend and a coverage observer are shared by every fork, and the
controllers dispatch messages through class-level tables, so they hold
no bound methods to copy.  Between deliveries, all locally scheduled
work (latency callbacks, controller follow-ups) runs to quiescence — so
the unit of reordering is exactly the unordered-network nondeterminism
the paper's protocol must tolerate.

At every fully quiescent state the caller's invariant checks run; at
the end of each execution path a *termination* check verifies nothing
is stuck (all injected operations completed).  State fingerprinting
prunes re-explored interleavings.

This is bounded model checking of the *actual implementation*, not an
abstract model: the explored objects are the production
:class:`PrivateCache` and :class:`DirectoryBank` instances.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..coherence.backend import get_backend
from ..coherence.private_cache import LoadRequest, PrivateCache
from ..common.errors import SimulationError
from ..common.event_queue import EventQueue
from ..common.params import CacheParams, NetworkParams
from ..common.stats import StatsRegistry
from ..common.types import CacheState, LineAddr
from ..network.mesh import MeshNetwork
from ..network.message import Message


class BufferingNetwork(MeshNetwork):
    """Collects sends into a pending pool instead of scheduling them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending: List[Message] = []

    def send(self, msg: Message) -> int:
        if (msg.dst, msg.dst_port) not in self._endpoints:
            raise SimulationError(f"no endpoint for {msg!r}")
        self.pending.append(msg)
        return self.events.now

    def deliverable(self) -> List[int]:
        """Indices of pending messages that may be delivered next.

        Per-(src, dst, port) FIFO: only the *oldest* pending message of
        each channel is deliverable (deterministic routing guarantees
        same-pair ordering); across channels, any order is possible.
        """
        seen: set = set()
        indices: List[int] = []
        for idx, msg in enumerate(self.pending):
            key = (msg.src, msg.dst, msg.dst_port)
            if key not in seen:
                seen.add(key)
                indices.append(idx)
        return indices

    def deliver(self, index: int) -> None:
        msg = self.pending.pop(index)
        self._endpoints[(msg.dst, msg.dst_port)](msg)

    @staticmethod
    def delivery_key(msg: Message) -> Tuple:
        """Transition identity for partial-order reduction.

        Delivering a message only mutates the receiving controller and
        appends fresh sends (whose channel carries the *sender's* tile
        as src), so the tuple (type, channel, line) names the transition
        stably across reorderings: the head of a (src, dst, port)
        channel is untouched by deliveries on other channels.
        """
        return (msg.msg_type.value, msg.src, msg.dst, msg.dst_port,
                int(msg.line))

    @staticmethod
    def independent(key_a: Tuple, key_b: Tuple) -> bool:
        """May two deliveries commute (conservatively)?

        Requires *both* different receiving endpoints (the mutated
        controller state is disjoint) and different cache lines (so no
        shared line/directory entry is involved).  Endpoint alone would
        already commute for state, but staying line-disjoint keeps the
        argument independent of any cross-line bookkeeping a controller
        might add later.
        """
        return (key_a[2], key_a[3]) != (key_b[2], key_b[3]) and \
            key_a[4] != key_b[4]


class VerifCore:
    """A scripted core-side agent (deepcopy-safe: no closures).

    Owns the lockdown set and the outcomes of its issued loads/writes.
    """

    def __init__(self, tile: int) -> None:
        self.tile = tile
        self.cache: Optional[PrivateCache] = None
        self.lockdowns: set = set()
        self.nacked: set = set()
        self.load_results: List[Tuple[int, Tuple[int, int], bool]] = []
        self.load_retries: int = 0
        #: Byte addresses of loads bounced with ``on_must_retry`` and
        #: not yet reissued (a tardis fill can arrive already expired).
        #: Scenarios drain this from ``on_quiescent`` via
        #: :meth:`reissue_retries`.
        self.retry_addrs: List[int] = []
        self.writes_granted: int = 0
        self._next_load = 0

    # --- cache hooks -------------------------------------------------------
    def invalidation_hook(self, line: LineAddr) -> bool:
        if line in self.lockdowns:
            self.nacked.add(line)
            return True
        return False

    def lockdown_query(self, line: LineAddr) -> bool:
        return line in self.lockdowns

    def eviction_hook(self, line: LineAddr) -> None:
        return None

    # --- LoadRequest callbacks (bound methods: deepcopy-safe) --------------
    def _on_value(self, versioned, uncacheable: bool) -> None:
        self.load_results.append((self._current_load, versioned, uncacheable))

    def _on_retry(self, wait_for_sos: bool = True) -> None:
        self.load_retries += 1
        self.retry_addrs.append(self._current_addr)

    def _is_ordered(self) -> bool:
        return True  # scripted loads act as the SoS load

    def _is_unordered(self) -> bool:
        return False  # scripted speculative loads never become ordered

    def issue_spec_load(self, byte_addr: int) -> None:
        """Issue a load that reports itself unordered — on rcp it misses
        with a speculative (reversible) acquire instead of a stable
        read.  Other backends treat it as a plain load."""
        self._current_load = self._next_load
        self._current_addr = byte_addr
        self._next_load += 1
        request = LoadRequest(byte_addr=byte_addr,
                              is_ordered=self._is_unordered,
                              on_value=self._on_value,
                              on_must_retry=self._on_retry)
        self.cache.load(request)

    def issue_load(self, byte_addr: int) -> None:
        self._current_load = self._next_load
        self._current_addr = byte_addr
        self._next_load += 1
        request = LoadRequest(byte_addr=byte_addr,
                              is_ordered=self._is_ordered,
                              on_value=self._on_value,
                              on_must_retry=self._on_retry)
        self.cache.load(request)

    def issue_sos_load(self, byte_addr: int) -> None:
        """Issue a load with the SoS bypass: launch a fresh uncacheable
        read instead of piggybacking on a blocked same-line write MSHR
        (paper §3.5.2 — what a real core does for its SoS load once the
        directory hints the write is blocked)."""
        self._current_load = self._next_load
        self._current_addr = byte_addr
        self._next_load += 1
        request = LoadRequest(byte_addr=byte_addr,
                              is_ordered=self._is_ordered,
                              on_value=self._on_value,
                              on_must_retry=self._on_retry)
        self.cache.load(request, sos_bypass=True)

    def reissue_retries(self) -> int:
        """Reissue every bounced load once; returns how many."""
        addrs, self.retry_addrs = self.retry_addrs, []
        for addr in addrs:
            self.issue_load(addr)
        return len(addrs)

    def _on_granted(self) -> None:
        self.writes_granted += 1

    def request_write(self, line: LineAddr) -> None:
        self.cache.request_write(line, self._on_granted)

    def release_lockdown(self, line: LineAddr) -> None:
        self.lockdowns.discard(line)
        if line in self.nacked:
            self.nacked.discard(line)
            self.cache.send_deferred_ack(line)


class VerifSystem:
    """Protocol-only system (no pipelines) built for exploration.

    ``backend`` selects the coherence protocol under exploration (see
    :mod:`repro.coherence.backend`); directories and caches come from
    the backend's factories, so the explored objects are always the
    production controllers.  A backend without WritersBlock support
    (tardis) silently forces ``writers_block=False`` — the flag only
    parameterizes the baseline protocol.
    """

    def __init__(self, num_tiles: int = 4, *, writers_block: bool = True,
                 cache_params: Optional[CacheParams] = None,
                 backend: str = "baseline") -> None:
        self.backend = get_backend(backend)
        if not self.backend.supports_writers_block:
            writers_block = False
        self.events = EventQueue()
        self.stats = StatsRegistry()
        params = cache_params or CacheParams()
        self.network = BufferingNetwork(
            num_tiles, NetworkParams(model_contention=False), self.events,
            self.stats)
        self.dirs = [self.backend.build_directory(
            t, params, self.network, self.events, self.stats,
            writers_block=writers_block) for t in range(num_tiles)]
        self.caches = [self.backend.build_cache(
            t, params, self.network, self.events, self.stats,
            writers_block=writers_block) for t in range(num_tiles)]
        self.cores = [VerifCore(t) for t in range(num_tiles)]
        #: Scenario scratch space: lives on the system so it forks with
        #: it at each exploration branch (use instead of closure state).
        self.scratch: Dict[str, object] = {}
        for core, cache in zip(self.cores, self.caches):
            core.cache = cache
            cache.invalidation_hook = core.invalidation_hook
            cache.lockdown_query = core.lockdown_query
            cache.eviction_hook = core.eviction_hook

    def settle(self, limit: int = 100_000) -> None:
        """Run all locally scheduled events (not network deliveries)."""
        steps = 0
        while not self.events.empty:
            self.events.run_due()
            if self.events.empty:
                break
            self.events.advance_to_next_event()
            steps += 1
            if steps > limit:
                raise SimulationError("settle() did not converge")

    def fingerprint(self) -> Tuple:
        """Hashable summary of protocol-visible state.

        Backend-tolerant: baseline-only fields (sharer lists, deferred
        counts) and tardis-only fields (wts/rts leases, per-cache pts,
        the stale-lease ledger, spilled timestamps) are read with
        ``getattr`` defaults, so the same dedup key works for every
        registered protocol without over-merging states that differ
        only in timestamp bookkeeping.
        """
        pend = tuple(sorted(
            (m.msg_type.value, m.src, m.dst, m.dst_port, int(m.line),
             tuple(sorted((k, str(v)) for k, v in m.payload.items()
                          if k != "data")))
            for m in self.network.pending))
        caches = tuple(
            (tuple(sorted((int(line), entry.state.value,
                           getattr(entry, "wts", 0),
                           getattr(entry, "rts", 0))
                          for line, entry in cache._lines.items())),
             getattr(cache, "pts", 0),
             tuple(sorted((int(line), ts) for line, ts in
                          getattr(cache, "_stale_leases", {}).items())),
             tuple(sorted((int(line), n) for line, n in
                          getattr(cache, "_renew_fails", {}).items())))
            for cache in self.caches)
        mshrs = tuple(
            tuple(sorted((int(e.line), e.kind, e.acks_received,
                          str(e.acks_expected), e.has_data)
                         for e in cache.mshrs.entries()))
            for cache in self.caches)
        dirs = tuple(
            (tuple(sorted((int(line), entry.state.value, str(entry.owner),
                           tuple(sorted(getattr(entry, "sharers", ()))),
                           tuple(sorted(getattr(entry, "spec", ()))),
                           getattr(entry, "acks_left", 0),
                           len(entry.queue),
                           getattr(entry, "deferred_expected", 0),
                           getattr(entry, "wts", 0),
                           getattr(entry, "rts", 0),
                           str(getattr(entry, "reader", None)),
                           str(getattr(entry, "writer", None)),
                           getattr(entry, "fetching", False))
                          for line, entry in bank._array.items())),
             tuple(sorted(int(line) for line in bank._evicting)),
             tuple(sorted((int(line), ts) for line, ts in
                          getattr(bank, "_ts_memory", {}).items())))
            for bank in self.dirs)
        cores = tuple(
            (tuple(sorted(int(l) for l in core.lockdowns)),
             tuple(sorted(int(l) for l in core.nacked)),
             len(core.load_results), tuple(core.retry_addrs),
             core.writes_granted)
            for core in self.cores)
        return (pend, caches, mshrs, dirs, cores)


@dataclass
class ExplorationResult:
    states_explored: int = 0
    paths_completed: int = 0
    deduplicated: int = 0
    sleep_pruned: int = 0
    max_pending: int = 0
    violations: List[str] = field(default_factory=list)
    # Search telemetry (docs/verification.md): how the DFS spent its
    # budget, not just what it concluded.
    transitions: int = 0  # deliveries executed (children pushed)
    frontier_peak: int = 0  # deepest the DFS stack ever grew
    memoized: int = 0  # distinct fingerprints in the memo table
    depth_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of popped states answered by the memo table."""
        visits = self.states_explored + self.deduplicated
        return self.deduplicated / visits if visits else 0.0

    @property
    def sleep_prune_ratio(self) -> float:
        """Fraction of enabled deliveries the sleep sets never forked."""
        enabled = self.transitions + self.sleep_pruned
        return self.sleep_pruned / enabled if enabled else 0.0


def explore(setup: Callable[[VerifSystem], None],
            invariant: Callable[[VerifSystem], Optional[str]],
            final_check: Callable[[VerifSystem], Optional[str]], *,
            num_tiles: int = 4, writers_block: bool = True,
            max_states: int = 20_000, por: bool = True,
            backend: str = "baseline",
            cache_params: Optional[CacheParams] = None,
            on_quiescent: Optional[Callable[[VerifSystem], None]] = None,
            coverage=None,
            progress: Optional[Callable[[ExplorationResult], None]] = None,
            ) -> ExplorationResult:
    """Explore every delivery order of the scenario built by *setup*.

    ``invariant(system)`` runs at every explored state and returns an
    error string (or None); ``final_check(system)`` runs on each fully
    quiescent path end.  ``on_quiescent`` lets scenarios inject
    follow-up operations when the network drains (e.g. release a
    lockdown only after the invalidation arrived).

    With ``por=True`` (the default) the search carries *sleep sets*
    [Godefroid]: after exploring delivery ``t`` from a state, the
    siblings explored later inherit ``t`` in their sleep set as long as
    they are independent of it (different endpoint *and* different
    line, :meth:`BufferingNetwork.independent`), so the commuted
    ``t``-then-sibling order is never re-executed.  Both orders of an
    independent pair reach the same state, and the pruned path's
    intermediate states are exactly the states the explored path
    visits, so the reachable *state set* — hence every invariant check
    and every reachable deadlock — is preserved; only redundant
    transitions are dropped.  State memoization keeps the smallest
    sleep set seen per fingerprint: a revisit with a superset sleep set
    is pruned outright, a revisit that would explore *more* (smaller
    sleep) re-expands and records the intersection.

    A search cut short by ``max_states`` with states still on the stack
    is reported as a violation, never as ``ok``.

    ``coverage`` takes a :class:`repro.obs.coverage.CoverageObserver`:
    it attaches to the root system's controllers before ``setup`` and
    survives every ``deepcopy`` fork as a shared singleton, so one map
    accumulates the transitions of all explored interleavings.
    ``progress(result)`` fires every 2048 explored states (live
    telemetry for long exhaustive runs).
    """
    root = VerifSystem(num_tiles, writers_block=writers_block,
                       backend=backend, cache_params=cache_params)
    if coverage is not None:
        coverage.attach(*root.caches, *root.dirs)
    setup(root)
    root.settle()
    result = ExplorationResult()
    seen: Dict[Tuple, frozenset] = {}
    stack: List[Tuple[VerifSystem, frozenset, int]] = [(root, frozenset(), 0)]
    result.frontier_peak = 1
    while stack and result.states_explored < max_states:
        system, sleep, depth = stack.pop()
        fp = system.fingerprint()
        recorded = seen.get(fp)
        if recorded is not None and recorded <= sleep:
            result.deduplicated += 1
            continue
        seen[fp] = sleep if recorded is None else (recorded & sleep)
        result.states_explored += 1
        result.depth_histogram[depth] = \
            result.depth_histogram.get(depth, 0) + 1
        if progress is not None and result.states_explored % 2048 == 0:
            result.memoized = len(seen)
            progress(result)
        result.max_pending = max(result.max_pending,
                                 len(system.network.pending))
        problem = invariant(system)
        if problem:
            result.violations.append(problem)
            continue
        choices = system.network.deliverable()
        if not choices:
            if on_quiescent is not None:
                on_quiescent(system)
                system.settle()
                if system.network.pending or system.fingerprint() != fp:
                    stack.append((system, frozenset(), depth))
                    continue
            problem = final_check(system)
            if problem:
                result.violations.append(problem)
            result.paths_completed += 1
            continue
        keys = [BufferingNetwork.delivery_key(system.network.pending[i])
                for i in choices]
        if por:
            awake = [(i, k) for i, k in zip(choices, keys)
                     if k not in sleep]
            result.sleep_pruned += len(choices) - len(awake)
        else:
            awake = list(zip(choices, keys))
        if not awake:
            # Every enabled delivery commutes into an already-explored
            # sibling order; this state's continuations are covered.
            continue
        explored_here: List[Tuple] = []
        last = len(awake) - 1
        for position, (index, key) in enumerate(awake):
            # Nothing reads a state once its children are pushed, so the
            # last child is the state itself: k deliveries, k - 1 forks.
            child = system if position == last else copy.deepcopy(system)
            child.network.deliver(index)
            child.settle()
            result.transitions += 1
            if por:
                child_sleep = frozenset(
                    other for other in sleep.union(explored_here)
                    if BufferingNetwork.independent(other, key))
            else:
                child_sleep = frozenset()
            stack.append((child, child_sleep, depth + 1))
            explored_here.append(key)
        if len(stack) > result.frontier_peak:
            result.frontier_peak = len(stack)
    if stack:
        result.violations.append(
            f"exploration truncated at max_states={max_states}: "
            f"{result.states_explored} states explored, "
            f"{len(stack)} still on the stack")
    result.memoized = len(seen)
    return result
