"""The explorer's search is exact: counts, coverage and fork sharing.

The per-scenario counts and coverage maps below were recorded before
forks were made cheaper (the last child reusing its parent, shared
immutable objects, class-level dispatch tables).  Fork mechanics must
never change what the search visits, so every value stays pinned.
"""

import enum
import gc
import types
from typing import Dict, NamedTuple, Tuple

import pytest

from repro.coherence.backend import CoherenceBackend
from repro.common.params import CacheParams, NetworkParams
from repro.common.types import LineAddr
from repro.conform import scenarios
from repro.network.topology import MeshTopology
from repro.obs.coverage import CoverageObserver, format_transition
from repro.verification import BufferingNetwork, VerifSystem, explorer


class Search(NamedTuple):
    states: int
    transitions: int
    paths: int
    deduplicated: int
    sleep_pruned: int
    memoized: int
    frontier_peak: int
    max_pending: int
    #: Explored states per depth, from depth 0 up.
    depths: Tuple[int, ...]


def _search(result) -> Search:
    histogram = result.depth_histogram
    assert sorted(histogram) == list(range(len(histogram)))
    return Search(result.states_explored, result.transitions,
                  result.paths_completed, result.deduplicated,
                  result.sleep_pruned, result.memoized, result.frontier_peak,
                  result.max_pending,
                  tuple(histogram[depth] for depth in range(len(histogram))))


PINNED = {
    ("baseline", "mp"): Search(
        221, 343, 1, 125, 166, 210, 13, 4,
        (1, 3, 7, 11, 12, 12, 12, 12, 11, 9, 5, 2, 2, 5, 10, 15, 18, 19, 20,
         17, 9, 4, 2, 1, 1, 1)),
    ("baseline", "sos"): Search(
        52, 56, 1, 8, 33, 51, 5, 3,
        (1, 1, 1, 2, 1, 1, 2, 1, 2, 3, 6, 8, 8, 7, 3, 2, 1, 1, 1)),
    ("tardis", "tardis_lease"): Search(
        48, 60, 1, 15, 21, 47, 7, 3,
        (1, 3, 6, 7, 6, 4, 2, 1, 2, 2, 4, 4, 3, 2, 1)),
    ("tardis", "tardis_recall"): Search(
        22, 18, 1, 0, 8, 22, 2, 2,
        (1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 2)),
    ("rcp", "rcp_confirm"): Search(
        67, 70, 1, 7, 44, 66, 3, 3,
        (1, 2, 3, 2, 2, 3, 6, 8, 9, 9, 8, 4, 2, 2, 1, 1, 1, 2, 1)),
    ("rcp", "rcp_reversal"): Search(
        271, 388, 2, 123, 162, 269, 15, 5,
        (1, 4, 12, 22, 30, 34, 34, 29, 23, 15, 12, 7, 8, 5, 6, 5, 5, 4, 5, 4,
         3, 2, 1)),
}

#: ``sos`` without partial-order reduction: every delivery order.
PINNED_SOS_NO_POR = Search(
    51, 88, 1, 41, 0, 51, 10, 3,
    (1, 1, 1, 2, 1, 1, 2, 1, 2, 3, 6, 8, 8, 6, 3, 2, 1, 1, 1))

#: backend -> (scenario, {transition: count}) for one exploration.
PINNED_COVERAGE: Dict[str, Tuple[str, Dict[str, int]]] = {
    "baseline": ("sos", {
        "cache: E --FWD_GETX--> I [DATA+NACK_DATA]": 1,
        "cache: I --ACK--> M [UNBLOCK]": 1,
        "cache: I --BLOCKED_HINT--> I [-]": 1,
        "cache: I --DATA--> I [-]": 2,
        "cache: I --DATA_EXCL--> E [UNBLOCK]": 1,
        "cache: I --DATA_EXCL--> M [UNBLOCK]": 9,
        "cache: I --DATA_UNCACHEABLE--> I [-]": 13,
        "cache: I --load--> I [GETS]": 2,
        "cache: I --load_sos--> I [GETS]": 1,
        "cache: I --write--> I [GETX]": 2,
        "dir: BUSY_READ --UNBLOCK--> M [-]": 1,
        "dir: BUSY_WRITE --NACK_DATA--> WRITERS_BLOCK [BLOCKED_HINT]": 2,
        "dir: BUSY_WRITE --UNBLOCK--> M [-]": 9,
        "dir: I --GETS--> I [-]": 1,
        "dir: I --GETX--> I [-]": 4,
        "dir: M --GETX--> BUSY_WRITE [FWD_GETX]": 1,
        "dir: WRITERS_BLOCK --DEFERRED_ACK--> WRITERS_BLOCK [ACK]": 1,
        "dir: WRITERS_BLOCK --GETS--> WRITERS_BLOCK [DATA_UNCACHEABLE]": 8,
        "dir: WRITERS_BLOCK --UNBLOCK--> M [-]": 1,
    }),
    "tardis": ("tardis_lease", {
        "cache: I --DATA--> S [-]": 22,
        "cache: I --DATA_EXCL--> M [-]": 1,
        "cache: I --load--> I [GETS]": 3,
        "cache: I --write--> I [GETX]": 1,
        "cache: M --RECALL--> S [RECALL_ACK]": 4,
        "cache: M --store--> M [-]": 1,
        "cache: S --DATA--> S [-]": 6,
        "cache: S --load--> S [RENEW]": 2,
        "dir: BUSY_READ --RECALL_ACK--> S [DATA]": 4,
        "dir: BUSY_READ --RENEW--> BUSY_READ [-]": 4,
        "dir: I --GETS--> I [-]": 6,
        "dir: M --RENEW--> BUSY_READ [RECALL]": 2,
        "dir: S --GETS--> S [DATA]": 6,
        "dir: S --GETX--> M [DATA_EXCL]": 1,
        "dir: S --RENEW--> S [DATA]": 4,
    }),
    "rcp": ("rcp_confirm", {
        "cache: I --DATA--> S [-]": 3,
        "cache: I --DATA--> SPEC [-]": 3,
        "cache: I --DATA_EXCL--> M [-]": 16,
        "cache: I --load--> I [GETS]": 1,
        "cache: I --load--> I [GETS_SPEC]": 2,
        "cache: I --write--> I [GETX]": 2,
        "cache: M --RECALL--> S [RECALL_ACK]": 1,
        "cache: M --store--> M [-]": 1,
        "cache: S --INV--> I [ACK]": 10,
        "cache: S --UNDO--> I [UNDO_ACK]": 4,
        "cache: SPEC --load--> S [CONFIRM]": 2,
        "cache: SPEC --load--> SPEC [-]": 2,
        "dir: BUSY_READ --RECALL_ACK--> S [DATA]": 1,
        "dir: BUSY_WRITE --ACK--> M [DATA_EXCL]": 13,
        "dir: BUSY_WRITE --CONFIRM--> BUSY_WRITE [-]": 4,
        "dir: BUSY_WRITE --UNDO_ACK--> M [DATA_EXCL]": 3,
        "dir: I --GETS--> I [-]": 2,
        "dir: I --GETS_SPEC--> I [-]": 1,
        "dir: M --GETS_SPEC--> BUSY_READ [RECALL]": 1,
        "dir: S --CONFIRM--> S [-]": 3,
        "dir: S --GETX--> BUSY_WRITE [INV]": 4,
        "dir: S --GETX--> BUSY_WRITE [UNDO]": 1,
    }),
}


def test_six_scenarios_pinned():
    assert sorted(PINNED) == sorted(
        (backend, name) for backend, names in scenarios.SCENARIO_SETS.items()
        for name in names)
    for (backend, name), pinned in PINNED.items():
        result = scenarios.SCENARIO_SETS[backend][name](por=True)
        assert result.ok, (name, result.violations[:3])
        assert _search(result) == pinned, name


def test_sos_without_por_pinned():
    result = scenarios.explore_sos(por=False)
    assert result.ok, result.violations[:3]
    assert _search(result) == PINNED_SOS_NO_POR


@pytest.mark.parametrize("backend", sorted(PINNED_COVERAGE))
def test_exploration_coverage_pinned(backend):
    name, pinned = PINNED_COVERAGE[backend]
    observer = CoverageObserver(backend, source="explore")
    scenarios.SCENARIO_SETS[backend][name](coverage=observer)
    counts = {format_transition(transition): per_source["explore"]
              for transition, per_source in observer.counts.items()}
    assert counts == pinned


# ------------------------------------------------------------ fork sharing
#: Objects a fork shares with its parent by design: immutable values
#: and the stateless or memo-only singletons.  Class objects and the
#: plain functions behind bound methods are code, shared as well.
SHARED_BY_DESIGN = (LineAddr, enum.Enum, CoverageObserver, CacheParams,
                    NetworkParams, MeshTopology, CoherenceBackend)
IMMUTABLE = (int, float, str, bytes, type(None), tuple, frozenset)


def _reachable(root) -> Dict[int, object]:
    """id -> object for everything reachable from *root*, not looking
    inside the by-design shared objects, classes and modules.  Functions
    are followed only into their closure cells (their globals are the
    module, not state)."""
    found: Dict[int, object] = {}
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, (type, types.ModuleType) + SHARED_BY_DESIGN):
            continue
        if isinstance(obj, types.FunctionType):
            todo.extend(obj.__closure__ or ())
            continue
        todo.extend(gc.get_referents(obj))
    return found


def _unexpected_sharing(sibling, parent):
    left, right = _reachable(sibling), _reachable(parent)
    allowed = set()
    for obj in left.values():
        if isinstance(obj, MeshTopology):  # the route memo goes with it
            allowed.update(_reachable(vars(obj)))
    bad = []
    for key in left.keys() & right.keys():
        obj = left[key]
        if key in allowed or isinstance(
                obj, IMMUTABLE + SHARED_BY_DESIGN + (type, types.ModuleType)):
            continue
        if isinstance(obj, types.FunctionType) and obj.__closure__ is None:
            continue
        bad.append(obj)
    return bad


@pytest.mark.parametrize("backend, name", [
    ("baseline", "sos"), ("tardis", "tardis_lease"), ("rcp", "rcp_confirm")])
def test_fork_shares_only_immutable_state(backend, name, monkeypatch):
    """The first fork of a state with two or more children: the copied
    sibling and the parent (which the last child reuses) share nothing
    mutable, neither at the fork nor after both were explored."""
    forks = []
    delivered_into = set()
    deepcopy = explorer.copy.deepcopy

    def recording_deepcopy(obj, memo=None):
        clone = deepcopy(obj, memo)
        if isinstance(obj, VerifSystem) and not forks:
            assert _unexpected_sharing(clone, obj) == []
            forks.append((clone, obj))
        return clone

    deliver = BufferingNetwork.deliver

    def recording_deliver(network, index):
        delivered_into.add(id(network))
        return deliver(network, index)

    monkeypatch.setattr(explorer, "copy",
                        types.SimpleNamespace(deepcopy=recording_deepcopy))
    monkeypatch.setattr(BufferingNetwork, "deliver", recording_deliver)
    observer = CoverageObserver(backend)
    result = scenarios.SCENARIO_SETS[backend][name](coverage=observer)
    assert result.ok, result.violations[:3]
    sibling, parent = forks[0]
    # The parent was reused as its own last child.
    assert id(parent.network) in delivered_into
    assert sibling.caches[0]._cov is observer is parent.caches[0]._cov
    assert sibling.network.topology is parent.network.topology
    assert _unexpected_sharing(sibling, parent) == []
