"""Explorer fork count: a state with k deliveries to explore forks k - 1
times, because its last child reuses the state itself.

Forks are the explorer's dominant cost, so the per-pass count over the
six exploration scenarios is pinned.  Every child used to be a fresh
deep copy (935 forks per pass, one per transition).
"""

import types

from repro.conform import scenarios
from repro.verification import BufferingNetwork, VerifSystem, explorer

#: VerifSystem deep copies per pass over every backend's scenarios.
FORKS_PER_PASS = 365


def test_forks_equal_transitions_minus_expanded_states(monkeypatch):
    tally = {"forks": 0, "expanded": 0, "fresh": False}
    deepcopy = explorer.copy.deepcopy
    fingerprint = VerifSystem.fingerprint
    deliver = BufferingNetwork.deliver

    def counting_deepcopy(obj, memo=None):
        if isinstance(obj, VerifSystem):
            tally["forks"] += 1
        return deepcopy(obj, memo)

    # The explorer fingerprints each state it pops, then delivers into
    # its children: the first delivery after a fingerprint marks a state
    # with at least one delivery to explore.
    def marking_fingerprint(system):
        tally["fresh"] = True
        return fingerprint(system)

    def counting_deliver(network, index):
        if tally["fresh"]:
            tally["expanded"] += 1
            tally["fresh"] = False
        return deliver(network, index)

    monkeypatch.setattr(explorer, "copy",
                        types.SimpleNamespace(deepcopy=counting_deepcopy))
    monkeypatch.setattr(VerifSystem, "fingerprint", marking_fingerprint)
    monkeypatch.setattr(BufferingNetwork, "deliver", counting_deliver)
    total = 0
    for backend, named in sorted(scenarios.SCENARIO_SETS.items()):
        for name, scenario in sorted(named.items()):
            tally.update(forks=0, expanded=0, fresh=False)
            result = scenario(por=True)
            assert result.ok, (name, result.violations[:3])
            assert 0 < tally["expanded"] <= result.states_explored
            assert tally["forks"] == \
                result.transitions - tally["expanded"], name
            total += tally["forks"]
    assert total == FORKS_PER_PASS
