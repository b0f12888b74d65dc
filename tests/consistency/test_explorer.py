"""Bounded exploration of the protocol under all delivery orders."""

import pytest

from repro.common.types import CacheState, DirState, LineAddr
from repro.conform.scenarios import explore_mp
from repro.verification import (
    VerifSystem,
    combined_invariant,
    explore,
    no_residue,
)

LINE = LineAddr(0x40)
ADDR = 0x1000


def final_all_done(expect_loads=0, expect_grants=0):
    def check(system):
        residue = no_residue(system)
        if residue:
            return residue
        loads = sum(len(core.load_results) for core in system.cores)
        grants = sum(core.writes_granted for core in system.cores)
        if loads < expect_loads:
            return f"only {loads}/{expect_loads} loads completed"
        if grants < expect_grants:
            return f"only {grants}/{expect_grants} writes granted"
        return None
    return check


def test_read_read_write_explores_clean():
    """Two readers then a writer: every delivery order must preserve
    SWMR and terminate with the write granted."""

    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].issue_load(ADDR)

    def on_quiescent(system):
        # Once both reads settled, inject the write exactly once.
        # (Scratch lives on the system, so it forks with each branch.)
        if not system.scratch.get("write") and sum(
                len(c.load_results) for c in system.cores) == 2:
            system.scratch["write"] = True
            system.cores[1].request_write(LINE)

    result = explore(setup, combined_invariant,
                     final_all_done(expect_loads=2, expect_grants=1),
                     on_quiescent=on_quiescent)
    assert result.ok, result.violations
    assert result.paths_completed >= 1
    assert result.states_explored > 2


def test_concurrent_writers_all_orders():
    """Two racing writers: all interleavings serialize correctly."""

    def setup(system):
        system.cores[0].request_write(LINE)
        system.cores[1].request_write(LINE)

    result = explore(setup, combined_invariant,
                     final_all_done(expect_grants=2))
    assert result.ok, result.violations
    assert result.paths_completed >= 1


def test_read_vs_write_race_all_orders():
    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].request_write(LINE)

    result = explore(setup, combined_invariant,
                     final_all_done(expect_loads=1, expect_grants=1))
    assert result.ok, result.violations


def test_lockdown_write_block_all_orders():
    """The WritersBlock handshake under every delivery order: a reader
    holds a lockdown; the writer must stay blocked until the deferred
    ack, in all interleavings, and every path must terminate."""

    def setup(system):
        system.cores[0].issue_load(ADDR)

    def on_quiescent(system):
        core0, core1 = system.cores[0], system.cores[1]
        if not system.scratch.get("locked") and core0.load_results:
            system.scratch["locked"] = True
            core0.lockdowns.add(LINE)
            return
        if system.scratch.get("locked") and not system.scratch.get("write"):
            system.scratch["write"] = True
            core1.request_write(LINE)
            return
        # Release the lockdown once the invalidation was Nacked.
        if LINE in core0.nacked:
            core0.release_lockdown(LINE)

    def invariant(system):
        problem = combined_invariant(system)
        if problem:
            return problem
        # The writer must never be granted while the lockdown holds.
        if LINE in system.cores[0].lockdowns \
                and system.cores[1].writes_granted:
            return "write granted while lockdown held"
        return None

    result = explore(setup, invariant,
                     final_all_done(expect_loads=1, expect_grants=1),
                     on_quiescent=on_quiescent)
    assert result.ok, result.violations
    assert result.paths_completed >= 1


def test_broken_invariant_is_reported():
    """Sanity: an impossible invariant must produce violations."""

    def setup(system):
        system.cores[0].issue_load(ADDR)

    result = explore(setup, lambda s: "always broken",
                     lambda s: None)
    assert not result.ok
    assert "always broken" in result.violations[0]


def test_three_tile_invalidation_fanout():
    """Two sharers invalidated by a third writer: acks from different
    sharers race in every order."""

    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].issue_load(ADDR)

    def on_quiescent(system):
        if not system.scratch.get("write") and sum(
                len(c.load_results) for c in system.cores) == 2:
            system.scratch["write"] = True
            system.cores[2].request_write(LINE)

    result = explore(setup, combined_invariant,
                     final_all_done(expect_loads=2, expect_grants=1),
                     on_quiescent=on_quiescent)
    assert result.ok, result.violations
    assert result.states_explored > 5


def test_fingerprint_dedup_reduces_state_count():
    """Symmetric scenarios must be deduplicated by fingerprinting."""

    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].issue_load(ADDR + 8)  # same line, both readers

    result = explore(setup, combined_invariant,
                     final_all_done(expect_loads=2))
    assert result.ok, result.violations
    # The search converges (dedup or small state count), not explodes.
    assert result.states_explored < 2000


def test_explorer_telemetry_is_consistent():
    """The telemetry counters the conform/coverage paths consume must
    agree with each other: the depth histogram partitions the explored
    states, memoization covers every unique fingerprint, and the
    derived ratios stay in [0, 1]."""

    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].request_write(LINE)

    result = explore(setup, combined_invariant,
                     final_all_done(expect_loads=1, expect_grants=1))
    assert result.ok, result.violations
    assert result.transitions > 0
    assert result.frontier_peak >= 1
    assert sum(result.depth_histogram.values()) == result.states_explored
    assert result.memoized == result.states_explored
    assert 0.0 <= result.memo_hit_rate <= 1.0
    assert 0.0 <= result.sleep_prune_ratio <= 1.0


def test_explorer_progress_and_coverage_hooks():
    """`explore(coverage=...)` funnels every fork into one observer and
    the progress callback observes monotone state counts."""
    from repro.obs.coverage import CoverageObserver

    observer = CoverageObserver("baseline", source="explore")
    seen = []

    def setup(system):
        system.cores[0].issue_load(ADDR)
        system.cores[1].request_write(LINE)

    result = explore(setup, combined_invariant, lambda s: None,
                     coverage=observer, progress=seen.append)
    assert result.ok, result.violations
    assert observer.counts, "exploration recorded no transitions"
    # One delivery can fire several component transitions (cache + dir),
    # so the observer's tally dominates the explorer's delivery count.
    assert sum(observer.to_map().source_totals("baseline").values()) \
        >= result.transitions
    assert seen == sorted(seen)


def test_explorer_respects_max_states():
    def setup(system):
        for core in system.cores:
            core.issue_load(ADDR)
            core.request_write(LINE)

    result = explore(setup, combined_invariant, lambda s: None,
                     max_states=50)
    assert result.states_explored <= 50
    # A search cut short by its budget has not verified anything.
    assert not result.ok
    assert len(result.violations) == 1
    assert result.violations[0].startswith(
        "exploration truncated at max_states=50: 50 states explored, ")
    assert result.violations[0].endswith(" still on the stack")


def test_truncated_scenario_is_not_ok():
    """explore_mp used to report ok with 0 completed paths at a budget
    of 10 states; under the default budget it finishes and stays ok."""
    cut = explore_mp(max_states=10)
    assert not cut.ok
    assert cut.paths_completed == 0
    assert len(cut.violations) == 1
    assert cut.violations[0].startswith(
        "exploration truncated at max_states=10: 10 states explored, ")
    full = explore_mp()
    assert full.ok, full.violations[:3]
    assert full.paths_completed >= 1
