"""Three-way differential checking and the tier-1 corpus slice."""

import copy

from repro.common.types import CommitMode
from repro.conform.differential import check_test, default_delays
from repro.conform.model import axiomatic_outcomes, operational_outcomes
from repro.conform.runner import (ConformanceResult, load_corpus,
                                  run_conformance, tier1_slice)


def corpus():
    return {test.name: test for test in load_corpus()}


def test_default_delay_grid_shape():
    grid = default_delays(3)
    assert grid[0] == (0, 0, 0)
    assert (40, 0, 0) in grid and (0, 40, 0) in grid and (0, 0, 40) in grid
    assert len(grid) == 4


def test_operational_subset_of_axiomatic_on_samples():
    tests = corpus()
    for name in ("MP+po+po", "SB+po+po", "SB+mf+mf", "IRIW+po+po",
                 "WRC+po+po", "ISA24+po+po+po+po"):
        test = tests[name]
        assert operational_outcomes(test) <= axiomatic_outcomes(test), name


def test_check_test_clean_on_protected_mode():
    tests = corpus()
    for name in ("MP+po+slow", "SB+mf+mf", "CORR3+po+slow"):
        report = check_test(tests[name], perturb=1, seed=0)
        assert report.ok, (name, [v.detail for v in report.violations])
        assert report.sim_runs == len(tests[name].threads) + 2
        assert report.sim_outcomes
        assert report.operational_count >= 1
        assert report.axiomatic_count >= report.operational_count


def test_expectation_mismatch_is_flagged():
    """Tampering the hand-encoded verdict must trip the cross-check
    against the operational machine (both directions)."""
    tests = corpus()
    wrong_forbidden = copy.deepcopy(tests["SB+po+po"])  # actually allowed
    wrong_forbidden.expect = "forbidden"
    report = check_test(wrong_forbidden, perturb=0, delays=[(0, 0)])
    assert any(v.kind == "expectation-mismatch" for v in report.violations)

    wrong_allowed = copy.deepcopy(tests["MP+mf+mf"])  # actually forbidden
    wrong_allowed.expect = "allowed"
    report = check_test(wrong_allowed, perturb=0, delays=[(0, 0)])
    assert any(v.kind == "expectation-mismatch" for v in report.violations)


def test_unsafe_commit_mode_is_caught_with_witnesses():
    """OOO_UNSAFE exhibits the paper's forbidden reorder; every
    simulator-side violation must carry a replayable witness."""
    report = check_test(corpus()["CORR3+po+slow"],
                        mode=CommitMode.OOO_UNSAFE, perturb=2, seed=0)
    kinds = {v.kind for v in report.violations}
    assert "forbidden-outcome" in kinds
    assert "sim-not-operational" in kinds
    assert "checker-violation" in kinds
    for violation in report.violations:
        assert violation.witness is not None
        assert violation.witness["schema"] == "repro-witness/1"


def test_tier1_slice_is_deterministic_and_stratified():
    tests = load_corpus()
    sliced = tier1_slice(tests)
    assert sliced == tier1_slice(tests)
    assert len(sliced) < len(tests)
    assert {t.family for t in sliced} == {t.family for t in tests}
    names = {t.name for t in tests}
    assert all(t.name in names for t in sliced)


def test_run_conformance_slice_is_clean(tmp_path):
    """The tier-1 slice: zero violations, zero witnesses written."""
    result = run_conformance(tier1_slice(load_corpus()),
                             witness_dir=tmp_path, perturb=1, seed=0)
    assert isinstance(result, ConformanceResult)
    assert result.ok, [v.detail for v in result.violations]
    assert not list(tmp_path.iterdir())
    payload = result.to_payload()
    assert payload["schema"] == "repro-conformance/1"
    assert payload["tests"] == len(result.reports)
    families = {row["family"] for row in payload["families"]}
    assert {"mp", "sb", "iriw", "corr3"} <= families


def test_stage_seconds_are_additive_to_the_payload(capsys):
    """Stage timers ride along without moving any other payload field,
    and ``repro conform`` prints them to stderr only."""
    tests = corpus()
    sample = [tests[name] for name in ("MP+po+po", "SB+mf+mf")]
    payloads = [run_conformance(sample, perturb=1, seed=0).to_payload()
                for __ in range(2)]
    stages = [payload.pop("stage_seconds") for payload in payloads]
    assert payloads[0] == payloads[1]
    for totals in stages:
        assert set(totals) == {"operational", "axiomatic", "simulation",
                               "exploration"}
        assert all(seconds >= 0 for seconds in totals.values())
        assert totals["operational"] > 0 and totals["simulation"] > 0
        assert totals["exploration"] == 0  # explore=False

    from repro.cli import main

    assert main(["conform", "--only", "MP+po+po", "--no-explore",
                 "--perturb", "0"]) == 0
    out, err = capsys.readouterr()
    assert "stages:" not in out
    assert err.count("stages: operational=") == 1


def test_model_parametric_check_on_samples():
    """The same test checked under sc/tso/rmo: sim phase only where
    the hardware satisfies the model, per-model expectation applied."""
    tests = corpus()
    sb = tests["SB+po+po"]
    sc_report = check_test(sb, model="sc", perturb=0, delays=[(0, 0)])
    assert sc_report.model == "sc"
    assert sc_report.sim_runs == 0  # TSO hardware exceeds SC: skipped
    assert sc_report.ok, [v.detail for v in sc_report.violations]
    rmo_report = check_test(tests["MP+po+po"], model="rmo",
                            perturb=1, seed=0)
    assert rmo_report.model == "rmo"
    assert rmo_report.sim_runs > 0  # TSO hardware satisfies RMO
    assert rmo_report.ok, [v.detail for v in rmo_report.violations]


def test_run_conformance_records_model(tmp_path):
    slice_ = [t for t in tier1_slice(load_corpus())
              if t.family in ("r", "2+2w")]
    result = run_conformance(slice_, model="rmo", witness_dir=tmp_path,
                             perturb=0, seed=0)
    assert result.ok, [v.detail for v in result.violations]
    assert result.to_payload()["model"] == "rmo"


def test_full_corpus_is_clean_when_slow(slow):
    """--slow / nightly: the whole 344-test corpus, zero violations,
    under every model spec."""
    if not slow:
        return
    result = run_conformance(load_corpus(), perturb=2, seed=0, explore=True)
    assert result.ok, [v.detail for v in result.violations]
    assert len(result.reports) >= 300
    for model in ("sc", "rmo"):
        result = run_conformance(load_corpus(), model=model,
                                 perturb=2, seed=0)
        assert result.ok, (model, [v.detail for v in result.violations])
