"""Self-tests of the benchmark: output shape, failure counting,
determinism and the tracer's bookkeeping.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
import probe as probe_module  # noqa: E402
from probe import HostProbe  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROBE = HostProbe()

WORKLOADS = ("conform", "explore", "splash16")

#: Named metrics each workload prints beside the bounded ones.
NAMED = {
    "splash16": ("sims_per_s", "sim_cycles_per_s", "sim_instrs_per_s",
                 "sim_ms_p50", "sim_ipc", "peak_rss_mb", "fail_frac"),
    "conform": ("sims_per_s", "sim_cycles_per_s", "sim_instrs_per_s",
                "sim_ms_p50", "tests_per_s", "peak_rss_mb", "fail_frac"),
    "explore": ("states_per_s", "peak_rss_mb", "fail_frac"),
}


def tiny_run(workload: str, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    return completed


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    completed = tiny_run(workload, trace)
    result = last_json(completed)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        for name in declared:
            assert result["metrics"][name["name"]]["value"] != 0, name
        lines = completed.stdout.splitlines()
        for name in NAMED[workload]:
            assert any(line.split()[:1] == [name] for line in lines), name


def test_injected_check_failure_counts_instead_of_crashing(monkeypatch):
    """Negative control: a quiescence checker that raises on the second
    simulation fails exactly that operation; the pass runs to the end."""
    from repro.coherence import invariants
    from repro.common.errors import ProtocolError

    real = invariants.check_quiescent
    calls = []

    def flaky(system):
        calls.append(system)
        if len(calls) == 2:
            raise ProtocolError("injected")
        real(system)

    monkeypatch.setattr(invariants, "check_quiescent", flaky)
    ops = workloads.conform_ops(3)[:3]
    measured = workloads.measure(ops, 0.0, PROBE, max_passes=1)
    failed = [r for r in measured.results if not r.ok]
    assert len(measured.results) == 3 and len(failed) == 1
    assert "injected" in failed[0].error
    assert len(calls) > 2  # later simulations still ran


def test_failed_exploration_counts(monkeypatch):
    from repro.conform import scenarios

    real = scenarios.SCENARIO_SETS["tardis"]["tardis_recall"]

    def broken(**kwargs):
        found = real(**kwargs)
        found.violations.append("injected")
        return found

    monkeypatch.setitem(scenarios.SCENARIO_SETS["tardis"], "tardis_recall",
                        broken)
    ops = [op for op in workloads.explore_ops(0)
           if op.name.startswith("tardis/")]
    results = workloads.measure(ops, 0.0, PROBE, max_passes=1).results
    assert [(r.name, r.ok) for r in results] == [
        ("tardis/tardis_lease", True), ("tardis/tardis_recall", False)]


def test_simulated_figures_repeat_exactly():
    """sim_ipc, the simulated counters and sim_digest are identical
    across two separate runs of the same seed."""
    runs = [tiny_run("conform", 1) for __ in range(2)]
    metrics = [last_json(run)["metrics"] for run in runs]
    simulated = [name for name, metric in metrics[0].items()
                 if metric["unit"] in ("count", "instr/cycle")
                 and not name.startswith("trace.")]
    assert "sim.ipc" in simulated and "network.flits" in simulated
    for name in simulated:
        assert metrics[0][name] == metrics[1][name], name
    digests = [[line for line in run.stdout.splitlines()
                if line.startswith("sim_digest ")] for run in runs]
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_repeated_passes_match_and_a_mismatch_fails():
    ops = workloads.conform_ops(5)[:2]
    measured = workloads.measure(ops, 0.0, PROBE, min_passes=2,
                                 max_passes=2)
    first, second = measured.passes
    assert [r.digest for r in first] == [r.digest for r in second]
    assert all(r.ok for r in measured.results)
    second[0].digest = "0" * 64
    workloads.check_repeats(first, [second])
    assert not second[0].ok and second[1].ok


def test_untraced_run_installs_no_wrapper():
    snapshot = Tracer.originals()
    seen = []

    def check(result):
        seen.append(Tracer.untouched(snapshot))

    op = workloads.Operation("check", check)
    workloads.measure([op], 0.0, PROBE, max_passes=1)
    tracer = Tracer()
    with tracer.installed():
        workloads.measure([op], 0.0, PROBE, max_passes=1)
    assert seen == [True, False]
    assert Tracer.untouched(snapshot)


def test_self_times_add_up_to_traced_wall():
    ops = workloads.conform_ops(1)[:2] + workloads.explore_ops(1)[3:4]
    tracer = Tracer()
    with tracer.installed():
        measured = workloads.measure(
            ops, 0.0, PROBE, max_passes=1,
            span=lambda index: tracer.span(OP_SPAN, index))
    online = {name: seconds for name, (calls, seconds)
              in tracer.totals().items() if calls}
    derived = tracer.recomputed_self_times()
    assert online.keys() == derived.keys()
    for name in online:
        assert online[name] == pytest.approx(derived[name], abs=1e-6)
    # Every span sits inside an operation span, so the self times add
    # up to the time spent in operations, which the wall time covers.
    assert sum(online.values()) == pytest.approx(tracer.root_time, abs=1e-6)
    assert 0 < tracer.root_time <= measured.wall_s
    for name in ("conform.check", "conform.litmus", "sim.run", "core.tick",
                 "consistency.check", "verification.fork",
                 "verification.explore", "event_queue.run_due"):
        assert tracer.count(name) > 0, name
    ops_of_spans = set(tracer.span_op)
    assert ops_of_spans == {0, 1, 2}


def test_spans_dump_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        workloads.measure(workloads.explore_ops(0)[2:3], 0.0, PROBE,
                          max_passes=1,
                          span=lambda index: tracer.span(OP_SPAN, index))
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    header, packed = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    assert header["spans"] == len(tracer.span_start) > 0
    import zlib
    assert len(zlib.decompress(packed)) == 26 * header["spans"]


def test_probe_runs_do_identical_work():
    probe = HostProbe()
    sent = []
    for __ in range(3):
        before = sum(agent.sent for agent in probe.agents)
        probe.sample()
        sent.append(sum(agent.sent for agent in probe.agents) - before)
    assert sent[0] == sent[1] == sent[2] > 0
    assert probe.normalize(2.0, 0.01, 0.03) == pytest.approx(
        2.0 * probe_module.NOMINAL_S / 0.02)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == list(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    """Run from a directory holding only BENCHMARK.json and the
    benchmark's own files: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
