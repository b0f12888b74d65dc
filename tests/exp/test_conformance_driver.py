"""The ``conformance`` bench driver: payload shape and byte-stability.

The driver runs inline (engine-independent), so its text table and
rows must be identical no matter which engine configuration carries it
— the BENCH_conformance.json stability the roadmap demands across
serial, pooled, and cache-replay runs.
"""

import json

from repro.conform import differential
from repro.exp.bench import run_bench
from repro.exp.drivers import DRIVERS, BenchConfig, conformance_driver
from repro.exp.engine import ExperimentEngine

QUICK_CFG = BenchConfig(benches=("fft",), cores=4, scale=0.25)


def test_quick_scale_runs_the_tier1_slice(monkeypatch):
    enumerated = []
    for name in ("operational_outcomes", "axiomatic_outcomes"):
        enumerate_fn = getattr(differential, name)

        def counting(test, model="tso", _name=name, _fn=enumerate_fn):
            enumerated.append((_name, test.name,
                               getattr(model, "name", model)))
            return _fn(test, model)

        monkeypatch.setattr(differential, name, counting)
    report = conformance_driver(QUICK_CFG, ExperimentEngine(1))
    # The references are backend-independent: each (test, model) pair
    # is enumerated once for the whole backend matrix.
    assert len(enumerated) == len(set(enumerated)) \
        == 2 * report.totals["tests"]
    assert report.name == "conformance"
    assert report.totals["sliced"] is True
    assert report.totals["ok"] is True
    assert report.totals["violations"] == 0
    assert 30 <= report.totals["tests"] < 100
    families = {row["family"] for row in report.rows if "family" in row}
    assert {"mp", "sb", "iriw", "corr3", "isa24"} <= families
    # Every backend of the matrix ran the same slice under its
    # strongest supported commit mode, sim ⊆ operational throughout.
    backends = report.totals["backends"]
    assert set(backends) == {"baseline", "rcp", "tardis"}
    assert backends["baseline"]["mode"] == "ooo-wb"
    assert backends["rcp"]["mode"] == "ooo"
    assert backends["tardis"]["mode"] == "ooo"
    for info in backends.values():
        assert info["ok"] is True
        assert info["tests"] == report.totals["tests"]
        assert info["violations"] == 0
    explorations = [row for row in report.rows if "exploration" in row]
    assert {(row["backend"], row["exploration"]) for row in explorations} \
        == {("baseline", "mp"), ("baseline", "sos"),
            ("rcp", "rcp_confirm"), ("rcp", "rcp_reversal"),
            ("tardis", "tardis_lease"), ("tardis", "tardis_recall")}
    for row in explorations:
        assert row["ok"] is True
        assert row["sleep_pruned"] > 0


def test_driver_is_engine_independent_and_byte_stable():
    serial = conformance_driver(QUICK_CFG, ExperimentEngine(1))
    pooled = conformance_driver(QUICK_CFG, ExperimentEngine(2))
    assert serial.text == pooled.text
    assert serial.rows == pooled.rows
    assert serial.totals == pooled.totals


def test_bench_json_round_trip(tmp_path):
    assert "conformance" in DRIVERS
    (run,) = run_bench(["conformance"], QUICK_CFG, tmp_path)
    payload = json.loads(run.json_path.read_text())
    assert payload["schema"] == "repro-bench/1"
    assert payload["name"] == "conformance"
    assert payload["totals"]["violations"] == 0
    assert payload["totals"]["ok"] is True
    assert run.txt_path.read_text().rstrip("\n") == run.report.text
