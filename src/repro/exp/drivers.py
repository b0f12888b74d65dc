"""Engine-driven drivers for every paper figure/table.

Each driver builds its (workload x configuration) grid, resolves it
through the :class:`~repro.exp.engine.ExperimentEngine` it is handed
(cells it doesn't need the engine for — pure enumeration or litmus
sweeps — run inline), and returns a :class:`BenchReport`: the text
table (identical to what ``pytest benchmarks/`` historically wrote to
``benchmarks/out/<name>.txt``) plus machine-readable row dicts for
``BENCH_<name>.json``.

Shape *assertions* (the paper claims) stay in ``benchmarks/bench_*.py``
— drivers only generate, so ``repro bench --quick`` can run reduced
configurations without tripping full-scale expectations.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis import experiments
from ..analysis.tables import format_table
from ..common.params import NetworkParams, table6_system
from ..common.types import CommitMode
from .cells import Cell
from .engine import EngineRun, ExperimentEngine


@dataclass
class BenchConfig:
    """Knobs shared by all drivers (mirrors ``benchmarks/conftest``)."""

    benches: Tuple[str, ...] = ()
    cores: int = 16
    scale: float = 2.0
    #: Restrict backend-matrix drivers (conformance) to one coherence
    #: backend; ``None`` runs the full :data:`BACKEND_MATRIX`.
    backend: Optional[str] = None

    def bench_list(self, default: Sequence[str]) -> Tuple[str, ...]:
        return tuple(self.benches) if self.benches else tuple(default)


@dataclass
class BenchReport:
    """One driver's output: human table + machine rows + run stats."""

    name: str
    txt_name: str
    text: str
    rows: List[Dict] = field(default_factory=list)
    totals: Dict = field(default_factory=dict)
    engine_run: Optional[EngineRun] = None

    def finish_totals(self) -> None:
        if self.engine_run is not None:
            results = self.engine_run.results()
            self.totals.setdefault("cells", len(results))
            self.totals.setdefault(
                "simulated_cycles",
                sum(r.cycles for r in results.values()))
        self.totals.setdefault("rows", len(self.rows))


def _grid_report(name: str, txt_name: str, cfg: BenchConfig,
                 engine: ExperimentEngine, cells: List[Cell],
                 assemble) -> BenchReport:
    run = engine.run(cells)
    text, rows = assemble(cells, run.results())
    report = BenchReport(name=name, txt_name=txt_name, text=text,
                         rows=rows, engine_run=run)
    report.finish_totals()
    return report


# ------------------------------------------------------------------ Figure 8
def fig8_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    cells = experiments.fig8_cells(
        cfg.bench_list(experiments.DEFAULT_BENCHES),
        num_cores=cfg.cores, scale=cfg.scale)

    def assemble(cells, results):
        rows = experiments.fig8_assemble(cells, results)
        return experiments.fig8_table(rows), [dataclasses.asdict(r)
                                              for r in rows]

    return _grid_report("fig8", "fig8_writersblock_rates", cfg, engine,
                        cells, assemble)


# ------------------------------------------------------------------ Figure 9
def fig9_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    cells = experiments.fig9_cells(
        cfg.bench_list(experiments.DEFAULT_BENCHES),
        num_cores=cfg.cores, scale=cfg.scale)

    def assemble(cells, results):
        rows = experiments.fig9_assemble(cells, results)
        return experiments.fig9_table(rows), [dataclasses.asdict(r)
                                              for r in rows]

    return _grid_report("fig9", "fig9_overheads", cfg, engine, cells,
                        assemble)


# ----------------------------------------------------------------- Figure 10
def fig10_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    cells = experiments.fig10_cells(
        cfg.bench_list(experiments.DEFAULT_BENCHES),
        num_cores=cfg.cores, scale=cfg.scale)

    def assemble(cells, results):
        rows = experiments.fig10_assemble(cells, results)
        headline = experiments.fig10_headline(rows)
        text = "\n\n".join([
            experiments.fig10_time_table(rows),
            experiments.fig10_stall_table(rows),
            "Headline (§5.2): "
            f"OoO+WB over in-order: avg "
            f"{headline['avg_improvement_over_inorder_pct']:.1f}% "
            f"(max {headline['max_improvement_over_inorder_pct']:.1f}%); "
            f"over safe OoO: avg "
            f"{headline['avg_improvement_over_ooo_pct']:.1f}% "
            f"(max {headline['max_improvement_over_ooo_pct']:.1f}%)",
        ])
        row_dicts = []
        for row in rows:
            row_dicts.append({
                "workload": row.workload,
                "cycles": {m.value: row.results[m].cycles
                           for m in experiments.FIG10_MODES},
                "norm_time": {m.value: row.norm_time(m)
                              for m in experiments.FIG10_MODES},
                "stalls": {m.value: {reason: row.results[m].stall_fraction(reason)
                                     for reason in ("sq", "lq", "rob", "other")}
                           for m in experiments.FIG10_MODES},
                "consistency_squashes": {
                    m.value: row.results[m].consistency_squashes
                    for m in experiments.FIG10_MODES},
            })
        row_dicts.append({"headline": headline})
        return text, row_dicts

    return _grid_report("fig10", "fig10_ooo_commit", cfg, engine, cells,
                        assemble)


# --------------------------------------------------------- Tables 1 and 3
#: Pinned seed for the random schedule perturbations appended to every
#: litmus sweep — byte-stable BENCH output by construction.
TABLE1_SWEEP_SEED = 2017
TABLE1_SWEEP_PERTURB = 2


def table1_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    """Litmus sweeps are sub-second cells; they run inline."""
    import random

    from ..consistency.litmus import standard_suite, sweep_litmus

    modes = (CommitMode.IN_ORDER, CommitMode.OOO, CommitMode.OOO_WB)
    delays = ((0, 0), (0, 40), (40, 0), (0, 80), (20, 60))
    lines = []
    rows = []
    for test in standard_suite():
        cores = 16 if len(test.threads) > 4 else 4
        for mode in modes:
            params = table6_system("SLM", num_cores=cores, commit_mode=mode)
            outcomes = sweep_litmus(test, params, delays=delays,
                                    perturb=TABLE1_SWEEP_PERTURB,
                                    rng=random.Random(TABLE1_SWEEP_SEED))
            forbidden = sum(o.forbidden_hit for o in outcomes)
            violations = sum(o.checker_violation is not None
                             for o in outcomes)
            sample = outcomes[0].registers
            lines.append(f"{test.name:24s} {mode.value:9s} "
                         f"clean over {len(outcomes)} timings; "
                         f"e.g. {sample}")
            rows.append({"test": test.name, "mode": mode.value,
                         "timings": len(outcomes), "forbidden": forbidden,
                         "checker_violations": violations,
                         "sample_registers": dict(sample)})
    report = BenchReport(name="table1", txt_name="table1_table3_litmus",
                         text="\n".join(lines), rows=rows)
    report.finish_totals()
    return report


# ------------------------------------------------------------------- Table 2
def table2_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    from ..consistency.litmus import (SimpleOp, enumerate_interleavings,
                                      legal_tso_outcomes)

    reader = [SimpleOp(0, "ld", "y"), SimpleOp(0, "ld", "x")]
    writer = [SimpleOp(1, "st", "x"), SimpleOp(1, "st", "y")]
    interleavings = enumerate_interleavings([reader, writer])
    outcomes = legal_tso_outcomes([reader, writer])
    lines = [f"{len(interleavings)} interleavings, "
             f"{len(outcomes)} distinct outcomes:"]
    rows = []
    for i, (order, loads) in enumerate(interleavings, start=1):
        ops = " -> ".join(f"t{op.thread}:{op.kind} {op.var}" for op in order)
        lines.append(f"({i}) {ops}   loads={loads}")
        rows.append({"interleaving": i, "order": ops, "loads": dict(loads)})
    pairs = sorted({(o["t0:ld y"], o["t0:ld x"]) for o in outcomes})
    lines.append(f"legal (ld y, ld x) outcomes: {pairs}")
    rows.append({"legal_outcomes": [list(p) for p in pairs]})
    report = BenchReport(name="table2", txt_name="table2_interleavings",
                         text="\n".join(lines), rows=rows)
    report.finish_totals()
    return report


# ------------------------------------------------------------------- Table 6
def table6_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    from ..common.params import CORE_CLASSES

    rows = []
    for name, core in CORE_CLASSES.items():
        rows.append({"class": name, "issue_width": core.issue_width,
                     "iq": core.iq_entries, "rob": core.rob_entries,
                     "lq": core.lq_entries, "sq": core.sq_entries,
                     "sb": core.sb_entries, "ldt": core.ldt_entries})
    report = BenchReport(name="table6", txt_name="table6_config",
                         text=experiments.table6_text(), rows=rows)
    report.finish_totals()
    return report


# ------------------------------------------------------------ LQ-depth sweep
SWEEP_LQ_SIZES = (6, 10, 16, 24, 48)
SWEEP_LQ_BENCH = "streamcluster"


def sweep_lq_driver(cfg: BenchConfig, engine: ExperimentEngine
                    ) -> BenchReport:
    modes = (CommitMode.IN_ORDER, CommitMode.OOO_WB)
    cells = []
    for lq in SWEEP_LQ_SIZES:
        for mode in modes:
            params = table6_system("NHM", num_cores=cfg.cores,
                                   commit_mode=mode)
            core = dataclasses.replace(params.core, lq_entries=lq)
            params = dataclasses.replace(params, core=core)
            cells.append(Cell(key=f"sweep_lq/{lq}/{mode.value}",
                              workload=SWEEP_LQ_BENCH,
                              num_threads=cfg.cores, scale=cfg.scale,
                              params=params))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for lq in SWEEP_LQ_SIZES:
            inorder = results[f"sweep_lq/{lq}/{CommitMode.IN_ORDER.value}"]
            wb = results[f"sweep_lq/{lq}/{CommitMode.OOO_WB.value}"]
            advantage = (100.0 * (inorder.cycles - wb.cycles)
                         / inorder.cycles)
            table_rows.append((lq, inorder.cycles, wb.cycles, advantage))
            rows.append({"lq_entries": lq, "inorder_cycles": inorder.cycles,
                         "ooo_wb_cycles": wb.cycles,
                         "wb_advantage_pct": advantage})
        text = format_table(
            ["LQ entries", "in-order cycles", "OoO+WB cycles",
             "WB advantage %"],
            table_rows,
            title=f"LQ-depth sensitivity ({SWEEP_LQ_BENCH}, NHM-class ROB)")
        return text, rows

    return _grid_report("sweep_lq", "sweep_lq", cfg, engine, cells,
                        assemble)


# ------------------------------------------------------------ ECL in-order
ECL_BENCHES = ("fft", "barnes", "freqmine", "streamcluster", "swaptions")


def ecl_inorder_driver(cfg: BenchConfig, engine: ExperimentEngine
                       ) -> BenchReport:
    variants = (("inorder", False), ("inorder-ecl", True))
    cells = []
    for bench in ECL_BENCHES:
        for core_type, wb in variants:
            params = table6_system("SLM", num_cores=cfg.cores)
            params = dataclasses.replace(params, core_type=core_type,
                                         writers_block=wb)
            cells.append(Cell(key=f"ecl/{bench}/{core_type}",
                              workload=bench, num_threads=cfg.cores,
                              scale=cfg.scale, params=params))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for bench in ECL_BENCHES:
            inorder = results[f"ecl/{bench}/inorder"]
            ecl = results[f"ecl/{bench}/inorder-ecl"]
            speedup = inorder.cycles / ecl.cycles
            table_rows.append((bench, inorder.cycles, ecl.cycles, speedup))
            rows.append({"workload": bench,
                         "inorder_cycles": inorder.cycles,
                         "ecl_cycles": ecl.cycles, "speedup": speedup})
        text = format_table(
            ["workload", "blocking in-order", "ECL + WritersBlock",
             "speedup"],
            table_rows,
            title="§1 use case: Early Commit of Loads on in-order cores")
        return text, rows

    return _grid_report("ecl_inorder", "ecl_inorder", cfg, engine, cells,
                        assemble)


# --------------------------------------------------------- LDT capacity
LDT_BENCHES = ("freqmine", "streamcluster")
LDT_SIZES = (1, 2, 8, 32, 128)


def ablation_ldt_driver(cfg: BenchConfig, engine: ExperimentEngine
                        ) -> BenchReport:
    cells = []
    for bench in LDT_BENCHES:
        for size in LDT_SIZES:
            params = table6_system("SLM", num_cores=cfg.cores,
                                   commit_mode=CommitMode.OOO_WB)
            core = dataclasses.replace(params.core, ldt_entries=size)
            params = dataclasses.replace(params, core=core)
            cells.append(Cell(key=f"ldt/{bench}/{size}", workload=bench,
                              num_threads=cfg.cores, scale=cfg.scale,
                              params=params))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for bench in LDT_BENCHES:
            by_size = {size: results[f"ldt/{bench}/{size}"]
                       for size in LDT_SIZES}
            for size in LDT_SIZES:
                result = by_size[size]
                ratio = result.cycles / by_size[32].cycles
                exports = result.counter("core.ldt_exports")
                table_rows.append((bench, size, result.cycles, exports,
                                   ratio))
                rows.append({"workload": bench, "ldt_entries": size,
                             "cycles": result.cycles,
                             "ldt_exports": exports,
                             "time_vs_ldt32": ratio})
        text = format_table(
            ["workload", "LDT entries", "cycles", "lockdown exports",
             "time vs LDT=32"],
            table_rows, title="Ablation §4.2: LDT capacity sweep")
        return text, rows

    return _grid_report("ablation_ldt", "ablation_ldt", cfg, engine, cells,
                        assemble)


# --------------------------------------------------- eviction policy
EVICTION_BENCHES = ("fft", "ocean_ncp", "streamcluster", "barnes")


def ablation_evictions_driver(cfg: BenchConfig, engine: ExperimentEngine
                              ) -> BenchReport:
    cells = []
    for bench in EVICTION_BENCHES:
        for silent in (True, False):
            params = table6_system("SLM", num_cores=cfg.cores,
                                   commit_mode=CommitMode.OOO)
            # Shrink the private hierarchy so capacity evictions of
            # shared lines actually happen (the full-size 128KB L2
            # never evicts under these working sets).
            cache = dataclasses.replace(params.cache,
                                        l1_sets=4, l1_ways=4,
                                        l2_sets=8, l2_ways=4,
                                        silent_shared_evictions=silent)
            params = dataclasses.replace(params, cache=cache)
            variant = "silent" if silent else "nonsilent"
            cells.append(Cell(key=f"evict/{bench}/{variant}",
                              workload=bench, num_threads=cfg.cores,
                              scale=cfg.scale, params=params))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for bench in EVICTION_BENCHES:
            silent = results[f"evict/{bench}/silent"]
            loud = results[f"evict/{bench}/nonsilent"]
            ratio = (silent.network_flit_hops
                     / max(loud.network_flit_hops, 1))
            table_rows.append((bench, ratio, silent.consistency_squashes,
                               loud.consistency_squashes))
            rows.append({"workload": bench,
                         "traffic_silent_over_nonsilent": ratio,
                         "squashes_silent": silent.consistency_squashes,
                         "squashes_nonsilent": loud.consistency_squashes})
        text = format_table(
            ["workload", "traffic silent/non-silent",
             "squashes (silent)", "squashes (non-silent)"],
            table_rows, title="Ablation §3.8: shared-line eviction policy")
        return text, rows

    return _grid_report("ablation_evictions", "ablation_evictions", cfg,
                        engine, cells, assemble)


# ---------------------------------------------------- network contention
NETWORK_BENCHES = ("fft", "streamcluster", "radix")


def ablation_network_driver(cfg: BenchConfig, engine: ExperimentEngine
                            ) -> BenchReport:
    cells = []
    for bench in NETWORK_BENCHES:
        for contention in (True, False):
            for wb in (False, True):
                params = table6_system(
                    "SLM", num_cores=cfg.cores,
                    commit_mode=CommitMode.OOO_WB if wb else CommitMode.OOO)
                params = dataclasses.replace(
                    params,
                    network=NetworkParams(model_contention=contention))
                variant = (f"{'contended' if contention else 'free'}/"
                           f"{'wb' if wb else 'ooo'}")
                cells.append(Cell(key=f"net/{bench}/{variant}",
                                  workload=bench, num_threads=cfg.cores,
                                  scale=cfg.scale, params=params))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for bench in NETWORK_BENCHES:
            cycles = {(contention, wb):
                      results[f"net/{bench}/"
                              f"{'contended' if contention else 'free'}/"
                              f"{'wb' if wb else 'ooo'}"].cycles
                      for contention in (True, False)
                      for wb in (False, True)}
            slowdown = cycles[(True, True)] / cycles[(False, True)]
            wb_contended = cycles[(True, True)] / cycles[(True, False)]
            wb_free = cycles[(False, True)] / cycles[(False, False)]
            table_rows.append((bench, slowdown, wb_contended, wb_free))
            rows.append({"workload": bench,
                         "contention_slowdown": slowdown,
                         "wb_over_ooo_contended": wb_contended,
                         "wb_over_ooo_free": wb_free})
        text = format_table(
            ["workload", "contention slowdown",
             "WB/OoO (contended)", "WB/OoO (contention-free)"],
            table_rows, title="Ablation: mesh link-contention model")
        return text, rows

    return _grid_report("ablation_network", "ablation_network", cfg, engine,
                        cells, assemble)


# ------------------------------------------------------- stall blame
#: Directed scenarios are tiny and need exact core counts, so the blame
#: grid ignores ``cfg.cores``/``cfg.scale`` — quick and full runs agree.
BLAME_SCENARIOS = ("mp", "sos")
BLAME_MODES = (CommitMode.OOO, CommitMode.OOO_WB)


def blame_driver(cfg: BenchConfig, engine: ExperimentEngine) -> BenchReport:
    """Causal stall attribution grid: scenarios x (ablated, WritersBlock).

    Every cell runs observed (``Cell.observe``), so its result carries a
    ``repro-blame/1`` payload; the report aggregates the per-cause stall
    budgets and the WritersBlock-on vs. ablated deltas per scenario.
    """
    from ..obs.scenarios import scenario_traces

    cells = []
    for scenario in BLAME_SCENARIOS:
        for mode in BLAME_MODES:
            params = table6_system("SLM", num_cores=4, commit_mode=mode)
            cells.append(Cell.from_traces(
                f"blame/{scenario}/{mode.value}", scenario,
                scenario_traces(scenario), params, observe=True))

    def assemble(cells, results):
        table_rows = []
        rows = []
        cause_totals: Dict[str, int] = {}
        for scenario in BLAME_SCENARIOS:
            per_mode = {}
            for mode in BLAME_MODES:
                result = results[f"blame/{scenario}/{mode.value}"]
                blame = result.blame or {}
                ws = blame.get("write_stalls", {})
                cs = blame.get("commit_stalls", {})
                causes = {name: entry["cycles"]
                          for name, entry in ws.get("causes", {}).items()}
                for name, count in causes.items():
                    cause_totals[name] = cause_totals.get(name, 0) + count
                tree = blame.get("blame_tree", [])
                top = tree[0]["cause"] if tree else "-"
                per_mode[mode] = {"cycles": result.cycles,
                                  "write": ws.get("total_cycles", 0),
                                  "commit": cs.get("total_cycles", 0)}
                table_rows.append((
                    scenario, mode.value, result.cycles,
                    ws.get("total_cycles", 0),
                    f"{ws.get('coverage', 1.0):.0%}",
                    cs.get("total_cycles", 0),
                    f"{cs.get('coverage', 1.0):.0%}", top))
                rows.append({"scenario": scenario, "mode": mode.value,
                             "cycles": result.cycles,
                             "write_stalls": ws, "commit_stalls": cs,
                             "top_blame": top,
                             "write_stall_causes": causes})
            wb = per_mode[CommitMode.OOO_WB]
            ablated = per_mode[CommitMode.OOO]
            rows.append({"scenario": scenario, "mode": "delta",
                         "cycles_delta": wb["cycles"] - ablated["cycles"],
                         "write_stall_delta": wb["write"] - ablated["write"],
                         "commit_stall_delta":
                             wb["commit"] - ablated["commit"]})
        text_parts = [format_table(
            ["scenario", "mode", "cycles", "write stalls", "attributed",
             "commit stalls", "attributed", "top blame"],
            table_rows,
            title="Causal stall attribution (directed scenarios)")]
        if cause_totals:
            from ..analysis.charts import hbar_chart
            text_parts.append(hbar_chart(
                sorted(cause_totals.items(), key=lambda kv: -kv[1]),
                title="write-stall cycles by root cause (all cells)",
                unit=" cyc"))
        return "\n\n".join(text_parts), rows

    report = _grid_report("blame", "blame_stalls", cfg, engine, cells,
                          assemble)
    report.totals["write_stall_cause_cycles"] = {
        name: count for name, count in sorted(
            (report.rows and _cause_totals(report.rows) or {}).items())}
    return report


def _cause_totals(rows: List[Dict]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for row in rows:
        for name, count in row.get("write_stall_causes", {}).items():
            totals[name] = totals.get(name, 0) + count
    return totals


# ------------------------------------------------------- unsafe commit
def ablation_unsafe_driver(cfg: BenchConfig, engine: ExperimentEngine
                           ) -> BenchReport:
    from ..consistency.litmus import run_litmus, table1_test

    delay_grid = [(d0, d1) for d0 in (0, 20, 40) for d1 in (0, 30, 60, 90)]
    test = table1_test()
    lines = []
    rows = []
    for mode in (CommitMode.IN_ORDER, CommitMode.OOO, CommitMode.OOO_WB,
                 CommitMode.OOO_UNSAFE):
        params = table6_system("SLM", num_cores=4, commit_mode=mode)
        violations = 0
        forbidden = 0
        for delays in delay_grid:
            outcome = run_litmus(test, params, extra_delays=delays)
            violations += outcome.checker_violation is not None
            forbidden += outcome.forbidden_hit
        lines.append(f"{mode.value:10s} forbidden={forbidden:2d}/"
                     f"{len(delay_grid)} checker_violations={violations:2d}")
        rows.append({"mode": mode.value, "forbidden": forbidden,
                     "timings": len(delay_grid),
                     "checker_violations": violations})
    report = BenchReport(name="ablation_unsafe", txt_name="ablation_unsafe",
                         text="\n".join(lines), rows=rows)
    report.finish_totals()
    return report


# ------------------------------------------------------- TSO conformance
#: Pinned sweep seed / perturbation count for the conformance corpus.
CONFORM_SEED = 0
CONFORM_PERTURB = 2


#: Coherence backends the conformance driver compares (each under the
#: strongest commit mode it supports: OOO_WB for baseline, OOO for
#: rcp and tardis — ``repro.conform.runner.default_mode_for``).
BACKEND_MATRIX = ("baseline", "rcp", "tardis")


def conformance_driver(cfg: BenchConfig, engine: ExperimentEngine
                       ) -> BenchReport:
    """Three-way differential conformance, per coherence backend.

    Runs the committed corpus through the differential checker once per
    registered backend of :data:`BACKEND_MATRIX` — whatever the
    coherence protocol, the simulated executions must stay inside
    x86-TSO (sim ⊆ operational) — plus each backend's POR protocol
    explorations.  Sub-second cells, run inline (engine-independent, so
    the payload is trivially byte-stable across serial/pooled/
    cache-replay).  Quick configurations (``scale < 1``) run the
    deterministic tier-1 slice; ``REPRO_CONFORM_FULL=1`` forces the
    full corpus.
    """
    from ..conform.differential import reference_outcomes
    from ..conform.runner import (default_mode_for, full_requested,
                                  load_corpus, run_conformance, tier1_slice)

    matrix = (cfg.backend,) if cfg.backend else BACKEND_MATRIX
    tests = load_corpus()
    sliced = cfg.scale < 1.0 and not full_requested()
    if sliced:
        tests = tier1_slice(tests)
    # The references are protocol-independent: enumerate them once for
    # the whole backend matrix.
    references = {test.name: reference_outcomes(test) for test in tests}
    lines = [f"{'backend':9s} {'family':8s} {'tests':>6s} {'sim-runs':>9s} "
             f"{'sim-outs':>9s} {'oper':>6s} {'axiom':>6s} {'viol':>5s}"]
    rows: List[Dict] = []
    backends: Dict[str, Dict] = {}
    ok = True
    violations = 0
    for backend in matrix:
        mode = default_mode_for(backend)
        result = run_conformance(tests, mode=mode, backend=backend,
                                 perturb=CONFORM_PERTURB,
                                 seed=CONFORM_SEED, explore=True,
                                 references=references)
        ok = ok and result.ok
        violations += len(result.violations)
        for row in result.family_rows():
            lines.append(f"{backend:9s} {row['family']:8s} "
                         f"{row['tests']:6d} {row['sim_runs']:9d} "
                         f"{row['sim_outcomes']:9d} {row['operational']:6d} "
                         f"{row['axiomatic']:6d} {row['violations']:5d}")
            rows.append({"backend": backend, **row})
        for name in sorted(result.explorations):
            info = result.explorations[name]
            lines.append(f"{backend:9s} explore/{name:13s} "
                         f"states={info['states']:<6d} "
                         f"paths={info['paths']:<4d} "
                         f"sleep_pruned={info['sleep_pruned']:<6d} "
                         f"ok={info['ok']}")
            rows.append({"backend": backend, "exploration": name, **info})
        backends[backend] = {
            "mode": mode.value,
            "tests": len(result.reports),
            "violations": len(result.violations),
            "sim_runs": sum(r.sim_runs for r in result.reports),
            "sim_outcomes": sum(len(r.sim_outcomes)
                                for r in result.reports),
            "explorations": len(result.explorations),
            "ok": result.ok,
        }
    comparison = "  ".join(
        f"{name}[{info['mode']}]: outcomes={info['sim_outcomes']} "
        f"viol={info['violations']}"
        for name, info in backends.items())
    lines.append(f"per-backend: {comparison}")
    lines.append(f"{len(tests)} tests x {len(matrix)} backends "
                 f"({'tier-1 slice' if sliced else 'full corpus'}), "
                 f"{violations} violations")
    report = BenchReport(name="conformance", txt_name="conformance",
                         text="\n".join(lines), rows=rows)
    report.totals["tests"] = len(tests)
    report.totals["backends"] = backends
    report.totals["violations"] = violations
    report.totals["ok"] = ok
    report.totals["sliced"] = sliced
    report.finish_totals()
    return report


#: Models compared by the matrix driver, weakest-last.
MODEL_MATRIX = ("sc", "tso", "rmo")


def models_driver(cfg: BenchConfig, engine: ExperimentEngine
                  ) -> BenchReport:
    """Memory-model matrix: the corpus under SC, x86-TSO and RMO.

    Runs the same test list through the model-parametric differential
    checker once per spec and tabulates, per family and model, how many
    tests are expect-forbidden and how many outcomes each backend
    enumerates.  The per-model outcome totals witness the strictness
    chain ``sc ⊆ tso ⊆ rmo`` end to end (asserted as a totals row).
    Engine-independent like the conformance driver; quick configurations
    run the tier-1 slice.
    """
    from ..conform.runner import (full_requested, load_corpus,
                                  run_conformance, tier1_slice)

    tests = load_corpus()
    sliced = cfg.scale < 1.0 and not full_requested()
    if sliced:
        tests = tier1_slice(tests)
    lines = [f"{'model':6s} {'tests':>6s} {'forbid':>7s} {'allow':>6s} "
             f"{'sim-runs':>9s} {'oper':>6s} {'axiom':>6s} {'viol':>5s}"]
    rows: List[Dict] = []
    oper_totals: Dict[str, int] = {}
    ok = True
    for model in MODEL_MATRIX:
        result = run_conformance(tests, model=model,
                                 perturb=CONFORM_PERTURB,
                                 seed=CONFORM_SEED, explore=False)
        ok = ok and result.ok
        forbid = sum(1 for r in result.reports if r.expect == "forbidden")
        allow = sum(1 for r in result.reports if r.expect == "allowed")
        sim_runs = sum(r.sim_runs for r in result.reports)
        oper = sum(r.operational_count for r in result.reports)
        axiom = sum(r.axiomatic_count for r in result.reports)
        oper_totals[model] = oper
        lines.append(f"{model:6s} {len(result.reports):6d} {forbid:7d} "
                     f"{allow:6d} {sim_runs:9d} {oper:6d} {axiom:6d} "
                     f"{len(result.violations):5d}")
        for row in result.family_rows():
            rows.append({"model": model, **row})
    chain = " <= ".join(f"{m}:{oper_totals[m]}" for m in MODEL_MATRIX)
    monotone = (oper_totals["sc"] <= oper_totals["tso"]
                <= oper_totals["rmo"])
    lines.append(f"operational outcome totals {chain} "
                 f"(monotone={monotone})")
    lines.append(f"{len(tests)} tests x {len(MODEL_MATRIX)} models "
                 f"({'tier-1 slice' if sliced else 'full corpus'})")
    report = BenchReport(name="models", txt_name="models",
                         text="\n".join(lines), rows=rows)
    report.totals["tests"] = len(tests)
    report.totals["models"] = list(MODEL_MATRIX)
    report.totals["operational_outcomes"] = oper_totals
    report.totals["monotone"] = monotone
    report.totals["ok"] = ok
    report.totals["sliced"] = sliced
    report.finish_totals()
    return report


#: Driver registry in canonical (report) order.
# ----------------------------------------------------------- telemetry
#: Directed scenarios sampled by the metrics driver.
METRICS_SCENARIOS = ("mp", "sos")
#: Commit modes sampled per target.
METRICS_MODES = (CommitMode.OOO, CommitMode.OOO_WB)
#: Headline gauges shown in the report table (full catalog in JSON).
METRICS_TABLE_GAUGES = ("mshr", "lq", "lockdowns", "dirq", "wb", "link")


def _litmus_slice() -> List[str]:
    """One corpus test per litmus family (stratified, deterministic)."""
    from ..conform.runner import load_corpus

    families: Dict[str, str] = {}
    for test in load_corpus():
        family = test.name.split("+")[0]
        if family not in families or test.name < families[family]:
            families[family] = test.name
    return [families[family] for family in sorted(families)]


def metrics_driver(cfg: BenchConfig, engine: ExperimentEngine
                   ) -> BenchReport:
    """Telemetry grid: sampled scenarios + litmus slice + scaling probe.

    Every cell runs with the metrics sampler (``Cell.sample``), so its
    result carries a ``repro-metrics/1`` payload; the table condenses
    each stream into per-gauge occupancy/saturation.  The scaling probe
    re-runs one workload at growing tile counts; only its deterministic
    columns appear in the text report — events/sec and other wall-clock
    numbers live in ``BENCH_metrics.json`` alone.
    """
    from ..analysis.charts import heatmap_chart
    from ..obs.metrics import DEFAULT_PERIOD, summarize_metrics, tile_series
    from ..obs.scenarios import LITMUS_PREFIX, scenario_traces
    from ..perf.scaling import run_scale_probe, scaling_report

    targets = [(name, scenario_traces(name)) for name in METRICS_SCENARIOS]
    targets += [(LITMUS_PREFIX + name,
                 scenario_traces(LITMUS_PREFIX + name))
                for name in _litmus_slice()]
    cells = []
    for target, traces in targets:
        for mode in METRICS_MODES:
            # 5/6-thread litmus families need the next mesh size up.
            cores = 4 if len(traces) <= 4 else 8
            params = table6_system("SLM", num_cores=cores,
                                   commit_mode=mode)
            cells.append(Cell.from_traces(
                f"metrics/{target}/{mode.value}", target, traces, params,
                sample=DEFAULT_PERIOD))

    def assemble(cells, results):
        table_rows = []
        rows = []
        for target, __ in targets:
            for mode in METRICS_MODES:
                result = results[f"metrics/{target}/{mode.value}"]
                summary = summarize_metrics(result.telemetry)
                gauges = summary["gauges"]
                hot_gauge, hot = max(
                    gauges.items(),
                    key=lambda item: (item[1]["saturation"],
                                      item[1]["mean"], item[0]))
                table_rows.append(
                    (target, mode.value, result.cycles, summary["samples"])
                    + tuple(f"{gauges[g]['mean']:.3f}"
                            for g in METRICS_TABLE_GAUGES)
                    + (f"{hot_gauge}:{hot['saturation']:.0%}",))
                rows.append({"target": target, "mode": mode.value,
                             "cycles": result.cycles,
                             "samples": summary["samples"],
                             "gauges": gauges})
        text_parts = [format_table(
            ["target", "mode", "cycles", "samples"]
            + [f"{g} mean" for g in METRICS_TABLE_GAUGES] + ["hottest"],
            table_rows,
            title="Sampled telemetry (mean occupancy per gauge)")]
        showcase = results["metrics/mp/ooo-wb"].telemetry
        text_parts.append(heatmap_chart(
            tile_series(showcase, "lockdowns"),
            title="mp/ooo-wb: active lockdowns per tile over time"))
        text_parts.append(heatmap_chart(
            tile_series(showcase, "mshr"),
            title="mp/ooo-wb: MSHR occupancy per tile over time"))
        return "\n\n".join(text_parts), rows

    report = _grid_report("metrics", "metrics", cfg, engine, cells,
                          assemble)
    tile_counts = tuple(t for t in (4, 8, 16) if t <= cfg.cores) or (4,)
    points = run_scale_probe(tile_counts, scale=min(cfg.scale, 0.5))
    report.totals["scale_probe"] = points
    report.text += "\n\n" + scaling_report(points)
    return report


# ----------------------------------------------------------- coverage
def coverage_driver(cfg: BenchConfig, engine: ExperimentEngine
                    ) -> BenchReport:
    """Transition coverage of the verification batteries, per backend.

    Collects one coverage map per backend of :data:`BACKEND_MATRIX`
    across the conformance corpus, the directed scenarios, the capacity
    sweep, the fuzz replay and the POR explorations, then reports
    covered/alphabet per component and names every uncovered transition.
    Deterministic and inline (engine-independent) like the conformance
    driver, so ``BENCH_coverage.json`` + ``coverage.txt`` are
    byte-stable across serial/pooled/cache-replay runs.  Quick
    configurations (``scale < 1``) use the tier-1 corpus slice;
    ``REPRO_CONFORM_FULL=1`` forces the full corpus.
    """
    from ..conform.coverage import collect_coverage
    from ..conform.runner import full_requested
    from ..obs.coverage import (CoverageMap, coverage_report,
                                render_coverage, render_coverage_diff)

    matrix = (cfg.backend,) if cfg.backend else BACKEND_MATRIX
    sliced = cfg.scale < 1.0 and not full_requested()
    cmap = CoverageMap()
    collection: Dict[str, Dict] = {}
    for backend in matrix:
        bmap, info = collect_coverage(backend, full=not sliced)
        cmap.merge(bmap)
        collection[backend] = info
    reports = {backend: coverage_report(cmap, backend)
               for backend in matrix}
    parts = [render_coverage(reports[backend]) for backend in matrix]
    for a, b in itertools.combinations(matrix, 2):
        parts.append(render_coverage_diff(reports[a], reports[b], cmap))
    parts.append(f"{'tier-1 slice' if sliced else 'full corpus'} x "
                 f"{len(matrix)} backends, "
                 f"{sum(len(cmap.transitions(b)) for b in matrix)} "
                 f"distinct transitions observed")
    report = BenchReport(name="coverage", txt_name="coverage",
                         text="\n".join(parts), rows=cmap.records())
    report.totals["backends"] = {
        backend: {key: reports[backend][key]
                  for key in ("alphabet", "covered", "coverage",
                              "observations", "components", "sources",
                              "uncovered", "undeclared")}
        for backend in matrix}
    report.totals["collection"] = collection
    report.totals["ok"] = not any(r["undeclared"] for r in reports.values())
    report.totals["sliced"] = sliced
    report.finish_totals()
    return report


DRIVERS: Dict[str, Callable[[BenchConfig, ExperimentEngine], BenchReport]] = {
    "fig8": fig8_driver,
    "fig9": fig9_driver,
    "fig10": fig10_driver,
    "table1": table1_driver,
    "table2": table2_driver,
    "table6": table6_driver,
    "sweep_lq": sweep_lq_driver,
    "ecl_inorder": ecl_inorder_driver,
    "ablation_ldt": ablation_ldt_driver,
    "ablation_evictions": ablation_evictions_driver,
    "ablation_network": ablation_network_driver,
    "ablation_unsafe": ablation_unsafe_driver,
    "blame": blame_driver,
    "conformance": conformance_driver,
    "models": models_driver,
    "metrics": metrics_driver,
    "coverage": coverage_driver,
}
