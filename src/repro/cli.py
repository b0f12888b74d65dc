"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``                 available workloads and commit modes
``run WORKLOAD``         simulate one workload, print the summary
``compare WORKLOAD``     commit-mode comparison (Figure 10 style)
``litmus [NAME]``        run the litmus suite (or one test) on the simulator
``trace WORKLOAD``       observed run; export spans as a Chrome trace
``profile WORKLOAD``     wall-clock profile of the simulator itself
``blame TARGET``         causal stall attribution: blame tree, stall
                         budgets, critical path (live run or an
                         exported ``.jsonl`` trace)
``trace-diff A [B]``     align two runs by instruction identity and
                         report causal/stall-budget divergence
``fig8`` / ``fig9`` / ``fig10``   regenerate a paper figure
``table2`` / ``table6``           regenerate a paper table
``bench``                regenerate every figure/table through the
                         parallel experiment engine; writes the text
                         tables plus machine-readable ``BENCH_*.json``
                         to ``benchmarks/out/``
``conform``              memory-model conformance: run the litmus
                         corpus through the three-way differential
                         checker (simulator ⊆ operational ⊆ axiomatic)
                         under ``--model tso|sc|rmo`` plus the
                         POR-reduced protocol explorer; ``--replay``
                         re-executes an exported forbidden-outcome
                         witness with causal blame
``perf``                 single-run throughput microbenchmarks (litmus
                         battery, directed mp/sos scenarios, fuzz
                         replay); writes ``BENCH_perf.json`` and
                         compares against the committed baseline
``stats TARGET``         sampled run; per-tile utilization summary,
                         ``repro-metrics/1`` JSONL stream, HTML
                         heatmap dashboard.  ``--scale 4,8,16``
                         switches to the mesh-scaling probe
                         (events/sec + saturation vs tile count)
``coverage [TARGET...]`` protocol transition coverage: run the
                         verification batteries (conformance corpus,
                         directed scenarios, capacity sweep, fuzz
                         replay, POR exploration) with the transition
                         probe attached and report covered/alphabet
                         per backend, every uncovered transition by
                         name, a ``--diff`` across backends, a
                         mergeable ``repro-coverage/1`` JSONL stream
                         and an ``--html`` heatmap dashboard

``bench --trend OLD [NEW]`` diffs two generations of ``BENCH_*.json``
artifacts (e.g. the committed goldens vs a fresh CI run) and prints
per-metric regressions instead of running drivers.

``trace``, ``profile``, ``blame``, ``trace-diff`` and ``stats`` also
accept the directed scenarios in ``repro.obs.scenarios`` (e.g. ``mp``)
and conformance-corpus tests via ``litmus:<NAME>`` (e.g.
``litmus:MP+po+slow``).  File outputs accept ``-`` for stdout
(informational chatter then goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import experiments
from .coherence.backend import backend_names, get_backend
from .common.params import CORE_CLASSES, table6_system
from .common.types import CommitMode
from .obs.export import (read_trace_jsonl, write_chrome_trace,
                         write_events_jsonl)
from .obs.profile import profiled_run
from .obs.scenarios import TRACE_SCENARIOS, is_litmus_target, scenario_traces
from .sim.runner import run_observed, run_workload
from .sim.system import MulticoreSystem
from .workloads import ALL_WORKLOADS

MODES = {mode.value: mode for mode in CommitMode}

#: ``trace`` / ``profile`` accept workloads *and* directed scenarios.
TRACEABLE = sorted(set(ALL_WORKLOADS) | set(TRACE_SCENARIOS))


def _resolve_traces(name: str, cores: int, scale: float):
    """Per-core traces for a workload name, a directed scenario, or a
    conformance-corpus test (``litmus:<NAME>``)."""
    if name in TRACE_SCENARIOS or is_litmus_target(name):
        try:
            return scenario_traces(name)
        except KeyError as exc:
            raise SystemExit(f"repro: {exc.args[0]}")
    return ALL_WORKLOADS[name](num_threads=cores, scale=scale).traces


def _traceable(value: str) -> str:
    """argparse type for trace/profile targets (allows litmus:<NAME>)."""
    if value in TRACEABLE or is_litmus_target(value):
        return value
    raise argparse.ArgumentTypeError(
        f"choose from {', '.join(TRACEABLE)} or litmus:<NAME>")


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=backend_names(),
                        default="baseline",
                        help="coherence backend (default baseline)")


def _resolve_mode(backend: str, mode_arg: Optional[str]) -> CommitMode:
    """Commit mode for a backend-aware command.

    ``--mode`` omitted picks the strongest mode the backend supports
    (ooo-wb where WritersBlock exists, ooo otherwise); an explicit mode
    the backend cannot run soundly is rejected up front.
    """
    spec = get_backend(backend)
    supported = spec.supported_commit_modes
    if mode_arg is None:
        if supported is None or CommitMode.OOO_WB in supported:
            return CommitMode.OOO_WB
        return CommitMode.OOO
    mode = MODES[mode_arg]
    if supported is not None and mode not in supported:
        raise SystemExit(
            f"repro: backend {backend!r} does not support --mode {mode_arg} "
            f"(supported: {', '.join(m.value for m in supported)})")
    return mode


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=16,
                        help="core count (square; default 16)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale multiplier")
    parser.add_argument("--core-class", choices=sorted(CORE_CLASSES),
                        default="SLM", help="Table 6 core class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Non-Speculative Load-Load Reordering in TSO — "
                    "simulator and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and commit modes")

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    run_p.add_argument("--mode", choices=sorted(MODES), default=None,
                       help="commit mode (default: strongest the backend "
                            "supports; ooo-wb for baseline)")
    _add_backend(run_p)
    _add_common(run_p)

    cmp_p = sub.add_parser("compare", help="compare commit modes")
    cmp_p.add_argument("workload", choices=sorted(ALL_WORKLOADS))
    _add_common(cmp_p)

    lit_p = sub.add_parser("litmus", help="run litmus tests")
    lit_p.add_argument("name", nargs="?", help="one test (default: all)")
    lit_p.add_argument("--mode", choices=sorted(MODES), default="ooo-wb")

    trace_p = sub.add_parser(
        "trace", help="observed run; export spans as a Chrome trace")
    trace_p.add_argument("workload", type=_traceable, metavar="WORKLOAD")
    trace_p.add_argument("--out", default="trace.json",
                         help="Chrome trace output path "
                              "(default trace.json; '-' for stdout)")
    trace_p.add_argument("--events-out", default=None,
                         help="also dump the raw event stream as JSONL "
                              "('-' for stdout)")
    trace_p.add_argument("--mode", choices=sorted(MODES), default=None,
                         help="commit mode (default: strongest the "
                              "backend supports)")
    _add_backend(trace_p)
    _add_common(trace_p)

    prof_p = sub.add_parser(
        "profile", help="wall-clock profile of the simulator itself")
    prof_p.add_argument("workload", type=_traceable, metavar="WORKLOAD")
    prof_p.add_argument("--mode", choices=sorted(MODES), default="ooo-wb")
    prof_p.add_argument("--json", default=None,
                        help="write the profile payload as JSON "
                             "('-' for stdout)")
    _add_common(prof_p)

    blame_p = sub.add_parser(
        "blame", help="causal stall attribution: blame tree, stall "
                      "budgets, critical path")
    blame_p.add_argument("target",
                         help="workload/scenario name to run observed, "
                              "or an exported .jsonl event trace")
    blame_p.add_argument("--mode", choices=sorted(MODES), default=None,
                         help="commit mode (default: strongest the "
                              "backend supports)")
    blame_p.add_argument("--top", type=int, default=10,
                         help="rows per report section (default 10)")
    blame_p.add_argument("--json", default=None,
                         help="write the repro-blame/1 payload as JSON "
                              "('-' for stdout)")
    _add_backend(blame_p)
    _add_common(blame_p)

    diff_p = sub.add_parser(
        "trace-diff", help="align two runs by instruction identity and "
                           "report causal/stall-budget divergence")
    diff_p.add_argument("a", help="workload/scenario name or .jsonl trace")
    diff_p.add_argument("b", nargs="?", default=None,
                        help="second trace (default: re-run A under "
                             "--vs-mode)")
    diff_p.add_argument("--mode", choices=sorted(MODES), default=None,
                        help="commit mode for side A (default: strongest "
                             "the backend supports)")
    diff_p.add_argument("--vs-mode", choices=sorted(MODES), default="ooo",
                        help="commit mode for side B when it is run live "
                             "(default ooo: the squash-based ablation)")
    diff_p.add_argument("--top", type=int, default=10,
                        help="diverging loads to list (default 10)")
    diff_p.add_argument("--json", default=None,
                        help="write the repro-diff/1 payload as JSON "
                             "('-' for stdout)")
    _add_backend(diff_p)
    _add_common(diff_p)

    for fig in ("fig8", "fig9", "fig10"):
        fig_p = sub.add_parser(fig, help=f"regenerate paper {fig}")
        fig_p.add_argument("--benches", nargs="*",
                           default=list(experiments.DEFAULT_BENCHES))
        _add_common(fig_p)

    sub.add_parser("table2", help="regenerate paper Table 2")
    sub.add_parser("table6", help="regenerate paper Table 6")

    bench_p = sub.add_parser(
        "bench", help="regenerate all figures/tables via the experiment "
                      "engine (text tables + BENCH_*.json)")
    bench_p.add_argument("--only", default=None,
                         help="comma-separated driver names "
                              "(default: all; see --list-drivers)")
    bench_p.add_argument("--list-drivers", action="store_true",
                         help="list driver names and exit")
    bench_p.add_argument("--workers", type=int, default=1,
                         help="worker processes (<=1 runs serially)")
    bench_p.add_argument("--timeout", type=float, default=600.0,
                         help="per-cell timeout in pool mode, seconds")
    bench_p.add_argument("--quick", action="store_true",
                         help="smoke configuration: 4 workloads, 4 cores, "
                              "scale 0.25, output under out/quick/")
    bench_p.add_argument("--benches", nargs="*", default=None,
                         help="workload subset for fig8/fig9/fig10")
    bench_p.add_argument("--cores", type=int, default=16)
    bench_p.add_argument("--scale", type=float, default=2.0)
    bench_p.add_argument("--backend", choices=backend_names(), default=None,
                         help="restrict backend-matrix drivers (e.g. "
                              "conformance) to one coherence backend "
                              "(default: the full matrix)")
    bench_p.add_argument("--out-dir", default=None,
                         help="output directory "
                              "(default benchmarks/out, or "
                              "benchmarks/out/quick with --quick)")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="disable the content-addressed result cache")
    bench_p.add_argument("--cache-dir", default=None,
                         help="result cache directory "
                              "(default $REPRO_CACHE_DIR or .repro-cache)")
    bench_p.add_argument("--trend", nargs="+", default=None, metavar="DIR",
                         help="diff BENCH_*.json generations instead of "
                              "running drivers: OLD [NEW] directories "
                              "(one directory compares it against the "
                              "bench output dir)")
    bench_p.add_argument("--trend-threshold", type=float, default=0.05,
                         help="relative change below which noisy host "
                              "(wall-clock) metrics are ignored "
                              "(default 0.05)")

    stats_p = sub.add_parser(
        "stats", help="sampled run: per-tile utilization summary, "
                      "repro-metrics/1 stream, HTML heatmap dashboard")
    stats_p.add_argument("target", nargs="?", default=None,
                         metavar="TARGET",
                         help="workload, scenario (e.g. mp) or "
                              "litmus:<NAME>; optional in --scale probe "
                              "mode (then: probe workload, default "
                              "fft)")
    stats_p.add_argument("--mode", choices=sorted(MODES), default=None,
                         help="commit mode (default: strongest the "
                              "backend supports)")
    _add_backend(stats_p)
    stats_p.add_argument("--period", type=int, default=None,
                         help="sampling period in simulated cycles "
                              "(default 100)")
    stats_p.add_argument("--json", default=None,
                         help="write the per-gauge summary as JSON "
                              "('-' for stdout)")
    stats_p.add_argument("--out", default=None,
                         help="write the repro-metrics/1 JSONL stream "
                              "('-' for stdout)")
    stats_p.add_argument("--html", default=None,
                         help="write the self-contained HTML dashboard")
    stats_p.add_argument("--heat", default=None, metavar="GAUGE",
                         help="also print a terminal heatmap for one "
                              "gauge (e.g. lq, mshr, link)")
    stats_p.add_argument("--scale", default=None, metavar="N,N,...",
                         help="mesh-scaling probe: comma-separated tile "
                              "counts (e.g. 4,8,16); reports events/sec "
                              "and per-gauge saturation per point")
    stats_p.add_argument("--cores", type=int, default=16,
                         help="core count for a single sampled run "
                              "(default 16; ignored in --scale mode)")
    stats_p.add_argument("--workload-scale", type=float, default=None,
                         help="workload scale multiplier (default 1.0; "
                              "probe mode defaults to 0.5)")
    stats_p.add_argument("--core-class", choices=sorted(CORE_CLASSES),
                         default="SLM", help="Table 6 core class")

    conf_p = sub.add_parser(
        "conform", help="memory-model conformance: three-way differential "
                        "check of the litmus corpus (sim ⊆ operational ⊆ "
                        "axiomatic) under tso/sc/rmo + exhaustive "
                        "protocol exploration")
    conf_p.add_argument("--model", choices=("tso", "sc", "rmo"),
                        default="tso",
                        help="memory model to check against (default tso; "
                             "sc skips the sim-inclusion phase — the "
                             "simulated hardware is TSO)")
    conf_p.add_argument("--only", default=None,
                        help="comma-separated test names or families "
                             "(default: whole corpus)")
    conf_p.add_argument("--full", action="store_true",
                        help="run the full corpus (default: the tier-1 "
                             "slice; REPRO_CONFORM_FULL=1 also forces "
                             "full)")
    conf_p.add_argument("--mode", choices=sorted(MODES), default=None,
                        help="commit mode (default: strongest the backend "
                             "supports; ooo-wb for baseline, ooo for "
                             "tardis)")
    _add_backend(conf_p)
    conf_p.add_argument("--core-class", choices=sorted(CORE_CLASSES),
                        default="SLM")
    conf_p.add_argument("--seed", type=int, default=0,
                        help="seed for the schedule perturbations "
                             "(default 0, the pinned BENCH seed)")
    conf_p.add_argument("--perturb", type=int, default=2,
                        help="random delay tuples per test beyond the "
                             "deterministic grid (default 2)")
    conf_p.add_argument("--no-explore", action="store_true",
                        help="skip the POR protocol exploration")
    conf_p.add_argument("--no-por", action="store_true",
                        help="explore without sleep-set reduction")
    conf_p.add_argument("--witness-dir", default=None,
                        help="directory for forbidden-outcome witness "
                             "JSONs (default: none written)")
    conf_p.add_argument("--replay", default=None, metavar="WITNESS",
                        help="replay an exported witness JSON and print "
                             "outcome + causal blame; other flags are "
                             "ignored")
    conf_p.add_argument("--regen", action="store_true",
                        help="regenerate tests/conformance/corpus/ from "
                             "the shape generator and exit")
    conf_p.add_argument("--corpus-dir", default=None,
                        help="corpus directory override "
                             "(default tests/conformance/corpus or "
                             "$REPRO_CORPUS_DIR)")
    conf_p.add_argument("--json", default=None,
                        help="write the repro-conformance/1 payload as "
                             "JSON ('-' for stdout)")

    cov_p = sub.add_parser(
        "coverage", help="protocol transition coverage: which "
                         "(state, event) -> (next, action) transitions "
                         "the verification batteries exercise, against "
                         "each backend's declared alphabet")
    cov_p.add_argument("targets", nargs="*", metavar="TARGET",
                       help="restrict collection to directed scenarios "
                            "(mp, sos) and/or corpus tests "
                            "(litmus:<NAME>); default: the full battery")
    cov_p.add_argument("--backend", choices=backend_names(), default=None,
                       help="one coherence backend (default: all)")
    cov_p.add_argument("--sources", default=None, metavar="S,S,...",
                       help="comma-separated phase subset of "
                            "corpus,scenario,capacity,fuzz,explore "
                            "(default: all)")
    cov_p.add_argument("--full", action="store_true",
                       help="corpus phase runs the full corpus (default: "
                            "the tier-1 slice; REPRO_CONFORM_FULL=1 also "
                            "forces full)")
    cov_p.add_argument("--diff", action="store_true",
                       help="print the side-by-side backend coverage diff")
    cov_p.add_argument("--load", nargs="+", default=None, metavar="FILE",
                       help="merge exported repro-coverage/1 JSONL files "
                            "and report, instead of collecting")
    cov_p.add_argument("--out", default=None,
                       help="write the merged map as repro-coverage/1 "
                            "JSONL ('-' for stdout)")
    cov_p.add_argument("--json", default=None,
                       help="write the per-backend coverage reports as "
                            "JSON ('-' for stdout)")
    cov_p.add_argument("--html", default=None,
                       help="write the HTML coverage heatmap dashboard")
    cov_p.add_argument("--max-states", type=int, default=20_000,
                       help="exploration state budget per scenario "
                            "(default 20000)")
    cov_p.add_argument("--core-class", choices=sorted(CORE_CLASSES),
                       default="SLM")

    perf_p = sub.add_parser(
        "perf", help="single-run throughput microbenchmarks "
                     "(writes BENCH_perf.json + baseline comparison)")
    perf_p.add_argument("--groups", default=None,
                        help="comma-separated benchmark groups "
                             "(default: litmus,mp,sos,fuzz)")
    perf_p.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per group (default 3)")
    perf_p.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup repetitions (default 1)")
    perf_p.add_argument("--out", default="benchmarks/out/BENCH_perf.json",
                        help="output payload path "
                             "(default benchmarks/out/BENCH_perf.json)")
    perf_p.add_argument("--baseline", default="benchmarks/perf_baseline.json",
                        help="baseline payload to compare against "
                             "(default benchmarks/perf_baseline.json; "
                             "skipped if missing)")
    perf_p.add_argument("--write-baseline", action="store_true",
                        help="also overwrite the baseline file with this "
                             "run's numbers (documented refresh flow)")
    return parser


def cmd_list(args) -> int:
    print("Workloads (SPLASH-3-like and PARSEC-like):")
    for name in sorted(ALL_WORKLOADS):
        workload = ALL_WORKLOADS[name](num_threads=4, scale=0.1)
        print(f"  {name:16s} {workload.description}")
    print("\nCommit modes:", ", ".join(sorted(MODES)))
    return 0


def cmd_run(args) -> int:
    mode = _resolve_mode(args.backend, args.mode)
    params = table6_system(args.core_class, num_cores=args.cores,
                           commit_mode=mode, backend=args.backend)
    workload = ALL_WORKLOADS[args.workload](num_threads=args.cores,
                                            scale=args.scale)
    result = run_workload(workload, params, check=mode is not CommitMode.OOO_UNSAFE)
    label = mode.value if args.backend == "baseline" \
        else f"{mode.value}, {args.backend}"
    print(f"{args.workload} on {args.cores}x {args.core_class} "
          f"({label}):")
    print("  " + result.summary())
    print(f"  blocked writes/kstore:   {result.writes_blocked_per_kilostore:.3f}")
    print(f"  uncacheable reads/kload: {result.uncacheable_per_kiloload:.3f}")
    return 0


def cmd_compare(args) -> int:
    rows = experiments.fig10_ooo_commit(
        [args.workload], core_class=args.core_class, num_cores=args.cores,
        scale=args.scale)
    print(experiments.fig10_time_table(rows))
    print()
    print(experiments.fig10_stall_table(rows))
    return 0


def cmd_litmus(args) -> int:
    from .consistency.litmus import run_litmus, standard_suite

    mode = MODES[args.mode]
    failures = 0
    for test in standard_suite():
        if args.name and test.name != args.name:
            continue
        cores = 16 if len(test.threads) > 4 else 4
        params = table6_system("SLM", num_cores=cores, commit_mode=mode)
        outcome = run_litmus(test, params)
        bad = outcome.forbidden_hit or outcome.checker_violation
        failures += bool(bad)
        status = "FORBIDDEN/VIOLATION" if bad else "ok"
        print(f"{test.name:24s} {status:20s} {outcome.registers}")
    return 1 if failures else 0


def _say_for(*outputs):
    """print() twin that avoids corrupting a stdout data stream: when
    any requested output path is ``-``, chatter moves to stderr."""
    if any(str(out) == "-" for out in outputs if out):
        return lambda *a, **kw: print(*a, file=sys.stderr, **kw)
    return print


def cmd_trace(args) -> int:
    import time

    say = _say_for(args.out, args.events_out)
    mode = _resolve_mode(args.backend, args.mode)
    params = table6_system(args.core_class, num_cores=args.cores,
                           commit_mode=mode, backend=args.backend)
    traces = _resolve_traces(args.workload, args.cores, args.scale)
    result, events = run_observed(
        traces, params, check=mode is not CommitMode.OOO_UNSAFE)
    meta = {
        "workload": args.workload, "mode": mode.value,
        "backend": args.backend,
        "cores": args.cores, "core_class": args.core_class,
        "cycles": result.cycles,
    }
    written = write_chrome_trace(result.spans, args.out, metadata={
        **meta, "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    say(f"{args.workload} ({mode.value}): {result.cycles} cycles, "
        f"{len(events)} events, {written} spans -> {args.out}")
    for cat, summary in sorted(result.span_summaries.items()):
        say(f"  {cat:14s} n={summary['count']:<6d} "
            f"mean={summary['mean']:8.1f} p50={summary['p50']:6.0f} "
            f"p99={summary['p99']:6.0f} max={summary['max']:6.0f}")
    if args.events_out:
        count = write_events_jsonl(events, args.events_out, meta=meta)
        say(f"  {count} events -> {args.events_out}")
    return 0


def cmd_profile(args) -> int:
    import json

    say = _say_for(args.json)
    mode = MODES[args.mode]
    params = table6_system(args.core_class, num_cores=args.cores,
                           commit_mode=mode)
    traces = _resolve_traces(args.workload, args.cores, args.scale)
    system = MulticoreSystem(params)
    system.load_program(traces)
    result, report = profiled_run(system)
    wall = report.wall_seconds
    say(f"{args.workload} ({mode.value}): {result.cycles} simulated cycles "
        f"in {wall:.3f}s host time "
        f"({result.cycles / max(wall, 1e-9):,.0f} cycles/s)")
    say(report.render())
    if args.json:
        from .obs.export import open_output

        with open_output(args.json) as handle:
            json.dump(report.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        say(f"profile payload -> {args.json}")
    return 0


def _blame_side(name_or_path: str, mode: CommitMode, args):
    """Events + cycle count for a CLI target: a ``.jsonl`` trace file
    loads offline, anything else runs live under *mode*."""
    import os

    from .obs.causal import CausalGraph

    if os.path.exists(name_or_path) and name_or_path not in TRACEABLE:
        header, events = read_trace_jsonl(name_or_path)
        meta = header.get("meta", {})
        cycles = int(meta.get("cycles") or
                     max((e.cycle for e in events), default=0))
        label = str(meta.get("workload", name_or_path))
        if meta.get("mode"):
            label = f"{label} ({meta['mode']})"
        return events, cycles, label, meta
    if name_or_path not in TRACEABLE and not is_litmus_target(name_or_path):
        raise SystemExit(f"repro: {name_or_path!r} is neither a trace file "
                         f"nor a workload/scenario/litmus: target (choose "
                         f"from {', '.join(TRACEABLE)} or litmus:<NAME>)")
    params = table6_system(args.core_class, num_cores=args.cores,
                           commit_mode=mode, backend=args.backend)
    traces = _resolve_traces(name_or_path, args.cores, args.scale)
    result, events = run_observed(
        traces, params, check=mode is not CommitMode.OOO_UNSAFE)
    label = name_or_path if args.backend == "baseline" \
        else f"{name_or_path} [{args.backend}]"
    return (events, result.cycles, f"{label} ({mode.value})",
            {"workload": name_or_path, "mode": mode.value,
             "backend": args.backend})


def cmd_blame(args) -> int:
    import json

    from .obs.blame import build_blame, render_blame
    from .obs.causal import CausalGraph

    say = _say_for(args.json)
    events, cycles, label, meta = _blame_side(
        args.target, _resolve_mode(args.backend, args.mode), args)
    graph = CausalGraph.from_events(events)
    payload = build_blame(graph, cycles=cycles, meta=meta)
    say(f"{label}: {cycles} cycles, {len(events)} events, "
        f"{payload['graph']['episodes']} WritersBlock episode(s)")
    say("")
    say(render_blame(payload, top=args.top))
    if args.json:
        from .obs.export import open_output

        with open_output(args.json) as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        say(f"\nblame payload -> {args.json}")
    return 0


def cmd_trace_diff(args) -> int:
    import json

    from .obs.diff import diff_traces, render_diff

    say = _say_for(args.json)
    events_a, cycles_a, label_a, __ = _blame_side(
        args.a, _resolve_mode(args.backend, args.mode), args)
    target_b = args.b if args.b is not None else args.a
    events_b, cycles_b, label_b, __ = _blame_side(
        target_b, _resolve_mode(args.backend, args.vs_mode), args)
    if label_a == label_b:
        label_a, label_b = f"a:{label_a}", f"b:{label_b}"
    payload = diff_traces(events_a, events_b,
                          cycles=(cycles_a, cycles_b),
                          labels=(label_a, label_b), top=args.top)
    say(render_diff(payload, top=args.top))
    if args.json:
        from .obs.export import open_output

        with open_output(args.json) as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        say(f"\ndiff payload -> {args.json}")
    return 0


def cmd_fig8(args) -> int:
    rows = experiments.fig8_writersblock_rates(
        args.benches, num_cores=args.cores, scale=args.scale)
    print(experiments.fig8_table(rows))
    return 0


def cmd_fig9(args) -> int:
    rows = experiments.fig9_overheads(
        args.benches, core_class=args.core_class, num_cores=args.cores,
        scale=args.scale)
    print(experiments.fig9_table(rows))
    return 0


def cmd_fig10(args) -> int:
    rows = experiments.fig10_ooo_commit(
        args.benches, core_class=args.core_class, num_cores=args.cores,
        scale=args.scale)
    print(experiments.fig10_time_table(rows))
    print()
    print(experiments.fig10_stall_table(rows))
    headline = experiments.fig10_headline(rows)
    print()
    for key, value in headline.items():
        print(f"{key}: {value:.1f}")
    return 0


def cmd_table2(args) -> int:
    from .consistency.litmus import SimpleOp, enumerate_interleavings

    reader = [SimpleOp(0, "ld", "y"), SimpleOp(0, "ld", "x")]
    writer = [SimpleOp(1, "st", "x"), SimpleOp(1, "st", "y")]
    for i, (order, loads) in enumerate(
            enumerate_interleavings([reader, writer]), start=1):
        ops = " -> ".join(f"t{op.thread}:{op.kind} {op.var}" for op in order)
        print(f"({i}) {ops}   loads={loads}")
    return 0


def cmd_table6(args) -> int:
    print(experiments.table6_text())
    return 0


def cmd_bench(args) -> int:
    import os

    from .exp.bench import (DEFAULT_BENCH_SET, QUICK_BENCH_SET, QUICK_CORES,
                            QUICK_SCALE, run_bench)
    from .exp.drivers import DRIVERS, BenchConfig

    if args.trend:
        from .exp.trend import diff_generations, render_trend

        if len(args.trend) > 2:
            raise SystemExit("repro: --trend takes OLD [NEW] (at most two "
                             "directories)")
        old_dir = args.trend[0]
        new_dir = (args.trend[1] if len(args.trend) == 2
                   else args.out_dir or "benchmarks/out")
        try:
            payload = diff_generations(old_dir, new_dir,
                                       threshold=args.trend_threshold)
        except ValueError as exc:
            raise SystemExit(f"repro: {exc}")
        print(render_trend(payload))
        return 0

    if args.list_drivers:
        for name in DRIVERS:
            print(name)
        return 0
    names = (args.only.split(",") if args.only else list(DRIVERS))
    names = [n.strip() for n in names if n.strip()]
    if args.quick:
        cfg = BenchConfig(
            benches=tuple(args.benches) if args.benches else QUICK_BENCH_SET,
            cores=QUICK_CORES if args.cores == 16 else args.cores,
            scale=QUICK_SCALE if args.scale == 2.0 else args.scale,
            backend=args.backend)
        out_dir = args.out_dir or "benchmarks/out/quick"
    else:
        cfg = BenchConfig(
            benches=tuple(args.benches) if args.benches is not None
            else DEFAULT_BENCH_SET,
            cores=args.cores, scale=args.scale, backend=args.backend)
        out_dir = args.out_dir or "benchmarks/out"
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_CACHE_DIR", ".repro-cache")
    runs = run_bench(names, cfg, out_dir, workers=args.workers,
                     timeout=args.timeout, cache_dir=cache_dir, echo=print)
    total_wall = sum(r.wall_seconds for r in runs)
    executed = sum(r.report.engine_run.executed_seconds
                   for r in runs if r.report.engine_run)
    print(f"\n{len(runs)} drivers in {total_wall:.1f}s wall "
          f"({executed:.1f}s serial-equivalent) -> {out_dir}")
    return 0


def cmd_conform(args) -> int:
    import pathlib

    from .conform.runner import (full_requested, load_corpus,
                                 run_conformance, tier1_slice)

    if args.replay:
        from .conform.witness import replay_witness

        report = replay_witness(args.replay)
        blame = report.get("blame") or {}
        print(f"witness: {report['test']} [{report['kind']}] "
              f"mode={report['mode']} cores={report['num_cores']}")
        print(f"  recorded: {report['recorded']}")
        print(f"  replayed: {report['registers']}")
        print(f"  match={report['match']} "
              f"forbidden_hit={report['forbidden_hit']} "
              f"checker_violation={bool(report['checker_violation'])} "
              f"cycles={report['cycles']}")
        for step in blame.get("top") or []:
            print(f"  blame: {step}")
        if args.json:
            _dump_json(report, args.json)
        return 0 if report["match"] else 1

    if args.regen:
        from .conform.generator import write_corpus

        target = pathlib.Path(args.corpus_dir or "tests/conformance/corpus")
        written = write_corpus(target)
        print(f"wrote {len(written)} litmus tests -> {target}")
        return 0

    corpus_path = pathlib.Path(args.corpus_dir) if args.corpus_dir else None
    tests = load_corpus(corpus_path)
    sliced = False
    if not args.full and not full_requested():
        tests = tier1_slice(tests)
        sliced = True
    if args.only:
        wanted = {part.strip() for part in args.only.split(",") if part.strip()}
        tests = [t for t in load_corpus(corpus_path)
                 if t.name in wanted or t.family in wanted]
        sliced = False
        if not tests:
            raise SystemExit(f"repro: no corpus test or family matches "
                             f"{sorted(wanted)}")
    witness_dir = pathlib.Path(args.witness_dir) if args.witness_dir else None
    mode = _resolve_mode(args.backend, args.mode)
    label = "slice" if sliced else "full"
    print(f"repro conform: {len(tests)} tests ({label}), "
          f"model={args.model} backend={args.backend} mode={mode.value} "
          f"core-class={args.core_class} "
          f"perturb={args.perturb} seed={args.seed}")
    result = run_conformance(
        tests, model=args.model, mode=mode,
        core_class=args.core_class, backend=args.backend,
        perturb=args.perturb, seed=args.seed, witness_dir=witness_dir,
        explore=not args.no_explore, por=not args.no_por)
    for row in result.family_rows():
        print(f"  {row['family']:<8} tests={row['tests']:>3} "
              f"sim-outcomes={row['sim_outcomes']:>4} "
              f"operational={row['operational']:>4} "
              f"axiomatic={row['axiomatic']:>4} "
              f"violations={row['violations']}")
    for name in sorted(result.explorations):
        info = result.explorations[name]
        print(f"  explore/{name:<5} states={info['states']} "
              f"transitions={info['transitions']} "
              f"dedup={info['deduplicated']} slept={info['sleep_pruned']} "
              f"memo-hit={info['memo_hit_rate']:.0%} "
              f"pruned={info['sleep_prune_ratio']:.0%} "
              f"frontier={info['frontier_peak']} ok={info['ok']}")
    stages = " ".join(f"{stage}={seconds:.3f}s" for stage, seconds
                      in result.stage_seconds().items())
    print(f"stages: {stages}", file=sys.stderr)
    verdict = "OK" if result.ok else "VIOLATIONS"
    print(f"{verdict}: {len(result.reports)} tests, "
          f"{len(result.violations)} violations")
    for violation in result.violations:
        print(f"  {violation.kind}: {violation.test}: {violation.detail}")
    if witness_dir is not None and result.violations:
        print(f"witnesses -> {witness_dir}")
    if args.json:
        _dump_json(result.to_payload(), args.json)
    return 0 if result.ok else 1


def cmd_coverage(args) -> int:
    from .obs.coverage import (CoverageMap, coverage_report,
                               read_coverage_jsonl, render_coverage,
                               render_coverage_diff, write_coverage_jsonl)

    say = _say_for(args.out, args.json)
    backends = [args.backend] if args.backend else list(backend_names())
    cmap = CoverageMap()
    collection = {}

    if args.load:
        if args.targets or args.sources:
            raise SystemExit("repro: --load merges exported maps; it takes "
                             "no collection targets or --sources")
        for path in args.load:
            try:
                header, loaded = read_coverage_jsonl(path)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"repro: {exc}")
            cmap.merge(loaded)
            say(f"loaded {path}: backends "
                f"{', '.join(loaded.backends) or '(none)'}")
        if args.backend is None:
            backends = cmap.backends
    else:
        from .conform.coverage import (COVERAGE_SOURCES, collect_coverage)
        from .obs.scenarios import LITMUS_PREFIX

        sources = COVERAGE_SOURCES
        if args.sources:
            sources = tuple(part.strip()
                            for part in args.sources.split(",")
                            if part.strip())
            unknown = set(sources) - set(COVERAGE_SOURCES)
            if unknown:
                raise SystemExit(
                    f"repro: unknown coverage sources {sorted(unknown)} "
                    f"(choose from {', '.join(COVERAGE_SOURCES)})")
        tests = None
        scenario_names = None
        if args.targets:
            from .conform.runner import load_corpus

            litmus_names = {t[len(LITMUS_PREFIX):] for t in args.targets
                            if is_litmus_target(t)}
            scenario_names = [t for t in args.targets
                              if t in TRACE_SCENARIOS]
            bad = [t for t in args.targets
                   if not is_litmus_target(t) and t not in TRACE_SCENARIOS]
            if bad:
                raise SystemExit(
                    f"repro: unknown coverage targets {bad} (scenarios: "
                    f"{', '.join(sorted(TRACE_SCENARIOS))}; corpus tests: "
                    f"litmus:<NAME>)")
            if litmus_names:
                tests = [t for t in load_corpus()
                         if t.name in litmus_names]
                missing = litmus_names - {t.name for t in tests}
                if missing:
                    raise SystemExit(f"repro: no corpus test named "
                                     f"{sorted(missing)}")
            # Targets pin the collection to exactly what was named.
            sources = tuple(
                s for s in sources
                if (s == "corpus" and tests) or
                   (s == "scenario" and scenario_names))
        for backend in backends:
            say(f"collecting {backend} "
                f"({', '.join(sources) or 'nothing'}) ...")
            bmap, info = collect_coverage(
                backend, sources=sources, tests=tests,
                scenario_names=scenario_names, full=args.full,
                max_states=args.max_states, core_class=args.core_class)
            cmap.merge(bmap)
            collection[backend] = info

    reports = {backend: coverage_report(cmap, backend)
               for backend in backends}
    for backend in backends:
        say(render_coverage(reports[backend]))
    if args.diff:
        if len(backends) < 2:
            raise SystemExit("repro: --diff wants at least two backends in "
                             "play (collect them, or --load a map that "
                             "holds several)")
        import itertools

        for a, b in itertools.combinations(backends, 2):
            say("")
            say(render_coverage_diff(reports[a], reports[b], cmap))
    if args.out:
        count = write_coverage_jsonl(cmap, args.out,
                                     meta={"backends": backends})
        say(f"{count} transition records -> {args.out}")
    if args.json:
        _dump_json({"schema": "repro-coverage-report/1",
                    "backends": reports,
                    "collection": collection}, args.json)
    if args.html:
        from .analysis.dashboard import write_coverage_dashboard

        write_coverage_dashboard(
            cmap, args.html,
            meta={"backends": ",".join(backends)})
        say(f"dashboard -> {args.html}")
    undeclared = sum(len(r["undeclared"]) for r in reports.values())
    if undeclared:
        say(f"repro: {undeclared} observed transition(s) outside the "
            "declared alphabet — regenerate with tools/gen_alphabet.py")
        return 1
    return 0


def _dump_json(payload, dest: str) -> None:
    import json
    import pathlib

    text = json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        path = pathlib.Path(dest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def cmd_perf(args) -> int:
    import json
    import pathlib

    from .perf.harness import (DEFAULT_GROUPS, load_baseline, perf_payload,
                               run_perf_suite)

    groups = ([g.strip() for g in args.groups.split(",") if g.strip()]
              if args.groups else list(DEFAULT_GROUPS))
    print(f"repro perf: {len(groups)} groups, reps={args.reps} "
          f"(+{args.warmup} warmup)")
    results = run_perf_suite(groups, reps=args.reps, warmup=args.warmup,
                             echo=print)
    baseline = load_baseline(args.baseline) if args.baseline else None
    payload = perf_payload(results, reps=args.reps, warmup=args.warmup,
                           baseline=baseline, baseline_path=args.baseline)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    out.write_text(text)
    suite = payload["suite"]
    print(f"suite: {suite['runs']} runs in {suite['wall_seconds']}s "
          f"({suite['sims_per_sec_geomean']} sims/s geomean) -> {out}")
    if baseline is not None:
        cmp = payload["comparison"]
        per_group = " ".join(f"{g}={s}x" for g, s in
                             sorted(cmp["sims_per_sec_speedup"].items()))
        print(f"vs baseline ({cmp['baseline_code_version'][:12]}...): "
              f"{cmp['overall_speedup']}x overall  [{per_group}]")
    elif args.baseline:
        print(f"no baseline at {args.baseline}; comparison skipped")
    if args.write_baseline:
        base_out = pathlib.Path(args.baseline)
        base_payload = dict(payload)
        base_payload.pop("comparison", None)
        base_out.parent.mkdir(parents=True, exist_ok=True)
        base_out.write_text(json.dumps(base_payload, indent=1,
                                       sort_keys=True) + "\n")
        print(f"baseline refreshed -> {base_out}")
    return 0


def cmd_stats(args) -> int:
    from .analysis.charts import heatmap_chart
    from .obs.metrics import (DEFAULT_PERIOD, GAUGE_KEYS, summarize_metrics,
                              tile_series, write_metrics_jsonl)

    say = _say_for(args.json, args.out)
    period = DEFAULT_PERIOD if args.period is None else args.period

    if args.scale:
        # Mesh-scaling probe mode: one sampled run per tile count.
        from .perf.scaling import (DEFAULT_WORKLOAD, run_scale_probe,
                                   scaling_report)

        if args.out or args.html:
            raise SystemExit("repro: --scale probe mode supports --json "
                             "only (no single stream to export)")
        try:
            tile_counts = tuple(int(part) for part in
                                args.scale.split(",") if part.strip())
        except ValueError:
            raise SystemExit(f"repro: --scale wants comma-separated tile "
                             f"counts, got {args.scale!r}")
        if not tile_counts:
            raise SystemExit("repro: --scale wants at least one tile count")
        workload = args.target or DEFAULT_WORKLOAD
        if workload not in ALL_WORKLOADS:
            raise SystemExit(f"repro: probe mode needs a scalable workload "
                             f"(choose from {', '.join(sorted(ALL_WORKLOADS))})")
        wl_scale = 0.5 if args.workload_scale is None else args.workload_scale
        say(f"repro stats --scale: {workload} at "
            f"{', '.join(map(str, tile_counts))} tiles "
            f"(scale {wl_scale}, period {period}, "
            f"backend {args.backend})")
        points = run_scale_probe(tile_counts, workload=workload,
                                 scale=wl_scale, core_class=args.core_class,
                                 commit_mode=_resolve_mode(args.backend,
                                                           args.mode),
                                 backend=args.backend,
                                 period=period, echo=say)
        say("")
        say(scaling_report(points))
        if args.json:
            _dump_json({"probe": points}, args.json)
        return 0

    if not args.target:
        raise SystemExit("repro: stats needs a TARGET (workload, scenario "
                         "or litmus:<NAME>) unless --scale is given")
    mode = _resolve_mode(args.backend, args.mode)
    wl_scale = 1.0 if args.workload_scale is None else args.workload_scale
    params = table6_system(args.core_class, num_cores=args.cores,
                           commit_mode=mode, backend=args.backend)
    traces = _resolve_traces(args.target, args.cores, wl_scale)
    from .sim.runner import run_sampled

    result = run_sampled(traces, params, period=period,
                         check=mode is not CommitMode.OOO_UNSAFE)
    payload = dict(result.telemetry)
    payload["meta"] = {"workload": args.target, "mode": mode.value,
                       "backend": args.backend,
                       "cores": args.cores, "core_class": args.core_class}
    summary = summarize_metrics(payload)
    say(f"{args.target} ({mode.value}): {result.cycles} cycles, "
        f"{summary['samples']} samples @ period {period}")
    say(f"  {'gauge':10s} {'cap':>5s} {'mean':>8s} {'peak':>8s} "
        f"{'sat':>7s}  hottest")
    for gauge in payload["gauges"]:
        row = summary["gauges"][gauge]
        cap = "-" if row["capacity"] is None else str(row["capacity"])
        say(f"  {gauge:10s} {cap:>5s} {row['mean']:8.3f} "
            f"{row['peak']:8.3f} {row['saturation']:6.1%}  "
            f"t{row['hottest_tile']} ({row['hottest_mean']:.3f})")
    if args.heat:
        if args.heat not in GAUGE_KEYS:
            raise SystemExit(f"repro: unknown gauge {args.heat!r} "
                             f"(choose from {', '.join(GAUGE_KEYS)})")
        cap = payload["capacities"].get(args.heat)
        say("")
        say(heatmap_chart(tile_series(payload, args.heat),
                          title=f"[{args.heat}] per tile over time",
                          peak=float(cap) if cap else None))
    if args.json:
        _dump_json(summary, args.json)
    if args.out:
        count = write_metrics_jsonl(payload, args.out)
        say(f"  {count} samples -> {args.out}")
    if args.html:
        from .analysis.dashboard import write_dashboard

        write_dashboard(payload, args.html,
                        title=f"repro stats: {args.target}",
                        meta=payload["meta"])
        say(f"  dashboard -> {args.html}")
    return 0


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "litmus": cmd_litmus,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "blame": cmd_blame,
    "trace-diff": cmd_trace_diff,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "table2": cmd_table2,
    "table6": cmd_table6,
    "bench": cmd_bench,
    "conform": cmd_conform,
    "coverage": cmd_coverage,
    "perf": cmd_perf,
    "stats": cmd_stats,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
