"""Same-host benchmark of the WritersBlock simulator and its checkers.

Run from the repository root::

    python3 perfbench/run.py --workload splash16 --seed 1 --seconds 20 \
        --trace 0

Workloads: ``splash16`` (16-tile SPLASH-like simulations on all three
coherence backends), ``conform`` (tier-1 litmus-corpus differential
checks on all three backends) and ``explore`` (every POR exploration
scenario).  ``--trace 0`` prints the end-to-end metrics, measured with
no wrapper installed; ``--trace 1`` runs the same passes untraced and
then traced and prints the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import HostProbe  # noqa: E402
from tracer import OP_SPAN, Tracer, layer_of  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Default workload seed and the seed held out for confirming claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20171

#: Set-up is repeated in this many fresh interpreters and the median
#: normalized time reported.
SETUP_PROBES = 7

#: Operations kept by ``--tiny``.
TINY_OPS = 2

#: Longest stretch of a simulation timed without a host-probe sample.
SEGMENT_S = 0.25

#: Where traced runs write their spans (inside the checkout).
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _die(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def set_up(workload: str, seed: int):
    """Imports, input generation and corpus parse: the operations."""
    import workloads

    return workloads.WORKLOADS[workload](seed)


def setup_sample(workload: str, seed: int, probe) -> tuple:
    """(wall, normalized) set-up seconds of a fresh interpreter running
    this file with ``--setup-only``, normalized by host-probe samples
    taken just before and after it."""
    before = probe.sample()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    after = probe.sample()
    if completed.returncode != 0:
        _die(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    raw = float(completed.stdout.split()[-1])
    return raw, probe.normalize(raw, before, after)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value:>16.6g} {unit:8s} {note}".rstrip())


# ------------------------------------------------------------ end to end
def end_to_end(workload: str, measurement, setup_s: float) -> dict:
    """Bounded metrics.  Times are normalized seconds (see probe.py):
    rates are work per pass over the mean normalized pass time."""
    results = measurement.results
    first = measurement.passes[0]
    rate = measurement.rate
    sims = [sim for result in first for sim in result.sims]
    cycles = sum(sim.cycles for sim in sims)
    instrs = sum(sim.counters["core.committed"] for sim in sims)
    states = sum(result.counts.get("states", 0) for result in first)
    failed = sum(not result.ok for result in results)
    steps = states if workload == "explore" else cycles
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": rate(len(first)),
        "steps_per_s": rate(steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_frac": 1.0 - failed / len(results),
    }
    raw_pass_s = sum(r.host_s for r in results) / len(measurement.passes)
    print(f"{workload}: {len(measurement.passes)} pass(es) of {len(first)} "
          f"operations; mean pass {raw_pass_s:.3f} s wall, "
          f"{measurement.pass_s:.3f} s normalized (host factor "
          f"{raw_pass_s / measurement.pass_s:.3f})")
    print("bounded metrics (see BENCHMARK.json):")
    for name, unit in END_TO_END.items():
        _metric(name, metrics[name], unit)
    print("named metrics for this workload (normalized seconds):")
    # Per-operation and per-simulation times take their operation's
    # normalization factor.
    op_ms = [r.norm_s * 1e3 for r in results]
    sim_ms = [sim.host_s * 1e3 * r.norm_s / r.host_s
              for r in results for sim in r.sims]
    _metric("op_ms_p50", statistics.median(op_ms), "ms", f"n={len(op_ms)}")
    if sims:
        _metric("sims_per_s", rate(len(sims)), "1/s")
        _metric("sim_cycles_per_s", rate(cycles), "1/s")
        _metric("sim_instrs_per_s", rate(instrs), "1/s")
        _metric("sim_ms_p50", statistics.median(sim_ms), "ms",
                f"n={len(sim_ms)}")
        if len(sim_ms) >= 1000:
            _metric("sim_ms_p99", percentile(sim_ms, 99), "ms",
                    f"n={len(sim_ms)}, {len(sim_ms) // 100} beyond")
        _metric("sim_ipc", instrs / cycles, "instr/cycle", "simulated")
    if workload == "conform":
        _metric("tests_per_s", rate(len(first)), "1/s")
    if workload == "explore":
        _metric("states_per_s", rate(states), "1/s")
    _metric("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    _metric("fail_frac", failed / len(results), "ratio",
            f"{failed}/{len(results)} operations")
    _metric("raw_ops_per_s", len(first) / raw_pass_s, "1/s", "wall clock")
    return metrics


# -------------------------------------------------------------- per layer
UNIT_BY_SUFFIX = {"_s": "s", "_kb": "KiB", "_frac": "ratio",
                  "_rate": "ratio", "_ratio": "ratio"}
UNIT_BY_NAME = {"sim.ipc": "instr/cycle",
                "core.ticks_per_commit": "tick/instr"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric: by name, else by suffix, else count."""
    if name in UNIT_BY_NAME:
        return UNIT_BY_NAME[name]
    for suffix, unit in UNIT_BY_SUFFIX.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(measurement, untraced, setup_tracer, tracer,
              alloc_kb: float) -> dict:
    """Every per-layer metric from one traced measurement."""
    results = measurement.results
    sims = [sim for result in results for sim in result.sims]

    def counter(name: str, backend: str = "") -> int:
        return sum(sim.counters[name] for sim in sims
                   if not backend or sim.backend == backend)

    def explored(key: str) -> int:
        return sum(result.counts.get(key, 0) for result in results)

    cycles = sum(sim.cycles for sim in sims)
    instrs = counter("core.committed")
    ticks = tracer.count("core.tick")
    enum_keys = tracer.enum_keys
    states, transitions = explored("states"), explored("transitions")
    dedup, pruned = explored("deduplicated"), explored("sleep_pruned")
    m = {
        "workloads.gen_s": setup_tracer.total_time("workloads.gen"),
        "conform.parse_s": setup_tracer.total_time("conform.parse"),
        "sim.build_s": tracer.total_time("sim.build"),
        "sim.build_calls": tracer.count("sim.build"),
        "sim.load_s": tracer.total_time("sim.load"),
        "sim.run_self_s": tracer.self_time("sim.run"),
        "sim.alloc_peak_kb": alloc_kb,
        "sim.cycles": cycles,
        "sim.instrs": instrs,
        "sim.ipc": instrs / cycles if cycles else 0.0,
        "core.tick_calls": ticks,
        "core.self_s": tracer.self_time("core.tick"),
        "core.ticks_per_commit": ticks / instrs if instrs else 0.0,
    }
    for backend in ("baseline", "tardis", "rcp"):
        prefix = f"coherence.{backend}"
        m[f"{prefix}.cache_msgs"] = tracer.count(f"{prefix}.cache")
        m[f"{prefix}.cache_self_s"] = tracer.self_time(f"{prefix}.cache")
        m[f"{prefix}.dir_msgs"] = tracer.count(f"{prefix}.dir")
        m[f"{prefix}.dir_self_s"] = tracer.self_time(f"{prefix}.dir")
        m[f"{prefix}.core_calls"] = tracer.count(f"{prefix}.core")
        m[f"{prefix}.core_self_s"] = tracer.self_time(f"{prefix}.core")
        m[f"{prefix}.dir_requests"] = counter("dir.requests", backend)
    m.update({
        "coherence.baseline.writersblock_entered":
            counter("dir.writersblock_entered", "baseline"),
        "coherence.baseline.nacks_sent":
            counter("cache.nacks_sent", "baseline"),
        "coherence.tardis.renewals": counter("tardis.renewals", "tardis"),
        "coherence.rcp.reversals": counter("rcp.reversals", "rcp"),
        "network.sends": tracer.count("network.send"),
        "network.self_s": tracer.self_time("network.send"),
        "network.flits": counter("network.flits"),
        "event_queue.run_due_calls": tracer.count("event_queue.run_due"),
        "event_queue.self_s": tracer.self_time("event_queue.run_due"),
        "event_queue.fired": tracer.tallied("event_queue.run_due"),
        "consistency.check_calls": tracer.count("consistency.check"),
        "consistency.check_s": tracer.total_time("consistency.check"),
        "conform.operational_s": tracer.total_time("conform.operational"),
        "conform.axiomatic_s": tracer.total_time("conform.axiomatic"),
        "conform.enum_calls": len(enum_keys),
        "conform.enum_repeat_frac":
            1.0 - len(set(enum_keys)) / len(enum_keys) if enum_keys else 0.0,
        "conform.sim_runs": tracer.count("conform.litmus"),
        "conform.check_self_s": tracer.self_time("conform.check"),
        "conform.litmus_self_s": tracer.self_time("conform.litmus"),
        "verification.explore_self_s":
            tracer.self_time("verification.explore"),
        "verification.fork_calls": tracer.count("verification.fork"),
        "verification.fork_s": tracer.total_time("verification.fork"),
        "verification.fingerprint_s":
            tracer.total_time("verification.fingerprint"),
        "verification.settle_s": tracer.total_time("verification.settle"),
        "verification.states": states,
        "verification.transitions": transitions,
        "verification.memo_hit_rate":
            dedup / (states + dedup) if states + dedup else 0.0,
        "verification.sleep_prune_ratio":
            pruned / (transitions + pruned) if transitions + pruned else 0.0,
    })
    layer_self = sum(seconds for name, (__, seconds)
                     in tracer.totals().items() if name != OP_SPAN)
    m.update({
        "trace.wall_s": measurement.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        # Normalized pass times, so host contention does not move it.
        "trace.overhead_ratio": measurement.pass_s / untraced.pass_s,
        "trace.unattributed_s": measurement.wall_s - layer_self,
        "trace.spans": len(tracer.span_start),
    })
    return m


def print_layers(metrics: dict, tracer, wall: float) -> None:
    print("per-layer self time (traced wall "
          f"{wall:.3f} s = layer self times + unattributed):")
    shares = {}
    for name, (__, seconds) in tracer.totals().items():
        if name != OP_SPAN:
            layer = layer_of(name)
            shares[layer] = shares.get(layer, 0.0) + seconds
    shares["unattributed"] = metrics["trace.unattributed_s"]
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:34s} {seconds:12.4f} s {seconds / wall:7.1%}")
    print("per-layer metrics:")
    for name, value in metrics.items():
        _metric(name, value, layer_unit(name))


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("splash16", "conform", "explore"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: the first few operations, "
                             "one pass, one set-up sample")
    args = parser.parse_args(argv)
    _import_program()

    if args.setup_only:
        set_up(args.workload, args.seed)
        print(time.perf_counter() - START)
        return 0

    import workloads

    originals = Tracer.originals()
    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed():
            ops = set_up(args.workload, args.seed)
    else:
        ops = set_up(args.workload, args.seed)
    max_passes, setup_samples_n = None, SETUP_PROBES
    if args.tiny:
        ops, max_passes, setup_samples_n = ops[:TINY_OPS], 1, 1
    probe = HostProbe(SEGMENT_S)

    if not args.trace:
        setup_samples = [setup_sample(args.workload, args.seed, probe)
                         for __ in range(setup_samples_n)]
        setup_s = statistics.median(norm for __, norm in setup_samples)
        measurement = workloads.measure(ops, args.seconds, probe,
                                        max_passes=max_passes)
        if not Tracer.untouched(originals):
            _die("a program callable was replaced during an untraced run")
        metrics = end_to_end(args.workload, measurement, setup_s)
        print("set-up samples, wall / normalized (s): " + ", ".join(
            f"{raw:.4f}/{norm:.4f}" for raw, norm in setup_samples))
    else:
        untraced = workloads.measure(ops, args.seconds / 2, probe,
                                     max_passes=max_passes)
        # No probe samples inside traced operations: they would land in
        # the self time of whichever span was open.
        probe.segment_s = None
        tracer = Tracer()
        with tracer.installed():
            measurement = workloads.measure(
                ops, 0.0, probe, min_passes=len(untraced.passes),
                max_passes=len(untraced.passes),
                span=lambda index: tracer.span(OP_SPAN, index))
        if not Tracer.untouched(originals):
            _die("tracer wrappers were not removed")
        alloc_kb = (workloads.alloc_probe(ops[0], probe)
                    if args.workload != "explore" else 0.0)
        metrics = per_layer(measurement, untraced, setup_tracer, tracer,
                            alloc_kb)
        print(f"{args.workload}: {len(measurement.passes)} traced pass(es), "
              f"{len(measurement.results)} operations")
        print_layers(metrics, tracer, measurement.wall_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        workloads.check_repeats(untraced.passes[0], measurement.passes)
        measurement.passes = untraced.passes + measurement.passes

    results = measurement.results
    failed = [r for r in results if not r.ok]
    for name, error in workloads.describe_failures(results):
        print(f"FAILED {name}: {error}")
    print(f"sim_digest {workloads.workload_digest(measurement.passes[0])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value,
                           "unit": END_TO_END.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
