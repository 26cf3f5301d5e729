"""Repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_qos_mixed --seed 1 --seconds 10 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  With ``--trace 0``
the run reports the end-to-end metrics.  It checks a warm-up pass's
outputs against a model, then sets up and serves the workload's inputs
repeatedly for ``--seconds`` seconds, reports the median pass rate and
set-up time and the percentiles of every single call timed in the run,
and runs the capacity sweep outside the timed passes.  With
``--trace 1`` it reports the per-layer metrics of ``perfbench/layers.py``
instead, alternating traced and untraced passes to state the tracing
overhead, and re-runs one traced pass in a child process under another
``PYTHONHASHSEED`` to check that every count repeats exactly.

The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records where
and how the run was measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Every run times at least this many passes, however short --seconds is.
MIN_PASSES = 3

def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fingerprint",
        action="store_true",
        help="print the counts of one traced pass and exit (hash-seed check)",
    )
    return parser.parse_args(argv)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload):
    # Collect the previous pass's garbage now, not inside the next timing.
    gc.collect()
    started = perf_counter()
    state = workload.setup()
    return state, perf_counter() - started


def warm_up(workload):
    """The untimed first pass: it forks decode workers and fills lazy
    tables, and its outputs are the ones checked."""
    state, _ = timed_setup(workload)
    return state, workload.run_pass(state)


def measure(workload, seconds: float):
    """End-to-end metrics: the check, the timed passes, then the sweep."""
    from workloads import percentile

    state, first = warm_up(workload)
    mismatches = workload.check(state, first)
    setups, rates, latencies = [], [], []
    attempted = first.ops
    deadline = perf_counter() + seconds
    while len(rates) < MIN_PASSES or perf_counter() < deadline:
        # Drop the previous pass's store and report before the next set-up,
        # so that the peak RSS holds one pass's state, not two.
        fresh = result = None
        fresh, setup_s = timed_setup(workload)
        result = workload.run_pass(fresh)
        setups.append(setup_s)
        rates.append(result.ops / result.wall_s)
        attempted += result.ops
        if result.outcome != first.outcome:
            mismatches.append("a pass's simulated outcome differs from the first pass's")
        if result.op_ms:
            latencies += result.op_ms
            continue
        # Single store calls, one fixed-size round after each pass so that,
        # like the passes, they sample the whole run.
        round_ms, wrong = workload.op_round(state)
        latencies += round_ms
        attempted += len(round_ms)
        mismatches += wrong
    # Peak memory of the measured passes, read before the capacity sweep
    # serves its (differently sized) traces.
    peak_rss = peak_rss_mib()
    outcome = first.outcome
    capacity, rungs = outcome.get("sim_capacity_rph"), []
    if capacity is None:
        capacity, rungs = workload.capacity()
    # Wall figures are taken over the whole run: the median pass rate and
    # set-up time, and percentiles of every single call timed in it.
    values = {
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": percentile(latencies, 0.99),
        "read_p50_sim_h": outcome["read_p50_sim_h"],
        "read_p99_sim_h": outcome["read_p99_sim_h"],
        "write_p99_sim_h": outcome["write_p99_sim_h"],
        "seq_reads_per_block": outcome["seq_reads_per_block"],
        "nt_per_user_byte": outcome["nt_per_user_byte"],
        "ok_ratio": outcome["ok_ratio"],
        "sim_capacity_rph": capacity,
        "peak_rss_mib": peak_rss,
    }
    extra = {
        "pass_ops_per_s": rates,
        "op_latency_samples": len(latencies),
        "capacity_rungs": rungs,
    }
    return values, attempted, mismatches, extra


def traced_pass(workload):
    """One set-up plus pass with every layer wrapper installed."""
    from layers import LayerTrace

    gc.collect()
    with LayerTrace(metric_units(1)) as trace:
        started = perf_counter()
        state = workload.setup()
        result = workload.run_pass(state)
        wall = perf_counter() - started
    return trace, result, wall


def trace_run(workload, args):
    """Per-layer metrics: alternating untraced and traced passes."""
    state, first = warm_up(workload)
    attempted = first.ops
    mismatches = workload.check(state, first)
    untraced, traced, walls, traces = [], [], [], []
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        fresh, _ = timed_setup(workload)
        plain = workload.run_pass(fresh)
        untraced.append(plain.ops / plain.wall_s)
        trace, result, wall = traced_pass(workload)
        traced.append(result.ops / result.wall_s)
        walls.append(wall)
        traces.append(trace)
        attempted += plain.ops + result.ops
        for other in (plain, result):
            if other.outcome != first.outcome:
                mismatches.append("a pass's simulated outcome differs from the warm-up's")

    counts = [exact_figures(trace) for trace in traces]
    if any(count != counts[0] for count in counts):
        mismatches.append("a traced pass's work counts differ from the first's")
    child = hash_seed_fingerprint(args.workload, args.seed)
    if child != {"outcome": first.outcome, "counts": counts[0]}:
        mismatches.append("work counts or outcome differ under another PYTHONHASHSEED")

    values = combine(traces)
    wall = statistics.fmean(walls)
    remainder = statistics.fmean(
        pass_wall - trace.self_total() for pass_wall, trace in zip(walls, traces)
    )
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = remainder
    values["trace.remainder_share"] = remainder / wall
    values["trace.ops_per_s_traced"] = statistics.median(traced)
    values["trace.ops_per_s_untraced"] = statistics.median(untraced)
    values["trace.overhead_ratio"] = (
        values["trace.ops_per_s_untraced"] / values["trace.ops_per_s_traced"]
    )
    values["service.cache.hit_rate"], values["service.cache.evictions"] = cache_figures(
        first
    )
    return values, attempted, mismatches, {"passes": len(traces)}


def combine(traces) -> dict[str, float]:
    """Per-pass means over the traced passes (counts are identical)."""
    merged: dict[str, float] = {}
    for trace in traces:
        for key, value in trace.metrics().items():
            merged[key] = merged.get(key, 0.0) + value / len(traces)
    return merged


def exact_figures(trace) -> dict[str, float]:
    """The figures of one traced pass that are counts, not wall time."""
    return {
        key: value
        for key, value in sorted(trace.metrics().items())
        if not key.endswith("_s")
    }


def cache_figures(result) -> tuple[float, float]:
    stats = getattr(result.detail, "cache", None)
    if stats is None:
        return 0.0, 0.0
    return stats.hit_rate, float(stats.evictions)


def hash_seed_fingerprint(workload: str, seed: int) -> dict:
    """Counts and outcome of one traced pass in a child process that runs
    under a different ``PYTHONHASHSEED`` than this one."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--fingerprint",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def provenance(workload, extra) -> dict:
    import numpy
    from workloads import CLUSTER_SHARDS, DECODE_WORKERS

    from repro import envflags

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            sha = ref
    return {
        "workload": workload.name,
        "host_cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "repro_flags": {flag.name: envflags.read(flag.name) for flag in envflags.registered_flags()},
        "decode_workers": DECODE_WORKERS,
        "cluster_shards": CLUSTER_SHARDS,
        **extra,
    }


def stop_workers() -> None:
    """Shut the decode worker pool and wait for every child to end."""
    from repro.pipeline.parallel import shared_engine
    from workloads import CLUSTER_SHARDS, DECODE_WORKERS

    shared_engine(DECODE_WORKERS, None, CLUSTER_SHARDS).shutdown()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.fingerprint:
            trace, result, _ = traced_pass(workload)
            print(json.dumps({"outcome": result.outcome, "counts": exact_figures(trace)}))
            return 0
        if args.trace:
            values, attempted, mismatches, extra = trace_run(workload, args)
        else:
            values, attempted, mismatches, extra = measure(workload, args.seconds)
    finally:
        stop_workers()
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units(args.trace).items()
    }
    if mismatches:
        for message in mismatches[:20]:
            print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(workload, extra)}))
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": attempted,
                "failed": len(mismatches),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
