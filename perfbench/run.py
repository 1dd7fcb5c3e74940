"""Benchmark of the nanowords census and identification pipeline.

    python3 perfbench/run.py --workload census5 --seed 1 --seconds 25 --trace 0

Workloads: census5, candidates6, identify_stream (see README.md here).
With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it measures half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the program or its reference data cannot
be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer, span_totals
from workloads import WORKLOADS, Program, load_golden

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


def measure(workload, seconds: float) -> list:
    """Run operations back to back until ``seconds`` have passed (at least one)."""
    samples = []
    end = time.perf_counter() + seconds
    while True:
        samples += workload.step()
        if time.perf_counter() >= end:
            return samples


def measure_traced(workload, seconds: float, prog: Program, tracer: Tracer):
    """Alternate untraced and traced blocks of operations for ``seconds``.

    Interleaving puts both halves under the same machine conditions, so
    their difference is the tracing overhead.  While traced, the
    workload's own operation runs under an "op" root span and a CLI call
    under a "cli" one.  Returns the untraced and the traced samples.
    """
    halves: tuple[list, list] = ([], [])
    end = time.perf_counter() + seconds
    traced = False
    while True:
        prog.set_traced(traced)
        for _ in range(workload.block):
            if traced and workload.fresh_per_op:
                tracer.new_scope()
            halves[traced].extend(workload.step())
        traced = not traced
        if time.perf_counter() >= end and halves[1]:
            prog.set_traced(False)
            return halves


def failed_share(samples: list) -> float:
    """Wrong or failed outputs divided by attempts."""
    return sum(not s.ok for s in samples) / len(samples)


def latency_summary(samples: list, kind: str, clock: str) -> dict:
    xs = [getattr(s, clock) for s in samples if s.kind == kind and s.ok]
    if not xs:
        return {"n": 0}
    return {
        "n": len(xs),
        "p50_ms": percentile(xs, 50) * 1e3,
        "p90_ms": percentile(xs, 90) * 1e3,
        "p99_ms": percentile(xs, 99) * 1e3,
        "tail_ms": percentile(xs, tail_percentile(len(xs))) * 1e3,
        "per_s": len(xs) / sum(xs),
    }


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, in [50, 99]."""
    return min(99.0, max(50.0, 100.0 * (1 - 10 / n)))


def end_to_end(workload, setup_times: list[float], samples: list, scale: float) -> tuple[dict, dict]:
    """The gated metrics (same names on every workload) and the full report.

    Operation latencies and set-up times are CPU time of the process and
    its reaped children: the work is CPU-bound, and CPU time leaves out
    the time a shared machine takes the processor away.  The gated ones
    are multiplied by ``scale`` (see speed.py), which takes out the
    changing speed of the machine; the report keeps the CPU times as
    measured, under the workload's own names, and the wall-clock times.
    """
    op = latency_summary(samples, "op", "cpu")
    cli = latency_summary(samples, "cli", "cpu")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_cpu_s = statistics.median(setup_times)
    metrics = {
        "setup_s": (setup_cpu_s * scale, "s"),
        "op_norm_p50_ms": (op.get("p50_ms", 0.0) * scale, "ms"),
        "op_norm_tail_ms": (op.get("tail_ms", 0.0) * scale, "ms"),
        "ops_per_norm_s": (op.get("per_s", 0.0) / scale, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = {
        "census5": {"census_s": (op.get("p50_ms", 0.0) / 1e3, "s", op["n"])},
        "candidates6": {"candidates_s": (op.get("p50_ms", 0.0) / 1e3, "s", op["n"])},
        "identify_stream": {
            "identify_p50_ms": (op.get("p50_ms", 0.0), "ms", op["n"]),
            "identify_p99_ms": (op.get("p99_ms", 0.0), "ms", op["n"]),
            "identify_per_s": (op.get("per_s", 0.0), "1/s", op["n"]),
            "cli_identify_p50_ms": (cli.get("p50_ms", 0.0), "ms", cli["n"]),
            "cli_identify_p90_ms": (cli.get("p90_ms", 0.0), "ms", cli["n"]),
        },
    }[workload.name]
    named["setup_cpu_s"] = (setup_cpu_s, "s", len(setup_times))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    report = {
        "speed_scale": scale,
        "op_cpu": op,
        "op_wall": latency_summary(samples, "op", "wall"),
        "cli_cpu": cli,
        "cli_wall": latency_summary(samples, "cli", "wall"),
        "named": named,
    }
    if workload.name == "identify_stream":
        report["query_letters"] = dict(sorted(workload.letters.items()))
        report["cache_bytes"] = workload.cache_bytes
    return metrics, report


def per_layer(workload, tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics from the traced half.

    Library layers are per operation of the workload, from the "op" root
    spans alone; the ``cli.*`` rows come from the "cli" root spans (and
    set-up, for saving the cache).
    """
    ops = sum(1 for s in traced if s.kind == "op")
    clis = sum(1 for s in traced if s.kind == "cli")
    rows = span_totals(tracer.spans, "op")
    cli_rows = span_totals(tracer.spans, "cli")
    setup_rows = span_totals(tracer.spans, "setup")

    def row(name, rows=rows):
        return rows.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {
        "census.candidates.s": (row("census.candidates")["total"] / ops, "s"),
        "census.distinguish.s": (row("census.distinguish")["total"] / ops, "s"),
        "census.symmetry.s": (row("census.symmetry")["total"] / ops, "s"),
    }
    for layer in ("census.identify", "census.lookup", "moves.reduce", "words.parse") + tuple(
        f"invariants.{f}" for f in ("based_matrix", "canonical_form", "n_values", "covering")
    ):
        m[f"{layer}.calls"] = (row(layer)["calls"] / ops, "count")
        m[f"{layer}.self_s"] = (row(layer)["self"] / ops, "s")
    inputs, found = tracer.candidate_inputs, tracer.candidate_found
    m["census.candidates.inputs"] = (inputs / ops, "count")
    m["census.candidates.found"] = (found / ops, "count")
    m["census.candidates.yield"] = (share(found, inputs), "ratio")
    m["moves.reduce.repeat_share"] = (share(tracer.reduce_repeats, row("moves.reduce")["calls"]), "ratio")
    m["invariants.based_matrix.distinct_share"] = (
        share(tracer.based_distinct, row("invariants.based_matrix")["calls"]),
        "ratio",
    )
    states = tracer.count("op", "moves.states_expanded")
    if states is not None:
        search_s = row("census.candidates")["total"] + row("moves.reduce")["total"]
        m["moves.states_expanded"] = (states / ops, "count")
        m["moves.states_per_s"] = (share(states, search_s), "1/s")
    validations = tracer.count("op", "words.validate.calls")
    if validations is not None:
        m["words.validate.calls"] = (validations / ops, "count")
    load = row("cli.load_census", cli_rows)
    save = row("cli.save_census", setup_rows)
    m["cli.load_census.s"] = (share(load["total"], load["calls"]), "s")
    m["cli.save_census.s"] = (share(save["total"], save["calls"]), "s")
    m["cli.parse.calls"] = (share(row("words.parse", cli_rows)["calls"], clis), "count")
    m["cli.cache_bytes"] = (getattr(workload, "cache_bytes", 0), "B")
    t_med = statistics.median(s.cpu for s in traced if s.kind == "op")
    u_med = statistics.median(s.cpu for s in untraced if s.kind == "op")
    m["trace.overhead_share"] = (t_med / u_med - 1, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prog = Program(ROOT)
        golden = load_golden(ROOT)
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    env = environment(args)
    workload = WORKLOADS[args.workload](prog, golden, args.seed, OUT_DIR)
    try:
        if args.trace:
            tracer = Tracer()
            prog.tracer = tracer
            prog.set_traced(True)
            with tracer.span("setup"):
                workload.setup()
            tracer.reset_counts()
            untraced, traced = measure_traced(workload, args.seconds, prog, tracer)
            samples = untraced + traced
            metrics = per_layer(workload, tracer, traced, untraced)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            report = {"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(tracer.spans)}
        else:
            with SpeedProbe() as probe:
                setup_times = [workload.setup() for _ in range(workload.setup_reps)]
                samples = measure(workload, args.seconds)
            metrics, report = end_to_end(workload, setup_times, samples, probe.scale())
            report["reference"] = {
                "n": len(probe.samples),
                "p50_ms": statistics.median(probe.samples) * 1e3,
            }
    finally:
        workload.close()

    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    errors = [s.error for s in samples if not s.ok][:5]
    report.update(env=env, attempted=attempted, failed=failed,
                  failed_share=failed_share(samples), errors=errors)
    for name, (value, unit, *n) in sorted({**metrics, **report.get("named", {})}.items()):
        print(f"{name} {value:.6g} {unit}" + (f" (n={n[0]})" if n else ""))
    print(f"failed_share {failed_share(samples):.6g} ({failed}/{attempted})")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
