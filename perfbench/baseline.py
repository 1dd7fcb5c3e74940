"""Run the benchmark over several seeds and write a BENCH_<label>.json file.

    python3 perfbench/baseline.py --label seed --runs 10

For every workload in BENCHMARK.json this runs ``--runs`` untraced runs
(seeds 1..runs) and one traced run, one process at a time, and records
each run's result line and report together with the median, quartiles
and spread (interquartile distance over median) of every metric.  A
spread above a third of the metric's bound is flagged, as is a run that
fails or prints no result.  The file goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = next((json.loads(x[7:]) for x in lines if x.startswith("report ")), {})
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "report": report}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    flagged = []
    for name in names:
        runs = [
            run_once(spec["command"], name, seed, spec["run_seconds"], 0)
            for seed in range(1, args.runs + 1)
        ]
        summary = {}
        for metric, bound in bounds.items():
            s = summarize([r["result"]["metrics"][metric]["value"] for r in runs])
            s["bound"] = bound
            summary[metric] = s
            steady = s["spread"] is not None and s["spread"] < bound / 3
            print(f"{name:16s} {metric:12s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}" + ("" if steady else "  UNSTEADY"))
            if not steady:
                flagged.append(f"{name}/{metric}")
        for r in runs:
            if not r["result"]["correct"]:
                flagged.append(f"{name}/seed{r['seed']} incorrect")
        traced = run_once(spec["command"], name, 1, spec["run_seconds"], 1)
        out["workloads"][name] = {"runs": runs, "summary": summary, "traced": traced}
    out["flagged"] = flagged
    path = BENCH_DIR / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}; flagged: {flagged or 'none'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
