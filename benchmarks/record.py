#!/usr/bin/env python3
"""Run every workload over several seeds and record one point of the trajectory.

    python3 benchmarks/record.py --seeds 10 --out benchmarks/baseline/BENCH_<commit>.json

Each workload runs ``--seeds`` times untraced, one seed after another, for
BENCHMARK.json's ``run_seconds``, then once traced. For every end-to-end
metric the record keeps the values, their median and quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
Exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    record = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for name in names:
        values, named_values = {}, {}
        for seed in seeds:
            report, result = run_once(name, seed, seconds, 0)
            record.setdefault("environment", report["environment"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for metric, entry in report["workload_metrics"].items():
                named_values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
        report, result = run_once(name, seeds[0], seconds, 1)
        record["workloads"][name] = {
            "end_to_end": {m: summarize(v, bounds.get(m)) for m, v in values.items()},
            "named": {m: statistics.median(v) for m, v in named_values.items()},
            "per_layer": {m: e["value"] for m, e in result["metrics"].items()},
            "trace": report["trace"],
        }
        for metric, summary in record["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {summary['median']:.4g}, "
                  f"spread {summary['spread']:.3f} (bound {summary.get('bound')})", flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
