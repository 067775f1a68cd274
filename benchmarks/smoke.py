#!/usr/bin/env python3
"""Smoke check of the benchmark itself at tiny sizes (a few seconds).

    python3 benchmarks/smoke.py

Runs every workload untraced and traced on a tiny model and checks that
the result names exactly the metrics BENCHMARK.json lists, with their
units; that every name matches [A-Za-z0-9_.-]+; that every span carries a
name, start, end, parent and op id; that self times are >= 0 and sum to
the root spans within the reported tracing overhead; and that the command
fails without printing a result when the library sources are missing.
Exits 1 on the first failed check.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Metrics the report line names for each workload, besides the gated ones.
NAMED = {
    "prefill": {"prefill_dense_tok_s", "prefill_plan_tok_s", "ppl_ratio"},
    "decode": {"ttft_p50_ms", "tpot_p50_ms", "tpot_p95_ms", "tpot_samples_beyond_p95"},
    "calibrate": {"calibrate_s", "ablate_s"},
}


def tiny_workloads(seed: int):
    import workloads as wl
    from orthorank import LayerPlan
    from orthorank.checkpoint_io import ModelConfig

    tiny = ModelConfig(n_layers=6, d_model=16, n_heads=2, n_kv_heads=1, d_head=8,
                       d_ffn=32, vocab_size=32)
    plan = LayerPlan(layers=[1, 2, 3], keep_ratio=0.5, l_sink=0)
    return [
        wl.Prefill(seed, tiny, wl.PrefillSizes(corpus_tokens=48, context_len=16), plan),
        wl.Decode(seed, tiny, wl.DecodeSizes(prompt_tokens=16, steps=12), plan),
        wl.Calibrate(seed, tiny, wl.CalibrateSizes(corpus_tokens=64, context_len=16,
                                                   sink_probe_tokens=16, m=2)),
    ]


def check(condition, message: str) -> None:
    if not condition:
        print(f"smoke: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def check_result(label, result, declared):
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: not correct: {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{label}: metrics {sorted(set(metrics) ^ set(declared))} "
                                         "differ from BENCHMARK.json")
    for name, entry in metrics.items():
        check(NAME_RE.fullmatch(name), f"{label}: bad metric name {name!r}")
        check(entry["unit"] == declared[name], f"{label}: {name} unit {entry['unit']} != {declared[name]}")
        value = entry["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value}")


def check_spans(label, spans, report):
    import tracer as tr

    for span in spans:
        check(len(span) == 6 and isinstance(span[tr.NAME], str) and span[tr.END] >= span[tr.START]
              and isinstance(span[tr.PARENT], int) and span[tr.OP] is not None,
              f"{label}: malformed span {span}")
        check(NAME_RE.fullmatch(span[tr.NAME]), f"{label}: bad span name {span[tr.NAME]!r}")
    selfs = tr.self_times(spans)
    check(min(selfs) >= -1e-9, f"{label}: negative self time {min(selfs)}")
    timed = [(sp, s) for sp, s in zip(spans, selfs) if sp[tr.OP] != "setup"]
    roots = sum(sp[tr.END] - sp[tr.START] for sp, _ in timed if sp[tr.PARENT] < 0)
    overhead = abs(report["trace"]["overhead_s"])
    check(abs(sum(s for _, s in timed) - roots) <= overhead + 1e-6,
          f"{label}: self times sum to {sum(s for _, s in timed)}, root spans to {roots}")


def check_bare_directory(root: Path, build_dir: Path):
    """The command must fail, printing no result, next to BENCHMARK.json alone."""
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        shutil.copy(root / "BENCHMARK.json", tmp)
        shutil.copytree(root / "benchmarks", Path(tmp) / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "prefill", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory run exited {proc.returncode} with output {proc.stdout!r}")


def main() -> int:
    orthorank = run.import_library()
    import harness

    root = run.ROOT
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer")}
    check({w["name"] for w in declared["workloads"]} == {"prefill", "decode", "calibrate"},
          "BENCHMARK.json workloads differ from the benchmark's")
    build_dir = root / ".bench_build" / "benchmarks-smoke"
    build_dir.mkdir(parents=True, exist_ok=True)
    for trace in (False, True):
        for workload in tiny_workloads(seed=3):
            label = f"{workload.name} trace={int(trace)}"
            report, result, spans = harness.run_workload(workload, 0.2, trace, build_dir)
            check_result(label, result, units["per_layer" if trace else "end_to_end"])
            check("ops_failed_share" in report, f"{label}: report lacks ops_failed_share")
            if trace:
                check_spans(label, spans, report)
                # block_forward is reached through selection's own binding of the name
                check(result["metrics"]["selection.keep_fraction"]["value"] > 0
                      or workload.name != "prefill", f"{label}: selection.block_forward not traced")
                check(not hasattr(orthorank.tensor_core.matmul, "__wrapped__")
                      and not hasattr(orthorank.selection.block_forward, "__wrapped__"),
                      f"{label}: wrappers left installed")
            else:
                named = report["workload_metrics"]
                check(NAMED[workload.name] <= set(named), f"{label}: report lacks "
                      f"{sorted(NAMED[workload.name] - set(named))}")
                for name in named:
                    check(NAME_RE.fullmatch(name), f"{label}: bad report metric name {name!r}")
            print(f"smoke: ok {label}: {result['attempted']} ops, {len(spans)} spans")
    check_bare_directory(root, build_dir)
    print("smoke: ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
