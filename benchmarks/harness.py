"""Runs one workload and turns its samples and spans into metrics.

``--trace 0`` measures for ``--seconds`` with no wrappers installed and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and
traced ops for ``--seconds``, installing the tracer only around traced
ops; the per-layer metrics come from the traced ops and the tracing
overhead is traced wall minus untraced wall.

Standard output ends with two JSON lines: a report (environment, the
workload's named metrics, sample counts, notes) and the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import tracer as tr
import workloads as wl
from tracer import ATTRS, END, NAME, OP, PARENT, START

GFLOP_NOTE = ("tensor_core.matmul.gflop is computed as 2*m*k*n from operand shapes, "
              "not counted by hardware")


def environment(root: Path, seed: int, threads_as_set: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: value for key, value in
                 np.show_config(mode="dicts")["Build Dependencies"].get("blas", {}).items()
                 if "directory" not in key},
        "threads_as_set": threads_as_set,
        "threads_effective": {var: os.environ.get(var) for var in threads_as_set},
        "git_commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: wl.Workload, seconds: float, trace: bool, build_dir: Path):
    """Set up and measure one workload. Returns (report, result, spans)."""
    build_dir.mkdir(parents=True, exist_ok=True)
    untraced = wl.Recorder(workload.name, workload.speed_probe)
    # Set-up times are scaled to reference speed like the phase samples.
    setup_s, setup_ref_s = [], []
    while len(setup_s) < wl.SETUP_REPEATS or sum(setup_s) < wl.SETUP_MIN_S:
        before = workload.speed_probe()
        start = time.perf_counter()
        workload.setup(build_dir)
        setup_s.append(time.perf_counter() - start)
        setup_ref_s.append(setup_s[-1] * 2 * wl.PROBE_REF_S / (before + workload.speed_probe()))

    report = {"workload": workload.name}
    if not trace:
        attempted, failed = wl.measure(workload, [untraced], seconds)
        spans = []
        metrics, correct = end_to_end_metrics(workload, untraced, setup_s, setup_ref_s, report)
    else:
        tracer = tr.Tracer()
        traced = wl.Recorder(workload.name, workload.speed_probe, tracer)
        with traced.installed(), tracer.root(f"{workload.name}.setup", "setup"):
            workload.setup(build_dir)
        attempted, failed = wl.measure(workload, [untraced, traced], seconds)
        spans = tracer.spans
        metrics, correct = per_layer_metrics(workload, spans, untraced, traced, attempted // 2, report)

    report["attempted"], report["failed"] = attempted, failed
    report["ops_failed_share"] = failed / attempted
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, result, spans


def end_to_end_metrics(workload, rec, setup_s, setup_ref_s, report):
    """Gated set-up and phase times at reference speed; the report adds their wall-clock values."""
    first, second = workload.phases
    correct = bool(rec.samples[first]) and bool(rec.samples[second])
    metrics = {
        "setup_s": (statistics.median(setup_ref_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = {"probe_p50_s": (statistics.median(rec.probes), "s"),
            "setup_wall_s": (statistics.median(setup_s), "s")}
    if correct:
        for name, phase in (("phase1", first), ("phase2", second)):
            metrics[f"{name}_p50_ref_ms"] = (1e3 * statistics.median(rec.ref_samples[phase]), "ms")
            wall[f"{name}_p50_ms"] = (1e3 * statistics.median(rec.samples[phase]), "ms")
        wall.update(workload.workload_metrics(rec))
    report["workload_metrics"] = {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in {**wall, **metrics}.items()}
    report["phases"] = {"phase1": first, "phase2": second}
    report["samples"] = {name: len(values) for name, values in rec.samples.items()}
    report["probe_samples"] = len(rec.probes)
    report["setup_runs_s"] = setup_s
    return metrics, correct


def _prefix_reruns(spans: list[list]) -> dict[int, tuple[str, int]]:
    """Map each perplexity span under calibration or the ablation grid to its prefix layer.

    Block runs of that evaluation below the returned layer recompute a
    prefix already computed for another evaluation: below the first layer
    where a calibration candidate differs from its round's base set (the
    layers every candidate of the round shares), or below the plan's first
    layer for every ablation row after the first.
    """
    rounds: dict[tuple[int, int], list[int]] = defaultdict(list)
    rows: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[NAME] != "eval_harness.perplexity" or span[ATTRS] is None:
            continue
        calib = tr.ancestor(spans, i, "calibration.calibrate_greedy")
        if calib >= 0:
            rounds[(calib, len(span[ATTRS]))].append(i)
        grid = tr.ancestor(spans, i, "eval_harness.ablation_grid")
        if grid >= 0:
            rows[grid].append(i)
    out = {}
    for members in rounds.values():
        base = set.intersection(*(set(spans[i][ATTRS]) for i in members))
        for i in members:
            out[i] = ("calibration", min(set(spans[i][ATTRS]) - base, default=0))
    for members in rows.values():
        for n, i in enumerate(members):
            out[i] = ("ablation", min(spans[i][ATTRS], default=0) if n else 0)
    return out


def per_layer_metrics(workload, spans, untraced, traced, ops, report):
    selfs = tr.self_times(spans)
    calls, inclusive, self_s = Counter(), defaultdict(float), defaultdict(float)
    setup_calls, setup_s = Counter(), defaultdict(float)
    for span, s in zip(spans, selfs):
        dur = span[END] - span[START]
        if span[OP] == "setup":
            setup_calls[span[NAME]] += 1
            setup_s[span[NAME]] += dur
            continue
        calls[span[NAME]] += 1
        inclusive[span[NAME]] += dur
        self_s[span[NAME]] += s

    def named(name):
        return [(i, sp) for i, sp in enumerate(spans)
                if sp[NAME] == name and sp[OP] != "setup" and sp[ATTRS] is not None]

    matmuls = named("tensor_core.matmul")
    gflop = sum(sp[ATTRS] for _, sp in matmuls) / 1e9
    blocks = named("model_runtime.block_forward")

    kept = rows = 0
    for _, sp in blocks:
        parent = spans[sp[PARENT]]
        if parent[NAME] == "selection.forward_with_plan" and sp[ATTRS][0] in parent[ATTRS][0]:
            kept += sp[ATTRS][2]
            rows += sp[ATTRS][1]
    planned = [sp[ATTRS][1] for _, sp in named("selection.forward_with_plan") if sp[ATTRS][0]]
    selects = [sp[ATTRS] for _, sp in named("selection.decode_select")]
    cache_bytes = [sp[ATTRS][2] for _, sp in named("selection.forward_with_plan")]
    cache_bytes += [sp[ATTRS] for _, sp in named("selection.decode_step_with_plan")]

    prefix_of = _prefix_reruns(spans)
    runs, reruns = Counter(), Counter()
    for i, sp in blocks:
        ppl = tr.ancestor(spans, i, "eval_harness.perplexity")
        if ppl in prefix_of:
            kind, layer = prefix_of[ppl]
            runs[kind] += 1
            reruns[kind] += sp[ATTRS][0] < layer
    candidates = sum(kind == "calibration" for kind, _ in prefix_of.values())

    first, second = workload.phases
    wall_ratio = 0.0
    if workload.name == "prefill":
        wall_ratio = statistics.median(untraced.samples[second]) / statistics.median(untraced.samples[first])
    flop_ratio = workload.plan_flop_ratio()
    overhead = traced.timed_total() - untraced.timed_total()
    roots = [sp[END] - sp[START] for sp in spans if sp[PARENT] < 0 and sp[OP] != "setup"]
    root_self = [s for sp, s in zip(spans, selfs) if sp[OP] != "setup"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(x):
        return x / ops

    def setup_mean(name):
        return ratio(setup_s[name], setup_calls[name])

    metrics = {
        "tensor_core.matmul.calls": (per_op(calls["tensor_core.matmul"]), "calls/op"),
        "tensor_core.matmul.self_s": (per_op(self_s["tensor_core.matmul"]), "s/op"),
        "tensor_core.matmul.gflop": (per_op(gflop), "GFLOP/op"),
        "tensor_core.matmul.gflop_s": (ratio(gflop, self_s["tensor_core.matmul"]), "GFLOP/s"),
        "tensor_core.softmax_causal.self_s": (per_op(self_s["tensor_core.softmax_causal"]), "s/op"),
        "tensor_core.rope_apply.self_s": (per_op(self_s["tensor_core.rope_apply"]), "s/op"),
        "tensor_core.rms_norm.calls": (per_op(calls["tensor_core.rms_norm"]), "calls/op"),
        "tensor_core.rms_norm.self_s": (per_op(self_s["tensor_core.rms_norm"]), "s/op"),
        "model_runtime.block_forward.calls": (per_op(calls["model_runtime.block_forward"]), "calls/op"),
        "model_runtime.block_forward.self_s": (per_op(self_s["model_runtime.block_forward"]), "s/op"),
        "model_runtime.block_forward.sel_rows": (per_op(sum(sp[ATTRS][2] for _, sp in blocks)), "rows/op"),
        "model_runtime.block_forward.kv_rows": (per_op(sum(sp[ATTRS][3] for _, sp in blocks)), "rows/op"),
        "model_runtime.kv_append_bytes": (
            ratio(sum(traced.kv_append_bytes), len(traced.kv_append_bytes)), "B/step"),
        "model_runtime.kv_cache_bytes": (float(max(cache_bytes, default=0)), "B"),
        "model_runtime.lm_head_logits.self_s": (per_op(self_s["model_runtime.lm_head_logits"]), "s/op"),
        "model_runtime.detect_sink_layer.s": (per_op(inclusive["model_runtime.detect_sink_layer"]), "s/op"),
        "selection.forward_with_plan.self_s": (per_op(self_s["selection.forward_with_plan"]), "s/op"),
        "selection.selection_keys.self_s": (per_op(self_s["selection.selection_keys"]), "s/op"),
        "selection.keep_fraction": (ratio(kept, rows), "ratio"),
        "selection.keep_fraction_planned": (ratio(sum(planned), len(planned)), "ratio"),
        "selection.decode_step_with_plan.self_s": (
            per_op(self_s["selection.decode_step_with_plan"]), "s/op"),
        "selection.decode_select.calls": (per_op(calls["selection.decode_select"]), "calls/op"),
        "selection.decode_select.self_s": (per_op(self_s["selection.decode_select"]), "s/op"),
        "selection.decode_keep_fraction": (ratio(sum(s for s, _ in selects), len(selects)), "ratio"),
        "selection.decode_keep_fraction_planned": (
            ratio(sum(p for _, p in selects), len(selects)), "ratio"),
        "calibration.calibrate_greedy.s": (per_op(inclusive["calibration.calibrate_greedy"]), "s/op"),
        "calibration.candidates": (per_op(candidates), "count/op"),
        "calibration.block_runs": (per_op(runs["calibration"]), "count/op"),
        "calibration.prefix_rerun_share": (ratio(reruns["calibration"], runs["calibration"]), "ratio"),
        "eval_harness.perplexity.calls": (per_op(calls["eval_harness.perplexity"]), "calls/op"),
        "eval_harness.perplexity.self_s": (per_op(self_s["eval_harness.perplexity"]), "s/op"),
        "eval_harness.ablation.block_runs": (per_op(runs["ablation"]), "count/op"),
        "eval_harness.ablation.prefix_rerun_share": (ratio(reruns["ablation"], runs["ablation"]), "ratio"),
        "eval_harness.wall_ratio": (wall_ratio, "ratio"),
        "calibration.flop_count.ratio": (flop_ratio, "ratio"),
        "eval_harness.wall_flop_gap": (wall_ratio - flop_ratio if wall_ratio else 0.0, "ratio"),
        "checkpoint_io.generate_synthetic_model.s": (
            setup_mean("checkpoint_io.generate_synthetic_model"), "s"),
        "checkpoint_io.load_checkpoint.s": (setup_mean("checkpoint_io.load_checkpoint"), "s"),
        "bench.trace_overhead_s": (per_op(overhead), "s/op"),
        "bench.trace_overhead_share": (ratio(overhead, traced.timed_total() - overhead), "ratio"),
        "bench.spans": (per_op(len(spans) - sum(setup_calls.values())), "spans/op"),
    }

    # Self times partition each root span, so they sum to the traced wall.
    self_sum, root_sum = sum(root_self), sum(roots)
    consistent = (min(selfs, default=0.0) >= -1e-9
                  and abs(self_sum - root_sum) <= abs(overhead) + 1e-6)
    report["trace"] = {
        "ops": ops,
        "spans": len(spans),
        "untraced_wall_s": untraced.timed_total(),
        "traced_wall_s": traced.timed_total(),
        "overhead_s": overhead,
        "self_time_sum_s": self_sum,
        "root_span_sum_s": root_sum,
        "self_times_consistent": consistent,
    }
    report["zero_metrics"] = sorted(name for name, (value, _) in metrics.items() if value == 0)
    report["notes"] = [
        GFLOP_NOTE,
        "per-op values divide the traced pass's totals by its op count",
        "a metric reading 0 belongs to a path this workload does not run",
    ]
    return metrics, consistent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_spans(path: Path, spans: list[list]) -> None:
    """One JSON object per span; times in seconds from the first span's start."""
    selfs = tr.self_times(spans)
    t0 = min((sp[START] for sp in spans), default=0.0)
    with open(path, "w") as fh:
        for i, (sp, s) in enumerate(zip(spans, selfs)):
            fh.write(json.dumps({"id": i, "name": sp[NAME], "start": sp[START] - t0,
                                 "end": sp[END] - t0, "parent": sp[PARENT], "op": sp[OP],
                                 "self_s": s}) + "\n")


def main(argv, root: Path, threads_as_set: dict) -> int:
    args = parse_args(argv)
    build_dir = root / ".bench_build" / "benchmarks"
    workload = wl.WORKLOADS[args.workload](args.seed)
    report, result, spans = run_workload(workload, args.seconds, bool(args.trace), build_dir)
    report["environment"] = environment(root, args.seed, threads_as_set)
    if spans:
        path = build_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, spans)
        report["spans_file"] = str(path.relative_to(root))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
