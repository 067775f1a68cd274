"""Paired in-process A/B timing of decode, prefill, evaluation and calibration runs of two trees.

    python tools/ab_decode.py PARENT_SRC CHANGE_SRC [--only WORKLOAD]

Each SRC is a directory that holds an ``orthorank`` package (a checkout's
``src``). Both trees are imported into one process under two package
names; the same SRC given twice pairs a tree with itself, so its paired
medians are the noise floor of the measurement. ``--only`` runs one of
the benchmark's workloads (``decode``, ``prefill`` or ``calibrate``)
instead of all three.
Both sides run on the same weight arrays, drawn by the parent tree's
``checkpoint_io._synthetic_weights`` as the test suite's models are. For
the decode workload both sides run the benchmark's decode shape: the
8-layer mid GQA model, the plan [2..6] at keep 0.333, a 1,024-token prompt
prefilled under the plan, then greedy decode steps: ``SEEDS`` models,
``PROMPTS`` prompts each, ``STEPS`` steps per prompt. For the prefill
workload each seed's model runs ``EVALS`` times: the dense and the plan
perplexity of an ``EVAL_TOKENS``-token corpus in ``EVAL_CONTEXT``-token
chunks. For the calibrate workload each seed's model of the benchmark's
calibrate shape, the 8-layer small MHA model, runs ``CALIBRATIONS`` times:
``calibrate_greedy`` of ``CALIB_M`` layers among ``CALIB_ELIGIBLE`` at
keep ``KEEP_RATIO`` over a ``CALIB_TOKENS``-token corpus in
``CALIB_CONTEXT``-token windows, then ``ablation_grid`` of its plan. Steps
alternate between the sides and the side that goes first flips every step;
so do the prompt prefills, every prompt, and the evaluations and
calibrations, every round. The logits of each prefill and step, the
perplexity of each evaluation, and the plan and grid rows of each
calibration must be equal on both sides (bitwise for the numbers), else
the script stops with an error.

It prints, per seed and over all steps, each side's median step time, the
median of the paired differences (change minus parent) beside the
interquartile range of the parent's times (the spread a claimed gain must
exceed) and the share of steps the change was faster, then the same line
over all prefills, so a change to the decode path shows its cost to the
time to first token too, over all dense and all plan evaluations, and over
all calibrations and all ablation grids; ``--only`` prints its workload's
lines alone. Pairing runs within one process removes the machine's drift
between separate runs, so it resolves differences that separate benchmark
runs cannot: the calibrate workload's own benchmark scaling differs from
one process to the next. It is a sizing tool, not a gate.
"""

import argparse
import importlib.util
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

MID = dict(n_layers=8, d_model=256, n_heads=8, n_kv_heads=2, d_head=32, d_ffn=1024,
           vocab_size=512)
PLAN_LAYERS, KEEP_RATIO = [2, 3, 4, 5, 6], 0.333
SEEDS, PROMPTS, PROMPT_TOKENS, STEPS = 2, 6, 1024, 64
EVALS, EVAL_TOKENS, EVAL_CONTEXT = 10, 512, 256
SMALL = dict(n_layers=8, d_model=64, n_heads=4, n_kv_heads=4, d_head=16, d_ffn=256,
             vocab_size=256)
CALIBRATIONS, CALIB_TOKENS, CALIB_CONTEXT, CALIB_M = 10, 256, 128, 3
CALIB_ELIGIBLE = [1, 2, 3, 4, 5, 6]
WORKLOADS = ("decode", "prefill", "calibrate")
# the summary lines in print order, each with what it counts
RUNS = {"all": "steps", "prefill": "prefills", "dense eval": "evaluations",
        "plan eval": "evaluations", "calibrate": "runs", "ablate": "runs"}


def load_tree(src: str, name: str):
    """Import ``src/orthorank`` as the package ``name``."""
    init = Path(src).resolve() / "orthorank" / "__init__.py"
    if not init.is_file():
        sys.exit(f"{src} holds no orthorank package")
    for stale in [key for key in sys.modules if key.startswith(name + ".")]:
        del sys.modules[stale]  # a second load in one process imports every module afresh
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def mid_models(sides, seed: int):
    """Each side's mid model of one seed, on the same weight arrays."""
    weights = sides[0].checkpoint_io._synthetic_weights(sides[0].ModelConfig(**MID), seed)
    return [pkg.Model(pkg.ModelConfig(**MID), weights, f"ab-{seed}") for pkg in sides]


def run_decode(sides, seed: int):
    """Prefill and step times of (parent, change) for one seed's model and prompts, in order."""
    models = mid_models(sides, seed)
    prefills, times = ([], []), ([], [])
    rng = np.random.default_rng(seed)
    for p in range(PROMPTS):
        prompt = rng.integers(0, MID["vocab_size"], size=PROMPT_TOKENS)
        caches, logits = [None, None], [None, None]
        for side in ((0, 1) if p % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            logits[side], _, caches[side] = sides[side].forward_with_plan(
                models[side], prompt, PLAN_LAYERS, KEEP_RATIO)
            prefills[side].append(time.perf_counter() - start)
        if not np.array_equal(*logits):
            sys.exit(f"seed {seed}: prefill logits differ between the trees")
        token = int(np.argmax(logits[0][-1]))
        for step in range(STEPS):
            for side in ((0, 1) if step % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                logits[side], caches[side] = sides[side].decode_step_with_plan(
                    models[side], caches[side], token, PLAN_LAYERS, KEEP_RATIO)
                times[side].append(time.perf_counter() - start)
            if not np.array_equal(*logits):
                sys.exit(f"seed {seed}: step {step} logits differ between the trees")
            token = int(np.argmax(logits[0][-1]))
    return prefills, times


def run_evals(sides, seed: int):
    """Dense and plan evaluation times of (parent, change) for one seed's model."""
    models = mid_models(sides, seed)
    # each side's plan per evaluation: None is the dense plan
    plans = {"dense eval": (None, None),
             "plan eval": tuple(pkg.LayerPlan(layers=PLAN_LAYERS, keep_ratio=KEEP_RATIO,
                                              l_sink=1) for pkg in sides)}
    evals = {label: ([], []) for label in plans}
    corpus = np.random.default_rng([seed, 1]).integers(0, MID["vocab_size"], size=EVAL_TOKENS)
    for e in range(EVALS):
        for label, plan in plans.items():
            ppl = [None, None]
            for side in ((0, 1) if e % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                ppl[side] = sides[side].perplexity(models[side], plan[side], corpus,
                                                   EVAL_CONTEXT).perplexity
                evals[label][side].append(time.perf_counter() - start)
            if ppl[0] != ppl[1]:
                sys.exit(f"seed {seed}: {label} perplexities differ between the trees")
    return evals


def run_calibrations(sides, seed: int):
    """Calibration and ablation-grid times of (parent, change) for one seed's small model."""
    weights = sides[0].checkpoint_io._synthetic_weights(sides[0].ModelConfig(**SMALL), seed)
    models = [pkg.Model(pkg.ModelConfig(**SMALL), weights, f"ab-small-{seed}") for pkg in sides]
    corpus = np.random.default_rng(seed).integers(0, SMALL["vocab_size"], size=CALIB_TOKENS)
    times = {"calibrate": ([], []), "ablate": ([], [])}
    for c in range(CALIBRATIONS):
        plans, rows = [None, None], [None, None]
        for side in ((0, 1) if c % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            plans[side] = sides[side].calibrate_greedy(models[side], corpus, CALIB_M, KEEP_RATIO,
                                                       CALIB_ELIGIBLE, CALIB_CONTEXT)
            grid = time.perf_counter()
            rows[side] = sides[side].ablation_grid(models[side], plans[side], corpus,
                                                   CALIB_CONTEXT)
            times["calibrate"][side].append(grid - start)
            times["ablate"][side].append(time.perf_counter() - grid)
        if plans[0].to_json() != plans[1].to_json():
            sys.exit(f"seed {seed}: calibrated plans differ between the trees")
        if rows[0] != rows[1]:
            sys.exit(f"seed {seed}: ablation grid rows differ between the trees")
    return times


def report(label: str, parent: list[float], change: list[float], runs: str = "steps") -> None:
    a, b = 1e3 * np.asarray(parent), 1e3 * np.asarray(change)
    diff = b - a
    q1, q3 = np.percentile(a, [25, 75])
    print(f"{label}: parent {np.median(a):.3f} ms, change {np.median(b):.3f} ms, "
          f"paired median {np.median(diff):+.3f} ms ({np.median(diff) / np.median(a):+.1%}) "
          f"against parent IQR {q3 - q1:.3f} ms ({(q3 - q1) / np.median(a):.1%}), "
          f"change faster in {np.mean(diff < 0):.0%} of {diff.size} {runs}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--only", choices=WORKLOADS, help="run this workload alone")
    args = parser.parse_args(argv)
    sides = (load_tree(args.parent_src, "orthorank_parent"),
             load_tree(args.change_src, "orthorank_change"))
    if asdict(sides[0].ModelConfig(**MID)) != asdict(sides[1].ModelConfig(**MID)):
        sys.exit("the trees disagree on the model config")
    workloads = WORKLOADS if args.only is None else (args.only,)
    totals = {label: ([], []) for label in RUNS}
    for seed in range(1, SEEDS + 1):
        results = []
        if "decode" in workloads:
            prefills, steps = run_decode(sides, seed)
            report(f"seed {seed}", *steps)
            results.append({"all": steps, "prefill": prefills})
        if "prefill" in workloads:
            results.append(run_evals(sides, seed))
        if "calibrate" in workloads:
            results.append(run_calibrations(sides, seed))
        for times in results:
            for label, pair in times.items():
                for side in (0, 1):
                    totals[label][side].extend(pair[side])
    for label, (parent, change) in totals.items():
        if parent:
            report(label, parent, change, RUNS[label])


if __name__ == "__main__":
    main()
