"""Step-interleaved A/B timing of decode steps, prefills and evaluations from two source trees.

    python tools/ab_decode.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds an ``orthorank`` package (a checkout's
``src``). Both trees are imported into one process under two package
names, and both sides run the benchmark's decode shape on the same weight
arrays: the 8-layer mid GQA model, the plan [2..6] at keep 0.333, a
1,024-token prompt prefilled under the plan, then greedy decode steps:
``SEEDS`` models, ``PROMPTS`` prompts each, ``STEPS`` steps per prompt.
Each seed's model then runs the benchmark's prefill workload ``EVALS``
times: the dense and the plan perplexity of an ``EVAL_TOKENS``-token
corpus in ``EVAL_CONTEXT``-token chunks.
Steps alternate between the sides and the side that goes first flips every
step; so do the prompt prefills, every prompt, and the evaluations, every
round. The logits of each prefill and step and the perplexity of each
evaluation must be bitwise equal on both sides, else the script stops with
an error.

It prints, per seed and over all steps, each side's median step time, the
median of the paired differences (change minus parent) and the share of
steps the change was faster, then the same line over all prefills, so a
change to the decode path shows its cost to the time to first token too,
and over all dense and all plan evaluations.
Pairing runs within one process removes the machine's drift between
separate runs, so it resolves differences that separate benchmark runs
cannot. It is a sizing tool, not a gate.
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


def load_tree(src: str, name: str):
    """Import ``src/orthorank`` as the package ``name``."""
    init = Path(src).resolve() / "orthorank" / "__init__.py"
    if not init.is_file():
        sys.exit(f"{src} holds no orthorank package")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def random_weights(package, config, seed: int) -> dict[str, np.ndarray]:
    """Weights drawn like the test suite's ``make_random_model``."""
    rng = np.random.default_rng(seed)
    scale = np.float32(config.d_model ** -0.5)
    return {name: np.ones(shape, dtype=np.float32) if name.endswith("gain")
            else rng.standard_normal(shape, dtype=np.float32) * scale
            for name, shape in package.checkpoint_io.required_tensors(config)}


def run_seed(sides, seed: int):
    """Prefill and step times of (parent, change) for one seed's model and prompts, in order."""
    parent = sides[0]
    weights = random_weights(parent, parent.ModelConfig(**MID), seed)
    models = [pkg.Model(pkg.ModelConfig(**MID), weights, f"ab-{seed}") for pkg in sides]
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
    # each side's plan per evaluation: None is the dense plan
    plans = {"dense eval": (None, None),
             "plan eval": tuple(pkg.LayerPlan(layers=PLAN_LAYERS, keep_ratio=KEEP_RATIO,
                                              l_sink=1) for pkg in sides)}
    evals = {label: ([], []) for label in plans}
    corpus = rng.integers(0, MID["vocab_size"], size=EVAL_TOKENS)
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
    return prefills, times, evals


def report(label: str, parent: list[float], change: list[float], runs: str = "steps") -> None:
    a, b = 1e3 * np.asarray(parent), 1e3 * np.asarray(change)
    diff = b - a
    print(f"{label}: parent {np.median(a):.3f} ms, change {np.median(b):.3f} ms, "
          f"paired median {np.median(diff):+.3f} ms ({np.median(diff) / np.median(a):+.1%}), "
          f"change faster in {np.mean(diff < 0):.0%} of {diff.size} {runs}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    sides = (load_tree(args.parent_src, "orthorank_parent"),
             load_tree(args.change_src, "orthorank_change"))
    if asdict(sides[0].ModelConfig(**MID)) != asdict(sides[1].ModelConfig(**MID)):
        sys.exit("the trees disagree on the model config")
    prefill_all, step_all = ([], []), ([], [])
    eval_all = {"dense eval": ([], []), "plan eval": ([], [])}
    for seed in range(1, SEEDS + 1):
        prefills, steps, evals = run_seed(sides, seed)
        report(f"seed {seed}", *steps)
        for side in (0, 1):
            prefill_all[side].extend(prefills[side])
            step_all[side].extend(steps[side])
            for label, times in evals.items():
                eval_all[label][side].extend(times[side])
    report("all", *step_all)
    report("prefill", *prefill_all, runs="prefills")
    for label, times in eval_all.items():
        report(label, *times, runs="evaluations")


if __name__ == "__main__":
    main()
