"""One sha256 over the library's numeric outputs on seeded synthetic models.

Run it as ``python tests/output_digest.py``; it prints one hex digest. It
covers prefill logits and K/V (dense, two plans, KV for unselected tokens
on and off) and 20 plan decode steps' logits, attention mass on the sink
and selection rows, under the default criterion and, on the first plan,
under a random and a raw-state norm criterion; ``generate_greedy`` with KV
on and off, ``detect_sink_layer``, a greedy and a one-shot calibration
plan, the seven ablation-grid rows and a layerwise criterion table. Models
are drawn in memory from fixed seeds, so nothing is downloaded or written.

Two uses: a change that must keep every result bit for bit prints the same
digest before and after it, and two runs that differ only in the BLAS
thread count (``OPENBLAS_NUM_THREADS=1`` and the default) print the same
digest when the kernel's row invariance holds on that build.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import orthorank as orr  # noqa: E402
from orthorank.checkpoint_io import ModelConfig  # noqa: E402

from helpers import make_random_model, make_tokens  # noqa: E402

# The benchmark's shapes: a mid GQA model for prefill and decode, a small
# MHA model for calibration. The prompt spans several attention row blocks
# and K chunks.
MID = ModelConfig(n_layers=8, d_model=256, n_heads=8, n_kv_heads=2, d_head=32,
                  d_ffn=1024, vocab_size=512)
SMALL = ModelConfig(n_layers=8, d_model=64, n_heads=4, n_kv_heads=4, d_head=16,
                    d_ffn=256, vocab_size=256)
PLANS = [orr.LayerPlan(layers=[2, 3, 4, 5, 6], keep_ratio=0.333, l_sink=1),
         orr.LayerPlan(layers=[1, 5], keep_ratio=[0.5, 1.0])]
# (plan, criterion) of each plan run: every criterion kind scores decode rows its own way
PLAN_RUNS = [(PLANS[0], orr.Criterion()), (PLANS[1], orr.Criterion()),
             (PLANS[0], orr.Criterion("random", seed=5)),
             (PLANS[0], orr.Criterion("norm_desc", "raw_hidden"))]
PROMPT_LEN = 600
DECODE_STEPS = 20


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                self.sha.update(f"{value.dtype}{value.shape}".encode())
                self.sha.update(np.ascontiguousarray(value).tobytes())
            else:
                self.sha.update(repr(value).encode())

    def add_cache(self, cache) -> None:
        self.add(*cache.keys, *cache.values, *cache.positions)


def digest() -> str:
    out = Digest()
    model = make_random_model(MID, seed=7)
    prompt = make_tokens(PROMPT_LEN, MID.vocab_size, seed=1)
    logits, _, cache = orr.forward_dense(model, prompt)
    out.add(logits)
    out.add_cache(cache)
    for plan, criterion in PLAN_RUNS:
        for kv in (True, False):
            logits, _, cache = orr.forward_with_plan(model, prompt, plan.layers, plan.keep_ratio,
                                                     criterion, kv)
            out.add(logits)
            out.add_cache(cache)
            trace = orr.HiddenTrace(hidden=None, attn_to_sink=[], selection=[])
            for token in make_tokens(DECODE_STEPS, MID.vocab_size, seed=2):
                logits, cache = orr.decode_step_with_plan(model, cache, int(token), plan.layers,
                                                          plan.keep_ratio, criterion, kv, trace)
                out.add(logits)
            out.add(*trace.attn_to_sink)
            out.add(trace.selection)
    for kv in (True, False):
        out.add(orr.generate_greedy(model, prompt[:64], 8, PLANS[0].layers, PLANS[0].keep_ratio,
                                    compute_kv_for_unselected=kv))

    small = make_random_model(SMALL, seed=3)
    corpus = make_tokens(256, SMALL.vocab_size, seed=4)
    out.add(orr.detect_sink_layer(small, corpus[:128]))
    plan = orr.calibrate_greedy(small, corpus, 3, 0.5, orr.eligible_layers(SMALL.n_layers, 0),
                                context_len=128)
    out.add(plan.layers)
    for row in orr.ablation_grid(small, plan, corpus, 128):
        out.add(sorted(row.items()))
    out.add(orr.calibrate_greedy(small, corpus, 3, 0.5, orr.eligible_layers(SMALL.n_layers, 0),
                                 context_len=128, one_shot=True).layers)
    table = orr.layerwise_comparison(small, corpus, 0.5,
                                     [orr.Criterion(), orr.Criterion("norm_desc", "raw_hidden")],
                                     l_sink=0, context_len=128)
    out.add(table["layers"], table["dense"], sorted(table["columns"].items()))
    return out.sha.hexdigest()


if __name__ == "__main__":
    print(digest())
