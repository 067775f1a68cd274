"""Acceptance gate: nine numbered criteria, each with pinned tolerances.

Every test prints one PASS line through the acceptance reporter in
conftest.py (failures are reported there as FAIL lines). Runtime budgets
are asserted alongside the numeric checks.
"""

import time

import numpy as np

import helpers
import reference as ref
from conftest import record_acceptance
from orthorank import (
    Criterion,
    LayerPlan,
    ablation_grid,
    calibrate_greedy,
    cos_gradient,
    cross_layer_self_similarity,
    decode_step_dense,
    effective_sparsity,
    flop_count,
    forward_dense,
    forward_orthorank_layer,
    forward_with_plan,
    generate_synthetic_sink_trace,
    perplexity,
    plan_effective_sparsity,
    plan_from_sparsity,
    scaling_agreement,
    select_topk,
    sink_token_similarity,
)
from orthorank import AuditLog, ModelConfig


def test_criterion_1_gradient_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    dims = [4] * 334 + [64] * 333 + [512] * 333
    worst = {"f32": 0.0, "f64": 0.0}
    for d in dims:
        h0 = rng.standard_normal(d)
        hi = rng.standard_normal(d)
        for label, cast in (("f64", np.float64), ("f32", np.float32)):
            a, b = h0.astype(cast), hi.astype(cast)
            grad = cos_gradient(a, b).astype(np.float64)
            b64 = b.astype(np.float64)
            cos = float(a.astype(np.float64) @ b64) / (
                np.linalg.norm(a.astype(np.float64)) * np.linalg.norm(b64))
            residual = abs(float(grad @ grad) * float(b64 @ b64) + cos * cos - 1.0)
            worst[label] = max(worst[label], residual)
    assert worst["f64"] <= 1e-12
    assert worst["f32"] <= 1e-6

    fd_worst = 0.0
    for d, n in ((4, 10), (64, 10), (512, 5)):
        for _ in range(n):
            h0 = rng.standard_normal(d)
            hi = rng.standard_normal(d)
            grad = cos_gradient(h0, hi)
            fd = np.asarray(ref.ref_cos_gradient_fd(list(h0), list(hi)))
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            fd_worst = max(fd_worst, rel)
    assert fd_worst < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_acceptance(
        f"PASS criterion 1: gradient identity over 1000 pairs "
        f"(worst f64 {worst['f64']:.2e} <= 1e-12, f32 {worst['f32']:.2e} <= 1e-6), "
        f"FD rel {fd_worst:.2e} < 1e-6, {elapsed:.2f}s < 5s")


def test_criterion_2_selection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    sink_checked = 0
    for trial in range(10_000):
        t = int(rng.integers(1, 513))
        scores = rng.standard_normal(t)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        scores[0] = np.inf  # the sink slot, as selection_keys pins it
        p = float(rng.uniform(0.0, 1.0)) if trial % 10 else 1.0
        mask = select_topk(scores, p)
        want = ref.ref_topk_ascending(list(scores), p)
        assert mask.selected.tolist() == want
        if mask.k < t:
            assert 0 not in mask.selected
            sink_checked += 1
    assert sink_checked > 5000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    record_acceptance(
        f"PASS criterion 2: select_topk == brute force on 10000 vectors "
        f"(T <= 512, ties included), sink excluded in {sink_checked} sub-full "
        f"selections, {elapsed:.2f}s < 10s")


def test_criterion_3_bypass_exactness(tiny_model):
    start = time.perf_counter()
    tokens = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=33)
    _, trace, _ = forward_dense(tiny_model, tokens, capture_trace=True)

    worst_sel = 0.0
    for layer in (1, 2):
        x_in = trace.hidden[layer]
        dense_out = trace.hidden[layer + 1]
        for p in (0.25, 0.333, 0.5):
            x_out, _, _, mask = forward_orthorank_layer(tiny_model, layer, x_in, p)
            sel = np.zeros(len(tokens), dtype=bool)
            sel[mask.selected] = True
            assert np.array_equal(x_out[~sel], x_in[~sel])  # bitwise bypass
            worst_sel = max(worst_sel,
                            float(np.max(np.abs(x_out[sel] - dense_out[sel]))))
        full, _, _, _ = forward_orthorank_layer(tiny_model, layer, x_in, 1.0)
        assert np.array_equal(full, dense_out)  # p=1.0 bitwise dense
    assert worst_sel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    record_acceptance(
        f"PASS criterion 3: unselected rows bitwise, selected rows within "
        f"{worst_sel:.2e} <= 1e-6 of dense, p=1.0 bitwise dense, "
        f"{elapsed:.2f}s < 10s")


def test_criterion_4_sparsity_arithmetic():
    start = time.perf_counter()
    s = effective_sparsity(0.30, 0.333)
    assert 0.199 <= s <= 0.201
    m, eligible = plan_from_sparsity(40, 1, 0.20, 0.333)
    assert m == 12
    config = ModelConfig(n_layers=40, d_model=64, n_heads=4, n_kv_heads=1,
                         d_head=16, d_ffn=1024, vocab_size=64)
    plan = LayerPlan(layers=list(eligible)[:12], keep_ratio=0.333, l_sink=1)
    ratio = flop_count(config, plan, 128)["ratio"]
    assert abs(ratio - 0.80) <= 0.03
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_acceptance(
        f"PASS criterion 4: effective_sparsity(0.30,0.333)={s:.4f} in "
        f"[0.199,0.201], 40-layer plan has {m}==12 layers, flop ratio "
        f"{ratio:.4f} within 0.80+-0.03, {elapsed:.2f}s")


def test_criterion_5_calibration_correctness(rotation_model):
    start = time.perf_counter()
    corpus = helpers.rotation_corpus(256)
    eligible = list(range(2, 10))  # 8 eligible layers
    plan = calibrate_greedy(rotation_model, corpus, 1, 0.333, eligible,
                            context_len=128, l_sink=1)
    assert plan.layers == [6]  # the doctored exact-identity block

    singles = {}
    for layer in eligible:
        trial = LayerPlan(layers=[layer], keep_ratio=0.333,
                          model_id=rotation_model.model_id, l_sink=1)
        singles[layer] = perplexity(rotation_model, trial, corpus, 128).perplexity
    exhaustive = min(eligible, key=lambda l: (singles[l], l))
    assert plan.layers == [exhaustive]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    record_acceptance(
        f"PASS criterion 5: greedy round 1 picked the identity block (layer 6) "
        f"and matches exhaustive search over all 8 eligible layers at W=128, "
        f"{elapsed:.2f}s < 120s")


def test_criterion_6_observation_pipeline():
    start = time.perf_counter()
    l_sink = 2
    trace = generate_synthetic_sink_trace(32, 101, 64, l_sink, 0.25, seed=6)

    sink_sim = sink_token_similarity(trace)
    rows = [j for j, l in enumerate(sink_sim.row_labels) if l > l_sink]
    assert np.all(np.diff(sink_sim.values[rows], axis=0) > 0)

    cross0 = cross_layer_self_similarity(trace, 0)
    after = [j for j, l in enumerate(cross0.row_labels) if l > l_sink]
    assert np.all(cross0.values[np.ix_(after, after)] == 1.0)

    cross50 = cross_layer_self_similarity(trace, 50)
    for i in range(l_sink + 1, 32):
        assert np.all(np.diff(cross50.values[i, i:]) < 0)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_acceptance(
        f"PASS criterion 6: 32-layer/101-token synthetic trace: sink-similarity "
        f"columns strictly increase past layer {l_sink}, sink self-similarity "
        f"== 1, non-sink similarity strictly decays with gap, "
        f"{elapsed:.2f}s < 5s")


def test_criterion_7_perplexity_protocol(uniform_model, tiny_model):
    start = time.perf_counter()
    corpus = helpers.make_tokens(66, uniform_model.config.vocab_size, seed=7)
    report = perplexity(uniform_model, None, corpus, 33)
    assert report.perplexity == 32.0  # == vocab_size exactly

    tokens = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=17)
    dense = perplexity(tiny_model, None, tokens, 12)
    empty = perplexity(
        tiny_model,
        LayerPlan(layers=[], model_id=tiny_model.model_id, l_sink=0),
        tokens, 12)
    assert (empty.chunk_nll, empty.total_nll, empty.perplexity) == (
        dense.chunk_nll, dense.total_nll, dense.perplexity)

    seq = helpers.make_tokens(64, tiny_model.config.vocab_size, seed=27)
    prefill_logits, _, _ = forward_dense(tiny_model, seq)
    logits, _, cache = forward_dense(tiny_model, seq[:1])
    worst = float(np.max(np.abs(logits[0] - prefill_logits[0])))
    for i in range(1, 64):
        step_logits, cache = decode_step_dense(tiny_model, cache, int(seq[i]))
        worst = max(worst, float(np.max(np.abs(step_logits - prefill_logits[i]))))
    assert worst <= 1e-5

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    record_acceptance(
        f"PASS criterion 7: uniform-logit ppl == 32 exactly, empty plan == "
        f"dense bitwise, 64-token prefill/decode gap {worst:.2e} <= 1e-5, "
        f"{elapsed:.2f}s < 30s")


def test_criterion_8_ablation_plumbing(planted_model):
    start = time.perf_counter()
    corpus = helpers.planted_tokens(128)
    plan = LayerPlan(layers=[2, 3, 4], keep_ratio=0.333,
                     model_id=planted_model.model_id, l_sink=1)
    sparsity = plan_effective_sparsity(plan, planted_model.config.n_layers)
    assert abs(sparsity - 0.20) <= 0.005

    rows = ablation_grid(planted_model, plan, corpus, 64, random_seed=0)
    assert len(rows) == 7
    assert all(np.isfinite(r["perplexity"]) for r in rows)
    standalone = perplexity(planted_model, plan, corpus, 64).perplexity
    assert rows[-1]["perplexity"] == standalone

    audit = AuditLog()
    _, _, cache = forward_with_plan(
        planted_model, np.asarray(corpus[:64]), plan.layers, plan.keep_ratio,
        Criterion("orthogonal_asc", "normalized"),
        compute_kv_for_unselected=False, audit=audit)
    for layer in plan.layers:
        selected = sum(1 for r in audit.rows if r[0] == layer and r[4])
        assert len(cache.positions[layer]) == selected < 64

    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    record_acceptance(
        f"PASS criterion 8: 7-row grid at effective sparsity {sparsity:.4f}, "
        f"default row == standalone op, KV-off caches only selected rows, "
        f"{elapsed:.2f}s < 180s")


def test_criterion_9_scaling_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    states = rng.standard_normal((1000, 64))
    for c in (1.0, 3.0, 0.25, 7.3):
        vals = scaling_agreement(states, np.full(64, c))
        assert np.all(vals == 1.0)  # exact for any positive constant

    gain = 1.0 + rng.uniform(-0.03, 0.03, size=64)
    vals = scaling_agreement(states, gain)
    assert np.all(vals > 0.95)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_acceptance(
        f"PASS criterion 9: constant gains give cosine exactly 1, perturbed "
        f"gains (1+-0.03) keep all 1000 cosines > 0.95 (min {vals.min():.4f}), "
        f"{elapsed:.2f}s < 5s")
