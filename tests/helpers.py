"""Constructed models with known behavior, and kernel oracles, shared across test modules."""

import contextlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthorank import Model, ModelConfig, generate_synthetic_model, load_checkpoint
from orthorank import selection
from orthorank import tensor_core as tc
from orthorank.checkpoint_io import _synthetic_weights, required_tensors, save_checkpoint


def make_tokens(n, vocab, seed=0):
    return np.random.default_rng(seed).integers(0, vocab, size=n)


def blank_weights(config):
    """All-zero weight map with unit gains: every block is an exact identity."""
    weights = {}
    for name, shape in required_tensors(config):
        if name.endswith("gain"):
            weights[name] = np.ones(shape, dtype=np.float32)
        else:
            weights[name] = np.zeros(shape, dtype=np.float32)
    return weights


def make_random_model(config, seed=0):
    """In-memory model drawn as ``generate_synthetic_model``'s, without a file."""
    return Model(config, _synthetic_weights(config, seed), f"random-{seed}")


def attention_layout_models():
    """Six-layer random models, "mha" with 4 KV heads and "gqa" with 2 for its 4 query heads."""
    return {name: make_random_model(ModelConfig(n_layers=6, d_model=32, n_heads=4,
                                                n_kv_heads=n_kv, d_head=8, d_ffn=64,
                                                vocab_size=64), seed=12)
            for name, n_kv in (("mha", 4), ("gqa", 2))}


@contextlib.contextmanager
def counted_blocks():
    """Layers whose block a layer step runs (``selection.block_forward``), in call order."""
    layers = []
    real_block = selection.block_forward

    def counting_block(model, layer, *args, **kwargs):
        layers.append(layer)
        return real_block(model, layer, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "block_forward", counting_block)
        yield layers


def make_uniform_model():
    """Zero lm_head on an untied model: logits are identically zero.

    Perplexity of any corpus is then exactly the vocab size. vocab_size=32
    is kept because exp(log(32.0)) rounds back to 32.0 in float64, making
    the equality exact rather than approximate.
    """
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_kv_heads=2,
                         d_head=8, d_ffn=32, vocab_size=32, tied_embeddings=False)
    weights = blank_weights(config)
    rng = np.random.default_rng(7)
    weights["embed.weight"] = rng.standard_normal((32, 16)).astype(np.float32) * 0.25
    return Model(config, weights, "uniform-logit")


PROB1_TOKEN = 5


def make_prob1_model():
    """Model that puts a ~80 logit gap on PROB1_TOKEN regardless of input.

    On a constant corpus of that token the per-position NLL underflows to
    exactly zero, so perplexity is exactly 1.0.
    """
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_kv_heads=2,
                         d_head=8, d_ffn=32, vocab_size=16, tied_embeddings=False)
    weights = blank_weights(config)
    weights["embed.weight"][PROB1_TOKEN, 0] = 4.0
    weights["lm_head.weight"][0, PROB1_TOKEN] = 20.0
    return Model(config, weights, "prob1")


ROTATION_TOKEN = 5
ROTATION_DECOY = 3


def make_rotation_model(n_layers, identity_layers, gamma=8.0, theta=0.25):
    """Doctored model where named layers are exact identity blocks.

    Attention is disabled everywhere (zero projections). Every other
    layer's FFN nudges the hidden state toward basis direction
    ROTATION_TOKEN, sharpening the prediction of the constant corpus made
    of that token. Skipping a functional layer for any token therefore
    strictly raises its NLL, while converting an identity layer changes
    nothing at all: calibration must rank the identity layers first.
    """
    d = 16
    config = ModelConfig(n_layers=n_layers, d_model=d, n_heads=2, n_kv_heads=2,
                         d_head=d // 2, d_ffn=32, vocab_size=d,
                         tied_embeddings=False)
    weights = blank_weights(config)
    weights["embed.weight"][ROTATION_TOKEN, ROTATION_DECOY] = 0.7
    weights["embed.weight"][ROTATION_TOKEN, ROTATION_TOKEN] = 0.7
    weights["lm_head.weight"] = np.eye(d, dtype=np.float32)
    for layer in range(n_layers):
        if layer in identity_layers:
            continue
        weights[f"layers.{layer}.ffn.w_gate.weight"][ROTATION_TOKEN, 0] = gamma
        weights[f"layers.{layer}.ffn.w_up.weight"][ROTATION_TOKEN, 0] = 1.0
        weights[f"layers.{layer}.ffn.w_down.weight"][0, ROTATION_TOKEN] = theta
    ident = "-".join(str(l) for l in sorted(identity_layers))
    return Model(config, weights, f"rotation-{n_layers}-{ident}")


def rotation_corpus(n_tokens):
    return np.full(n_tokens, ROTATION_TOKEN, dtype=np.int64)


def make_sink_probe_model():
    """Five inert layers; layer 2's attention is crafted to hit position 0.

    All blocks pass hidden states through unchanged (zero wo / w_down), so
    the crafted layer sees raw embeddings. Token 0 is the only embedding
    with mass on basis 0; layer 2's keys read basis 0 and its queries read
    the shared basis-1 component, both through the slowest rotary pair, so
    every query scores high against key 0 only. Other layers have zero
    scores, hence uniform attention.
    """
    d = 16
    config = ModelConfig(n_layers=5, d_model=d, n_heads=2, n_kv_heads=2,
                         d_head=8, d_ffn=32, vocab_size=32, tied_embeddings=False)
    weights = blank_weights(config)
    rng = np.random.default_rng(3)
    emb = np.zeros((32, d), dtype=np.float32)
    emb[0, 0] = 4.0
    emb[1:, 1] = 1.0
    emb[1:, 4:] = rng.standard_normal((31, d - 4)).astype(np.float32) * 0.05
    weights["embed.weight"] = emb
    weights["lm_head.weight"] = rng.standard_normal((d, 32)).astype(np.float32) * 0.1
    # head 0 spans projected dims 0..7; its slowest rotary pair is (3, 7)
    weights["layers.2.attn.wk.weight"][0, 3] = 4.0
    weights["layers.2.attn.wq.weight"][1, 3] = 4.0
    return Model(config, weights, "sink-probe")


def sink_probe_tokens(n=64, seed=4):
    rest = np.random.default_rng(seed).integers(1, 32, size=n - 1)
    return np.concatenate([[0], rest])


def make_planted_sink_model(tmp_dir):
    """Live random model with a planted attention sink at layer 1.

    Starts from a synthetic checkpoint, then rewires layer 1 the same way
    as the probe model (keys read the sink token's private basis direction,
    queries a shared one) with the remaining projections damped so the
    planted score dominates. Detection on a 0-led token stream yields 1.
    """
    config = ModelConfig(n_layers=10, d_model=16, n_heads=2, n_kv_heads=2,
                         d_head=8, d_ffn=32, vocab_size=32, tied_embeddings=False)
    generate_synthetic_model(config, 11, tmp_dir)
    _, weights = load_checkpoint(tmp_dir)
    emb = weights["embed.weight"]
    emb[0] *= 0.0
    emb[0, 0] = 4.0
    emb[1:, 1] += 0.8
    weights["layers.1.attn.wk.weight"] *= 0.1
    weights["layers.1.attn.wq.weight"] *= 0.1
    weights["layers.1.attn.wk.weight"][0, 3] = 6.0
    weights["layers.1.attn.wq.weight"][1, 3] = 6.0
    return Model(config, weights, "planted-sink")


def save_planted_sink_checkpoint(dir_path):
    """On-disk variant of the planted-sink model for CLI runs."""
    model = make_planted_sink_model(Path(dir_path) / "base")
    save_checkpoint(dir_path, model.config, model.weights)
    return dir_path


def planted_tokens(n=128, seed=9):
    rest = np.random.default_rng(seed).integers(1, 32, size=n - 1)
    return np.concatenate([[0], rest])


def mean_rms_norm(x, gain, eps):
    """RMSNorm in its ``np.mean`` form, which ``tensor_core._rms_norm`` equals bit for bit."""
    return gain * (x / np.sqrt(np.mean(np.square(x), -1, keepdims=True) + eps))


def formula_chunk_nll(logits, targets):
    """Per-position NLL in its direct form, which ``eval_harness._chunk_nll`` equals bit for bit."""
    ls = logits.astype(np.float64)
    row_max = ls.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(ls - row_max).sum(axis=1))
    return lse - ls[np.arange(targets.size), targets]


def peak_bytes(fn, *args):
    """The most bytes ``fn(*args)`` holds at once, its result included, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def whole_matrix_softmax(scores, q_pos, k_pos):
    """The causal softmax of a 2-D score matrix, its mask built over every column at once.

    Positions may come in any order. The row sums run through the
    row-invariant ``tc.matmul``, as the kernel's do, so the result equals
    ``tensor_core._softmax_in_place`` bit for bit.
    """
    masked = np.where(k_pos[None, :] <= q_pos[:, None], scores, -np.inf)
    exp = np.exp(masked - np.max(masked, axis=1, keepdims=True, initial=-np.inf))
    return exp / tc.matmul(exp, np.ones((exp.shape[1], 1), exp.dtype))


def rope_angles(positions, d_head, theta_base):
    """The float64 rotation angles of ``positions``, computed for them alone."""
    inv_freq = theta_base ** (-2.0 * np.arange(d_head // 2, dtype=np.float64) / d_head)
    return np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]


def per_call_rope(x, positions, theta_base):
    """Rotary embedding of (T, heads, d_head) ``x``, cos and sin taken for ``positions`` alone."""
    half = x.shape[-1] // 2
    angles = rope_angles(positions, x.shape[-1], theta_base)
    cos = np.cos(angles).astype(x.dtype)[:, None, :]
    sin = np.sin(angles).astype(x.dtype)[:, None, :]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def full_width_block_forward(model, layer, x, positions, sel, kv_rows, xn, cache=None,
                             capture_attn0=False):
    """``model_runtime.block_forward`` with full-width attention, one head at a time.

    Every selected query row is scored against every key and the causal
    mask discards the later ones; no row blocks, no key prefixes, no GQA
    stacking, no arena: the keys are the cache's rows followed by the new
    ones, and the cache is read, not appended to. RMSNorm, rotary and the
    softmax are the oracles above, not the library's kernels. Same
    signature, in-place update and returns as ``block_forward``, which
    must match it bitwise.
    """
    cfg = model.config
    n_heads, n_kv, d_head = cfg.n_heads, cfg.n_kv_heads, cfg.d_head
    w = model.weights
    prefix = f"layers.{layer}"

    xk, kv_pos = xn[kv_rows], positions[kv_rows]
    k_new = tc.matmul(xk, w[f"{prefix}.attn.wk.weight"]).reshape(len(kv_rows), n_kv, d_head)
    k_new = per_call_rope(k_new, kv_pos, cfg.rope_theta)
    v_new = tc.matmul(xk, w[f"{prefix}.attn.wv.weight"]).reshape(len(kv_rows), n_kv, d_head)
    if cache is None:
        keys, values, key_pos = k_new, v_new, kv_pos
    else:
        keys = np.concatenate([cache.keys[layer], k_new])
        values = np.concatenate([cache.values[layer], v_new])
        key_pos = np.concatenate([cache.positions[layer], kv_pos])

    attn0 = np.zeros(len(sel), dtype=np.float64) if capture_attn0 else None
    if len(sel) == 0:
        return k_new, v_new, attn0

    q_pos = positions[sel]
    q = tc.matmul(xn[sel], w[f"{prefix}.attn.wq.weight"]).reshape(len(sel), n_heads, d_head)
    q = per_call_rope(q, q_pos, cfg.rope_theta)
    ctx = np.empty((len(sel), n_heads, d_head), dtype=x.dtype)
    sink_col = np.flatnonzero(key_pos == 0)
    scale = 1.0 / math.sqrt(d_head)
    for h in range(n_heads):
        g = h // (n_heads // n_kv)
        scores = tc.matmul(np.ascontiguousarray(q[:, h]), keys[:, g, :].T) * scale
        probs = whole_matrix_softmax(scores, q_pos, key_pos)
        ctx[:, h] = tc.matmul(probs, values[:, g, :])
        if attn0 is not None and sink_col.size:
            attn0 += probs[:, sink_col[0]]
    if attn0 is not None:
        attn0 /= n_heads

    x[sel] = x[sel] + tc.matmul(ctx.reshape(len(sel), n_heads * d_head),
                                w[f"{prefix}.attn.wo.weight"])
    xn2 = mean_rms_norm(x[sel], w[f"{prefix}.ffn_norm.gain"], cfg.norm_eps)
    hidden = (tc.silu(tc.matmul(xn2, w[f"{prefix}.ffn.w_gate.weight"]))
              * tc.matmul(xn2, w[f"{prefix}.ffn.w_up.weight"]))
    x[sel] = x[sel] + tc.matmul(hidden, w[f"{prefix}.ffn.w_down.weight"])
    return k_new, v_new, attn0
