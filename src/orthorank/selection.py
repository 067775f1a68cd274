"""Orthogonality-based token selection and the selective layer forward pass.

A token's importance is how fast it can still move toward the sink
direction: the gradient of cos(h_bar_0, h_bar_i) with respect to h_bar_i has
squared norm (1 - cos^2) / ||h_bar_i||^2, so under approximately equal norms
the tokens most orthogonal to the sink are the ones attention can still
reshape, and |<h_bar_0, h_bar_i>| ranks them without computing cosines. A
selective layer fully computes only the k = floor(p * T) lowest-scoring
tokens; every token still contributes keys and values by default, and
unselected tokens ride the residual stream through unchanged.

Prefill and decode, dense and selective, run one per-layer step: the
layer's attention RMSNorm once, one scoring rule against a sink state, row
selection, the block; a layer outside the plan keeps every row.
Prefill ranks all T rows against row 0 and caches that sink row at the
criterion's stage (normalized or raw); decode scores its new row against
the cached sink state, so both give a token the same score, bitwise.
"""

import copy
import math
import numbers
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .calibration import _plan_ratios
from .errors import ConfigError, DomainError, StateError, UsageError, _is_number
from .model_runtime import (
    KVCache,
    Model,
    block_forward,
    embed_tokens,
    lm_head_logits,
)
from .trace import HiddenTrace

CRITERION_KINDS = ("orthogonal_asc", "orthogonal_desc", "norm_asc", "norm_desc", "random")
STAGES = ("normalized", "raw_hidden")


@dataclass(frozen=True)
class Criterion:
    """Token ranking rule: what to order by, and at which stage.

    ``orthogonal_asc`` over ``normalized`` states is the default selection
    rule; the remaining kinds and the ``raw_hidden`` stage exist for
    ablations. ``random`` requires an explicit seed, and a seed is a
    non-negative integer.
    """

    kind: str = "orthogonal_asc"
    stage: str = "normalized"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        if self.stage not in STAGES:
            raise ConfigError(f"unknown criterion stage {self.stage!r}")
        if self.kind == "random" and self.seed is None:
            raise ConfigError("random criterion requires an explicit seed")
        seed = self.seed
        if seed is not None and not (_is_number(seed, numbers.Integral) and seed >= 0):
            raise ConfigError(f"criterion seed must be an integer >= 0, got {seed!r}")


DEFAULT_CRITERION = Criterion()


def select_topk(keys, keep_ratio: float) -> np.ndarray:
    """Indices of the k = floor(p * T) smallest of the T keys: sorted ascending, int64.

    ``keys`` is any 1-D array of sort keys, such as ``selection_keys``
    returns; ties resolve to the smaller index. The result's size is k.
    """
    if not (_is_number(keep_ratio) and 0.0 <= keep_ratio <= 1.0):
        raise ConfigError(f"keep_ratio must be in [0, 1], got {keep_ratio!r}")
    keys = np.asarray(keys)
    k = int(math.floor(keep_ratio * keys.shape[0]))
    order = np.argsort(keys, kind="stable")
    return np.sort(order[:k]).astype(np.int64, copy=False)


def cos_gradient(h0: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gradient of cos(h0, hi) with respect to hi.

    Equals (1/||hi||) (h0/||h0|| - cos(h0, hi) hi/||hi||): the residual of
    the unit sink direction orthogonal to hi, shrunk by 1/||hi||. Computed
    in float64, returned in the input dtype.
    """
    h0 = np.asarray(h0)
    hi = np.asarray(hi)
    a = h0.astype(np.float64, copy=False)
    b = hi.astype(np.float64, copy=False)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cos_gradient is undefined for zero vectors")
    cos = float(a @ b) / (na * nb)
    grad = (a / na - cos * (b / nb)) / nb
    return grad.astype(np.result_type(h0, hi), copy=False)


def importance_norm_sq(h0: np.ndarray, hi: np.ndarray) -> float:
    """Squared norm of cos_gradient; the token's alignment speed.

    Satisfies the exact identity value * ||hi||^2 + cos^2(h0, hi) == 1.
    """
    h0 = np.asarray(h0).astype(np.float64, copy=False)
    grad = cos_gradient(h0, np.asarray(hi).astype(np.float64, copy=False))
    return float(grad @ grad)


def selection_keys(states: np.ndarray, criterion: Criterion, layer: int) -> np.ndarray:
    """Float64 sort keys for one layer's ranking of (T, d) ``states``; smaller key = selected.

    The public scoring entry: under the default criterion the key of row i
    is the score |<h_bar_0, h_bar_i>| against row 0, the sink. Descending
    kinds negate their ascending counterparts. The random criterion draws
    from a generator keyed by (seed, layer, T) so every (layer, length)
    pair gets a reproducible permutation. The sink key is +inf for every
    kind, so the sink is selected only when selection is exhaustive.
    States that are not (T, d) with T >= 1 raise UsageError.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[0] < 1:
        raise UsageError(f"states must be (T, d) with T >= 1, got {states.shape}")
    rng_key = (criterion.seed, layer, states.shape[0])
    keys = _score_keys(states, states[0], criterion, rng_key)
    keys[0] = np.inf
    return keys


def _score_keys(states: np.ndarray, sink_state, criterion: Criterion, rng_key) -> np.ndarray:
    """The one scoring rule of prefill and decode: float64 keys of ``states``' rows.

    Orthogonal kinds score |<sink_state, h_i>|, norm kinds ||h_i||, and
    ``random`` draws one key per row from a generator keyed by ``rng_key``;
    descending kinds negate their ascending counterparts. A row's key does
    not depend on how many rows are scored with it, so a decode row's key
    equals the prefill key of the same row bitwise. That is why the dot
    product is an ``einsum``: a BLAS matrix-vector product rounds
    differently at different row counts.
    """
    if criterion.kind == "random":
        return np.random.default_rng(rng_key).random(states.shape[0])
    s64 = states.astype(np.float64, copy=False)
    if criterion.kind.startswith("orthogonal"):
        keys = np.abs(np.einsum("ij,j->i", s64, sink_state.astype(np.float64, copy=False)))
    else:
        keys = np.linalg.norm(s64, axis=1)
    return -keys if criterion.kind.endswith("_desc") else keys


def _layer_step(model: Model, layer: int, x: np.ndarray, positions: np.ndarray,
                ratio: float | None, criterion: Criterion, compute_kv_for_unselected: bool,
                cache: KVCache, trace: HiddenTrace | None,
                staged_scores: list[tuple[int, float]] | None = None):
    """Run block ``layer`` in place on ``x``; selectively unless ``ratio`` is None.

    The attention RMSNorm is computed once and shared by the trace, the
    scoring stage and the block. A step past position 0 decodes. Prefill
    keeps the k = floor(p * T) rows with the lowest keys against row 0 (a
    non-finite key raises UsageError) and caches the keys in ascending order
    as the layer's score list and row 0 at the criterion's stage as its sink
    state; decode scores its one row against that sink state (StateError if
    none) and ranks it as ``decode_select`` would against the committed
    score list, which it leaves as it is: it appends (layer, score) to
    ``staged_scores`` for the commit to insert. A ``trace`` records the
    layer and each kind of entry it holds a list for: the block input and
    normalized rows, the scored rows of a plan layer, and the selected
    rows' attention mass on key 0. Returns the selected rows and the
    block's new key and value rows (None when a decode row stores nothing).
    """
    xn = tc.rms_norm(x, model.w(f"layers.{layer}.attn_norm.gain"), model.config.norm_eps)
    if trace is not None:
        trace.layers.append(layer)
        if trace.hidden is not None:
            trace.hidden.append(x.copy())
            trace.normalized.append(xn)
    step = int(positions[0])  # 0 in a prefill, the new token's position in decode
    rows = np.arange(x.shape[0], dtype=np.int64)
    sel = rows
    if ratio is not None:
        stage = x if criterion.stage == "raw_hidden" else xn
        if step:
            sink = cache.sink_state.get(layer)
            if sink is None:
                raise StateError(f"layer {layer} has no sink state; prefill with the plan first")
            keys = _score_keys(stage, sink, criterion, (criterion.seed, layer, step))
            score = float(keys[0])
            if not _decode_rank(cache, layer, score, ratio):
                sel = rows[:0]
            staged_scores.append((layer, score))
        else:
            keys = selection_keys(stage, criterion, layer)
            if not np.isfinite(keys[1:]).all():
                raise UsageError(f"layer {layer} scores must be finite; its states are not")
            sel = select_topk(keys, ratio)
            cache.sorted_history[layer] = sorted(keys.tolist())
            cache.sink_state[layer] = stage[0].copy()
        if trace is not None and trace.selection is not None:
            chosen = np.isin(rows, sel).astype(np.int64)
            trace.selection.extend((layer, step, p, s, c) for p, s, c in zip(
                positions.tolist(), keys.tolist(), chosen.tolist()))
    capture_attn0 = trace is not None and trace.attn_to_sink is not None
    kv_rows = rows if compute_kv_for_unselected else sel
    if step and kv_rows.size == 0:  # unselected with KV off: the token skips the layer
        if capture_attn0:
            trace.attn_to_sink.append(np.zeros(0))
        return sel, None, None
    k_new, v_new, attn0 = block_forward(model, layer, x, positions, sel, kv_rows, xn,
                                        cache, capture_attn0)
    if capture_attn0:
        trace.attn_to_sink.append(attn0)
    return sel, k_new, v_new


def _run_layers(model, token_ids, cache, plan, criterion, compute_kv_for_unselected,
                trace=None, resume=None) -> np.ndarray:
    """Prefill ``token_ids`` into an empty ``cache``, or decode one token onto it; logits.

    The one layer loop: layers outside ``plan`` run dense, so the empty plan
    is the dense forward pass and the dense decode step. It alone checks and
    commits a step. The model's config must be the cache's, and its id the
    one the cache's first step recorded (any id at the first step, which
    records it), else StateError before any layer runs. Two in-memory
    models that share a config and an id pass as one. A decode step must
    also run selectively exactly the layers its prefill did, under the
    criterion the prefill recorded (any keep ratio and KV setting), else
    StateError before any layer runs. The layers run on a staged copy of
    the cache's containers: its (arena, count) pairs, which
    ``block_forward`` replaces after writing past the counts, and its sink
    states and score lists, which a prefill replaces. A decode step ranks
    each plan layer's score against the committed list and stages only the
    score. The staged containers replace the cache's only after the last
    layer, and then ``decode_select`` inserts each staged score, so a
    failed step leaves the cache's committed rows, arenas and selection
    state as they were (its ``trace`` keeps what the step recorded).
    ``resume=(s, x)`` starts a prefill at layer ``s`` from ``x``, the
    (T, d) input states of that layer recorded by an earlier run (``x`` is
    not modified and ``token_ids`` is not read). Layers below ``s`` neither
    run nor fill the cache; from ``s`` on, the same ops run on
    the same rows as in a run from the embeddings under any plan that agrees
    with ``plan`` below ``s``, so the result is bitwise that run's. A
    ``trace`` (``HiddenTrace``) gets the entries of every layer step the
    loop runs, from ``s`` on when it resumes.
    """
    cfg = model.config
    config, model_id = cache.identity
    if config != cfg or model_id not in (None, model.model_id):
        raise StateError(f"the cache holds model {model_id!r} with {config}; "
                         f"it cannot step model {model.model_id!r} with {cfg}")
    if cache.n_tokens:
        selective = sorted(cache.sorted_history)
        if sorted(plan) != selective:
            raise StateError(f"the cache's prefill ran layers {selective} selectively; "
                             f"a decode step cannot run layers {sorted(plan)} selectively")
        if selective and cache.criterion != criterion:
            raise StateError(f"the cache was prefilled under {cache.criterion}; "
                             f"a decode step cannot select under {criterion}")
    if resume is None:
        first, (x, _) = 0, embed_tokens(model, token_ids)
    else:
        first, x = resume[0], resume[1].copy()
    staged = copy.copy(cache)
    staged.layers, staged.sink_state = list(cache.layers), dict(cache.sink_state)
    staged.sorted_history = dict(cache.sorted_history)
    staged.n_tokens, staged.identity = cache.n_tokens + x.shape[0], (cfg, model.model_id)
    staged.criterion = criterion if cache.criterion is None else cache.criterion
    positions = np.arange(cache.n_tokens, staged.n_tokens, dtype=np.int64)
    scores = []  # a decode step's (layer, score) at each plan layer
    for layer in range(first, cfg.n_layers):
        _layer_step(model, layer, x, positions, plan.get(layer), criterion,
                    compute_kv_for_unselected, staged, trace, scores)
    vars(cache).update(vars(staged))  # commit: the staged containers replace the cache's
    for layer, score in scores:  # and each score joins its list, ranked as the step ranked it
        decode_select(cache, layer, score, plan[layer])
    return lm_head_logits(model, x)


def forward_orthorank_layer(
    model: Model,
    layer_index: int,
    x: np.ndarray,
    keep_ratio: float,
    criterion: Criterion = DEFAULT_CRITERION,
    compute_kv_for_unselected: bool = True,
    trace: HiddenTrace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One selective block: full compute for the top-k tokens only.

    RMSNorm runs for all tokens; K/V are computed for all tokens unless
    ``compute_kv_for_unselected`` is off (then only for selected ones);
    attention, output projection, and FFN run for the selected rows, which
    attend at their original rotary positions. Unselected rows of the
    result are bitwise equal to the input. Returns the updated states, the
    new key and value rows, and ``sel``, the selected rows' indices as
    ``select_topk`` returns them. A ``trace`` records the layer step as
    ``forward_with_plan``'s would.
    """
    (layer, ratio), = _plan_ratios([layer_index], keep_ratio, model.config.n_layers).items()
    x_out = np.array(x, copy=True)
    positions = np.arange(x_out.shape[0], dtype=np.int64)
    sel, k_new, v_new = _layer_step(model, layer, x_out, positions, ratio, criterion,
                                    compute_kv_for_unselected, KVCache(model.config), trace)
    return x_out, k_new, v_new, sel


def forward_with_plan(
    model: Model,
    token_ids,
    plan_layers,
    keep_ratio,
    criterion: Criterion = DEFAULT_CRITERION,
    compute_kv_for_unselected: bool = True,
    trace: HiddenTrace | None = None,
) -> tuple[np.ndarray, HiddenTrace | None, KVCache]:
    """Full-sequence forward pass with the plan's layers run selectively.

    ``plan_layers`` is any iterable of distinct layer indices and
    ``keep_ratio`` one number or a per-plan-layer list, resolved by
    ``_plan_ratios``: there is no ``{layer: ratio}`` mapping form, and a
    bad plan raises ConfigError. The empty plan, ``LayerPlan()``'s, is
    exactly the dense forward pass (same kernel, same arithmetic). The
    returned cache holds the ascending score list and the cached sink state
    for each plan layer, ready for decode. Returns (T, vocab) logits, the
    ``trace`` passed in (None without one), which gets one entry per layer
    in each list it records, and the cache.
    """
    plan = _plan_ratios(plan_layers, keep_ratio, model.config.n_layers)
    cache = KVCache(model.config)
    logits = _run_layers(model, token_ids, cache, plan, criterion,
                         compute_kv_for_unselected, trace)
    return logits, trace, cache


def decode_select(cache: KVCache, layer: int, new_score: float, keep_ratio: float) -> bool:
    """Streaming selection for one new token at one selective layer.

    With H the layer's score list ``cache.sorted_history[layer]`` (every
    prior token's score, ascending, the sink's +inf included) and the new
    score s, the token is selected iff s ranks within k = floor(p * (|H|+1))
    of the pooled set; equal scores favor the incumbent entry. The rank is
    a binary search in H, and s is inserted in order either way: every
    token becomes context. A layer without a list raises StateError, a
    score that is not a finite number UsageError, and a ratio outside
    [0, 1] ConfigError.
    """
    selected = _decode_rank(cache, layer, new_score, keep_ratio)
    insort(cache.sorted_history[layer], float(new_score))
    return selected


def _decode_rank(cache: KVCache, layer: int, new_score: float, keep_ratio: float) -> bool:
    """``decode_select``'s answer and checks, with the score list left as it is."""
    ranked = cache.sorted_history.get(layer)
    if ranked is None:
        raise StateError(f"layer {layer} has no score list; prefill with the plan first")
    if not (_is_number(new_score) and math.isfinite(new_score)):
        raise UsageError(f"new_score must be finite, got {new_score}")
    if not (_is_number(keep_ratio) and 0.0 <= keep_ratio <= 1.0):
        raise ConfigError(f"keep_ratio must be in [0, 1], got {keep_ratio!r}")
    k = int(math.floor(keep_ratio * (len(ranked) + 1)))
    return bisect_right(ranked, new_score) + 1 <= k


def decode_step_with_plan(
    model: Model,
    cache: KVCache,
    token_id: int,
    plan_layers,
    keep_ratio,
    criterion: Criterion = DEFAULT_CRITERION,
    compute_kv_for_unselected: bool = True,
    trace: HiddenTrace | None = None,
) -> tuple[np.ndarray, KVCache]:
    """Decode one token under a layer plan.

    At each plan layer the new token is scored against the sink state cached
    at prefill, at the criterion's stage; unselected tokens skip the block
    (keeping their KV contribution unless disabled). The random criterion
    draws a per-token key from (seed, layer, position). The plan resolves
    as in ``forward_with_plan`` (no mapping form; ``LayerPlan()``'s empty
    plan is the dense step; a bad plan raises ConfigError). The plan's
    layers must be exactly those the prefill ran selectively, and the
    criterion the prefill's; otherwise StateError before any layer runs.
    The keep ratio and the KV setting may change from step to step. A
    ``trace`` gets one entry per layer in each list it records, with the
    token's position as the step of its selection rows. A failed step
    leaves the cache as it was and what it recorded in the trace.
    """
    plan = _plan_ratios(plan_layers, keep_ratio, model.config.n_layers)
    return _run_layers(model, [token_id], cache, plan, criterion,
                       compute_kv_for_unselected, trace), cache


def generate_greedy(
    model: Model,
    prompt_tokens,
    n_new: int,
    plan_layers=(),
    keep_ratio=1.0,
    criterion: Criterion = DEFAULT_CRITERION,
    compute_kv_for_unselected: bool = True,
    trace: HiddenTrace | None = None,
) -> list[int]:
    """Greedy decode: prefill the prompt, then argmax one token at a time.

    Returns the prompt plus ``n_new`` generated ids. Argmax ties resolve to
    the smallest token id. A ``trace`` records the prefill and every
    decode step, in order.
    """
    if not (_is_number(n_new, numbers.Integral) and n_new >= 0):
        raise UsageError(f"n_new must be an integer >= 0, got {n_new!r}")
    logits, _, cache = forward_with_plan(
        model, prompt_tokens, plan_layers, keep_ratio, criterion,
        compute_kv_for_unselected, trace,
    )
    out = [int(t) for t in np.asarray(prompt_tokens)]
    for i in range(n_new):
        next_id = int(np.argmax(logits[-1]))
        out.append(next_id)
        if i + 1 < n_new:
            logits, _ = decode_step_with_plan(
                model, cache, next_id, plan_layers, keep_ratio, criterion,
                compute_kv_for_unselected, trace,
            )
    return out
