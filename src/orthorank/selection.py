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
Prefill ranks all T rows against row 0 by top-k and caches one record per
plan layer: that sink row at the criterion's stage (normalized or raw) and
the T keys in position order. Rows appended to a prefilled cache, one
decode token or several, follow one rule: each is scored against the
cached sink state by the prefill's scoring rule and ranked in order by
``decode_select`` against the keys of every earlier token, its own
appended before the next row is ranked.
"""

import copy
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .calibration import _plan_ratios
from .checkpoint_io import _layer_names
from .errors import ConfigError, DomainError, ShapeError, StateError, UsageError, _is_number
from .model_runtime import (
    KVCache,
    Model,
    _config_of,
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
    non-negative integer. Only ``random`` reads its seed, so every other
    kind drops it once checked: criteria that rank alike compare equal.
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
        if self.kind != "random":
            object.__setattr__(self, "seed", None)


DEFAULT_CRITERION = Criterion()


def select_topk(keys, keep_ratio: float) -> np.ndarray:
    """Indices of the k = floor(p * T) smallest of the T keys: sorted ascending, int64.

    ``keys`` is any 1-D array of sort keys, such as ``selection_keys``
    returns, else ShapeError; ties resolve to the smaller index. The
    result's size is k.
    """
    if not (_is_number(keep_ratio) and 0.0 <= keep_ratio <= 1.0):
        raise ConfigError(f"keep_ratio must be in [0, 1], got {keep_ratio!r}")
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ShapeError(f"select_topk expects 1-D keys, got shape {keys.shape}")
    k = int(math.floor(keep_ratio * keys.shape[0]))
    order = np.argsort(keys, kind="stable")
    return np.sort(order[:k]).astype(np.int64, copy=False)


def cos_gradient(h0: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gradient of cos(h0, hi) with respect to hi.

    Equals (1/||hi||) (h0/||h0|| - cos(h0, hi) hi/||hi||): the residual of
    the unit sink direction orthogonal to hi, shrunk by 1/||hi||. Computed
    in float64, returned in the input dtype when it is a float one, else
    in float64. Two vectors of one length, else ShapeError.
    """
    h0 = np.asarray(h0)
    hi = np.asarray(hi)
    if h0.ndim != 1 or h0.shape != hi.shape:
        raise ShapeError(f"cos_gradient needs two vectors of one length, got shapes "
                         f"{h0.shape} and {hi.shape}")
    a = h0.astype(np.float64, copy=False)
    b = hi.astype(np.float64, copy=False)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cos_gradient is undefined for zero vectors")
    cos = float(a @ b) / (na * nb)
    grad = (a / na - cos * (b / nb)) / nb
    out = np.result_type(h0, hi)
    return grad.astype(out if out.kind == "f" else np.float64, copy=False)


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
    States that are not (T, d) with T >= 1, or a ``layer`` that is not an
    integer >= 0, raise UsageError, and a ``criterion`` that is not a
    Criterion ConfigError.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[0] < 1:
        raise UsageError(f"states must be (T, d) with T >= 1, got {states.shape}")
    if not (_is_number(layer, numbers.Integral) and layer >= 0):
        raise UsageError(f"layer must be an integer >= 0, got {layer!r}")
    if not isinstance(criterion, Criterion):
        raise ConfigError(f"a criterion must be a Criterion, got {type(criterion).__name__}")
    keys = _score_keys(states, states[0], criterion, layer)
    keys[0] = np.inf
    return keys


def _score_keys(states: np.ndarray, sink, criterion: Criterion, layer: int,
                positions: np.ndarray | None = None) -> np.ndarray:
    """The one scoring rule of prefill and appends: float64 keys of ``states``' rows.

    Orthogonal kinds score |<sink, h_i>|, norm kinds ||h_i||;
    descending kinds negate their ascending counterparts. ``random`` draws a
    prefill's T keys from one generator keyed by (seed, layer, T) and, given
    the rows' ``positions``, an appended row's key from its own generator
    keyed by (seed, layer, position). Every other kind's key of a row does
    not depend on how many rows are scored with it, so an appended row's
    key equals the prefill key of the same row bitwise. That is why the dot
    product is an ``einsum``: a BLAS matrix-vector product rounds
    differently at different row counts.
    """
    if criterion.kind == "random":
        if positions is None:
            return np.random.default_rng((criterion.seed, layer, len(states))).random(len(states))
        return np.array([np.random.default_rng((criterion.seed, layer, p)).random()
                         for p in positions.tolist()])
    s64 = states.astype(np.float64, copy=False)
    if criterion.kind.startswith("orthogonal"):
        keys = np.abs(np.einsum("ij,j->i", s64, sink.astype(np.float64, copy=False)))
    else:
        keys = np.linalg.norm(s64, axis=1)
    return -keys if criterion.kind.endswith("_desc") else keys


def _layer_step(model: Model, layer: int, x: np.ndarray, positions: np.ndarray,
                ratio: float | None, criterion: Criterion, compute_kv_for_unselected: bool,
                cache: KVCache, trace: HiddenTrace | None,
                dense_out: np.ndarray | None = None):
    """Run block ``layer`` in place on ``x``; selectively unless ``ratio`` is None.

    The attention RMSNorm is computed once and shared by the trace, the
    scoring stage and the block. A step from position 0 prefills: it keeps
    the k = floor(p * T) rows with the lowest keys against row 0 (a
    non-finite key raises UsageError) and records row 0 at the criterion's
    stage as the layer's sink state, with the keys in position order. A step
    past position 0 appends its n >= 1 rows: it scores them against that
    sink state and selects each row in order by ``decode_select``, which
    replaces the staged ``cache``'s record with one that holds the row's key
    before the next row is ranked. A ``trace`` records the layer and each
    kind of entry it holds a list for: the block input and normalized rows,
    the scored rows of a plan layer, and the selected rows' attention mass
    on key 0. Returns the selected rows and the block's new key and value
    rows (None when an append stores nothing).
    ``dense_out``, the layer's recorded dense output for the prefill input
    ``x``, replaces the block: after the norm, scoring and trace, its
    selected rows are written into ``x`` and no key or value is made. With
    KV for unselected rows on, selected rows are bitwise the dense block's,
    so the result is the block's; the caller passes it only then, and with
    no attention mass captured.
    """
    xn = tc._rms_norm(x, model.weights[_layer_names(layer).attn_norm], model.config.norm_eps)
    if trace is not None:
        trace.layers.append(layer)
        if trace.hidden is not None:
            trace.hidden.append(x.copy())
            trace.normalized.append(xn)
    step = int(positions[0])  # 0 in a prefill, the first appended row's position
    rows = np.arange(x.shape[0], dtype=np.int64)
    sel = rows
    if ratio is not None:
        stage = x if criterion.stage == "raw_hidden" else xn
        if step:
            keys = _score_keys(stage, cache.selective[layer][0], criterion, layer, positions)
            chosen = [decode_select(cache, layer, s, ratio) for s in keys.tolist()]
            if not all(chosen):  # all or none, a decode step's two cases, need no index array
                sel = rows[chosen] if any(chosen) else rows[:0]
        else:
            keys = selection_keys(stage, criterion, layer)
            if not np.isfinite(keys[1:]).all():
                raise UsageError(f"layer {layer} scores must be finite; its states are not")
            sel = select_topk(keys, ratio)
            cache.selective[layer] = (stage[0].copy(), keys)
        if trace is not None and trace.selection is not None:
            chosen = np.isin(rows, sel).astype(np.int64)
            trace.selection.extend((layer, step, p, s, c) for p, s, c in zip(
                positions.tolist(), keys.tolist(), chosen.tolist()))
    if dense_out is not None:
        x[sel] = dense_out[sel]
        return sel, None, None
    capture_attn0 = trace is not None and trace.attn_to_sink is not None
    kv_rows = rows if compute_kv_for_unselected else sel
    if step and kv_rows.size == 0:  # none selected with KV off: the rows skip the layer
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
    """Prefill ``token_ids`` into an empty ``cache``, or append them to it; their logits.

    The one layer loop: layers outside ``plan`` run dense, so the empty plan
    is the dense forward pass and the dense decode step. It alone checks and
    commits a step. The model's config must be the cache's, and its id the
    one the cache's first step recorded (any id at the first step, which
    records it), else StateError before any layer runs. Two in-memory models
    that share a config and an id pass as one. An append must also run
    selectively exactly the layers its prefill did, under the criterion the
    prefill recorded (any keep ratio and KV setting), else StateError before
    any layer runs; a ``model`` that is not a Model or a ``cache`` that is
    not a KVCache raises UsageError and a ``criterion`` that is not a
    Criterion ConfigError. The layers run on a staged copy of the cache's
    containers: its (arena, count) pairs, which ``block_forward`` replaces
    after writing past the counts, and its selective layers' records, which
    a prefill sets and ``decode_select`` replaces with one that holds each
    appended row's key. The staged containers replace the cache's only after
    the last layer, so a failed step leaves the cache's committed rows,
    arenas and selection state as they were (its ``trace`` keeps what the
    step recorded). With finite states an append of n tokens therefore
    equals n one-token appends bitwise, and a prefix's logits equal the same
    rows of the longer run's. Both contracts hold only for finite states: a
    non-finite row makes the earlier rows of its own call non-finite too
    (``block_forward``).
    ``resume=(s, x, out)`` starts a prefill at layer ``s`` from ``x``, the
    (T, d) input states of that layer recorded by an earlier run (``x`` is
    not modified and ``token_ids`` is not read). Layers below ``s`` neither
    run nor fill the cache; from ``s`` on, the same ops run on
    the same rows as in a run from the embeddings under any plan that agrees
    with ``plan`` below ``s``, so the result is bitwise that run's. ``out``
    is None or the recorded run's output of a dense layer ``s``, its input
    to layer ``s + 1``: layer ``s`` then mixes the rows it selects from
    ``out`` into ``x`` instead of running its block (``_layer_step``'s
    ``dense_out``), and fills no cache rows. A ``trace`` (``HiddenTrace``)
    gets the entries of every layer step the loop runs, from ``s`` on when
    it resumes.
    """
    if not isinstance(criterion, Criterion):
        raise ConfigError(f"a criterion must be a Criterion, got {type(criterion).__name__}")
    cfg = _config_of(model)
    if not isinstance(cache, KVCache):
        raise UsageError(f"expected a KVCache, got {type(cache).__name__}")
    config, model_id = cache.identity
    if config != cfg or model_id not in (None, model.model_id):
        raise StateError(f"the cache holds model {model_id!r} with {config}; "
                         f"it cannot step model {model.model_id!r} with {cfg}")
    if cache.n_tokens:
        selective = sorted(cache.selective)
        if sorted(plan) != selective:
            raise StateError(f"the cache's prefill ran layers {selective} selectively; "
                             f"a decode step cannot run layers {sorted(plan)} selectively")
        if selective and cache.criterion != criterion:
            raise StateError(f"the cache was prefilled under {cache.criterion}; "
                             f"a decode step cannot select under {criterion}")
    if resume is None:
        first, (x, _), dense_out = 0, embed_tokens(model, token_ids), None
    else:
        first, x, dense_out = resume[0], resume[1].copy(), resume[2]
    staged = copy.copy(cache)
    staged.layers, staged.selective = list(cache.layers), dict(cache.selective)
    staged.n_tokens, staged.identity = cache.n_tokens + x.shape[0], (cfg, model.model_id)
    staged.criterion = criterion if cache.criterion is None else cache.criterion
    positions = np.arange(cache.n_tokens, staged.n_tokens, dtype=np.int64)
    for layer in range(first, cfg.n_layers):
        _layer_step(model, layer, x, positions, plan.get(layer), criterion,
                    compute_kv_for_unselected, staged, trace, dense_out)
        dense_out = None
    vars(cache).update(vars(staged))  # commit: the staged containers replace the cache's
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
    ``forward_with_plan``'s would. ``x`` is (T, d_model) with T >= 1, else
    ShapeError; a ``model`` that is not a Model raises UsageError and a
    ``criterion`` that is not a Criterion ConfigError.
    """
    (layer, ratio), = _plan_ratios([layer_index], keep_ratio, _config_of(model).n_layers).items()
    if not isinstance(criterion, Criterion):
        raise ConfigError(f"a criterion must be a Criterion, got {type(criterion).__name__}")
    x_out = np.array(x, copy=True)
    if x_out.ndim != 2 or not x_out.shape[0] or x_out.shape[1] != model.config.d_model:
        raise ShapeError(f"forward_orthorank_layer expects (T, {model.config.d_model}) states "
                         f"with T >= 1, got {x_out.shape}")
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
    ``_plan_ratios``: there is no ``{layer: ratio}`` mapping form, and a bad
    plan raises ConfigError. The empty plan, ``LayerPlan()``'s, is exactly
    the dense forward pass (same kernel, same arithmetic). The returned
    cache holds each plan layer's record, its sink state and every token's
    key in position order, ready for decode. Returns (T, vocab) logits, the
    ``trace`` passed in (None without one), which gets one entry per layer
    in each list it records, and the cache.
    """
    config = _config_of(model)
    plan = _plan_ratios(plan_layers, keep_ratio, config.n_layers)
    cache = KVCache(config)
    logits = _run_layers(model, token_ids, cache, plan, criterion,
                         compute_kv_for_unselected, trace)
    return logits, trace, cache


def decode_select(cache: KVCache, layer: int, new_score: float, keep_ratio: float) -> bool:
    """Streaming selection for one new token at one selective layer.

    With H the layer's keys ``cache.selective[layer][1]`` (every prior
    token's key in position order, the sink's +inf first) and the new score
    s, the token is selected iff s ranks within k = floor(p * (|H|+1)) of
    the pooled set: fewer than k keys of H are <= s, so equal keys favor
    the incumbent entry. s joins H either way, every token becomes context:
    the layer's record is replaced by one whose keys end with s, never
    changed in place. A layer without a record raises StateError, a score
    that is not a finite number UsageError, and a ratio outside [0, 1]
    ConfigError, each with the record left as it is, and a ``cache`` that
    is not a KVCache UsageError. An append's plan layer calls it on each
    new row in order, on its staged cache.
    """
    if not isinstance(cache, KVCache):
        raise UsageError(f"expected a KVCache, got {type(cache).__name__}")
    record = cache.selective.get(layer)
    if record is None:
        raise StateError(f"layer {layer} has no selection record; prefill with the plan first")
    if not (_is_number(new_score) and math.isfinite(new_score)):
        raise UsageError(f"new_score must be finite, got {new_score}")
    if not (_is_number(keep_ratio) and 0.0 <= keep_ratio <= 1.0):
        raise ConfigError(f"keep_ratio must be in [0, 1], got {keep_ratio!r}")
    sink, keys = record
    k = int(math.floor(keep_ratio * (len(keys) + 1)))
    selected = int(np.count_nonzero(keys <= new_score)) + 1 <= k
    cache.selective[layer] = (sink, np.append(keys, float(new_score)))
    return selected


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
    plan = _plan_ratios(plan_layers, keep_ratio, _config_of(model).n_layers)
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
