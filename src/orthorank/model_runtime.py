"""Dense decoder-only forward pass, KV caching, and sink-layer detection.

Architecture: pre-norm blocks, x += Attn(RMSNorm(x)) then x += SwiGLU(RMSNorm(x)),
grouped-query attention (query head h reads KV head h // (n_heads // n_kv_heads)),
rotary position embeddings on Q and K, final RMSNorm before the output
projection. Dense inference is the empty plan of the one layer loop in
``selection``: ``forward_dense`` and ``decode_step_dense`` run that loop with
no selective layers, so full selection is bitwise identical to the dense
pass by construction.
"""

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .checkpoint_io import ModelConfig, _check_weights, _layer_names, _read_checkpoint
from .errors import ConfigError, ShapeError, StateError, UsageError, _is_number
from .trace import HiddenTrace

ROW_BLOCK = 256  # most rows per FFN block
ATTN_ROWS = 64  # most rows per attention block (each reads only its key prefix)
SCORE_BUDGET = 1 << 18  # most score entries of one attention block, all heads together


@dataclass
class Model:
    """Immutable weights plus config; shareable across threads.

    ``model_id`` names the weights: a ``KVCache`` refuses a step by a model
    of another id. ``from_checkpoint`` derives it from the checkpoint's
    bytes; a model built from in-memory weights is given its own. The
    weights are checked when the model is made: exactly
    ``required_tensors(config)``'s names, each a floating-point numpy array
    of the listed shape, else ConfigError.
    """

    config: ModelConfig
    weights: dict[str, np.ndarray]
    model_id: str

    def __post_init__(self):
        if not isinstance(self.config, ModelConfig):
            raise ConfigError(f"a model needs a ModelConfig, got {type(self.config).__name__}")
        _check_weights(self.config, self.weights, ConfigError)

    @classmethod
    def from_checkpoint(cls, dir_path) -> "Model":
        """Load a checkpoint; its id is ``weights_sha256`` of the bytes it read, hashed once."""
        config, weights, blob = _read_checkpoint(dir_path)
        return cls(config, weights, hashlib.sha256(blob).hexdigest())

    @cached_property
    def unembed(self) -> np.ndarray:
        """(d_model, vocab) output projection; embedding transpose when tied."""
        if self.config.tied_embeddings:
            return np.ascontiguousarray(self.weights["embed.weight"].T)
        return self.weights["lm_head.weight"]


class KVArena(NamedTuple):
    """One layer's preallocated KV buffers; a cache commits their first rows.

    ``kt`` holds the keys transposed per KV group, (n_kv_heads, d_head,
    capacity): the column layout the matmul kernel reads, so attention
    scores a key prefix with no copy. ``va`` holds the values, (n_kv_heads,
    capacity, d_head), whose row prefixes are C-contiguous; ``pos`` the
    absolute positions, (capacity,). Rows past the committed count are
    scratch that a step writes before it commits them.
    """

    kt: np.ndarray
    va: np.ndarray
    pos: np.ndarray

    @classmethod
    def allocate(cls, n_kv: int, d_head: int, rows: int, dtype) -> "KVArena":
        """Zeroed buffers with room for ``rows`` rows plus a quarter, in whole column blocks."""
        capacity = _capacity(rows)
        return cls(np.zeros((n_kv, d_head, capacity), dtype),
                   np.zeros((n_kv, capacity, d_head), dtype),
                   np.zeros(capacity, np.int64))

    @property
    def capacity(self) -> int:
        return self.pos.shape[0]

    def grown(self, count: int, rows: int, dtype) -> "KVArena":
        """A new arena with room for ``rows`` rows holding this one's first ``count``."""
        n_kv, d_head, _ = self.kt.shape
        arena = KVArena.allocate(n_kv, d_head, rows, dtype)
        arena.kt[:, :, :count] = self.kt[:, :, :count]
        arena.va[:, :count] = self.va[:, :count]
        arena.pos[:count] = self.pos[:count]
        return arena

    def write(self, start: int, keys: np.ndarray, values: np.ndarray, positions) -> None:
        """Store (t, n_kv_heads, d_head) ``keys``/``values`` and ``positions`` from row ``start``."""
        end = start + len(positions)
        self.kt[:, :, start:end] = keys.transpose(1, 2, 0)
        self.va[:, start:end] = values.transpose(1, 0, 2)
        self.pos[start:end] = positions


def _capacity(rows: int) -> int:
    # a quarter of headroom, not doubling: an arena moves once per rows/4
    # appended tokens and never holds more than a quarter (and one column
    # block) of unused rows
    return tc._round_up(rows + rows // 4, tc._COL_ALIGN)


class KVCache:
    """Per-layer keys/values plus the selection state of one sequence.

    ``KVCache(config)`` is the one way to make a cache: an empty arena per
    layer in ``config``'s KV layout. ``copy.deepcopy(cache)`` forks a
    sequence: the copy shares no buffer and keeps the identity and the
    criterion. Each layer is one ``KVArena`` and a committed row count, in
    ``layers``; the arena is the only copy of the layer's KV.
    ``keys[l]``/``values[l]`` are read-only (t_l, n_kv_heads, d_head) views
    of layer l's committed rows and ``positions[l]`` of their absolute
    positions. t_l equals the number of processed tokens except at layers
    run with KV computation for unselected tokens disabled. A step writes
    its rows past the counts, into a larger arena when they do not fit, and
    commits by replacing the (arena, count) pairs, so committed rows never
    change. Only layers run selectively have ``sorted_history[o]``, their
    one score list: one score per processed token in ascending order, +inf
    for the sink, which decode ranks a new score against; and
    ``sink_state[o]``, the sink's row at the criterion's stage (normalized
    or raw) that decode scores new tokens against. ``identity`` is the
    (config, model_id) of the model the cache steps: the config from the
    start, the id None until the first step records it. ``criterion`` is
    the selection ``Criterion`` of the cache's first step, None before.
    A step commits only after its last layer, so a failed one leaves the
    cache unchanged.
    """

    def __init__(self, config: ModelConfig):
        self.layers: list[tuple[KVArena, int]] = [
            (KVArena.allocate(config.n_kv_heads, config.d_head, 0, tc.DEFAULT_DTYPE), 0)
            for _ in range(config.n_layers)]
        self.sink_state: dict[int, np.ndarray] = {}
        self.n_tokens = 0
        self.sorted_history: dict[int, list[float]] = {}
        self.identity: tuple[ModelConfig, str | None] = (config, None)
        self.criterion = None

    @property
    def keys(self) -> list[np.ndarray]:
        return [tc._read_only(a.kt[:, :, :n].transpose(2, 0, 1)) for a, n in self.layers]

    @property
    def values(self) -> list[np.ndarray]:
        return [tc._read_only(a.va[:, :n].transpose(1, 0, 2)) for a, n in self.layers]

    @property
    def positions(self) -> list[np.ndarray]:
        return [tc._read_only(a.pos[:n]) for a, n in self.layers]

    def check(self) -> None:
        """Raise StateError unless the cache is one consistent sequence.

        The cache has one arena per layer of its recorded config, in that
        config's KV layout. Every arena holds keys, values and positions of
        one capacity, a whole number of kernel column blocks, at least its
        committed row count; the committed positions ascend strictly below
        ``n_tokens``. A layer without a score list ran dense, so with KV
        for every token: it holds ``n_tokens`` rows. A selective layer
        holds at most that many (fewer only with KV for unselected tokens
        off), its sink state, and an ascending score list with one score
        per token (checked in one pass, no sort).
        """
        n, config = self.n_tokens, self.identity[0]
        if len(self.layers) != config.n_layers:
            raise StateError(f"a cache of {len(self.layers)} layers does not fit {config}")
        layout = (config.n_kv_heads, config.d_head)
        for layer, ((kt, va, pos), rows) in enumerate(self.layers):
            if (kt.ndim != 3 or kt.shape[:2] != layout
                    or va.shape != (kt.shape[0], kt.shape[2], kt.shape[1])
                    or pos.shape != kt.shape[2:] or pos.size % tc._COL_ALIGN
                    or not 0 <= rows <= pos.size):
                raise StateError(f"layer {layer} arena of keys {kt.shape}, values {va.shape} "
                                 f"and positions {pos.shape} cannot hold {rows} rows "
                                 f"of (n_kv_heads, d_head) {layout}")
            pos = pos[:rows]
            if np.any(np.diff(pos) <= 0) or (pos.size and not 0 <= pos[0] <= pos[-1] < n):
                raise StateError(f"layer {layer} positions are not ascending below {n}")
            ranked = self.sorted_history.get(layer)
            if ranked is None:
                if pos.size != n:
                    raise StateError(f"dense layer {layer} holds {pos.size} rows for {n} tokens")
                continue
            if pos.size > n or len(ranked) != n:
                raise StateError(f"selective layer {layer} holds {pos.size} rows and "
                                 f"{len(ranked)} scores for {n} tokens")
            if layer not in self.sink_state or not all(a <= b for a, b in pairwise(ranked)):
                raise StateError(f"layer {layer} lacks its sink state or ascending score list")


def block_forward(
    model: Model,
    layer: int,
    x: np.ndarray,
    positions: np.ndarray,
    sel: np.ndarray,
    kv_rows: np.ndarray,
    xn: np.ndarray,
    cache: KVCache,
    capture_attn0: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run decoder block ``layer`` in place on rows ``sel`` of ``x``.

    ``xn`` is the attention RMSNorm of every row of ``x``; keys and values
    are computed for ``kv_rows`` and written into ``cache``'s arena for the
    layer past its committed rows (a larger arena, holding a copy of them,
    replaces it in ``cache.layers`` when they do not fit); the layer's
    count then covers them. The query, attention, output projection, and
    FFN run only for ``sel`` rows. Rows outside ``sel`` are left untouched,
    so they pass through bitwise, and an empty ``sel`` returns right after
    the keys and values. ``sel`` and ``kv_rows`` hold sorted distinct row
    indices, every row of ``sel`` is in ``kv_rows``, and the arguments are
    the checked ones of a layer step: the kernels it calls check nothing.
    ``positions`` hold one integer >= 0 per row of ``x``, in ascending
    order, else ShapeError; the checks read their shape, dtype and first
    entry.
    An index array that holds every row is read in place, with no gather of
    ``x``, ``xn`` or ``positions``, and ``x`` is then updated in place with
    no scatter.

    Attention runs on blocks of selected rows (their positions ascend), all
    heads at once: one stacked score product, one softmax and one context
    product per block, with no loop over heads. A block reads only a key
    prefix, its cut: the keys up to its last row's position, rounded up to
    a multiple of the kernel's column block ``tc._COL_ALIGN`` within the
    layer's committed keys. The score product then fills whole column
    blocks and returns its result with no trim copy, and the wider cut is
    exact: its extra keys lie past the block's last query, so the softmax
    masks them to exact zeros in every row, and they are trailing zero K
    to the row-sum and context products. Its rows are at most
    ``ATTN_ROWS``, in whole kernel row groups, and so few that every head's
    scores over the cut together hold at most ``SCORE_BUDGET`` entries (a
    block of one row may hold more), which bounds the working set; a
    block's scores are freed before the next block's are made. Blocks of
    64 rows rather than 256 keep each block's scores, probabilities and
    context small, which measured faster on the benchmark's shapes (the
    README's performance notes). The heads of one GQA group broadcast
    against their group's keys: scores read the arena's transposed keys in
    place and contexts its value rows, so no key or value is copied when
    d_head is a multiple of the kernel's column block. Fewer selected rows
    than a kernel row group (every decode step) fold the group's query
    heads into the rows of the products: one matrix of rows x group rows
    per KV head, not group matrices of a decode step's one row, each of
    which the kernel would pad to two rows.
    More rows keep one matrix per query head. The FFN (its RMSNorm, gate,
    up and down products) runs on blocks of at most ``ROW_BLOCK`` selected
    rows, so a long prompt's gate and up outputs stay cache-sized. All cuts
    and folds are bitwise exact because the matmul kernel is invariant to
    the batch rows and the stack around a matrix, to truncated columns of
    ``b`` and to trailing zero K, the causal softmax to dropped masked
    columns, and every row-wise op to the rows beside a row.

    Returns the new key and value rows plus the per-``sel``-row
    mean-over-heads attention probability on key position 0 when
    ``capture_attn0`` (else None).
    """
    if positions.shape != (len(x),):
        raise ShapeError(f"block_forward expects {len(x)} positions, got shape {positions.shape}")
    if positions.dtype.kind not in "iu":
        raise ShapeError(f"block_forward positions must be integers, got dtype {positions.dtype}")
    if len(positions) and positions[0] < 0:
        raise ShapeError("block_forward positions must be >= 0")
    cfg = model.config
    n_heads, n_kv, d_head = cfg.n_heads, cfg.n_kv_heads, cfg.d_head
    w, names = model.weights, _layer_names(layer)

    xk = _rows(xn, kv_rows)
    kv_pos = _rows(positions, kv_rows)
    k_new = tc.matmul(xk, w[names.wk]).reshape(len(kv_rows), n_kv, d_head)
    rot = tc._rope_rows(kv_pos, cfg.rope_theta, d_head, k_new.dtype)
    k_new = tc._rope_apply(k_new, *rot)
    v_new = tc.matmul(xk, w[names.wv]).reshape(len(kv_rows), n_kv, d_head)

    arena, count = cache.layers[layer]
    end = count + len(kv_rows)
    if end > arena.capacity:
        arena = arena.grown(count, end, np.result_type(arena.kt, k_new))
    arena.write(count, k_new, v_new, kv_pos)
    cache.layers[layer] = (arena, end)
    key_pos = arena.pos[:end]

    attn0 = np.zeros(len(sel), dtype=np.float64) if capture_attn0 else None
    if len(sel) == 0:
        return k_new, v_new, attn0

    q_pos = _rows(positions, sel)
    q = tc.matmul(_rows(xn, sel), w[names.wq]).reshape(len(sel), n_heads, d_head)
    # sel is within kv_rows, so as many rows are the same rows (every row
    # of a dense layer, a selected decode row), and Q takes K's cos and sin
    if len(sel) != len(kv_rows) or q.dtype != k_new.dtype:
        rot = tc._rope_rows(q_pos, cfg.rope_theta, d_head, q.dtype)
    q = tc._rope_apply(q, *rot)

    scale = 1.0 / math.sqrt(d_head)
    group = n_heads // n_kv
    # fold factor: fewer rows than a kernel row group put a GQA group's
    # heads into the rows of one matrix, fewer and taller BLAS matrices
    f = group if len(sel) < tc._ROW_ALIGN else 1
    # head-major views, (n_kv, group // f, rows * f, d_head): query head
    # g * group + i * f + j of row r is row r * f + j of matrix (g, i) and
    # reads KV group g; the context rows land in ctx through heads_ctx,
    # (n_kv, group // f, rows, f, d_head)
    heads = q.reshape(len(sel), n_kv, group // f, f, d_head).transpose(1, 2, 0, 3, 4).reshape(
        n_kv, group // f, len(sel) * f, d_head)
    ctx = np.empty((len(sel), n_heads, d_head), dtype=x.dtype)
    heads_ctx = ctx.reshape(len(sel), n_kv, group // f, f, d_head).transpose(1, 2, 0, 3, 4)
    r = 0
    while r < len(sel):
        # as many rows as keep every head's scores over the key cut of the
        # next ATTN_ROWS rows within SCORE_BUDGET, in whole kernel row
        # groups; a lone row may exceed it
        last = q_pos[min(r + ATTN_ROWS, len(sel)) - 1]
        ahead = _key_cut(key_pos, last)
        n = SCORE_BUDGET // (n_heads * ahead)
        n = min(ATTN_ROWS, n - n % tc._ROW_ALIGN if n >= tc._ROW_ALIGN else max(n, 1))
        rows = slice(r, r + n)
        block_pos = q_pos[rows]
        m = len(block_pos)
        # the block's key cut: keys past its last query are masked in every
        # row (that cut is the one just found when the block ends at that
        # row, as every decode step's does)
        cut = ahead if block_pos[-1] == last else _key_cut(key_pos, block_pos[-1])
        scores = tc._matmul_cols(heads[:, :, r * f:(r + m) * f], arena.kt[:, None], cut)
        scores *= scale
        probs = tc._softmax_in_place(scores, block_pos.repeat(f), key_pos[:cut])
        heads_ctx[:, :, rows] = tc._matmul_cols(probs, arena.va[:, None, :cut], d_head).reshape(
            n_kv, group // f, m, f, d_head)
        if attn0 is not None and key_pos[0] == 0:  # positions ascend: key 0 is column 0
            # heads added in order, as one at a time would
            sink = probs[..., 0].reshape(n_kv, group // f, m, f).transpose(0, 1, 3, 2)
            attn0[rows] = np.cumsum(sink.reshape(n_heads, m), axis=0, dtype=np.float64)[-1]
        del scores, probs  # this block's scores go before the next block's
        r += n
    if attn0 is not None:
        attn0 /= n_heads

    x_sel = _rows(x, sel)
    x_sel += tc.matmul(ctx.reshape(len(sel), n_heads * d_head), w[names.wo])
    # the FFN in blocks of ROW_BLOCK rows: a block's gate and up outputs
    # stay within a core's cache where a long prompt's would not
    gain, w_gate, w_up, w_down = (w[names.ffn_norm], w[names.w_gate], w[names.w_up],
                                  w[names.w_down])
    for r in range(0, len(sel), ROW_BLOCK):
        block = x_sel[r:r + ROW_BLOCK]
        xn2 = tc._rms_norm(block, gain, cfg.norm_eps)
        hidden = tc.silu(tc.matmul(xn2, w_gate))
        hidden *= tc.matmul(xn2, w_up)
        block += tc.matmul(hidden, w_down)
    if x_sel is not x:
        x[sel] = x_sel
    return k_new, v_new, attn0


def _key_cut(key_pos: np.ndarray, last) -> int:
    """The key cut of an attention block whose last query sits at position ``last``.

    The count of keys up to ``last``, rounded up to a multiple of the
    kernel's ``_COL_ALIGN`` but not past the layer's last key, so the score
    product needs no trim copy; the extra keys lie past every query of the
    block.
    """
    return min(tc._round_up(int(key_pos.searchsorted(last, side="right")), tc._COL_ALIGN),
               len(key_pos))


def _rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (sorted, distinct) of ``a``: ``a`` itself when they are all of its rows."""
    return a if len(rows) == len(a) else a[rows]


def lm_head_logits(model: Model, x: np.ndarray) -> np.ndarray:
    """Final RMSNorm followed by the output projection; ``x`` is (T, d_model), else ShapeError."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.config.d_model:
        raise ShapeError(f"lm_head_logits expects (T, {model.config.d_model}) states, "
                         f"got {x.shape}")
    xn = tc._rms_norm(x, model.weights["final_norm.gain"], model.config.norm_eps)
    return tc.matmul(xn, model.unembed)


def embed_tokens(model: Model, token_ids) -> tuple[np.ndarray, np.ndarray]:
    """Validate token ids and return (embeddings copy, ids array)."""
    tokens = np.asarray(token_ids)
    if tokens.ndim != 1 or tokens.size == 0 or tokens.dtype.kind not in "iu":
        raise UsageError(f"token sequence must be a non-empty 1-D list of integer ids, "
                         f"got {tokens.dtype} of shape {tokens.shape}")
    tokens = tokens.astype(np.int64, copy=False)
    lo, hi = np.minimum.reduce(tokens), np.maximum.reduce(tokens)
    if lo < 0 or hi >= model.config.vocab_size:
        raise UsageError(f"token ids must lie in [0, {model.config.vocab_size}), "
                         f"got range [{lo}, {hi}]")
    # an integer-array index gathers into a new array: the embeddings' copy
    return model.weights["embed.weight"][tokens], tokens


def forward_dense(
    model: Model,
    token_ids,
    trace: HiddenTrace | None = None,
) -> tuple[np.ndarray, HiddenTrace | None, KVCache]:
    """Teacher-forced dense forward pass over a full sequence: the empty plan.

    Returns (T, vocab) logits, the ``trace`` passed in (None without one),
    which gets one entry per layer in each list it records (``HiddenTrace()``
    records block inputs and their pre-attention RMSNorm outputs), and the
    populated KV cache.
    """
    from .selection import DEFAULT_CRITERION, _run_layers

    cache = KVCache(model.config)
    logits = _run_layers(model, token_ids, cache, {}, DEFAULT_CRITERION, True, trace)
    return logits, trace, cache


def decode_step_dense(model: Model, cache: KVCache, token_id: int) -> tuple[np.ndarray, KVCache]:
    """Append one token to the cached sequence and return its (1, vocab) logits.

    An empty cache makes this a length-1 prefill. Its logits equal the
    corresponding row of a from-scratch dense forward bitwise.
    A cache prefilled with selective layers raises StateError.
    """
    from .selection import DEFAULT_CRITERION, _run_layers

    return _run_layers(model, [token_id], cache, {}, DEFAULT_CRITERION, True), cache


def detect_sink_layer(model: Model, calib_tokens, tau: float = 0.3) -> int:
    """Smallest layer whose mean attention mass on key 0 reaches ``tau``.

    The mean runs over all heads and all query positions >= 1. Returns
    n_layers as a sentinel when no layer reaches the threshold.
    """
    if not (_is_number(tau) and 0.0 < tau <= 1.0):
        raise UsageError(f"tau must be in (0, 1], got {tau!r}")
    tokens = np.asarray(calib_tokens)
    if tokens.size < 8:
        raise UsageError(f"sink detection needs >= 8 calibration tokens, got {tokens.size}")
    _, trace, _ = forward_dense(model, tokens, HiddenTrace(hidden=None, attn_to_sink=[]))
    for layer, attn0 in zip(trace.layers, trace.attn_to_sink):
        if float(np.mean(attn0[1:])) >= tau:
            return layer
    return model.config.n_layers
