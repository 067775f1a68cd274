"""Dense linear-algebra and transformer kernel primitives.

Tensors are plain C-contiguous numpy arrays, float32 by default. Every
operation here but the in-place softmax is a pure function; each one
preserves the dtype of its inputs and is deterministic for a fixed process
environment: calling the same op twice on the same data yields
bit-identical results, which the test suite relies on.

Matrix products run on BLAS through one canonical-shape kernel whose output
rows do not depend on the batch shape: a row of ``matmul(a, b)`` is
bit-identical whether ``a`` holds 1 row or 500, whichever other rows sit
beside it, however many columns ``b`` has, and whether trailing zero
columns of ``a`` (with matching zero rows of ``b``) are appended. The
causal-prefix, bypass and empty-plan contracts of the model rest on this,
and so does causal block-truncated attention: a block of query rows that
reads only its key prefix drops score columns (column truncation) and
probability columns that are exactly zero (trailing zero K), so its rows
equal those of the full-width product bit for bit.
BLAS libraries pick different code paths by operand shape and layout, so
the kernel hands BLAS only canonical shapes: ``a`` of at least two rows,
``b`` row-major with its columns padded to a multiple of ``_COL_ALIGN``,
and the inner dimension cut into ``_K_CHUNK``-wide chunks whose products
are added in order. Each rule was found necessary on OpenBLAS 0.3.31. A
one-row product takes numpy's matrix-vector path, which rounds otherwise,
so a one-row ``a`` gets one zero row; any other row count goes to BLAS as
it is, and each row has the bits it has inside a product of any other
count (checked over 1,258 products of 2 to 1,024 rows at 1 and 2 threads,
and pinned at the benchmark's shapes by the tests). Rows are not
capped: one call takes all of them, and however BLAS splits them among its
threads, no row's value changes (a fuzz that dropped an earlier 64-row cap
failed no invariance test, and products of up to 3,000 rows hash the same
at 1 and 2 threads). The invariance tests in ``tests/test_tensor_core.py``
are the gate on any other build or thread count.

The kernel is ``_matmul_cols(a, b, n)``, its one entry: it takes stacked
operands, (..., m, k) by (..., k, c), broadcasts their leading axes, and
makes one ``np.matmul`` call per K chunk for all rows and the whole stack,
which hands BLAS every matrix in the same canonical shapes as a 2-D
product, so each equals its 2-D product bit for bit. The result is
``a @ b[..., :n]``. Each matrix of ``b`` is read in place when it is in
the kernel's column layout: the result dtype, unit column stride and at
least ``n`` columns rounded up to ``_COL_ALIGN``, whatever the columns
past ``n`` hold (column truncation again). Any other ``b``, a transposed
view for one, is copied into that layout first. ``matmul`` is its checked
2-D case with ``n = b.shape[1]``. The KV cache stores each layer's keys in
the layout, so attention scores all heads of a row block against a key
prefix in one call, with no per-head loop and no copy of a key.

The causal softmax of attention is ``_softmax_in_place``: stacked (...,
rows, keys) scores that share their ascending query and key positions,
masked in place, with the row sums of the stack taken in one kernel call
against a shared ones table, one matrix per score matrix. The softmax
decides no row geometry: the blocks and the GQA fold of
``model_runtime.block_forward`` shape its stack. Ascending positions make
its mask test O(1): only a last key past the first query masks anything,
as no decode row's keys do. The rotary embedding ``_rope_apply`` takes cos
and sin rows that ``_rope_rows`` gathers from a table per (theta, d_head,
dtype).
Shared tables are read-only and grow by replacement, so threads may call
these functions concurrently.

``matmul`` checks its arguments; the private kernels (``_matmul_cols``,
``_rms_norm``, ``_rope_rows`` with ``_rope_apply``, ``_softmax_in_place``)
trust theirs. A model checks its weights when it is made and a layer step
its positions at its entry, so the layer loop calls the kernels directly,
and a layer whose query rows are its key rows rotates both with one gather
of cos and sin rows. The kernels run many times per decoded token, so they
call ufuncs and their ``.reduce`` directly (``np.add.reduce``,
``np.maximum.reduce``) and take the result dtype from the operands when
they share one. numpy's Python-level helpers (``np.mean``, ``np.max``,
``np.broadcast_shapes``, ``np.result_type``) cost microseconds per call in
Python; they are used only off that path: in argument checks, for empty
products, mixed dtypes and non-float input.
"""

import numpy as np

from .errors import ShapeError

DEFAULT_DTYPE = np.float32

_COL_ALIGN = 16  # columns of ``b`` are zero-padded to a multiple of this
_K_CHUNK = 256  # inner-dimension width of one BLAS call


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D tensors, row-invariant to the batch shape.

    Each output row depends only on its own row of ``a``, on ``b`` and on
    the inner dimension up to trailing zeros: truncating or gathering rows
    of ``a``, truncating columns of ``b``, or appending zero columns to
    ``a`` with zero rows to ``b`` leaves the remaining entries
    bit-identical (see the module docstring for the kernel's shape rules).
    Raises ShapeError if either operand is not 2-D or the inner dimensions
    disagree.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return _matmul_cols(a, b, b.shape[1])


def _round_up(n: int, multiple: int) -> int:
    return -(-n // multiple) * multiple


def _matmul_cols(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``a @ b[..., :n]`` through the canonical-shape kernel; the one matmul entry.

    ``a`` is (..., m, k) and ``b`` (..., k, c) with ``c >= n``; their
    leading axes broadcast, and every matrix of the result is the 2-D
    product of its own operands bit for bit. ``b`` is read in place when it
    has the result dtype, unit column stride and ``c >= _round_up(n,
    _COL_ALIGN)`` columns; the columns past ``n`` may then hold anything,
    since they reach only discarded output columns. Any other ``b`` is
    copied into that layout, zero-padded past ``n``. ``a`` goes to BLAS
    with its own rows, a one-row ``a`` with one zero row added (numpy's
    matrix-vector path rounds otherwise; see the module docstring). The
    result is the first ``_K_CHUNK``-wide chunk's product over all rows
    and the whole stack, one ``np.matmul`` call, with each later chunk's
    product added into it in order; those products share one buffer.
    """
    m, k = a.shape[-2:]
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    if m == 0 or n == 0:
        return np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n), dtype)
    m_pad, n_pad = max(m, 2), _round_up(n, _COL_ALIGN)
    # BLAS rounds a transposed b differently from the row-major layout, so
    # a b out of the layout is brought to it here.
    if b.dtype != dtype or b.strides[-1] != b.itemsize or b.shape[-1] < n_pad:
        padded = np.zeros(b.shape[:-1] + (n_pad,), dtype)
        padded[..., :n] = b[..., :n]
        b = padded
    elif b.shape[-1] > n_pad:
        b = b[..., :n_pad]
    # BLAS rounds a with strided columns differently from the row-major
    # layout, so it is brought to it here.
    if m_pad != m or a.dtype != dtype or a.strides[-1] != a.itemsize:
        padded = np.zeros(a.shape[:-2] + (m_pad, k), dtype)
        padded[..., :m, :] = a
        a = padded
    if k <= _K_CHUNK:
        out = np.matmul(a, b)
    else:
        out = np.matmul(a[..., :_K_CHUNK], b[..., :_K_CHUNK, :])
        part = np.empty_like(out)
        for c in range(_K_CHUNK, k, _K_CHUNK):
            np.matmul(a[..., c:c + _K_CHUNK], b[..., c:c + _K_CHUNK, :], out=part)
            out += part
    return out if m == m_pad and n == n_pad else np.ascontiguousarray(out[..., :m, :n])


def _rms_norm(x: np.ndarray, gain: np.ndarray, eps: float) -> np.ndarray:
    """Root-mean-square normalization with a learned element-wise gain.

    out[t] = gain * x[t] / sqrt(mean(x[t]**2) + eps), row-wise over a
    vector or (..., d) array, bit for bit the ``np.mean`` form. Trusts its
    arguments: a gain as long as the rows and a Python float ``eps > 0``.

    A float32 or float64 ``x`` with a gain of its dtype makes one array of
    its size: the squares go into it, and once their row means are taken
    it is overwritten with the normalized rows and scaled by the gain in
    place. Every step rounds as the formula's does (the product is
    commutative bit for bit), so the result is the same. Other inputs
    (float16, integers, a gain of another dtype, whose product promotes)
    take the formula as it is.
    """
    sq = np.square(x)
    # float16 weights are valid and np.mean sums them in float32, so only
    # float32 and float64 take the direct reduction
    if sq.dtype.char in "fd":
        # np.mean's sum, without its Python wrapper; its division by the
        # count runs in float64 and rounds to the result dtype, which rounds
        # as this division in that dtype does
        ms = np.add.reduce(sq, axis=-1, keepdims=True)
        ms /= x.shape[-1]
        if gain.dtype == sq.dtype:
            ms += eps
            np.sqrt(ms, out=ms)
            np.divide(x, ms, out=sq)
            sq *= gain
            return sq
    else:
        ms = np.mean(sq, axis=-1, keepdims=True)
    return gain * (x / np.sqrt(ms + eps))


def _softmax_in_place(scores: np.ndarray, q_pos: np.ndarray, k_pos: np.ndarray) -> np.ndarray:
    """Row-wise causal softmax of every matrix of stacked (..., rows, keys) float ``scores``.

    All matrices share the int64 query positions ``q_pos`` (rows,) and key
    positions ``k_pos`` (keys,), both ascending, as in an attention block,
    so the mask is built once. A key past its row's query position gets
    exactly 0, and every row admits at least one key. Rows are stabilized
    by max subtraction. A row's output does not depend on the rows or
    matrices beside it, and dropping trailing masked columns leaves its
    other entries bit-identical. The softmax overwrites ``scores``, which
    it returns.
    """
    # Positions ascend: a column is masked in some row only past the first
    # query, so only a last key past it needs the search. A decode row's
    # keys never do.
    if q_pos.size and k_pos.size and k_pos[-1] > q_pos[0]:
        lo = k_pos.searchsorted(q_pos[0], side="right")
        np.copyto(scores[..., lo:], -np.inf, where=k_pos[lo:] > q_pos[:, None])
    # Every row admits at least one key (its own position), so the max is
    # finite; the initial value only serves an empty batch of rows.
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True, initial=-np.inf)
    np.exp(scores, out=scores)
    # Row sums as a product with a ones column through the row-invariant
    # kernel: masked columns add exact zeros, so a row's denominator does
    # not change when they are appended or when other rows join the batch.
    # np.sum and einsum group their partial sums by row length and would
    # break bitwise causality. The scores go to the kernel as the stack they
    # are, one matrix per stacked matrix against a shared ones table: a
    # decode step's row sums are its two KV heads' folded 4-row matrices.
    # Reshaping the stack into one matrix gains nothing for short matrices
    # and made a 1,024-token prefill 11% slower for tall ones (OpenBLAS
    # 0.3.31, 2 vCPU).
    scores /= _matmul_cols(scores, _ones_rows(scores.shape[-1], scores.dtype), 1)
    return scores


# Shared read-only tables, replaced (never written) when they grow, so
# threads may read them while another thread grows one.
_ONES: dict[np.dtype, np.ndarray] = {}
_ROPE: dict[tuple[float, int, np.dtype], tuple[np.ndarray, np.ndarray]] = {}
_ROPE_ROWS = 1024  # positions in a rope table's first size


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _ones_rows(k: int, dtype) -> np.ndarray:
    """A (k, _COL_ALIGN) block of ones in the kernel's column layout: rows of one table."""
    table = _ONES.get(dtype)
    if table is None or len(table) < k:
        grown = max(k, 2 * len(table) if table is not None else 0)
        table = _ONES[dtype] = _read_only(np.ones((grown, _COL_ALIGN), dtype))
    return table[:k]


def _rope_table(theta_base: float, d_head: int, dtype, rows: int):
    """Full-width cos and signed sin tables, (>= rows, d_head) in ``dtype``.

    Row p holds [cos, cos] and [-sin, sin] of the angles
    p * theta_base**(-2j/d_head), j < d_head/2, taken in float64.
    """
    key = (theta_base, d_head, dtype)
    table = _ROPE.get(key)
    if table is None or len(table[0]) < rows:
        grown = max(rows, 2 * len(table[0]) if table is not None else _ROPE_ROWS)
        inv_freq = theta_base ** (-2.0 * np.arange(d_head // 2, dtype=np.float64) / d_head)
        angles = np.arange(grown, dtype=np.float64)[:, None] * inv_freq[None, :]
        cos, sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
        table = _ROPE[key] = (_read_only(np.concatenate([cos, cos], axis=1)),
                              _read_only(np.concatenate([-sin, sin], axis=1)))
    return table


def _rope_rows(pos: np.ndarray, theta_base: float, d_head: int, dtype):
    """Cos and signed sin table rows of int ``pos`` (T,), as (T, 1, d_head) arrays in ``dtype``."""
    cos, sin = _rope_table(theta_base, d_head, dtype,
                           int(np.maximum.reduce(pos, initial=0)) + 1)
    return cos.take(pos, axis=0)[:, None], sin.take(pos, axis=0)[:, None]


def _rope_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position embedding of (T, heads, d_head) ``x``, given its positions' ``_rope_rows``.

    Pairs dimension j with j + d_head/2 (d_head even) and rotates each
    pair by pos * theta_base**(-2j/d_head); the norm of every head vector
    is preserved. The table's cos and sin rows equal, bit for bit, those
    computed for the positions alone, which the tests pin on this build.
    """
    # [x1 cos - x2 sin, x1 sin + x2 cos] as x [cos, cos] + [x2, x1] [-sin, sin]:
    # the same rounded products, added in an order that rounds the same
    half = x.shape[-1] // 2
    swapped = np.concatenate((x[..., half:], x[..., :half]), axis=-1)
    swapped *= sin
    out = x * cos
    out += swapped
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) as x * (0.5 * (1 + tanh(0.5 * x))), finite for large |x|."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    out *= x
    return out
